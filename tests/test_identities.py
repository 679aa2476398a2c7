import math

import numpy as np
import pytest

from torsionlab.geometry import DomainSpec, Hole, build_quadratures, random_interior_points
from torsionlab.identities import (
    N_DIM,
    IdentityReport,
    OverdeterminationError,
    _boundary_fields,
    cauchy_schwarz_deficit,
    check_divergence,
    check_fundamental,
    check_overdetermined,
    check_pohozaev,
    check_value_c,
    p_function,
)
from torsionlab.solver import (
    evaluate,
    overdetermined_instance,
    radial_model,
    solve_dirichlet,
)


# ---------------------------------------------------------------------------
# P-function and deficit
# ---------------------------------------------------------------------------


def test_p_function_radial_constant(annulus_model, rng):
    # |x|^2/4 - (1/2)(|x|^2-1)/2 = 1/4 everywhere
    pts = rng.uniform(-0.6, 0.6, size=(50, 2))
    vals = p_function(annulus_model, pts)
    assert np.max(np.abs(vals - 0.25)) <= 1e-14


def test_p_function_is_squared_flux_on_outer_curve(ball_quads):
    spec = DomainSpec(1.0, ((3, 0.05),))
    model, diag = solve_dirichlet(spec, 64, 1.8)
    quads = build_quadratures(spec, 128, 24)
    bq = quads.bounds.gamma
    _, grad, _ = evaluate(model, bq.nodes)
    u_nu = np.sum(grad * bq.normals, axis=1)
    vals = p_function(model, bq.nodes)
    # equality holds up to the fitted field's boundary residual (u = 0 there)
    assert np.max(np.abs(vals - u_nu**2)) <= max(1e-12, 2.0 * diag.max_residual)


def test_p_function_matches_direct_composition(rng):
    spec = DomainSpec(1.0, ((2, 0.06),))
    model, _ = solve_dirichlet(spec, 64, 1.8)
    pts = random_interior_points(spec, 200, rng)
    u, grad, _ = evaluate(model, pts)
    direct = np.sum(grad * grad, axis=1) - u
    assert np.max(np.abs(p_function(model, pts) - direct)) <= 1e-12


def test_deficit_zero_for_radial(annulus_model, rng):
    pts = rng.uniform(-0.5, 0.5, size=(100, 2))
    assert np.max(np.abs(cauchy_schwarz_deficit(annulus_model, pts))) <= 1e-14


def test_deficit_equals_companion_hessian_norm(rng):
    spec = DomainSpec(1.0, ((3, 0.06),))
    model, _ = solve_dirichlet(spec, 64, 1.8)
    pts = random_interior_points(spec, 300, rng)
    _, _, hess = evaluate(model, pts)
    h_hess = np.eye(2) / 2.0 - hess  # Hessian of quadratic - u
    frob_h = np.sum(h_hess * h_hess, axis=(1, 2))
    assert np.max(np.abs(cauchy_schwarz_deficit(model, pts) - frob_h)) <= 1e-12


def test_deficit_nonzero_off_radial():
    inst = overdetermined_instance(0.02)
    vals = cauchy_schwarz_deficit(inst.model, np.array([[0.8, 0.0], [0.0, 0.6]]))
    assert np.max(vals) > 1e-9  # only the radial family has zero deficit


def test_deficit_self_convergence_oracle():
    # value at a probe differs between resolutions only through the solve
    spec = DomainSpec(1.0, ((3, 0.05),))
    # a Dirichlet fit (the pure continuation has a rigidity floor)
    m1, _ = solve_dirichlet(spec, 64, 1.8)
    m8, _ = solve_dirichlet(spec, 256, 1.8)
    v1 = cauchy_schwarz_deficit(m1, (0.8, 0.0))
    v8 = cauchy_schwarz_deficit(m8, (0.8, 0.0))
    assert abs(v1 - v8) <= 1e-6


# ---------------------------------------------------------------------------
# Radial family: hand-computed values
# ---------------------------------------------------------------------------


def _overdetermined(model, spec, c, quads, tol_overdet=1e-6):
    """check_overdetermined on the fundamental and value_c reports of the
    same field and quadratures, as the identities experiment runs it."""
    fundamental = check_fundamental(model, quads)
    value_c = check_value_c(model, spec, quads)
    return check_overdetermined(model, c, quads, fundamental, value_c, tol_overdet)


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.4])
def test_pohozaev_radial_annulus(rho):
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), rho, (rho**2 - 1) / 4.0),))
    quads = build_quadratures(spec, 256, 48)
    model = radial_model(1.0)
    rep = check_pohozaev(model, quads)
    exact = (math.pi / 2.0) * (1.0 - rho**4)  # 4 * integral of |x|^2/4
    assert abs(rep.lhs - exact) <= 1e-12
    assert abs(rep.rhs - exact) <= 1e-12
    assert rep.rel_residual <= 1e-8


def test_pohozaev_ball(ball_quads):
    model = radial_model(1.0)
    rep = check_pohozaev(model, ball_quads)
    assert abs(rep.lhs - math.pi / 2.0) <= 1e-12
    assert rep.rel_residual <= 1e-8


def test_fundamental_ball_both_sides_vanish(ball_quads):
    model = radial_model(1.0)
    rep = check_fundamental(model, ball_quads)
    assert abs(rep.lhs) <= 1e-9 and abs(rep.rhs) <= 1e-9


def test_fundamental_radial_hole_terms_vanish_pointwise(annulus_quads, annulus_model):
    rep = check_fundamental(annulus_model, annulus_quads)
    for key, val in rep.breakdown.items():
        assert abs(val) <= 1e-9, key
    assert rep.rel_residual <= 1e-9


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.4])
def test_overdetermined_radial_groups_vanish(rho):
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), rho, (rho**2 - 1) / 4.0),))
    quads = build_quadratures(spec, 256, 48)
    model = radial_model(1.0)
    rep = _overdetermined(model, spec, 0.5, quads)
    for key, val in rep.breakdown.items():
        assert abs(val) <= 1e-9, key
    assert rep.rel_residual <= 1e-8
    assert abs(rep.extras["flux_identity_residual"]) <= 1e-9


# ---------------------------------------------------------------------------
# Generic instances
# ---------------------------------------------------------------------------


def test_generic_dirichlet_residuals_and_convergence():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    coarse = build_quadratures(spec, 64, 12)
    fine = build_quadratures(spec, 128, 24)
    for checker in (check_pohozaev, check_fundamental):
        r_coarse = checker(model, coarse)
        r_fine = checker(model, fine)
        assert r_coarse.rel_residual <= 1e-4
        assert r_fine.rel_residual <= r_coarse.rel_residual / 4.0


def test_identities_with_two_holes():
    # the hole set need not be connected: every identity closes per component
    spec = DomainSpec(
        1.0,
        ((2, 0.05),),
        (Hole((0.4, 0.0), 0.12, -0.05), Hole((-0.35, 0.2), 0.1, -0.02)),
    )
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 192, 32)
    assert check_pohozaev(model, quads).rel_residual <= 1e-4
    assert check_fundamental(model, quads).rel_residual <= 1e-4
    div = check_divergence(spec, quads)
    assert div.rel_residual <= 1e-8
    assert abs(div.breakdown["hole_0"] + math.pi * 0.12**2) <= 1e-10
    assert abs(div.breakdown["hole_1"] + math.pi * 0.1**2) <= 1e-10


def test_fundamental_lhs_nonnegative_when_u_nonpositive():
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 128, 24)
    rep = check_fundamental(model, quads)
    assert rep.lhs >= -1e-12


def test_overdetermined_instance_identity():
    inst = overdetermined_instance(0.02)
    quads = build_quadratures(inst.spec, 256, 48)
    rep = _overdetermined(inst.model, inst.spec, inst.c, quads)
    assert rep.rel_residual <= 1e-3
    assert abs(rep.extras["flux_identity_residual"]) <= 1e-6


def test_overdetermined_refuses_dirichlet_instance():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 128, 24)
    with pytest.raises(OverdeterminationError):
        _overdetermined(model, spec, 0.5, quads)


def test_breakdown_sums_to_rhs():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 128, 24)
    for rep in (
        check_pohozaev(model, quads),
        check_fundamental(model, quads),
        check_divergence(spec, quads),
    ):
        assert abs(sum(rep.breakdown.values()) - rep.rhs) <= 1e-12


def test_divergence_orientation_guard(annulus, annulus_quads):
    rep = check_divergence(annulus, annulus_quads)
    assert abs(rep.breakdown["gamma"] - math.pi) <= 1e-10
    assert abs(rep.breakdown["hole_0"] + math.pi * 0.04) <= 1e-12
    assert rep.rel_residual <= 1e-10


# ---------------------------------------------------------------------------
# Flux constant
# ---------------------------------------------------------------------------


def _flux_constants(model, spec, quads):
    """c as the outer-curve average of u_nu and from the divergence side: the
    two sides of the value_c identity over |Gamma|."""
    rep = check_value_c(model, spec, quads)
    gamma_len = quads.bounds.gamma.arc_length
    return rep.lhs / gamma_len, rep.rhs / gamma_len


def test_flux_constant_radial_annulus(annulus, annulus_quads, annulus_model):
    from_average, from_divergence = _flux_constants(annulus_model, annulus, annulus_quads)
    # hole flux integral is -rho/2 * 2 pi rho = -0.04 pi; c = (0.96pi + 0.04pi)/2pi
    assert abs(from_divergence - 0.5) <= 1e-12
    assert abs(from_average - 0.5) <= 1e-12


def test_flux_constant_ball_scaling():
    spec = DomainSpec(2.0)
    quads = build_quadratures(spec, 256, 48)
    model = radial_model(2.0)
    _, from_divergence = _flux_constants(model, spec, quads)
    assert abs(from_divergence - 1.0) <= 1e-12  # R/N = 2/2


def test_flux_constant_flags_inconsistency(ball):
    # mismatching inputs (quadratures built for a different curve than the
    # spec's closed-form areas) must trip the 1e-5 consistency rule
    model = radial_model(1.0)
    wrong_quads = build_quadratures(DomainSpec(0.95), 128, 24)
    from_average, from_divergence = _flux_constants(model, ball, wrong_quads)
    assert abs(from_divergence - from_average) > 1e-5


def test_value_c_identity(annulus, annulus_quads, annulus_model):
    rep = check_value_c(annulus_model, annulus, annulus_quads)
    # outer flux pi = 0.96 pi (areas) + 0.04 pi (hole flux, sign flipped)
    assert abs(rep.lhs - math.pi) <= 1e-12
    assert rep.rel_residual <= 1e-12
    assert abs(sum(rep.breakdown.values()) - rep.rhs) <= 1e-12


def test_value_c_identity_generic():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 192, 32)
    assert check_value_c(model, spec, quads).rel_residual <= 1e-8


# ---------------------------------------------------------------------------
# The overdetermined identity reuses the fundamental and flux identities
# ---------------------------------------------------------------------------


def _overdetermined_from_scratch(model, spec, c, quads, tol_overdet):
    """The overdetermined identity computed on its own: a second area-Hessian
    pass, the hole terms, and the outer-curve and hole fluxes.  The oracle for
    check_overdetermined, which takes all of these from the fundamental and
    value_c reports."""
    _, _, u_nu, _, _, _, _ = _boundary_fields(model, quads.bounds.gamma, "g")
    deviation = float(np.max(np.abs(u_nu - c)))
    if deviation > tol_overdet:
        raise OverdeterminationError(deviation, tol_overdet)
    u, _, hess = evaluate(model, quads.area.nodes, "uh")
    frob = np.sum(hess * hess, axis=(1, 2))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    lhs = float(np.sum((-u) * 2.0 * (frob - lap * lap / N_DIM) * quads.area.weights))
    u_group, grad_group = {}, {}
    for bq in quads.bounds.holes:
        u, _, u_nu_h, x_nu, x_grad, grad2, hess_grad_nu = _boundary_fields(model, bq, "ugh")
        u_group[bq.component] = float(np.sum(2.0 * u * (x_nu / N_DIM - u_nu_h) * bq.weights))
        integrand = (
            u_nu_h * grad2
            - 2.0 * x_grad * u_nu_h / N_DIM
            + grad2 * x_nu / N_DIM
            + 2.0 * u * u_nu_h / N_DIM
            - 2.0 * hess_grad_nu * u
        )
        grad_group[bq.component] = float(np.sum(integrand * bq.weights))
    breakdown = {}
    flux_holes = 0.0
    for bq in quads.bounds.holes:
        _, _, u_nu_h, x_nu, _, _, _ = _boundary_fields(model, bq, "g")
        breakdown[f"{bq.component}:c2"] = c * c * float(np.sum((x_nu / N_DIM - u_nu_h) * bq.weights))
        flux_holes += float(np.sum(u_nu_h * bq.weights))
    for comp in u_group:
        breakdown[f"{comp}:u"] = u_group[comp]
        breakdown[f"{comp}:grad"] = grad_group[comp]
    flux_gamma = float(np.sum(u_nu * quads.bounds.gamma.weights))
    return IdentityReport(
        identity="overdetermined",
        lhs=lhs,
        rhs=sum(breakdown.values()),
        breakdown=breakdown,
        extras={
            "overdetermination_deviation": deviation,
            "flux_identity_residual": flux_gamma - (spec.region_area - flux_holes),
        },
    )


def _overdetermined_case(name):
    """(spec, model, tol_overdet) of one instance for the oracle comparison."""
    if name == "identities_radial":  # configs/identities_radial.cfg
        hole = Hole((0.0, 0.0), 0.2, -0.24)
        return DomainSpec(1.0, holes=(hole,)), radial_model(1.0, hole), 1e-6
    if name == "disk":
        return DomainSpec(1.0), radial_model(1.0), 1e-6
    if name.startswith("free-boundary"):
        inst = overdetermined_instance(float(name.split(":")[1]))
        return inst.spec, inst.model, 1e-6
    spec = DomainSpec(
        1.0,
        ((2, 0.05),),
        (Hole((0.4, 0.0), 0.12, -0.05), Hole((-0.35, 0.2), 0.1, -0.02)),
    )
    return spec, solve_dirichlet(spec, 96, 1.8)[0], math.inf


@pytest.mark.parametrize(
    "name", ["identities_radial", "disk", "free-boundary:0.005", "free-boundary:0.02", "two-holes"]
)
def test_overdetermined_matches_from_scratch_bitwise(name):
    spec, model, tol = _overdetermined_case(name)
    quads = build_quadratures(spec, 256, 48)
    value_c = check_value_c(model, spec, quads)
    c = value_c.lhs / quads.bounds.gamma.arc_length
    got = check_overdetermined(
        model, c, quads, check_fundamental(model, quads), value_c, tol
    )
    want = _overdetermined_from_scratch(model, spec, c, quads, tol)
    assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
    assert list(got.breakdown.items()) == list(want.breakdown.items())
    deviation = "overdetermination_deviation"
    assert got.extras[deviation] == want.extras[deviation]
    residual = got.extras["flux_identity_residual"]
    if len(spec.holes) <= 1:
        assert residual == want.extras["flux_identity_residual"]
    else:  # value_c sums the hole fluxes into the area one at a time
        assert abs(residual - want.extras["flux_identity_residual"]) <= 1e-15
