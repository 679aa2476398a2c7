import math
from pathlib import Path

import numpy as np
import pytest

from torsionlab import _kernels, harness
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
    sample_field,
)
from torsionlab.solver import (
    evaluate,
    overdetermined_instance,
    radial_model,
    solve_dirichlet,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    model, diag = solve_dirichlet(spec, 64)
    quads = build_quadratures(spec, 128, 24)
    bq = quads.bounds.gamma
    _, grad, _ = evaluate(model, bq.nodes)
    u_nu = np.sum(grad * bq.normals, axis=1)
    vals = p_function(model, bq.nodes)
    # equality holds up to the fitted field's boundary residual (u = 0 there)
    assert np.max(np.abs(vals - u_nu**2)) <= max(1e-12, 2.0 * diag.max_residual)


def test_p_function_matches_direct_composition(rng):
    spec = DomainSpec(1.0, ((2, 0.06),))
    model, _ = solve_dirichlet(spec, 64)
    pts = random_interior_points(spec, 200, rng)
    u, grad, _ = evaluate(model, pts)
    direct = np.sum(grad * grad, axis=1) - u
    assert np.max(np.abs(p_function(model, pts) - direct)) <= 1e-12


def test_deficit_zero_for_radial(annulus_model, rng):
    pts = rng.uniform(-0.5, 0.5, size=(100, 2))
    assert np.max(np.abs(cauchy_schwarz_deficit(annulus_model, pts))) <= 1e-14


def test_deficit_equals_companion_hessian_norm(rng):
    spec = DomainSpec(1.0, ((3, 0.06),))
    model, _ = solve_dirichlet(spec, 64)
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
    m1, _ = solve_dirichlet(spec, 64)
    m8, _ = solve_dirichlet(spec, 256)
    v1 = cauchy_schwarz_deficit(m1, [(0.8, 0.0)])[0]
    v8 = cauchy_schwarz_deficit(m8, [(0.8, 0.0)])[0]
    assert abs(v1 - v8) <= 1e-6


# ---------------------------------------------------------------------------
# Radial family: hand-computed values
# ---------------------------------------------------------------------------


def _overdetermined(model, spec, c, quads, tol_overdet=1e-6):
    """check_overdetermined on the fundamental and value_c reports of the
    same samples, as the identities experiment runs it."""
    area, gamma, holes = sample_field(model, quads)
    fundamental = check_fundamental(area, gamma, holes)
    value_c = check_value_c(spec, gamma, holes)
    return check_overdetermined(gamma, holes, c, fundamental, value_c, tol_overdet)


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.4])
def test_pohozaev_radial_annulus(rho):
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), rho, (rho**2 - 1) / 4.0),))
    quads = build_quadratures(spec, 256, 48)
    model = radial_model(1.0)
    rep = check_pohozaev(*sample_field(model, quads))
    exact = (math.pi / 2.0) * (1.0 - rho**4)  # 4 * integral of |x|^2/4
    assert abs(rep.lhs - exact) <= 1e-12
    assert abs(rep.rhs - exact) <= 1e-12
    assert rep.rel_residual <= 1e-8


def test_pohozaev_ball(ball_quads):
    model = radial_model(1.0)
    rep = check_pohozaev(*sample_field(model, ball_quads))
    assert abs(rep.lhs - math.pi / 2.0) <= 1e-12
    assert rep.rel_residual <= 1e-8


def test_fundamental_ball_both_sides_vanish(ball_quads):
    model = radial_model(1.0)
    rep = check_fundamental(*sample_field(model, ball_quads))
    assert abs(rep.lhs) <= 1e-9 and abs(rep.rhs) <= 1e-9


def test_fundamental_radial_hole_terms_vanish_pointwise(annulus_quads, annulus_model):
    rep = check_fundamental(*sample_field(annulus_model, annulus_quads))
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
    model, _ = solve_dirichlet(spec, 96)
    coarse = sample_field(model, build_quadratures(spec, 64, 12))
    fine = sample_field(model, build_quadratures(spec, 128, 24))
    for checker in (check_pohozaev, check_fundamental):
        r_coarse = checker(*coarse)
        r_fine = checker(*fine)
        assert r_coarse.rel_residual <= 1e-4
        assert r_fine.rel_residual <= r_coarse.rel_residual / 4.0


def test_identities_with_two_holes():
    # the hole set need not be connected: every identity closes per component
    spec = DomainSpec(
        1.0,
        ((2, 0.05),),
        (Hole((0.4, 0.0), 0.12, -0.05), Hole((-0.35, 0.2), 0.1, -0.02)),
    )
    model, _ = solve_dirichlet(spec, 96)
    area, gamma, holes = sample_field(model, build_quadratures(spec, 192, 32))
    assert check_pohozaev(area, gamma, holes).rel_residual <= 1e-4
    assert check_fundamental(area, gamma, holes).rel_residual <= 1e-4
    div = check_divergence(spec, gamma, holes)
    assert div.rel_residual <= 1e-8
    assert abs(div.breakdown["hole_0"] + math.pi * 0.12**2) <= 1e-10
    assert abs(div.breakdown["hole_1"] + math.pi * 0.1**2) <= 1e-10


def test_fundamental_lhs_nonnegative_when_u_nonpositive():
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96)
    rep = check_fundamental(*sample_field(model, build_quadratures(spec, 128, 24)))
    assert rep.lhs >= -1e-12


def test_overdetermined_instance_identity():
    inst = overdetermined_instance(0.02)
    quads = build_quadratures(inst.spec, 256, 48)
    rep = _overdetermined(inst.model, inst.spec, inst.c, quads)
    assert rep.rel_residual <= 1e-3
    assert abs(rep.extras["flux_identity_residual"]) <= 1e-6


def test_overdetermined_refuses_dirichlet_instance():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96)
    quads = build_quadratures(spec, 128, 24)
    with pytest.raises(OverdeterminationError):
        _overdetermined(model, spec, 0.5, quads)


def test_breakdown_sums_to_rhs():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96)
    area, gamma, holes = sample_field(model, build_quadratures(spec, 128, 24))
    for rep in (
        check_pohozaev(area, gamma, holes),
        check_fundamental(area, gamma, holes),
        check_divergence(spec, gamma, holes),
    ):
        assert abs(sum(rep.breakdown.values()) - rep.rhs) <= 1e-12


def test_divergence_orientation_guard(annulus, annulus_quads, annulus_model):
    rep = check_divergence(annulus, *sample_field(annulus_model, annulus_quads)[1:])
    assert abs(rep.breakdown["gamma"] - math.pi) <= 1e-10
    assert abs(rep.breakdown["hole_0"] + math.pi * 0.04) <= 1e-12
    assert rep.rel_residual <= 1e-10


# ---------------------------------------------------------------------------
# Flux constant
# ---------------------------------------------------------------------------


def _flux_constants(model, spec, quads):
    """c as the outer-curve average of u_nu and from the divergence side: the
    two sides of the value_c identity over |Gamma|."""
    rep = check_value_c(spec, *sample_field(model, quads)[1:])
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
    rep = check_value_c(annulus, *sample_field(annulus_model, annulus_quads)[1:])
    # outer flux pi = 0.96 pi (areas) + 0.04 pi (hole flux, sign flipped)
    assert abs(rep.lhs - math.pi) <= 1e-12
    assert rep.rel_residual <= 1e-12
    assert abs(sum(rep.breakdown.values()) - rep.rhs) <= 1e-12


def test_value_c_identity_generic():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    model, _ = solve_dirichlet(spec, 96)
    quads = build_quadratures(spec, 192, 32)
    assert check_value_c(spec, *sample_field(model, quads)[1:]).rel_residual <= 1e-8


# ---------------------------------------------------------------------------
# One field pass per node set; the overdetermined identity reuses the
# fundamental and flux identities
# ---------------------------------------------------------------------------


def test_run_identities_evaluates_each_node_set_once(monkeypatch):
    # configs/identities_radial.cfg: one kernel call each for the area nodes,
    # the outer curve and the hole
    cfg = harness.load_config(CONFIGS / "identities_radial.cfg")
    kernel = _kernels.log_source_fields
    calls = []

    def counted(points, sources, coeffs, want="ugh"):
        calls.append((want, len(points)))
        return kernel(points, sources, coeffs, want)

    monkeypatch.setattr(_kernels, "log_source_fields", counted)
    harness.run_identities(cfg)
    assert calls == [("ugh", 9984), ("g", 256), ("ugh", 128)]


# The oracles of test_overdetermined_matches_from_scratch_bitwise: each check
# computed from its own field passes, as many as it reads.


def _pieces(model, bq, want):
    """bq's integrand pieces from their own evaluation of the parts in want."""
    return _boundary_fields(bq, *evaluate(model, bq.nodes, want))


def _divergence_from_scratch(spec, quads):
    breakdown = {}
    for bq in quads.bounds.all():
        x_nu = np.sum(bq.nodes * bq.normals, axis=1)
        breakdown[bq.component] = float(np.sum(x_nu / N_DIM * bq.weights))
    return IdentityReport("divergence_x", spec.region_area, sum(breakdown.values()), breakdown)


def _value_c_from_scratch(model, spec, quads):
    bq = quads.bounds.gamma
    _, _, u_nu, _, _, _, _ = _pieces(model, bq, "g")
    lhs = float(np.sum(u_nu * bq.weights))
    breakdown = {"region_area": spec.region_area}
    for bq_h in quads.bounds.holes:
        _, _, u_nu_h, _, _, _, _ = _pieces(model, bq_h, "g")
        breakdown[bq_h.component] = -float(np.sum(u_nu_h * bq_h.weights))
    return IdentityReport("value_c", lhs, sum(breakdown.values()), breakdown)


def _pohozaev_from_scratch(model, quads):
    _, grad, _ = evaluate(model, quads.area.nodes, "g")
    lhs = (N_DIM + 2.0) * float(np.sum(np.sum(grad * grad, axis=1) * quads.area.weights))
    bq = quads.bounds.gamma
    _, _, u_nu, x_nu, _, _, _ = _pieces(model, bq, "g")
    breakdown = {"gamma": float(np.sum(x_nu * u_nu**2 * bq.weights))}
    for bq in quads.bounds.holes:
        _, u, u_nu, x_nu, x_grad, grad2, _ = _pieces(model, bq, "ug")
        integrand = (
            u * u_nu
            - x_nu * u / N_DIM
            + x_grad * u_nu / N_DIM
            - x_nu * grad2 / (2.0 * N_DIM)
        )
        breakdown[bq.component] = 2.0 * N_DIM * float(np.sum(integrand * bq.weights))
    return IdentityReport("pohozaev", lhs, sum(breakdown.values()), breakdown)


def _fundamental_from_scratch(model, quads):
    u, _, hess = evaluate(model, quads.area.nodes, "uh")
    frob = np.sum(hess * hess, axis=(1, 2))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    lhs = float(np.sum((-u) * 2.0 * (frob - lap * lap / N_DIM) * quads.area.weights))
    bq = quads.bounds.gamma
    _, _, u_nu, x_nu, _, _, _ = _pieces(model, bq, "g")
    breakdown = {"gamma": float(np.sum(u_nu**2 * (u_nu - x_nu / N_DIM) * bq.weights))}
    for bq in quads.bounds.holes:
        _, u, u_nu, x_nu, x_grad, grad2, hess_grad_nu = _pieces(model, bq, "ugh")
        breakdown[f"{bq.component}:u"] = float(
            np.sum(2.0 * u * (x_nu / N_DIM - u_nu) * bq.weights)
        )
        integrand = (
            u_nu * grad2
            - 2.0 * x_grad * u_nu / N_DIM
            + grad2 * x_nu / N_DIM
            + 2.0 * u * u_nu / N_DIM
            - 2.0 * hess_grad_nu * u
        )
        breakdown[f"{bq.component}:grad"] = float(np.sum(integrand * bq.weights))
    return IdentityReport("fundamental", lhs, sum(breakdown.values()), breakdown)


def _overdetermined_from_scratch(model, spec, c, quads, tol_overdet):
    """The overdetermined identity computed on its own: a second area-Hessian
    pass, the hole terms, and the outer-curve and hole fluxes.  The oracle for
    check_overdetermined, which takes all of these from the fundamental and
    value_c reports."""
    _, _, u_nu, _, _, _, _ = _pieces(model, quads.bounds.gamma, "g")
    deviation = float(np.max(np.abs(u_nu - c)))
    if deviation > tol_overdet:
        raise OverdeterminationError(deviation, tol_overdet)
    u, _, hess = evaluate(model, quads.area.nodes, "uh")
    frob = np.sum(hess * hess, axis=(1, 2))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    lhs = float(np.sum((-u) * 2.0 * (frob - lap * lap / N_DIM) * quads.area.weights))
    u_group, grad_group = {}, {}
    for bq in quads.bounds.holes:
        _, u, u_nu_h, x_nu, x_grad, grad2, hess_grad_nu = _pieces(model, bq, "ugh")
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
        _, _, u_nu_h, x_nu, _, _, _ = _pieces(model, bq, "g")
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
    return spec, solve_dirichlet(spec, 96)[0], math.inf


def _bits(rep):
    """rep with every float as float.hex, so equal only when bitwise equal."""
    return (
        rep.identity,
        rep.lhs.hex(),
        rep.rhs.hex(),
        [(k, v.hex()) for k, v in rep.breakdown.items()],
        [(k, v.hex()) for k, v in rep.extras.items()],
    )


@pytest.mark.parametrize(
    "name", ["identities_radial", "disk", "free-boundary:0.005", "free-boundary:0.02", "two-holes"]
)
def test_overdetermined_matches_from_scratch_bitwise(name):
    spec, model, tol = _overdetermined_case(name)
    quads = build_quadratures(spec, 256, 48)
    area, gamma, holes = sample_field(model, quads)
    value_c = check_value_c(spec, gamma, holes)
    fundamental = check_fundamental(area, gamma, holes)
    # every check on the one-pass samples is bitwise the check on its own passes
    for got, want in (
        (check_divergence(spec, gamma, holes), _divergence_from_scratch(spec, quads)),
        (value_c, _value_c_from_scratch(model, spec, quads)),
        (check_pohozaev(area, gamma, holes), _pohozaev_from_scratch(model, quads)),
        (fundamental, _fundamental_from_scratch(model, quads)),
    ):
        assert _bits(got) == _bits(want)
    c = value_c.lhs / quads.bounds.gamma.arc_length
    got = check_overdetermined(gamma, holes, c, fundamental, value_c, tol)
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
