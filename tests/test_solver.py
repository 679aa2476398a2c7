import math
import re
from dataclasses import replace

import numpy as np
import pytest

from torsionlab import solver
from torsionlab.geometry import (
    DomainSpec,
    Hole,
    InvalidDomainError,
    distance_to_boundary,
    random_interior_points,
)
from torsionlab.harness import main
from torsionlab.solver import (
    FieldModel,
    SolverConvergenceError,
    evaluate,
    evaluate_u,
    normal_derivative,
    overdetermined_instance,
    radial_model,
    solve_cauchy,
    solve_dirichlet,
)

from test_harness import OVERDETERMINED_RUN

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# radial reference
# ---------------------------------------------------------------------------


def test_radial_model_evaluation():
    model = radial_model(1.0)
    u, grad, hess = evaluate(model, [(0.6, 0.0)])
    assert abs(u[0] - (-0.16)) <= 1e-14
    assert np.allclose(grad[0], [0.3, 0.0], atol=1e-14)
    assert np.allclose(hess[0], np.eye(2) / 2.0, atol=1e-14)


def test_radial_model_annulus_matches_data():
    m = radial_model(1.0, Hole((0.0, 0.0), 0.2, -0.05))
    assert abs(evaluate_u(m, [(1.0, 0.0)])[0]) <= 1e-14
    assert abs(evaluate_u(m, [(0.0, 0.2)])[0] - (-0.05)) <= 1e-14


@pytest.mark.parametrize(
    "hole, match",
    [
        (Hole((0.1, 0.0), 0.2, -0.05), "centred"),
        (Hole((0.0, -0.3), 0.2, -0.05), "centred"),
        (Hole((0.0, 0.0), 1.0, 0.0), "hole radius"),
        (Hole((0.0, 0.0), 1.5, 0.0), "hole radius"),
    ],
    ids=["off-centre-x", "off-centre-y", "radius-at-R", "radius-beyond-R"],
)
def test_radial_model_rejects_hole(hole, match):
    # the closed form holds only on the centred annulus inside |x| = R
    with pytest.raises(ValueError, match=match):
        radial_model(1.0, hole)


@pytest.mark.parametrize("R", [math.inf, math.nan])
def test_radial_model_rejects_non_finite_radius(R):
    with pytest.raises(InvalidDomainError, match=f"radius must be positive and finite, got {R}"):
        radial_model(R)


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------


def test_ball_reproduces_radial_field(ball, rng):
    model, diag = solve_dirichlet(ball, 96)
    assert diag.max_residual <= 1e-9
    pts = random_interior_points(ball, 1000, rng)
    u = evaluate_u(model, pts)
    ref = (np.sum(pts**2, axis=1) - 1.0) / 4.0
    assert np.max(np.abs(u - ref)) <= 1e-9


def test_annulus_with_radial_datum(rng):
    rho = 0.2
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), rho, (rho**2 - 1) / 4.0),))
    model, diag = solve_dirichlet(spec, 96)
    pts = random_interior_points(spec, 1000, rng)
    u = evaluate_u(model, pts)
    ref = (np.sum(pts**2, axis=1) - 1.0) / 4.0
    assert np.max(np.abs(u - ref)) <= 1e-8


def test_annulus_generic_datum_matches_closed_form(rng):
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.2, -0.05),))
    model, _ = solve_dirichlet(spec, 96)
    oracle = radial_model(1.0, Hole((0.0, 0.0), 0.2, -0.05))
    pts = random_interior_points(spec, 500, rng)
    assert np.max(np.abs(evaluate_u(model, pts) - evaluate_u(oracle, pts))) <= 1e-8


def test_positive_hole_datum_rejected():
    with pytest.raises(InvalidDomainError):
        DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.2, +0.1),))


def test_parameter_preconditions(ball):
    with pytest.raises(InvalidDomainError):
        solve_dirichlet(ball, 16)


def test_dirichlet_nan_residual_fails_the_tolerance(monkeypatch):
    # NaN coefficients (a NaN hole datum gave them before Hole rejected it)
    # make every residual NaN, and NaN > residual_tol is false
    svd_solve = solver._svd_solve

    def nan_solve(*args, **kwargs):
        coef, *rest = svd_solve(*args, **kwargs)
        return (np.full_like(coef, np.nan), *rest)

    monkeypatch.setattr(solver, "_svd_solve", nan_solve)
    spec = DomainSpec(1.0, ((3, 0.05),), (Hole((0.3, 0.0), 0.1, -0.01),))
    with pytest.raises(SolverConvergenceError) as exc:
        solve_dirichlet(spec)
    assert math.isnan(exc.value.diagnostics.max_residual)


def test_self_convergence_in_source_count():
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    residuals = []
    for n in (32, 64, 128):
        _, diag = solve_dirichlet(spec, n, residual_tol=np.inf)
        residuals.append(diag.max_residual)
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= coarse / 10.0 or fine <= 1e-10  # floor clause


# ---------------------------------------------------------------------------
# Representation properties
# ---------------------------------------------------------------------------


def test_exact_pde_everywhere(rng):
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 64)
    pts = random_interior_points(spec, 10_000, rng)
    _, _, hess = evaluate(model, pts)
    trace = hess[:, 0, 0] + hess[:, 1, 1]
    assert np.max(np.abs(trace - 1.0)) <= 1e-12


def test_companion_harmonic_part(rng):
    # h = quadratic - u has identically vanishing Laplacian
    spec = DomainSpec(1.0, ((2, 0.05),))
    model, _ = solve_dirichlet(spec, 64)
    pts = random_interior_points(spec, 2000, rng)
    _, _, hess = evaluate(model, pts)
    h_lap = (0.5 - hess[:, 0, 0]) + (0.5 - hess[:, 1, 1])
    assert np.max(np.abs(h_lap)) <= 1e-12


def test_finite_difference_derivatives(rng):
    spec = DomainSpec(1.0, ((3, 0.05),))
    model, _ = solve_dirichlet(spec, 64)
    pts = random_interior_points(spec, 100, rng)
    pts = pts[distance_to_boundary(spec, pts) > 0.05][:50]
    assert len(pts) == 50
    u, grad, hess = evaluate(model, pts)
    h = 1e-5
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        up = evaluate_u(model, pts + e)
        um = evaluate_u(model, pts - e)
        fd = (up - um) / (2 * h)
        denom = np.maximum(np.abs(grad[:, axis]), 1e-3)
        assert np.max(np.abs(fd - grad[:, axis]) / denom) <= 1e-7
        _, gp, _ = evaluate(model, pts + e)
        _, gm, _ = evaluate(model, pts - e)
        fd_h = (gp - gm) / (2 * h)
        for other in range(2):
            denom = np.maximum(np.abs(hess[:, axis, other]), 1e-3)
            assert np.max(np.abs(fd_h[:, other] - hess[:, axis, other]) / denom) <= 1e-6


def test_maximum_principle(rng):
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96)
    pts = random_interior_points(spec, 5000, rng)
    assert np.max(evaluate_u(model, pts)) <= 1e-9


def test_symmetric_evaluation():
    spec = DomainSpec(1.0, ((2, 0.06),))  # cosine modes: symmetric in the x-axis
    model, _ = solve_dirichlet(spec, 64)
    pts = np.array([[0.3, 0.4], [0.1, -0.2], [-0.5, 0.3]])
    mirrored = pts * np.array([1.0, -1.0])
    assert np.max(np.abs(evaluate_u(model, pts) - evaluate_u(model, mirrored))) <= 1e-10


def test_model_serialization_roundtrip():
    spec = DomainSpec(1.0, ((2, 0.05),))
    model, _ = solve_dirichlet(spec, 48)
    clone = FieldModel.from_dict(model.to_dict())
    pts = np.array([[0.2, 0.1], [-0.4, 0.3]])
    assert np.allclose(evaluate_u(model, pts), evaluate_u(clone, pts), atol=0, rtol=0)


# ---------------------------------------------------------------------------
# Cauchy continuation
# ---------------------------------------------------------------------------


def test_cauchy_ball_recovers_radial(ball, rng):
    model, diag = solve_cauchy(ball, 0.5)
    assert diag.max_residual <= 1e-9
    pts = random_interior_points(ball, 500, rng)
    ref = (np.sum(pts**2, axis=1) - 1.0) / 4.0
    assert np.max(np.abs(evaluate_u(model, pts) - ref)) <= 1e-8


def test_cauchy_requires_hole_free_domain():
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.2, -0.1),))
    with pytest.raises(InvalidDomainError):
        solve_cauchy(spec, 0.5)


def test_cauchy_rigidity_floor_on_perturbed_curve():
    # With all sources outside the curve the joint misfit cannot beat the
    # curve's rigidity deficit (only disks admit exactly overdetermined smooth
    # fields), so the continuation reports failure rather than hiding it.
    spec = DomainSpec(1.0, ((3, 0.02),))
    with pytest.raises(SolverConvergenceError) as exc:
        solve_cauchy(spec, 0.5)
    assert exc.value.diagnostics.max_residual > 1e-4


def test_cauchy_nan_residual_fails_the_tolerance(ball):
    with pytest.raises(SolverConvergenceError) as exc:
        solve_cauchy(ball, math.nan)
    assert math.isnan(exc.value.diagnostics.max_residual)


@pytest.mark.parametrize("tikhonov", [math.nan, math.inf, -1.0])
def test_cauchy_rejects_a_tikhonov_weight_outside_zero_to_inf(ball, tikhonov):
    # nan > 0 is false, so a NaN weight used to run undamped; inf ended in LAPACK
    with pytest.raises(InvalidDomainError, match=f"must be finite and >= 0, got {tikhonov}"):
        solve_cauchy(ball, 0.5, tikhonov=tikhonov)


def test_a_nan_in_one_residual_component_fails_the_tolerance(ball, monkeypatch):
    # max(0.0, nan) is 0.0 in Python, as NaN compares false: the diagnostics
    # take a NaN-propagating max, so one NaN component fails the check
    monkeypatch.setattr(solver, "_cauchy_misfits", lambda *args: (0.0, math.nan))
    with pytest.raises(SolverConvergenceError) as exc:
        solve_cauchy(ball, 0.5)
    assert math.isnan(exc.value.diagnostics.max_residual)


def test_cauchy_large_tikhonov_limit(ball):
    # lam -> infinity kills the source coefficients; the boundary misfit
    # approaches the best constant-only fit, computed independently
    model, diag = solve_cauchy(ball, 0.5, tikhonov=1e12, residual_tol=np.inf)
    assert np.linalg.norm(model.coeffs) <= 1e-6
    from torsionlab.geometry import build_boundary_quadrature

    bq = build_boundary_quadrature(ball, 512).gamma
    q = np.sum(bq.nodes**2, axis=1) / 4.0
    qn = 0.5 * np.sum(bq.nodes * bq.normals, axis=1)
    best_const, *_ = np.linalg.lstsq(
        np.concatenate([np.ones(bq.n_nodes), np.zeros(bq.n_nodes)])[:, None],
        np.concatenate([-q, 0.5 - qn]),
        rcond=None,
    )
    res_u = np.max(np.abs(q + best_const[0]))
    res_n = np.max(np.abs(qn - 0.5))
    oracle = max(res_u, res_n)
    assert abs(diag.max_residual - oracle) <= 1e-8


def test_cauchy_with_future_hole_ring():
    spec = DomainSpec(1.0, ((3, 0.02),))
    hole = Hole((0.4, 0.0), 0.1, 0.0)
    with pytest.raises(SolverConvergenceError) as exc:
        solve_cauchy(spec, 0.5, future_holes=(hole,))
    # the inner ring cannot reach 1e-6 either: the continuation of this
    # boundary data is singular at the origin, outside the prescribed hole
    assert exc.value.diagnostics.max_residual > 1e-5
    # the carved domain (the same curve with the hole) is a valid DomainSpec
    assert replace(spec, holes=(hole,)).holes == (hole,)


# ---------------------------------------------------------------------------
# Exactly overdetermined instances
# ---------------------------------------------------------------------------


def test_overdetermined_instance_exactness():
    inst = overdetermined_instance(0.01)
    assert inst.dirichlet_misfit <= 1e-9
    assert inst.neumann_misfit <= 1e-9
    assert inst.spec.holes[0].center == (0.4, 0.0)
    from torsionlab.geometry import build_boundary_quadrature

    bq = build_boundary_quadrature(inst.spec, 512)
    u_nu = normal_derivative(inst.model, bq.gamma.nodes, bq.gamma.normals)
    assert np.max(np.abs(u_nu - inst.c)) <= 1e-8
    assert np.max(evaluate_u(inst.model, bq.holes[0].nodes)) <= 0.0


def test_overdetermined_instance_reuses_the_probe_pass_as_trial_step_0(monkeypatch):
    # the probe's mu = 0 pass and the first trial step solve on the same
    # starting state; one lstsq serves both, and the mu = 1e-2 probe is the
    # only solve besides the trial steps
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    inst = overdetermined_instance(0.02)
    assert len(calls) == inst.iterations + 1


def test_overdetermined_instance_zero_offset_is_circular():
    # eps = 0 gives the concentric member: the outer curve is a circle about
    # the hole (radius gap ~ 0), while the pseudo-distance and asymmetry keep
    # their hole-flux offsets (c exceeds R/N, so the comparison ball is larger
    # than the domain): the three stability notions genuinely differ
    inst = overdetermined_instance(0.0)
    from torsionlab.geometry import enclosing_inscribed_radii

    rho_e, rho_i = enclosing_inscribed_radii(inst.spec, inst.spec.holes[0].center)
    assert rho_e - rho_i <= 1e-10
    assert inst.neumann_misfit <= 1e-9


def test_overdetermined_instance_deviation_scales_with_eps():
    gaps = []
    for eps in (0.005, 0.02):
        inst = overdetermined_instance(eps)
        from torsionlab.geometry import enclosing_inscribed_radii

        rho_e, rho_i = enclosing_inscribed_radii(inst.spec, inst.spec.holes[0].center)
        gaps.append(rho_e - rho_i)
    assert gaps[1] > 2.0 * gaps[0]


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"eps": math.nan}, ValueError, "eps must be finite and >= 0, got nan"),
        ({"eps": math.inf}, ValueError, "eps must be finite and >= 0, got inf"),
        ({"eps": -0.01}, ValueError, "eps must be finite and >= 0, got -0.01"),
        ({"c": math.nan}, ValueError, "c must be positive and finite, got nan"),
        ({"c": math.inf}, ValueError, "c must be positive and finite, got inf"),
        ({"c": 0.0}, ValueError, "c must be positive and finite, got 0.0"),
        ({"c": -0.5}, ValueError, "c must be positive and finite, got -0.5"),
        ({"hole_radius": math.nan}, InvalidDomainError, "hole radius must be positive and finite, got nan"),
        ({"hole_radius": 0.0}, InvalidDomainError, "hole radius must be positive and finite, got 0.0"),
        ({"hole_center": (math.nan, 0.0)}, InvalidDomainError, "hole center must be finite, got (nan, 0.0)"),
    ],
    ids=["eps-nan", "eps-inf", "eps-negative", "c-nan", "c-inf", "c-zero", "c-negative",
         "radius-nan", "radius-zero", "center-nan"],
)
def test_overdetermined_instance_checks_inputs_before_the_first_solve(
    kwargs, error, message, monkeypatch, capfd
):
    # these used to fail in LAPACK (printing to stderr), run all 60 trial
    # steps into a non-convergence report, or pass the iteration first
    def no_solve(*args, **kw):
        raise AssertionError("a solve ran before the inputs were checked")

    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    with pytest.raises(error, match=re.escape(message)):
        overdetermined_instance(**{"eps": 0.01, **kwargs})
    assert capfd.readouterr().err == ""


def _noisy_normal_rows(monkeypatch):
    # seeded noise on every normal-derivative row keeps each trial step's
    # Neumann misfit far above the tolerance
    rng = np.random.default_rng(0)
    block = solver._kernel_normal_block

    def noisy(*args):
        rows = block(*args)
        return rows + 1e-3 * rng.standard_normal(rows.shape)

    monkeypatch.setattr(solver, "_kernel_normal_block", noisy)


def _neumann_offset_on_the_final_domain(monkeypatch):
    misfits = solver._cauchy_misfits
    monkeypatch.setattr(solver, "_cauchy_misfits", lambda *a: (misfits(*a)[0], 1e-6))


def _positive_on_the_hole(monkeypatch):
    # the final check also requires u <= 0 on the hole; only the hole's
    # nodes go through evaluate_u in the builder
    evaluate_u = solver.evaluate_u
    monkeypatch.setattr(solver, "evaluate_u", lambda *a: -evaluate_u(*a))


@pytest.mark.parametrize(
    "provoke, message",
    [
        (_noisy_normal_rows, "free-boundary iteration did not converge"),
        (_neumann_offset_on_the_final_domain, "failed verification on the final domain"),
        (_positive_on_the_hole, "failed verification on the final domain"),
    ],
    ids=["no-convergence", "neumann-misfit", "positive-on-hole"],
)
def test_overdetermined_instance_failures_carry_the_builder_diagnostics(
    provoke, message, monkeypatch, tmp_path, capsys
):
    provoke(monkeypatch)
    with pytest.raises(SolverConvergenceError, match=message) as exc:
        overdetermined_instance(0.01)
    diag = exc.value.diagnostics
    assert set(diag.residual_per_component) == {"gamma", "gamma_normal"}
    assert (diag.n_collocation, diag.n_unknowns) == (384, 97)
    assert math.isnan(diag.condition)
    assert (diag.tikhonov, diag.truncated_modes) == (0.0, 0)
    # the CLI reports the same failure as a numeric failure
    cfg = tmp_path / "overdetermined.cfg"
    cfg.write_text(OVERDETERMINED_RUN)
    capsys.readouterr()
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and message in err
