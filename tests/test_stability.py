import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from torsionlab import _kernels, harness, stability
from torsionlab.geometry import (
    BoundaryQuadrature,
    DomainSpec,
    ExteriorPointError,
    Hole,
    build_quadratures,
    diameter,
    distance_bounds,
    distance_to_boundary,
    enclosing_inscribed_radii,
    interior_sphere_radius,
    random_interior_points,
    symmetric_difference_ratio,
    tubular_sets,
)
from torsionlab.harness import load_config
from torsionlab.identities import check_value_c, sample_field
from torsionlab.solver import (
    evaluate,
    evaluate_u,
    normal_derivative,
    overdetermined_instance,
    radial_model,
    solve_dirichlet,
)
from torsionlab.stability import (
    ExponentTripleError,
    StabilityReport,
    adjusted_center,
    asymmetry_vs_pseudo_distance,
    bound_table,
    check_growth,
    check_hopf,
    check_oscillation_bound,
    fit_constants,
    oscillation_constants,
    poincare_ratio_experiment,
    pseudo_distance,
    radii_gap_exponent,
    random_harmonic_fields,
    stability_report,
    validate_poincare_triple,
)
from test_geometry import _pinned_points, admissible_domains

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class HarmonicPoly:
    """v = Re((x + iy)^2) = x^2 - y^2, a closed-form harmonic test field."""

    def fields(self, pts, want):
        pts = np.atleast_2d(pts)
        u = pts[:, 0] ** 2 - pts[:, 1] ** 2 if "u" in want else None
        grad = np.stack([2.0 * pts[:, 0], -2.0 * pts[:, 1]], axis=-1) if "g" in want else None
        return u, grad


# ---------------------------------------------------------------------------
# Centers
# ---------------------------------------------------------------------------


def _center(spec, model, quads):
    holes = [(bq, evaluate_u(model, bq.nodes)) for bq in quads.bounds.holes]
    return adjusted_center(spec, quads.area, holes, spec.region_area)


def _center_tubular(spec, model, r_i, n_theta=256, n_s=24):
    tube, inner = tubular_sets(spec, r_i, r_i, n_theta=n_theta, n_s=n_s)
    return adjusted_center(spec, tube, ((inner, evaluate_u(model, inner.nodes)),), tube.total)


def test_center_radial_annulus(annulus, annulus_quads, annulus_model):
    z, inside = _center(annulus, annulus_model, annulus_quads)
    assert inside
    assert np.max(np.abs(z)) <= 1e-9


def test_center_ball_is_barycenter(ball, ball_quads):
    model = radial_model(1.0)
    z, inside = _center(ball, model, ball_quads)
    assert inside and np.max(np.abs(z)) <= 1e-12


def test_center_self_convergence_oracle():
    spec = DomainSpec(1.0, holes=(Hole((0.4, 0.0), 0.12, -0.1),))
    model, _ = solve_dirichlet(spec, 96)
    coarse = build_quadratures(spec, 128, 24)
    fine = build_quadratures(spec, 1024, 192)  # 8x resolution oracle
    z1, _ = _center(spec, model, coarse)
    z8, _ = _center(spec, model, fine)
    assert np.max(np.abs(z1 - z8)) <= 1e-6


def test_center_tubular_radial(annulus, annulus_model):
    r_i = interior_sphere_radius(annulus)
    z, inside = _center_tubular(annulus, annulus_model, r_i)
    assert inside and np.max(np.abs(z)) <= 1e-9


def test_center_tubular_ignores_hole_outside_tube():
    # the tube of width r_i touches neither the center hole nor its field data
    spec = DomainSpec(1.0, holes=(Hole((0.3, 0.0), 0.1, -0.1),))
    model, _ = solve_dirichlet(spec, 96)
    r_i = interior_sphere_radius(spec)
    z, inside = _center_tubular(spec, model, r_i)
    assert inside
    # the hole-free ball with the same outer curve gives exactly zero
    ball_model, _ = solve_dirichlet(DomainSpec(1.0), 96)
    z0, _ = _center_tubular(DomainSpec(1.0), ball_model, 1.0)
    assert np.max(np.abs(z0)) <= 1e-6
    assert np.max(np.abs(z)) <= 0.05  # z stays near the barycenter


def test_center_tubular_self_convergence():
    spec = DomainSpec(1.0, ((3, 0.05),))
    model, _ = solve_dirichlet(spec, 96)
    r_i = interior_sphere_radius(spec)
    z1, _ = _center_tubular(spec, model, r_i, n_theta=128, n_s=12)
    z8, _ = _center_tubular(spec, model, r_i, n_theta=1024, n_s=96)
    assert np.max(np.abs(z1 - z8)) <= 1e-5


# ---------------------------------------------------------------------------
# Pseudo-distance
# ---------------------------------------------------------------------------


def test_pseudo_distance_ball_zero(ball_quads):
    assert pseudo_distance(ball_quads.bounds.gamma, (0.0, 0.0), 0.5) <= 1e-12


def test_pseudo_distance_offset_small_d_expansion(ball_quads):
    d = 0.1
    val = pseudo_distance(ball_quads.bounds.gamma, (d, 0.0), 0.5)
    assert abs(val - math.pi * d * d / 4.0) <= 2e-4


def test_pseudo_distance_monte_carlo_oracle():
    spec = DomainSpec(1.0, ((3, 0.05),))
    quads = build_quadratures(spec, 256, 32)
    val = pseudo_distance(quads.bounds.gamma, (0.0, 0.0), 0.5)
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, TWO_PI, 1_000_000)
    x = spec.boundary_point(theta)
    speed = spec.boundary_speed(theta)
    integrand = (np.hypot(x[:, 0], x[:, 1]) / 2.0 - 0.5) ** 2 * speed
    mc = float(np.mean(integrand) * TWO_PI)
    assert abs(val - mc) / abs(mc) <= 1e-3


def test_pseudo_distance_rotation_invariance(ball_quads):
    # rotate the raw quadrature arrays and the center rigidly
    bq = ball_quads.bounds.gamma
    z = np.array([0.17, -0.05])
    base = pseudo_distance(bq, z, 0.45)
    phi = 0.8
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    rotated = BoundaryQuadrature(
        component=bq.component,
        theta=bq.theta,
        nodes=bq.nodes @ R.T,
        normals=bq.normals @ R.T,
        weights=bq.weights,
    )
    assert abs(pseudo_distance(rotated, R @ z, 0.45) - base) <= 1e-10


# ---------------------------------------------------------------------------
# Growth and boundary-derivative lower bounds
# ---------------------------------------------------------------------------


def test_growth_hand_values(annulus, annulus_model):
    r_i = interior_sphere_radius(annulus)
    rep = check_growth(annulus_model, annulus, np.array([[0.6, 0.0]]), r_i)
    # -u = 0.16, delta^2/4 = 0.04, (r_i/4) delta = 0.04
    assert rep.passed
    assert abs(rep.min_slack - 0.12) <= 1e-6


def test_growth_slack_vanishes_at_boundary(annulus, annulus_model):
    r_i = interior_sphere_radius(annulus)
    pts = np.array([[1.0 - d, 0.0] for d in (1e-2, 1e-3, 1e-4)])
    rep = check_growth(annulus_model, annulus, pts, r_i)
    assert rep.passed
    assert rep.min_slack <= 1e-3  # slack -> 0 from above as delta -> 0


def test_growth_property_run(rng):
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96)
    r_i = interior_sphere_radius(spec)
    pts = random_interior_points(spec, 10_000, rng)
    rep = check_growth(model, spec, pts, r_i)
    assert rep.violations == 0


def _samples_and_pinned_points(spec, seed):
    pinned = _pinned_points(spec)
    scattered = random_interior_points(spec, 2000, np.random.default_rng(seed))
    return np.concatenate([scattered, pinned[spec.contains(pinned)]])


def _growth_at_every_sample(model, spec, pts, r_i):
    """The oracle of the growth-check filter: the slack from
    distance_to_boundary at every sample, reported as _pointwise_report does."""
    u = evaluate_u(model, pts)
    delta = distance_to_boundary(spec, pts)
    slack = np.minimum(-u - delta * delta / 4.0, -u - (r_i / 4.0) * delta)
    bad = slack < -1e-9
    i = int(np.argmin(slack))
    witness = (tuple(pts[i]), float(slack[i])) if np.any(bad) else None
    return (pts.shape[0], float(np.min(slack)), int(np.sum(bad)), witness)


@settings(max_examples=40, deadline=None)
@given(
    spec=admissible_domains(),
    field=hst.one_of(hst.just("solved"), hst.floats(0.3, 2.0)),
    which=hst.sampled_from(["zero", "small", "domain", "large"]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_growth_check_equals_projection_at_every_sample(spec, field, which, seed):
    # a radial field of another radius than the curve's is positive near it,
    # so violations and a witness occur; r_i = 0 leaves only the delta^2 term
    if field == "solved":
        model, _ = solve_dirichlet(spec, 96, residual_tol=math.inf)
    else:
        model = radial_model(field)
    r_i = {"zero": 0.0, "small": 1e-3, "large": 5.0}.get(which)
    if r_i is None:
        r_i = interior_sphere_radius(spec)
    pts = _samples_and_pinned_points(spec, seed)
    rep = check_growth(model, spec, pts, r_i)
    got = (rep.n_samples, rep.min_slack, rep.violations, rep.witness)
    assert got == _growth_at_every_sample(model, spec, pts, r_i)


@settings(max_examples=40, deadline=None)
@given(spec=admissible_domains(), seed=hst.integers(0, 2**32 - 1))
def test_distance_bounds_bracket_the_distance(spec, seed):
    pts = _samples_and_pinned_points(spec, seed)
    lo, hi = distance_bounds(spec, pts)
    delta = distance_to_boundary(spec, pts)
    assert np.all(0.0 <= lo) and np.all(lo <= delta) and np.all(delta <= hi)
    if not spec.fourier_modes:
        assert np.array_equal(lo, delta) and np.array_equal(hi, delta)


def test_growth_check_projects_few_samples(monkeypatch):
    # the domain of configs/stability_dirichlet.cfg: the nearest-seed bracket
    # decides all but about a dozen of 10,000 samples
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96)
    pts = random_interior_points(spec, 10_000, np.random.default_rng(2))
    projected = []

    def counted(spec, pts):
        projected.append(len(pts))
        return distance_to_boundary(spec, pts)

    monkeypatch.setattr(stability, "distance_to_boundary", counted)
    rep = check_growth(model, spec, pts, interior_sphere_radius(spec))
    assert rep.passed
    assert 0 < sum(projected) < 100


def test_growth_check_raises_on_exterior_points(annulus, annulus_model):
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    for domain, point in ((annulus, (0.1, 0.0)), (spec, (1.1, 0.0)), (spec, (0.25, 0.0))):
        with pytest.raises(ExteriorPointError, match="outside the region"):
            check_growth(annulus_model, domain, np.array([[0.5, 0.0], point]), 0.1)


def _hopf(model, gamma, r_i):
    return check_hopf(gamma, normal_derivative(model, gamma.nodes, gamma.normals), r_i)


def test_hopf_ball_saturates(ball, ball_quads):
    model = radial_model(1.0)
    r_i = interior_sphere_radius(ball)
    rep = _hopf(model, ball_quads.bounds.gamma, r_i)
    assert rep.passed
    assert rep.min_slack <= 1e-5  # equality case: u_nu = R/N = r_i/N


def test_hopf_annulus(annulus, annulus_quads, annulus_model):
    rep = _hopf(annulus_model, annulus_quads.bounds.gamma, 0.4)
    assert rep.passed
    assert abs(rep.min_slack - 0.3) <= 1e-9  # 0.5 - 0.4/2


def test_hopf_property_run():
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96)
    quads = build_quadratures(spec, 256, 32)
    rep = _hopf(model, quads.bounds.gamma, interior_sphere_radius(spec))
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# Oscillation bound with explicit constants
# ---------------------------------------------------------------------------


def test_oscillation_constants_exact_values():
    a22, al22 = oscillation_constants(2, 2)
    assert abs(a22 - 4.0 / math.pi**0.25) <= 1e-12
    assert abs(al22 - math.sqrt(math.pi)) <= 1e-12


def test_oscillation_constant_field(annulus, annulus_quads):
    class Const:
        def fields(self, pts, want):
            n = np.atleast_2d(pts).shape[0]
            grad = np.zeros((n, 2)) if "g" in want else None
            return (np.full(n, 3.7) if "u" in want else None), grad

    rep = check_oscillation_bound(Const(), annulus, annulus_quads, 0.4, p=2.0)
    assert rep.applicable  # 0 <= 0
    assert rep.lhs <= 1e-12 and rep.rhs <= 1e-12


def test_oscillation_poly_on_annulus(annulus, annulus_quads):
    rep = check_oscillation_bound(HarmonicPoly(), annulus, annulus_quads, 0.4, p=4.0)
    assert rep.applicable
    assert rep.holds
    assert rep.slack > 0


def test_oscillation_smallness_gate(annulus, annulus_quads):
    # at p=2 on this annulus the smallness precondition fails: not a failure,
    # just "lemma not applicable"
    rep = check_oscillation_bound(HarmonicPoly(), annulus, annulus_quads, 0.4, p=2.0)
    assert not rep.applicable
    assert rep.holds  # vacuous


def test_oscillation_random_fields_never_violate(annulus, annulus_quads, rng):
    r_i = interior_sphere_radius(annulus)
    fields = random_harmonic_fields(annulus, 20, rng)
    fired = 0
    for f in fields:
        for p in (2.0, 4.0):
            rep = check_oscillation_bound(f, annulus, annulus_quads, r_i, p=p)
            if rep.applicable:
                fired += 1
                assert rep.holds
    assert fired > 0  # the precondition does fire on real samples


# ---------------------------------------------------------------------------
# Hardy-Poincare admissibility and ratios
# ---------------------------------------------------------------------------


def test_triple_validation_cases():
    assert validate_poincare_triple(2, 2, 0.5) == "weighted"
    assert validate_poincare_triple(4, 2, 0.5) == "weighted"
    assert validate_poincare_triple(2, 2, 0.0) == "unweighted"
    with pytest.raises(ExponentTripleError, match="p\\(1-alpha\\) < N"):
        validate_poincare_triple(4, 2, 0.0)
    with pytest.raises(ExponentTripleError, match="r <= Np"):
        validate_poincare_triple(10, 2, 0.5)
    with pytest.raises(ExponentTripleError, match="0 <= alpha <= 1"):
        validate_poincare_triple(2, 2, 1.5)


def test_poincare_constant_field_ratio_zero(annulus, annulus_quads):
    class Const:
        def fields(self, pts, want):
            n = np.atleast_2d(pts).shape[0]
            grad = np.zeros((n, 2)) if "g" in want else None
            return (np.ones(n) if "u" in want else None), grad

    (rep,) = poincare_ratio_experiment(
        annulus, annulus_quads, [(2, 2, 0.5)], fields=[Const()], r_i=0.4, d_omega=2.0
    )
    assert rep.max_ratio == 0.0


def test_poincare_empirical_below_normalized_bound(annulus, annulus_quads):
    (rep,) = poincare_ratio_experiment(
        annulus, annulus_quads, [(2, 2, 0.5)], n_fields=50, seed=3, r_i=0.4, d_omega=2.0
    )
    assert rep.n_fields == 50
    assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
    assert rep.max_ratio <= rep.normalized_bound  # informational: k=1 bound is loose


POINCARE_TRIPLES = [(2, 2, 0.5), (4, 2, 0.5), (2, 2, 0)]


def test_poincare_triples_equal_single_triple_calls(annulus, annulus_quads):
    kw = dict(n_fields=10, seed=5, r_i=0.4, d_omega=2.0)
    reports = poincare_ratio_experiment(annulus, annulus_quads, POINCARE_TRIPLES, **kw)
    assert len(reports) == len(POINCARE_TRIPLES)
    for triple, rep in zip(POINCARE_TRIPLES, reports):
        (single,) = poincare_ratio_experiment(annulus, annulus_quads, [triple], **kw)
        assert (rep.r, rep.p, rep.alpha) == triple
        assert rep.max_ratio == single.max_ratio
        assert rep.ratios == single.ratios
        assert rep.case == single.case and rep.normalized_bound == single.normalized_bound


def test_poincare_ratios_equal_per_triple_reductions(annulus, annulus_quads):
    # the reductions shared across triples leave every ratio bitwise what
    # reducing each triple on its own gives, the unweighted one with weight 1.0
    fields = random_harmonic_fields(annulus, 6, np.random.default_rng(11))
    reports = poincare_ratio_experiment(
        annulus, annulus_quads, POINCARE_TRIPLES, fields=fields, r_i=0.4, d_omega=2.0
    )
    w, nodes = annulus_quads.area.weights, annulus_quads.area.nodes
    delta = distance_to_boundary(annulus, nodes)
    for (r, p, alpha), rep in zip(POINCARE_TRIPLES, reports):
        gim = delta**alpha if alpha else np.ones_like(w)
        expected = []
        for f in fields:
            v, g = f.fields(nodes, "ug")
            dev = np.abs(v - float(np.sum(v * w) / annulus_quads.area.total))
            num = float(np.sum(dev**r * w) ** (1.0 / r))
            sums = np.sum(np.abs(gim * g[:, 0]) ** p * w) + np.sum(np.abs(gim * g[:, 1]) ** p * w)
            expected.append(num / float(sums ** (1.0 / p)))
        assert rep.ratios == tuple(expected)


def test_poincare_evaluates_each_field_once(annulus, annulus_quads, monkeypatch):
    kernel = _kernels.log_source_fields
    calls = []

    def counted(points, sources, coeffs, want="ugh"):
        calls.append(want)
        return kernel(points, sources, coeffs, want)

    monkeypatch.setattr(_kernels, "log_source_fields", counted)
    poincare_ratio_experiment(
        annulus, annulus_quads, POINCARE_TRIPLES, n_fields=7, seed=5, r_i=0.4, d_omega=2.0
    )
    assert calls == ["ug"] * 7


def test_poincare_validates_every_triple_first(annulus, annulus_quads, monkeypatch):
    calls = []
    monkeypatch.setattr(_kernels, "log_source_fields", lambda *a: calls.append(a))
    with pytest.raises(ExponentTripleError, match="r <= Np"):
        poincare_ratio_experiment(
            annulus, annulus_quads, [(2, 2, 0.5), (10, 2, 0.5)], n_fields=3, r_i=0.4, d_omega=2.0
        )
    assert calls == []


def test_poincare_rejects_empty_field_set(annulus, annulus_quads):
    with pytest.raises(ValueError, match="at least one field"):
        poincare_ratio_experiment(
            annulus, annulus_quads, [(2, 2, 0.5)], fields=[], r_i=0.4, d_omega=2.0
        )


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------


def test_exponent_values():
    assert radii_gap_exponent(2, "sphere-condition") == 1.0
    assert radii_gap_exponent(5, "sphere-condition") == 0.5
    assert radii_gap_exponent(3, "john-relaxed") == pytest.approx(2.0 / 3.0)
    assert radii_gap_exponent(3, "sphere-condition", theta=0.05) == pytest.approx(0.95)
    assert radii_gap_exponent(2, "john-relaxed", theta=0.1) == pytest.approx(0.9)


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(min_value=4, max_value=50))
def test_exponent_monotone_in_dimension(n):
    assert radii_gap_exponent(n + 1, "sphere-condition") <= radii_gap_exponent(
        n, "sphere-condition"
    )
    assert radii_gap_exponent(n + 1, "john-relaxed") <= radii_gap_exponent(n, "john-relaxed")


def test_exponent_validation():
    with pytest.raises(ValueError):
        radii_gap_exponent(1, "sphere-condition")
    with pytest.raises(ValueError):
        radii_gap_exponent(3, "sphere-condition", theta=1.5)
    with pytest.raises(ValueError):
        radii_gap_exponent(2, "nonsense")


# ---------------------------------------------------------------------------
# Bound table
# ---------------------------------------------------------------------------


def test_bound_table_radial_lower(annulus, annulus_quads, annulus_model):
    table = bound_table(annulus, 0.5, 1.05, 0.4, 2.0)
    assert table["c_lower"] == pytest.approx(0.2)
    assert table["hopf_threshold"] == pytest.approx(0.2)
    assert table["john_constant_bound"] == pytest.approx(5.0)


def test_bound_table_ball_saturation(ball):
    r_i = interior_sphere_radius(ball)
    table = bound_table(ball, 0.5, 0.0, r_i, 2.0)
    assert table["c_lower"] <= 0.5 + 1e-9
    assert table.c_in_bracket  # perimeter 0 < 1: side condition holds


def test_bound_table_upper_arithmetic():
    # K=0.25, r_i=0.4, d=2, N=2: upper = 0.5 + 0.25/(2 pi 0.4) ~ 0.5995
    spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.1, -0.1),))
    table = bound_table(spec, 0.5, 0.25, 0.4, 2.0)
    assert table["c_upper_small_hole"] == pytest.approx(0.5 + 0.25 / (2 * math.pi * 0.4))
    assert table.side_condition_small_perimeter
    assert table.c_in_bracket


def test_bound_table_entries_finite_positive(annulus):
    table = bound_table(annulus, 0.5, 1.0, 0.4, 2.0)
    for key, val in table.entries.items():
        assert math.isfinite(val) and val > 0, key


# ---------------------------------------------------------------------------
# Stability report
# ---------------------------------------------------------------------------


def test_stability_report_tubular_regime():
    # the boundary-layer center formula keeps the better planar exponent and
    # lands near the bulk center on a well-behaved instance
    inst = overdetermined_instance(0.02)
    quads = build_quadratures(inst.spec, 256, 48)
    rep_bulk = stability_report(inst.spec, inst.model, quads, label="bulk")
    rep_tube = stability_report(inst.spec, inst.model, quads, label="tube", regime="tubular")
    assert rep_tube.z_formula == "boundary-layer"
    assert rep_tube.hypotheses_pass
    assert rep_tube.tau_exponent == 1.0
    assert math.dist(rep_bulk.z, rep_tube.z) <= 0.05


def test_stability_report_john_relaxed_regime(annulus, annulus_quads, annulus_model):
    rep = stability_report(annulus, annulus_model, annulus_quads, regime="john-relaxed")
    assert rep.tau_exponent == pytest.approx(0.99)  # 1 - theta in the plane, theta = 0.01
    assert rep.hypotheses_pass


def test_stability_report_rejects_unknown_regime(annulus, annulus_quads, annulus_model):
    with pytest.raises(ValueError, match="unknown regime 'bogus'"):
        stability_report(annulus, annulus_model, annulus_quads, regime="bogus")


def test_stability_report_hypothesis_failure_path(
    annulus, annulus_quads, annulus_model, monkeypatch
):
    monkeypatch.setattr(stability, "adjusted_center", lambda *args: ((5.0, 5.0), False))
    rep = stability_report(annulus, annulus_model, annulus_quads)
    assert not rep.hypotheses["z_inside_domain"]
    assert not rep.hypotheses_pass
    assert math.isnan(rep.pseudo_distance)
    fitted, excluded = fit_constants([rep])
    assert excluded == (rep.label,)


def test_asymmetry_pseudo_distance_comparison():
    inst = overdetermined_instance(0.02)
    quads = build_quadratures(inst.spec, 256, 48)
    rep = stability_report(inst.spec, inst.model, quads, label="cmp")
    assert rep.comparison is not None
    assert rep.comparison.applicable
    assert rep.comparison.holds
    assert rep.comparison.K_construction >= 1.0


def test_stability_report_two_holes():
    spec = DomainSpec(
        1.0,
        ((2, 0.05),),
        (Hole((0.4, 0.0), 0.12, -0.05), Hole((-0.35, 0.2), 0.1, -0.02)),
    )
    model, _ = solve_dirichlet(spec, 96)
    quads = build_quadratures(spec, 192, 32)
    rep = stability_report(spec, model, quads, waive_overdetermination=True)
    assert rep.hypotheses["u_nonpositive_on_holes"]
    assert rep.hypotheses["z_inside_domain"]
    assert rep.holes_perimeter == pytest.approx(2 * math.pi * (0.12 + 0.1))
    assert rep.holes_diameter_sup == pytest.approx(0.24)  # sup of hole diameters
    # K is the max over both hole boundaries
    assert rep.hole_c2_norm > 0


def test_report_c_is_the_value_c_flux_over_arc_length():
    # stability_report's c and the identities experiment's c (the outer-curve
    # side of the value_c identity over |Gamma|) are the same float
    cfg = load_config(CONFIGS / "stability_dirichlet.cfg")
    [(_, _, _, spec, model)] = harness._points(cfg)
    inst = overdetermined_instance(0.02)
    for spec, model in ((spec, model), (inst.spec, inst.model)):
        quads = build_quadratures(spec, 256, 48)
        rep = stability_report(spec, model, quads, waive_overdetermination=True)
        value_c = check_value_c(spec, *sample_field(model, quads)[1:])
        assert rep.c == value_c.lhs / quads.bounds.gamma.arc_length


def test_report_invariants(annulus, annulus_quads, annulus_model):
    rep = stability_report(annulus, annulus_model, annulus_quads)
    assert rep.rho_e >= rep.rho_i
    assert rep.pseudo_distance >= 0 and rep.asymmetry >= 0
    # K dominates the sampled sup of |u| on hole boundaries
    for bq in annulus_quads.bounds.holes:
        assert rep.hole_c2_norm >= float(np.max(np.abs(evaluate_u(annulus_model, bq.nodes))))
    assert rep.rho_e - rep.rho_i <= rep.d_omega + 1e-12


def test_stability_point_evaluates_each_node_set_once(monkeypatch):
    # the report, the growth and the Hopf check of configs/stability_dirichlet.cfg:
    # one kernel call each for the outer curve, the hole, the boundary layer
    # (its 256 x 24 nodes, inner curve and 512 outer-curve points) and the
    # growth samples
    cfg = load_config(CONFIGS / "stability_dirichlet.cfg")
    [point] = harness._points(cfg)
    kernel = _kernels.log_source_fields
    calls = []

    def counted(points, sources, coeffs, want="ugh"):
        calls.append((want, len(points)))
        return kernel(points, sources, coeffs, want)

    monkeypatch.setattr(_kernels, "log_source_fields", counted)
    harness._stability_point(cfg, point)
    assert calls == [("g", 256), ("ugh", 128), ("g", 256 * 24 + 256 + 512), ("u", 10_000)]


def _report_per_helper(spec, model, quads, regime, waive):
    """stability_report with each field quantity from its own evaluation, as
    separate helpers computed them: c on the outer curve, the hole sign, the
    center's flux term and K each from their own pass over the holes, and
    the boundary layer and the Hopf check on their own.  The oracle of
    test_report_equals_per_helper_oracle."""
    d_omega = diameter(spec)
    r_i = interior_sphere_radius(spec, d_omega=d_omega)
    gamma = quads.bounds.gamma
    u_nu = normal_derivative(model, gamma.nodes, gamma.normals)
    c = float(np.sum(u_nu * gamma.weights) / float(np.sum(gamma.weights)))
    overdet_dev = float(np.max(np.abs(u_nu - c)))
    u_holes_max = 0.0
    for bq in quads.bounds.holes:
        u_holes_max = max(u_holes_max, float(np.max(evaluate_u(model, bq.nodes))))
    if regime == "tubular":
        (z, inside), formula = _center_tubular(spec, model, r_i), "boundary-layer"
    else:
        (z, inside), formula = _center(spec, model, quads), "flux-adjusted-barycenter"
    assert inside
    K = 0.0
    for bq in quads.bounds.holes:
        u, grad, hess = evaluate(model, bq.nodes, "ugh")
        val = np.abs(u) + np.hypot(grad[:, 0], grad[:, 1]) + np.sqrt(np.sum(hess * hess, axis=(1, 2)))
        K = max(K, float(np.max(val)))
    tube, inner = tubular_sets(spec, r_i, r_i)
    ring = spec.boundary_point(np.linspace(0, TWO_PI, 512, endpoint=False))
    _, grad, _ = evaluate(model, np.vstack([tube.nodes, inner.nodes, ring]), "g")
    rho_e, rho_i = enclosing_inscribed_radii(spec, z)
    d2 = pseudo_distance(gamma, z, c)
    asym = symmetric_difference_ratio(spec, z, 2.0 * c)
    perim = spec.holes_perimeter
    psi = max(K, K**3) * perim
    ratios = {
        "pseudo_distance_over_perimeter": d2 / perim,
        "asymmetry_over_sqrt_perimeter": asym / math.sqrt(perim),
        "radius_gap_over_perimeter_pow": (rho_e - rho_i) / perim**0.5,
        "pseudo_distance_over_psi": d2 / psi,
        "asymmetry_over_sqrt_psi": asym / math.sqrt(psi),
        "radius_gap_over_psi_pow": (rho_e - rho_i) / psi**0.5,
    }
    return StabilityReport(
        label="",
        regime=regime,
        z=(float(z[0]), float(z[1])),
        z_formula=formula,
        c=c,
        rho_e=rho_e,
        rho_i=rho_i,
        pseudo_distance=d2,
        asymmetry=asym,
        r_i=r_i,
        d_omega=d_omega,
        grad_max_tube=float(np.max(np.hypot(grad[:, 0], grad[:, 1]))),
        hole_c2_norm=K,
        holes_perimeter=perim,
        holes_diameter_sup=max(2.0 * h.radius for h in spec.holes),
        eta=perim,
        psi_eta=psi,
        tau_exponent=1.0,
        hypotheses={
            "u_nonpositive_on_holes": u_holes_max <= 1e-9,
            "overdetermined": waive or overdet_dev <= 1e-6,
            "z_inside_domain": inside,
        },
        ratios=ratios,
        hopf=_hopf(model, gamma, r_i),
        comparison=asymmetry_vs_pseudo_distance(spec, z, c, d2, asym, r_i, d_omega, rho_e, rho_i),
        notes=(f"overdetermination waived (measured deviation {overdet_dev:.3e})",) if waive else (),
    )


def _two_hole_field():
    spec = DomainSpec(
        1.0,
        ((2, 0.05),),
        (Hole((0.4, 0.0), 0.12, -0.05), Hole((-0.35, 0.2), 0.1, -0.02)),
    )
    return spec, solve_dirichlet(spec, 96)[0], 192, 32


def _free_boundary_field(eps):
    inst = overdetermined_instance(eps)
    return inst.spec, inst.model, 256, 48


@pytest.mark.parametrize(
    "field,regime,waive",
    [
        (lambda: _free_boundary_field(0.02), "tubular", False),
        (_two_hole_field, "sphere-condition", True),
        (lambda: _free_boundary_field(0.005), "sphere-condition", False),
    ],
    ids=["tubular-eps-0.02", "two-holes", "eps-0.005"],
)
def test_report_equals_per_helper_oracle(field, regime, waive):
    # no shipped config runs these paths: every field, the Hopf report and
    # the comparison are the oracle's floats bit for bit (repr round-trips)
    spec, model, n_theta, n_r = field()
    quads = build_quadratures(spec, n_theta, n_r)
    rep = stability_report(spec, model, quads, regime=regime, waive_overdetermination=waive)
    assert repr(rep) == repr(_report_per_helper(spec, model, quads, regime, waive))


def test_report_json_stability_entry_keys(annulus, annulus_quads, annulus_model):
    # report.json's per-point "stability" entry leaves out the Hopf check and
    # the comparison, which reach it as the "hopf" entry and an assertion
    rep = stability_report(annulus, annulus_model, annulus_quads)
    assert list(harness._report_from_stability(rep)) == [
        "label", "regime", "z", "z_formula", "c", "rho_e", "rho_i", "pseudo_distance",
        "asymmetry", "r_i", "d_omega", "grad_max_tube", "hole_c2_norm", "holes_perimeter",
        "holes_diameter_sup", "eta", "psi_eta", "tau_exponent", "hypotheses", "ratios", "notes",
    ]
