import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from torsionlab import _kernels
from torsionlab.geometry import (
    BoundaryQuadrature,
    DomainSpec,
    Hole,
    build_quadratures,
    interior_sphere_radius,
    random_interior_points,
)
from torsionlab.solver import (
    evaluate_u,
    overdetermined_instance,
    radial_annulus_model,
    radial_reference,
    solve_dirichlet,
)
from torsionlab.stability import (
    ExponentTripleError,
    adjusted_center,
    adjusted_center_tubular,
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
    theorem_suite,
    validate_poincare_triple,
)

TWO_PI = 2.0 * math.pi


class HarmonicPoly:
    """v = Re((x + iy)^2) = x^2 - y^2, a closed-form harmonic test field."""

    def u(self, pts):
        pts = np.atleast_2d(pts)
        return pts[:, 0] ** 2 - pts[:, 1] ** 2

    def grad(self, pts):
        pts = np.atleast_2d(pts)
        return np.stack([2.0 * pts[:, 0], -2.0 * pts[:, 1]], axis=-1)


# ---------------------------------------------------------------------------
# Centers
# ---------------------------------------------------------------------------


def test_center_radial_annulus(annulus, annulus_quads, annulus_model):
    z, inside = adjusted_center(annulus, annulus_model, annulus_quads)
    assert inside
    assert np.max(np.abs(z)) <= 1e-9


def test_center_ball_is_barycenter(ball, ball_quads):
    model = radial_reference(1.0).as_field_model()
    z, inside = adjusted_center(ball, model, ball_quads)
    assert inside and np.max(np.abs(z)) <= 1e-12


def test_center_self_convergence_oracle():
    spec = DomainSpec(1.0, holes=(Hole((0.4, 0.0), 0.12, -0.1),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    coarse = build_quadratures(spec, 128, 24)
    fine = build_quadratures(spec, 1024, 192)  # 8x resolution oracle
    z1, _ = adjusted_center(spec, model, coarse)
    z8, _ = adjusted_center(spec, model, fine)
    assert np.max(np.abs(z1 - z8)) <= 1e-6


def test_center_tubular_radial(annulus, annulus_model):
    r_i = interior_sphere_radius(annulus)
    z, inside = adjusted_center_tubular(annulus, annulus_model, r_i)
    assert inside and np.max(np.abs(z)) <= 1e-9


def test_center_tubular_ignores_hole_outside_tube():
    # the tube of width r_i touches neither the center hole nor its field data
    spec = DomainSpec(1.0, holes=(Hole((0.3, 0.0), 0.1, -0.1),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    r_i = interior_sphere_radius(spec)
    z, inside = adjusted_center_tubular(spec, model, r_i)
    assert inside
    # the hole-free ball with the same outer curve gives exactly zero
    ball_model, _ = solve_dirichlet(DomainSpec(1.0), 96, 1.8)
    z0, _ = adjusted_center_tubular(DomainSpec(1.0), ball_model, 1.0)
    assert np.max(np.abs(z0)) <= 1e-6
    assert np.max(np.abs(z)) <= 0.05  # z stays near the barycenter


def test_center_tubular_self_convergence():
    spec = DomainSpec(1.0, ((3, 0.05),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    r_i = interior_sphere_radius(spec)
    z1, _ = adjusted_center_tubular(spec, model, r_i, n_theta=128, n_s=12)
    z8, _ = adjusted_center_tubular(spec, model, r_i, n_theta=1024, n_s=96)
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
    model, _ = solve_dirichlet(spec, 96, 1.8)
    r_i = interior_sphere_radius(spec)
    pts = random_interior_points(spec, 10_000, rng)
    rep = check_growth(model, spec, pts, r_i)
    assert rep.violations == 0


def test_hopf_ball_saturates(ball, ball_quads):
    model = radial_reference(1.0).as_field_model()
    r_i = interior_sphere_radius(ball)
    rep = check_hopf(model, ball_quads.bounds.gamma, r_i)
    assert rep.passed
    assert rep.min_slack <= 1e-5  # equality case: u_nu = R/N = r_i/N


def test_hopf_annulus(annulus, annulus_quads, annulus_model):
    rep = check_hopf(annulus_model, annulus_quads.bounds.gamma, 0.4)
    assert rep.passed
    assert abs(rep.min_slack - 0.3) <= 1e-9  # 0.5 - 0.4/2


def test_hopf_property_run():
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 256, 32)
    rep = check_hopf(model, quads.bounds.gamma, interior_sphere_radius(spec))
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
        def u(self, pts):
            return np.full(np.atleast_2d(pts).shape[0], 3.7)

        def grad(self, pts):
            return np.zeros((np.atleast_2d(pts).shape[0], 2))

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


def test_oscillation_refined_variant(ball, ball_quads):
    rep = check_oscillation_bound(
        HarmonicPoly(), ball, ball_quads, 1.0, p=2.0, variant="refined"
    )
    if rep.applicable:
        assert rep.holds


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
        def u(self, pts):
            return np.ones(np.atleast_2d(pts).shape[0])

        def grad(self, pts):
            return np.zeros((np.atleast_2d(pts).shape[0], 2))

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
# Theorem suite
# ---------------------------------------------------------------------------


def _radial_instances(radii):
    out = []
    for rho in radii:
        g = (rho**2 - 1.0) / 4.0
        spec = DomainSpec(1.0, holes=(Hole((0.0, 0.0), rho, g),))
        model = radial_annulus_model(1.0, rho, g)
        quads = build_quadratures(spec, 256, 48)
        out.append((f"rho={rho:g}", spec, model, quads))
    return out


def test_theorem_suite_radial_family_exact_zero():
    suite = theorem_suite(_radial_instances((0.05, 0.1, 0.2)))
    assert suite.all_hypotheses_pass
    for rep in suite.reports:
        assert rep.pseudo_distance <= 1e-10
        assert rep.asymmetry <= 1e-6
        assert rep.rho_e - rep.rho_i <= 1e-8
    for key, val in suite.fitted_constants.items():
        assert val <= 1e-5, key


def test_theorem_suite_overdetermined_family():
    instances = []
    for eps in (0.005, 0.01, 0.02):
        inst = overdetermined_instance(eps)
        quads = build_quadratures(inst.spec, 256, 48)
        instances.append((f"eps={eps:g}", inst.spec, inst.model, quads))
    suite = theorem_suite(instances)
    assert suite.all_hypotheses_pass
    fitted = suite.fitted_constants
    assert all(math.isfinite(v) for v in fitted.values())
    # single fitted constant bounds every instance by construction; verify
    for rep in suite.reports:
        assert rep.pseudo_distance <= fitted["pseudo_distance_over_perimeter"] * rep.holes_perimeter + 1e-15
        assert rep.asymmetry <= fitted["asymmetry_over_sqrt_perimeter"] * math.sqrt(rep.holes_perimeter) + 1e-15
        assert rep.rho_e - rep.rho_i <= fitted["radius_gap_over_perimeter_pow"] * rep.holes_perimeter ** (rep.tau_exponent / 2.0) + 1e-15
        assert rep.tau_exponent == 1.0  # planar sphere-condition exponent


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
    rep = stability_report(
        annulus, annulus_model, annulus_quads, regime="john-relaxed", theta=0.1
    )
    assert rep.tau_exponent == pytest.approx(0.9)  # 1 - theta in the plane
    assert rep.hypotheses_pass


def test_stability_report_rejects_unknown_regime(annulus, annulus_quads, annulus_model):
    with pytest.raises(ValueError, match="unknown regime 'bogus'"):
        stability_report(annulus, annulus_model, annulus_quads, regime="bogus")


def test_stability_report_hypothesis_failure_path(annulus, annulus_quads, annulus_model):
    rep = stability_report(
        annulus, annulus_model, annulus_quads, z_override=(5.0, 5.0)
    )
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
    model, _ = solve_dirichlet(spec, 96, 1.8)
    quads = build_quadratures(spec, 192, 32)
    rep = stability_report(spec, model, quads, waive_overdetermination=True)
    assert rep.hypotheses["u_nonpositive_on_holes"]
    assert rep.hypotheses["z_inside_domain"]
    assert rep.holes_perimeter == pytest.approx(2 * math.pi * (0.12 + 0.1))
    assert rep.holes_diameter_sup == pytest.approx(0.24)  # sup of hole diameters
    # K is the max over both hole boundaries
    assert rep.hole_c2_norm > 0


def test_report_invariants(annulus, annulus_quads, annulus_model):
    rep = stability_report(annulus, annulus_model, annulus_quads)
    assert rep.rho_e >= rep.rho_i
    assert rep.pseudo_distance >= 0 and rep.asymmetry >= 0
    # K dominates the sampled sup of |u| on hole boundaries
    for bq in annulus_quads.bounds.holes:
        assert rep.hole_c2_norm >= float(np.max(np.abs(evaluate_u(annulus_model, bq.nodes))))
    assert rep.rho_e - rep.rho_i <= rep.d_omega + 1e-12
