import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from torsionlab import geometry
from torsionlab.geometry import (
    DomainSpec,
    ExteriorPointError,
    Hole,
    InvalidDomainError,
    QuadratureError,
    build_area_quadrature,
    build_boundary_quadrature,
    diameter,
    distance_to_boundary,
    enclosing_inscribed_radii,
    interior_sphere_radius,
    intersection_area_with_disk,
    random_interior_points,
    symmetric_difference_ratio,
    tubular_sets,
)
from torsionlab.solver import overdetermined_instance

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# DomainSpec invariants
# ---------------------------------------------------------------------------


def test_rejects_nonpositive_radius_curve():
    with pytest.raises(InvalidDomainError):
        DomainSpec(1.0, ((1, 0.6), (2, 0.2), (3, 0.05)))


def test_rejects_excess_bending():
    with pytest.raises(InvalidDomainError):
        DomainSpec(1.0, ((5, 0.05),))  # 0.05 * 25 > 1


def test_rejects_hole_touching_outer_curve():
    with pytest.raises(InvalidDomainError):
        DomainSpec(1.0, holes=(Hole((0.9, 0.0), 0.3, -0.1),))


def test_rejects_overlapping_holes():
    with pytest.raises(InvalidDomainError):
        DomainSpec(
            1.0,
            holes=(Hole((0.3, 0.0), 0.2, -0.1), Hole((-0.05, 0.0), 0.2, -0.1)),
        )


def test_rejects_positive_dirichlet_value():
    with pytest.raises(InvalidDomainError):
        Hole((0.0, 0.0), 0.2, +0.1)


# ---------------------------------------------------------------------------
# Boundary quadrature
# ---------------------------------------------------------------------------


def test_circle_arc_length(ball):
    bq = build_boundary_quadrature(ball, 256)
    assert abs(bq.gamma.arc_length - TWO_PI) <= 1e-12


def test_hole_arc_length(annulus):
    bq = build_boundary_quadrature(annulus, 256)
    assert abs(bq.holes[0].arc_length - 0.4 * math.pi) <= 1e-12


def test_perturbed_length_matches_refined_rule():
    spec = DomainSpec(1.0, ((2, 0.1),))
    coarse = build_boundary_quadrature(spec, 256).gamma.arc_length
    oracle = build_boundary_quadrature(spec, 2048).gamma.arc_length  # 8x resolution
    assert abs(coarse - oracle) <= 1e-10


def test_quadrature_spectral_convergence():
    spec = DomainSpec(1.0, ((3, 0.08), (5, 0.01)))
    l1 = build_boundary_quadrature(spec, 128).gamma.arc_length
    l2 = build_boundary_quadrature(spec, 256).gamma.arc_length
    assert abs(l1 - l2) < 1e-10


def test_normals_unit_and_outward(annulus):
    bq = build_boundary_quadrature(annulus, 256)
    for comp in bq.all():
        norms = np.hypot(comp.normals[:, 0], comp.normals[:, 1])
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
    # hole normals point into the hole (towards its center)
    hole = annulus.holes[0]
    to_center = np.asarray(hole.center) - bq.holes[0].nodes
    assert np.all(np.sum(to_center * bq.holes[0].normals, axis=1) > 0)


def test_rejects_odd_or_small_n_theta(ball):
    with pytest.raises(InvalidDomainError):
        build_boundary_quadrature(ball, 63)
    with pytest.raises(InvalidDomainError):
        build_boundary_quadrature(ball, 32)


# ---------------------------------------------------------------------------
# Area quadrature
# ---------------------------------------------------------------------------


def test_annulus_area(annulus):
    aq = build_area_quadrature(annulus, 48, 256)
    exact = 0.96 * math.pi
    assert abs(aq.total - exact) / exact <= 1e-6


def test_ball_area(ball):
    aq = build_area_quadrature(ball, 48, 256)
    assert abs(aq.total - math.pi) / math.pi <= 1e-8


def test_cos3_area_closed_form():
    spec = DomainSpec(1.0, ((3, 0.1),))
    aq = build_area_quadrature(spec, 48, 256)
    exact = math.pi * (1.0 + 0.1**2 / 2.0)
    assert abs(aq.total - exact) / exact <= 1e-6


def test_offcenter_hole_area():
    spec = DomainSpec(1.0, holes=(Hole((0.5, 0.0), 0.2, -0.1),))
    aq = build_area_quadrature(spec, 48, 256)
    exact = math.pi * (1.0 - 0.04)
    assert abs(aq.total - exact) / exact <= 1e-6


def test_area_hole_containing_origin():
    # every ray from the origin crosses this hole; sections start past it
    spec = DomainSpec(1.0, holes=(Hole((0.05, 0.0), 0.2, -0.1),))
    aq = build_area_quadrature(spec, 48, 256)
    exact = math.pi * (1.0 - 0.04)
    assert abs(aq.total - exact) / exact <= 1e-6
    assert np.all(spec.contains(aq.nodes))


def test_area_two_holes():
    spec = DomainSpec(
        1.0,
        ((2, 0.05),),
        (Hole((0.4, 0.0), 0.12, -0.05), Hole((-0.35, 0.2), 0.1, -0.02)),
    )
    aq = build_area_quadrature(spec, 48, 256)
    exact = spec.outer_area - math.pi * (0.12**2 + 0.1**2)
    assert abs(aq.total - exact) / exact <= 1e-6


def test_area_nodes_strictly_interior(annulus):
    aq = build_area_quadrature(annulus, 24, 128)
    assert np.all(annulus.contains(aq.nodes))
    assert np.all(distance_to_boundary(annulus, aq.nodes) > 0)


# ---------------------------------------------------------------------------
# Distance to the boundary
# ---------------------------------------------------------------------------


def test_delta_annulus_hand_value(annulus):
    assert abs(distance_to_boundary(annulus, (0.6, 0.0)) - 0.4) <= 1e-12


def test_delta_ball_center(ball):
    assert abs(distance_to_boundary(ball, (0.0, 0.0)) - 1.0) <= 1e-12


def test_delta_matches_dense_sampling_oracle():
    spec = DomainSpec(1.0, ((1, 0.05),))
    d = distance_to_boundary(spec, (0.5, 0.0))
    theta = np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False)
    bp = spec.boundary_point(theta)
    brute = float(np.min(np.hypot(bp[:, 0] - 0.5, bp[:, 1])))
    assert abs(d - brute) <= 1e-8


def test_distance_to_outer_matches_dense_sampling_near_medial_axis():
    # on the rays through the lobes of a 3-lobed curve two foot points are
    # equally near (the medial axis); points on and just off it, both lobes
    spec = DomainSpec(1.0, ((3, 0.1),))
    pts = []
    for angle in (0.0, TWO_PI / 3.0):
        c, s = math.cos(angle), math.sin(angle)
        for t in (0.0, 0.2, 0.5, 0.75):
            for off in (0.0, 1e-7, 1e-3):
                pts.append((t * c - off * s, t * s + off * c))
    pts = np.array(pts)
    got = spec._distance_to_outer(pts)
    bp = spec.boundary_point(np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False))
    brute = np.array([np.min(np.hypot(bp[:, 0] - x, bp[:, 1] - y)) for x, y in pts])
    assert np.max(np.abs(got - brute)) <= 1e-10


def test_delta_rejects_exterior_point(annulus):
    with pytest.raises(ExteriorPointError):
        distance_to_boundary(annulus, (1.5, 0.0))
    with pytest.raises(ExteriorPointError):
        distance_to_boundary(annulus, (0.05, 0.0))  # inside the hole


@settings(max_examples=25, deadline=None)
@given(
    ax=hst.floats(-0.55, 0.55),
    ay=hst.floats(-0.55, 0.55),
    bx=hst.floats(-0.55, 0.55),
    by=hst.floats(-0.55, 0.55),
)
def test_delta_lipschitz_along_segments(ax, ay, bx, by):
    spec = DomainSpec(1.0, ((2, 0.05),), (Hole((0.0, -0.55), 0.12, -0.1),))
    pts = np.array([[ax, ay], [bx, by]])
    if not np.all(spec.contains(pts)):
        return
    da, db = distance_to_boundary(spec, pts)
    assert abs(da - db) <= math.dist((ax, ay), (bx, by)) + 1e-9


SEEDS = np.linspace(0.0, TWO_PI, 720, endpoint=False)


def _scan_seed(spec, pts):
    """The seed oracle: the nearest of all 720 seeds (np.argmin, so the
    lowest index on an exact tie)."""
    bp = spec.boundary_point(SEEDS)
    d2 = (pts[:, 0, None] - bp[None, :, 0]) ** 2 + (pts[:, 1, None] - bp[None, :, 1]) ** 2
    return np.argmin(d2, axis=1)


def _scan_distance(spec, pts):
    """The distance oracle: the scan's seed projected by spec._project."""
    nearest = _scan_seed(spec, pts)
    theta = spec._project(pts, SEEDS[nearest])
    return nearest, np.hypot(*(pts - spec.boundary_point(theta)).T)


def _assert_distance_is_scan(spec, pts):
    nearest, want = _scan_distance(spec, pts)
    first, width = spec._seed_windows(pts[:, 0], pts[:, 1])
    assert np.all((nearest - first) % SEEDS.size < width)
    assert np.array_equal(spec._distance_to_outer(pts), want)


def _pinned_points(spec):
    """Seeds themselves, points within 1e-13 of the curve on both sides,
    centres of curvature, the origin and the seed windows' frame centre, and
    points within 1e-7 of each, where many seeds are within rounding of
    equally near."""
    theta = np.concatenate([SEEDS[::7], np.linspace(0.001, TWO_PI, 61)])
    on = spec.boundary_point(theta)
    normal = spec.boundary_normal(theta)
    kappa = spec.boundary_curvature(theta)
    centres = (on - normal / kappa[:, None])[kappa > 0.2]
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    frame = np.array([(0.0, 0.0), spec._seeds.centre])
    near = [c + rho * unit for c in frame for rho in (1e-15, 1e-13, 1e-11, 1e-9, 1e-7)]
    return np.concatenate([on, on - 1e-13 * normal, on + 1e-13 * normal, centres, frame, *near])


@hst.composite
def admissible_domains(draw):
    """Up to 14 modes scaled to sum |eps_k| k^2 < 0.95, and up to 3 pairwise
    disjoint holes in the disk of radius R (1 - sum |eps_k|) that the curve
    encloses."""
    n = draw(hst.integers(0, 14))
    ks = draw(hst.lists(hst.integers(1, 20), min_size=n, max_size=n, unique=True))
    amps = draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n, max_size=n))
    bend = sum(abs(a) * k * k for k, a in zip(ks, amps))
    scale = draw(hst.floats(0.01, 0.95)) / bend if bend > 1e-6 else 0.0
    modes = tuple((k, a * scale) for k, a in zip(ks, amps) if a * scale != 0.0)
    outer = draw(hst.floats(0.5, 2.0))
    inner = outer * (1.0 - sum(abs(e) for _, e in modes))
    holes = []
    for _ in range(draw(hst.integers(0, 3))):
        phi, at = draw(hst.floats(0.0, TWO_PI)), draw(hst.floats(0.0, 0.7)) * inner
        radius = draw(hst.floats(0.05, 0.2)) * inner
        holes.append(Hole((at * math.cos(phi), at * math.sin(phi)), radius))
    try:
        return DomainSpec(outer, modes, tuple(holes))
    except InvalidDomainError:  # two holes overlap
        assume(False)


@settings(max_examples=40, deadline=None)
@given(spec=admissible_domains(), seed=hst.integers(0, 2**32 - 1))
def test_distance_to_outer_equals_full_seed_scan(spec, seed):
    # the windowed search returns the scan's seed, so the projection and the
    # distance are bitwise the scan's, inside and outside the curve
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, 300)
    rho = rng.uniform(0.0, 1.3, 300) * spec.radius(theta)
    scattered = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)
    _assert_distance_is_scan(spec, np.concatenate([scattered, _pinned_points(spec)]))


@pytest.mark.parametrize("modes", [(), ((2, 0.1),), ((3, 0.1),), ((4, 0.05),), ((6, 0.02),)])
def test_distance_to_outer_breaks_exact_ties_like_the_scan(modes):
    # cosine curves are symmetric about the x-axis, and many mirrored seed
    # pairs are exact mirrors in floating point, so points on the axis (and
    # the origin) sit at exactly equal squared distance from two or more
    # seeds; pairs about index 0 straddle the window's wrap
    spec = DomainSpec(1.0, modes)
    t = np.linspace(-0.99, 0.99, 199)
    pts = np.concatenate([np.stack([t, np.zeros_like(t)], axis=-1), _pinned_points(spec)])
    bp = spec.boundary_point(SEEDS)
    d2 = (pts[:, 0, None] - bp[None, :, 0]) ** 2 + (pts[:, 1, None] - bp[None, :, 1]) ** 2
    assert np.any(np.sum(d2 == np.min(d2, axis=1, keepdims=True), axis=1) > 1)
    _assert_distance_is_scan(spec, pts)


@pytest.fixture(scope="module")
def free_boundary_spec():
    """The 14-mode outer curve of an exactly overdetermined instance."""
    spec = overdetermined_instance(0.02).spec
    assert len(spec.fourier_modes) == 14
    return spec


def test_distance_to_outer_equals_scan_on_free_boundary_curve(free_boundary_spec):
    spec = free_boundary_spec
    pts = random_interior_points(spec, 2000, np.random.default_rng(7))
    _assert_distance_is_scan(spec, np.concatenate([pts, _pinned_points(spec)]))


def test_seed_windows_are_narrow_on_free_boundary_curve(free_boundary_spec):
    # the curve is within 3e-5 relative of a circle about a centre off the
    # origin: about that centre the windows hold a seed or two, about the
    # origin ~133
    spec = free_boundary_spec
    pts = random_interior_points(spec, 2000, np.random.default_rng(7))
    _, width = spec._seed_windows(pts[:, 0], pts[:, 1])
    assert np.mean(width) <= 8
    assert spec._seeds.centre != (0.0, 0.0)


def _membership_points(spec, seed):
    """Scattered points, points on the curve at every seed and mid-seed
    angle, one ulp and 1e-9 and 1e-4 relative inside and outside it, and
    the origin."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, 300)
    rho = rng.uniform(0.0, 1.3, 300) * spec.radius(theta)
    scattered = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)
    on = spec.boundary_point(np.concatenate([SEEDS, SEEDS + np.pi / SEEDS.size]))
    off = [on * (1.0 + f) for f in (-1e-4, -1e-9, 1e-9, 1e-4)]
    ulps = [np.nextafter(on, 0.0), np.nextafter(on, 2.0 * on)]
    return np.concatenate([scattered, on, *off, *ulps, np.zeros((1, 2))])


def _assert_membership_is_series(spec, pts):
    # the band decides most points without the series; every decision is
    # the series comparison's, also within an ulp of the curve
    want = np.hypot(pts[:, 0], pts[:, 1]) < spec.radius(np.arctan2(pts[:, 1], pts[:, 0]))
    assert np.array_equal(spec._inside_outer(pts), want)


@settings(max_examples=40, deadline=None)
@given(spec=admissible_domains(), seed=hst.integers(0, 2**32 - 1))
def test_inside_outer_equals_series_comparison(spec, seed):
    _assert_membership_is_series(spec, _membership_points(spec, seed))


def test_inside_outer_equals_series_comparison_on_free_boundary_curve(free_boundary_spec):
    _assert_membership_is_series(free_boundary_spec, _membership_points(free_boundary_spec, 3))


def test_distance_to_outer_temporaries_stay_small(free_boundary_spec):
    # growth checks ask for 10,000 interior points at once; the search and
    # the projection work in bounded blocks
    spec = free_boundary_spec
    pts = random_interior_points(spec, 10_000, np.random.default_rng(2))
    spec._distance_to_outer(pts[:1])  # the seed table is built once per spec
    tracemalloc.start()
    try:
        d = spec._distance_to_outer(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - d.nbytes <= 4 * 2**20


def test_projection_stops_within_ulps_of_the_angle(monkeypatch):
    # the 10,000 growth samples of configs/stability_dirichlet.cfg: the
    # Newton steps near theta = 2 pi shrink to roundoff of a few ulps of
    # theta, which an absolute stop far below those ulps never accepts
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    pts = random_interior_points(spec, 10_000, np.random.default_rng(2))
    passes = []
    radii = DomainSpec.radii
    monkeypatch.setattr(DomainSpec, "radii", lambda s, th: passes.append(th.size) or radii(s, th))
    spec._distance_to_outer(pts)
    assert len(passes) <= 4


# ---------------------------------------------------------------------------
# Interior sphere radius, diameter, radii about a point
# ---------------------------------------------------------------------------


def test_interior_sphere_annulus(annulus):
    assert abs(interior_sphere_radius(annulus) - 0.4) <= 1e-6


def test_interior_sphere_ball(ball):
    assert abs(interior_sphere_radius(ball) - 1.0) <= 1e-6


@pytest.mark.parametrize(
    "spec, expected",
    [
        # the centred annuli of configs/sweep_radial.cfg
        (DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.05),)), "0.4749993553714752"),
        (DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.1),)), "0.44999974309110646"),
        # the domain of configs/stability_dirichlet.cfg
        (DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),)), "0.3325340313713551"),
        # the annulus of configs/poincare.cfg
        (DomainSpec(1.0, holes=(Hole((0.0, 0.0), 0.2),)), "0.3999995648562909"),
        # the eps = 0.02 instance of configs/sweep_overdetermined.cfg
        ("free_boundary_spec", "0.4319038545381989"),
    ],
)
def test_interior_sphere_radius_pinned_on_shipped_domains(spec, expected, request, monkeypatch):
    # exact, not a tolerance: a flipped bisection decision at the probe that
    # sets the minimum moves digits far below the 1e-6 resolution
    if isinstance(spec, str):
        spec = request.getfixturevalue(spec)
    got = interior_sphere_radius(spec)
    assert _full_bisection_radius(spec) == got
    monkeypatch.setattr(DomainSpec, "_nearest_seed", _scan_seed)
    assert interior_sphere_radius(spec) == got
    # the last bits follow the platform's cos/arctan2/hypot; these reprs are
    # those of numpy 2.4 on x86-64 glibc 2.36
    assert repr(got) == expected


def test_interior_sphere_offcenter_hole():
    spec = DomainSpec(1.0, holes=(Hole((0.5, 0.0), 0.2, -0.1),))
    assert abs(interior_sphere_radius(spec) - 0.15) <= 1e-6


def test_interior_sphere_unresolvable_pinch():
    # a valid domain (positive clearance) whose narrowest gap is below the
    # search resolution signals instead of returning a junk radius
    pinch = DomainSpec(1.0, holes=(Hole((0.8 - 5e-7, 0.0), 0.2, -0.1),))
    for radius in (interior_sphere_radius, _full_bisection_radius):
        with pytest.raises(InvalidDomainError, match="no uniform interior sphere"):
            radius(pinch)


def _full_bisection_radius(spec, d_omega=None):
    """interior_sphere_radius's bisection with every probe tested on every
    pass."""
    resolution, n_probe = 1e-6, 512
    probes, normals, caps = [], [], []
    theta = np.linspace(0.0, TWO_PI, n_probe, endpoint=False)
    probes.append(spec.boundary_point(theta))
    normals.append(spec.boundary_normal(theta))
    caps.append(np.full(n_probe, 1.0 / max(spec.max_curvature(), 1e-12)))
    th = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    unit = np.stack([np.cos(th), np.sin(th)], axis=-1)
    if spec.holes and d_omega is None:
        d_omega = diameter(spec)
    for hole in spec.holes:
        probes.append(hole.boundary_points(th))
        normals.append(-unit)
        caps.append(np.full(th.size, 2.0 * d_omega))
    probes, normals, caps = map(np.concatenate, (probes, normals, caps))

    def feasible(r):
        centers = probes - r[:, None] * normals
        ok = spec.contains(centers)
        out = np.zeros_like(ok)
        if np.any(ok):
            out[ok] = geometry.distance_to_boundary(spec, centers[ok]) >= r[ok] - 1e-9
        return out

    lo = np.full(probes.shape[0], resolution)
    if not np.all(feasible(lo)):
        raise InvalidDomainError("no uniform interior sphere at resolution")
    hi = caps.copy()
    top = feasible(hi)
    lo[top] = hi[top]
    while np.max(hi - lo) > resolution:
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        lo[ok] = mid[ok]
        hi[~ok] = mid[~ok]
    return float(np.min(lo))


def _radius_or_error(radius, spec, d_omega):
    try:
        return radius(spec, d_omega)
    except InvalidDomainError as err:
        return str(err)


@settings(max_examples=20, deadline=None)
@given(spec=admissible_domains())
def test_interior_sphere_radius_equals_full_bisection(spec):
    # a probe whose lo reaches the least hi is no longer tested; the least
    # lo is still the full bisection's float, or both raise
    d = diameter(spec)
    want = _radius_or_error(_full_bisection_radius, spec, d)
    assert _radius_or_error(interior_sphere_radius, spec, d) == want


def test_interior_sphere_radius_tests_fewer_probes(monkeypatch):
    # the domain of configs/stability_dirichlet.cfg: a hole probe sets the
    # minimum well below the outer probes, which drop out early, and centres
    # too near the hole never reach the outer-curve projection
    spec = DomainSpec(1.0, ((3, 0.08),), (Hole((0.25, 0.0), 0.12, -0.04),))
    points = []
    distance = DomainSpec._distance_to_outer
    monkeypatch.setattr(
        DomainSpec, "_distance_to_outer", lambda s, p: points.append(len(p)) or distance(s, p)
    )
    interior_sphere_radius(spec)
    pruned = sum(points)
    points.clear()
    _full_bisection_radius(spec)
    assert pruned > 0
    assert 2 * pruned < sum(points)


def test_interior_sphere_estimate_admits_tangent_ball(annulus):
    r_i = interior_sphere_radius(annulus)
    # the returned value must itself admit tangent interior balls
    p = annulus.boundary_point(np.array([0.3]))[0]
    nu = annulus.boundary_normal(np.array([0.3]))[0]
    center = p - r_i * nu
    assert distance_to_boundary(annulus, center) >= r_i - 1e-8


def test_diameter_values(ball):
    assert abs(diameter(ball) - 2.0) <= 1e-9
    assert abs(diameter(DomainSpec(1.0, ((2, 0.1),))) - 2.2) <= 1e-9
    assert abs(diameter(DomainSpec(0.5)) - 1.0) <= 1e-9


def _full_square_diameter(spec):
    """diameter()'s refinement loop with the max over all n x n pairs."""
    prev, n = -1.0, 128
    while True:
        pts = spec.boundary_point(np.linspace(0.0, TWO_PI, n, endpoint=False))
        d2 = 0.0
        for lo in range(0, n, 512):
            block = (pts[lo : lo + 512, 0, None] - pts[None, :, 0]) ** 2 + (
                pts[lo : lo + 512, 1, None] - pts[None, :, 1]
            ) ** 2
            d2 = max(d2, float(np.max(block)))
        d = math.sqrt(d2)
        if abs(d - prev) < 1e-9 or n >= 8192:
            return d
        prev, n = d, 2 * n


@pytest.mark.parametrize("modes", [(), ((2, 0.1),), ((3, 0.05),), ((2, 0.08), (3, 0.02))])
def test_diameter_equals_full_pairwise_max(modes):
    spec = DomainSpec(1.0, modes)
    assert diameter(spec) == _full_square_diameter(spec)


def test_diameter_equals_full_pairwise_max_on_free_boundary_curve(free_boundary_spec):
    # doubles to n = 4096, so the levels above 256 start from the last
    # level's farthest pair and skip most block pairs
    assert diameter(free_boundary_spec) == _full_square_diameter(free_boundary_spec)


@settings(max_examples=10, deadline=None)
@given(spec=admissible_domains())
def test_diameter_equals_full_pairwise_max_on_admissible_domains(spec):
    assert diameter(spec) == _full_square_diameter(spec)


def test_curve_radii_series_matches_radius():
    # r from the one-pass series is radius() bit for bit; r' and r'' agree
    # with central differences of radius()
    spec = DomainSpec(1.3, ((2, 0.04), (3, 0.02), (5, 0.01)))
    theta = np.linspace(0.0, TWO_PI, 997)
    r, rp, rpp = spec.radii(theta)
    assert np.array_equal(r, spec.radius(theta))
    h = 1e-4
    up, down = spec.radius(theta + h), spec.radius(theta - h)
    assert np.max(np.abs(rp - (up - down) / (2.0 * h))) <= 1e-6
    assert np.max(np.abs(rpp - (up - 2.0 * r + down) / (h * h))) <= 1e-6


def test_radii_offcenter_match_dense_sampling():
    spec = DomainSpec(1.0, ((2, 0.08), (3, 0.02)))
    bp = spec.boundary_point(np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False))
    for z in [(0.2, 0.1), (-0.3, 0.25)]:
        dist = np.hypot(bp[:, 0] - z[0], bp[:, 1] - z[1])
        rho_e, rho_i = enclosing_inscribed_radii(spec, z)
        assert abs(rho_e - float(np.max(dist))) <= 1e-10
        assert abs(rho_i - float(np.min(dist))) <= 1e-10


def test_radii_about_center(ball, monkeypatch):
    # within roundoff of a circle's centre (a computed barycentre) every angle
    # is a foot point: the projection stops on its first pass instead of
    # taking 40 clipped steps
    passes = []
    radii = DomainSpec.radii
    monkeypatch.setattr(DomainSpec, "radii", lambda s, th: passes.append(1) or radii(s, th))
    for spec in (ball, DomainSpec(1.3)):
        passes.clear()
        rho_e, rho_i = enclosing_inscribed_radii(spec, (1e-16, 1e-16))
        R = spec.outer_radius
        assert abs(rho_e - R) <= 4e-16 * R and abs(rho_i - R) <= 4e-16 * R
        assert len(passes) <= 2


def test_radii_offset_center(ball):
    rho_e, rho_i = enclosing_inscribed_radii(ball, (0.1, 0.0))
    assert abs(rho_e - 1.1) <= 1e-10
    assert abs(rho_i - 0.9) <= 1e-10


def test_radii_perturbed():
    spec = DomainSpec(1.0, ((3, 0.05),))
    rho_e, rho_i = enclosing_inscribed_radii(spec, (0.0, 0.0))
    assert abs(rho_e - 1.05) <= 1e-10
    assert abs(rho_i - 0.95) <= 1e-10


def test_radii_gap_below_diameter():
    spec = DomainSpec(1.0, ((2, 0.08), (3, 0.02)))
    d = diameter(spec)
    for z in [(0.0, 0.0), (0.2, 0.1), (-0.3, 0.25)]:
        rho_e, rho_i = enclosing_inscribed_radii(spec, z)
        assert rho_e >= rho_i > 0
        assert rho_e - rho_i <= d + 1e-12


def test_radii_reject_exterior_center(ball):
    with pytest.raises(ExteriorPointError):
        enclosing_inscribed_radii(ball, (2.0, 0.0))


# ---------------------------------------------------------------------------
# Symmetric difference
# ---------------------------------------------------------------------------


def test_symmetric_difference_identical(ball):
    assert symmetric_difference_ratio(ball, (0.0, 0.0), 1.0) <= 1e-6


def test_symmetric_difference_lens_oracle(ball):
    # closed-form: two unit disks at distance d, |sym diff| = 2 pi - 2 lens(d)
    d = 0.2
    lens = 2.0 * math.acos(d / 2.0) - (d / 2.0) * math.sqrt(4.0 - d * d)
    expect = (TWO_PI - 2.0 * lens) / math.pi
    got = symmetric_difference_ratio(ball, (d, 0.0), 1.0)
    assert abs(got - expect) <= 1e-3
    assert abs(got - expect) <= 1e-8  # the sectional rule is far better than asked


def test_symmetric_difference_nested(ball):
    got = symmetric_difference_ratio(ball, (0.0, 0.0), 0.5)
    assert abs(got - 3.0) <= 1e-6


def test_symmetric_difference_swap_symmetry():
    # |A sym-diff B| must not depend on which disk plays the domain
    a, b, z = 1.0, 0.7, (0.15, 0.0)
    one = symmetric_difference_ratio(DomainSpec(a), z, b) * math.pi * b * b
    two = symmetric_difference_ratio(DomainSpec(b), z, a) * math.pi * a * a
    assert abs(one - two) <= 1e-6


def _polar_oracle_area(spec, z, radius, n=1 << 20):
    """|Omega intersect B_radius(z)| by the midpoint rule on n rays, each
    ray's disk chord clipped to [0, r(theta)] in closed form."""
    theta = (np.arange(n) + 0.5) * (TWO_PI / n)
    p = z[0] * np.cos(theta) + z[1] * np.sin(theta)
    disc = radius * radius - (z[0] ** 2 + z[1] ** 2 - p * p)
    q = np.sqrt(np.maximum(disc, 0.0))
    a = np.maximum(p - q, 0.0)
    b = np.minimum(p + q, spec.radius(theta))
    return 0.5 * float(np.sum(np.where(b > a, b * b - a * a, 0.0))) * (TWO_PI / n)


@pytest.mark.parametrize(
    "modes, z, radius",
    [
        (((3, 0.05),), (0.01, 0.0), 1.0),
        (((2, 0.1), (5, 0.01)), (0.05, -0.02), 0.98),
    ],
)
def test_intersection_matches_polar_oracle(modes, z, radius):
    spec = DomainSpec(1.0, modes)
    got = intersection_area_with_disk(spec, z, radius)
    assert abs(got - _polar_oracle_area(spec, z, radius)) <= 1e-10


def test_intersection_coincident_circle(monkeypatch):
    # the equality case: the curve is the disk boundary up to roundoff, so
    # the sign of g along it is noise; area and cost must not depend on it
    ball = DomainSpec(1.0)
    calls = []
    boundary_point = DomainSpec.boundary_point

    def counted(self, theta):
        calls.append(1)
        return boundary_point(self, theta)

    monkeypatch.setattr(DomainSpec, "boundary_point", counted)
    z = (7e-18, -7e-18)
    counts = []
    for radius in (1.0, 1.0 + 2e-16, 1.0 - 2e-16):
        before = len(calls)
        assert abs(intersection_area_with_disk(ball, z, radius) - math.pi) <= 1e-13
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] == counts[2] <= 200


def test_intersection_disjoint(ball):
    assert intersection_area_with_disk(ball, (5.0, 0.0), 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Polar sections against the per-angle loop, bit for bit
# ---------------------------------------------------------------------------


def _loop_grazing(center, radius):
    d = math.hypot(*center)
    if d > radius:
        phi = math.atan2(center[1], center[0])
        half = math.asin(min(1.0, radius / d))
        return [(phi - half) % TWO_PI, (phi + half) % TWO_PI]
    return []


def _loop_area_rule(spec, n_r, n_theta):
    """The area rule ray by ray: math.cos, each hole chord subtracted from the
    ray's list of intervals, one Gauss rule per remaining piece."""

    def subtract(intervals, lo, hi):
        out = []
        for a, b in intervals:
            if hi <= a or lo >= b:
                out.append((a, b))
                continue
            if lo > a:
                out.append((a, lo))
            if hi < b:
                out.append((hi, b))
        return out

    breaks = sorted(t for h in spec.holes for t in _loop_grazing(h.center, h.radius))
    theta_nodes, theta_weights = geometry._paneled_theta_rule(breaks, n_theta)
    nodes, weights = [], []
    for th, wt, r_out in zip(theta_nodes, theta_weights, spec.radius(theta_nodes).tolist()):
        ct, st = math.cos(th), math.sin(th)
        intervals = [(0.0, r_out)]
        for hole in spec.holes:
            p = hole.center[0] * ct + hole.center[1] * st
            c2 = hole.center[0] ** 2 + hole.center[1] ** 2
            disc = hole.radius**2 - (c2 - p * p)
            if disc > 0.0:
                q = math.sqrt(disc)
                intervals = subtract(intervals, max(0.0, p - q), min(r_out, p + q))
        for a, b in intervals:
            if b - a < 1e-14:
                continue
            m = max(6, int(math.ceil(n_r * (b - a) / r_out)))
            xs, ws = geometry._gauss_legendre(m)
            rho = 0.5 * (a + b) + 0.5 * (b - a) * xs
            weights.append(ws * 0.5 * (b - a) * rho * wt)
            nodes.append(np.stack([rho * ct, rho * st], axis=-1))
    weights = np.concatenate(weights)
    exact = spec.region_area
    return np.concatenate(nodes), weights, abs(float(np.sum(weights)) - exact) / exact


def _assert_area_rule_is_loop(spec):
    for n_r, n_theta in ((48, 256), (24, 128), (4, 16)):
        nodes, weights, residual = _loop_area_rule(spec, n_r, n_theta)
        try:
            aq = build_area_quadrature(spec, n_r, n_theta)
        except QuadratureError as err:  # a coarse rule misses the area the same way
            assert err.residual == residual > 1e-6
            continue
        assert residual <= 1e-6
        assert aq.nodes.tobytes() == nodes.tobytes()
        assert aq.weights.tobytes() == weights.tobytes()
        assert aq.area_residual == residual


@settings(max_examples=40, deadline=None)
@given(spec=admissible_domains())
def test_area_rule_equals_per_angle_loop(spec):
    _assert_area_rule_is_loop(spec)


@pytest.mark.parametrize(
    "holes",
    [
        [((0.05, 0.0), 0.2)],  # holds the origin: every ray starts past it
        [((0.3, 0.0), 0.1), ((0.6, 0.0), 0.1)],  # two chords on one ray
        [((0.6, 0.0), 0.1), ((0.3, 0.0), 0.1), ((-0.5, 0.3), 0.15)],
    ],
)
def test_area_rule_equals_per_angle_loop_pinned(holes):
    spec = DomainSpec(1.0, ((3, 0.05),), tuple(Hole(c, r) for c, r in holes))
    _assert_area_rule_is_loop(spec)


def test_area_rule_equals_per_angle_loop_on_free_boundary_curve(free_boundary_spec):
    _assert_area_rule_is_loop(free_boundary_spec)


@pytest.mark.parametrize(
    "modes, z, radius",
    [
        (((3, 0.05),), (0.01, 0.0), 1.0),  # holds the origin, crosses the curve
        (((2, 0.1), (5, 0.01)), (0.05, -0.02), 0.98),
        (((2, 0.1),), (0.5, 0.2), 0.3),  # rays graze it, some lines hit it behind 0
        (((2, 0.1),), (0.9, -0.4), 0.6),  # grazed and cut by the curve
        ((), (0.0, 0.0), 0.5),
        ((), (5.0, 0.0), 1.0),
    ],
)
def test_intersection_equals_inline_chords(modes, z, radius, monkeypatch):
    _assert_intersection_is_inline(DomainSpec(1.0, modes), z, radius, monkeypatch)


def test_intersection_equals_inline_chords_on_free_boundary_curve(free_boundary_spec, monkeypatch):
    # the asymmetry's disk B_Nc(z) about the hole centre, and a smaller one
    for radius in (1.0, 0.7):
        _assert_intersection_is_inline(free_boundary_spec, (0.4, 0.0), radius, monkeypatch)


def _assert_intersection_is_inline(spec, z, radius, monkeypatch):
    """The grazing angles and the chords along the panel rule's rays, in the
    expressions intersection_area_with_disk had inline."""
    rules = []
    paneled = geometry._paneled_theta_rule

    def recorded(breaks, n):
        rules.append((breaks, *paneled(breaks, n)))
        return rules[-1][1:]

    monkeypatch.setattr(geometry, "_paneled_theta_rule", recorded)
    got = intersection_area_with_disk(spec, z, radius)
    monkeypatch.undo()
    ((breaks, theta, weights),) = rules
    z = np.asarray(z, dtype=float)
    assert set(_loop_grazing(z, radius)) <= set(breaks)
    p = z[0] * np.cos(theta) + z[1] * np.sin(theta)
    disc = radius * radius - (z[0] ** 2 + z[1] ** 2 - p * p)
    q = np.sqrt(np.maximum(disc, 0.0))
    a = np.maximum(0.0, p - q)
    b = np.minimum(spec.radius(theta), p + q)
    terms = np.where((disc > 0.0) & (b > a), 0.5 * (b * b - a * a) * weights, 0.0)
    assert got == float(np.cumsum(terms)[-1])


# ---------------------------------------------------------------------------
# Tubular sets
# ---------------------------------------------------------------------------


def test_tube_area_and_inner_length(ball):
    tube, inner = tubular_sets(ball, 0.3, 1.0)
    assert abs(tube.total - math.pi * (1.0 - 0.49)) / (math.pi * 0.51) <= 1e-4
    assert abs(inner.arc_length - TWO_PI * 0.7) <= 1e-8


def test_tube_rejects_width_above_r_i(ball):
    with pytest.raises(InvalidDomainError):
        tubular_sets(ball, 1.1, 1.0)


def test_tube_nodes_lie_in_band(annulus):
    r_i = interior_sphere_radius(annulus)
    tube, inner = tubular_sets(annulus, r_i, r_i)
    d = annulus._distance_to_outer(tube.nodes)
    assert np.all(d <= r_i + 1e-9)
    assert np.all(annulus.contains(tube.nodes))
    # inner-interface normals point away from the outer curve
    assert np.all(np.sum(inner.normals * inner.nodes, axis=1) < 0)


# ---------------------------------------------------------------------------
# Divergence theorem on geometry alone
# ---------------------------------------------------------------------------


def test_geometric_divergence_theorem():
    spec = DomainSpec(1.0, ((3, 0.1),), (Hole((0.3, 0.1), 0.15, -0.05),))
    bq = build_boundary_quadrature(spec, 256)
    total = 0.0
    for comp in bq.all():
        total += float(np.sum(np.sum(comp.nodes * comp.normals, axis=1) / 2.0 * comp.weights))
    exact = spec.region_area
    assert abs(total - exact) / exact <= 1e-6
