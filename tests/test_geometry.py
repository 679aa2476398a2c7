import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from torsionlab.geometry import (
    DomainSpec,
    ExteriorPointError,
    Hole,
    InvalidDomainError,
    build_area_quadrature,
    build_boundary_quadrature,
    diameter,
    distance_to_boundary,
    enclosing_inscribed_radii,
    interior_sphere_radius,
    intersection_area_with_disk,
    symmetric_difference_ratio,
    tubular_sets,
)

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


# ---------------------------------------------------------------------------
# Interior sphere radius, diameter, radii about a point
# ---------------------------------------------------------------------------


def test_interior_sphere_annulus(annulus):
    assert abs(interior_sphere_radius(annulus) - 0.4) <= 1e-6


def test_interior_sphere_ball(ball):
    assert abs(interior_sphere_radius(ball) - 1.0) <= 1e-6


def test_interior_sphere_offcenter_hole():
    spec = DomainSpec(1.0, holes=(Hole((0.5, 0.0), 0.2, -0.1),))
    assert abs(interior_sphere_radius(spec) - 0.15) <= 1e-6


def test_interior_sphere_unresolvable_pinch():
    # a valid domain (positive clearance) whose narrowest gap is below the
    # search resolution signals instead of returning a junk radius
    pinch = DomainSpec(1.0, holes=(Hole((0.8 - 5e-7, 0.0), 0.2, -0.1),))
    with pytest.raises(InvalidDomainError, match="no uniform interior sphere"):
        interior_sphere_radius(pinch)


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


def test_radii_about_center(ball):
    rho_e, rho_i = enclosing_inscribed_radii(ball, (0.0, 0.0))
    assert abs(rho_e - 1.0) <= 1e-10 and abs(rho_i - 1.0) <= 1e-10


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
