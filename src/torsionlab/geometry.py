"""Planar domains with excised circular holes, and their quadrature rules.

The outer boundary is a Fourier-perturbed circle r(theta) = R(1 + sum eps_k
cos k theta) about the origin; holes are disjoint disks strictly inside it.
This module owns everything purely geometric: line and area quadratures,
distance to the boundary, an interior-sphere radius estimate, the diameter,
enclosing/inscribed radii about a point, symmetric-difference areas against
disks, and boundary-layer (tubular) node sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidDomainError(ValueError):
    """A DomainSpec (or quadrature request) violates a structural invariant."""


class ExteriorPointError(ValueError):
    """A query point lies outside the open region it must belong to."""


class QuadratureError(RuntimeError):
    """A quadrature failed its accuracy contract; carries the achieved residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


@lru_cache(maxsize=64)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _cosine_series(theta, a0, modes):
    """(r, r', r'') of r(theta) = a0 + sum a cos(k theta) over modes (k, a),
    summed in mode order with one cos(k theta) and one sin(k theta) per mode."""
    theta = np.asarray(theta, dtype=float)
    r = np.full_like(theta, a0)
    d1 = np.zeros_like(theta)
    d2 = np.zeros_like(theta)
    for k, a in modes:
        c, s = np.cos(k * theta), np.sin(k * theta)
        r = r + a * c
        d1 = d1 - a * k * s
        d2 = d2 - a * k * k * c
    return r, d1, d2


@dataclass(frozen=True)
class Hole:
    """A circular excision with a Dirichlet datum g <= 0 for solver scenarios."""

    center: tuple[float, float]
    radius: float
    dirichlet_value: float = 0.0

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidDomainError(f"hole radius must be positive, got {self.radius}")
        if self.dirichlet_value > 0:
            raise InvalidDomainError(
                "hole Dirichlet value must satisfy g <= 0, got "
                f"{self.dirichlet_value} (the field must be nonpositive on hole boundaries)"
            )

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    def boundary_points(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.stack(
            [
                self.center[0] + self.radius * np.cos(theta),
                self.center[1] + self.radius * np.sin(theta),
            ],
            axis=-1,
        )


@dataclass(frozen=True)
class DomainSpec:
    """The region between the outer curve and the closed holes.

    Invariants checked at construction: r(theta) > 0 on a dense grid,
    sum |eps_k| k^2 < 1 (keeps the outer curve a C^2 graph over the circle),
    each hole strictly inside the outer curve with positive clearance, and
    holes pairwise disjoint with positive clearance.
    """

    outer_radius: float
    fourier_modes: tuple[tuple[int, float], ...] = ()
    holes: tuple[Hole, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fourier_modes", tuple(
            (int(k), float(e)) for k, e in self.fourier_modes
        ))
        object.__setattr__(self, "holes", tuple(self.holes))
        if not self.outer_radius > 0:
            raise InvalidDomainError("outer_radius must be positive")
        for k, _ in self.fourier_modes:
            if k < 1:
                raise InvalidDomainError(f"fourier wavenumber must be >= 1, got {k}")
        bend = sum(abs(e) * k * k for k, e in self.fourier_modes)
        if not bend < 1.0:
            raise InvalidDomainError(
                f"sum |eps_k| k^2 = {bend:.6g} must be < 1 for a C^2 outer curve"
            )
        theta = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        r = self.radius(theta)
        if not np.all(r > 0):
            raise InvalidDomainError("outer curve radius r(theta) must stay positive")
        for i, hole in enumerate(self.holes):
            c = np.asarray(hole.center, dtype=float)
            if not self._inside_outer(c[None, :])[0]:
                raise InvalidDomainError(f"hole {i} center lies outside the outer curve")
            clearance = self._distance_to_outer(c[None, :])[0] - hole.radius
            if not clearance > 0:
                raise InvalidDomainError(
                    f"hole {i} is not strictly inside the outer curve "
                    f"(clearance {clearance:.3e})"
                )
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                a, b = self.holes[i], self.holes[j]
                gap = math.dist(a.center, b.center) - a.radius - b.radius
                if not gap > 0:
                    raise InvalidDomainError(
                        f"holes {i} and {j} are not disjoint (gap {gap:.3e})"
                    )

    # -- outer-curve parametrization ------------------------------------

    def radius(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = np.ones_like(theta)
        for k, e in self.fourier_modes:
            r = r + e * np.cos(k * theta)
        return self.outer_radius * r

    def radii(self, theta):
        """(r, r', r'') of the outer curve from one pass over the modes."""
        r, d1, d2 = _cosine_series(theta, 1.0, self.fourier_modes)
        return self.outer_radius * r, self.outer_radius * d1, self.outer_radius * d2

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = self.radius(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def boundary_speed(self, theta):
        r, rp, _ = self.radii(theta)
        return np.sqrt(r * r + rp * rp)

    def boundary_normal(self, theta):
        """Unit outward normal of the outer curve (counterclockwise param)."""
        theta = np.asarray(theta, dtype=float)
        r, rp, _ = self.radii(theta)
        # tangent = r' e_r + r e_theta; rotate by -90 degrees for outward normal
        cos, sin = np.cos(theta), np.sin(theta)
        tx = rp * cos - r * sin
        ty = rp * sin + r * cos
        speed = np.sqrt(tx * tx + ty * ty)
        return np.stack([ty / speed, -tx / speed], axis=-1)

    def boundary_curvature(self, theta):
        """Signed curvature, positive where the outer curve is convex."""
        r, rp, rpp = self.radii(theta)
        return (r * r + 2.0 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5

    def max_curvature(self) -> float:
        theta = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
        return float(np.max(self.boundary_curvature(theta)))

    # -- areas (closed form) ---------------------------------------------

    @property
    def outer_area(self) -> float:
        """Area enclosed by the outer curve: (1/2) integral r(theta)^2 dtheta."""
        return math.pi * self.outer_radius**2 * (
            1.0 + 0.5 * sum(e * e for _, e in self.fourier_modes)
        )

    @property
    def holes_area(self) -> float:
        return sum(h.area for h in self.holes)

    @property
    def region_area(self) -> float:
        return self.outer_area - self.holes_area

    @property
    def holes_perimeter(self) -> float:
        return sum(TWO_PI * h.radius for h in self.holes)

    # -- membership -------------------------------------------------------

    def _inside_outer(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        return rho < self.radius(theta)

    def _in_any_hole_closed(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(pts.shape[0], dtype=bool)
        for hole in self.holes:
            d = np.hypot(pts[:, 0] - hole.center[0], pts[:, 1] - hole.center[1])
            out |= d <= hole.radius
        return out

    def contains(self, pts):
        """Strict membership in the open region (outer interior minus closed holes)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._inside_outer(pts) & ~self._in_any_hole_closed(pts)

    def _distance_to_outer(self, pts):
        """Distance from interior-ish points to the outer curve.

        Each point starts from its nearest of 720 equispaced curve samples
        and is projected onto the curve by ``_project``.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n_seed = 720
        seeds = np.linspace(0.0, TWO_PI, n_seed, endpoint=False)
        bp = self.boundary_point(seeds)  # (s, 2)
        # nearest seed per point, in row blocks of ~64k point-seed pairs
        n = pts.shape[0]
        theta = np.empty(n)
        chunk = max(1, 65536 // n_seed)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            d2 = (pts[lo:hi, 0, None] - bp[None, :, 0]) ** 2 + (
                pts[lo:hi, 1, None] - bp[None, :, 1]
            ) ** 2
            theta[lo:hi] = seeds[np.argmin(d2, axis=1)]
        return np.hypot(*(pts - self.boundary_point(self._project(pts, theta))).T)

    def _project(self, pts, theta):
        """Foot-point angles on the outer curve: Newton steps on the
        stationarity of |x(theta) - p|^2 from the starting angles theta (a
        nearest or farthest sample), each clipped to 0.5; every point stops on
        its own |step| < 1e-15, after at most 40 steps."""
        theta = np.array(theta, dtype=float)
        active = np.arange(theta.size)  # points still taking Newton steps
        for _ in range(40):
            th, p = theta[active], pts[active]
            r, rp, rpp = self.radii(th)
            cos, sin = np.cos(th), np.sin(th)
            t1 = np.stack([rp * cos - r * sin, rp * sin + r * cos], axis=-1)
            t2 = np.stack(
                [(rpp - r) * cos - 2 * rp * sin, (rpp - r) * sin + 2 * rp * cos],
                axis=-1,
            )
            diff = p - np.stack([r * cos, r * sin], axis=-1)
            g = -np.sum(diff * t1, axis=-1)
            h = np.sum(t1 * t1, axis=-1) - np.sum(diff * t2, axis=-1)
            h = np.where(np.abs(h) < 1e-14, 1e-14, h)
            step = np.clip(g / h, -0.5, 0.5)
            theta[active] = th - step
            active = active[np.abs(step) >= 1e-15]
            if active.size == 0:
                break
        return theta


# ---------------------------------------------------------------------------
# Quadrature containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Nodes/weights/outward-normals on one smooth closed boundary component.

    Normals point out of the working region: outward on the outer curve,
    into the holes on hole boundaries.
    """

    component: str
    theta: np.ndarray
    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    curvature: np.ndarray | None = None

    @property
    def arc_length(self) -> float:
        return float(np.sum(self.weights))

    @property
    def n_nodes(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class BoundaryQuadratures:
    gamma: BoundaryQuadrature
    holes: tuple[BoundaryQuadrature, ...] = ()

    def all(self):
        return (self.gamma, *self.holes)


@dataclass(frozen=True)
class AreaQuadrature:
    nodes: np.ndarray
    weights: np.ndarray
    area_residual: float = 0.0

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class Quadratures:
    """Bundle used by every integral-identity and stability computation."""

    spec: DomainSpec
    bounds: BoundaryQuadratures
    area: AreaQuadrature
    n_theta: int
    n_r: int


def build_boundary_quadrature(spec: DomainSpec, n_theta: int) -> BoundaryQuadratures:
    """Periodic-trapezoid rules on the outer curve and each hole circle."""
    if n_theta < 64 or n_theta % 2:
        raise InvalidDomainError(f"n_theta must be even and >= 64, got {n_theta}")
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    nodes = spec.boundary_point(theta)
    weights = spec.boundary_speed(theta) * (TWO_PI / n_theta)
    gamma = BoundaryQuadrature(
        component="gamma",
        theta=theta,
        nodes=nodes,
        normals=spec.boundary_normal(theta),
        weights=weights,
        curvature=spec.boundary_curvature(theta),
    )
    holes = []
    n_hole = max(64, n_theta // 2)
    n_hole += n_hole % 2
    th = np.linspace(0.0, TWO_PI, n_hole, endpoint=False)
    unit = np.stack([np.cos(th), np.sin(th)], axis=-1)
    for j, hole in enumerate(spec.holes):
        holes.append(
            BoundaryQuadrature(
                component=f"hole_{j}",
                theta=th,
                nodes=hole.boundary_points(th),
                normals=-unit,  # out of the region = into the hole
                weights=np.full(n_hole, TWO_PI * hole.radius / n_hole),
                curvature=np.full(n_hole, -1.0 / hole.radius),
            )
        )
    return BoundaryQuadratures(gamma=gamma, holes=tuple(holes))


# ---------------------------------------------------------------------------
# Area quadrature: polar sections with exact hole-chord subtraction
# ---------------------------------------------------------------------------


def _hole_chord(hole: Hole, theta):
    """Radial interval cut out of the ray at angle theta by the hole, or None."""
    ct, st = math.cos(theta), math.sin(theta)
    p = hole.center[0] * ct + hole.center[1] * st
    c2 = hole.center[0] ** 2 + hole.center[1] ** 2
    disc = hole.radius**2 - (c2 - p * p)
    if disc <= 0.0:
        return None
    q = math.sqrt(disc)
    return p - q, p + q


def _subtract_interval(intervals, lo, hi):
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


def _tangency_breakpoints(spec: DomainSpec):
    """Angles where a ray from the origin grazes a hole (section kinks)."""
    breaks = []
    for hole in spec.holes:
        d = math.hypot(*hole.center)
        if d > hole.radius:
            phi = math.atan2(hole.center[1], hole.center[0])
            half = math.asin(min(1.0, hole.radius / d))
            breaks.extend([(phi - half) % TWO_PI, (phi + half) % TWO_PI])
    return sorted(breaks)


def _paneled_theta_rule(breakpoints, n_theta):
    """Composite Gauss panels between breakpoints, sin-mapped at panel ends.

    The sin map puts vanishing density at the panel endpoints, which turns the
    sqrt-type kinks at grazing angles into analytic integrands.  With no
    breakpoints the rule degenerates to the periodic trapezoid.
    """
    if not breakpoints:
        t = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
        return t, np.full(n_theta, TWO_PI / n_theta)
    arcs = []
    bp = list(breakpoints)
    for i, a in enumerate(bp):
        b = bp[(i + 1) % len(bp)]
        if i + 1 == len(bp):
            b += TWO_PI
        if b - a > 1e-12:
            arcs.append((a, b))
    thetas, weights = [], []
    for a, b in arcs:
        m = max(12, int(math.ceil(n_theta * (b - a) / TWO_PI)))
        xs, ws = _gauss_legendre(m)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        thetas.append(mid + half * np.sin(0.5 * math.pi * xs))
        weights.append(ws * half * 0.5 * math.pi * np.cos(0.5 * math.pi * xs))
    return np.concatenate(thetas), np.concatenate(weights)


def build_area_quadrature(spec: DomainSpec, n_r: int, n_theta: int) -> AreaQuadrature:
    """High-order rule over the region: per-angle radial sections with the
    hole chords removed exactly, Gauss nodes on each radial piece.

    The achieved node-weight total is checked against the closed-form area;
    a relative residual above 1e-6 raises QuadratureError.
    """
    if n_r < 4 or n_theta < 16:
        raise InvalidDomainError("area quadrature needs n_r >= 4 and n_theta >= 16")
    theta_nodes, theta_weights = _paneled_theta_rule(
        _tangency_breakpoints(spec), n_theta
    )
    nodes, weights = [], []
    for th, wt, r_out in zip(theta_nodes, theta_weights, spec.radius(theta_nodes).tolist()):
        intervals = [(0.0, r_out)]
        for hole in spec.holes:
            chord = _hole_chord(hole, th)
            if chord is not None:
                intervals = _subtract_interval(
                    intervals, max(0.0, chord[0]), min(r_out, chord[1])
                )
        ct, st = math.cos(th), math.sin(th)
        for a, b in intervals:
            if b - a < 1e-14:
                continue
            m = max(6, int(math.ceil(n_r * (b - a) / r_out)))
            xs, ws = _gauss_legendre(m)
            rho = 0.5 * (a + b) + 0.5 * (b - a) * xs
            w = ws * 0.5 * (b - a) * rho * wt  # polar element rho drho dtheta
            nodes.append(np.stack([rho * ct, rho * st], axis=-1))
            weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    exact = spec.region_area
    residual = abs(float(np.sum(weights)) - exact) / exact
    if residual > 1e-6:
        raise QuadratureError("area quadrature missed the closed-form area", residual)
    return AreaQuadrature(nodes=nodes, weights=weights, area_residual=residual)


def build_quadratures(spec: DomainSpec, n_theta: int = 256, n_r: int = 48) -> Quadratures:
    return Quadratures(
        spec=spec,
        bounds=build_boundary_quadrature(spec, n_theta),
        area=build_area_quadrature(spec, n_r, n_theta),
        n_theta=n_theta,
        n_r=n_r,
    )


# ---------------------------------------------------------------------------
# Metric quantities
# ---------------------------------------------------------------------------


def distance_to_boundary(spec: DomainSpec, pts):
    """delta(x): distance to the union of all boundary components.

    Raises ExteriorPointError when any query point is outside the open region.
    """
    single = np.asarray(pts, dtype=float).ndim == 1
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = spec.contains(pts)
    if not np.all(inside):
        bad = pts[~inside][0]
        raise ExteriorPointError(f"point {tuple(bad)} is outside the region")
    d = spec._distance_to_outer(pts)
    for hole in spec.holes:
        dh = np.hypot(pts[:, 0] - hole.center[0], pts[:, 1] - hole.center[1]) - hole.radius
        d = np.minimum(d, dh)
    return float(d[0]) if single else d


def interior_sphere_radius(spec: DomainSpec, d_omega: float | None = None) -> float:
    """Estimate of the uniform interior-sphere radius.

    For boundary probes p (512 on the outer curve, 256 on each hole),
    binary-searches to within 1e-6 the largest r such that the ball of
    radius r tangent at p (center p - r * normal) stays inside the region, up
    to a slack of 1e-9 in the distance test; on the outer curve the search is
    additionally capped by 1/max curvature.  Balls are only tested at the
    probes, so this is an estimate, not a proven lower bound.  ``d_omega``
    is the diameter when the caller already has it (it caps the search on
    hole boundaries).
    """
    resolution, n_probe = 1e-6, 512
    probes, normals, caps = [], [], []
    theta = np.linspace(0.0, TWO_PI, n_probe, endpoint=False)
    probes.append(spec.boundary_point(theta))
    normals.append(spec.boundary_normal(theta))
    kmax = max(spec.max_curvature(), 1e-12)
    caps.append(np.full(n_probe, 1.0 / kmax))
    nh = max(128, n_probe // 2)
    th = np.linspace(0.0, TWO_PI, nh, endpoint=False)
    unit = np.stack([np.cos(th), np.sin(th)], axis=-1)
    if spec.holes and d_omega is None:
        d_omega = diameter(spec)
    hole_cap = 2.0 * d_omega if spec.holes else 0.0
    for hole in spec.holes:
        probes.append(hole.boundary_points(th))
        normals.append(-unit)
        caps.append(np.full(nh, hole_cap))
    probes = np.concatenate(probes)
    normals = np.concatenate(normals)
    caps = np.concatenate(caps)

    def feasible(r):
        centers = probes - r[:, None] * normals
        ok = spec.contains(centers)
        out = np.zeros_like(ok)
        if np.any(ok):
            d = np.empty(centers.shape[0])
            d[ok] = distance_to_boundary(spec, centers[ok])
            out[ok] = d[ok] >= r[ok] - 1e-9
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


def diameter(spec: DomainSpec) -> float:
    """sup |x - y| over the closed outer region; attained on the outer curve."""
    prev = -1.0
    n = 128
    while True:
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        pts = spec.boundary_point(theta)
        d2 = 0.0
        # pair distances are symmetric bit for bit: scan the upper triangle
        for lo in range(0, n, 64):
            hi = min(n, lo + 64)
            block = (pts[lo:hi, 0, None] - pts[None, lo:, 0]) ** 2 + (
                pts[lo:hi, 1, None] - pts[None, lo:, 1]
            ) ** 2
            d2 = max(d2, float(np.max(block)))
        d = math.sqrt(d2)
        if abs(d - prev) < 1e-9 or n >= 8192:
            return d
        prev = d
        n *= 2


def enclosing_inscribed_radii(spec: DomainSpec, z) -> tuple[float, float]:
    """(rho_e, rho_i): max/min distance from z to the outer curve.

    Requires z inside the outer curve, so the ball of radius rho_i about z is
    contained in the enclosed region and the ball of radius rho_e contains it.
    """
    z = np.asarray(z, dtype=float)
    if not spec._inside_outer(z[None, :])[0]:
        raise ExteriorPointError(
            f"center {tuple(z)} is outside the domain; enclosing/inscribed radii undefined"
        )
    theta = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    dist = np.hypot(*(spec.boundary_point(theta) - z).T)
    # polish the farthest and the nearest sample as foot points of z
    seeds = theta[[np.argmax(dist), np.argmin(dist)]]
    feet = spec.boundary_point(spec._project(np.stack([z, z]), seeds))
    rho_e, rho_i = np.hypot(*(feet - z).T)
    return max(float(rho_e), float(np.max(dist))), min(float(rho_i), float(np.min(dist)))


# ---------------------------------------------------------------------------
# Symmetric difference against a disk
# ---------------------------------------------------------------------------


def intersection_area_with_disk(spec: DomainSpec, z, radius: float) -> float:
    """|Omega intersect B_radius(z)| for Omega the region enclosed by the outer curve.

    Polar panels break where rays from the origin graze the disk and where the
    outer curve crosses the disk boundary.  Curve samples within roundoff of
    the circle count as lying on it, so a curve that coincides with the
    circle has no crossings and the cost does not depend on roundoff signs.
    """
    z = np.asarray(z, dtype=float)
    breaks = []
    d0 = math.hypot(*z)
    if d0 > radius:  # rays from the origin can graze the disk
        phi = math.atan2(z[1], z[0])
        half = math.asin(min(1.0, radius / d0))
        breaks.extend([(phi - half) % TWO_PI, (phi + half) % TWO_PI])
    # crossing angles where the outer curve meets the disk boundary: bracket
    # sign changes between cyclically consecutive off-circle samples and
    # bisect all brackets together
    fine = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
    step = fine[1] - fine[0]
    dist = np.hypot(*(spec.boundary_point(fine) - z).T)
    g = dist - radius
    roundoff = 64.0 * np.finfo(float).eps * max(radius, float(np.max(dist)))
    off = np.nonzero(np.abs(g) > roundoff)[0]
    after = np.roll(off, -1)
    crossing = np.sign(g[off]) != np.sign(g[after])
    lo, hi = off[crossing], after[crossing]
    if lo.size:
        a = fine[lo]
        b = a + ((hi - lo) % fine.size) * step
        ga = g[lo]
        for _ in range(80):
            m = 0.5 * (a + b)
            gm = np.hypot(*(spec.boundary_point(m) - z).T) - radius
            left = ga * gm <= 0
            b = np.where(left, m, b)
            a = np.where(left, a, m)
            ga = np.where(left, ga, gm)
        breaks.extend(((0.5 * (a + b)) % TWO_PI).tolist())
    theta, weights = _paneled_theta_rule(sorted(breaks), 512)
    # radial chord of the disk along each ray, clipped to [0, r(theta)]
    p = z[0] * np.cos(theta) + z[1] * np.sin(theta)
    disc = radius * radius - (z[0] ** 2 + z[1] ** 2 - p * p)
    q = np.sqrt(np.maximum(disc, 0.0))
    a = np.maximum(0.0, p - q)
    b = np.minimum(spec.radius(theta), p + q)
    terms = np.where((disc > 0.0) & (b > a), 0.5 * (b * b - a * a) * weights, 0.0)
    # a running sum in node order, not numpy's pairwise sum: the sweep's
    # log-log slopes are differences of nearly equal areas
    return float(np.cumsum(terms)[-1])


def symmetric_difference_ratio(spec: DomainSpec, z, radius: float) -> float:
    """|Omega symmetric-difference B_radius(z)| / |B_radius(z)|."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    ball = math.pi * radius * radius
    inter = intersection_area_with_disk(spec, z, radius)
    sym = spec.outer_area + ball - 2.0 * inter
    return max(0.0, sym) / ball


# ---------------------------------------------------------------------------
# Tubular sets along the outer boundary
# ---------------------------------------------------------------------------


def tubular_sets(
    spec: DomainSpec,
    sigma: float,
    r_i: float,
    n_theta: int = 256,
    n_s: int = 24,
) -> tuple[AreaQuadrature, BoundaryQuadrature]:
    """Nodes for the boundary layer {dist to outer curve < sigma} and its
    inner interface curve, both from the normal-offset parametrization
    x(theta) - s * normal(theta) with area element speed * (1 - s * curvature).

    Requires 0 < sigma <= r_i; the r_i cap keeps the offset map injective.
    """
    if not 0 < sigma <= r_i + 1e-12:
        raise InvalidDomainError(
            f"tube width sigma={sigma} must lie in (0, r_i={r_i}]"
        )
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    speed = spec.boundary_speed(theta)
    kappa = spec.boundary_curvature(theta)
    # sigma may equal the curvature radius exactly (the r_i cap): the offset
    # Jacobian then vanishes at isolated points, which is integrable; only a
    # genuinely negative Jacobian (folding) is rejected
    if np.any(1.0 - sigma * kappa < -1e-9):
        raise InvalidDomainError("tube width exceeds the curvature radius of the outer curve")
    x = spec.boundary_point(theta)
    nrm = spec.boundary_normal(theta)
    xs, ws = _gauss_legendre(n_s)
    s = 0.5 * sigma * (xs + 1.0)
    w_s = 0.5 * sigma * ws
    nodes = x[None, :, :] - s[:, None, None] * nrm[None, :, :]
    jac = np.maximum(speed[None, :] * (1.0 - s[:, None] * kappa[None, :]), 0.0)
    weights = jac * w_s[:, None] * (TWO_PI / n_theta)
    tube = AreaQuadrature(nodes=nodes.reshape(-1, 2), weights=weights.reshape(-1))
    inner = BoundaryQuadrature(
        component="gamma_offset",
        theta=theta,
        nodes=x - sigma * nrm,
        normals=-nrm,  # outward normal of the tube on its inner interface
        weights=speed * (1.0 - sigma * kappa) * (TWO_PI / n_theta),
        curvature=None,
    )
    return tube, inner


def random_interior_points(spec: DomainSpec, n: int, rng, margin: float = 0.0):
    """n points inside the region via polar rejection sampling (nonuniform density)."""
    out = np.empty((n, 2))
    got = 0
    while got < n:
        m = 2 * (n - got) + 16
        theta = rng.uniform(0.0, TWO_PI, m)
        s = np.sqrt(rng.uniform(0.0, 1.0, m))
        rho = s * spec.radius(theta) * (1.0 - 1e-9)
        pts = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)
        keep = spec.contains(pts)
        if margin > 0:
            d = np.zeros(pts.shape[0])
            d[keep] = distance_to_boundary(spec, pts[keep])
            keep &= d > margin
        pts = pts[keep][: n - got]
        out[got : got + pts.shape[0]] = pts
        got += pts.shape[0]
    return out
