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
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import BLOCK_PAIRS

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
        """rho < r(theta) for the polar coordinates of each point.  Only
        points within the band m of the radius r_j at the seed nearest theta
        (``_band``) evaluate the series; the rest are decided by r_j -+ m,
        which bound the computed r(theta).  On a circle the series is a
        constant, cheaper than the band, and every point compares with it."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        if not self.fourier_modes:
            return rho < self.radius(theta)
        seed_r, band = self._band
        n = seed_r.size
        r = seed_r[np.rint(theta * (n / TWO_PI)).astype(np.intp) % n]
        inside = rho < r - band
        near = ~inside & (rho < r + band)
        inside[near] = rho[near] < self.radius(theta[near])
        return inside

    @cached_property
    def _band(self):
        """(r_j, m): the outer radius at the 720 seed angles of ``_seeds``,
        and the half-width m of ``_inside_outer``'s band about it.  With L =
        R sum k |eps_k| a bound on |r'|, |r(theta) - r(theta_j)| <= L pi /
        720 within half a seed step of theta_j, and 64 eps (n + 1)(1 + sum k
        |eps_k|) R, for n modes, exceeds the rounding of both series (each
        cos(k theta) within 2 pi k + 4 ulps, each of the n + 1 sums and
        products within an ulp of R (1 + sum |eps_k|)), of the angle's
        distance to its seed, and of r_j -+ m.  Kept apart from ``_seeds``
        on purpose: the shape flow asks one-point membership questions of
        fresh domains, and building the whole seed table for each cost 13 ms
        a pass."""
        theta = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        bend = sum(k * abs(e) for k, e in self.fourier_modes)
        rounding = 64.0 * np.finfo(float).eps * (len(self.fourier_modes) + 1) * (1.0 + bend)
        return self.radius(theta), self.outer_radius * (bend * math.pi / theta.size + rounding)

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

    @cached_property
    def _seeds(self):
        """The seed table (``_SeedTable``) of the 720 equispaced seed angles.

        The frame centre c is the midpoint of the seed points' bounding box
        when the seeds are star-shaped about it (their polar angles about c
        increase from each seed to the next, seed 719 to seed 0 included, so
        the unwrapped angles span less than 2 pi) and their greatest-to-least
        radius ratio about it is below the one about the origin; otherwise c
        is the origin.  The free-boundary curves are near-circles about a
        centre off the origin.
        """
        theta = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        x, y = self.boundary_point(theta).T
        centre = (0.5 * float(np.min(x) + np.max(x)), 0.5 * float(np.min(y) + np.max(y)))
        frame = _polar_frame(x, y, 0.0, 0.0)
        moved = _polar_frame(x, y, *centre)
        gaps = np.diff(moved[0], append=moved[0][0] + TWO_PI)
        if np.all(gaps > 0.0) and moved[2] / moved[1] < frame[2] / frame[1]:
            frame = moved
        else:
            centre = (0.0, 0.0)
        angle, r_min, r_max = frame
        return _SeedTable(
            theta=theta,
            x=np.tile(x, 2),
            y=np.tile(y, 2),
            index=np.tile(np.arange(theta.size, dtype=np.int16), 2),
            centre=centre,
            angle=angle,
            r_min=r_min,
            r_max=r_max,
        )

    def _seed_windows(self, x, y):
        """(first, width): for each point the first seed index (mod 720) and
        the number of cyclically consecutive seeds that hold its nearest seed.

        Radii and angles are taken about the frame centre c (``_seeds``),
        about which the seed angles increase around one turn, so the seeds
        within an arc of angle about c are a cyclic run of indices.  The
        nearer of two seeds next to the point's angle, at squared distance
        D^2, bounds the nearest seed's distance by D.  A seed at angle phi +
        t and radius r in [r_min, r_max] lies within D of p (rho = |p - c|,
        angle phi about c) only if cos t >= (r^2 + rho^2 - D^2) / (2 r rho);
        the right side is least at r_c = clip(sqrt(rho^2 - D^2), r_min,
        r_max), and its arccos is the window's half-width w.  D^2 is
        widened by 16 eps (rho + r_max)^2, more than the rounding of the
        squared distances (relative to themselves, and at most (rho +
        r_max)^2), of the radii about c, and of the cosine's numerator, which
        cancels near c.  w is widened by 1e-7, more than the rounding of the
        quotient and its arccos (at most sqrt(6 eps), 2.6e-8, where w is near
        0 or pi) and of the angles (a few ulps of 4 pi), and the window holds
        the seeds whose angles about c are within w of phi.  So it holds every
        seed whose computed squared distance can reach the computed D^2.
        Where the bound gives nothing (w = pi, or p at c) the window is all
        720 seeds.
        """
        seeds = self._seeds
        n = seeds.theta.size
        dx, dy = x - seeds.centre[0], y - seeds.centre[1]
        rho = np.hypot(dx, dy)
        phi = np.arctan2(dy, dx)
        # the seed angles over turns -2 to 1 hold every query angle, in [-2 pi
        # - 1e-7, 2 pi + 1e-7]; built per call, as a table kept per domain
        # raised the sweeps' peak memory by its size for each live domain
        turns = np.concatenate([seeds.angle + k * TWO_PI for k in range(-2, 2)])
        # seed indices unwrapped by turns: the first seed at or above phi, and
        # near - 1 below it
        near = np.searchsorted(turns, phi) - 2 * n
        d2 = np.minimum(
            (x - seeds.x[near]) ** 2 + (y - seeds.y[near]) ** 2,
            (x - seeds.x[near - 1]) ** 2 + (y - seeds.y[near - 1]) ** 2,
        )
        d2 += 16.0 * np.finfo(float).eps * (rho + seeds.r_max) ** 2
        rc = np.clip(np.sqrt(np.maximum(rho * rho - d2, 0.0)), seeds.r_min, seeds.r_max)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cos_w = (rc * rc + rho * rho - d2) / (2.0 * rc * rho)
        half = np.arccos(np.where(cos_w > -1.0, np.minimum(cos_w, 1.0), -1.0)) + 1e-7
        first = np.searchsorted(turns, phi - half) - 2 * n
        end = np.searchsorted(turns, phi + half, side="right") - 2 * n
        return first % n, np.minimum(end - first, n)

    def _distance_to_outer(self, pts):
        """Distance from points to the outer curve: each point starts from its
        nearest seed (``_nearest_seed``) and is projected onto the curve by
        ``_project``."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        theta = self._seeds.theta[self._nearest_seed(pts)]
        return np.hypot(*(pts - self.boundary_point(self._project(pts, theta))).T)

    def _nearest_seed(self, pts):
        """Index of each point's nearest of the 720 seeds, the lowest index
        winning an exact tie: bitwise the argmin of a scan over every seed.

        Only the seeds in the point's window (``_seed_windows``) are
        compared, with the scan's squared-distance expression.  Windows go
        through widest first, in row blocks of about BLOCK_PAIRS point-seed
        pairs.
        """
        seeds = self._seeds
        sx, sy, index = seeds.x, seeds.y, seeds.index
        x, y = pts[:, 0], pts[:, 1]
        first, width = self._seed_windows(x, y)
        order = np.argsort(-width, kind="stable")  # a block reads its first row's width
        nearest = np.empty(pts.shape[0], dtype=np.intp)
        done = 0
        while done < order.size:
            k = int(width[order[done]])
            rows = order[done : done + max(1, BLOCK_PAIRS // k)]
            done += rows.size
            start = first[rows]
            d2 = (x[rows, None] - sliding_window_view(sx, k)[start]) ** 2 + (
                y[rows, None] - sliding_window_view(sy, k)[start]
            ) ** 2
            # the lowest index among the minima, not the first in the window:
            # a window across seed 0 lists 719 before 0
            tied = d2 == np.min(d2, axis=1, keepdims=True)
            ids = np.where(tied, sliding_window_view(index, k)[start], seeds.theta.size)
            nearest[rows] = np.min(ids, axis=1)
        return nearest

    def _project(self, pts, theta):
        """Foot-point angles on the outer curve: Newton steps on the
        stationarity of |x(theta) - p|^2 from the starting angles theta (a
        nearest or farthest sample), each clipped to 0.5; every point stops on
        its own |step| < 16 eps max(1, |theta|), a few ulps of its angle, after
        at most 40 steps, and at once where the Newton denominator |h| < 1e-14
        (p at a centre of curvature, where every angle is a foot point)."""
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
            moving = np.abs(h) >= 1e-14
            step = np.zeros_like(g)
            step[moving] = np.clip(g[moving] / h[moving], -0.5, 0.5)
            theta[active] = th - step
            ulps = 16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(th))
            active = active[np.abs(step) >= ulps]
            if active.size == 0:
                break
        return theta


class _SeedTable(NamedTuple):
    """What the outer-curve queries read at the 720 seeds of a DomainSpec."""

    theta: np.ndarray  # the seed angles
    x: np.ndarray  # curve points, tiled twice so any cyclic run of seeds is one slice
    y: np.ndarray
    index: np.ndarray  # seed indices, tiled twice
    centre: tuple  # the frame centre c of _seed_windows
    angle: np.ndarray  # the seeds' unwrapped angles about c
    r_min: float  # least and greatest seed radius about c
    r_max: float


def _polar_frame(x, y, cx, cy):
    """Unwrapped polar angles of points about (cx, cy), and their least and
    greatest radius about it."""
    dx, dy = x - cx, y - cy
    rho = np.hypot(dx, dy)
    angle = np.arctan2(dy, dx)
    angle[1:] += TWO_PI * np.cumsum(angle[1:] < angle[:-1])  # counterclockwise wraps
    return angle, float(np.min(rho)), float(np.max(rho))


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

    bounds: BoundaryQuadratures
    area: AreaQuadrature


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
            )
        )
    return BoundaryQuadratures(gamma=gamma, holes=tuple(holes))


# ---------------------------------------------------------------------------
# Area quadrature: polar sections with exact hole-chord subtraction
# ---------------------------------------------------------------------------


def _grazing(center, radius):
    """The two angles where a ray from the origin grazes the disk (kinks of
    its radial sections), or none when the disk holds the origin."""
    d = math.hypot(*center)
    if d <= radius:
        return []
    phi = math.atan2(center[1], center[0])
    half = math.asin(min(1.0, radius / d))
    return [(phi - half) % TWO_PI, (phi + half) % TWO_PI]


def _chord(center, radius, cos, sin, r_out):
    """(lo, hi): the radial interval the disk cuts from each ray (cos, sin),
    clipped to [0, r_out]; lo = hi = r_out where the ray misses the disk."""
    p = center[0] * cos + center[1] * sin
    disc = radius**2 - (center[0] ** 2 + center[1] ** 2 - p * p)
    q = np.sqrt(np.maximum(disc, 0.0))
    lo = np.maximum(0.0, p - q)
    hi = np.minimum(r_out, p + q)
    cut = (disc > 0.0) & (hi > lo)
    return np.where(cut, lo, r_out), np.where(cut, hi, r_out)


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
    breaks = sorted(t for hole in spec.holes for t in _grazing(hole.center, hole.radius))
    theta, theta_weights = _paneled_theta_rule(breaks, n_theta)
    ct, st, r_out = np.cos(theta), np.sin(theta), spec.radius(theta)
    lo = np.empty((len(spec.holes), theta.size))
    hi = np.empty_like(lo)
    for j, hole in enumerate(spec.holes):
        lo[j], hi[j] = _chord(hole.center, hole.radius, ct, st, r_out)
    # the holes are disjoint, so are their chords on one ray: sorted, they
    # leave the pieces (0, lo_1), (hi_1, lo_2), ..., (hi_H, r), ray by ray
    a = np.vstack([np.zeros_like(r_out), np.sort(hi, axis=0, kind="stable")]).T.ravel()
    b = np.vstack([np.sort(lo, axis=0, kind="stable"), r_out]).T.ravel()
    ray = np.repeat(np.arange(theta.size), len(spec.holes) + 1)
    keep = b - a >= 1e-14
    a, b, ray = a[keep], b[keep], ray[keep]
    orders = np.maximum(6, np.ceil(n_r * (b - a) / r_out[ray]).astype(int))
    start = np.cumsum(orders) - orders  # each piece's offset in node order
    nodes = np.empty((int(np.sum(orders)), 2))
    weights = np.empty(len(nodes))
    for m in set(orders.tolist()):  # the pieces of one Gauss order in one pass
        xs, ws = _gauss_legendre(m)
        at = orders == m
        pa, pb, on = a[at, None], b[at, None], ray[at, None]
        rho = 0.5 * (pa + pb) + 0.5 * (pb - pa) * xs
        idx = start[at, None] + np.arange(m)
        weights[idx] = ws * 0.5 * (pb - pa) * rho * theta_weights[on]  # rho drho dtheta
        nodes[idx, 0] = rho * ct[on]
        nodes[idx, 1] = rho * st[on]
    exact = spec.region_area
    residual = abs(float(np.sum(weights)) - exact) / exact
    if residual > 1e-6:
        raise QuadratureError("area quadrature missed the closed-form area", residual)
    return AreaQuadrature(nodes=nodes, weights=weights, area_residual=residual)


def build_quadratures(spec: DomainSpec, n_theta: int = 256, n_r: int = 48) -> Quadratures:
    return Quadratures(
        bounds=build_boundary_quadrature(spec, n_theta),
        area=build_area_quadrature(spec, n_r, n_theta),
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

    For boundary probes p, the nodes of ``build_boundary_quadrature(spec,
    512)`` (512 on the outer curve, 256 on each hole), binary-searches to
    within 1e-6 the largest r such that the ball of radius r tangent at p
    (center p - r * normal) stays inside the region, up to a slack of 1e-9
    in the distance test; on the outer curve the search is additionally
    capped by 1/max curvature.  Balls are only tested at the probes, so
    this is an estimate, not a proven lower bound.  ``d_omega`` is the
    diameter when the caller already has it (it caps the search on hole
    boundaries).

    Only the least ``lo`` is returned, so a probe stops being tested once
    its ``lo`` reaches the bound B = min ``hi`` over the probes still tested
    and those settled at their cap: its final ``lo`` cannot fall below B,
    and the least final ``lo`` cannot exceed B (B only falls, since the
    probe that sets it has ``lo < hi`` and stays tested).  A dropped probe
    takes ``hi = mid`` untested, so its interval halves each pass as a
    tested one's does, and the search stops after the passes of one that
    tests every probe, unless a width lands within rounding (about 1e-16)
    of the resolution.  The result is that search's float.  The opening
    test at the resolution and the test at the caps still cover every
    probe.
    """
    resolution = 1e-6
    rules = build_boundary_quadrature(spec, 512).all()
    probes = np.concatenate([bq.nodes for bq in rules])
    normals = np.concatenate([bq.normals for bq in rules])
    if spec.holes and d_omega is None:
        d_omega = diameter(spec)
    caps = np.concatenate(
        [np.full(rules[0].n_nodes, 1.0 / max(spec.max_curvature(), 1e-12))]
        + [np.full(bq.n_nodes, 2.0 * d_omega) for bq in rules[1:]]
    )

    def feasible(r, at):
        # min(d_outer, d_holes) >= t exactly when each is: the holes go
        # first, and a centre in a closed hole fails its test as t > 0
        centers = (probes - r[:, None] * normals).compress(at, axis=0)
        t = r[at] - 1e-9
        ok = spec._inside_outer(centers)
        for hole in spec.holes:
            dh = np.hypot(centers[:, 0] - hole.center[0], centers[:, 1] - hole.center[1])
            ok &= dh - hole.radius >= t
        if np.any(ok):
            ok[ok] = spec._distance_to_outer(centers[ok]) >= t[ok]
        return ok

    every = np.ones(probes.shape[0], dtype=bool)
    lo = np.full(probes.shape[0], resolution)
    if not np.all(feasible(lo, every)):
        raise InvalidDomainError("no uniform interior sphere at resolution")
    hi = caps.copy()
    top = feasible(hi, every)
    lo[top] = hi[top]
    tested = ~top
    while np.max(hi - lo) > resolution:
        tested &= lo < np.min(hi, where=tested | top, initial=np.inf)
        mid = 0.5 * (lo + hi)
        ok = np.zeros_like(top)
        ok[tested] = feasible(mid, tested)
        lo[ok] = mid[ok]
        hi[~ok] = mid[~ok]
    return float(np.min(lo))


def diameter(spec: DomainSpec) -> float:
    """sup |x - y| over the closed outer region; attained on the outer curve.

    The curve is sampled at n = 128, 256, ... points until the greatest
    sampled distance moves by less than 1e-9, or n reaches 8192.  Samples
    go in blocks of 64, and a pair of blocks is evaluated only if its
    bounding-box bound U on the squared distance reaches that of the
    farthest pair at the previous n, which the grid at 2n contains bit for
    bit.  U needs no rounding margin: it is computed from the boxes'
    extents by the same subtractions, squares and sum that give a pair's
    squared distance from its coordinates, and rounding is monotone, so no
    computed pair value exceeds its blocks' computed U.  So every pair that
    can hold the maximum is evaluated, and the result is the float of the
    max over all pairs.
    """
    prev = -1.0
    n = 128
    far = (0, 0)  # the farthest pair of indices on the current grid
    while True:
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        x, y = spec.boundary_point(theta).T
        d2 = (x[far[0]] - x[far[1]]) ** 2 + (y[far[0]] - y[far[1]]) ** 2
        bx, by = x.reshape(-1, 64), y.reshape(-1, 64)
        # how far the x of block I can exceed that of block J, and the same for y
        dx = bx.max(axis=1)[:, None] - bx.min(axis=1)[None, :]
        dy = by.max(axis=1)[:, None] - by.min(axis=1)[None, :]
        bound = np.maximum(dx, dx.T) ** 2 + np.maximum(dy, dy.T) ** 2
        # pair distances are symmetric bit for bit: the upper triangle suffices
        upper = np.arange(bound.shape[0])[:, None] <= np.arange(bound.shape[0])
        for i, j in zip(*np.nonzero(upper & (bound >= d2))):
            block = (bx[i, :, None] - bx[None, j]) ** 2 + (by[i, :, None] - by[None, j]) ** 2
            at = int(np.argmax(block))
            if block.flat[at] > d2:
                d2 = float(block.flat[at])
                far = (64 * i + at // 64, 64 * j + at % 64)
        d = math.sqrt(d2)
        if abs(d - prev) < 1e-9 or n >= 8192:
            return d
        prev = d
        n *= 2
        far = (2 * far[0], 2 * far[1])


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
    breaks = _grazing(z, radius)
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
    a, b = _chord(z, radius, np.cos(theta), np.sin(theta), spec.radius(theta))
    terms = 0.5 * (b * b - a * a) * weights  # 0 where a = b: rays that miss the disk
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
    )
    return tube, inner


def random_interior_points(spec: DomainSpec, n: int, rng):
    """n points inside the region via polar rejection sampling (nonuniform density)."""
    out = np.empty((n, 2))
    got = 0
    while got < n:
        m = 2 * (n - got) + 16
        theta = rng.uniform(0.0, TWO_PI, m)
        s = np.sqrt(rng.uniform(0.0, 1.0, m))
        rho = s * spec.radius(theta) * (1.0 - 1e-9)
        pts = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)
        pts = pts[spec.contains(pts)][: n - got]
        out[got : got + pts.shape[0]] = pts
        got += pts.shape[0]
    return out
