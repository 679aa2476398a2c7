"""Stability functionals, pointwise lemmas, explicit constants, and the
theorem-level inequality reports.

Everything here evaluates measured quantities on a concrete instance (domain,
field, quadratures): the adjusted center z, the flux constant c, the
L^2 pseudo-distance of the outer curve from the sphere of radius N*c about z,
the measure asymmetry against that ball, the enclosing/inscribed radius gap,
growth and boundary-derivative lower bounds, oscillation and Hardy-Poincare
style inequalities with their explicit constants, and bracket bounds for c.
Universal constants the theory leaves unspecified are fitted across sweeps
(a single max ratio per inequality), never asserted a priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import (
    TWO_PI,
    BoundaryQuadrature,
    DomainSpec,
    Quadratures,
    diameter,
    distance_to_boundary,
    enclosing_inscribed_radii,
    interior_sphere_radius,
    symmetric_difference_ratio,
    tubular_sets,
)
from .solver import FieldModel, evaluate, evaluate_u, normal_derivative

N_DIM = 2
UNIT_BALL_AREA = math.pi  # |B_1| in the plane
# stability_report regimes; "tubular" takes the center from the boundary layer
REGIMES = ("sphere-condition", "john-relaxed", "tubular")


# ---------------------------------------------------------------------------
# Centers
# ---------------------------------------------------------------------------


def adjusted_center(spec: DomainSpec, model: FieldModel, quads: Quadratures):
    """The hole-flux-adjusted center: (integral x dx - N * integral_hole u nu dS)
    normalized by the region area; tends to the barycenter as holes shrink."""
    first_moment = np.sum(quads.area.nodes * quads.area.weights[:, None], axis=0)
    hole_term = np.zeros(2)
    for bq in quads.bounds.holes:
        u = evaluate_u(model, bq.nodes)
        hole_term += N_DIM * np.sum((u * bq.weights)[:, None] * bq.normals, axis=0)
    z = (first_moment - hole_term) / spec.region_area
    inside = bool(spec._inside_outer(z[None, :])[0])
    return z, inside


def adjusted_center_tubular(spec: DomainSpec, model: FieldModel, r_i: float,
                            n_theta: int = 256, n_s: int = 24):
    """Same center formula computed on the boundary layer of width r_i, with
    the boundary term on the inner interface curve (its outward normal points
    away from the outer curve)."""
    tube, inner = tubular_sets(spec, r_i, r_i, n_theta=n_theta, n_s=n_s)
    first_moment = np.sum(tube.nodes * tube.weights[:, None], axis=0)
    u = evaluate_u(model, inner.nodes)
    inner_term = N_DIM * np.sum((u * inner.weights)[:, None] * inner.normals, axis=0)
    z = (first_moment - inner_term) / tube.total
    inside = bool(spec._inside_outer(z[None, :])[0])
    return z, inside


def pseudo_distance(gamma_quad: BoundaryQuadrature, z, c: float) -> float:
    """integral over the outer curve of (|x - z|/N - c)^2 dS: an L^2 distance
    of the curve from the sphere of radius N*c centered at z."""
    z = np.asarray(z, dtype=float)
    dist = np.hypot(gamma_quad.nodes[:, 0] - z[0], gamma_quad.nodes[:, 1] - z[1])
    return float(np.sum((dist / N_DIM - c) ** 2 * gamma_quad.weights))


# ---------------------------------------------------------------------------
# Pointwise lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseCheckReport:
    name: str
    n_samples: int
    min_slack: float
    violations: int
    witness: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_growth(model: FieldModel, spec: DomainSpec, pts, r_i: float) -> PointwiseCheckReport:
    """-u >= delta^2/(2N) and -u >= (r_i/2N) * delta at the sample points, up
    to a slack of 1e-9."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    u = evaluate_u(model, pts)
    delta = distance_to_boundary(spec, pts)
    slack_sq = -u - delta * delta / (2.0 * N_DIM)
    slack_lin = -u - (r_i / (2.0 * N_DIM)) * delta
    slack = np.minimum(slack_sq, slack_lin)
    bad = slack < -1e-9
    witness = None
    if np.any(bad):
        i = int(np.argmin(slack))
        witness = (tuple(pts[i]), float(slack[i]))
    return PointwiseCheckReport(
        name="growth",
        n_samples=pts.shape[0],
        min_slack=float(np.min(slack)),
        violations=int(np.sum(bad)),
        witness=witness,
    )


def check_hopf(model: FieldModel, gamma_quad: BoundaryQuadrature, r_i: float) -> PointwiseCheckReport:
    """u_nu >= r_i / N on the outer curve, up to a slack of 1e-9."""
    u_nu = normal_derivative(model, gamma_quad.nodes, gamma_quad.normals)
    slack = u_nu - r_i / N_DIM
    bad = slack < -1e-9
    witness = None
    if np.any(bad):
        i = int(np.argmin(slack))
        witness = (tuple(gamma_quad.nodes[i]), float(slack[i]))
    return PointwiseCheckReport(
        name="hopf",
        n_samples=gamma_quad.n_nodes,
        min_slack=float(np.min(slack)),
        violations=int(np.sum(bad)),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Explicit-constant oscillation bound for harmonic fields
# ---------------------------------------------------------------------------


def oscillation_constants(n_dim: int, p: float) -> tuple[float, float]:
    """(a_{N,p}, alpha_{N,p}): the explicit constants of the oscillation bound.

    a_{N,p} = 2(N+p) / (N^{N/(N+p)} p^{p/(N+p)} |B_1|^{1/(N+p)}),
    alpha_{N,p} = (p/N) |B_1|^{1/p}, with |B_1| the unit-ball volume.
    """
    nb = UNIT_BALL_AREA if n_dim == 2 else _unit_ball_volume(n_dim)
    a = 2.0 * (n_dim + p) / (
        n_dim ** (n_dim / (n_dim + p)) * p ** (p / (n_dim + p)) * nb ** (1.0 / (n_dim + p))
    )
    alpha = (p / n_dim) * nb ** (1.0 / p)
    return a, alpha


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class OscillationReport:
    applicable: bool
    lhs: float
    rhs: float
    smallness_lhs: float
    smallness_rhs: float
    gradient_bound: float
    p: float
    a_const: float
    alpha_const: float
    variant: str = "mean"

    @property
    def holds(self) -> bool:
        return (not self.applicable) or self.lhs <= self.rhs + 1e-12

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _disk_quadrature(center, radius):
    """24 Gauss radii by 64 equispaced angles on the disk."""
    n_t = 64
    xs, ws = np.polynomial.legendre.leggauss(24)
    rho = 0.5 * radius * (xs + 1.0)
    wr = 0.5 * radius * ws * rho
    th = np.linspace(0.0, TWO_PI, n_t, endpoint=False)
    nodes = np.asarray(center) + np.stack(
        [np.outer(rho, np.cos(th)).ravel(), np.outer(rho, np.sin(th)).ravel()], axis=-1
    )
    weights = np.outer(wr, np.full(n_t, TWO_PI / n_t)).ravel()
    return nodes, weights


def check_oscillation_bound(
    v_model,
    spec: DomainSpec,
    quads: Quadratures,
    r_i: float,
    p: float = 2.0,
    variant: str = "mean",
) -> OscillationReport:
    """Oscillation of a harmonic field on the outer curve against its L^p bulk
    deviation, with the explicit constants; applies only under the smallness
    condition.

    variant="mean" measures the deviation from the mean over the whole region;
    variant="refined" measures ||v - mean||_p over the interior ball of
    radius r_i tangent under the boundary point farthest from the regional
    mean.  The gradient bound G is the sampled maximum of |grad v| over the
    boundary layer, inflated by 5% so it is a genuine upper bound rather than
    a discrete undershoot.
    """
    u_gamma, _ = _eval(v_model, quads.bounds.gamma.nodes, "u")
    lhs = float(np.max(u_gamma) - np.min(u_gamma))
    tube, inner = tubular_sets(spec, r_i, r_i)
    grad_pts = np.vstack([tube.nodes, quads.bounds.gamma.nodes, inner.nodes])
    _, gv = _eval(v_model, grad_pts, "g")
    G = 1.05 * float(np.max(np.hypot(gv[:, 0], gv[:, 1])))
    a_const, alpha_const = oscillation_constants(N_DIM, p)
    v_area, _ = _eval(v_model, quads.area.nodes, "u")
    v_mean = float(np.sum(v_area * quads.area.weights) / quads.area.total)

    if variant == "mean":
        norm = float(
            np.sum(np.abs(v_area - v_mean) ** p * quads.area.weights) ** (1.0 / p)
        )
        r_eff = r_i
    elif variant == "refined":
        i_ext = int(np.argmax(np.abs(u_gamma - v_mean)))
        x_bar = quads.bounds.gamma.nodes[i_ext]
        nu_bar = quads.bounds.gamma.normals[i_ext]
        x0 = x_bar - r_i * nu_bar
        nodes, weights = _disk_quadrature(x0, r_i)
        vals, _ = _eval(v_model, nodes, "u")
        norm = float(np.sum(np.abs(vals - v_mean) ** p * weights) ** (1.0 / p))
        r_eff = r_i
    else:
        raise ValueError(f"unknown oscillation variant {variant!r}")

    smallness_rhs = alpha_const * r_eff ** ((N_DIM + p) / p) * G
    applicable = norm <= smallness_rhs + 1e-12  # roundoff slack for G = 0
    rhs = a_const * G ** (N_DIM / (N_DIM + p)) * norm ** (p / (N_DIM + p))
    return OscillationReport(
        applicable=applicable,
        lhs=lhs,
        rhs=rhs,
        smallness_lhs=norm,
        smallness_rhs=smallness_rhs,
        gradient_bound=G,
        p=p,
        a_const=a_const,
        alpha_const=alpha_const,
        variant=variant,
    )


def _eval(v_model, pts, want):
    """(u, grad) of a HarmonicField, or of any object with .u and .grad
    methods; parts not in want ("u", "g" or "ug") are None."""
    if isinstance(v_model, HarmonicField):
        return v_model.fields(pts, want)
    u = v_model.u(pts) if "u" in want else None
    grad = v_model.grad(pts) if "g" in want else None
    return u, grad


@dataclass(frozen=True)
class HarmonicField:
    """Pure harmonic expansion over exterior/hole log sources (no quadratic),
    used as the random sample class for the empirical inequality experiments."""

    sources: np.ndarray
    coeffs: np.ndarray

    def fields(self, pts, want):
        """(u, grad) at pts from one kernel pass; parts not in want are None."""
        u, grad, _ = _kernels.log_source_fields(
            np.atleast_2d(pts), self.sources, self.coeffs, want
        )
        return u, grad

    def u(self, pts):
        return self.fields(pts, "u")[0]

    def grad(self, pts):
        return self.fields(pts, "g")[1]


def random_harmonic_fields(spec: DomainSpec, n_fields: int, rng):
    """Random fields harmonic on the region: 12 log sources outside the outer
    curve and 4 inside one hole, with standard-normal coefficients (halved
    inside the hole)."""
    n_src = 12
    fields = []
    for _ in range(n_fields):
        th = rng.uniform(0.0, TWO_PI, n_src)
        factor = rng.uniform(1.3, 3.0, n_src)
        pts = spec.boundary_point(th) * factor[:, None]
        coeffs = rng.standard_normal(n_src)
        if spec.holes:
            hole = spec.holes[int(rng.integers(len(spec.holes)))]
            m = max(2, n_src // 3)
            phi = rng.uniform(0.0, TWO_PI, m)
            rr = rng.uniform(0.1, 0.6, m) * hole.radius
            hp = np.asarray(hole.center) + rr[:, None] * np.stack(
                [np.cos(phi), np.sin(phi)], axis=-1
            )
            pts = np.vstack([pts, hp])
            coeffs = np.concatenate([coeffs, 0.5 * rng.standard_normal(m)])
        fields.append(HarmonicField(sources=pts, coeffs=coeffs))
    return fields


# ---------------------------------------------------------------------------
# Hardy-Poincare-type empirical ratios
# ---------------------------------------------------------------------------


class ExponentTripleError(ValueError):
    pass


def validate_poincare_triple(r: float, p: float, alpha: float) -> str:
    """Returns which admissibility case the exponent triple satisfies:
    'weighted' for 1 <= p <= r <= Np/(N - p(1-alpha)), p(1-alpha) < N,
    0 <= alpha <= 1; or 'unweighted' for r = p >= 1, alpha = 0."""
    if r == p and alpha == 0.0 and p >= 1.0:
        return "unweighted"
    if not 0.0 <= alpha <= 1.0:
        raise ExponentTripleError(f"need 0 <= alpha <= 1, got alpha={alpha}")
    if not p * (1.0 - alpha) < N_DIM:
        raise ExponentTripleError(
            f"need p(1-alpha) < N: p(1-alpha)={p * (1.0 - alpha)} >= N={N_DIM}"
        )
    if not 1.0 <= p <= r:
        raise ExponentTripleError(f"need 1 <= p <= r, got p={p}, r={r}")
    r_max = N_DIM * p / (N_DIM - p * (1.0 - alpha))
    if not r <= r_max + 1e-12:
        raise ExponentTripleError(
            f"need r <= Np/(N - p(1-alpha)) = {r_max:.6g}, got r={r}"
        )
    return "weighted"


def poincare_normalized_bound(
    case: str, r: float, p: float, alpha: float, d_omega: float, r_i: float,
    region_area: float,
) -> float:
    """The closed-form bound on the inverse Poincare constant with the unknown
    universal prefactor set to 1 ('normalized')."""
    if case == "weighted":
        return (d_omega / r_i) ** N_DIM * region_area ** (
            (1.0 - alpha) / N_DIM + 1.0 / r + 1.0 / p
        )
    ex = 3.0 * N_DIM * (1.0 + N_DIM / p)
    return d_omega ** (ex + 1.0) / r_i**ex


@dataclass(frozen=True)
class PoincareReport:
    case: str
    r: float
    p: float
    alpha: float
    n_fields: int
    max_ratio: float
    normalized_bound: float
    ratios: tuple = ()


def poincare_ratio_experiment(
    spec: DomainSpec,
    quads: Quadratures,
    triples,
    fields=None,
    n_fields: int = 50,
    seed: int = 0,
    r_i: float | None = None,
    d_omega: float | None = None,
) -> list[PoincareReport]:
    """Empirical ||v - mean||_r / ||delta^alpha grad v||_p over random harmonic
    fields, one report per (r, p, alpha) triple, against the normalized
    closed-form bound (prefactor unknown in the theory, set to 1 and flagged
    as such).

    Every triple is validated before any work; each field is evaluated once
    (u and grad together) and its arrays serve all triples.
    """
    triples = [tuple(t) for t in triples]
    cases = [validate_poincare_triple(r, p, alpha) for r, p, alpha in triples]
    if fields is None:
        fields = random_harmonic_fields(spec, n_fields, np.random.default_rng(seed))
    if not fields:
        raise ValueError("the Poincare experiment needs at least one field")
    w = quads.area.weights
    weighted = any(alpha for _, _, alpha in triples)
    delta = distance_to_boundary(spec, quads.area.nodes) if weighted else None
    gims = [(delta**alpha) if alpha else np.ones_like(w) for _, _, alpha in triples]
    ratios = [[] for _ in triples]
    for f in fields:
        v, g = _eval(f, quads.area.nodes, "ug")
        v_mean = float(np.sum(v * w) / quads.area.total)
        for (r, p, _), gim, out in zip(triples, gims, ratios):
            num = float(np.sum(np.abs(v - v_mean) ** r * w) ** (1.0 / r))
            den = float(
                (
                    np.sum(np.abs(gim * g[:, 0]) ** p * w)
                    + np.sum(np.abs(gim * g[:, 1]) ** p * w)
                )
                ** (1.0 / p)
            )
            out.append(0.0 if den == 0.0 else num / den)
    d_omega = diameter(spec) if d_omega is None else d_omega
    r_i = interior_sphere_radius(spec, d_omega=d_omega) if r_i is None else r_i
    return [
        PoincareReport(
            case=case,
            r=r,
            p=p,
            alpha=alpha,
            n_fields=len(fields),
            max_ratio=float(np.max(rs)),
            normalized_bound=poincare_normalized_bound(
                case, r, p, alpha, d_omega, r_i, spec.region_area
            ),
            ratios=tuple(rs),
        )
        for (r, p, alpha), case, rs in zip(triples, cases, ratios)
    ]


# ---------------------------------------------------------------------------
# Exponents and bound tables
# ---------------------------------------------------------------------------


def radii_gap_exponent(n_dim: int, regime: str, theta: float = 0.01) -> float:
    """The stability exponent for the enclosing/inscribed radius gap.

    regime 'sphere-condition': 1 for N=2, 1-theta for N=3, 2/(N-1) for N>=4.
    regime 'john-relaxed':     1-theta for N=2, 2/N for N>=3.
    """
    if n_dim < 2:
        raise ValueError("dimension must be >= 2")
    if regime == "sphere-condition":
        if n_dim == 2:
            return 1.0
        if n_dim == 3:
            _check_theta(theta)
            return 1.0 - theta
        return 2.0 / (n_dim - 1.0)
    if regime == "john-relaxed":
        if n_dim == 2:
            _check_theta(theta)
            return 1.0 - theta
        return 2.0 / n_dim
    raise ValueError(f"unknown regime {regime!r}")


def _check_theta(theta):
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")


@dataclass(frozen=True)
class BoundTable:
    """Every closed-form constant/bound evaluated on an instance."""

    entries: dict
    c_measured: float
    c_in_bracket: bool | None
    side_condition_small_perimeter: bool

    def __getitem__(self, key):
        return self.entries[key]


def bound_table(
    spec: DomainSpec,
    c_measured: float,
    K: float,
    r_i: float,
    d_omega: float,
) -> BoundTable:
    """Closed-form constants and the bracket for the flux constant c:
    lower bound r_i/N always; upper bound d/(2N) + K/(N |B_1| r_i^{N-1})
    under the side condition that the hole perimeter is below 1."""
    entries = {}
    for p in (1.0, 2.0, 4.0):
        a, al = oscillation_constants(N_DIM, p)
        entries[f"oscillation_a_{p:g}"] = a
        entries[f"oscillation_alpha_{p:g}"] = al
    entries["poincare_weighted_2_2_half"] = poincare_normalized_bound(
        "weighted", 2.0, 2.0, 0.5, d_omega, r_i, spec.region_area
    )
    entries["poincare_unweighted_2"] = poincare_normalized_bound(
        "unweighted", 2.0, 2.0, 0.0, d_omega, r_i, spec.region_area
    )
    entries["c_lower"] = r_i / N_DIM
    entries["c_upper_small_hole"] = d_omega / (2.0 * N_DIM) + K / (
        N_DIM * UNIT_BALL_AREA * r_i ** (N_DIM - 1)
    )
    entries["c_upper_small_eta"] = d_omega / (4.0 * N_DIM)
    entries["john_constant_bound"] = d_omega / r_i
    entries["hopf_threshold"] = r_i / N_DIM
    small = spec.holes_perimeter < 1.0
    in_bracket = None
    if small:
        in_bracket = bool(
            entries["c_lower"] - 1e-9 <= c_measured <= entries["c_upper_small_hole"] + 1e-9
        )
    return BoundTable(
        entries=entries,
        c_measured=c_measured,
        c_in_bracket=in_bracket,
        side_condition_small_perimeter=small,
    )


# ---------------------------------------------------------------------------
# Asymmetry vs pseudo-distance with an explicit constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymmetryComparisonReport:
    applicable: bool
    asymmetry: float
    pseudo_distance_sqrt: float
    constant: float
    K_construction: float
    star_shaped_about_z: bool

    @property
    def holds(self) -> bool:
        return (not self.applicable) or self.asymmetry <= self.constant * self.pseudo_distance_sqrt + 1e-12


def asymmetry_vs_pseudo_distance(
    spec: DomainSpec,
    z,
    c: float,
    d2: float,
    asym: float,
    r_i: float,
    d_omega: float,
    rho_e: float,
    rho_i: float,
) -> AsymmetryComparisonReport:
    """Checks asymmetry <= C * sqrt(pseudo-distance) with an explicit constant.

    The comparison lemma's applicability conditions are checked through the
    K = max{Nc/r_i, (d/2Nc)^N} construction (K|B_Nc| >= |Omega| and
    K * inradius >= Nc).  The cited lemma's own constant is not reproduced in
    the source theory, so the numeric constant asserted here is derived for
    planar domains star-shaped about z:
        |Omega sym-diff B| <= (rho_e + Nc)/2 * sqrt(2 pi) * ||dist - Nc||_2,
        ||dist - Nc||_(L2 dphi) <= N/sqrt(rho_i) * sqrt(D2),
    giving C = sqrt(2 pi) N (rho_e + Nc) / (2 pi (Nc)^2 sqrt(rho_i)).
    """
    z = np.asarray(z, dtype=float)
    R = N_DIM * c
    K_c = max(N_DIM * c / r_i, (d_omega / (2.0 * N_DIM * c)) ** N_DIM)
    cond_volume = K_c * UNIT_BALL_AREA * R**2 >= spec.outer_area - 1e-12
    cond_inradius = K_c * r_i >= R - 1e-12
    theta = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    rel = spec.boundary_point(theta) - z
    ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    star = bool(np.all(np.diff(ang) > 0) or np.all(np.diff(ang) < 0))
    const = math.sqrt(TWO_PI) * N_DIM * (rho_e + R) / (TWO_PI * R**2 * math.sqrt(rho_i))
    return AsymmetryComparisonReport(
        applicable=bool(cond_volume and cond_inradius and star),
        asymmetry=asym,
        pseudo_distance_sqrt=math.sqrt(max(d2, 0.0)),
        constant=const,
        K_construction=K_c,
        star_shaped_about_z=star,
    )


# ---------------------------------------------------------------------------
# Theorem-level reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    label: str
    regime: str
    z: tuple
    z_formula: str
    c: float
    rho_e: float
    rho_i: float
    pseudo_distance: float
    asymmetry: float
    r_i: float
    d_omega: float
    grad_max_tube: float
    hole_c2_norm: float
    holes_perimeter: float
    holes_diameter_sup: float
    eta: float
    psi_eta: float
    tau_exponent: float
    hypotheses: dict
    ratios: dict
    comparison: AsymmetryComparisonReport | None = None
    notes: tuple = ()

    @property
    def hypotheses_pass(self) -> bool:
        return all(self.hypotheses.values())


def hole_c2_norm(model: FieldModel, quads: Quadratures) -> float:
    """max over hole-boundary nodes of |u| + |grad u| + |hess u|_F: the measured
    stand-in for the C^2 norm on hole boundaries."""
    out = 0.0
    for bq in quads.bounds.holes:
        u, grad, hess = evaluate(model, bq.nodes, "ugh")
        val = (
            np.abs(u)
            + np.hypot(grad[:, 0], grad[:, 1])
            + np.sqrt(np.sum(hess * hess, axis=(1, 2)))
        )
        out = max(out, float(np.max(val)))
    return out


def gradient_max_on_tube(model: FieldModel, spec: DomainSpec, r_i: float) -> float:
    tube, inner = tubular_sets(spec, r_i, r_i)
    pts = np.vstack([tube.nodes, inner.nodes, spec.boundary_point(np.linspace(0, TWO_PI, 512, endpoint=False))])
    _, grad, _ = evaluate(model, pts, "g")
    return float(np.max(np.hypot(grad[:, 0], grad[:, 1])))


def psi_c2(K: float, eta: float) -> float:
    """The C^2-norm instantiation of the smallness modulus: max{K, K^3} * eta."""
    return max(K, K**3) * eta


def stability_report(
    spec: DomainSpec,
    model: FieldModel,
    quads: Quadratures,
    label: str = "",
    regime: str = "sphere-condition",
    theta: float = 0.01,
    tol_overdet: float = 1e-6,
    waive_overdetermination: bool = False,
    z_override=None,
) -> StabilityReport:
    """All stability functionals and hypothesis checks on one instance.

    Hypothesis failures never raise: they are enumerated in the report and
    flagged so sweep-level constant fitting can exclude the instance.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    notes = []
    d_omega = diameter(spec)
    r_i = interior_sphere_radius(spec, d_omega=d_omega)
    bq = quads.bounds.gamma
    u_nu = normal_derivative(model, bq.nodes, bq.normals)
    gamma_len = float(np.sum(bq.weights))
    c = float(np.sum(u_nu * bq.weights) / gamma_len)
    overdet_dev = float(np.max(np.abs(u_nu - c)))

    u_holes_max = 0.0
    for bq_h in quads.bounds.holes:
        u_h = evaluate_u(model, bq_h.nodes)
        u_holes_max = max(u_holes_max, float(np.max(u_h)))

    if regime == "tubular":
        z, z_inside = adjusted_center_tubular(spec, model, r_i)
        z_formula = "boundary-layer"
    else:
        z, z_inside = adjusted_center(spec, model, quads)
        z_formula = "flux-adjusted-barycenter"
    if z_override is not None:
        z = np.asarray(z_override, dtype=float)
        z_inside = bool(spec._inside_outer(z[None, :])[0])
        z_formula = "override"

    hypotheses = {
        "u_nonpositive_on_holes": u_holes_max <= 1e-9,
        "overdetermined": waive_overdetermination or overdet_dev <= tol_overdet,
        "z_inside_domain": z_inside,
    }
    if waive_overdetermination:
        notes.append(f"overdetermination waived (measured deviation {overdet_dev:.3e})")

    if z_inside:
        rho_e, rho_i = enclosing_inscribed_radii(spec, z)
        d2 = pseudo_distance(bq, z, c)
        asym = symmetric_difference_ratio(spec, z, N_DIM * c)
    else:
        rho_e = rho_i = d2 = asym = math.nan
        notes.append("z outside domain: radius/pseudo-distance/asymmetry undefined")

    K = hole_c2_norm(model, quads)
    M = gradient_max_on_tube(model, spec, r_i)
    perim = spec.holes_perimeter  # the smallness driver eta
    dbar = max((2.0 * h.radius for h in spec.holes), default=0.0)
    psi = psi_c2(K, perim)
    tau = radii_gap_exponent(N_DIM, "john-relaxed" if regime == "john-relaxed" else "sphere-condition", theta)

    ratios = {}
    if z_inside and perim > 0:
        ratios["pseudo_distance_over_perimeter"] = d2 / perim
        ratios["asymmetry_over_sqrt_perimeter"] = asym / math.sqrt(perim)
        ratios["radius_gap_over_perimeter_pow"] = (rho_e - rho_i) / perim ** (tau / 2.0)
        if psi > 0:
            ratios["pseudo_distance_over_psi"] = d2 / psi
            ratios["asymmetry_over_sqrt_psi"] = asym / math.sqrt(psi)
            ratios["radius_gap_over_psi_pow"] = (rho_e - rho_i) / psi ** (tau / 2.0)

    comparison = None
    if z_inside:
        comparison = asymmetry_vs_pseudo_distance(
            spec, z, c, d2, asym, r_i, d_omega, rho_e, rho_i
        )

    return StabilityReport(
        label=label,
        regime=regime,
        z=(float(z[0]), float(z[1])),
        z_formula=z_formula,
        c=c,
        rho_e=rho_e,
        rho_i=rho_i,
        pseudo_distance=d2,
        asymmetry=asym,
        r_i=r_i,
        d_omega=d_omega,
        grad_max_tube=M,
        hole_c2_norm=K,
        holes_perimeter=perim,
        holes_diameter_sup=dbar,
        eta=perim,
        psi_eta=psi,
        tau_exponent=tau,
        hypotheses=hypotheses,
        ratios=ratios,
        comparison=comparison,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple
    fitted_constants: dict
    excluded: tuple

    @property
    def all_hypotheses_pass(self) -> bool:
        return not self.excluded


def fit_constants(reports) -> tuple[dict, tuple]:
    """Single fitted constant per inequality: the max ratio over instances
    whose hypotheses all pass; failing instances are excluded and listed."""
    fitted = {}
    excluded = []
    for rep in reports:
        if not rep.hypotheses_pass:
            excluded.append(rep.label)
            continue
        for key, val in rep.ratios.items():
            if math.isfinite(val):
                fitted[key] = max(fitted.get(key, 0.0), val)
    return fitted, tuple(excluded)


def theorem_suite(instances) -> SuiteResult:
    """Run the stability report over (label, spec, model, quads) instances and
    fit the per-inequality constants across the sweep."""
    reports = []
    for label, spec, model, quads in instances:
        reports.append(stability_report(spec, model, quads, label=label))
    fitted, excluded = fit_constants(reports)
    return SuiteResult(reports=tuple(reports), fitted_constants=fitted, excluded=excluded)
