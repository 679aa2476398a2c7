"""C^2-evaluable solutions of Delta u = 1 with u = 0 on the outer boundary.

A field is represented as a fixed particular quadratic |x - x0|^2 / 4 plus
a harmonic expansion over logarithmic point sources placed outside the region
(outer ring) and inside each hole (inner rings), plus one free additive
constant.  The representation satisfies the PDE identically;
discretization error lives only on the boundaries, where the expansion is fit
by least squares.  Two fits are provided: a well-posed Dirichlet solve with
data g <= 0 on hole boundaries, and an ill-posed Cauchy fit matching both
u = 0 and u_nu = c on the outer curve (harmonic continuation inward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import (
    TWO_PI,
    DomainSpec,
    Hole,
    InvalidDomainError,
    _cosine_series,
    build_boundary_quadrature,
)


class SolverConvergenceError(RuntimeError):
    """Boundary residual above tolerance; carries the diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(f"{message}: max residual {diagnostics.max_residual:.3e}")
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class FieldModel:
    """u(x) = |x - anchor|^2 / 4 + sum_j coeffs_j G(x - sources_j) + constant.

    G is the planar Laplace fundamental solution (1/2pi) log |.|.
    """

    anchor: np.ndarray
    sources: np.ndarray
    coeffs: np.ndarray
    constant: float

    def to_dict(self) -> dict:
        return {
            "anchor": list(map(float, self.anchor)),
            "sources": [list(map(float, s)) for s in self.sources],
            "coefficients": list(map(float, self.coeffs)),
            "constant": float(self.constant),
        }

    @staticmethod
    def from_dict(d: dict) -> "FieldModel":
        return FieldModel(
            anchor=np.asarray(d["anchor"], dtype=float),
            sources=np.asarray(d["sources"], dtype=float).reshape(-1, 2),
            coeffs=np.asarray(d["coefficients"], dtype=float),
            constant=float(d["constant"]),
        )


@dataclass(frozen=True)
class SolveDiagnostics:
    residual_per_component: dict
    max_residual: float
    condition: float
    tikhonov: float
    truncated_modes: int
    n_collocation: int
    n_unknowns: int


def evaluate(model: FieldModel, pts, want="ugh"):
    """(u, grad, hess) at pts; hess has shape (n, 2, 2) and trace(hess) == 1.

    want names the parts to compute (a non-empty subset of "ugh"); the others
    come back as None.
    """
    single = np.asarray(pts, dtype=float).ndim == 1
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    u, grad, h3 = _kernels.log_source_fields(pts, model.sources, model.coeffs, want)
    diff = pts - model.anchor
    hess = None
    if u is not None:
        u = u + np.sum(diff * diff, axis=1) / 4.0 + model.constant
    if grad is not None:
        grad = grad + diff / 2.0
    if h3 is not None:
        hess = np.empty((pts.shape[0], 2, 2))
        hess[:, 0, 0] = h3[:, 0] + 0.5
        hess[:, 0, 1] = h3[:, 1]
        hess[:, 1, 0] = h3[:, 1]
        hess[:, 1, 1] = h3[:, 2] + 0.5
    if single:
        return (
            None if u is None else float(u[0]),
            None if grad is None else grad[0],
            None if hess is None else hess[0],
        )
    return u, grad, hess


def evaluate_u(model: FieldModel, pts):
    return evaluate(model, pts, "u")[0]


def normal_derivative(model: FieldModel, pts, normals):
    return np.sum(evaluate(model, np.atleast_2d(pts), "g")[1] * np.atleast_2d(normals), axis=1)


@dataclass(frozen=True)
class RadialTorsion:
    """Exact ball solution u = (|x|^2 - R^2) / (2N); the oracle field.

    Carries the closed forms u_nu = c = R/N on |x| = R for any integer N >= 2;
    as_field_model() realizes it in the planar representation when N == 2.
    """

    R: float
    N: int = 2

    def __post_init__(self):
        if self.R <= 0 or self.N < 2:
            raise ValueError("radial reference needs R > 0 and integer N >= 2")

    @property
    def c(self) -> float:
        return self.R / self.N

    def u(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (rho * rho - self.R * self.R) / (2.0 * self.N)

    def du(self, rho):
        rho = np.asarray(rho, dtype=float)
        return rho / self.N

    def hessian(self):
        return np.eye(2) / self.N

    def as_field_model(self) -> FieldModel:
        if self.N != 2:
            raise ValueError("planar field models exist only for N = 2")
        return FieldModel(
            anchor=np.zeros(2),
            sources=np.zeros((0, 2)),
            coeffs=np.zeros(0),
            constant=-self.R * self.R / 4.0,
        )


def radial_reference(R: float, N: int = 2) -> RadialTorsion:
    return RadialTorsion(R=R, N=N)


def radial_annulus_model(R: float, hole_radius: float, g: float) -> FieldModel:
    """Exact radial field on the annulus with u(R) = 0 and u(hole_radius) = g.

    u = |x|^2/4 + A log|x| + B; realized exactly by a single source at the
    origin with coefficient 2 pi A.
    """
    if not 0 < hole_radius < R:
        raise ValueError("need 0 < hole_radius < R")
    B = -R * R / 4.0
    A = (g - (hole_radius**2 - R**2) / 4.0) / math.log(hole_radius / R)
    return FieldModel(
        anchor=np.zeros(2),
        sources=np.zeros((1, 2)),
        coeffs=np.array([TWO_PI * A]),
        constant=B,
    )


# ---------------------------------------------------------------------------
# Collocation fits
# ---------------------------------------------------------------------------


def _source_rings(spec: DomainSpec, holes, n: int, offset_ratio: float):
    """n log sources on a ring outside the outer curve (offset_ratio times its
    radius), then n on a ring inside each hole (its radius / offset_ratio)."""
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    rings = [(spec.radius(theta) * offset_ratio)[:, None] * circle]
    for hole in holes:
        rings.append(np.asarray(hole.center) + (hole.radius / offset_ratio) * circle)
    return np.concatenate(rings)


# relative singular-value cutoff of every least-squares fit
RCOND = 1e-13


def _kernel_block(pts, sources):
    d2 = (pts[:, 0, None] - sources[None, :, 0]) ** 2 + (
        pts[:, 1, None] - sources[None, :, 1]
    ) ** 2
    return 0.5 * np.log(d2) / TWO_PI


def _kernel_normal_block(pts, normals, sources):
    dx = pts[:, 0, None] - sources[None, :, 0]
    dy = pts[:, 1, None] - sources[None, :, 1]
    d2 = dx * dx + dy * dy
    return (normals[:, 0, None] * dx + normals[:, 1, None] * dy) / d2 / TWO_PI


def _svd_solve(A, b, tikhonov, n_src):
    """Minimal-norm least squares through the SVD with optional Tikhonov
    damping of the source coefficients (constants are never penalized);
    singular values below RCOND times the largest are truncated."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 1.0
    lam = 1e-10 * smax * smax if tikhonov is None else float(tikhonov)
    if lam > 0:
        # damp only the directions acting on source coefficients: augment rows
        W = np.zeros((n_src, A.shape[1]))
        W[:, :n_src] = math.sqrt(lam) * np.eye(n_src)
        A = np.vstack([A, W])
        b = np.concatenate([b, np.zeros(n_src)])
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        smax = s[0] if s.size else 1.0
    keep = s > RCOND * smax
    truncated = int(np.sum(~keep))
    coef = Vt[keep].T @ ((U[:, keep].T @ b) / s[keep])
    cond = float(smax / s[keep][-1]) if np.any(keep) else math.inf
    return coef, cond, truncated, lam


def _boundary_residuals(model, spec, n_check, data_fn):
    """Max |u - data| per component on fresh nodes (4x denser than collocation)."""
    quads = build_boundary_quadrature(spec, n_check)
    out = {}
    for bq in quads.all():
        u = evaluate_u(model, bq.nodes)
        out[bq.component] = float(np.max(np.abs(u - data_fn(bq))))
    return out


def solve_dirichlet(
    spec: DomainSpec,
    n_src_per_ring: int = 96,
    offset_ratio: float = 1.8,
    residual_tol: float = 1e-6,
) -> tuple[FieldModel, SolveDiagnostics]:
    """Fit u = 0 on the outer curve and u = g on each hole boundary.

    Collocation at 2x oversampled boundary nodes; the model satisfies the PDE
    identically, so the reported residuals are pure boundary misfit.
    """
    if n_src_per_ring < 32:
        raise InvalidDomainError("n_src_per_ring must be >= 32")
    if not 1.1 <= offset_ratio <= 3.0:
        raise InvalidDomainError("offset_ratio must lie in [1.1, 3]")
    sources = _source_rings(spec, spec.holes, n_src_per_ring, offset_ratio)
    n_col = 2 * n_src_per_ring
    theta_col = np.linspace(0.0, TWO_PI, n_col, endpoint=False)
    components = [(spec.boundary_point(theta_col), 0.0)]
    for hole in spec.holes:
        components.append((hole.boundary_points(theta_col), hole.dirichlet_value))
    rows_A, rows_b = [], []
    n_src = sources.shape[0]
    n_rings = 1 + len(spec.holes)
    for nodes, target in components:
        A = np.empty((nodes.shape[0], n_src + n_rings))
        A[:, :n_src] = _kernel_block(nodes, sources)
        A[:, n_src:] = 1.0  # one additive constant per ring (shared null direction)
        q = np.sum(nodes**2, axis=1) / 4.0
        rows_A.append(A)
        rows_b.append(target - q)
    A = np.vstack(rows_A)
    b = np.concatenate(rows_b)
    coef, cond, truncated, lam = _svd_solve(A, b, tikhonov=0.0, n_src=n_src)
    # the per-ring constants only ever act through their sum
    model = FieldModel(np.zeros(2), sources, coef[:n_src], sum(map(float, coef[n_src:])))

    def data(bq):
        if bq.component == "gamma":
            return 0.0
        return spec.holes[int(bq.component.split("_")[1])].dirichlet_value

    residuals = _boundary_residuals(model, spec, 4 * max(64, n_col), data)
    diag = SolveDiagnostics(
        residual_per_component=residuals,
        max_residual=max(residuals.values()),
        condition=cond,
        tikhonov=lam,
        truncated_modes=truncated,
        n_collocation=A.shape[0],
        n_unknowns=A.shape[1],
    )
    if diag.max_residual > residual_tol:
        raise SolverConvergenceError("solver did not converge", diag)
    return model, diag


def solve_cauchy(
    spec: DomainSpec,
    c: float,
    tikhonov: float | None = None,
    n_src_per_ring: int = 128,
    residual_tol: float = 1e-6,
    future_holes: tuple[Hole, ...] = (),
) -> tuple[FieldModel, SolveDiagnostics]:
    """Joint fit of u = 0 and u_nu = c on the outer curve (no holes yet);
    the continued field is then valid in a neighborhood of the curve.  The
    source rings sit at offset 1.8.

    tikhonov=None selects the default weight 1e-10 * (largest singular value)^2;
    the misfit is inherently ill-posed, so failure to reach tolerance is
    reported, not hidden.  future_holes adds source rings inside regions that
    will be carved afterwards, letting the continued field carry singular
    content there; without them the best achievable joint residual on a
    non-circular curve is bounded below by that curve's rigidity deficit.
    """
    if spec.holes:
        raise InvalidDomainError("Cauchy continuation starts from a hole-free domain")
    if tikhonov is not None and tikhonov < 0:
        raise InvalidDomainError("tikhonov weight must be >= 0")
    if n_src_per_ring < 32:
        raise InvalidDomainError("n_src_per_ring must be >= 32")
    sources = _source_rings(spec, future_holes, n_src_per_ring, 1.8)
    n_src = sources.shape[0]
    n_col = max(64, 2 * n_src_per_ring)
    quads = build_boundary_quadrature(spec, n_col)
    bq = quads.gamma
    A_u = np.empty((bq.n_nodes, n_src + 1))
    A_u[:, :n_src] = _kernel_block(bq.nodes, sources)
    A_u[:, n_src] = 1.0
    b_u = -np.sum(bq.nodes**2, axis=1) / 4.0
    A_n = np.zeros((bq.n_nodes, n_src + 1))
    A_n[:, :n_src] = _kernel_normal_block(bq.nodes, bq.normals, sources)
    b_n = c - 0.5 * np.sum(bq.nodes * bq.normals, axis=1)
    A = np.vstack([A_u, A_n])
    b = np.concatenate([b_u, b_n])
    coef, cond, truncated, lam = _svd_solve(A, b, tikhonov=tikhonov, n_src=n_src)
    model = FieldModel(np.zeros(2), sources, coef[:n_src], float(coef[n_src]))

    check = build_boundary_quadrature(spec, 4 * n_col).gamma
    res_u = float(np.max(np.abs(evaluate_u(model, check.nodes))))
    res_n = float(np.max(np.abs(normal_derivative(model, check.nodes, check.normals) - c)))
    residuals = {"gamma": res_u, "gamma_normal": res_n}
    diag = SolveDiagnostics(
        residual_per_component=residuals,
        max_residual=max(res_u, res_n),
        condition=cond,
        tikhonov=lam,
        truncated_modes=truncated,
        n_collocation=A.shape[0],
        n_unknowns=A.shape[1],
    )
    if diag.max_residual > residual_tol:
        raise SolverConvergenceError("continuation failed", diag)
    return model, diag


def carve_holes(spec: DomainSpec, holes) -> DomainSpec:
    """The same outer curve with holes excised; used after Cauchy continuation."""
    return DomainSpec(
        outer_radius=spec.outer_radius,
        fourier_modes=spec.fourier_modes,
        holes=tuple(holes),
    )


# ---------------------------------------------------------------------------
# Exactly overdetermined instances (free-boundary construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverdeterminedInstance:
    spec: DomainSpec
    model: FieldModel
    c: float
    eps: float
    dirichlet_misfit: float
    neumann_misfit: float
    iterations: int
    dipole_strength: float


def overdetermined_instance(
    eps: float,
    c: float = 0.5,
    hole_center: tuple[float, float] = (0.4, 0.0),
    hole_radius: float = 0.1,
) -> OverdeterminedInstance:
    """Build a domain-with-hole and field satisfying u = 0 AND u_nu = c on the
    outer curve to near machine precision, with all singular content inside
    the hole.

    A field that is smooth throughout the enclosed region and exactly
    overdetermined forces a disk (Serrin rigidity), so non-trivial instances
    must carry sources inside the excised hole.  With that content fixed
    (a monopole of 0.05, a dipole of solved strength, and a three-fold
    pattern of 2 * eps), the outer curve solving the overdetermined problem is
    a free boundary; it is found by the classical trial method: Dirichlet
    solve, then a diagonal Fourier-Newton update of the shape from the normal
    derivative misfit, with the translation-neutral k=1 mode steered by the
    dipole strength instead.  eps prescribes the hole's off-center offset
    inside the final domain.

    Everything is solved in hole-centered coordinates and then re-expanded
    about the origin so the hole lands at hole_center.  The discretization is
    fixed: 14 shape modes, 96 outer and 48 hole sources (ring offset 1.8),
    384 collocation nodes, at most 60 trial steps to a Neumann misfit below
    5e-11, and a 1e-8 check of both conditions on the final domain.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    n_modes, n_out, n_in, n_collocation, tol = 14, 96, 48, 384, 5e-11
    phi = np.linspace(0.0, TWO_PI, n_in, endpoint=False)
    rin = hole_radius / 1.8
    inner = rin * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    q_fixed = (0.05 + (2.0 * eps) * np.cos(3 * phi)) / n_in
    dipole_pattern = np.cos(phi) / n_in

    state = {"R": 2.0 * c, "mu": 0.0, "b": np.zeros(n_modes + 1)}
    t = eps
    th = np.linspace(0.0, TWO_PI, n_collocation, endpoint=False)

    def shape(theta):
        modes = [(1, t)] + [(k, state["b"][k]) for k in range(2, n_modes + 1)]
        r, rp, _ = _cosine_series(theta, state["R"], modes)
        return r, rp

    def geo(theta):
        r, rp = shape(theta)
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        tx = rp * np.cos(theta) - r * np.sin(theta)
        ty = rp * np.sin(theta) + r * np.cos(theta)
        sp = np.hypot(tx, ty)
        return x, np.stack([ty / sp, -tx / sp], axis=-1)

    def dirichlet_pass(mu):
        x, nrm = geo(th)
        tho = np.linspace(0.0, TWO_PI, n_out, endpoint=False)
        ro, _ = shape(tho)
        out_src = 1.8 * np.stack([ro * np.cos(tho), ro * np.sin(tho)], axis=-1)
        q_in = q_fixed + mu * dipole_pattern
        A_u = np.empty((n_collocation, n_out + 1))
        A_u[:, :n_out] = _kernel_block(x, out_src)
        A_u[:, n_out] = 1.0
        b_u = -(np.sum(x * x, axis=1) / 4.0 + _kernel_block(x, inner) @ q_in)
        coef, *_ = np.linalg.lstsq(A_u, b_u, rcond=RCOND)
        e_u = float(np.max(np.abs(A_u @ coef - b_u)))
        un = (
            _kernel_normal_block(x, nrm, out_src) @ coef[:n_out]
            + 0.5 * np.sum(x * nrm, axis=1)
            + _kernel_normal_block(x, nrm, inner) @ q_in
        )
        return un - c, e_u, coef, out_src, q_in

    # one-time numeric probe of the k=1 Neumann response to the dipole strength
    en0, *_ = dirichlet_pass(0.0)
    en1, *_ = dirichlet_pass(1e-2)
    probe = 2.0 * (np.fft.rfft(en1)[1].real - np.fft.rfft(en0)[1].real) / n_collocation
    d_mode1_d_mu = probe / 1e-2

    e_u = e_n = math.inf
    for it in range(60):
        en, e_u, coef, out_src, q_in = dirichlet_pass(state["mu"])
        e_n = float(np.max(np.abs(en)))
        if e_n < tol:
            break
        fc = np.fft.rfft(en) / n_collocation
        state["R"] -= fc[0].real / 0.5
        state["mu"] -= 2.0 * fc[1].real / d_mode1_d_mu
        for k in range(2, n_modes + 1):
            state["b"][k] -= 2.0 * fc[k].real / (0.5 * (1.0 - k))
    if not e_n < 100 * tol:
        raise SolverConvergenceError(
            "free-boundary iteration did not converge",
            SolveDiagnostics(
                residual_per_component={"gamma": e_u, "gamma_normal": e_n},
                max_residual=max(e_u, e_n),
                condition=math.nan,
                tikhonov=0.0,
                truncated_modes=0,
                n_collocation=n_collocation,
                n_unknowns=n_out + 1,
            ),
        )

    # re-expand the shape about the world origin with the hole at hole_center
    p = np.asarray(hole_center, dtype=float)
    n_fft = 4096
    target = np.linspace(0.0, TWO_PI, n_fft, endpoint=False)
    theta_w = target.copy()  # work-coordinate parameter, refined per target angle
    for _ in range(60):
        r_w, rp_w = shape(theta_w)
        wx = r_w * np.cos(theta_w) + p[0]
        wy = r_w * np.sin(theta_w) + p[1]
        ang = np.unwrap(np.arctan2(wy, wx))
        ang += TWO_PI * np.round((target - ang) / TWO_PI)
        mis = ang - target
        # d(ang)/d(theta_w) via the curve tangent
        tx = rp_w * np.cos(theta_w) - r_w * np.sin(theta_w)
        ty = rp_w * np.sin(theta_w) + r_w * np.cos(theta_w)
        rho2 = wx * wx + wy * wy
        dang = (wx * ty - wy * tx) / rho2
        theta_w = theta_w - mis / dang
        if np.max(np.abs(mis)) < 1e-14:
            break
    r_world = np.hypot(*((shape(theta_w)[0])[None, :] * np.stack([np.cos(theta_w), np.sin(theta_w)]) + p[:, None]))
    fc = np.fft.rfft(r_world) / n_fft
    R0 = fc[0].real
    modes = []
    for k in range(1, n_fft // 2):
        a_k = 2.0 * fc[k].real / R0
        if abs(a_k) < 1e-13 and k > n_modes:
            break
        if abs(a_k) >= 1e-14:
            modes.append((k, a_k))
    hole = Hole((float(p[0]), float(p[1])), hole_radius, 0.0)
    spec = DomainSpec(outer_radius=R0, fourier_modes=tuple(modes), holes=(hole,))
    model = FieldModel(
        anchor=p.copy(),
        sources=np.concatenate([out_src + p, inner + p]),
        coeffs=np.concatenate([coef[:n_out], q_in]),
        constant=float(coef[n_out]),
    )
    check = build_boundary_quadrature(spec, 1024)
    res_u = float(np.max(np.abs(evaluate_u(model, check.gamma.nodes))))
    res_n = float(
        np.max(np.abs(normal_derivative(model, check.gamma.nodes, check.gamma.normals) - c))
    )
    u_hole = evaluate_u(model, check.holes[0].nodes)
    if max(res_u, res_n) > 1e-8 or np.max(u_hole) > 0:
        raise SolverConvergenceError(
            "overdetermined instance failed verification on the final domain",
            SolveDiagnostics(
                residual_per_component={"gamma": res_u, "gamma_normal": res_n},
                max_residual=max(res_u, res_n),
                condition=math.nan,
                tikhonov=0.0,
                truncated_modes=0,
                n_collocation=n_collocation,
                n_unknowns=n_out + 1,
            ),
        )
    return OverdeterminedInstance(
        spec=spec,
        model=model,
        c=c,
        eps=eps,
        dirichlet_misfit=res_u,
        neumann_misfit=res_n,
        iterations=it + 1,
        dipole_strength=float(state["mu"]),
    )
