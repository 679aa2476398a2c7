"""C^2-evaluable solutions of Delta u = 1 with u = 0 on the outer boundary.

A field is represented as a fixed particular quadratic |x - x0|^2 / 4 plus
a harmonic expansion over logarithmic point sources placed outside the region
(outer ring) and inside each hole (inner rings), plus one free additive
constant.  The representation satisfies the PDE identically;
discretization error lives only on the boundaries, where the expansion is fit
by least squares.  Three fits are provided: a well-posed Dirichlet solve with
data g <= 0 on hole boundaries, an ill-posed Cauchy fit matching both
u = 0 and u_nu = c on the outer curve (harmonic continuation inward), and
the free-boundary builder of exactly overdetermined instances.  All three
take their value rows from _value_rows and their diagnostics and residual
check from _checked.
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
    """(u, grad, hess) at the (n, 2) points pts; hess has shape (n, 2, 2) and
    trace(hess) == 1.

    want names the parts to compute (a non-empty subset of "ugh"); the others
    come back as None.
    """
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
    return u, grad, hess


def evaluate_u(model: FieldModel, pts):
    return evaluate(model, pts, "u")[0]


def normal_derivative(model: FieldModel, pts, normals):
    return np.sum(evaluate(model, np.atleast_2d(pts), "g")[1] * np.atleast_2d(normals), axis=1)


def radial_model(R: float, hole: Hole | None = None) -> FieldModel:
    """The exact radial field with u = 0 on |x| = R, the oracle field.

    Without a hole it is (|x|^2 - R^2) / 4, the disk's torsion function.  On
    the annulus outside a centred hole it is u = |x|^2/4 + A log|x| + B with
    u = g on the hole, realized exactly by a single source at the origin with
    coefficient 2 pi A.
    """
    if not 0 < R < math.inf:
        raise InvalidDomainError(f"outer radius must be positive and finite, got {R}")
    B = -R * R / 4.0
    if hole is None:
        return FieldModel(
            anchor=np.zeros(2), sources=np.zeros((0, 2)), coeffs=np.zeros(0), constant=B
        )
    if tuple(hole.center) != (0.0, 0.0):
        raise ValueError(f"radial fields need a hole centred at the origin, got {hole.center}")
    if not 0 < hole.radius < R:
        raise ValueError(f"need 0 < hole radius < R = {R}, got {hole.radius}")
    rho, g = hole.radius, hole.dirichlet_value
    A = (g - (rho**2 - R**2) / 4.0) / math.log(rho / R)
    return FieldModel(
        anchor=np.zeros(2),
        sources=np.zeros((1, 2)),
        coeffs=np.array([TWO_PI * A]),
        constant=B,
    )


# ---------------------------------------------------------------------------
# Collocation fits
# ---------------------------------------------------------------------------


# the radius ratio of every fit's source rings to the curves they surround
RING_OFFSET = 1.8


def _source_rings(spec: DomainSpec, holes, n: int):
    """n log sources on a ring outside the outer curve (RING_OFFSET times its
    radius), then n on a ring inside each hole (its radius / RING_OFFSET)."""
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    rings = [(spec.radius(theta) * RING_OFFSET)[:, None] * circle]
    for hole in holes:
        rings.append(np.asarray(hole.center) + (hole.radius / RING_OFFSET) * circle)
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


def _cauchy_misfits(model, gamma, c):
    """(max |u|, max |u_nu - c|) at the nodes of the outer-curve rule gamma,
    from one field pass."""
    u, grad, _ = evaluate(model, gamma.nodes, "ug")
    u_nu = np.sum(grad * gamma.normals, axis=1)
    return float(np.max(np.abs(u))), float(np.max(np.abs(u_nu - c)))


def _value_rows(nodes, sources, n_constants):
    """Collocation rows [G(node - source) | 1 ... 1] of a value condition at
    nodes: one column per source, then n_constants columns of ones."""
    n_src = sources.shape[0]
    A = np.empty((nodes.shape[0], n_src + n_constants))
    A[:, :n_src] = _kernel_block(nodes, sources)
    A[:, n_src:] = 1.0
    return A


def _checked(message, tol, residuals, condition, tikhonov, truncated_modes, shape):
    """The SolveDiagnostics of a fit whose collocation matrix had the given
    shape; raises SolverConvergenceError(message) unless max_residual <= tol.
    A NaN in any component makes max_residual NaN, which fails."""
    diag = SolveDiagnostics(
        residual_per_component=residuals,
        max_residual=float(np.max(list(residuals.values()))),
        condition=condition,
        tikhonov=tikhonov,
        truncated_modes=truncated_modes,
        n_collocation=shape[0],
        n_unknowns=shape[1],
    )
    if not diag.max_residual <= tol:
        raise SolverConvergenceError(message, diag)
    return diag


def solve_dirichlet(
    spec: DomainSpec,
    n_src_per_ring: int = 96,
    *,
    residual_tol: float = 1e-6,
) -> tuple[FieldModel, SolveDiagnostics]:
    """Fit u = 0 on the outer curve and u = g on each hole boundary.

    Collocation at 2x oversampled boundary nodes; the model satisfies the PDE
    identically, so the reported residuals are pure boundary misfit, checked
    on fresh nodes 4x denser than collocation.
    """
    if n_src_per_ring < 32:
        raise InvalidDomainError("n_src_per_ring must be >= 32")
    sources = _source_rings(spec, spec.holes, n_src_per_ring)
    n_src = sources.shape[0]
    n_col = 2 * n_src_per_ring
    theta_col = np.linspace(0.0, TWO_PI, n_col, endpoint=False)
    data = [0.0] + [hole.dirichlet_value for hole in spec.holes]
    curves = [spec.boundary_point(theta_col)] + [h.boundary_points(theta_col) for h in spec.holes]
    # one additive constant per ring (shared null direction)
    A = np.vstack([_value_rows(nodes, sources, len(data)) for nodes in curves])
    b = np.concatenate([g - np.sum(nodes**2, axis=1) / 4.0 for nodes, g in zip(curves, data)])
    coef, cond, truncated, lam = _svd_solve(A, b, tikhonov=0.0, n_src=n_src)
    # the per-ring constants only ever act through their sum
    model = FieldModel(np.zeros(2), sources, coef[:n_src], sum(map(float, coef[n_src:])))

    residuals = {
        bq.component: float(np.max(np.abs(evaluate_u(model, bq.nodes) - g)))
        for bq, g in zip(build_boundary_quadrature(spec, 4 * max(64, n_col)).all(), data)
    }
    diag = _checked("solver did not converge", residual_tol, residuals, cond, lam, truncated, A.shape)
    return model, diag


def solve_cauchy(
    spec: DomainSpec,
    c: float,
    tikhonov: float | None = None,
    residual_tol: float = 1e-6,
    future_holes: tuple[Hole, ...] = (),
) -> tuple[FieldModel, SolveDiagnostics]:
    """Joint fit of u = 0 and u_nu = c on the outer curve (no holes yet);
    the continued field is then valid in a neighborhood of the curve.  The
    source rings hold 128 sources each.

    tikhonov=None selects the default weight 1e-10 * (largest singular value)^2;
    the misfit is inherently ill-posed, so failure to reach tolerance is
    reported, not hidden.  future_holes adds source rings inside regions that
    will be carved afterwards, letting the continued field carry singular
    content there; without them the best achievable joint residual on a
    non-circular curve is bounded below by that curve's rigidity deficit.

    spec must have no holes and tikhonov, when given, must lie in [0, inf);
    otherwise InvalidDomainError.  c is not checked: a NaN c gives NaN
    residuals, which fail residual_tol.
    """
    if spec.holes:
        raise InvalidDomainError("Cauchy continuation starts from a hole-free domain")
    if tikhonov is not None and not 0 <= tikhonov < math.inf:
        raise InvalidDomainError(f"tikhonov weight must be finite and >= 0, got {tikhonov}")
    sources = _source_rings(spec, future_holes, 128)
    n_src = sources.shape[0]
    n_col = 256
    bq = build_boundary_quadrature(spec, n_col).gamma
    A_n = np.zeros((bq.n_nodes, n_src + 1))
    A_n[:, :n_src] = _kernel_normal_block(bq.nodes, bq.normals, sources)
    A = np.vstack([_value_rows(bq.nodes, sources, 1), A_n])
    b_u = -np.sum(bq.nodes**2, axis=1) / 4.0
    b_n = c - 0.5 * np.sum(bq.nodes * bq.normals, axis=1)
    coef, cond, truncated, lam = _svd_solve(A, np.concatenate([b_u, b_n]), tikhonov, n_src)
    model = FieldModel(np.zeros(2), sources, coef[:n_src], float(coef[n_src]))

    res_u, res_n = _cauchy_misfits(model, build_boundary_quadrature(spec, 4 * n_col).gamma, c)
    residuals = {"gamma": res_u, "gamma_normal": res_n}
    diag = _checked("continuation failed", residual_tol, residuals, cond, lam, truncated, A.shape)
    return model, diag


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
    fixed: 14 shape modes, 96 outer and 48 hole sources (at RING_OFFSET),
    384 collocation nodes, at most 60 trial steps to a Neumann misfit below
    5e-11, and a 1e-8 check of both conditions on the final domain.

    Inputs are checked before the first solve: 0 <= eps < inf and
    0 < c < inf (ValueError), and hole_center and hole_radius must make a
    Hole (InvalidDomainError: a finite centre, 0 < radius < inf).
    """
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    p = np.asarray(hole_center, dtype=float)
    hole = Hole((float(p[0]), float(p[1])), hole_radius, 0.0)
    n_modes, n_out, n_in, n_collocation, tol = 14, 96, 48, 384, 5e-11
    phi = np.linspace(0.0, TWO_PI, n_in, endpoint=False)
    rin = hole_radius / RING_OFFSET
    inner = rin * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    q_fixed = (0.05 + (2.0 * eps) * np.cos(3 * phi)) / n_in
    dipole_pattern = np.cos(phi) / n_in

    # the trial curve r = R + eps cos(theta) + sum_k b_k cos(k theta), k = 2..14,
    # and the dipole strength mu; the trial steps update R, b and mu
    R, mu, b = 2.0 * c, 0.0, np.zeros(n_modes + 1)
    th = np.linspace(0.0, TWO_PI, n_collocation, endpoint=False)
    tho = np.linspace(0.0, TWO_PI, n_out, endpoint=False)

    def curve(theta):
        """(r, cos, sin, tangent x, tangent y) of the trial curve at theta."""
        modes = [(1, eps)] + [(k, b[k]) for k in range(2, n_modes + 1)]
        r, rp, _ = _cosine_series(theta, R, modes)
        cos, sin = np.cos(theta), np.sin(theta)
        return r, cos, sin, rp * cos - r * sin, rp * sin + r * cos

    def dirichlet_pass(mu):
        r, cos, sin, tx, ty = curve(th)
        x = np.stack([r * cos, r * sin], axis=-1)
        sp = np.hypot(tx, ty)
        nrm = np.stack([ty / sp, -tx / sp], axis=-1)
        ro, cos_o, sin_o, _, _ = curve(tho)
        out_src = RING_OFFSET * np.stack([ro * cos_o, ro * sin_o], axis=-1)
        q_in = q_fixed + mu * dipole_pattern
        A_u = _value_rows(x, out_src, 1)
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
    # the mu = 0 pass runs on the starting state, so it is also trial step 0
    first = dirichlet_pass(0.0)
    en1, *_ = dirichlet_pass(1e-2)
    probe = 2.0 * (np.fft.rfft(en1)[1].real - np.fft.rfft(first[0])[1].real) / n_collocation
    d_mode1_d_mu = probe / 1e-2

    e_u = e_n = math.inf
    for it in range(60):
        en, e_u, coef, out_src, q_in = dirichlet_pass(mu) if it else first
        e_n = float(np.max(np.abs(en)))
        if e_n < tol:
            break
        fc = np.fft.rfft(en) / n_collocation
        R -= fc[0].real / 0.5
        mu -= 2.0 * fc[1].real / d_mode1_d_mu
        for k in range(2, n_modes + 1):
            b[k] -= 2.0 * fc[k].real / (0.5 * (1.0 - k))
    # the builder's diagnostics: lstsq reports no condition and damps nothing
    fit = (math.nan, 0.0, 0, (n_collocation, n_out + 1))
    residuals = {"gamma": e_u, "gamma_normal": e_n}
    _checked("free-boundary iteration did not converge", 100 * tol, residuals, *fit)

    # re-expand the shape about the world origin with the hole at hole_center
    n_fft = 4096
    target = np.linspace(0.0, TWO_PI, n_fft, endpoint=False)
    theta_w = target  # work-coordinate parameter, refined per target angle
    for _ in range(60):
        r_w, cos_w, sin_w, tx, ty = curve(theta_w)
        wx = r_w * cos_w + p[0]
        wy = r_w * sin_w + p[1]
        ang = np.unwrap(np.arctan2(wy, wx))
        ang += TWO_PI * np.round((target - ang) / TWO_PI)
        mis = ang - target
        # d(ang)/d(theta_w) via the curve tangent
        rho2 = wx * wx + wy * wy
        dang = (wx * ty - wy * tx) / rho2
        theta_w = theta_w - mis / dang
        if np.max(np.abs(mis)) < 1e-14:
            break
    r_w, cos_w, sin_w, _, _ = curve(theta_w)
    fc = np.fft.rfft(np.hypot(r_w * cos_w + p[0], r_w * sin_w + p[1])) / n_fft
    R0 = fc[0].real
    modes = []
    for k in range(1, n_fft // 2):
        a_k = 2.0 * fc[k].real / R0
        if abs(a_k) < 1e-13 and k > n_modes:
            break
        if abs(a_k) >= 1e-14:
            modes.append((k, a_k))
    spec = DomainSpec(outer_radius=R0, fourier_modes=tuple(modes), holes=(hole,))
    model = FieldModel(
        anchor=p.copy(),
        sources=np.concatenate([out_src + p, inner + p]),
        coeffs=np.concatenate([coef[:n_out], q_in]),
        constant=float(coef[n_out]),
    )
    check = build_boundary_quadrature(spec, 1024)
    res_u, res_n = _cauchy_misfits(model, check.gamma, c)
    # u <= 0 on the hole belongs to the verdict: u > 0 there fails any tolerance
    hole_ok = np.max(evaluate_u(model, check.holes[0].nodes)) <= 0
    residuals = {"gamma": res_u, "gamma_normal": res_n}
    message = "overdetermined instance failed verification on the final domain"
    _checked(message, 1e-8 if hole_ok else -math.inf, residuals, *fit)
    return OverdeterminedInstance(
        spec=spec,
        model=model,
        c=c,
        eps=eps,
        dirichlet_misfit=res_u,
        neumann_misfit=res_n,
        iterations=it + 1,
        dipole_strength=float(mu),
    )
