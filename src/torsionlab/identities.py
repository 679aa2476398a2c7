"""Integral identities for fields with constant Laplacian on the holed region.

Each check computes the two sides of an identity along independent code
paths: left-hand sides use the area quadrature together with analytic
gradients/Hessians, right-hand sides use boundary quadratures only.  The
reported residual is therefore a genuine discretization/solver diagnostic,
not a tautology.

Sign convention, fixed once: the normal on hole boundaries points out of the
working region, i.e. into the hole; check_divergence guards the orientation
per component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import DomainSpec, Quadratures
from .solver import FieldModel, evaluate

N_DIM = 2


class OverdeterminationError(ValueError):
    """The constant-normal-derivative hypothesis fails beyond tolerance."""

    def __init__(self, deviation, tol):
        super().__init__(
            f"max |u_nu - c| on the outer curve is {deviation:.3e} > tol {tol:.1e}"
        )
        self.deviation = deviation
        self.tol = tol


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    lhs: float
    rhs: float
    breakdown: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def abs_residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self) -> float:
        return abs(self.lhs - self.rhs) / (abs(self.lhs) + abs(self.rhs) + 1.0)


def p_function(model: FieldModel, pts):
    """|grad u|^2 - (2/N) u, the subharmonic companion of the field."""
    u, grad, _ = evaluate(model, np.atleast_2d(np.asarray(pts, dtype=float)), "ug")
    out = np.sum(grad * grad, axis=1) - (2.0 / N_DIM) * u
    return float(out[0]) if np.asarray(pts).ndim == 1 else out


def cauchy_schwarz_deficit(model: FieldModel, pts):
    """|hess u|_F^2 - (lap u)^2 / N >= 0; zero exactly for the radial field.

    Cross-checked against |hess h|_F^2 for h = quadratic - u, which is the
    same quantity by algebra; a value below -1e-12 signals an inconsistency.
    """
    single = np.asarray(pts).ndim == 1
    _, _, hess = evaluate(model, np.atleast_2d(np.asarray(pts, dtype=float)), "h")
    frob = np.sum(hess * hess, axis=(1, 2))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    out = frob - lap * lap / N_DIM
    if np.min(out) < -1e-12:
        raise ArithmeticError(
            f"negative Cauchy-Schwarz deficit {np.min(out):.3e}: Hessian inconsistency"
        )
    return float(out[0]) if single else out


def _boundary_fields(model, bq, want):
    """Boundary integrand pieces from the field parts in want ("g" at least);
    u is None unless want has "u", hess_grad_nu None unless it has "h"."""
    u, grad, hess = evaluate(model, bq.nodes, want)
    u_nu = np.sum(grad * bq.normals, axis=1)
    x_nu = np.sum(bq.nodes * bq.normals, axis=1)
    x_grad = np.sum(bq.nodes * grad, axis=1)
    grad2 = np.sum(grad * grad, axis=1)
    hess_grad_nu = None
    if hess is not None:
        hess_grad = np.einsum("nij,nj->ni", hess, grad)
        hess_grad_nu = np.sum(hess_grad * bq.normals, axis=1)
    return u, grad, u_nu, x_nu, x_grad, grad2, hess_grad_nu


def check_divergence(spec: DomainSpec, quads: Quadratures) -> IdentityReport:
    """Per-component divergence identity: sum of <x, nu>/N over all boundary
    components equals the region area; guards the hole normal orientation."""
    breakdown = {}
    for bq in quads.bounds.all():
        x_nu = np.sum(bq.nodes * bq.normals, axis=1)
        breakdown[bq.component] = float(np.sum(x_nu / N_DIM * bq.weights))
    return IdentityReport(
        identity="divergence_x",
        lhs=spec.region_area,
        rhs=sum(breakdown.values()),
        breakdown=breakdown,
    )


def check_pohozaev(model: FieldModel, spec: DomainSpec, quads: Quadratures) -> IdentityReport:
    """Rellich-Pohozaev identity: (N+2) * integral |grad u|^2 against the
    boundary form with its hole correction terms."""
    _, grad, _ = evaluate(model, quads.area.nodes, "g")
    lhs = (N_DIM + 2.0) * float(np.sum(np.sum(grad * grad, axis=1) * quads.area.weights))
    breakdown = {}
    bq = quads.bounds.gamma
    _, _, u_nu, x_nu, _, _, _ = _boundary_fields(model, bq, "g")
    breakdown["gamma"] = float(np.sum(x_nu * u_nu**2 * bq.weights))
    for bq in quads.bounds.holes:
        u, _, u_nu, x_nu, x_grad, grad2, _ = _boundary_fields(model, bq, "ug")
        integrand = (
            u * u_nu
            - x_nu * u / N_DIM
            + x_grad * u_nu / N_DIM
            - x_nu * grad2 / (2.0 * N_DIM)
        )
        breakdown[bq.component] = 2.0 * N_DIM * float(np.sum(integrand * bq.weights))
    return IdentityReport(
        identity="pohozaev", lhs=lhs, rhs=sum(breakdown.values()), breakdown=breakdown
    )


def _fundamental_lhs(model, quads):
    u, _, hess = evaluate(model, quads.area.nodes, "uh")
    frob = np.sum(hess * hess, axis=(1, 2))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    deficit = frob - lap * lap / N_DIM
    return float(np.sum((-u) * 2.0 * deficit * quads.area.weights))


def _fundamental_hole_terms(model, quads):
    """The two hole integrand groups shared by the identity with and without
    the overdetermination assumption."""
    u_group = {}
    grad_group = {}
    for bq in quads.bounds.holes:
        u, _, u_nu, x_nu, x_grad, grad2, hess_grad_nu = _boundary_fields(model, bq, "ugh")
        u_group[bq.component] = float(
            np.sum(2.0 * u * (x_nu / N_DIM - u_nu) * bq.weights)
        )
        integrand = (
            u_nu * grad2
            - 2.0 * x_grad * u_nu / N_DIM
            + grad2 * x_nu / N_DIM
            + 2.0 * u * u_nu / N_DIM
            - 2.0 * hess_grad_nu * u
        )
        grad_group[bq.component] = float(np.sum(integrand * bq.weights))
    return u_group, grad_group


def check_fundamental(model: FieldModel, spec: DomainSpec, quads: Quadratures) -> IdentityReport:
    """Weighted Cauchy-Schwarz-deficit identity, no overdetermination assumed:
    integral of (-u) * 2 * deficit equals the outer-curve cubic term plus the
    hole corrections."""
    lhs = _fundamental_lhs(model, quads)
    bq = quads.bounds.gamma
    _, _, u_nu, x_nu, _, _, _ = _boundary_fields(model, bq, "g")
    breakdown = {"gamma": float(np.sum(u_nu**2 * (u_nu - x_nu / N_DIM) * bq.weights))}
    u_group, grad_group = _fundamental_hole_terms(model, quads)
    for comp in u_group:
        breakdown[f"{comp}:u"] = u_group[comp]
        breakdown[f"{comp}:grad"] = grad_group[comp]
    return IdentityReport(
        identity="fundamental", lhs=lhs, rhs=sum(breakdown.values()), breakdown=breakdown
    )


def check_overdetermined(
    model: FieldModel,
    spec: DomainSpec,
    c: float,
    quads: Quadratures,
    tol_overdet: float = 1e-6,
) -> IdentityReport:
    """The deficit identity specialized to constant normal derivative c on the
    outer curve; refuses when the hypothesis fails beyond tol_overdet.

    Also verifies the intermediate flux identity
    integral_Gamma u_nu = |Omega| - |omega| - integral_hole u_nu,
    whose residual is stored in the breakdown under 'flux_identity'.
    """
    bq = quads.bounds.gamma
    _, _, u_nu, _, _, _, _ = _boundary_fields(model, bq, "g")
    deviation = float(np.max(np.abs(u_nu - c)))
    if deviation > tol_overdet:
        raise OverdeterminationError(deviation, tol_overdet)
    lhs = _fundamental_lhs(model, quads)
    breakdown = {}
    u_group, grad_group = _fundamental_hole_terms(model, quads)
    flux_holes = 0.0
    for bq_h in quads.bounds.holes:
        _, _, u_nu_h, x_nu_h, _, _, _ = _boundary_fields(model, bq_h, "g")
        breakdown[f"{bq_h.component}:c2"] = c * c * float(
            np.sum((x_nu_h / N_DIM - u_nu_h) * bq_h.weights)
        )
        flux_holes += float(np.sum(u_nu_h * bq_h.weights))
    for comp in u_group:
        breakdown[f"{comp}:u"] = u_group[comp]
        breakdown[f"{comp}:grad"] = grad_group[comp]
    flux_gamma = float(np.sum(u_nu * bq.weights))
    return IdentityReport(
        identity="overdetermined",
        lhs=lhs,
        rhs=sum(breakdown.values()),
        breakdown=breakdown,
        extras={
            "overdetermination_deviation": deviation,
            "flux_identity_residual": flux_gamma - (spec.region_area - flux_holes),
        },
    )


def check_value_c(model: FieldModel, spec: DomainSpec, quads: Quadratures) -> IdentityReport:
    """The flux identity fixing the overdetermined constant:
    integral_Gamma u_nu dS = |Omega| - |omega| - integral_hole u_nu dS,
    with the left side from the outer-curve flux and the right side from the
    closed-form areas plus the hole flux."""
    bq = quads.bounds.gamma
    _, _, u_nu, _, _, _, _ = _boundary_fields(model, bq, "g")
    lhs = float(np.sum(u_nu * bq.weights))
    breakdown = {"region_area": spec.region_area}
    for bq_h in quads.bounds.holes:
        _, _, u_nu_h, _, _, _, _ = _boundary_fields(model, bq_h, "g")
        breakdown[bq_h.component] = -float(np.sum(u_nu_h * bq_h.weights))
    return IdentityReport(
        identity="value_c", lhs=lhs, rhs=sum(breakdown.values()), breakdown=breakdown
    )


@dataclass(frozen=True)
class FluxConstant:
    """Two independent estimates of the overdetermined constant c."""

    from_divergence: float  # (|Omega| - |omega| - hole flux) / |Gamma|
    from_average: float  # mean of u_nu over the outer curve
    mismatch: float
    inconsistent: bool


def compute_flux_constant(spec: DomainSpec, model: FieldModel, quads: Quadratures) -> FluxConstant:
    """c from the outer-curve average of u_nu and from the divergence
    identity; the two are inconsistent when they differ by more than 1e-5."""
    bq = quads.bounds.gamma
    _, _, u_nu, _, _, _, _ = _boundary_fields(model, bq, "g")
    gamma_len = float(np.sum(bq.weights))
    c_avg = float(np.sum(u_nu * bq.weights)) / gamma_len
    flux_holes = 0.0
    for bq_h in quads.bounds.holes:
        _, _, u_nu_h, _, _, _, _ = _boundary_fields(model, bq_h, "g")
        flux_holes += float(np.sum(u_nu_h * bq_h.weights))
    c_div = (spec.region_area - flux_holes) / gamma_len
    mismatch = abs(c_div - c_avg)
    return FluxConstant(
        from_divergence=c_div,
        from_average=c_avg,
        mismatch=mismatch,
        inconsistent=mismatch > 1e-5,
    )
