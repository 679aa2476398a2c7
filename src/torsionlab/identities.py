"""Integral identities for fields with constant Laplacian on the holed region.

Each check computes the two sides of an identity along independent code
paths: left-hand sides use the area quadrature together with analytic
gradients/Hessians, right-hand sides use boundary quadratures only.  The
reported residual is therefore a genuine discretization/solver diagnostic,
not a tautology.  The checks read sample_field's arrays, one pass per node set.

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
    """|grad u|^2 - (2/N) u at the (n, 2) points pts, the subharmonic
    companion of the field."""
    u, grad, _ = evaluate(model, pts, "ug")
    return np.sum(grad * grad, axis=1) - (2.0 / N_DIM) * u


def _deficit(hess):
    """|hess|_F^2 - (trace hess)^2 / N at each point of an (n, 2, 2) array."""
    frob = np.sum(hess * hess, axis=(1, 2))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    return frob - lap * lap / N_DIM


def cauchy_schwarz_deficit(model: FieldModel, pts):
    """|hess u|_F^2 - (lap u)^2 / N >= 0 at the (n, 2) points pts; zero
    exactly for the radial field.

    Cross-checked against |hess h|_F^2 for h = quadratic - u, which is the
    same quantity by algebra; a value below -1e-12 signals an inconsistency.
    """
    _, _, hess = evaluate(model, pts, "h")
    out = _deficit(hess)
    if np.min(out) < -1e-12:
        raise ArithmeticError(
            f"negative Cauchy-Schwarz deficit {np.min(out):.3e}: Hessian inconsistency"
        )
    return out


def _boundary_fields(bq, u, grad, hess):
    """(bq, u, u_nu, x_nu, x_grad, grad2, hess_grad_nu): the boundary
    integrand pieces from the field parts on bq's nodes; u and hess_grad_nu
    are None where u and hess are."""
    u_nu = np.sum(grad * bq.normals, axis=1)
    x_nu = np.sum(bq.nodes * bq.normals, axis=1)
    x_grad = np.sum(bq.nodes * grad, axis=1)
    grad2 = np.sum(grad * grad, axis=1)
    hess_grad_nu = None
    if hess is not None:
        hess_grad = np.einsum("nij,nj->ni", hess, grad)
        hess_grad_nu = np.sum(hess_grad * bq.normals, axis=1)
    return bq, u, u_nu, x_nu, x_grad, grad2, hess_grad_nu


def sample_field(model: FieldModel, quads: Quadratures):
    """(area, gamma, holes), the identity checks' input, from one pass per node
    set: area is (quads.area, u, grad, hess); gamma ("g") and each hole
    ("ugh") are _boundary_fields pieces."""
    area = (quads.area, *evaluate(model, quads.area.nodes, "ugh"))
    bq = quads.bounds.gamma
    gamma = _boundary_fields(bq, *evaluate(model, bq.nodes, "g"))
    holes = tuple(
        _boundary_fields(bq, *evaluate(model, bq.nodes, "ugh")) for bq in quads.bounds.holes
    )
    return area, gamma, holes


def check_divergence(spec: DomainSpec, gamma, holes) -> IdentityReport:
    """Per-component divergence identity: sum of <x, nu>/N over all boundary
    components equals the region area; guards the hole normal orientation."""
    breakdown = {}
    for bq, _, _, x_nu, _, _, _ in (gamma, *holes):
        breakdown[bq.component] = float(np.sum(x_nu / N_DIM * bq.weights))
    return IdentityReport(
        identity="divergence_x",
        lhs=spec.region_area,
        rhs=sum(breakdown.values()),
        breakdown=breakdown,
    )


def check_pohozaev(area, gamma, holes) -> IdentityReport:
    """Rellich-Pohozaev identity: (N+2) * integral |grad u|^2 against the
    boundary form with its hole correction terms."""
    aq, _, grad, _ = area
    lhs = (N_DIM + 2.0) * float(np.sum(np.sum(grad * grad, axis=1) * aq.weights))
    bq, _, u_nu, x_nu, _, _, _ = gamma
    breakdown = {"gamma": float(np.sum(x_nu * u_nu**2 * bq.weights))}
    for bq, u, u_nu, x_nu, x_grad, grad2, _ in holes:
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


def check_fundamental(area, gamma, holes) -> IdentityReport:
    """Weighted Cauchy-Schwarz-deficit identity, no overdetermination assumed:
    integral of (-u) * 2 * deficit equals the outer-curve cubic term plus the
    hole corrections."""
    aq, u, _, hess = area
    lhs = float(np.sum((-u) * 2.0 * _deficit(hess) * aq.weights))
    bq, _, u_nu, x_nu, _, _, _ = gamma
    breakdown = {"gamma": float(np.sum(u_nu**2 * (u_nu - x_nu / N_DIM) * bq.weights))}
    for bq, u, u_nu, x_nu, x_grad, grad2, hess_grad_nu in holes:
        breakdown[f"{bq.component}:u"] = float(
            np.sum(2.0 * u * (x_nu / N_DIM - u_nu) * bq.weights)
        )
        integrand = (
            u_nu * grad2
            - 2.0 * x_grad * u_nu / N_DIM
            + grad2 * x_nu / N_DIM
            + 2.0 * u * u_nu / N_DIM
            - 2.0 * hess_grad_nu * u
        )
        breakdown[f"{bq.component}:grad"] = float(np.sum(integrand * bq.weights))
    return IdentityReport(
        identity="fundamental", lhs=lhs, rhs=sum(breakdown.values()), breakdown=breakdown
    )


def check_overdetermined(
    gamma,
    holes,
    c: float,
    fundamental: IdentityReport,
    value_c: IdentityReport,
    tol_overdet: float = 1e-6,
) -> IdentityReport:
    """The fundamental identity with constant normal derivative c on the outer
    curve, its outer-curve term rewritten through the flux and divergence
    identities as c^2 times a hole term; refuses when the hypothesis fails
    beyond tol_overdet.

    fundamental and value_c are check_fundamental's and check_value_c's
    reports on the same samples: the left side and the hole u/grad terms are
    fundamental's, and the flux identity's residual (value_c lhs - rhs) is
    stored in the extras under 'flux_identity_residual'.
    """
    _, _, u_nu, _, _, _, _ = gamma
    deviation = float(np.max(np.abs(u_nu - c)))
    if deviation > tol_overdet:
        raise OverdeterminationError(deviation, tol_overdet)
    breakdown = {}
    for bq, _, u_nu_h, x_nu_h, _, _, _ in holes:
        breakdown[f"{bq.component}:c2"] = c * c * float(
            np.sum((x_nu_h / N_DIM - u_nu_h) * bq.weights)
        )
    breakdown.update((k, v) for k, v in fundamental.breakdown.items() if k != "gamma")
    return IdentityReport(
        identity="overdetermined",
        lhs=fundamental.lhs,
        rhs=sum(breakdown.values()),
        breakdown=breakdown,
        extras={
            "overdetermination_deviation": deviation,
            "flux_identity_residual": value_c.lhs - value_c.rhs,
        },
    )


def check_value_c(spec: DomainSpec, gamma, holes) -> IdentityReport:
    """The flux identity fixing the overdetermined constant:
    integral_Gamma u_nu dS = |Omega| - |omega| - integral_hole u_nu dS,
    with the left side from the outer-curve flux and the right side from the
    closed-form areas plus the hole flux."""
    bq, _, u_nu, _, _, _, _ = gamma
    lhs = float(np.sum(u_nu * bq.weights))
    breakdown = {"region_area": spec.region_area}
    for bq_h, _, u_nu_h, _, _, _, _ in holes:
        breakdown[bq_h.component] = -float(np.sum(u_nu_h * bq_h.weights))
    return IdentityReport(
        identity="value_c", lhs=lhs, rhs=sum(breakdown.values()), breakdown=breakdown
    )
