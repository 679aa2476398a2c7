"""Dirichlet-energy shape functional, its boundary shape derivative, and a
volume-preserving flow of the outer curve toward constant normal derivative.

The energy I = (1/2) integral |grad u|^2 of the torsion field u is
I = (1/2)(integral |x|^2/4 u_nu dS - integral r^4/16 dtheta), by Green's second
identity with |x|^2/4 (Polya & Szego, Isoperimetric Inequalities in Mathematical
Physics, 1951).  Under a boundary velocity v, I'(0) = (1/2) integral u_nu^2
<nu, v> dS, which vanishes for all volume-preserving v exactly when u_nu is
constant, i.e. at the disk.

Sign note: at fixed area the disk MAXIMIZES I (classical torsional-rigidity
extremality; verified here by finite differences), so the flow that converges
to the disk moves along +(u_nu^2 - mean), and accepted steps have
nondecreasing energy.  The step rule is backtracking with initial step
0.5 / max|u_nu^2 - mean|, and the area is restored exactly by rescaling after
every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    TWO_PI,
    DomainSpec,
    build_boundary_quadrature,
    enclosing_inscribed_radii,
)
from .solver import FieldModel, SolverConvergenceError, normal_derivative, solve_dirichlet


@dataclass(frozen=True)
class ShapeState:
    iteration: int
    spec: DomainSpec
    energy: float
    u_nu_mean: float
    u_nu_std: float
    step: float
    area: float

    @property
    def flatness(self) -> float:
        """std(u_nu)/mean(u_nu) on the outer curve: the termination metric."""
        return self.u_nu_std / self.u_nu_mean


@dataclass(frozen=True)
class FlowResult:
    trajectory: tuple
    converged: bool
    stalled: bool
    reason: str


def _flux(spec: DomainSpec, model: FieldModel):
    """The outer curve's trapezoid rule on 512 angles and u_nu at its nodes."""
    bq = build_boundary_quadrature(spec, 512).gamma
    return bq, normal_derivative(model, bq.nodes, bq.normals)


def _energy(bq, u_nu) -> float:
    """I by the boundary identity; the trapezoid sum of r^4/16 is exact below n modes."""
    x2 = np.sum(bq.nodes**2, axis=1)
    return 0.5 * float(np.sum(x2 / 4 * u_nu * bq.weights) - np.mean(x2 * x2 / 16) * TWO_PI)


def energy(spec: DomainSpec) -> float:
    """(1/2) integral |grad u|^2 of the torsion field of a hole-free spec, from
    the flux of its Dirichlet solve."""
    if spec.holes:
        raise ValueError(f"the energy needs a hole-free domain, got {len(spec.holes)} holes")
    return _energy(*_flux(spec, solve_dirichlet(spec)[0]))


def _volume_project(v_n, weights):
    """Remove the dS-weighted mean so the normal field preserves area to
    first order; returns (projected field, removed mean)."""
    mean = float(np.sum(v_n * weights) / np.sum(weights))
    return v_n - mean, mean


@dataclass(frozen=True)
class ShapeGradient:
    derivative: float
    mode_gradient: dict
    removed_volume_component: float


def shape_gradient(spec: DomainSpec, v_coeffs: dict, mode_basis: tuple = ()) -> ShapeGradient:
    """I'(0) = (1/2) integral u_nu^2 <nu, v> dS for a normal velocity given by
    cosine/sine coefficients v_coeffs = {("cos", k): a, ("sin", k): b}, from
    the Dirichlet solve on 512 boundary nodes.

    The field is projected onto the volume-preserving class (zero dS-weighted
    mean); the removed component is reported.  mode_gradient returns the same
    boundary integral against each projected basis mode in mode_basis.
    """
    bq, u_nu = _flux(spec, solve_dirichlet(spec)[0])
    theta, weights = bq.theta, bq.weights
    v_n = np.zeros(bq.n_nodes)
    for (kind, k), amp in v_coeffs.items():
        v_n += amp * (np.cos(k * theta) if kind == "cos" else np.sin(k * theta))
    v_proj, removed = _volume_project(v_n, weights)
    deriv = 0.5 * float(np.sum(u_nu**2 * v_proj * weights))
    mode_gradient = {}
    for kind, k in mode_basis:
        basis = np.cos(k * theta) if kind == "cos" else np.sin(k * theta)
        b_proj, _ = _volume_project(basis, weights)
        mode_gradient[(kind, k)] = 0.5 * float(np.sum(u_nu**2 * b_proj * weights))
    return ShapeGradient(
        derivative=deriv, mode_gradient=mode_gradient, removed_volume_component=removed
    )


def _cosine_fit(r_values, n_modes) -> DomainSpec:
    n = r_values.size
    fc = np.fft.rfft(r_values) / n
    R0 = fc[0].real
    modes = []
    for k in range(1, min(n_modes, n // 2 - 1) + 1):
        a = 2.0 * fc[k].real / R0
        if abs(a) > 1e-15:
            modes.append((k, a))
    return DomainSpec(outer_radius=R0, fourier_modes=tuple(modes))


def check_flow_start(spec: DomainSpec):
    """Raise ValueError unless spec can start the flow: no holes (each step
    refits a hole-free curve) and sum |eps_k| <= 0.1."""
    if spec.holes:
        raise ValueError(f"the flow needs a hole-free domain, got {len(spec.holes)} holes")
    if sum(abs(e) for _, e in spec.fourier_modes) > 0.1 + 1e-12:
        raise ValueError("initial perturbation amplitudes must satisfy sum |eps_k| <= 0.1")


def flow_to_constant_flux(spec: DomainSpec) -> FlowResult:
    """Evolve the outer curve of a hole-free domain along +(u_nu^2 - mean)
    normal velocity, with exact area restoration each step, until u_nu is
    flat to flatness_tol = 1e-3, for at most max_iters = 200 steps.

    u_nu comes from a Dirichlet solve (96 sources per ring) on 512 boundary
    nodes, the energy from u_nu there, and each step is refit to the first 16
    cosine modes.  Steps are accepted when the energy does not decrease beyond
    energy_tol = 1e-9 (the disk is the fixed-area maximizer); a rejected step
    is halved, and more than max_halvings = 12 halvings stalls the flow.
    """
    max_iters, flatness_tol, energy_tol, max_halvings = 200, 1e-3, 1e-9, 12
    check_flow_start(spec)
    target_area = spec.outer_area

    def measure(s):
        bq, u_nu = _flux(s, solve_dirichlet(s)[0])
        total = float(np.sum(bq.weights))
        mean = float(np.sum(u_nu * bq.weights) / total)
        var = float(np.sum((u_nu - mean) ** 2 * bq.weights) / total)
        return bq.theta, u_nu, mean, math.sqrt(var), _energy(bq, u_nu), bq.normals

    theta, u_nu, mean, std, e0, normals = measure(spec)
    traj = [ShapeState(0, spec, e0, mean, std, 0.0, spec.outer_area)]
    if std / mean <= flatness_tol:
        return FlowResult(tuple(traj), converged=True, stalled=False, reason="already flat")

    current, e_cur = spec, e0
    for it in range(1, max_iters + 1):
        v_n = u_nu**2
        speed = current.boundary_speed(theta)
        v_n = v_n - float(np.sum(v_n * speed) / np.sum(speed))
        step = 0.5 / float(np.max(np.abs(v_n)))
        e_r = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        cosf = np.sum(normals * e_r, axis=1)
        r_cur = current.radius(theta)
        for _ in range(max_halvings + 1):
            try:
                cand = _cosine_fit(r_cur + step * v_n / cosf, 16)
                factor = math.sqrt(target_area / cand.outer_area)
                cand = replace(cand, outer_radius=cand.outer_radius * factor)
                th2, u2, mean2, std2, e2, n2 = measure(cand)
            except (SolverConvergenceError, ValueError):
                step *= 0.5
                continue
            # accept on nondecreasing energy; also require the flux spread not
            # to grow, which curbs full-step overshoot of individual modes
            if e2 >= e_cur - energy_tol and std2 <= std + 1e-12:
                break
            step *= 0.5
        else:
            return FlowResult(
                tuple(traj), converged=False, stalled=True,
                reason=f"stalled after {max_halvings} halvings at iteration {it}",
            )
        current, e_cur, u_nu, mean, std, theta, normals = cand, e2, u2, mean2, std2, th2, n2
        traj.append(ShapeState(it, current, e_cur, mean, std, step, current.outer_area))
        if std / mean <= flatness_tol:
            return FlowResult(tuple(traj), converged=True, stalled=False, reason="flatness reached")
    return FlowResult(tuple(traj), converged=False, stalled=False, reason="max iterations")


def barycenter(spec: DomainSpec) -> np.ndarray:
    """Centroid of the enclosed region from the closed-form polar moments
    integral x dA = integral r(theta)^3/3 * (cos, sin) dtheta."""
    theta = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    r3 = spec.radius(theta) ** 3 / 3.0
    moment = np.array(
        [np.mean(r3 * np.cos(theta)), np.mean(r3 * np.sin(theta))]
    ) * TWO_PI
    return moment / spec.outer_area


def roundness_gap(spec: DomainSpec) -> float:
    """Enclosing minus inscribed radius about the region's barycenter."""
    rho_e, rho_i = enclosing_inscribed_radii(spec, barycenter(spec))
    return rho_e - rho_i
