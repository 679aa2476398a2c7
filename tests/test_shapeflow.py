import math

import numpy as np
import pytest

from torsionlab import _kernels, geometry
from torsionlab.geometry import DomainSpec, Hole, build_quadratures
from torsionlab.identities import check_value_c, sample_field
from torsionlab.shapeflow import (
    energy,
    flow_to_constant_flux,
    roundness_gap,
    shape_gradient,
)
from torsionlab.solver import evaluate, normal_derivative, solve_dirichlet
from torsionlab.stability import pseudo_distance


def _volume_projected(spec, coeffs, n=1024):
    """Normal-velocity callable with the dS-weighted mean removed."""
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    w = spec.boundary_speed(theta) * (2.0 * math.pi / n)
    field = np.zeros(n)
    for (kind, k), amp in coeffs.items():
        field += amp * (np.cos(k * theta) if kind == "cos" else np.sin(k * theta))
    mean = float(np.sum(field * w) / np.sum(w))

    def fn(th):
        out = np.zeros_like(th)
        for (kind, k), amp in coeffs.items():
            out += amp * (np.cos(k * th) if kind == "cos" else np.sin(k * th))
        return out - mean

    return fn


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def test_energy_unit_ball():
    assert energy(DomainSpec(1.0)) == math.pi / 16.0


def test_energy_scaling():
    # I(B_R) = pi R^4 / 16
    assert energy(DomainSpec(2.0)) == math.pi


def _area_rule_energy(spec):
    """(1/2) integral |grad u|^2 on a 1024x96 polar area rule, from a solve
    with 192 sources per ring: the oracle for the boundary form."""
    model, _ = solve_dirichlet(spec, 192)
    quads = build_quadratures(spec, 1024, 96)
    _, grad, _ = evaluate(model, quads.area.nodes, "g")
    return 0.5 * float(np.sum(np.sum(grad * grad, axis=1) * quads.area.weights))


def test_energy_self_convergence():
    # the boundary identity on 512 nodes against the area integral it replaces
    for modes in (((2, 0.05),), ((3, 0.04), (2, 0.02))):
        spec = DomainSpec(1.0, modes)
        assert abs(energy(spec) - _area_rule_energy(spec)) <= 1e-12


def test_energy_rejects_holes():
    with pytest.raises(ValueError, match="hole-free"):
        energy(DomainSpec(1.0, holes=(Hole((0.3, 0.0), 0.1, 0.0),)))


# ---------------------------------------------------------------------------
# Shape gradient
# ---------------------------------------------------------------------------


def test_ball_is_stationary():
    sg = shape_gradient(
        DomainSpec(1.0),
        {("cos", 2): 1.0, ("cos", 3): 0.4},
        mode_basis=(("cos", 2), ("cos", 3), ("sin", 2)),
    )
    assert abs(sg.derivative) <= 1e-9
    for val in sg.mode_gradient.values():
        assert abs(val) <= 1e-9


def test_gradient_matches_central_difference(perturb_radially):
    spec = DomainSpec(1.0, ((2, 0.05),))
    sg = shape_gradient(spec, {("cos", 2): 1.0})
    fn = _volume_projected(spec, {("cos", 2): 1.0})
    t = 1e-4
    fd = (energy(perturb_radially(spec, fn, t)) - energy(perturb_radially(spec, fn, -t))) / (2 * t)
    assert abs(sg.derivative - fd) / (abs(fd) + 1e-12) <= 1e-4


def test_gradient_fd_random_fields(perturb_radially):
    # its own stream, so the draws do not depend on which tests ran before;
    # seed 1 draws one odd-only pair on the even-mode domain
    rng = np.random.default_rng(1)
    specs = [DomainSpec(1.0, ((2, 0.05),)), DomainSpec(1.0, ((3, 0.04), (2, 0.02)))]
    t = 1e-4
    checked = 0
    for spec in specs:
        even_domain = all(m % 2 == 0 for m, _ in spec.fourier_modes)
        for _ in range(3):
            coeffs = {("cos", int(k)): float(rng.uniform(-1, 1)) for k in rng.choice([1, 2, 3, 4], 2, replace=False)}
            sg = shape_gradient(spec, coeffs)
            if even_domain and all(k % 2 for _, k in coeffs):
                # zero by parity, where a relative check is meaningless
                assert abs(sg.derivative) <= 1e-12
            else:
                fn = _volume_projected(spec, coeffs)
                fd = (
                    energy(perturb_radially(spec, fn, t)) - energy(perturb_radially(spec, fn, -t))
                ) / (2 * t)
                assert abs(sg.derivative - fd) / (abs(fd) + 1e-12) <= 1e-3
            checked += 1
    assert checked == 6


def test_parity_kills_odd_modes_on_even_domain():
    spec = DomainSpec(1.0, ((2, 0.05), (4, 0.01)))
    sg = shape_gradient(spec, {("sin", 3): 1.0})
    assert abs(sg.derivative) <= 1e-8


def test_volume_flux_projection_reported():
    spec = DomainSpec(1.0)
    sg = shape_gradient(spec, {("cos", 0): 1.0} if False else {("cos", 2): 0.0, ("cos", 1): 0.0})
    assert sg.removed_volume_component == pytest.approx(0.0)
    sg2 = shape_gradient(spec, {("cos", 2): 1.0})
    assert abs(sg2.removed_volume_component) <= 1e-12  # cos2 already mean-free on the circle


# ---------------------------------------------------------------------------
# Flow
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flow_result():
    return flow_to_constant_flux(DomainSpec(1.0, ((3, 0.05),)))


def test_flow_converges(flow_result):
    assert flow_result.converged
    assert len(flow_result.trajectory) - 1 <= 200
    assert flow_result.trajectory[-1].flatness <= 1e-3


def test_flow_final_shape_is_round(flow_result):
    first, final = flow_result.trajectory[0], flow_result.trajectory[-1]
    assert roundness_gap(final.spec) <= 5e-3
    assert abs(final.area - first.area) / first.area <= 1e-5


def test_flow_energy_monotone_and_std_monotone(flow_result):
    energies = [s.energy for s in flow_result.trajectory]
    stds = [s.u_nu_std for s in flow_result.trajectory]
    assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(stds, stds[1:]))


def test_flow_takes_its_energy_from_the_flux(monkeypatch):
    # one Dirichlet solve and two kernel passes (its residual and u_nu) per
    # measured shape, 14 shapes on (3, 0.05), and no area rule
    calls = {"build_quadratures": 0, "log_source_fields": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(geometry, "build_quadratures")
    counted(_kernels, "log_source_fields")
    flow_to_constant_flux(DomainSpec(1.0, ((3, 0.05),)))
    assert calls == {"build_quadratures": 0, "log_source_fields": 28}


def test_flow_starts_at_stationary_ball():
    res = flow_to_constant_flux(DomainSpec(1.0))
    assert res.converged
    assert len(res.trajectory) == 1  # terminates at iteration 0


def test_flow_two_modes_monotone_std():
    res = flow_to_constant_flux(DomainSpec(1.0, ((2, 0.03), (3, 0.03))))
    assert res.converged
    stds = [s.u_nu_std for s in res.trajectory]
    assert all(b <= a + 1e-12 for a, b in zip(stds, stds[1:]))


def test_flow_rejects_large_initial_amplitude():
    with pytest.raises(ValueError):
        flow_to_constant_flux(DomainSpec(1.0, ((2, 0.08), (3, 0.05),)))


def test_flow_rejects_holes():
    # each step refits a hole-free curve, so a hole used to vanish after step 0
    holed = DomainSpec(1.0, ((3, 0.05),), (Hole((0.3, 0.0), 0.1, 0.0),))
    with pytest.raises(ValueError, match="hole-free"):
        flow_to_constant_flux(holed)


def test_flow_realizes_overdetermined_condition(flow_result):
    # at termination the boundary flux is numerically constant and the curve
    # is the matching sphere to within the pseudo-distance tolerance
    spec = flow_result.trajectory[-1].spec
    model, _ = solve_dirichlet(spec, 96)
    quads = build_quadratures(spec, 256, 48)
    bq = quads.bounds.gamma
    c = check_value_c(spec, *sample_field(model, quads)[1:]).lhs / bq.arc_length
    u_nu = normal_derivative(model, bq.nodes, bq.normals)
    assert np.max(np.abs(u_nu - c)) <= 2e-3 * c
    bary = np.sum(quads.area.nodes * quads.area.weights[:, None], axis=0) / quads.area.total
    assert pseudo_distance(bq, bary, c) <= 1e-4
