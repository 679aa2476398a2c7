"""Tests of the benchmark itself: tracing, span attribution and the gate.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import shutil

import run
from gate import compare_table
from tracing import LAYER_NAMES, Tracer, patched

run.import_torsionlab()

from torsionlab import geometry, harness  # noqa: E402
from torsionlab.harness import load_config  # noqa: E402

SMALL_SWEEP = "\n".join(
    [
        'experiment = "cauchy-stability"',
        "seed = 11",
        "domain.holes = [[0.4, 0.0, 0.1, 0.0]]",
        'field.kind = "overdetermined"',
        'sweep.axis = "eps"',
        "sweep.values = [0.01, 0.02]",
        "quadrature.n_theta = 192",
        "quadrature.n_r = 32",
        "tolerances.growth_samples = 2000",
    ]
)


def _shipped(command, name):
    path = run.CONFIGS / f"{name}.cfg"
    return command, path, load_config(path)


def test_call_through_importing_module_is_counted_under_defining_layer():
    original = harness.diameter
    tracer = Tracer()
    with patched(tracer):
        assert harness.diameter is not original
        harness.diameter(geometry.DomainSpec(1.0, ((3, 0.05),)))
    assert harness.diameter is original and geometry.diameter is original
    metrics = tracer.metrics()
    assert metrics["geometry.diameter.calls"] == 1
    assert metrics["geometry.diameter.s"] > 0
    assert metrics["geometry.boundary_point.calls"] > 0
    assert metrics["harness.calls"] == 0


def test_layer_self_times_add_up_to_traced_pass_wall(tmp_path):
    # the sweep runs its instances in a ThreadPoolExecutor worker; its spans
    # must not be counted a second time as harness self time
    sweep = tmp_path / "small_sweep.cfg"
    sweep.write_text(SMALL_SWEEP + "\n")
    runs = [("sweep", sweep, load_config(sweep)), _shipped("run", "identities_radial")]
    tracer = Tracer()
    with patched(tracer):
        wall, _, problems = run.run_pass(runs, 5, tracer)
    assert all(not found for _, found in problems), problems
    metrics = tracer.metrics()
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYER_NAMES)
    assert metrics["geometry.interior_sphere_radius.calls"] == 2  # run in the worker
    assert metrics["solver.free_boundary.iterations"] > 0
    assert 0.97 * wall <= layers <= wall


def test_counts_repeat_between_traced_passes():
    runs = [_shipped("run", "identities_radial"), _shipped("run", "stability_dirichlet")]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with patched(tracer):
            run.run_pass(runs, 3, tracer)
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith((".calls", "points", "pair_evals"))})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.pair_evals"] > 0


def test_corrupted_reference_cell_is_a_failure(tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(run.REFERENCE, reference)
    runs = [_shipped("run", "identities_radial")]
    _, _, problems = run.run_pass(runs, None, reference=reference)
    assert problems == [("identities_radial", [])]

    table = reference / "identities_radial" / "identities.csv"
    old, new = "3.015928947446201", "3.015928947456201"  # 3e-12 relative
    assert table.read_text().count(old) == 1
    table.write_text(table.read_text().replace(old, new))
    _, _, problems = run.run_pass(runs, None, reference=reference)
    [(_, found)] = problems
    assert len(found) == 1 and f"reference {new}" in found[0]


def test_residuals_compare_against_tolerance_not_value():
    cfg = load_config(run.CONFIGS / "identities_radial.cfg")
    header = "identity,lhs,rhs,abs_residual,rel_residual\n"
    ref = header + "pohozaev,1.5,1.5,1e-15,3e-16\n"
    assert compare_table("identities", ref, header + "pohozaev,1.5,1.5,4e-15,9e-16\n", cfg) == []
    assert compare_table("identities", ref, header + "pohozaev,1.5,1.5,4e-15,2e-8\n", cfg)
    assert compare_table("identities", ref, header + "pohozaev,1.5,1.6,4e-15,9e-16\n", cfg)
