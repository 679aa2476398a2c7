"""Time torsionlab's shipped configs end to end, behind a correctness gate.

Run from the repository root:

    python3 perfbench/run.py --workload equality --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A pass runs each config of the workload once through
``torsionlab.harness.main`` with ``--threads 1 --seed <seed>`` into a
temporary directory under ``.perfbench_tmp/``.  Passes repeat for
``--seconds`` seconds; the first runs the configs at their default seeds
instead, and its tables are compared with ``perfbench/reference`` (see
``gate.py``).  Each config run of every pass is checked.

``--trace 0`` reports the end-to-end metrics: the median wall and CPU time of
a timed pass, the set-up time of a fresh interpreter (median of several), and
the peak RSS of this process after its first pass.  ``--trace 1`` spends the
first half of the time on untraced passes and the second on traced ones, and
reports the per-layer metrics of ``tracing.py`` (medians over traced passes)
and the tracing overhead.  The last line of output is one JSON object;
``--workload all`` runs every workload in a fresh process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter, process_time

from gate import REFERENCE, check_run
from tracing import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_tmp"

# (CLI command, config) per workload; why each was chosen is in BENCHMARK.json
WORKLOADS = {
    "equality": (("sweep", "sweep_radial"), ("run", "identities_radial")),
    "overdetermined": (("sweep", "sweep_overdetermined"), ("run", "stability_dirichlet")),
    "fields": (("run", "poincare"), ("run", "shapeflow")),
}
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys\n"
    "import torsionlab\n"
    "from torsionlab.harness import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
)
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckoutError(RuntimeError):
    pass


def import_torsionlab():
    """Import torsionlab from this checkout's ``src``, never from elsewhere."""
    missing = [
        str(p.relative_to(ROOT))
        for p in [SRC / "torsionlab" / "__init__.py"]
        + [CONFIGS / f"{name}.cfg" for runs in WORKLOADS.values() for _, name in runs]
        if not p.is_file()
    ]
    if missing:
        raise CheckoutError(f"not a torsionlab checkout, missing: {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import torsionlab
    import torsionlab.harness

    if SRC.resolve() not in Path(torsionlab.__file__).resolve().parents:
        raise CheckoutError(f"imported torsionlab from {torsionlab.__file__}, not {SRC}")
    return torsionlab


def environment(torsionlab):
    import numpy

    return {
        "kernel_backend": torsionlab.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def measure_setup(workload, repeats=SETUP_REPEATS):
    """Seconds from spawning a fresh interpreter to torsionlab imported and
    the workload's configs loaded, once per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", SETUP_CODE]
    argv += [str(CONFIGS / f"{name}.cfg") for _, name in WORKLOADS[workload]]
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=env) as child:
            # wait() with a timeout polls every 50 ms, which would quantize
            # the samples; a timer kills a child that hangs instead
            killer = threading.Timer(120, child.kill)
            killer.start()
            try:
                code = child.wait()
            finally:
                killer.cancel()
        samples.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return samples


def _call_main(harness, argv):
    """harness.main(argv) with its output captured; an exception is a failure."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = harness.main(argv)
        except Exception:
            traceback.print_exc()
            code = "exception"
    return code, output.getvalue()


def run_pass(runs, seed, tracer=None, reference=REFERENCE):
    """One pass over ``runs``, a list of (CLI command, config path, loaded config).

    ``seed`` None runs every config at its default seed.  Returns the pass's
    wall and CPU seconds and, per config run, its name and a list of problems
    (empty when it passed).  With a tracer, the pass is its root span.
    """
    import torsionlab.harness as harness

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        done = []
        root = tracer.root() if tracer is not None else contextlib.nullcontext()
        t0, c0 = perf_counter(), process_time()
        with root:
            for command, path, cfg in runs:
                out = Path(tmp) / path.stem
                argv = [command, str(path), "--threads", "1", "--out", str(out)]
                if seed is not None:
                    argv += ["--seed", str(seed)]
                done.append((path.stem, cfg, out, *_call_main(harness, argv)))
        wall, cpu = perf_counter() - t0, process_time() - c0
        problems = []
        for name, cfg, out, code, output in done:
            compare = seed is None or seed == cfg.seed
            found = check_run(name, cfg, out, code, compare, reference)
            if found and code != 0:
                found.append(output.strip())
            problems.append((name, found))
    with contextlib.suppress(OSError):
        WORK.rmdir()
    return wall, cpu, problems


def _median_metrics(samples):
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def units(kind):
    """Metric name -> unit, for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def benchmark(workload, seed, seconds, trace):
    """Run the workload; returns (correct, attempted, failed, metrics, lines),
    metrics as name -> value, lines the human-readable report."""
    torsionlab = import_torsionlab()
    from torsionlab.harness import load_config

    runs = [
        (command, CONFIGS / f"{name}.cfg", load_config(CONFIGS / f"{name}.cfg"))
        for command, name in WORKLOADS[workload]
    ]
    lines = [f"environment {json.dumps(environment(torsionlab), sort_keys=True)}"]

    setup = [] if trace else measure_setup(workload)
    start = perf_counter()
    # the first pass runs every config at its default seed, so that its
    # tables are compared with the references whatever the seed
    untraced = [run_pass(runs, None)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while perf_counter() < start + (seconds / 2 if trace else seconds):
        untraced.append(run_pass(runs, seed))
    traced, layer_samples = [], []
    while trace and (not traced or perf_counter() < start + seconds):
        tracer = Tracer()
        with patched(tracer):
            traced.append(run_pass(runs, seed, tracer))
        layer_samples.append(tracer.metrics())

    all_problems = [problem for *_, problems in untraced + traced for problem in problems]
    attempted = len(all_problems)
    failed = [(name, found) for name, found in all_problems if found]
    walls = [w for w, _, _ in untraced]
    lines.append(
        f"workload {workload}, seed {seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"timed passes, the first at the configs' default seeds"
    )
    lines.append("pass wall_s " + " ".join(f"{w:.3f}" for w in walls))
    if trace:
        metrics = _median_metrics(layer_samples)
        traced_wall = statistics.median(w for w, _, _ in traced)
        metrics["tracing_overhead_s"] = traced_wall - statistics.median(walls)
        lines.append(f"traced wall_s {traced_wall:.4f} s (median of {len(traced)})")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c for _, c, _ in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {
            "wall_s": f"median of {len(walls)} passes",
            "cpu_s": f"median of {len(walls)} passes",
            "setup_s": f"median of {len(setup)} interpreters",
            "peak_rss_mb": "1 sample, after the first pass",
        }
        unit = units("end_to_end")
        for name, value in metrics.items():
            lines.append(f"{name:12s} {value:12.4f} {unit[name]:3s} ({samples[name]})")
    lines.append(f"fail_ratio   {len(failed)}/{attempted} = {len(failed) / attempted:g}")
    for name, found in failed:
        lines.append(f"FAILED {name}: " + "; ".join(found))
    return not failed, attempted, len(failed), metrics, lines


def _result_line(correct, attempted, failed, metrics, units):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    )


def run_all(seed, seconds):
    """Every workload in a fresh process; a table of the end-to-end metrics."""
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        rows.append((workload, json.loads(done.stdout.strip().splitlines()[-1])))
    unit = units("end_to_end")
    print(f"{'workload':16s}" + "".join(f"{f'{n} [{u}]':>18s}" for n, u in unit.items())
          + f"{'fail_ratio':>14s}")
    for workload, result in rows:
        values = "".join(f"{result['metrics'][n]['value']:18.4f}" for n in unit)
        print(f"{workload:16s}{values}{result['failed']:>9d}/{result['attempted']:<4d}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        correct, attempted, failed, metrics, lines = benchmark(
            args.workload, args.seed, args.seconds, args.trace
        )
    except CheckoutError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    unit = units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(unit) - set(metrics))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(_result_line(correct, attempted, failed, {n: metrics[n] for n in unit}, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
