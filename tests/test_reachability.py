"""Code that no shipped config reaches is either listed here with its reason
or deleted.

The six shipped configs run through the CLI in a fresh interpreter whose
profile hooks (sys.setprofile, and threading.setprofile for the sweep pool)
are installed before torsionlab is imported, so import-time calls count too.
Every function and method defined in src/torsionlab (unwrapped, with property
and cached_property functions) that no run calls must be exactly an entry of
UNREACHED.  Left out are dataclass-generated methods, closures and the methods
of exception classes: a config that passes takes no failure path, and the
tests that provoke each error reach those.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_reference_tables import SHIPPED

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    # unit-tested library functions of the identities
    "identities.p_function",
    "identities.cauchy_schwarz_deficit",
    # criterion 9; energy is also a benchmark per-layer metric name
    "shapeflow.energy",
    "shapeflow.shape_gradient",
    "shapeflow._volume_project",
    # criterion 5 and field.kind = "cauchy-literal"
    "solver.solve_cauchy",
    # the report.json round trip of the field model
    "solver.FieldModel.from_dict",
    # criterion 7
    "stability.check_oscillation_bound",
    "stability.OscillationReport.holds",
    "stability.OscillationReport.slack",
    # the N >= 3 and john-relaxed exponent formulas
    "stability._unit_ball_volume",
    "stability._check_theta",
}

_CHILD = r"""
import importlib, inspect, json, pkgutil, sys, threading
from functools import cached_property
from pathlib import Path

seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


threading.setprofile(profile)
sys.setprofile(profile)
import torsionlab
from torsionlab.harness import main

runs, out, result = json.loads(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
for command, cfg in runs:
    assert main([command, cfg, "--threads", "1", "--out", str(out / Path(cfg).stem)]) == 0
sys.setprofile(None)
threading.setprofile(None)


def functions(value):
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    if isinstance(value, cached_property):
        value = value.func
    if callable(value):
        value = inspect.unwrap(value)
    return [value] if inspect.isfunction(value) else []


package = Path(torsionlab.__file__).parent
unreached = set()
for info in pkgutil.iter_modules(torsionlab.__path__):
    module = importlib.import_module(f"torsionlab.{info.name}")
    members = list(vars(module).values())
    for value in vars(module).values():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            if not issubclass(value, BaseException):
                members += vars(value).values()
    for member in members:
        for fn in functions(member):
            code = fn.__code__
            if fn.__module__ != module.__name__ or Path(code.co_filename).parent != package:
                continue  # imported, or generated by dataclass
            if code not in seen:
                unreached.add(f"{info.name}.{fn.__qualname__}")
result.write_text(json.dumps(sorted(unreached)))
"""


def test_unreached_code_is_exactly_the_allowlist(tmp_path):
    runs = [(command, str(ROOT / "configs" / f"{name}.cfg")) for command, name in SHIPPED]
    result = tmp_path / "unreached.json"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs), str(tmp_path), str(result)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    unreached = set(json.loads(result.read_text()))
    assert unreached - UNREACHED == set(), "reached by no config: run it from one or delete it"
    assert UNREACHED - unreached == set(), "reached now: drop it from UNREACHED"
