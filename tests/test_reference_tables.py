"""The six shipped configs against the benchmark's reference tables.

Each config runs through the CLI with --threads 1 at its default seed and is
checked by perfbench/gate.py's check_run: exit code 0, every report.json
assertion holds, and every table cell equals perfbench/reference/<config>/
(1e-12 relative; residual columns within their stated tolerance).  A change
that moves a table cell fails here before the benchmark gate refuses it.
"""

import importlib.util
from pathlib import Path

import pytest

from torsionlab.harness import load_config, main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_gate", ROOT / "perfbench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SHIPPED = [
    ("run", "identities_radial"),
    ("run", "stability_dirichlet"),
    ("run", "poincare"),
    ("run", "shapeflow"),
    ("sweep", "sweep_radial"),
    ("sweep", "sweep_overdetermined"),
]


@pytest.mark.parametrize("command,name", SHIPPED, ids=[name for _, name in SHIPPED])
def test_shipped_config_matches_reference_tables(command, name, tmp_path, capsys):
    path = ROOT / "configs" / f"{name}.cfg"
    out = tmp_path / name
    code = main([command, str(path), "--threads", "1", "--out", str(out)])
    problems = gate.check_run(name, load_config(path), out, code, compare=True)
    assert not problems, f"{name}: {capsys.readouterr().out}\n" + "\n".join(problems)
