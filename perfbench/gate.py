"""Correctness gate for one config run of the benchmark.

A run passes when it exits 0, every assertion in its ``report.json`` holds,
and, when it ran at the config's default seed, its ``tables/*.csv`` agree with
``perfbench/reference/<config>/``.  Tables agree cell by cell when the text is
identical or both cells are numbers within 1e-12 relative (the rule for a
change that reorders floating-point sums).  Columns that hold residuals or
misfits are roundoff whose digits move with summation order, so they are
checked against their stated tolerance instead of the reference value.

The reference tables were written by running each config at its default seed:
``PYTHONPATH=src python3 -m torsionlab.harness <run|sweep> configs/<name>.cfg
--threads 1 --out DIR`` and copying ``DIR/tables/*.csv``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12

# Acceptance criterion 4: in the equality (radial) family these are zero up
# to roundoff.
EQUALITY_RESIDUALS = {"pseudo_distance": 1e-10, "asymmetry": 1e-6, "rho_gap": 1e-8}
VOLUME_DRIFT_TOL = 1e-5  # the shape flow's volume_drift assertion


def _residual_bounds(table, cfg):
    """column -> function(row) giving the largest admissible |value|, for the
    columns checked against a stated tolerance instead of by value.  A bound
    of None leaves the cell unchecked."""
    if table == "identities":
        tol = cfg.identity_rel_tol
        return {
            "rel_residual": lambda row: tol,
            "abs_residual": lambda row: tol * (abs(float(row["lhs"])) + abs(float(row["rhs"])) + 1.0),
        }
    if table == "trajectory":
        return {"area_drift": lambda row: VOLUME_DRIFT_TOL}
    if cfg.field_kind == "radial" and table == "instances":
        return {col: (lambda row, t=t: t) for col, t in EQUALITY_RESIDUALS.items()}
    if cfg.field_kind == "radial" and table == "summary":
        # fitted ratios and log-log slopes of the residuals above: functions
        # of roundoff noise, with no value to compare (slopes may be nan)
        return {"value": lambda row: None, "r_squared": lambda row: None}
    return {}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _bound_problem(column, got, bound):
    value = _number(got)
    if value is None or not abs(value) <= bound:
        return f"{column}={got} exceeds its tolerance {bound:g}"
    return None


def _value_problem(column, ref, got):
    if got == ref:
        return None
    a, b = _number(ref), _number(got)
    if a is not None and b is not None and abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
        return None
    return f"{column}={got}, reference {ref}"


def compare_table(table, ref_text, got_text, cfg):
    """Problems found comparing one CSV with its reference; empty when equal."""
    ref = list(csv.DictReader(io.StringIO(ref_text)))
    got_reader = csv.DictReader(io.StringIO(got_text))
    got = list(got_reader)
    ref_columns = ref_text.split("\n", 1)[0].split(",")
    if got_reader.fieldnames != ref_columns:
        return [f"{table}: columns {got_reader.fieldnames}, reference {ref_columns}"]
    if len(got) != len(ref):
        return [f"{table}: {len(got)} rows, reference {len(ref)}"]
    bounds = _residual_bounds(table, cfg)
    problems = []
    for i, (ref_row, got_row) in enumerate(zip(ref, got)):
        for column in ref_columns:
            got_cell = got_row[column]
            if column in bounds:
                bound = bounds[column](got_row)
                if bound is None:
                    continue
                problem = _bound_problem(column, got_cell, bound)
            else:
                problem = _value_problem(column, ref_row[column], got_cell)
            if problem:
                problems.append(f"{table} row {i}: {problem}")
    return problems


def check_run(name, cfg, out_dir: Path, exit_code, compare, reference=REFERENCE):
    """Problems with one config run: exit code, assertions, and (when
    ``compare``) its tables against ``reference/<name>``."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    report = out_dir / "report.json"
    if not report.is_file():
        return problems + ["no report.json"]
    for assertion in json.loads(report.read_text())["assertions"]:
        if not assertion["passed"]:
            problems.append(f"assertion {assertion['name']} failed: {assertion['witness']}")
    if compare:
        ref_dir = reference / name
        ref_tables = sorted(p.name for p in ref_dir.glob("*.csv"))
        got_tables = sorted(p.name for p in (out_dir / "tables").glob("*.csv"))
        if got_tables != ref_tables:
            problems.append(f"tables {got_tables}, reference {ref_tables}")
        for table in sorted(set(ref_tables) & set(got_tables)):
            problems += compare_table(
                Path(table).stem,
                (ref_dir / table).read_text(),
                (out_dir / "tables" / table).read_text(),
                cfg,
            )
    return problems
