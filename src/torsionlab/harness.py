"""Scenario configs, experiment drivers, report/CSV persistence, and the CLI.

This is the only module that touches the filesystem.  Configs are flat
key-tree text files (``a.b.c = <json value>`` per line, ``#`` comments); runs
write ``report.json`` (full, nested), ``tables/*.csv`` (flat, byte-identical
for identical config+seed), and ``schema.json`` documenting every CSV column.

Exit-code contract: 0 all hard assertions passed, 1 a numeric assertion
failed (first witness printed), 2 config error (offending field path named).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _blas, _kernels
from .geometry import (
    DomainSpec,
    Hole,
    InvalidDomainError,
    QuadratureError,
    build_quadratures,
    diameter,
    interior_sphere_radius,
    random_interior_points,
)
from .identities import (
    OverdeterminationError,
    check_divergence,
    check_fundamental,
    check_overdetermined,
    check_pohozaev,
    check_value_c,
    sample_field,
)
from .shapeflow import final_roundness, flow_to_constant_flux, roundness_gap
from .solver import (
    SolverConvergenceError,
    overdetermined_instance,
    radial_model,
    solve_cauchy,
    solve_dirichlet,
)
from .stability import (
    REGIMES,
    ExponentTripleError,
    bound_table,
    check_growth,
    fit_constants,
    poincare_ratio_experiment,
    stability_report,
    validate_poincare_triple,
)

SCHEMA_VERSION = "3"

EXPERIMENTS = ("identities", "stability", "cauchy-stability", "shapeflow", "poincare")

SWEEP_AXES = ("eps", "hole_radius")

FIELD_KINDS = ("radial", "dirichlet", "overdetermined", "cauchy-literal")


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """key = value lines into a nested dict; values are JSON literals."""
    tree: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            value = json.loads(val.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(key, f"value is not valid JSON: {exc}") from None
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "key path collides with a scalar")
        node[parts[-1]] = value
    return tree


def _leaves(tree, prefix=""):
    """(dotted path, value) of each leaf of a parsed config tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _typed(path, value, kind):
    """value as kind: float takes any finite number, int a whole one (1e4 is
    10000, 2.5 is an error); booleans, strings and containers are a
    ConfigError naming path."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(value, float):
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    if not ok:
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(path, f"expected {expected}, got {value!r}")
    return kind(value)


# A rule maps (path, value) to the parsed value or raises a ConfigError
# naming path.

_BOUNDS = {">": operator.gt, ">=": operator.ge}


def _number(kind, bound, even=False):
    """Rule: a number of kind within bound ('> 0', '>= 1', ...), even if asked."""
    op, limit = bound.split()
    need = f"even and {bound}" if even else bound

    def parse(path, value):
        v = _typed(path, value, kind)
        if not _BOUNDS[op](v, float(limit)) or (even and v % 2):
            raise ConfigError(path, f"must be {need}, got {v!r}")
        return v

    return parse


def _one_of(*options):
    def parse(path, value):
        if value not in options:
            raise ConfigError(path, f"must be one of {options}, got {value!r}")
        return value

    return parse


def _text(path, value):
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a path string, got {value!r}")
    return value


def _rows(what, *kinds):
    """Rule: a list of len(kinds)-element lists, entry j of kind kinds[j]."""

    def parse(path, value):
        if not isinstance(value, list) or not all(
            isinstance(v, list) and len(v) == len(kinds) for v in value
        ):
            raise ConfigError(path, f"expected a list of {what}")
        return tuple(
            tuple(_typed(f"{path}[{i}]", x, k) for x, k in zip(row, kinds))
            for i, row in enumerate(value)
        )

    return parse


def _ascending(path, value):
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list of numbers")
    values = tuple(_typed(f"{path}[{i}]", v, float) for i, v in enumerate(value))
    if list(values) != sorted(values):
        raise ConfigError(path, "values must be sorted ascending")
    return values


@dataclass
class ScenarioConfig:
    experiment: str
    seed: int = 0
    out_dir: str = "run_output"
    threads: int = 1
    outer_radius: float = 1.0
    modes: tuple = ()
    holes: tuple = ()
    field_kind: str = "dirichlet"
    n_theta: int = 256
    n_r: int = 48
    identity_rel_tol: float = 1e-4
    overdet_tol: float = 1e-6
    growth_samples: int = 10000
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    regime: str = "sphere-condition"
    cauchy_c: float = 0.5
    cauchy_k: int = 3
    cauchy_eps: float = 0.01
    poincare_triples: tuple = ((2.0, 2.0, 0.5),)
    poincare_n_fields: int = 50
    raw: dict = dc_field(default_factory=dict, compare=False)


_STABILITY = ("stability", "cauchy-stability")


def _kind(cfg):
    """The field kind a run reads: None outside identities and the stability runs."""
    return cfg.field_kind if cfg.experiment in ("identities", *_STABILITY) else None


def _axis(cfg):
    """The sweep axis a run reads: None outside the stability runs."""
    return cfg.sweep_axis if cfg.experiment in _STABILITY else None


def _by(text, *experiments):
    return text, lambda cfg: cfg.experiment in experiments


# the runs that read a key, as (text, predicate on the config)
_ALL = _by("all", *EXPERIMENTS)
_NOT_SHAPEFLOW = _by("all but shapeflow", "identities", *_STABILITY, "poincare")
_STABILITY_RUNS = _by("stability runs", *_STABILITY)
_POINCARE = _by("poincare", "poincare")

# every key a config may set, as (ScenarioConfig field, rule, runs that read
# it); anything else is a typo, a key left out takes the field's default, and
# a key the run does not read is an error
_KEYS = {
    "experiment": ("experiment", _one_of(*EXPERIMENTS), _ALL),
    "seed": ("seed", _number(int, ">= 0"), _ALL),
    "out_dir": ("out_dir", _text, _ALL),
    "threads": ("threads", _number(int, ">= 1"), _ALL),
    "domain.outer_radius": ("outer_radius", _number(float, "> 0"), (
        "all but overdetermined fields", lambda c: _kind(c) != "overdetermined")),
    "domain.modes": ("modes", _rows("[wavenumber, amplitude] pairs", int, float), (
        "all but radial and overdetermined fields and cauchy-literal eps sweeps",
        lambda c: _kind(c) not in ("radial", "overdetermined")
        and (_kind(c), _axis(c)) != ("cauchy-literal", "eps"))),
    "domain.holes": ("holes", _rows("[cx, cy, radius, g]", float, float, float, float), (
        "all but shapeflow and hole_radius sweeps",
        lambda c: c.experiment != "shapeflow" and _axis(c) != "hole_radius")),
    "field.kind": ("field_kind", _one_of(*FIELD_KINDS),
                   _by("identities and stability runs", "identities", *_STABILITY)),
    "quadrature.n_theta": ("n_theta", _number(int, ">= 64", even=True), _NOT_SHAPEFLOW),
    "quadrature.n_r": ("n_r", _number(int, ">= 4"), _NOT_SHAPEFLOW),
    "tolerances.identity_rel": ("identity_rel_tol", _number(float, "> 0"),
                                _by("identities", "identities")),
    "tolerances.overdet": ("overdet_tol", _number(float, "> 0"), (
        "radial, overdetermined and cauchy-literal fields",
        lambda c: _kind(c) not in (None, "dirichlet"))),
    "tolerances.growth_samples": ("growth_samples", _number(int, ">= 1"), _STABILITY_RUNS),
    "sweep.axis": ("sweep_axis", _one_of(None, *SWEEP_AXES), _STABILITY_RUNS),
    "sweep.values": ("sweep_values", _ascending, _STABILITY_RUNS),
    "stability.regime": ("regime", _one_of(*REGIMES), _STABILITY_RUNS),
    "cauchy.c": ("cauchy_c", _number(float, "> 0"), (
        "overdetermined and cauchy-literal fields",
        lambda c: _kind(c) in ("overdetermined", "cauchy-literal"))),
    "cauchy.k": ("cauchy_k", _number(int, ">= 1"), (
        "cauchy-literal eps sweeps",
        lambda c: (_kind(c), _axis(c)) == ("cauchy-literal", "eps"))),
    "cauchy.eps": ("cauchy_eps", _number(float, ">= 0"), (
        "overdetermined fields without a sweep",
        lambda c: (_kind(c), _axis(c)) == ("overdetermined", None))),
    "poincare.triples": (
        "poincare_triples", _rows("[r, p, alpha] triples", float, float, float), _POINCARE),
    "poincare.n_fields": ("poincare_n_fields", _number(int, ">= 1"), _POINCARE),
}


def validate_config(tree: dict) -> ScenarioConfig:
    given = dict(_leaves(tree))
    for path in given:
        if path not in _KEYS:
            raise ConfigError(path, "unknown key")
    if "experiment" not in given:
        raise ConfigError("experiment", "missing required field")
    values = {_KEYS[path][0]: _KEYS[path][1](path, v) for path, v in given.items()}
    cfg = ScenarioConfig(**values, raw=tree)
    _check_combinations(cfg, given)
    return cfg


def _check_combinations(cfg: ScenarioConfig, given: dict):
    """The rules that tie keys together.  Each given key must be read by the
    run, as its _KEYS entry says; a sweep declares its axis and values, and
    the axis fixes the field kind (there is no default hole); each field kind
    then restricts the holes, and poincare its triples."""
    for path in given:
        read_by, reads = _KEYS[path][2]
        if not reads(cfg):
            run = {"experiment": cfg.experiment, "field.kind": _kind(cfg), "sweep.axis": _axis(cfg)}
            run = " ".join(f"{key}={value!r}" for key, value in run.items() if value is not None)
            raise ConfigError(path, f"not read by {run}; read by: {read_by}")
    axis, holes = cfg.sweep_axis, cfg.holes
    if cfg.experiment == "cauchy-stability" and axis is None:
        raise ConfigError("sweep.axis", "sweep requires a declared axis")
    if axis is not None and not cfg.sweep_values:
        raise ConfigError("sweep.values", "sweep requires a nonempty, sorted value list")
    if axis == "hole_radius" and cfg.field_kind != "radial":
        raise ConfigError("field.kind", "hole_radius sweeps use field.kind=radial")
    if axis == "eps":
        if cfg.field_kind not in ("overdetermined", "cauchy-literal"):
            raise ConfigError(
                "field.kind",
                f"eps sweeps use field.kind=overdetermined or cauchy-literal, got {cfg.field_kind!r}",
            )
        eps_rule = _KEYS["cauchy.eps"][1]
        for i, v in enumerate(cfg.sweep_values):
            eps_rule(f"sweep.values[{i}]", v)
    if cfg.field_kind == "radial":
        if len(holes) > 1:
            raise ConfigError("domain.holes", "radial fields support at most one hole")
        if holes and holes[0][:2] != (0.0, 0.0):
            raise ConfigError("domain.holes", "radial fields need holes centered at the origin")
    if cfg.field_kind == "overdetermined" and (len(holes) != 1 or holes[0][3] != 0):
        raise ConfigError(
            "domain.holes", f"overdetermined instances use exactly one hole, g = 0, got {holes}"
        )
    if cfg.experiment == "poincare":
        for i, (r, p, alpha) in enumerate(cfg.poincare_triples):
            try:
                validate_poincare_triple(r, p, alpha)
            except ExponentTripleError as err:
                raise ConfigError(f"poincare.triples[{i}]", str(err)) from None
    if axis is None and cfg.sweep_values:
        raise ConfigError("sweep.values", "sweep values need a declared sweep.axis")
    # the domain of every point a run builds, built here so that validate
    # rejects what run would; an overdetermined field builds its own curve
    try:
        built = tuple(Hole((cx, cy), r, g) for cx, cy, r, g in holes)
    except InvalidDomainError as err:
        raise ConfigError("domain.holes", str(err)) from None
    if cfg.field_kind == "overdetermined":
        return
    if axis is not None:
        for i, (*_, point) in enumerate(_point_configs(cfg)):
            try:
                _build_spec(point)
            except InvalidDomainError as err:
                raise ConfigError(f"sweep.values[{i}]", str(err)) from None
        return
    try:
        outer = DomainSpec(cfg.outer_radius, cfg.modes)
    except InvalidDomainError as err:
        raise ConfigError("domain.modes", str(err)) from None
    try:
        replace(outer, holes=built)
    except InvalidDomainError as err:
        raise ConfigError("domain.holes", str(err)) from None


def load_config(path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file {path} does not exist")
    return validate_config(parse_config_text(p.read_text()))


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def _build_spec(cfg: ScenarioConfig) -> DomainSpec:
    holes = tuple(Hole((cx, cy), r, g) for cx, cy, r, g in cfg.holes)
    return DomainSpec(cfg.outer_radius, cfg.modes, holes)


def _build_field(cfg: ScenarioConfig):
    """(spec, model, extras) for the configured field kind.  An overdetermined
    instance builds its own outer curve about the configured hole, so the
    hole is checked against that curve, by the instance's own spec."""
    if cfg.field_kind == "overdetermined":
        ((cx, cy, r, _),) = cfg.holes
        try:
            h = Hole((cx, cy), r)
            inst = overdetermined_instance(
                cfg.cauchy_eps, c=cfg.cauchy_c, hole_center=h.center, hole_radius=h.radius
            )
        except InvalidDomainError as err:
            raise ConfigError("domain.holes", f"no overdetermined instance: {err}") from None
        return inst.spec, inst.model, {"instance": inst}
    spec = _build_spec(cfg)
    if cfg.field_kind == "radial":
        return spec, radial_model(spec.outer_radius, *spec.holes), {}
    if cfg.field_kind == "dirichlet":
        model, diag = solve_dirichlet(spec)
        return spec, model, {"solver": diag}
    # cauchy-literal: continue from the hole-free curve; the holes are carved
    # from the configured spec
    model, diag = solve_cauchy(replace(spec, holes=()), cfg.cauchy_c, future_holes=spec.holes)
    return spec, model, {"solver": diag}


# ---------------------------------------------------------------------------
# Assertions and reporting plumbing
# ---------------------------------------------------------------------------


@dataclass
class Assertion:
    name: str
    passed: bool
    witness: str = ""


def _finite(value):
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if not math.isfinite(v):
            return repr(v)
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _finite(value.tolist())
    return value


def _report_from_stability(rep):
    """Every StabilityReport field but the Hopf check and the comparison, in
    declaration order."""
    return _finite(
        {f.name: getattr(rep, f.name) for f in fields(rep) if f.name not in ("hopf", "comparison")}
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_identities(cfg: ScenarioConfig):
    spec, model, _ = _build_field(cfg)
    quads = build_quadratures(spec, cfg.n_theta, cfg.n_r)
    area, gamma, holes = sample_field(model, quads)
    value_c = check_value_c(spec, gamma, holes)
    fundamental = check_fundamental(area, gamma, holes)
    reports = [
        check_divergence(spec, gamma, holes),
        value_c,
        check_pohozaev(area, gamma, holes),
        fundamental,
    ]
    # c is the outer-curve flux over |Gamma|; the identity's other side over
    # |Gamma| is a second, independent estimate of it
    gamma_len = quads.bounds.gamma.arc_length
    c, from_divergence = value_c.lhs / gamma_len, value_c.rhs / gamma_len
    mismatch = abs(from_divergence - c)
    if cfg.field_kind != "dirichlet":  # every other kind has u_nu = c on Gamma
        reports.append(
            check_overdetermined(gamma, holes, c, fundamental, value_c, cfg.overdet_tol)
        )
    assertions = []
    for rep in reports:
        assertions.append(
            Assertion(
                name=f"identity:{rep.identity}:rel_residual<={cfg.identity_rel_tol:g}",
                passed=rep.rel_residual <= cfg.identity_rel_tol,
                witness=f"rel_residual={rep.rel_residual:.3e}",
            )
        )
    assertions.append(
        Assertion(
            name="flux_constant_consistency",
            passed=mismatch <= 1e-5,
            witness=f"mismatch={mismatch:.3e}",
        )
    )
    rows = [_row(IDENTITY_COLUMNS, rep) for rep in reports]
    payload = {
        "field_model": model.to_dict(),
        "identities": [
            {**row, "breakdown": rep.breakdown, "extras": rep.extras}
            for row, rep in zip(rows, reports)
        ],
        "flux_constant": {
            "from_divergence": from_divergence,
            "from_average": c,
            "mismatch": mismatch,
        },
    }
    tables = {"identities": (IDENTITY_COLUMNS, rows)}
    return payload, tables, assertions


def _point_configs(cfg: ScenarioConfig):
    """(label, axis, value, point config) of each point of a stability run:
    the configured instance without a sweep, else one point per sweep value,
    the config with the swept field replaced."""
    if cfg.sweep_axis is None:
        yield "instance", "value", 0.0, cfg
    for v in cfg.sweep_values:
        if cfg.sweep_axis == "hole_radius":
            point = replace(cfg, holes=((0.0, 0.0, v, (v**2 - cfg.outer_radius**2) / 4.0),))
        elif cfg.field_kind == "cauchy-literal":
            point = replace(cfg, modes=((cfg.cauchy_k, v),))
        else:
            point = replace(cfg, cauchy_eps=v)
        yield f"{cfg.sweep_axis}={v:g}", cfg.sweep_axis, v, point


def _points(cfg: ScenarioConfig):
    """(label, axis, value, spec, model) of each point of a stability run,
    each point config built like a single run."""
    for label, axis, value, point in _point_configs(cfg):
        spec, model, _ = _build_field(point)
        yield label, axis, value, spec, model


def _stability_point(cfg: ScenarioConfig, point):
    """(stability report, instances row, report entry, assertions) of one
    point: the functionals, the growth and Hopf checks and the bound table."""
    label, axis, value, spec, model = point
    quads = build_quadratures(spec, cfg.n_theta, cfg.n_r)
    rep = stability_report(
        spec, model, quads, label=label, regime=cfg.regime, tol_overdet=cfg.overdet_tol,
        waive_overdetermination=cfg.field_kind == "dirichlet",
    )
    rng = np.random.default_rng(cfg.seed)
    pts = random_interior_points(spec, cfg.growth_samples, rng)
    growth = check_growth(model, spec, pts, rep.r_i)
    table = bound_table(spec, rep.c, rep.hole_c2_norm, rep.r_i, rep.d_omega)
    assertions = [
        Assertion("hypotheses_pass", rep.hypotheses_pass, witness=json.dumps(rep.hypotheses)),
        Assertion(
            "growth_bounds",
            growth.passed,
            witness=f"violations={growth.violations} min_slack={growth.min_slack:.3e}",
        ),
        Assertion(
            "hopf_bound",
            rep.hopf.passed,
            witness=f"violations={rep.hopf.violations} min_slack={rep.hopf.min_slack:.3e}",
        ),
    ]
    if table.c_in_bracket is not None:
        assertions.append(
            Assertion(
                "c_in_bracket",
                bool(table.c_in_bracket),
                witness=f"c={table.c_measured:.6f} in "
                f"[{table['c_lower']:.6f}, {table['c_upper_small_hole']:.6f}]",
            )
        )
    if rep.comparison is not None and rep.comparison.applicable:
        assertions.append(
            Assertion(
                "asymmetry_vs_pseudo_distance",
                rep.comparison.holds,
                witness=f"A={rep.comparison.asymmetry:.3e} <= "
                f"{rep.comparison.constant:.3e} * {rep.comparison.pseudo_distance_sqrt:.3e}",
            )
        )
    entry = {
        "stability": _report_from_stability(rep),
        "growth": {"violations": growth.violations, "min_slack": growth.min_slack},
        "hopf": {"violations": rep.hopf.violations, "min_slack": rep.hopf.min_slack},
        "bounds": _finite(table.entries),
        "c_in_bracket": table.c_in_bracket,
    }
    row = _row(INSTANCE_COLUMNS, rep, axis=axis, value=value, rho_gap=rep.rho_e - rep.rho_i)
    return rep, row, entry, assertions


def _loglog_slopes(values, rows, columns):
    """Least-squares slope and R^2 of log(column) vs log(axis), skipping
    nonpositive entries; nan when degenerate."""
    out = []
    x = np.asarray(values, dtype=float)
    for col in columns:
        y = np.array([r[col] for r in rows], dtype=float)
        mask = (x > 0) & (y > 0) & np.isfinite(y)
        if np.sum(mask) < 2 or np.ptp(np.log(x[mask])) < 1e-12:
            out.append({"column": col, "slope": math.nan, "r_squared": math.nan})
            continue
        lx, ly = np.log(x[mask]), np.log(y[mask])
        A = np.stack([lx, np.ones_like(lx)], axis=1)
        coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
        pred = A @ coef
        ss_res = float(np.sum((ly - pred) ** 2))
        ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan
        out.append({"column": col, "slope": float(coef[0]), "r_squared": r2})
    return out


def run_stability(cfg: ScenarioConfig):
    """Both stability experiments: every point gets the same checks.  A
    single instance runs on the calling thread; a sweep runs its points on
    the --threads pool, names each check '<label>:<check>' and adds the
    fitted constants and the log-log slopes."""
    points = list(_points(cfg))
    if cfg.sweep_axis is None:
        _, row, entry, assertions = _stability_point(cfg, points[0])
        payload = {"field_model": points[0][-1].to_dict(), **entry}
        return payload, {"instances": (INSTANCE_COLUMNS, [row])}, assertions
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        reports, rows, entries, checks = zip(*pool.map(partial(_stability_point, cfg), points))
    fitted, excluded = fit_constants(reports)
    slopes = _loglog_slopes(
        [r["value"] for r in rows], rows, ("pseudo_distance", "asymmetry", "rho_gap")
    )
    assertions = [
        Assertion(f"{rep.label}:{a.name}", a.passed, a.witness)
        for rep, point_checks in zip(reports, checks)
        for a in point_checks
    ]
    assertions.append(
        Assertion(
            "fitted_constants_finite",
            all(math.isfinite(v) for v in fitted.values()),
            witness=json.dumps({k: f"{v:.3e}" for k, v in fitted.items()}),
        )
    )
    payload = {
        "instances": entries,
        "fitted_constants": _finite(fitted),
        "excluded": list(excluded),
        "slopes": _finite(slopes),
    }
    summary = [("fitted", k, v, "") for k, v in sorted(fitted.items())] + [
        ("slope", s["column"], s["slope"], s["r_squared"]) for s in slopes
    ]
    names = [c for c, _ in SUMMARY_COLUMNS]
    tables = {
        "instances": (INSTANCE_COLUMNS, rows),
        "summary": (SUMMARY_COLUMNS, [dict(zip(names, entry)) for entry in summary]),
    }
    return payload, tables, assertions


def run_shapeflow(cfg: ScenarioConfig):
    spec = _build_spec(cfg)
    result = flow_to_constant_flux(spec)
    round_ = final_roundness(result)
    energies = [s.energy for s in result.trajectory]
    monotone = all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
    area0 = result.trajectory[0].area
    rows = [
        _row(TRAJECTORY_COLUMNS, s, rho_gap=roundness_gap(s.spec), area_drift=abs(s.area - area0) / area0)
        for s in result.trajectory
    ]
    assertions = [
        Assertion("flow_converged", result.converged, witness=result.reason),
        Assertion("energy_monotone_over_accepted_steps", monotone),
        Assertion(
            "volume_drift<=1e-5",
            round_["area_drift"] <= 1e-5,
            witness=f"drift={round_['area_drift']:.3e}",
        ),
        Assertion(
            "final_rho_gap<=5e-3",
            round_["rho_gap"] <= 5e-3,
            witness=f"rho_gap={round_['rho_gap']:.3e}",
        ),
    ]
    payload = {
        "flow": {
            "converged": result.converged,
            "stalled": result.stalled,
            "reason": result.reason,
            "iterations": len(result.trajectory) - 1,
            "final": round_,
        }
    }
    tables = {"trajectory": (TRAJECTORY_COLUMNS, rows)}
    return payload, tables, assertions


def run_poincare(cfg: ScenarioConfig):
    spec = _build_spec(cfg)
    quads = build_quadratures(spec, cfg.n_theta, cfg.n_r)
    d_om = diameter(spec)
    r_i = interior_sphere_radius(spec, d_omega=d_om)
    reports = poincare_ratio_experiment(
        spec, quads, cfg.poincare_triples,
        n_fields=cfg.poincare_n_fields, seed=cfg.seed, r_i=r_i, d_omega=d_om,
    )
    rows = [_row(POINCARE_COLUMNS, rep) for rep in reports]
    assertions = [
        Assertion(
            f"poincare_ratio_finite:r={rep.r:g},p={rep.p:g},alpha={rep.alpha:g}",
            math.isfinite(rep.max_ratio),
            witness=f"max_ratio={rep.max_ratio:.4e} normalized_bound={rep.normalized_bound:.4e}",
        )
        for rep in reports
    ]
    payload = {"poincare": rows}
    tables = {"poincare": (POINCARE_COLUMNS, rows)}
    return payload, tables, assertions


RUNNERS = {
    "identities": run_identities,
    "stability": run_stability,
    "cauchy-stability": run_stability,
    "shapeflow": run_shapeflow,
    "poincare": run_poincare,
}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

IDENTITY_COLUMNS = (
    ("identity", "identity id"),
    ("lhs", "left-hand side (area-quadrature path)"),
    ("rhs", "right-hand side (boundary-quadrature path)"),
    ("abs_residual", "|lhs - rhs|"),
    ("rel_residual", "|lhs - rhs| / (|lhs| + |rhs| + 1)"),
)

INSTANCE_COLUMNS = (
    ("axis", "sweep axis name"),
    ("value", "sweep axis value (domain units)"),
    ("label", "instance label"),
    ("eta", "smallness driver (total hole perimeter)"),
    ("holes_perimeter", "total hole boundary length"),
    ("pseudo_distance", "integral over outer curve of (|x-z|/N - c)^2 dS"),
    ("asymmetry", "|Omega sym-diff B_Nc(z)| / |B_Nc(z)|"),
    ("rho_gap", "enclosing minus inscribed radius about z"),
    ("psi_eta", "max{K, K^3} * eta"),
    ("tau_exponent", "radius-gap stability exponent"),
    ("c", "measured mean normal derivative on the outer curve"),
    ("r_i", "interior-sphere radius estimate"),
    ("d_omega", "domain diameter"),
    ("hole_c2_norm", "max over hole boundaries of |u|+|grad u|+|hess u|_F"),
    ("grad_max_tube", "max |grad u| on the boundary layer of width r_i"),
    ("hypotheses_pass", "1 if every hypothesis check passed"),
)

SUMMARY_COLUMNS = (
    ("kind", "'fitted' (max LHS/driver ratio) or 'slope' (log-log fit)"),
    ("name", "inequality ratio or column name"),
    ("value", "fitted constant or slope"),
    ("r_squared", "R^2 of the log-log fit (slopes only)"),
)

TRAJECTORY_COLUMNS = (
    ("iteration", "flow iteration index"),
    ("energy", "(1/2) integral |grad u|^2"),
    ("u_nu_mean", "dS-weighted mean of u_nu on the outer curve"),
    ("u_nu_std", "dS-weighted std of u_nu on the outer curve"),
    ("flatness", "std/mean of u_nu (termination metric)"),
    ("rho_gap", "enclosing minus inscribed radius about the barycenter"),
    ("step", "accepted step size"),
    ("area_drift", "relative area drift from the initial shape"),
)

POINCARE_COLUMNS = (
    ("r", "target norm exponent"),
    ("p", "gradient norm exponent"),
    ("alpha", "distance-weight exponent"),
    ("case", "admissibility case ('weighted' or 'unweighted')"),
    ("n_fields", "number of random harmonic fields"),
    ("max_ratio", "max ||v - mean||_r / ||delta^alpha grad v||_p"),
    ("normalized_bound", "closed-form bound with unit prefactor (normalized)"),
)


def _row(columns, obj, **computed):
    """One table row: column c is computed[c] if given, else obj.c."""
    return {c: computed[c] if c in computed else getattr(obj, c) for c, _ in columns}


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_tables(out_dir: Path, tables: dict) -> dict:
    schema = {}
    tdir = out_dir / "tables"
    tdir.mkdir(parents=True, exist_ok=True)
    for name, (columns, rows) in tables.items():
        cols = [c for c, _ in columns]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in cols))
        (tdir / f"{name}.csv").write_text("\n".join(lines) + "\n")
        schema[f"tables/{name}.csv"] = {c: desc for c, desc in columns}
    return schema


def execute(cfg: ScenarioConfig):
    t0 = time.perf_counter()
    with _blas.one_thread() as blas_threads:
        payload, tables, assertions = RUNNERS[cfg.experiment](cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema = write_tables(out, tables)
    (out / "schema.json").write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.raw,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "environment": {
            "package_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "kernel_backend": _kernels.BACKEND,
            "blas_threads": blas_threads,
        },
        "wall_time_s": time.perf_counter() - t0,
        "assertions": [
            {"name": a.name, "passed": bool(a.passed), "witness": a.witness}
            for a in assertions
        ],
        "results": _finite(payload),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report, assertions


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if args.out is not None:
        cfg.out_dir = args.out
    for key in ("seed", "threads"):
        if getattr(args, key) is not None:
            name, rule, _ = _KEYS[key]
            setattr(cfg, name, rule(f"--{key}", getattr(args, key)))
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Numerical laboratory for overdetermined torsion problems on holed planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("run", "execute one experiment from a config file"),
        ("sweep", "execute a sweep experiment (requires sweep.axis and sweep.values)"),
        ("validate", "parse and validate a config file"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the scenario config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None, help="worker threads for sweeps")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "validate":
            print(f"config ok: experiment={cfg.experiment} seed={cfg.seed}")
            return 0
        if args.command == "sweep" and cfg.sweep_axis is None:
            raise ConfigError("sweep.axis", "the sweep command needs sweep.axis and sweep.values")
        report, assertions = execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidDomainError as exc:
        print(f"config error: domain invariant violated: {exc}", file=sys.stderr)
        return 2
    except (SolverConvergenceError, OverdeterminationError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1

    for a in assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {a.name}" + (f"  ({a.witness})" if a.witness else ""))
    failed = [a for a in assertions if not a.passed]
    if failed:
        print(f"first failure: {failed[0].name}: {failed[0].witness}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
