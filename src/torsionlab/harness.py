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
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _kernels
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
    compute_flux_constant,
)
from .shapeflow import final_roundness, flow_to_constant_flux, roundness_gap
from .solver import (
    SolverConvergenceError,
    carve_holes,
    overdetermined_instance,
    radial_annulus_model,
    radial_reference,
    solve_cauchy,
    solve_dirichlet,
)
from .stability import (
    REGIMES,
    ExponentTripleError,
    bound_table,
    check_growth,
    check_hopf,
    fit_constants,
    poincare_ratio_experiment,
    stability_report,
    validate_poincare_triple,
)

SCHEMA_VERSION = "2"

EXPERIMENTS = ("identities", "stability", "cauchy-stability", "shapeflow", "poincare")

SWEEP_AXES = ("eps", "hole_radius")


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


# every key a config may set; anything else is a typo, not a default
CONFIG_KEYS = frozenset(
    {
        "experiment",
        "seed",
        "out_dir",
        "threads",
        "domain.outer_radius",
        "domain.modes",
        "domain.holes",
        "field.kind",
        "quadrature.n_theta",
        "quadrature.n_r",
        "tolerances.identity_rel",
        "tolerances.overdet",
        "tolerances.growth_samples",
        "sweep.axis",
        "sweep.values",
        "stability.regime",
        "cauchy.c",
        "cauchy.k",
        "cauchy.eps",
        "poincare.triples",
        "poincare.n_fields",
    }
)


def _key_paths(tree, prefix=""):
    """Dotted paths of the leaves of a parsed config tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def _get(tree, path, default=None, required=False):
    node = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[part]
    return node


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


def _number(tree, path, default, kind=float):
    return _typed(path, _get(tree, path, default), kind)


def _lists_of(path, value, size, what):
    """value as a list of size-element lists, else a ConfigError naming path."""
    if not isinstance(value, list) or not all(
        isinstance(v, list) and len(v) == size for v in value
    ):
        raise ConfigError(path, f"expected a list of {what}")
    return value


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
    raw: dict = dc_field(default_factory=dict)


def validate_config(tree: dict) -> ScenarioConfig:
    for path in _key_paths(tree):
        if path not in CONFIG_KEYS:
            raise ConfigError(path, "unknown key")
    exp = _get(tree, "experiment", required=True)
    if exp not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {exp!r}")
    cfg = ScenarioConfig(experiment=exp, raw=tree)
    cfg.seed = _number(tree, "seed", 0, int)
    cfg.out_dir = _get(tree, "out_dir", "run_output")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError("out_dir", f"expected a path string, got {cfg.out_dir!r}")
    cfg.threads = _number(tree, "threads", 1, int)
    if cfg.threads < 1:
        raise ConfigError("threads", f"must be >= 1, got {cfg.threads}")
    cfg.outer_radius = _number(tree, "domain.outer_radius", 1.0)
    if cfg.outer_radius <= 0:
        raise ConfigError("domain.outer_radius", "must be positive")
    modes = _lists_of(
        "domain.modes", _get(tree, "domain.modes", []), 2, "[wavenumber, amplitude] pairs"
    )
    cfg.modes = tuple(
        (_typed(f"domain.modes[{i}]", k, int), _typed(f"domain.modes[{i}]", e, float))
        for i, (k, e) in enumerate(modes)
    )
    holes = _lists_of("domain.holes", _get(tree, "domain.holes", []), 4, "[cx, cy, radius, g]")
    cfg.holes = tuple(
        tuple(_typed(f"domain.holes[{i}]", v, float) for v in h) for i, h in enumerate(holes)
    )
    cfg.field_kind = str(_get(tree, "field.kind", "dirichlet"))
    if cfg.field_kind not in ("radial", "dirichlet", "overdetermined", "cauchy-literal"):
        raise ConfigError("field.kind", f"unknown field kind {cfg.field_kind!r}")
    if cfg.field_kind == "overdetermined" and cfg.modes:
        raise ConfigError(
            "domain.modes",
            "overdetermined instances build their own outer curve; leave domain.modes unset",
        )
    if cfg.field_kind == "overdetermined" and _get(tree, "domain.outer_radius") is not None:
        raise ConfigError(
            "domain.outer_radius",
            "overdetermined instances build their own outer curve; leave domain.outer_radius unset",
        )
    cfg.n_theta = _number(tree, "quadrature.n_theta", 256, int)
    cfg.n_r = _number(tree, "quadrature.n_r", 48, int)
    if cfg.n_theta < 64 or cfg.n_theta % 2:
        raise ConfigError("quadrature.n_theta", "must be even and >= 64")
    if cfg.n_r < 4:
        raise ConfigError("quadrature.n_r", f"must be >= 4, got {cfg.n_r}")
    cfg.identity_rel_tol = _number(tree, "tolerances.identity_rel", 1e-4)
    cfg.overdet_tol = _number(tree, "tolerances.overdet", 1e-6)
    cfg.growth_samples = _number(tree, "tolerances.growth_samples", 10000, int)
    if cfg.growth_samples < 1:
        raise ConfigError(
            "tolerances.growth_samples", f"must be >= 1, got {cfg.growth_samples}"
        )
    cfg.sweep_axis = _get(tree, "sweep.axis", None)
    values = _get(tree, "sweep.values", [])
    if not isinstance(values, list):
        raise ConfigError("sweep.values", "expected a list of numbers")
    cfg.sweep_values = tuple(_typed(f"sweep.values[{i}]", v, float) for i, v in enumerate(values))
    if list(cfg.sweep_values) != sorted(cfg.sweep_values):
        raise ConfigError("sweep.values", "values must be sorted ascending")
    cfg.regime = str(_get(tree, "stability.regime", "sphere-condition"))
    if cfg.regime not in REGIMES:
        raise ConfigError("stability.regime", f"must be one of {REGIMES}, got {cfg.regime!r}")
    cfg.cauchy_c = _number(tree, "cauchy.c", 0.5)
    cfg.cauchy_k = _number(tree, "cauchy.k", 3, int)
    cfg.cauchy_eps = _number(tree, "cauchy.eps", 0.01)
    triples = _lists_of(
        "poincare.triples", _get(tree, "poincare.triples", [[2.0, 2.0, 0.5]]), 3,
        "[r, p, alpha] triples",
    )
    cfg.poincare_triples = tuple(
        tuple(_typed(f"poincare.triples[{i}]", x, float) for x in t) for i, t in enumerate(triples)
    )
    if exp == "poincare":
        for i, (r, p, alpha) in enumerate(cfg.poincare_triples):
            try:
                validate_poincare_triple(r, p, alpha)
            except ExponentTripleError as err:
                raise ConfigError(f"poincare.triples[{i}]", str(err)) from None
    cfg.poincare_n_fields = _number(tree, "poincare.n_fields", 50, int)
    if cfg.poincare_n_fields < 1:
        raise ConfigError("poincare.n_fields", f"must be >= 1, got {cfg.poincare_n_fields}")
    _validate_sweep(cfg)
    return cfg


def _validate_sweep(cfg: ScenarioConfig):
    """A sweep experiment declares its axis and values; the axis fixes the
    field kind and the holes (there is no default hole)."""
    axis = cfg.sweep_axis
    if cfg.experiment == "cauchy-stability":
        if axis is None:
            raise ConfigError("sweep.axis", "sweep requires a declared axis")
        if not cfg.sweep_values:
            raise ConfigError("sweep.values", "sweep requires a nonempty, sorted value list")
    if axis is None:
        return
    if axis not in SWEEP_AXES:
        raise ConfigError("sweep.axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
    if axis == "hole_radius":
        if cfg.holes:
            raise ConfigError(
                "domain.holes",
                "hole_radius sweeps build their own centered hole; leave domain.holes unset",
            )
        if cfg.field_kind != "radial":
            raise ConfigError("field.kind", "hole_radius sweeps use field.kind=radial")
    elif cfg.field_kind not in ("overdetermined", "cauchy-literal"):
        raise ConfigError(
            "field.kind",
            f"eps sweeps use field.kind=overdetermined or cauchy-literal, got {cfg.field_kind!r}",
        )
    elif cfg.field_kind == "overdetermined" and len(cfg.holes) != 1:
        raise ConfigError(
            "domain.holes",
            f"eps sweeps of overdetermined instances use exactly one hole, got {len(cfg.holes)}",
        )


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


def _build_field(cfg: ScenarioConfig, spec: DomainSpec):
    """(spec, model, extras) for the configured field kind; the spec may be
    replaced (hole carving, free-boundary construction)."""
    if cfg.field_kind == "radial":
        if any(abs(h.center[0]) + abs(h.center[1]) > 0 for h in spec.holes):
            raise ConfigError("field.kind", "radial fields need holes centered at the origin")
        if len(spec.holes) > 1:
            raise ConfigError("field.kind", "radial fields support at most one hole")
        if spec.holes:
            h = spec.holes[0]
            model = radial_annulus_model(spec.outer_radius, h.radius, h.dirichlet_value)
        else:
            model = radial_reference(spec.outer_radius).as_field_model()
        return spec, model, {}
    if cfg.field_kind == "dirichlet":
        model, diag = solve_dirichlet(spec)
        return spec, model, {"solver": diag}
    if cfg.field_kind == "overdetermined":
        if len(spec.holes) != 1:
            raise ConfigError("domain.holes", "overdetermined instances use exactly one hole")
        h = spec.holes[0]
        inst = overdetermined_instance(
            cfg.cauchy_eps, c=cfg.cauchy_c, hole_center=h.center, hole_radius=h.radius
        )
        return inst.spec, inst.model, {"instance": inst}
    # cauchy-literal: continue from the hole-free curve, then carve
    bare = DomainSpec(spec.outer_radius, spec.fourier_modes, ())
    model, diag = solve_cauchy(bare, cfg.cauchy_c, future_holes=spec.holes)
    return carve_holes(bare, spec.holes), model, {"solver": diag}


# ---------------------------------------------------------------------------
# Assertions and reporting plumbing
# ---------------------------------------------------------------------------


@dataclass
class Assertion:
    name: str
    passed: bool
    witness: str = ""


def _identity_rows(model, spec, quads, c, tol_overdet, include_overdet):
    reports = [
        check_divergence(spec, quads),
        check_value_c(model, spec, quads),
        check_pohozaev(model, spec, quads),
        check_fundamental(model, spec, quads),
    ]
    if include_overdet:
        reports.append(check_overdetermined(model, spec, c, quads, tol_overdet))
    return reports


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
    """Every StabilityReport field but the comparison, in declaration order."""
    return _finite({f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "comparison"})


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_identities(cfg: ScenarioConfig):
    spec = _build_spec(cfg)
    spec, model, extras = _build_field(cfg, spec)
    quads = build_quadratures(spec, cfg.n_theta, cfg.n_r)
    fc = compute_flux_constant(spec, model, quads)
    include_overdet = cfg.field_kind in ("radial", "overdetermined", "cauchy-literal")
    reports = _identity_rows(
        model, spec, quads, fc.from_average, cfg.overdet_tol, include_overdet
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
            passed=not fc.inconsistent,
            witness=f"mismatch={fc.mismatch:.3e}",
        )
    )
    rows = [
        {
            "identity": rep.identity,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "abs_residual": rep.abs_residual,
            "rel_residual": rep.rel_residual,
        }
        for rep in reports
    ]
    payload = {
        "field_model": model.to_dict(),
        "identities": [
            {
                "identity": r.identity,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "abs_residual": r.abs_residual,
                "rel_residual": r.rel_residual,
                "breakdown": r.breakdown,
                "extras": r.extras,
            }
            for r in reports
        ],
        "flux_constant": {
            "from_divergence": fc.from_divergence,
            "from_average": fc.from_average,
            "mismatch": fc.mismatch,
        },
    }
    tables = {"identities": (IDENTITY_COLUMNS, rows)}
    return payload, tables, assertions


def _single_stability(cfg, spec, model, label="instance"):
    """(stability report, growth check, Hopf check) of one instance."""
    quads = build_quadratures(spec, cfg.n_theta, cfg.n_r)
    d_om = diameter(spec)
    r_i = interior_sphere_radius(spec, d_omega=d_om)
    rep = stability_report(
        spec,
        model,
        quads,
        label=label,
        regime=cfg.regime,
        tol_overdet=cfg.overdet_tol,
        waive_overdetermination=cfg.field_kind == "dirichlet",
        r_i=r_i,
        d_omega=d_om,
    )
    rng = np.random.default_rng(cfg.seed)
    pts = random_interior_points(spec, cfg.growth_samples, rng)
    growth = check_growth(model, spec, pts, r_i)
    hopf = check_hopf(model, quads.bounds.gamma, r_i)
    return rep, growth, hopf


def run_stability(cfg: ScenarioConfig):
    spec = _build_spec(cfg)
    spec, model, extras = _build_field(cfg, spec)
    rep, growth, hopf = _single_stability(cfg, spec, model)
    table = bound_table(spec, rep.c, rep.hole_c2_norm, rep.r_i, rep.d_omega)
    assertions = [
        Assertion(
            "hypotheses_pass",
            rep.hypotheses_pass,
            witness=json.dumps(rep.hypotheses),
        ),
        Assertion(
            "growth_bounds",
            growth.passed,
            witness=f"violations={growth.violations} min_slack={growth.min_slack:.3e}",
        ),
        Assertion(
            "hopf_bound",
            hopf.passed,
            witness=f"violations={hopf.violations} min_slack={hopf.min_slack:.3e}",
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
    payload = {
        "field_model": model.to_dict(),
        "stability": _report_from_stability(rep),
        "growth": {"violations": growth.violations, "min_slack": growth.min_slack},
        "hopf": {"violations": hopf.violations, "min_slack": hopf.min_slack},
        "bounds": _finite(table.entries),
        "c_in_bracket": table.c_in_bracket,
    }
    rows = [_stability_row(cfg.sweep_axis or "value", 0.0, rep)]
    tables = {"instances": (INSTANCE_COLUMNS, rows)}
    return payload, tables, assertions


def _stability_row(axis, value, rep):
    return {
        "axis": axis,
        "value": value,
        "label": rep.label,
        "eta": rep.eta,
        "holes_perimeter": rep.holes_perimeter,
        "pseudo_distance": rep.pseudo_distance,
        "asymmetry": rep.asymmetry,
        "rho_gap": rep.rho_e - rep.rho_i,
        "psi_eta": rep.psi_eta,
        "tau_exponent": rep.tau_exponent,
        "c": rep.c,
        "r_i": rep.r_i,
        "d_omega": rep.d_omega,
        "hole_c2_norm": rep.hole_c2_norm,
        "grad_max_tube": rep.grad_max_tube,
        "hypotheses_pass": int(rep.hypotheses_pass),
    }


def _sweep_instances(cfg: ScenarioConfig):
    """(label, value, spec, model) per sweep point; each point is the config
    with the swept field replaced, built like a single run."""
    out = []
    for v in cfg.sweep_values:
        if cfg.sweep_axis == "hole_radius":
            point = replace(cfg, holes=((0.0, 0.0, v, (v**2 - cfg.outer_radius**2) / 4.0),))
        elif cfg.field_kind == "cauchy-literal":
            point = replace(cfg, modes=((cfg.cauchy_k, v),))
        else:
            point = replace(cfg, cauchy_eps=v)
        spec, model, _ = _build_field(point, _build_spec(point))
        out.append((f"{cfg.sweep_axis}={v:g}", v, spec, model))
    return out


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


def run_cauchy_stability(cfg: ScenarioConfig):
    instances = _sweep_instances(cfg)
    reports = []
    failures = []
    labels, values, specs, models = zip(*instances)
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list(pool.map(partial(_single_stability, cfg), specs, models, labels))

    rows = []
    for v, (rep, growth, hopf) in zip(values, results):
        rows.append(_stability_row(cfg.sweep_axis, v, rep))
        reports.append(rep)
        if not rep.hypotheses_pass:
            failures.append((rep.label, rep.hypotheses))
        if not growth.passed or not hopf.passed:
            failures.append((rep.label, {"growth": growth.passed, "hopf": hopf.passed}))
    fitted, excluded = fit_constants(reports)
    slopes = _loglog_slopes(
        [r["value"] for r in rows], rows, ("pseudo_distance", "asymmetry", "rho_gap")
    )
    assertions = [
        Assertion(
            "all_instances_pass_hypotheses",
            not failures,
            witness="; ".join(f"{lbl}: {h}" for lbl, h in failures) or "all pass",
        ),
        Assertion(
            "fitted_constants_finite",
            all(math.isfinite(v) for v in fitted.values()),
            witness=json.dumps({k: f"{v:.3e}" for k, v in fitted.items()}),
        ),
    ]
    payload = {
        "instances": [_report_from_stability(r) for r in reports],
        "fitted_constants": _finite(fitted),
        "excluded": list(excluded),
        "slopes": _finite(slopes),
    }
    tables = {
        "instances": (INSTANCE_COLUMNS, rows),
        "summary": (
            SUMMARY_COLUMNS,
            [{"kind": "fitted", "name": k, "value": v, "r_squared": ""} for k, v in sorted(fitted.items())]
            + [
                {"kind": "slope", "name": s["column"], "value": s["slope"], "r_squared": s["r_squared"]}
                for s in slopes
            ],
        ),
    }
    return payload, tables, assertions


def run_shapeflow(cfg: ScenarioConfig):
    spec = _build_spec(cfg)
    result = flow_to_constant_flux(spec)
    round_ = final_roundness(result)
    energies = [s.energy for s in result.trajectory]
    monotone = all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
    rows = []
    area0 = result.trajectory[0].area
    for s in result.trajectory:
        rows.append(
            {
                "iteration": s.iteration,
                "energy": s.energy,
                "u_nu_mean": s.u_nu_mean,
                "u_nu_std": s.u_nu_std,
                "flatness": s.flatness,
                "rho_gap": roundness_gap(s.spec),
                "step": s.step,
                "area_drift": abs(s.area - area0) / area0,
            }
        )
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
    rows = []
    assertions = []
    reports = poincare_ratio_experiment(
        spec, quads, cfg.poincare_triples,
        n_fields=cfg.poincare_n_fields, seed=cfg.seed, r_i=r_i, d_omega=d_om,
    )
    for rep in reports:
        rows.append(
            {
                "r": rep.r,
                "p": rep.p,
                "alpha": rep.alpha,
                "case": rep.case,
                "n_fields": rep.n_fields,
                "max_ratio": rep.max_ratio,
                "normalized_bound": rep.normalized_bound,
            }
        )
        assertions.append(
            Assertion(
                f"poincare_ratio_finite:r={rep.r:g},p={rep.p:g},alpha={rep.alpha:g}",
                math.isfinite(rep.max_ratio),
                witness=f"max_ratio={rep.max_ratio:.4e} normalized_bound={rep.normalized_bound:.4e}",
            )
        )
    payload = {"poincare": rows}
    tables = {"poincare": (POINCARE_COLUMNS, rows)}
    return payload, tables, assertions


RUNNERS = {
    "identities": run_identities,
    "stability": run_stability,
    "cauchy-stability": run_cauchy_stability,
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
            lines.append(",".join(_fmt(row.get(c, "")) for c in cols))
        (tdir / f"{name}.csv").write_text("\n".join(lines) + "\n")
        schema[f"tables/{name}.csv"] = {c: desc for c, desc in columns}
    return schema


def execute(cfg: ScenarioConfig):
    t0 = time.perf_counter()
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
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        cfg.threads = args.threads
    if args.seed is not None:
        cfg.seed = args.seed
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
        if args.command == "sweep":
            if not cfg.sweep_axis or not cfg.sweep_values:
                raise ConfigError("sweep", "sweep requires sweep.axis and nonempty sweep.values")
            cfg.experiment = "cauchy-stability"  # the sweep driver; axis picks the family
        report, assertions = execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidDomainError as exc:
        print(f"config error: domain invariant violated: {exc}", file=sys.stderr)
        return 2
    except ExponentTripleError as exc:
        print(f"config error: poincare.triples: {exc}", file=sys.stderr)
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
