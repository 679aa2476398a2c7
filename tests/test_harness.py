import csv
import dataclasses
import json
import math
import re
import threading
from pathlib import Path

import pytest

from torsionlab import _blas, harness, shapeflow
from torsionlab.geometry import build_quadratures
from torsionlab.harness import (
    ConfigError,
    ScenarioConfig,
    load_config,
    main,
    parse_config_text,
    validate_config,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CONFIGS = Path(__file__).parent.parent / "configs"


def shipped(name):
    return (CONFIGS / f"{name}.cfg").read_text()


RADIAL_IDENTITIES = """
experiment = "identities"
seed = 0
domain.outer_radius = 1.0
domain.holes = [[0.0, 0.0, 0.2, -0.24]]
field.kind = "radial"
quadrature.n_theta = 256
quadrature.n_r = 48
tolerances.identity_rel = 1e-8
"""

# the same instance for a stability experiment, which reads no identity tolerance
RADIAL_STABILITY = RADIAL_IDENTITIES.replace('"identities"', '"stability"').replace(
    "tolerances.identity_rel = 1e-8\n", ""
)

SWEEP_EPS = """
experiment = "cauchy-stability"
seed = 3
domain.holes = [[0.4, 0.0, 0.1, 0.0]]
field.kind = "overdetermined"
sweep.axis = "eps"
sweep.values = [0.01, 0.02]
quadrature.n_theta = 192
quadrature.n_r = 32
tolerances.growth_samples = 2000
"""

# one point of SWEEP_EPS as a single stability run
OVERDETERMINED_RUN = (
    SWEEP_EPS.replace('"cauchy-stability"', '"stability"')
    .replace('sweep.axis = "eps"\n', "")
    .replace("sweep.values = [0.01, 0.02]\n", "")
)

SWEEP_RADIAL = """
experiment = "cauchy-stability"
seed = 1
field.kind = "radial"
sweep.axis = "hole_radius"
sweep.values = [0.05, 0.1, 0.2]
quadrature.n_theta = 192
quadrature.n_r = 32
tolerances.growth_samples = 2000
"""

SHAPEFLOW = """
experiment = "shapeflow"
domain.outer_radius = 1.0
domain.modes = [[3, 0.05]]
"""

POINCARE = """
experiment = "poincare"
domain.outer_radius = 1.0
poincare.n_fields = 3
"""


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


def test_parse_key_tree():
    tree = parse_config_text("a.b = 1\na.c = [1, 2]\nd = \"x\"  # comment\n")
    assert tree == {"a": {"b": 1, "c": [1, 2]}, "d": "x"}


def test_parse_rejects_bad_json():
    with pytest.raises(ConfigError):
        parse_config_text("a = not json")


def test_validate_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({"experiment": "nope"})


def test_validate_rejects_unsorted_sweep():
    tree = parse_config_text(SWEEP_EPS.replace("[0.01, 0.02]", "[0.02, 0.01]"))
    with pytest.raises(ConfigError, match="sweep.values"):
        validate_config(tree)


def test_validate_names_field_path():
    tree = parse_config_text("experiment = \"identities\"\nquadrature.n_theta = 63\n")
    with pytest.raises(ConfigError, match="quadrature.n_theta"):
        validate_config(tree)


def test_validate_rejects_unknown_key():
    tree = parse_config_text(RADIAL_IDENTITIES + "quadrature.ntheta = 128\n")
    with pytest.raises(ConfigError, match=r"'quadrature\.ntheta': unknown key"):
        validate_config(tree)
    with pytest.raises(ConfigError) as err:
        validate_config(parse_config_text(RADIAL_IDENTITIES + "domain = 3\n"))
    assert err.value.path == "domain"


# a typo, and the keys of solver and flow settings that are fixed constants
@pytest.mark.parametrize(
    "line",
    [
        "quadrature.ntheta = 128",
        "solver.n_src_per_ring = 96",
        "solver.offset_ratio = 1.8",
        "solver.tikhonov = 0.0",
        "flow.max_iters = 200",
        "flow.flatness_tol = 1e-3",
    ],
    ids=lambda line: line.split(" ")[0],
)
def test_unknown_key_exits_two(tmp_path, capsys, line):
    key = line.split(" ")[0]
    cfg = write(tmp_path, "typo.cfg", RADIAL_IDENTITIES + line + "\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"'{key}': unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cauchy_eps_is_a_known_key():
    text = OVERDETERMINED_RUN + "cauchy.eps = 0.02\n"
    tree = parse_config_text(text)
    assert validate_config(tree).cauchy_eps == 0.02


def test_threads_below_one_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="threads"):
        validate_config(parse_config_text(SWEEP_EPS + "threads = 0\n"))
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out"), "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_negative_seed_override_rejected(tmp_path, capsys):
    # np.random.default_rng used to raise a ValueError traceback at run time
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    for command in ("validate", "run", "sweep"):
        assert main([command, cfg, "--out", str(tmp_path / "out"), "--seed", "-2"]) == 2
        assert "'--seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, path",
    [
        ('threads = "x"', "threads"),
        ("threads = 1.5", "threads"),
        ("seed = true", "seed"),
        ("quadrature.n_r = [32]", "quadrature.n_r"),
        ('tolerances.identity_rel = "1e-8"', "tolerances.identity_rel"),
        ("tolerances.overdet = NaN", "tolerances.overdet"),
        ('domain.holes = [[0.0, 0.0, "r", -0.24]]', "domain.holes[0]"),
        ("domain.modes = [[3]]", "domain.modes"),
        ("poincare.triples = [[2, 2]]", "poincare.triples"),
        ("tolerances.growth_samples = 0", "tolerances.growth_samples"),
        ("tolerances.growth_samples = -3", "tolerances.growth_samples"),
        ("quadrature.n_r = 3", "quadrature.n_r"),
        ('out_dir = ["a", "b"]', "out_dir"),
        ("seed = -1", "seed"),
        # a negative eps used to escape as a ValueError traceback (exit 1)
        ("cauchy.eps = -0.01", "cauchy.eps"),
        (
            'field.kind = "cauchy-literal"\nsweep.axis = "eps"\nsweep.values = [-0.01, 0.02]',
            "sweep.values[0]",
        ),
        # c <= 0 used to run the free-boundary iteration to a residual of 1e20
        ("cauchy.c = -0.5", "cauchy.c"),
        ("cauchy.c = 0", "cauchy.c"),
        # a tolerance <= 0 used to fail every identity assertion
        ("tolerances.identity_rel = 0", "tolerances.identity_rel"),
        ("tolerances.overdet = -1e-6", "tolerances.overdet"),
        # k < 1 used to be a domain invariant error that did not name the key
        ("cauchy.k = 0", "cauchy.k"),
    ],
)
def test_bad_value_type_exits_two(tmp_path, capsys, line, path):
    # a value of the wrong type or out of range used to escape as a numpy
    # ValueError traceback (or, for out_dir, name a directory after the list)
    # only the stability experiments read sweep keys
    base = RADIAL_STABILITY if "sweep." in line else RADIAL_IDENTITIES
    with pytest.raises(ConfigError) as err:
        validate_config(parse_config_text(base + line + "\n"))
    assert err.value.path == path
    cfg = write(tmp_path, "bad.cfg", base + line + "\n")
    for command in ("validate", "run", "sweep"):
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"'{path}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["identities", "stability", "shapeflow", "poincare"])
def test_every_key_accepts_its_default(experiment):
    # each rule accepts its field's default, so spelling out a default of a
    # key the default run reads changes nothing; the default field kind
    # (dirichlet, no sweep) reads no cauchy key and no overdetermination
    # tolerance
    defaults = ScenarioConfig(experiment)
    lines = [f'experiment = "{experiment}"']
    for path, (name, _, (_, reads)) in harness._KEYS.items():
        if path != "experiment" and reads(defaults):
            lines.append(f"{path} = {json.dumps(getattr(defaults, name))}")
    assert len(lines) == {"identities": 11, "stability": 14, "shapeflow": 6, "poincare": 11}[
        experiment
    ]
    spelled = validate_config(parse_config_text("\n".join(lines)))
    empty = validate_config(parse_config_text(lines[0]))
    assert spelled == empty == defaults


def test_whole_float_accepted_for_integer_key():
    cfg = validate_config(parse_config_text(RADIAL_STABILITY + "tolerances.growth_samples = 1e3\n"))
    assert cfg.growth_samples == 1000 and isinstance(cfg.growth_samples, int)


def test_unknown_regime_exits_two(tmp_path, capsys):
    # an unknown regime used to run and be reported under its own name
    text = RADIAL_IDENTITIES.replace('"identities"', '"stability"') + 'stability.regime = "bogus"\n'
    with pytest.raises(ConfigError, match="stability.regime"):
        validate_config(parse_config_text(text))
    cfg = write(tmp_path, "regime.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "stability.regime" in capsys.readouterr().err


def test_poincare_n_fields_below_one_exits_two(tmp_path, capsys):
    # zero fields used to pass poincare_ratio_finite with max_ratio = 0
    text = """
experiment = "poincare"
domain.outer_radius = 1.0
poincare.n_fields = 0
"""
    cfg = write(tmp_path, "nfields.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "poincare.n_fields" in capsys.readouterr().err


def test_sweep_hole_radius_rejects_holes(tmp_path, capsys):
    # the hole_radius family builds its own centered hole; configured holes
    # used to be ignored
    text = SWEEP_RADIAL + "domain.holes = [[0.3, 0.0, 0.1, 0.0]]\n"
    cfg = write(tmp_path, "radial_holes.cfg", text)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "domain.holes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, path",
    [
        (SWEEP_EPS.replace('sweep.axis = "eps"', 'sweep.axis = "radius"'), "sweep.axis"),
        (SWEEP_RADIAL + "domain.holes = [[0.3, 0.0, 0.1, 0.0]]\n", "domain.holes"),
        (SWEEP_EPS.replace('field.kind = "overdetermined"\n', ""), "field.kind"),
        (SWEEP_EPS.replace("0.1, 0.0]]", "0.1, 0.0], [-0.4, 0.0, 0.1, 0.0]]"), "domain.holes"),
        (SWEEP_EPS.replace("domain.holes = [[0.4, 0.0, 0.1, 0.0]]\n", ""), "domain.holes"),
        (SWEEP_EPS + "domain.modes = [[3, 0.05]]\n", "domain.modes"),
        (SWEEP_EPS + "domain.outer_radius = 1.0\n", "domain.outer_radius"),
        # validate used to pass these and run or sweep to exit 2
        (RADIAL_IDENTITIES.replace("[[0.0, 0.0,", "[[0.3, 0.0,"), "domain.holes"),
        (RADIAL_IDENTITIES.replace("-0.24]]", "-0.24], [0.5, 0.0, 0.1, -0.1]]"), "domain.holes"),
        (
            SWEEP_EPS.replace('"cauchy-stability"', '"stability"')
            .replace('sweep.axis = "eps"\n', "")
            .replace("domain.holes = [[0.4, 0.0, 0.1, 0.0]]\n", ""),
            "domain.holes",
        ),
        # the exact annulus field used to be checked on a perturbed curve
        (RADIAL_IDENTITIES + "domain.modes = [[3, 0.05]]\n", "domain.modes"),
        # a hole radius >= R used to be blamed on the hole's Dirichlet value
        (SWEEP_RADIAL.replace("0.2]", "1.0]"), "sweep.values[2]"),
        # the flow refits a hole-free curve, so a hole used to vanish after step 0
        (SHAPEFLOW + "domain.holes = [[0.3, 0.0, 0.1, 0.0]]\n", "domain.holes"),
        # keys the experiment never reads used to be accepted and ignored
        (
            SHAPEFLOW
            + "quadrature.n_theta = 64\ntolerances.identity_rel = 1e-30\ncauchy.c = 7.0\n",
            "quadrature.n_theta",
        ),
        (POINCARE + 'field.kind = "radial"\n', "field.kind"),
        (RADIAL_IDENTITIES + 'sweep.axis = "eps"\n', "sweep.axis"),
        (RADIAL_STABILITY + "sweep.values = [0.01, 0.02]\n", "sweep.values"),
        # cauchy keys the field kind never reads used to be accepted and ignored
        (shipped("stability_dirichlet") + "cauchy.c = 7.0\n", "cauchy.c"),
        (shipped("sweep_overdetermined") + "cauchy.k = 5\n", "cauchy.k"),
        (shipped("sweep_overdetermined") + "cauchy.eps = 0.3\n", "cauchy.eps"),
        (
            SWEEP_EPS.replace('"overdetermined"', '"cauchy-literal"').replace(
                "sweep.values = [0.01, 0.02]", "sweep.values = [0.01, 0.02]\ncauchy.eps = 0.3"
            ),
            "cauchy.eps",
        ),
        (OVERDETERMINED_RUN + "cauchy.k = 5\n", "cauchy.k"),
        # the free-boundary builder makes its hole with g = 0, so another g
        # used to be ignored
        (SWEEP_EPS.replace("0.1, 0.0]]", "0.1, -0.5]]"), "domain.holes"),
        (OVERDETERMINED_RUN.replace("0.1, 0.0]]", "0.1, -0.5]]"), "domain.holes"),
        # each point of a cauchy-literal eps sweep replaces the modes
        (
            SWEEP_EPS.replace('"overdetermined"', '"cauchy-literal"')
            + "domain.modes = [[5, 0.3]]\n",
            "domain.modes",
        ),
        # validate used to pass domains that run rejects as invariant
        # violations: a negative hole radius, a hole across the outer curve
        # and a curve beyond the bend bound
        (shipped("stability_dirichlet").replace("0.12, -0.04", "-0.12, -0.04"), "domain.holes"),
        (shipped("sweep_overdetermined").replace("0.1, 0.0]]", "-0.1, 0.0]]"), "domain.holes"),
        (shipped("stability_dirichlet").replace("[[0.25,", "[[1.0,"), "domain.holes"),
        (shipped("stability_dirichlet").replace("[[3, 0.08]]", "[[3, 0.2]]"), "domain.modes"),
        # validate used to build no sweep point's domain, and sweep then
        # exited 2 on the invariant without naming a key
        (
            SWEEP_EPS.replace('"overdetermined"', '"cauchy-literal"').replace(
                "[0.01, 0.02]", "[0.2]"
            )
            + "cauchy.k = 3\n",
            "sweep.values[0]",
        ),
        (SWEEP_RADIAL.replace("[0.05,", "[-0.05,"), "sweep.values[0]"),
        # a dirichlet field imposes no u_nu = c, so its overdetermination
        # tolerance used to be accepted and ignored
        (shipped("stability_dirichlet") + "tolerances.overdet = 1e-300\n", "tolerances.overdet"),
        (
            RADIAL_IDENTITIES.replace('"radial"', '"dirichlet"') + "tolerances.overdet = 1e-300\n",
            "tolerances.overdet",
        ),
        # a run with no triple checked nothing and passed
        (POINCARE + "poincare.triples = []\n", "poincare.triples"),
        # validate used to pass a flow start (sum k^2 |eps_k| < 1) that the
        # flow rejects (sum |eps_k| > 0.1), and run died with a traceback
        (SHAPEFLOW.replace("[[3, 0.05]]", "[[2, 0.12]]"), "domain.modes"),
    ],
    ids=[
        "unknown-axis", "hole-radius-with-holes", "eps-kind-unset", "eps-two-holes",
        "eps-no-hole", "overdetermined-with-modes", "overdetermined-with-outer-radius",
        "radial-off-centre-hole", "radial-two-holes", "overdetermined-run-no-hole",
        "radial-with-modes", "hole-radius-beyond-outer-curve", "shapeflow-with-holes",
        "shapeflow-unread-keys", "poincare-with-field-kind", "identities-with-sweep-axis",
        "sweep-values-without-axis", "dirichlet-with-cauchy-c",
        "overdetermined-sweep-with-cauchy-k", "overdetermined-sweep-with-cauchy-eps",
        "literal-sweep-with-cauchy-eps", "overdetermined-run-with-cauchy-k",
        "overdetermined-sweep-with-hole-value", "overdetermined-run-with-hole-value",
        "literal-sweep-with-modes", "dirichlet-negative-hole-radius",
        "overdetermined-sweep-negative-hole-radius", "dirichlet-hole-across-curve",
        "dirichlet-modes-beyond-bend-bound", "literal-sweep-point-beyond-bend-bound",
        "hole-radius-sweep-negative-radius", "dirichlet-stability-with-overdet",
        "dirichlet-identities-with-overdet", "poincare-no-triples", "shapeflow-start-too-large",
    ],
)
def test_validate_runs_sweep_checks(tmp_path, capsys, text, path):
    cfg = write(tmp_path, "sweep.cfg", text)
    for command in ("validate", "run", "sweep"):
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"'{path}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_overdetermined_rejects_modes(tmp_path, capsys):
    # the free-boundary builder makes its own outer curve; configured modes
    # and outer radii used to be ignored
    for line in ("domain.modes = [[3, 0.05]]", "domain.outer_radius = 1.3"):
        key = line.split(" ")[0]
        text = SWEEP_EPS.replace('"cauchy-stability"', '"stability"') + line + "\n"
        cfg = write(tmp_path, "curve.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_run_overdetermined_checks_the_hole_against_its_own_curve(tmp_path, capsys):
    # the free-boundary curve has radius about 2c, so at c = 2 a hole at
    # (2, 0) lies well inside it, though outside the unit circle
    text = (
        OVERDETERMINED_RUN.replace("[[0.4, 0.0, 0.1, 0.0]]", "[[2.0, 0.0, 0.1, 0.0]]")
        + "cauchy.c = 2.0\ncauchy.eps = 0.01\n"
    )
    assert main(["run", write(tmp_path, "far.cfg", text), "--out", str(tmp_path / "far")]) == 0
    capsys.readouterr()
    # at c = 0.5 a hole at (0.85, 0) admits no instance: the builder's own
    # domain check fails, and the error names the config field
    text = OVERDETERMINED_RUN.replace("[[0.4, 0.0, 0.1, 0.0]]", "[[0.85, 0.0, 0.1, 0.0]]")
    assert main(["run", write(tmp_path, "near.cfg", text), "--out", str(tmp_path / "near")]) == 2
    assert "config field 'domain.holes'" in capsys.readouterr().err
    assert not (tmp_path / "near").exists()


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_shipped_configs_validate():
    configs = sorted(CONFIGS.glob("*.cfg"))
    assert len(configs) >= 6
    for cfg in configs:
        assert main(["validate", str(cfg)]) == 0, cfg.name


def test_cauchy_literal_sweep_reports_continuation_failure(tmp_path, capsys):
    # the pure-continuation family cannot satisfy the overdetermined condition
    # on a non-circular curve; the sweep surfaces that as a numeric failure
    # (exit 1) carrying the measured residual, never silently passes
    text = """
experiment = "cauchy-stability"
domain.outer_radius = 1.0
domain.holes = [[0.4, 0.0, 0.1, 0.0]]
field.kind = "cauchy-literal"
cauchy.k = 3
sweep.axis = "eps"
sweep.values = [0.02]
"""
    cfg = write(tmp_path, "literal.cfg", text)
    rc = main(["sweep", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "continuation failed" in err
    assert "max residual" in err


def test_invalid_poincare_triple_is_config_error(tmp_path, capsys):
    text = """
experiment = "poincare"
domain.outer_radius = 1.0
poincare.triples = [[4, 2, 0.0]]
"""
    cfg = write(tmp_path, "poinc_bad.cfg", text)
    rc = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "poincare.triples[0]" in err
    assert "p(1-alpha) < N" in err  # the violated condition is named


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_radial_identities(tmp_path, capsys):
    cfg = write(tmp_path, "radial.cfg", RADIAL_IDENTITIES)
    rc = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for entry in report["results"]["identities"]:
        assert entry["rel_residual"] <= 1e-8
    assert (tmp_path / "out" / "tables" / "identities.csv").exists()
    assert (tmp_path / "out" / "schema.json").exists()
    assert report["environment"]["kernel_backend"] == "numpy"


@pytest.mark.parametrize(
    "text",
    [
        RADIAL_IDENTITIES,
        RADIAL_IDENTITIES.replace("domain.holes = [[0.0, 0.0, 0.2, -0.24]]\n", ""),
        """
experiment = "identities"
domain.modes = [[2, 0.05]]
domain.holes = [[0.4, 0.0, 0.12, -0.05], [-0.35, 0.2, 0.1, -0.02]]
field.kind = "dirichlet"
quadrature.n_theta = 192
quadrature.n_r = 32
""",
    ],
    ids=["annulus", "disk", "dirichlet-two-holes"],
)
def test_run_identities_flux_constant_is_value_c_over_gamma(text):
    # c and its divergence estimate are the two sides of the value_c
    # identity divided by |Gamma|
    cfg = validate_config(parse_config_text(text))
    payload, _, assertions = harness.run_identities(cfg)
    (row,) = [r for r in payload["identities"] if r["identity"] == "value_c"]
    quads = build_quadratures(harness._build_spec(cfg), cfg.n_theta, cfg.n_r)
    gamma_len = quads.bounds.gamma.arc_length
    fc = payload["flux_constant"]
    assert fc["from_average"] * gamma_len == pytest.approx(row["lhs"], rel=1e-15, abs=0)
    assert fc["from_divergence"] * gamma_len == pytest.approx(row["rhs"], rel=1e-15, abs=0)
    assert fc["mismatch"] == abs(fc["from_divergence"] - fc["from_average"])
    assert all(a.passed for a in assertions)


def test_run_rejects_invalid_domain(tmp_path, capsys):
    bad = RADIAL_IDENTITIES.replace("[[0.0, 0.0, 0.2, -0.24]]", "[[0.9, 0.0, 0.3, -0.1]]")
    bad = bad.replace('field.kind = "radial"', 'field.kind = "dirichlet"')
    cfg = write(tmp_path, "bad.cfg", bad)
    rc = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not strictly inside" in err


def test_run_shapeflow_trajectory_monotone(tmp_path):
    cfg = write(tmp_path, "flow.cfg", SHAPEFLOW)
    rc = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "tables" / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    std_col = header.index("u_nu_std")
    stds = [float(row.split(",")[std_col]) for row in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(stds, stds[1:]))
    # the radius gap column tracks the shape rounding out
    gap_col = header.index("rho_gap")
    gaps = [float(row.split(",")[gap_col]) for row in lines[1:]]
    assert gaps[-1] < gaps[0]


def test_run_shapeflow_final_is_the_last_trajectory_row(tmp_path, monkeypatch):
    # report.json's flow.final is the last trajectory row's three cells, and
    # the roundness gap is measured once per row, not again for the final
    gaps = []

    def counted(spec):
        gaps.append(spec)
        return roundness_gap(spec)

    roundness_gap = shapeflow.roundness_gap
    monkeypatch.setattr(harness, "roundness_gap", counted)
    monkeypatch.setattr(shapeflow, "roundness_gap", counted)
    cfg = write(tmp_path, "flow.cfg", SHAPEFLOW)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "tables" / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    final = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["flow"]["final"]
    assert final == {key: float(rows[-1][key]) for key in ("rho_gap", "flatness", "area_drift")}
    assert list(final) == ["rho_gap", "flatness", "area_drift"]
    assert len(gaps) == len(rows)


def test_run_report_serializes_field_model(tmp_path):
    cfg = write(tmp_path, "radial.cfg", RADIAL_IDENTITIES)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    model = report["results"]["field_model"]
    assert set(model) == {"anchor", "sources", "coefficients", "constant"}
    assert model["constant"] == -0.25
    from torsionlab.geometry import Hole
    from torsionlab.solver import FieldModel, evaluate_u, radial_model

    clone = FieldModel.from_dict(model)
    oracle = radial_model(1.0, Hole((0.0, 0.0), 0.2, -0.24))
    pts = [(0.5, 0.0), (0.0, -0.7), (0.3, 0.3)]
    for pt in pts:
        assert abs(evaluate_u(clone, [pt])[0] - evaluate_u(oracle, [pt])[0]) <= 1e-12


def test_run_pins_blas_to_one_thread(tmp_path, monkeypatch):
    # during a run numpy's BLAS works on one thread, and the count is restored
    # afterwards, also when the runner raises
    control = _blas.thread_control()
    count = control[0] if control else (lambda: None)
    seen = []

    def runner(cfg):
        seen.append(count())
        return {}, {}, []

    def failing(cfg):
        seen.append(count())
        raise RuntimeError("runner failed")

    before = count()
    cfg = write(tmp_path, "radial.cfg", RADIAL_IDENTITIES)
    monkeypatch.setitem(harness.RUNNERS, "identities", runner)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert seen == [report["environment"]["blas_threads"]] == [1 if control else None]
    assert count() == before
    monkeypatch.setitem(harness.RUNNERS, "identities", failing)
    with pytest.raises(RuntimeError, match="runner failed"):
        main(["run", cfg, "--out", str(tmp_path / "failed")])
    assert seen[1] == seen[0]
    assert count() == before


def test_validate_command(tmp_path):
    cfg = write(tmp_path, "radial.cfg", RADIAL_IDENTITIES)
    assert main(["validate", cfg]) == 0


def test_run_numeric_failure_exits_one(tmp_path, capsys):
    # an unreachable tolerance on a generic solve: assertions fail -> exit 1
    text = """
experiment = "identities"
domain.outer_radius = 1.0
domain.modes = [[3, 0.1]]
domain.holes = [[0.3, 0.1, 0.15, -0.05]]
field.kind = "dirichlet"
quadrature.n_theta = 128
quadrature.n_r = 24
tolerances.identity_rel = 1e-30
"""
    cfg = write(tmp_path, "strict.cfg", text)
    rc = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "first failure" in captured.err
    assert "rel_residual" in captured.err  # the witness names the measured value


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_radial_family_zero_lhs(tmp_path):
    cfg = write(tmp_path, "radial_sweep.cfg", SWEEP_RADIAL)
    rc = main(["sweep", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "tables" / "instances.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    for row in lines[1:]:
        vals = dict(zip(header, row.split(",")))
        assert float(vals["pseudo_distance"]) <= 1e-10
        assert float(vals["asymmetry"]) <= 1e-6
        assert float(vals["rho_gap"]) <= 1e-8
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for key, val in report["results"]["fitted_constants"].items():
        assert val <= 1e-5, key


def test_sweep_eps_family_constants(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    rc = main(["sweep", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fitted = report["results"]["fitted_constants"]
    assert fitted and all(math.isfinite(v) for v in fitted.values())
    summary = (tmp_path / "out" / "tables" / "summary.csv").read_text()
    assert "fitted" in summary and "slope" in summary


def test_sweep_requires_axis_and_values(tmp_path, capsys):
    cfg = write(tmp_path, "noaxis.cfg", SWEEP_EPS.replace('sweep.axis = "eps"\n', ""))
    assert main(["sweep", cfg, "--out", str(tmp_path / "o1")]) == 2
    cfg2 = write(tmp_path, "empty.cfg", SWEEP_EPS.replace("[0.01, 0.02]", "[]"))
    assert main(["sweep", cfg2, "--out", str(tmp_path / "o2")]) == 2
    # a valid config that declares no sweep: the sweep command used to name
    # 'sweep', which is not a key
    capsys.readouterr()
    cfg3 = str(CONFIGS / "stability_dirichlet.cfg")
    assert main(["sweep", cfg3, "--out", str(tmp_path / "o3")]) == 2
    assert "config field 'sweep.axis'" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


def test_sweep_eps_rejects_extra_holes(tmp_path, capsys):
    # the overdetermined family is built around one hole; a second would be
    # silently dropped
    two = SWEEP_EPS.replace("0.1, 0.0]]", "0.1, 0.0], [-0.4, 0.0, 0.1, 0.0]]")
    cfg = write(tmp_path, "two_holes.cfg", two)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "domain.holes" in capsys.readouterr().err


def test_sweep_point_equals_single_run(tmp_path):
    # a sweep point is the single-run config with the swept field replaced,
    # and gets the single run's checks
    def rows(out):
        with open(out / "tables" / "instances.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def checks(out):
        return json.loads((out / "report.json").read_text())["assertions"]

    assert main(["sweep", write(tmp_path, "sweep.cfg", SWEEP_EPS), "--out", str(tmp_path / "s")]) == 0
    single = OVERDETERMINED_RUN + "cauchy.eps = 0.02\n"
    assert main(["run", write(tmp_path, "run.cfg", single), "--out", str(tmp_path / "r")]) == 0
    (point,) = [r for r in rows(tmp_path / "s") if r["value"] == "0.02"]
    (run,) = rows(tmp_path / "r")
    for key in ("axis", "value", "label"):
        del point[key], run[key]
    assert point == run
    point_checks = [
        {**a, "name": a["name"].removeprefix("eps=0.02:")}
        for a in checks(tmp_path / "s")
        if a["name"].startswith("eps=0.02:")
    ]
    assert len(point_checks) == 5
    assert point_checks == checks(tmp_path / "r")


def test_sweep_point_failure_names_point_and_check(tmp_path, monkeypatch, capsys):
    # every sweep point gets the bracket check of a single run; a sweep used
    # to assert only hypotheses, growth and Hopf per point
    def outside(*args):
        return dataclasses.replace(bound_table(*args), c_in_bracket=False)

    bound_table = harness.bound_table
    monkeypatch.setattr(harness, "bound_table", outside)
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "first failure: eps=0.01:c_in_bracket: c=0.500000 in [" in capsys.readouterr().err


def test_run_and_sweep_agree_on_a_declared_sweep(tmp_path):
    # run used to ignore the sweep keys of a stability config and write one
    # row labelled with the axis at value 0.0
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS.replace('"cauchy-stability"', '"stability"'))
    assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    assert main(["sweep", cfg, "--out", str(tmp_path / "s")]) == 0
    for table in ("instances.csv", "summary.csv"):
        a = (tmp_path / "r" / "tables" / table).read_bytes()
        assert a == (tmp_path / "s" / "tables" / table).read_bytes()
    assert (tmp_path / "r" / "tables" / "instances.csv").read_text().count("\neps,") == 2


def test_sweep_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    assert main(["sweep", cfg, "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["sweep", cfg, "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
    for name in ("instances.csv", "summary.csv"):
        a = (tmp_path / "a" / "tables" / name).read_bytes()
        b = (tmp_path / "b" / "tables" / name).read_bytes()
        assert a == b


def test_sweep_worker_pool_preserves_determinism(tmp_path):
    # results funnel through one ordered writer, so thread count cannot
    # change the bytes
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    assert main(["sweep", cfg, "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["sweep", cfg, "--out", str(tmp_path / "t3"), "--threads", "3"]) == 0
    for table in ("instances.csv", "summary.csv"):
        a = (tmp_path / "t1" / "tables" / table).read_bytes()
        b = (tmp_path / "t3" / "tables" / table).read_bytes()
        assert a == b


def test_sweep_at_one_thread_runs_each_point_on_the_calling_thread(tmp_path, monkeypatch):
    # at --threads 1 each point is built and checked as one unit on the
    # calling thread; the checks used to run on a pool worker after every
    # field was built
    calls = []

    def recorded(name):
        original = getattr(harness, name)

        def wrapper(*args):
            calls.append((name, threading.get_ident()))
            return original(*args)

        monkeypatch.setattr(harness, name, wrapper)

    recorded("_build_field")
    recorded("check_growth")
    cfg = write(tmp_path, "sweep.cfg", SWEEP_RADIAL)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    caller = threading.get_ident()
    assert calls == [("_build_field", caller), ("check_growth", caller)] * 3


def test_schema_documents_every_column(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 0
    schema = json.loads((tmp_path / "out" / "schema.json").read_text())
    for rel, columns in schema.items():
        csv_path = tmp_path / "out" / rel
        header = csv_path.read_text().splitlines()[0].split(",")
        assert set(header) == set(columns)
        assert all(isinstance(desc, str) and desc for desc in columns.values())


def test_write_tables_requires_every_column(tmp_path):
    # a row missing a column is an error, not an empty cell
    columns = (("a", "first"), ("b", "second"))
    harness.write_tables(tmp_path, {"t": (columns, [{"a": 1, "b": 2.5}])})
    assert (tmp_path / "tables" / "t.csv").read_text() == "a,b\n1,2.5\n"
    with pytest.raises(KeyError, match="'b'"):
        harness.write_tables(tmp_path, {"t": (columns, [{"a": 1}])})


def test_report_numbers_are_finite(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_EPS)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert math.isfinite(node)

    walk(report["results"])


def test_readme_key_table_matches_keys():
    # the README's config-key table lists every key a config may set, in
    # declaration order, and nothing else, and its "read by" column is the
    # text of each key's readers
    lines = (CONFIGS.parent / "README.md").read_text().splitlines()
    start = lines.index("| key | default | rule | read by |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    cells = [re.fullmatch(r"\| `([^`]+)` \|.* \| ([^|]+) \|", row).groups() for row in rows]
    assert cells == [(path, read_by) for path, (_, _, (read_by, _)) in harness._KEYS.items()]
