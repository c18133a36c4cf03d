"""CLI tests: config validation, commands, output formats, reproducibility."""
import ast
import contextlib
import csv
import io
import json
import math
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fockamp import ConfigError, ResourceLimit, verify
from fockamp.cli import TRIALS_MAX, validate_config

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def run_cli(tmp_path, cfg, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "fockamp.cli", "--config", str(path),
         "--out", str(tmp_path), *args],
        capture_output=True, text=True)
    return proc


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_unknown_top_level_key_rejected(tmp_path):
    proc = run_cli(tmp_path, {"command": "verify", "surprise": 1})
    assert proc.returncode == 2
    assert "surprise" in proc.stderr


def test_unknown_nested_key_rejected(tmp_path):
    proc = run_cli(tmp_path, {"command": "estimate",
                              "amplifier": {"variant": "linear", "gane": 2}})
    assert proc.returncode == 2
    assert "amplifier.gane" in proc.stderr
    # a dotted key names no field, even when its text is a field's path
    with pytest.raises(ConfigError, match="unknown key 'amplifier.g'"):
        validate_config({"command": "verify", "amplifier.g": 3.0})


@pytest.mark.parametrize("key", ["meter", "meter_c"])
def test_meter_dims_rejected(tmp_path, key):
    # meters are always auto-sized, so dims takes only the signal cutoff
    cfg = {"command": "povm", "dims": {"signal": 4, key: 30}}
    with pytest.raises(ConfigError, match=f"unknown key 'dims.{key}'"):
        validate_config(cfg)
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert f"unknown key 'dims.{key}'" in proc.stderr


@pytest.mark.parametrize("cfg, path", [
    ({"amplifier": {"variant": "two_mode_normal",
                    "meter": {"kind": "squeezed", "r": "abc"}}}, "amplifier.meter.r"),
    ({"input_state": {"kind": "squeezed_vacuum", "r": [1]}}, "input_state.r"),
    ({"amplifier": {"meter": {"kind": "gaussian", "epsilon": None}}},
     "amplifier.meter.epsilon"),
], ids=["meter_r_text", "state_r_list", "epsilon_null"])
def test_non_numeric_config_values_rejected(tmp_path, cfg, path):
    # the same number check as amplifier.g: a named ConfigError, exit 2
    cfg = dict(cfg, command="estimate")
    with pytest.raises(ConfigError, match=f"'{path}' must be a number"):
        validate_config(cfg)
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cfg, path", [
    ({"amplifier": {"variant": "linear", "g": True}}, "amplifier.g"),
    ({"amplifier": {"variant": "linear", "g_list": [2.0, True]}},
     "amplifier.g_list"),
    ({"amplifier": {"variant": "linear",
                    "meter": {"kind": "squeezed", "r": True}}},
     "amplifier.meter.r"),
    ({"input_state": {"kind": "fock", "n": True}}, "input_state.n"),
    ({"input_state": {"kind": "coherent", "alpha": [0.5, True]},
      "dims": {"signal": 16}}, "input_state.alpha"),
    ({"detector": {"kind": "heterodyne", "efficiency": True}},
     "detector.efficiency"),
    ({"grid": {"points_per_width": True}}, "grid.points_per_width"),
    ({"seed": True}, "seed"),
], ids=["g", "g_list", "meter_r", "fock_n", "alpha", "efficiency",
        "points_per_width", "seed"])
def test_json_booleans_are_not_numbers(tmp_path, cfg, path):
    # true loads as a bool, an int subclass; it must not run as 1
    cfg = {"command": "noise-sweep", "amplifier": {"variant": "linear"}, **cfg}
    with pytest.raises(ConfigError, match=f"'{path}'"):
        validate_config(cfg)
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert path in proc.stderr
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("variant, kind", [
    ("linear", "homodyne"), ("two_mode_normal", "heterodyne"),
    ("von_neumann", "heterodyne"), ("three_mode", "homodyne"),
    ("single_mode", "homodyne"),
])
def test_estimate_needs_the_detector_its_estimator_reads(tmp_path, variant,
                                                         kind):
    # named at validation (exit 2), not a ValueError or TypeError traceback
    # from the estimator (exit 1)
    cfg = {"command": "estimate", "amplifier": {"variant": variant},
           "detector": {"kind": kind}, "dims": {"signal": 4}, "trials": 100}
    path = "amplifier.variant" if variant in ("three_mode", "single_mode") \
        else "detector.kind"
    with pytest.raises(ConfigError, match=f"'{path}'"):
        validate_config(cfg)
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, amplifier, kind, path", [
    ("povm", {"variant": "linear"}, "heterodyne", "amplifier.variant"),
    ("povm", {"variant": "single_mode"}, "homodyne", "amplifier.variant"),
    ("povm", {"variant": "two_mode_normal"}, "homodyne", "detector.kind"),
    ("povm", {"variant": "von_neumann"}, "heterodyne", "detector.kind"),
    ("povm", {"variant": "three_mode"}, "heterodyne", "detector.kind"),
    ("noise-sweep", {"variant": "single_mode"}, "heterodyne",
     "amplifier.variant"),
    ("estimate", {"variant": "linear", "meter": {"kind": "squeezed", "r": 0.5}},
     "heterodyne", "amplifier.meter.kind"),
    ("povm", {"variant": "two_mode_normal",
              "meter": {"kind": "squeezed", "r": 0.5}},
     "heterodyne", "amplifier.meter.kind"),
    ("povm", {"variant": "two_mode_normal",
              "meter": {"kind": "gaussian", "epsilon": 0.7}},
     "heterodyne", "amplifier.meter.kind"),
    ("compare", {"variant": "von_neumann"}, "homodyne", "amplifier.variant"),
], ids=["povm_linear", "povm_single_mode", "povm_two_mode_homodyne",
        "povm_von_neumann_heterodyne", "povm_three_mode_heterodyne",
        "sweep_single_mode", "linear_estimate_squeezed_idler",
        "povm_two_mode_squeezed_meter", "povm_two_mode_gaussian_meter",
        "compare_von_neumann"])
def test_commands_refuse_what_they_cannot_read(tmp_path, capsys, command,
                                               amplifier, kind, path):
    # refused at validation, before the output directory is made; the
    # povm and noise-sweep cases were refused only once the command ran, and
    # the linear estimate with a squeezed idler ended in a ValueError
    from fockamp import cli
    cfg = {"command": command, "amplifier": amplifier,
           "input_state": {"kind": "fock", "n": 1},
           "detector": {"kind": kind}, "dims": {"signal": 4}, "trials": 100}
    with pytest.raises(ConfigError, match=f"'{path}'"):
        validate_config(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["linear", "two_mode_normal",
                                     "von_neumann", "three_mode",
                                     "single_mode"])
def test_povm_model_reads_the_detector_the_rules_demand(variant):
    # cli._check_rules and measurement.povm_model each map a variant to its
    # readout (the rules to exit 2 before anything runs); they must agree
    from fockamp import cli, measurement
    accepted = []
    for kind in ("heterodyne", "homodyne"):
        try:
            cfg = validate_config({"command": "povm",
                                   "amplifier": {"variant": variant},
                                   "detector": {"kind": kind}})
        except ConfigError:
            continue
        model, _ = measurement.povm_model(cli.build_amplifiers(cfg)[0])
        assert ("heterodyne" if model == "heterodyne" else "homodyne") == kind
        accepted.append(kind)
    if variant in ("linear", "single_mode"):  # povm covers neither
        assert accepted == []
        with pytest.raises(TypeError):
            measurement.povm_model(cli.build_amplifiers(validate_config(
                {"command": "verify", "amplifier": {"variant": variant}}))[0])
    else:
        assert len(accepted) == 1


def _put(cfg, path, value):
    *parents, key = path.split(".")
    for name in parents:
        cfg = cfg.setdefault(name, {})
    cfg[key] = value


# every number field: (path, the kind of its object that reads it, whether
# the value is a list or [re, im] pair)
NUMBER_FIELDS = [
    ("amplifier.g", None, False), ("amplifier.g_list", None, True),
    ("amplifier.r", None, False), ("amplifier.f.alpha", "quadratic", True),
    ("amplifier.f.beta", "quadratic", True),
    ("amplifier.f.gamma", "quadratic", False),
    ("amplifier.f.delta", "quadratic", False),
    ("amplifier.f.coeffs", "poly_x", True), ("amplifier.meter.r", None, False),
    ("amplifier.meter.epsilon", None, False),
    ("input_state.alpha", "coherent", True),
    ("input_state.r", "squeezed_vacuum", False),
    ("input_state.phi", "squeezed_vacuum", False),
    ("detector.efficiency", None, False), ("grid.n_widths", None, False),
]


@pytest.mark.parametrize("path, kind, is_list", NUMBER_FIELDS,
                         ids=[p for p, *_ in NUMBER_FIELDS])
def test_non_finite_numbers_rejected(tmp_path, capsys, path, kind, is_list):
    # json.loads reads NaN and Infinity, and an integer past the float range
    # has no float value; none may run (to an all-nan report or a
    # traceback), each exits 2 with the key named
    from fockamp import cli
    for bad in (10 ** 400, math.inf, -math.inf, math.nan):
        cfg = {"command": "noise-sweep", "amplifier": {"variant": "linear"}}
        _put(cfg, path, [1.0, bad] if is_list else bad)
        if kind:
            _put(cfg, path.rsplit(".", 1)[0] + ".kind", kind)
        with pytest.raises(ConfigError, match=f"'{path}' must be "):
            validate_config(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))  # the last config, written as NaN
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 2
    assert f"'{path}'" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_gain_rejected(tmp_path):
    proc = run_cli(tmp_path, {"command": "noise-sweep",
                              "amplifier": {"variant": "linear", "g": -1.0}})
    assert proc.returncode == 2
    assert "amplifier.g" in proc.stderr


def test_linear_gain_below_one_rejected(tmp_path):
    cfg = {"command": "estimate",
           "amplifier": {"variant": "linear", "g": 0.5},
           "detector": {"kind": "heterodyne"},
           "input_state": {"kind": "fock", "n": 1},
           "dims": {"signal": 8}, "trials": 10}
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert "amplifier.g" in proc.stderr


def test_zero_trials_rejected(tmp_path):
    for trials in (0, 1):  # one trial has no sample variance
        cfg = {"command": "estimate", "trials": trials,
               "amplifier": {"variant": "linear", "g": 2.0}}
        proc = run_cli(tmp_path, cfg)
        assert proc.returncode == 2
        assert "trials" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_trials_above_ceiling_rejected(tmp_path):
    # checked at validation, before any sample buffer is allocated
    base = {"command": "estimate", "amplifier": {"variant": "linear", "g": 2.0}}
    assert validate_config({**base, "trials": TRIALS_MAX})["trials"] == TRIALS_MAX
    for trials in (TRIALS_MAX + 1, 10 ** 9):
        with pytest.raises(ResourceLimit, match="'trials'"):
            validate_config({**base, "trials": trials})
    assert issubclass(ResourceLimit, ConfigError)
    proc = run_cli(tmp_path, {**base, "trials": 10 ** 9})
    assert proc.returncode == 3
    assert "trials" in proc.stderr
    assert "Traceback" not in proc.stderr


# the resolved form of {"command": "verify"}: every default
DEFAULTS = {
    "command": "verify",
    "amplifier": {"variant": "two_mode_normal", "f": {"kind": "a_dag_a"},
                  "g": 2.0, "g_list": [2.0], "r": 0.0,
                  "meter": {"kind": "vacuum", "r": 0.0, "epsilon": 1.0}},
    "input_state": {"kind": "vacuum"},
    "detector": {"kind": "heterodyne", "efficiency": 1.0},
    "dims": {"signal": 8},
    "trials": 100000,
    "seed": 42,
    "grid": {"n_widths": 5.0, "points_per_width": 4},
    "output": ".",
}
RESOLVED = {
    "montecarlo/compare": {
        **DEFAULTS, "command": "compare",
        "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
        "detector": {"kind": "homodyne", "efficiency": 0.9},
        "dims": {"signal": 16}, "trials": 2000000},
    "montecarlo/estimate_linear": {
        **DEFAULTS, "command": "estimate",
        "amplifier": {**DEFAULTS["amplifier"], "variant": "linear"},
        "input_state": {"kind": "coherent", "alpha": [1.0, 0.5]},
        "detector": {"kind": "heterodyne", "efficiency": 0.8},
        "dims": {"signal": 64}, "trials": 1000000},
    "montecarlo/estimate_two_mode": {
        **DEFAULTS, "command": "estimate",
        "input_state": {"kind": "fock", "n": 2},
        "detector": {"kind": "homodyne", "efficiency": 0.9},
        "dims": {"signal": 8}, "trials": 4000000},
    "povm/heterodyne": {
        **DEFAULTS, "command": "povm",
        "amplifier": {**DEFAULTS["amplifier"], "g_list": [1.0, 2.0]},
        "detector": {"kind": "heterodyne", "efficiency": 0.5},
        "dims": {"signal": 4},
        "grid": {"n_widths": 5.0, "points_per_width": 2}},
    "povm/homodyne": {
        **DEFAULTS, "command": "povm",
        "amplifier": {"variant": "von_neumann", "f": {"kind": "a_dag_a"},
                      "g": 2.0, "g_list": [1.0, 2.0, 3.0], "r": 0.0,
                      "meter": {"kind": "squeezed", "r": 0.5, "epsilon": 1.0}},
        "detector": {"kind": "homodyne", "efficiency": 0.5},
        "dims": {"signal": 4}},
    "verify/verify": DEFAULTS,
}


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_benchmark_configs_resolve_to_pinned_form(name):
    # compared as JSON text, so an int default where a float was (2 for 2.0)
    # shows as a difference; every benchmark config is pinned
    assert sorted(RESOLVED) == sorted(
        str(p.relative_to(CONFIGS).with_suffix("")) for p in CONFIGS.glob("*/*.json"))
    resolved = validate_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    assert json.dumps(resolved, sort_keys=True) == \
        json.dumps(RESOLVED[name], sort_keys=True)


@pytest.mark.parametrize("command", ["verify", "noise-sweep", "povm",
                                     "compare", "estimate"])
def test_bare_command_resolves_to_defaults(command):
    if command == "estimate":
        # the default two_mode_normal amplifier is read out by homodyne
        with pytest.raises(ConfigError, match="'detector.kind' must be homodyne"):
            validate_config({"command": command})
        return
    assert json.dumps(validate_config({"command": command}), sort_keys=True) \
        == json.dumps({**DEFAULTS, "command": command}, sort_keys=True)


def test_readme_config_reference_lists_every_field():
    from fockamp import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Config reference\n")[1].split("\n#")[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert rows == [path for path, *_ in cli._FIELDS]


@pytest.mark.parametrize("command", ["noise-sweep", "estimate", "compare"])
def test_fock_input_above_signal_space_rejected(tmp_path, command):
    # each of these commands builds the input; level n = 8 is not among the
    # levels 0..7 of an 8-level signal, so the config is refused (exit 2,
    # naming the key), not a ValueError traceback
    cfg = {"command": command, "amplifier": {"variant": "two_mode_normal"},
           "input_state": {"kind": "fock", "n": 8}, "dims": {"signal": 8},
           "detector": {"kind": "homodyne"}, "trials": 1000}
    with pytest.raises(ConfigError, match="'input_state.n' must be below"):
        validate_config(cfg)
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert "input_state.n" in proc.stderr
    assert "Traceback" not in proc.stderr
    validate_config({**cfg, "input_state": {"kind": "fock", "n": 7}})


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = subprocess.run(
        [sys.executable, "-m", "fockamp.cli", "--config", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_missing_config_rejected(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fockamp.cli", "--config",
         str(tmp_path / "none.json")],
        capture_output=True, text=True)
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# configs drawn from the config table
# ---------------------------------------------------------------------------

# the range each row is drawn from inside its bounds, small enough that a run
# stays well under a second; a row without bounds is drawn from its range alone
DRAW_RANGE = {
    "amplifier.g": (0, 3), "amplifier.g_list": (0, 3), "amplifier.r": (0, 1.5),
    "amplifier.f.alpha": (-1, 1), "amplifier.f.beta": (-1, 1),
    "amplifier.f.gamma": (-1, 1), "amplifier.f.delta": (-1, 1),
    "amplifier.f.coeffs": (-1, 1), "amplifier.meter.r": (-1, 1),
    "amplifier.meter.epsilon": (0, 4), "input_state.n": (0, 7),
    "input_state.alpha": (-2, 2), "input_state.r": (-1, 1),
    "input_state.phi": (-4, 4), "detector.efficiency": (1e-9, 1),
    "dims.signal": (2, 6), "trials": (2, 3000), "seed": (0, 2 ** 128 - 2),
    "grid.n_widths": (0, 2), "grid.points_per_width": (1, 4),
}
# the wall time one drawn run may take: the slowest of 400 drawn runs took
# 0.18 s in process (2 vCPUs), where a povm homodyne grid that spanned the
# noise kernel at efficiency 1e-9 took 82 s
DRAWN_RUN_WALL_S = 5.0


def _bounds(bounds):
    """(lo, hi, lo_open, hi_open) of a _FIELDS bounds string, as cli reads it."""
    lo, hi = (int(b) if b.strip().isdigit() else float(b)
              for b in bounds[1:-1].split(","))
    return lo, hi, bounds[0] == "(", bounds[-1] == ")"


def _inside(path, kind, bounds):
    """Values of one _FIELDS row inside its bounds and DRAW_RANGE."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    lo, hi = DRAW_RANGE[path]
    blo, bhi, blo_open, bhi_open = _bounds(bounds) if bounds else (lo, hi, False, False)
    lo_open, hi_open = lo == blo and blo_open, hi == bhi and bhi_open
    if kind in ("int", "count"):
        return st.integers(lo + lo_open, hi - hi_open)
    number = st.floats(lo, hi, exclude_min=lo_open, exclude_max=hi_open)
    if kind == "pair":
        return number | st.lists(number, min_size=2, max_size=2)
    if kind == "nums":
        return st.lists(number, min_size=1, max_size=3)
    return number


def _outside(path, kind, bounds):
    """Values of one _FIELDS row just outside its bounds, or of another type."""
    wrong = st.sampled_from([None, True, "x", [], {}])
    if not bounds:
        return wrong | st.just("unknown") if isinstance(kind, tuple) else wrong
    lo, hi, lo_open, hi_open = _bounds(bounds)
    if kind in ("int", "count"):
        edges = [lo - 1, hi + 1]
    else:
        edges = [lo if lo_open else math.nextafter(lo, -math.inf),
                 hi if hi_open else math.nextafter(hi, math.inf)]
    edges = [e for e in edges if math.isfinite(e)]
    if kind == "nums":
        edges = [[1.0, e] for e in edges]
    return wrong | st.sampled_from(edges)


@st.composite
def drawn_configs(draw):
    """A config whose keys are drawn from cli._FIELDS: each present or not,
    and one in twenty just outside its bounds; verify one run in nine."""
    from fockamp import cli
    commands = ["noise-sweep", "povm", "estimate", "compare"]
    cfg = {"command": draw(st.sampled_from(["verify"] + commands * 2))}
    for path, kind, bounds, _, _ in cli._FIELDS:
        if path in ("command", "output") or not draw(st.booleans()):
            continue
        far = draw(st.integers(0, 19)) == 0
        value = draw((_outside if far else _inside)(path, kind, bounds))
        *heads, key = path.split(".")
        block = cfg
        for head in heads:
            block = block.setdefault(head, {})
        block[key] = value
    return cfg


class _Overrun(BaseException):
    """Raised by the alarm in a drawn run; no handler of the package takes it."""


def _overrun(signum, frame):
    raise _Overrun(f"a drawn run took over {DRAWN_RUN_WALL_S} s")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(drawn_configs())
def test_drawn_configs_resolve_to_themselves(raw):
    # resolution is idempotent: a resolved config names every key, and
    # resolves to itself, value for value and type for type
    try:
        cfg = validate_config(raw)
    except (ConfigError, ResourceLimit):
        return
    assert json.dumps(validate_config(cfg), sort_keys=True) == \
        json.dumps(cfg, sort_keys=True)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(drawn_configs())
@example({"command": "noise-sweep", "input_state": {"kind": "fock", "n": 6},
          "dims": {"signal": 6}})
@example({"command": "povm", "amplifier": {"g_list": [1e-200]},
          "detector": {"kind": "heterodyne"}})
@example({"command": "noise-sweep",
          "amplifier": {"meter": {"kind": "gaussian", "epsilon": 5e-324}}})
@example({"command": "compare", "amplifier": {"g": 5e-324}, "trials": 100})
@example({"command": "compare", "amplifier": {"g": 3.569467229130439e-91}})
@example({"command": "compare",
          "amplifier": {"meter": {"kind": "gaussian", "epsilon": 5e-324}},
          "dims": {"signal": 3}, "trials": 50})
@example({"command": "estimate", "amplifier": {"variant": "linear", "g": 1e40},
          "trials": 50})
@example({"command": "estimate", "amplifier": {"variant": "linear", "g": 1e60},
          "trials": 50})
@example({"command": "estimate", "amplifier": {"variant": "linear", "g": 1e200},
          "trials": 50})
@example({"command": "compare", "amplifier": {"g": 1e300}, "trials": 50})
@example({"command": "compare",
          "amplifier": {"meter": {"kind": "gaussian", "epsilon": 1e-150}},
          "input_state": {"kind": "fock", "n": 1}, "trials": 50})
@example({"command": "povm",
          "amplifier": {"f": {"kind": "quadratic", "alpha": [0.5, 0.0],
                              "beta": [1.0, 0.0], "gamma": [0.5, 0.0]},
                        "g_list": [1]},
          "dims": {"signal": 3}})
@example({"command": "povm",
          "amplifier": {"variant": "von_neumann",
                        "f": {"kind": "poly_x", "coeffs": [0.0, 0.5, 0.5]},
                        "g_list": [1]},
          "detector": {"kind": "homodyne", "efficiency": 0.5},
          "dims": {"signal": 4}})
@example({"command": "povm", "amplifier": {"variant": "von_neumann"},
          "detector": {"kind": "homodyne", "efficiency": 1e-9},
          "dims": {"signal": 2}, "grid": {"n_widths": 1, "points_per_width": 1}})
def test_drawn_configs_run_to_an_exit_code(raw):
    # every drawn config runs to exit 0, 2 (config) or 3 (resource) and
    # raises nothing, within DRAWN_RUN_WALL_S; verify may exit 1 where the
    # configured amplifier gate is its one failing check. A run that exits 0
    # writes a report that keeps the paper's claims (_assert_report_claims).
    # The examples are the defects such draws found: a Fock level above the
    # signal space (a ValueError), a povm gain whose g^2 underflows (a
    # ZeroDivisionError), a gaussian meter whose e^{2r} overflows (an
    # OverflowError, and a zero standard error in compare), compare gains
    # whose estimate x/(sqrt(2) g) overflows its power sums (a
    # ZeroDivisionError and an OverflowError), linear gains whose |alpha|^2
    # overflows its power sums (a NaN z_variance, then OverflowErrors), a
    # nonlinear estimate with no spread (a ZeroDivisionError), and povm
    # homodyne at efficiency 1e-9 (82 s; last, since the alarm's exception
    # ends the run of examples). The two povm examples before it put a
    # normal quadratic f and a poly_x f, whose eigenbases are not the number
    # basis, through the numeric deviation check.
    from fockamp import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        previous = signal.signal(signal.SIGALRM, _overrun)
        signal.setitimer(signal.ITIMER_REAL, DRAWN_RUN_WALL_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = cli.main(["--config", str(path), "--out", tmp])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if code == 0:
            _assert_report_claims(raw["command"], Path(tmp))
    failed = re.findall(r"^\[FAIL\] (.*?):", stdout.getvalue(), re.M)
    assert code in (0, 2, 3) or (code == 1 and failed == ["configured amplifier gate"])


def _assert_report_claims(command, out):
    """The paper's claims on the report in ``out`` of a run that exited 0."""
    if command == "povm":
        # the numeric POVM is the closed form's Gaussians about the
        # eigenvalues of f; the grid's identity residual is not asserted,
        # since a drawn grid need not cover the outcomes
        summary = json.loads((out / "povm_summary.json").read_text())
        for entry in summary["per_gain"]:
            assert all(0.0 <= w <= 1.0 for w in entry["own_region_weights"])
            if entry["numeric"]:
                assert entry["numeric"]["max_deviation_from_closed_form"] <= 1e-9
    elif command == "noise-sweep":
        # a nonlinear amplifier's added noise does not depend on the gain
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        noise = {}
        for row in rows:
            if row["variant"] != "linear":
                noise.setdefault(row["variant"], []).append(float(row["added_noise"]))
        for values in noise.values():
            assert max(values) - min(values) <= 1e-9 * max(1.0, abs(values[0]))
    elif command in ("estimate", "compare"):
        # each estimate agrees with its analytic mean and variance
        report = json.loads((out / f"{command}.json").read_text())["report"]
        reports = [report] if command == "estimate" else \
            [rep for rep in (report["nonlinear"], report["linear"]) if rep]
        for rep in reports:
            for z in (rep["z_mean"], rep["z_variance"]):
                assert math.isfinite(z)
                assert rep["trials"] < 1000 or abs(z) <= 6


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.floats(1e36, 1e308).map(
    lambda g: {"command": "compare", "amplifier": {"g": g}, "trials": 50}))
@example({"command": "compare", "amplifier": {"g": 1e300}, "trials": 50})
def test_compare_refuses_a_linear_gain_before_any_draw(raw):
    # past g^2 = 1e70 the linear side's rule refuses the gain, exit 2 naming
    # amplifier.g, before either side draws; at g 1e300 the nonlinear side
    # drew first, and its sample, with no spread, was refused naming
    # amplifier.meter
    from unittest import mock

    from fockamp import cli, measurement
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        with mock.patch.object(measurement, "_pooled", side_effect=AssertionError), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.main(["--config", str(path), "--out", tmp])
    assert code == 2
    assert stderr.getvalue().startswith("config error: 'amplifier.g': ")


@pytest.mark.parametrize("cfg, amplifiers", [
    (json.loads((CONFIGS / "povm" / "homodyne.json").read_text()), 3),
    ({"command": "povm",
      "amplifier": {"variant": "two_mode_normal", "f": {"kind": "parity"},
                    "g_list": [1, 2, 4]},
      "detector": {"kind": "heterodyne", "efficiency": 0.5},
      "dims": {"signal": 4}}, 3),
    ({"command": "compare", "amplifier": {"g": 2},
      "input_state": {"kind": "coherent", "alpha": [1, 0]},
      "dims": {"signal": 16}, "trials": 2000}, 1),
    ({"command": "compare", "amplifier": {"f": {"kind": "parity"}, "g": 2},
      "input_state": {"kind": "coherent", "alpha": [1, 0]},
      "dims": {"signal": 16}, "trials": 2000}, 1),
], ids=["povm_homodyne", "povm_parity", "compare", "compare_parity"])
def test_one_decomposition_per_amplifier(tmp_path, monkeypatch, cfg, amplifiers):
    # each amplifier decomposes f once, in its constructor, and the meters,
    # the closed form, the numeric grid and the estimators read that one
    # decomposition; a diagonal f (a_dag_a, parity) runs no eigensolver and
    # no commutator check. Before, the homodyne povm made 7 decompositions,
    # each with a commutator check and an eigh call.
    from fockamp import cli, fock
    decompose, callers, solves, checks = fock.normal_decompose, [], [], []

    def spy(f, tol=None):
        callers.append(sys._getframe(1).f_code.co_name)
        return decompose(f, tol)

    for name, mod in list(sys.modules.items()):
        if (name == "fockamp" or name.startswith("fockamp.")) and \
                getattr(mod, "normal_decompose", None) is decompose:
            monkeypatch.setattr(mod, "normal_decompose", spy)
    eigh, norm = np.linalg.eigh, fock.Operator.commutator_norm
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: solves.append(1) or eigh(*a, **k))
    monkeypatch.setattr(fock.Operator, "commutator_norm",
                        lambda self: checks.append(1) or norm(self))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 0
    assert callers == ["__post_init__"] * amplifiers
    assert solves == [] and checks == []


def test_poly_x_povm_builds_f_once(tmp_path, monkeypatch):
    # f = x^2 is built once for the three gains: one eigh of x, then each
    # amplifier's dense decomposition of f (one eigh of its Hermitian part
    # and one per degenerate pair) makes 3; 12 when f was built per gain
    from fockamp import cli
    cfg = {"command": "povm",
           "amplifier": {"variant": "von_neumann", "f": {"kind": "poly_x"},
                         "g_list": [1, 2, 3]},
           "detector": {"kind": "homodyne", "efficiency": 0.5},
           "dims": {"signal": 4}}
    solves, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: solves.append(1) or eigh(*a, **k))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(solves) == 10


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_default_passes(tmp_path):
    proc = run_cli(tmp_path, {"command": "verify"})
    assert proc.returncode == 0
    passes = re.findall(r"^\[PASS\]", proc.stdout, re.M)
    assert len(passes) >= 25
    assert "[FAIL]" not in proc.stdout


@pytest.mark.parametrize("name", ["two-mode coupling unitarity",
                                  "two-mode meter relation b_out = g f + b"],
                         ids=["coupling_unitarity", "meter_relation"])
def test_verify_reports_check_warnings(monkeypatch, name):
    # the check keeps its verdict; the truncation warning it raises is shown
    from fockamp import verify
    monkeypatch.setattr(verify, "CHECKS", [
        c for c in verify.CHECKS if c[0] == name])
    lines = []
    assert verify.run_all(out=lines.append) == (1, 0)
    assert lines[0].startswith(f"[PASS] {name}: residual")
    assert "[1 warning: " in lines[0] and "truncation limited" in lines[0]


def test_verify_times_each_check_on_stderr(tmp_path):
    # one timing line per check and a total go to stderr; stdout keeps only
    # the verdict lines and the summary
    proc = run_cli(tmp_path, {"command": "verify"})
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith("[")]
    assert all(re.match(r"\[(PASS|FAIL)\] [^:]+: ", ln) for ln in checks)
    assert lines[-1] == f"{len(checks)} passed, 0 failed, {len(checks)} total"
    assert len(lines) == len(checks) + 1
    assert "[time]" not in proc.stdout
    timings = re.findall(r"^\[time\] (.+): \d+\.\d{3} s$", proc.stderr, re.M)
    assert timings[:-1] == [ln.split("] ", 1)[1].split(": ", 1)[0]
                            for ln in checks]
    assert timings[-1] == "total"


def _traced_check(name):
    """(ok, detail, traced peak in bytes) of one verify check."""
    fn = dict(verify.CHECKS)[name]
    tracemalloc.start()
    try:
        ok, detail = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ok, detail, peak


def test_verify_three_mode_check_memory_is_bounded():
    # the check builds only the 108 guarded columns of the 2880-dim W (4.7
    # MiB) one mode product at a time, and sandwiches one mode-a block of
    # them at a time; the dense W alone would take 133 MB
    ok, detail, peak = _traced_check("three-mode meter relations")
    assert ok
    assert detail == "residual 8.646e-08 (tol 1.0e-06)"
    assert peak < 12 * 2 ** 20


@pytest.mark.parametrize("name", [name for name, _ in verify.CHECKS])
def test_every_verify_check_memory_is_bounded(name):
    # each check's working set is about the size of its own output, so no
    # check sets the peak of the verify run
    ok, detail, peak = _traced_check(name)
    assert ok, detail
    assert peak < 12 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("amplifier", [None, {"variant": "linear"}],
                         ids=["no_amplifier", "amplifier"])
def test_verify_gates_the_amplifier_only_when_given(tmp_path, monkeypatch,
                                                    amplifier):
    # resolution always fills in an amplifier; the gate checks the one the
    # config gives, and a bare verify config runs the matrix alone
    from fockamp import cli
    names = []

    def run_all(extra_checks=()):
        names.extend(name for name, _ in extra_checks)
        return 0, 0

    monkeypatch.setattr(verify, "run_all", run_all)
    cfg = {"command": "verify"}
    if amplifier:
        cfg["amplifier"] = amplifier
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(config), "--out", str(tmp_path)]) == 0
    assert names == (["configured amplifier gate"] if amplifier else [])


def test_verify_surfaces_nonnormal_signal(tmp_path):
    cfg = {"command": "verify",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "quadratic", "alpha": [1.0, 0.0],
                               "beta": [0.0, 0.0], "gamma": [0.0, 0.0],
                               "delta": [0.0, 0.0]}},
           "dims": {"signal": 8}}
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 1
    assert "NotNormal" in proc.stdout


# ---------------------------------------------------------------------------
# noise sweep
# ---------------------------------------------------------------------------

def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return rows


def test_noise_sweep_gain_independence(tmp_path):
    cfg = {"command": "noise-sweep",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "a_dag_a"}, "g_list": [1.0, 2.0, 4.0]},
           "input_state": {"kind": "fock", "n": 2}, "dims": {"signal": 8}}
    assert run_cli(tmp_path, cfg).returncode == 0
    rows = _read_rows(tmp_path / "sweep.csv")
    nl = [float(r["added_noise"]) for r in rows if r["variant"] == "two_mode_normal"]
    assert nl == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    lin = {float(r["g"]): float(r["added_noise"]) for r in rows
           if r["variant"] == "linear"}
    assert lin[2.0] == pytest.approx(1.5, abs=1e-12)
    assert lin[4.0] == pytest.approx(7.5, abs=1e-12)


def test_noise_sweep_linear_values(tmp_path):
    cfg = {"command": "noise-sweep",
           "amplifier": {"variant": "linear", "g_list": [1.5, 2.0]},
           "input_state": {"kind": "vacuum"}, "dims": {"signal": 12}}
    assert run_cli(tmp_path, cfg).returncode == 0
    rows = _read_rows(tmp_path / "sweep.csv")
    vals = [float(r["added_noise"]) for r in rows]
    assert vals == pytest.approx([0.625, 1.5], abs=1e-12)


def test_noise_sweep_squeezed_meter(tmp_path):
    cfg = {"command": "noise-sweep",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "a_dag_a"}, "g_list": [1.0, 3.0],
                         "meter": {"kind": "squeezed", "r": 1.0}},
           "input_state": {"kind": "fock", "n": 1}, "dims": {"signal": 6}}
    assert run_cli(tmp_path, cfg).returncode == 0
    rows = _read_rows(tmp_path / "sweep.csv")
    nl = [float(r["added_noise"]) for r in rows if r["variant"] == "two_mode_normal"]
    assert nl == pytest.approx([0.5 * math.exp(-2.0)] * 2, abs=1e-12)


def test_csv_format(tmp_path):
    cfg = {"command": "noise-sweep",
           "amplifier": {"variant": "linear", "g_list": [1.5]},
           "input_state": {"kind": "vacuum"}, "dims": {"signal": 8}}
    assert run_cli(tmp_path, cfg).returncode == 0
    raw = (tmp_path / "sweep.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8").splitlines()
    assert text[0] == "g,variant,signal_mean,total_noise,added_noise"
    # 12 significant digits, scientific notation
    assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,}", text[1].split(",")[0])


def test_block_csv_writer_matches_row_by_row(tmp_path):
    # _write_csv formats CSV_ROWS rows per %-operation; the bytes are those
    # of one %-format per row, for str and float columns, numpy scalars and
    # the .tolist() floats of cmd_povm, -0.0 and the ends of the float range
    import numpy as np
    from fockamp.cli import CSV_ROWS, _write_csv
    floats = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.0 / 3.0,
              -2.5, 123456.789e10]
    header = ["a", "b", "c", "d"]
    for n in (0, 1, CSV_ROWS - 1, CSV_ROWS, CSV_ROWS + 1, 4 * CSV_ROWS - 25):
        rows = [(floats[i % 10], np.float64(floats[(i * 3) % 10]), str(i % 7),
                 floats[(i * 7) % 10] * (i + 1)) for i in range(n)]
        _write_csv(tmp_path / "block.csv", header, iter(rows))
        want = ",".join(header) + "\n" + "".join(
            "%.11e,%.11e,%s,%.11e\n" % row for row in rows)
        assert (tmp_path / "block.csv").read_bytes() == want.encode("utf-8"), n


# ---------------------------------------------------------------------------
# povm
# ---------------------------------------------------------------------------

def test_povm_command_summary_and_grid(tmp_path):
    cfg = {"command": "povm",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "a_dag_a"}, "g_list": [0.5, 8.0]},
           "detector": {"kind": "heterodyne", "efficiency": 0.5},
           "dims": {"signal": 4}, "grid": {"points_per_width": 2}}
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 0
    summary = json.loads((tmp_path / "povm_summary.json").read_text())
    by_g = {e["g"]: e for e in summary["per_gain"]}
    assert all(w >= 0.999 for w in by_g[8.0]["own_region_weights"])
    assert max(by_g[0.5]["own_region_weights"]) < min(by_g[8.0]["own_region_weights"])
    assert by_g[0.5]["numeric"]["max_deviation_from_closed_form"] < 1e-5
    header = (tmp_path / "povm_g0.5.csv").read_text().splitlines()[0]
    assert header == "outcome_re,outcome_im,measure,eigen_index,weight"


def test_povm_single_region_weight_one(tmp_path):
    cfg = {"command": "povm",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "quadratic", "alpha": [0.0, 0.0],
                               "beta": [0.0, 0.0], "gamma": [0.0, 0.0],
                               "delta": [2.0, 0.0]},
                         "g_list": [1.0]},
           "detector": {"kind": "heterodyne", "efficiency": 1.0},
           "dims": {"signal": 4}}
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 0
    summary = json.loads((tmp_path / "povm_summary.json").read_text())
    assert summary["per_gain"][0]["own_region_weights"] == [1.0]


def test_povm_builds_one_kernel_basis_per_gain(tmp_path, monkeypatch):
    # the sizing probe's displaced rows of an auto-sized squeezed meter are
    # handed on to the sandwich instead of being built again
    from fockamp import amplifiers, cli
    kernel = amplifiers.displaced_meter_ket
    dims = []

    def counted(meter, dim, alphas):
        dims.append(dim)
        return kernel(meter, dim, alphas)

    monkeypatch.setattr(amplifiers, "displaced_meter_ket", counted)
    cfg = {"command": "povm",
           "amplifier": {"variant": "von_neumann", "f": {"kind": "a_dag_a"},
                         "g_list": [1, 2], "meter": {"kind": "squeezed", "r": 0.5}},
           "detector": {"kind": "homodyne", "efficiency": 0.5},
           "dims": {"signal": 4}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 0
    assert dims == [81, 144]
    summary = json.loads((tmp_path / "povm_summary.json").read_text())
    assert all(e["numeric"] is not None for e in summary["per_gain"])


def _run_povm(tmp_path, cfg):
    from fockamp import cli
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "povm", **cfg}))
    code = cli.main(["--config", str(path), "--out", str(tmp_path)])
    return code, json.loads((tmp_path / "povm_summary.json").read_text()) \
        if code == 0 else None


def test_povm_gate_builds_no_meter(tmp_path, monkeypatch):
    # numeric_limit reads the unprobed meter size, (18 * 3 + 6)^2 = 3600
    # levels here, so the povm builds no displaced meter before it writes
    # "numeric": null; the sizing probe took ~4.7 s at 3600 levels
    import time
    from fockamp import amplifiers
    kernel, calls = amplifiers.displaced_meter_ket, []
    monkeypatch.setattr(amplifiers, "displaced_meter_ket",
                        lambda *args: calls.append(args) or kernel(*args))
    start = time.perf_counter()
    code, summary = _run_povm(tmp_path, {
        "amplifier": {"variant": "von_neumann", "f": {"kind": "a_dag_a"},
                      "g_list": [18], "meter": {"kind": "squeezed", "r": 0.5}},
        "detector": {"kind": "homodyne", "efficiency": 0.5},
        "dims": {"signal": 4}})
    assert time.perf_counter() - start < 2.0
    assert code == 0 and calls == []
    assert summary["per_gain"][0]["numeric"] is None


def test_povm_parity_summary_memory_is_bounded(tmp_path):
    # the closed-form deviation compares the (n, d) weight tables and forms
    # no dense element: on 1,927 parity outcomes at signal 32 the run traced
    # 3.3 MiB, where dense elements 2**19 // d**2 outcomes at a time traced
    # 24.9 MiB, and the whole (n, d, d) element stack 91.6 MiB
    tracemalloc.start()
    try:
        code, summary = _run_povm(tmp_path, {
            "amplifier": {"variant": "two_mode_normal", "f": {"kind": "parity"},
                          "g_list": [1]},
            "detector": {"kind": "heterodyne", "efficiency": 0.5},
            "dims": {"signal": 32}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    numeric = summary["per_gain"][0]["numeric"]
    assert numeric["max_deviation_from_closed_form"] <= 1e-9
    assert numeric["grid_identity_residual"] <= 1e-9
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


def test_povm_three_mode_numeric_matches_closed_form(tmp_path):
    # the three-mode amplifier gets its numeric POVM like the other models:
    # meters of 81 and 144 levels at g = 1 and 2 on the CLI's own grid
    code, summary = _run_povm(tmp_path, {
        "amplifier": {"variant": "three_mode", "f": {"kind": "a_dag_a"},
                      "g_list": [1, 2]},
        "detector": {"kind": "homodyne", "efficiency": 0.5},
        "dims": {"signal": 4}})
    assert code == 0
    for entry in summary["per_gain"]:
        assert entry["numeric"]["max_deviation_from_closed_form"] <= 1e-9
        assert entry["numeric"]["grid_identity_residual"] <= 1e-9


def test_povm_homodyne_grid_is_bounded_at_tiny_efficiency(tmp_path):
    # the quadrature grid stops at sqrt(2d + 1) + 12 whatever the detector
    # noise: at efficiency 1e-9 the whole CLI run took 0.37 s (2 vCPUs),
    # where a grid spanning the noise kernel took 82 s
    import time
    start = time.perf_counter()
    code, summary = _run_povm(tmp_path, {
        "amplifier": {"variant": "von_neumann", "f": {"kind": "a_dag_a"}},
        "detector": {"kind": "homodyne", "efficiency": 1e-9},
        "dims": {"signal": 2}, "grid": {"n_widths": 1, "points_per_width": 1}})
    assert time.perf_counter() - start < 3.0
    assert code == 0
    assert summary["per_gain"][0]["numeric"]["max_deviation_from_closed_form"] <= 1e-9


@pytest.mark.parametrize("g", [1e-200, 1e200])
def test_povm_gain_past_float_range_refused(tmp_path, capsys, g):
    # the record width (sigma^2 + 1)/g^2 is inf or 0 in floats: no grid
    code, _ = _run_povm(tmp_path, {"amplifier": {"g_list": [g]},
                                   "detector": {"kind": "heterodyne"}})
    assert code == 3
    assert "'grid'" in capsys.readouterr().err


def test_povm_grid_above_ceiling_refused_before_allocation(tmp_path, capsys):
    # the outcome count is worked out from the grid's span and step, so a
    # grid of ~4e30 outcomes is refused (exit 3, naming grid) without an
    # attempt to allocate it
    from fockamp import cli
    cfg = {"command": "povm",
           "amplifier": {"variant": "two_mode_normal", "g_list": [1.0]},
           "detector": {"kind": "heterodyne", "efficiency": 0.5},
           "dims": {"signal": 4},
           "grid": {"n_widths": 1e9, "points_per_width": 10 ** 6}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code = cli.main(["--config", str(config), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "'grid'" in capsys.readouterr().err
    assert peak < 4 * 2 ** 20, peak / 2 ** 20
    assert not (tmp_path / "povm_g1.csv").exists()


# ---------------------------------------------------------------------------
# estimate / compare
# ---------------------------------------------------------------------------

def test_estimate_and_rerun_byte_identical(tmp_path):
    cfg = {"command": "estimate",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "a_dag_a"}, "g": 3.0},
           "input_state": {"kind": "fock", "n": 2},
           "detector": {"kind": "homodyne", "efficiency": 1.0},
           "dims": {"signal": 8}, "trials": 5000, "seed": 42}
    assert run_cli(tmp_path, cfg).returncode == 0
    first = (tmp_path / "estimate.json").read_bytes()
    report = json.loads(first)
    assert abs(report["report"]["mean"] - 2.0) < 0.05
    assert report["config"]["seed"] == 42
    assert run_cli(tmp_path, cfg).returncode == 0
    assert (tmp_path / "estimate.json").read_bytes() == first


def test_estimate_seed_override_changes_output(tmp_path):
    cfg = {"command": "estimate",
           "amplifier": {"variant": "linear", "g": 2.0},
           "input_state": {"kind": "fock", "n": 1},
           "detector": {"kind": "heterodyne"},
           "dims": {"signal": 12}, "trials": 2000, "seed": 1}
    assert run_cli(tmp_path, cfg).returncode == 0
    first = (tmp_path / "estimate.json").read_bytes()
    assert run_cli(tmp_path, cfg, "--seed", "2").returncode == 0
    second = (tmp_path / "estimate.json").read_bytes()
    assert first != second
    assert json.loads(second)["config"]["seed"] == 2


def test_compare_improvement_flag(tmp_path):
    cfg = {"command": "compare",
           "amplifier": {"variant": "two_mode_normal", "f": {"kind": "a_dag_a"},
                         "g": 1.0},
           "input_state": {"kind": "coherent", "alpha": [1.0, 0.0]},
           "dims": {"signal": 16}, "trials": 4000, "seed": 3}
    assert run_cli(tmp_path, cfg).returncode == 0
    rep = json.loads((tmp_path / "compare.json").read_text())["report"]
    assert rep["improvement"] is True
    assert abs(rep["analytic_nonlinear_variance"] - 1.25) < 1e-5
    assert abs(rep["analytic_linear_variance"] - 3.0) < 1e-5


def test_estimate_nonnormal_quadratic_rejected(tmp_path):
    cfg = {"command": "estimate",
           "amplifier": {"variant": "two_mode_normal",
                         "f": {"kind": "quadratic", "alpha": [1.0, 0.0],
                               "beta": [1.0, 0.0], "gamma": [0.0, 0.0],
                               "delta": [0.0, 0.0]}, "g": 2.0},
           "input_state": {"kind": "fock", "n": 1},
           "detector": {"kind": "homodyne"},
           "dims": {"signal": 8}, "trials": 100}
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert "NotNormal" in proc.stderr


def test_seed_override_obeys_the_seed_row(tmp_path, capsys):
    # --seed goes through the same rule as the config's seed: a negative one
    # exits 2 with the key named, not in a Philox traceback
    from fockamp import cli
    cfg = {"command": "estimate", "amplifier": {"variant": "linear"},
           "input_state": {"kind": "fock", "n": 1},
           "dims": {"signal": 4}, "trials": 100}
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    for seed, given in (("-1", 1), ("3", -1)):
        config.write_text(json.dumps(cfg | {"seed": given}))
        assert cli.main(["--config", str(config), "--out", str(out),
                         "--seed", seed]) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()


def test_seed_bound_keeps_both_philox_keys_in_range(tmp_path, capsys):
    # Philox keys are below 2**128 and compare keys its linear side with
    # seed + 1, so 2**128 - 2 is the largest seed. A larger one, given in
    # the config or by --seed, exits 2 with the key named: not a Philox
    # ValueError traceback (exit 1), nor a run-time ceiling (exit 3)
    from fockamp import cli
    top = 2 ** 128 - 2
    cfg = {"command": "compare", "amplifier": {"g": 1.0},
           "input_state": {"kind": "coherent", "alpha": 0.5},
           "dims": {"signal": 16}, "trials": 100}
    for seed in (top + 1, top + 2):
        with pytest.raises(ConfigError, match="'seed'") as info:
            validate_config(cfg | {"seed": seed})
        assert not isinstance(info.value, ResourceLimit)
    estimate = {"command": "estimate", "amplifier": {"variant": "linear"},
                "dims": {"signal": 4}, "trials": 100, "seed": top + 2}
    proc = run_cli(tmp_path, estimate)
    assert proc.returncode == 2
    assert "'seed'" in proc.stderr and "Traceback" not in proc.stderr
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    config.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(config), "--out", str(out),
                     "--seed", str(top + 1)]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert cli.main(["--config", str(config), "--out", str(out),
                     "--seed", str(top)]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["config"]["seed"] == top


def test_estimate_and_compare_load_no_scipy(tmp_path):
    # start-up (import and validation of every benchmark config) and the
    # estimate and compare commands run on numpy alone; scipy is imported
    # only by the displacement kernel, which povm and verify run
    script = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        from fockamp import cli
        configs = Path({str(CONFIGS)!r})
        for path in sorted(configs.glob("*/*.json")):
            cli.validate_config(json.loads(path.read_text()))
        for name in ("estimate_linear", "estimate_two_mode", "compare"):
            cfg = json.loads((configs / "montecarlo" / (name + ".json")).read_text())
            cfg["trials"] = 2000
            path = Path({str(tmp_path)!r}) / (name + ".json")
            path.write_text(json.dumps(cfg))
            code = cli.main(["--config", str(path), "--out", str(path.parent / name)])
            assert code == 0, (name, code)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_povm_and_verify_load_no_scipy(tmp_path):
    # the displacement kernel is numpy-only, so the numeric POVM sandwich
    # (heterodyne, squeezed-meter homodyne) and verify run without scipy;
    # povm and estimate, the linear one on the rejection sampler, run
    # without loading verify or the dense oracles. Nor do they load what
    # each would hold for nothing, each far past the benchmark's 0.1 MB
    # peak-RSS bound: povm, which draws nothing, neither numpy.random
    # (~6.1 MB) nor concurrent.futures with logging (~0.6 MB), and no
    # command numpy.polynomial (~0.75 MB)
    script = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        from fockamp import cli
        out = Path({str(tmp_path)!r})
        amp = {{"variant": "two_mode_normal", "f": {{"kind": "a_dag_a"}},
                "g_list": [1]}}
        configs = {{
            "heterodyne": {{"command": "povm", "amplifier": amp,
                            "detector": {{"kind": "heterodyne", "efficiency": 0.5}},
                            "dims": {{"signal": 3}}}},
            "homodyne": {{"command": "povm",
                          "amplifier": dict(amp, variant="von_neumann",
                                            meter={{"kind": "squeezed", "r": 0.5}}),
                          "detector": {{"kind": "homodyne", "efficiency": 0.5}},
                          "dims": {{"signal": 3}}}},
            "estimate": {{"command": "estimate", "amplifier": amp,
                          "input_state": {{"kind": "fock", "n": 1}},
                          "detector": {{"kind": "homodyne"}},
                          "dims": {{"signal": 4}}, "trials": 2000}},
            "linear": {{"command": "estimate", "amplifier": {{"variant": "linear"}},
                        "input_state": {{"kind": "fock", "n": 2}},
                        "detector": {{"kind": "heterodyne", "efficiency": 0.8}},
                        "dims": {{"signal": 8}}, "trials": 2000}},
            "verify": {{"command": "verify"}},
        }}
        for name, cfg in configs.items():
            if name == "estimate":
                loaded = {{"numpy.random", "concurrent.futures"}} & set(sys.modules)
                assert not loaded, sorted(loaded)
            if name == "verify":
                # the dense oracles load with verify and with no other command
                loaded = {{"fockamp.oracles", "fockamp.verify"}} & set(sys.modules)
                assert not loaded, sorted(loaded)
            path = out / (name + ".json")
            path.write_text(json.dumps(cfg))
            code = cli.main(["--config", str(path), "--out", str(out / name)])
            assert code == 0, (name, code)
        for name in ("heterodyne", "homodyne"):
            summary = json.loads((out / name / "povm_summary.json").read_text())
            assert summary["per_gain"][0]["numeric"] is not None, name
        assert "numpy.polynomial" not in sys.modules
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_package_source_imports_no_scipy():
    # static guard: no module of the package imports scipy, at any depth, and
    # no module but verify imports the dense oracles
    src = Path(__file__).resolve().parents[1] / "src" / "fockamp"
    paths = sorted(src.glob("*.py"))
    assert paths
    found, oracle_users = [], []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import oracles" names the module in its aliases
                names = [node.module or ""] + [
                    f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
            if any("oracles" in n.split(".") for n in names):
                oracle_users.append(path.name)
    assert found == []
    assert set(oracle_users) == {"verify.py"}
