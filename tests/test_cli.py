"""CLI tests: config validation, commands, output formats, reproducibility."""
import json
import math
import re
import subprocess
import sys

import pytest


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
    cfg = {"command": "estimate", "trials": 0,
           "amplifier": {"variant": "linear", "g": 2.0}}
    proc = run_cli(tmp_path, cfg)
    assert proc.returncode == 2
    assert "trials" in proc.stderr


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


def test_verify_three_mode_check_memory_is_bounded():
    # the check builds only the 108 guarded columns of the 2880-dim W; the
    # dense W alone would take 133 MB
    import tracemalloc
    from fockamp import verify
    fn = dict(verify.CHECKS)["three-mode meter relations"]
    tracemalloc.start()
    try:
        ok, detail = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert detail == "residual 8.646e-08 (tol 1.0e-06)"
    assert peak < 64 * 2 ** 20


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
    assert by_g[0.5]["numeric"]["max_offdiagonal"] < 1e-8
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
