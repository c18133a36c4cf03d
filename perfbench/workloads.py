"""Workloads (fixed CLI configs) and the correctness gate for each operation.

An operation is one (config, gain) pair on povm and one config elsewhere. An
operation fails when its CLI call exits non-zero or its output fails the
check below. povm and verify are deterministic; only the montecarlo configs
take the benchmark seed, passed through the CLI's --seed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

WORKLOADS = {
    "povm": ("heterodyne", "homodyne"),
    "montecarlo": ("estimate_linear", "estimate_two_mode", "compare"),
    "verify": ("verify",),
}
SEEDED = {"montecarlo"}
# numeric-vs-closed-form POVM deviation and grid identity residual; the
# passing operations read below 1e-12
POVM_TOL = 1e-9
# |z| of Monte Carlo means and variances against their analytic values
Z_MAX = 5.0
# Failures that are known program defects. They count as failed operations
# but do not make the run incorrect, and pass silently once fixed.
# homodyne_element integrates on |y| <= 10 while the g = 3 outcomes reach
# g (3 + 5 w) ~ 12.9, so the grid misses POVM mass.
KNOWN_DEFECTS = {("homodyne", 3.0)}


def config_path(workload: str, name: str) -> Path:
    return CONFIG_DIR / workload / f"{name}.json"


def load_config(workload: str, name: str) -> dict:
    return json.loads(config_path(workload, name).read_text(encoding="utf-8"))


def operations(workload: str, name: str) -> list:
    """Operation keys of one config: its gains on povm, else the config."""
    if workload == "povm":
        cfg = load_config(workload, name)
        return [(name, float(g)) for g in cfg["amplifier"]["g_list"]]
    return [(name, None)]


def check_config(workload: str, name: str, outdir: Path, stdout: str,
                 code: int, seed: int) -> dict:
    """{operation key: None if it passed, else the reason it failed}."""
    ops = operations(workload, name)
    if code != 0:
        return {op: f"exit code {code}" for op in ops}
    try:
        if workload == "povm":
            return _check_povm(ops, outdir)
        if workload == "montecarlo":
            return {ops[0]: _check_montecarlo(name, outdir, seed)}
        return {ops[0]: _check_verify(stdout)}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {op: f"unreadable output: {type(exc).__name__}: {exc}"
                for op in ops}


def _check_povm(ops, outdir: Path) -> dict:
    summary = json.loads((outdir / "povm_summary.json").read_text("utf-8"))
    per_gain = {float(e["g"]): e for e in summary["per_gain"]}
    result = {}
    for op in ops:
        g = op[1]
        entry = per_gain.get(g)
        if entry is None:
            result[op] = "gain missing from povm_summary.json"
            continue
        with open(outdir / f"povm_g{g:g}.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["outcome_re", "outcome_im", "measure", "eigen_index",
                       "weight"] or len(rows) < 2:
            result[op] = f"povm_g{g:g}.csv has no header or no rows"
            continue
        numeric = entry["numeric"]
        if numeric is None:
            result[op] = "numeric effective POVM was not computed"
            continue
        dev = numeric["max_deviation_from_closed_form"]
        res = numeric["grid_identity_residual"]
        if not (dev <= POVM_TOL and res <= POVM_TOL):
            result[op] = (f"deviation {dev:.3e}, identity residual {res:.3e} "
                          f"(tol {POVM_TOL:.0e})")
        else:
            result[op] = None
    return result


def _check_montecarlo(name: str, outdir: Path, seed: int):
    cfg = load_config("montecarlo", name)
    report_file = "compare.json" if cfg["command"] == "compare" else "estimate.json"
    report = json.loads((outdir / report_file).read_text("utf-8"))["report"]
    # compare_schemes seeds its linear side with seed + 1
    parts = [(report, seed)] if cfg["command"] == "estimate" else \
        [(report["nonlinear"], seed), (report["linear"], seed + 1)]
    for part, want_seed in parts:
        if part is None:
            return "compare ran no linear scheme"
        if part["trials"] != cfg["trials"]:
            return f"{part['estimator']}: {part['trials']} trials, want {cfg['trials']}"
        if part["seed"] != want_seed:
            return f"{part['estimator']}: seed {part['seed']}, want {want_seed}"
        for z in ("z_mean", "z_variance"):
            if not math.isfinite(part[z]) or abs(part[z]) > Z_MAX:
                return f"{part['estimator']}: |{z}| = {abs(part[z]):.2f} > {Z_MAX}"
    return None


def _check_verify(stdout: str):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    checks = [ln for ln in lines if ln.startswith("[")]
    bad = [ln for ln in checks if not ln.startswith("[PASS]")]
    if bad:
        return f"{len(bad)} check(s) not PASS: {bad[0]}"
    if not checks or not lines[-1].endswith(f"{len(checks)} total") \
            or ", 0 failed," not in lines[-1]:
        return f"unexpected summary line: {lines[-1] if lines else '(none)'}"
    return None
