"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py [WORKLOAD ...]

Checks that BENCHMARK.json and perfbench/predictions.json name the same
workloads and per-layer metrics as workloads.py, then runs run.py on each
workload (all by default) with --seconds 1 in both trace modes. It checks
that the last line carries every metric of BENCHMARK.json, by name, with its
unit and a finite value, and prints each run's report lines, so this one
command shows every end-to-end and per-layer metric of every workload. Last,
it runs run.py in a directory that holds only BENCHMARK.json and perfbench/,
where it must exit non-zero without printing a result. Exits 1 on the first
failure. Takes about three minutes.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg: str):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def check_declarations(spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != workloads.py {sorted(WORKLOADS)}")
    pred = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    if sorted(pred["workloads"]) != sorted(WORKLOADS):
        fail("predictions.json does not describe every workload")
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(pred["per_layer"]) != sorted(layer_names):
        missing = set(layer_names) ^ set(pred["per_layer"])
        fail(f"predictions.json and BENCHMARK.json per_layer differ: {sorted(missing)}")
    print("smoke: ok declarations")


def run(argv, cwd: Path):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int):
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace)], ROOT)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    want = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in want):
        fail(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for m in want:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{workload} trace {trace}: {m['name']} printed as {got}")
        if f"{m['name']} = " not in proc.stdout:
            fail(f"{workload} trace {trace}: {m['name']} missing from the report lines")
    if not result["correct"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['correct']=}, "
             f"{result['attempted']=}")
    print(f"smoke: ok {workload} trace {trace}: {len(want)} metrics, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for line in proc.stdout.splitlines()[:-1]:
        print("    " + line)


def check_bare_directory():
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(["perfbench/run.py", "--workload", "povm", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"smoke: ok bare directory exits {proc.returncode} without a result")


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_declarations(spec)
    for workload in argv or sorted(WORKLOADS):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
