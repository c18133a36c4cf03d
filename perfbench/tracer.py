"""Run one fockamp CLI call with the package's functions wrapped in spans.

    python perfbench/tracer.py SPANS_JSON -- <fockamp.cli arguments>

Every module-level function of fockamp.fock, .amplifiers, .measurement,
.estimators, .verify and .cli is wrapped from outside the program. Modules
import each other's functions by name, so the wrapper replaces the function
in every fockamp module that holds it. Each check in verify.CHECKS gets its
own span named after the check. Generator functions are left alone: their
work runs while the caller drains them and lands in the caller's self time.

Spans (name, start, end, parent index) and per-call counters stay in memory
and are written to SPANS_JSON once, when the CLI call returns. The exit code
is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

MODULES = ("fock", "amplifiers", "measurement", "estimators", "verify", "cli")
UNITARY_FUNCTIONS = ("two_mode_unitary", "two_mode_unitary_factored",
                    "von_neumann_unitary", "three_mode_unitary",
                    "linear_amp_unitary")


def _heterodyne_terms(a):
    # rank-one terms built per call versus terms whose weight s^k >= 1e-16
    d = a["space"].dim
    sigma2 = float(a["sigma2"])
    if sigma2 <= 0:
        return {"measurement.heterodyne_element.terms_built": 1,
                "measurement.heterodyne_element.terms_useful": 1}
    s = sigma2 / (1.0 + sigma2)
    useful = min(d, math.floor(math.log(1e-16) / math.log(s)) + 1)
    return {"measurement.heterodyne_element.terms_built": d,
            "measurement.heterodyne_element.terms_useful": useful}


def _written_bytes(a):
    return {"cli.write.bytes": os.path.getsize(a["path"])}


def _unitary_bytes(result):
    return {"amplifiers.unitary.bytes": 16 * result.matrix.shape[0] ** 2}


# counters computed at a function boundary from its bound arguments (and,
# for the dense unitary functions, its result); keyed by "module.function"
COUNTERS = {
    "measurement.heterodyne_element": lambda a, r: _heterodyne_terms(a),
    "measurement.husimi_values": lambda a, r: {
        "measurement.husimi_values.bytes":
            16 * a["state"].space.dim * len(a["betas"])},
    "measurement.effective_povm_numeric": lambda a, r: {
        "measurement.sandwich.outcomes": len(r.outcomes)},
    "fock.expm_hermitian": lambda a, r: {
        "fock.expm_hermitian.max_dim": ("max", a["h"].shape[0])},
    "estimators.nonlinear_meter_x_samples": lambda a, r: {
        "estimators.trials": a["plan"].trials},
    "estimators.linear_heterodyne_samples": lambda a, r: {
        "estimators.trials": a["plan"].trials},
    "cli._write_csv": lambda a, r: _written_bytes(a),
    "cli._write_json": lambda a, r: _written_bytes(a),
}
for _name in UNITARY_FUNCTIONS:
    COUNTERS["amplifiers." + _name] = lambda a, r: _unitary_bytes(r)


class Recorder:
    """In-memory span list with a parent stack (the CLI is single-threaded)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(counter(bound.arguments, result))
            return result

        return traced

    def _count(self, increments):
        for key, value in increments.items():
            if isinstance(value, tuple):  # ("max", v)
                self.counters[key] = max(self.counters[key], value[1])
            else:
                self.counters[key] += value

    def dump(self, path, wall):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wall": wall, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def install(rec: Recorder):
    """Wrap the layer functions and patch them into every fockamp module."""
    mods = {m: importlib.import_module("fockamp." + m) for m in MODULES}
    verify = mods["verify"]
    check_fns = {id(fn) for _, fn in verify.CHECKS}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                    and id(obj) not in check_fns):
                key = f"{short}.{attr}"
                wrapped[id(obj)] = rec.wrap(key, obj, COUNTERS.get(key))
    package = [m for n, m in sys.modules.items()
               if n == "fockamp" or n.startswith("fockamp.")]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    verify.CHECKS[:] = [(name, rec.wrap("verify.check:" + name, fn))
                        for name, fn in verify.CHECKS]


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    cli = importlib.import_module("fockamp.cli")
    t0 = time.perf_counter()
    try:
        code = cli.main(argv[2:])
    finally:
        rec.dump(argv[0], time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
