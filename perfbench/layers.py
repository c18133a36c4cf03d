"""Per-layer metrics from the span files that tracer.py writes.

A span's self time is its duration minus the durations of its direct child
spans. Each traced function belongs to one layer: the named groups below,
else "<module>.other" (fock, amplifiers, measurement), "estimators.stats",
"verify.checks" (check bodies and the check runner) or "cli.other" (command
glue and grid build). cli.other_s is what is left of the traced wall once
every other layer's self time is taken out, so the layers add up to the
traced wall.
"""
from __future__ import annotations

import json

GROUPS = {
    "fock.hermite_functions": ("fock.hermite_functions",),
    "fock.expm_hermitian": ("fock.expm_hermitian",),
    "fock.normal_decompose": ("fock.normal_decompose",),
    "amplifiers.unitary": tuple("amplifiers." + n for n in (
        "two_mode_unitary", "two_mode_unitary_factored", "von_neumann_unitary",
        "three_mode_unitary", "linear_amp_unitary")),
    "amplifiers.simulate": tuple("amplifiers." + n for n in (
        "simulated_output_moments", "simulate_output_state", "_spectral_output",
        "_apply_unitary", "_check_top_occupancy", "_mode_quad_moments",
        "_default_meter_states")),
    "amplifiers.displaced_meter_ket": ("amplifiers.displaced_meter_ket",
                                       "amplifiers._displacement_basis"),
    "measurement.heterodyne_element": ("measurement.heterodyne_element",),
    "measurement.homodyne_element": ("measurement.homodyne_element",
                                     "measurement._default_ygrid"),
    "measurement.sandwich": ("measurement.effective_povm_numeric",
                             "measurement._evolved_columns"),
    "measurement.closed_form": ("measurement.effective_povm_closed_form",),
    "measurement.husimi_values": ("measurement.husimi_values",
                                  "measurement._coherent_overlap_matrix"),
    "estimators.draws": tuple("estimators." + n for n in (
        "nonlinear_meter_x_samples", "ideal_heterodyne_draws",
        "linear_heterodyne_samples")),
    "cli.write": ("cli._write_csv", "cli._write_json"),
}
DEFAULT_LAYER = {"fock": "fock.other", "amplifiers": "amplifiers.other",
                 "measurement": "measurement.other",
                 "estimators": "estimators.stats", "verify": "verify.checks",
                 "cli": "cli.other"}
LAYER_OF = {fn: layer for layer, fns in GROUPS.items() for fn in fns}

# calls are counted on these functions only (not on their helpers)
CALLS = {
    "measurement.heterodyne_element.calls": ("measurement.heterodyne_element",),
    "measurement.homodyne_element.calls": ("measurement.homodyne_element",),
    "fock.hermite_functions.calls": ("fock.hermite_functions",),
    "amplifiers.unitary.calls": GROUPS["amplifiers.unitary"],
    "amplifiers.displaced_meter_ket.calls": ("amplifiers.displaced_meter_ket",),
}
SELF_TIMES = ("measurement.heterodyne_element", "measurement.homodyne_element",
              "fock.hermite_functions", "measurement.sandwich",
              "fock.expm_hermitian", "amplifiers.unitary", "amplifiers.simulate",
              "measurement.husimi_values", "estimators.draws",
              "amplifiers.displaced_meter_ket", "estimators.stats",
              "measurement.closed_form",
              "fock.normal_decompose", "cli.write", "fock.other",
              "amplifiers.other", "measurement.other", "verify.checks")
# verify checks timed whole (inclusive of the library calls they make)
NAMED_CHECKS = {"three-mode meter relations": "three_mode_meter_relations",
                "ordered-product factorization": "ordered_product_factorization"}
COUNTER_KEYS = ("measurement.sandwich.outcomes", "fock.expm_hermitian.max_dim",
                "amplifiers.unitary.bytes", "measurement.husimi_values.bytes",
                "estimators.trials", "cli.write.bytes")


def layer_of(name: str) -> str:
    if name.startswith("verify.check:"):
        return "verify.checks"
    return LAYER_OF.get(name, DEFAULT_LAYER[name.split(".", 1)[0]])


def check_key(check_name: str) -> str:
    for prefix, key in NAMED_CHECKS.items():
        if check_name.startswith(prefix):
            return "verify.check_s." + key
    return "verify.check_s.rest"


def profile(paths) -> dict:
    """Per-layer totals over the span files of one pass over a workload."""
    self_s = dict.fromkeys(list(SELF_TIMES) + ["cli.other"], 0.0)
    calls = dict.fromkeys(CALLS, 0)
    checks = {"verify.check_s." + k: 0.0 for k in NAMED_CHECKS.values()}
    checks["verify.check_s.rest"] = 0.0
    counters = dict.fromkeys(COUNTER_KEYS, 0.0)
    terms_built = terms_useful = 0.0
    wall = 0.0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        wall += trace["wall"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            self_s[layer_of(name)] += (end - start) - child[i]
            for key, fns in CALLS.items():
                if name in fns:
                    calls[key] += 1
            if name.startswith("verify.check:"):
                checks[check_key(name.split(":", 1)[1])] += end - start
        c = trace["counters"]
        for key in COUNTER_KEYS:
            if key == "fock.expm_hermitian.max_dim":
                counters[key] = max(counters[key], c.get(key, 0.0))
            else:
                counters[key] += c.get(key, 0.0)
        terms_built += c.get("measurement.heterodyne_element.terms_built", 0.0)
        terms_useful += c.get("measurement.heterodyne_element.terms_useful", 0.0)

    named = sum(v for k, v in self_s.items() if k != "cli.other")
    out = {k + ".self_s": v for k, v in self_s.items() if k != "cli.other"}
    out["cli.other_s"] = wall - named
    out.update(calls)
    out.update(checks)
    out.update(counters)
    out["measurement.heterodyne_element.useful_rank_ratio"] = (
        terms_useful / terms_built if terms_built else 0.0)
    out["trace.coverage"] = named / wall if wall else 0.0
    out["trace.wall_s"] = wall
    out["measurement.share"] = sum(
        v for k, v in self_s.items() if k.startswith("measurement.")) / wall \
        if wall else 0.0
    return out
