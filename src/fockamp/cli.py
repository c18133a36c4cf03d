"""Command-line front end.

One JSON config per run; commands: verify, noise-sweep, povm, estimate,
compare. Exit codes: 0 success, 1 check failure, 2 usage/config error,
3 truncation/resource error (including ``trials`` above ``TRIALS_MAX``).
Reports embed the fully resolved config, use a
fixed key order and 12-significant-digit scientific CSV, so reruns with the
same seed are byte-identical.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import amplifiers as amp
from . import estimators as est
from . import measurement as meas
from .errors import (ConfigError, CoverageError, FockampError, GainOutOfRange,
                     NotHermitian, NotNormal, ResourceLimit, TruncationError)
from .fock import FockSpace, State, make_state, number_op, parity_op

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3

# Monte Carlo memory does not grow with trials (the draws stream in blocks on
# a thread pool, each reduced a chunk at a time); this ceiling bounds run
# time. Larger configs are refused at validation.
TRIALS_MAX = 10 ** 8
# rows per %-format of the CSV writer (see _write_csv)
CSV_ROWS = 256
# povm holds its outcome grid and (outcomes, signal dim) weight tables, and
# it writes one CSV row per weight: memory and output grow with the outcome
# count, which this ceiling bounds. The detector kernel reads the outcomes a
# block at a time, one amplitude table of ~2**16 entries. A larger grid is
# refused before it is built.
POVM_OUTCOMES_MAX = 10 ** 6

# One row per config key: path, type, bounds, default, and the kind of its
# object that reads it (None: every kind). Types: "int", "count" (an integer
# whose upper bound is a run-time ceiling: above it, ResourceLimit, exit 3),
# "num" (a finite number), "pair" (a number or [re, im], resolved to
# [re, im]), "nums" (a non-empty list of numbers, bounds per entry), "str",
# or a tuple of the allowed strings. Bounds are intervals, their integer ends
# exact. A default of None makes the key
# required; a callable default is given the object resolved so far. Keys of
# another kind are dropped unchecked. README's "Config reference" lists the
# rows with the commands and variants that read them.
_FIELDS = (
    ("command", ("verify", "noise-sweep", "povm", "estimate", "compare"),
     None, None, None),
    ("amplifier.variant", ("linear", "two_mode_normal", "von_neumann",
                           "three_mode", "single_mode"),
     None, "two_mode_normal", None),
    ("amplifier.g", "num", "(0, inf)", 2.0, None),
    ("amplifier.g_list", "nums", "(0, inf)", lambda amp: [amp["g"]], None),
    ("amplifier.r", "num", "[0, inf)", 0.0, None),
    ("amplifier.f.kind", ("a_dag_a", "quadratic", "poly_x", "parity"),
     None, "a_dag_a", None),
    ("amplifier.f.alpha", "pair", None, 0.0, "quadratic"),
    ("amplifier.f.beta", "pair", None, 0.0, "quadratic"),
    ("amplifier.f.gamma", "pair", None, 0.0, "quadratic"),
    ("amplifier.f.delta", "pair", None, 0.0, "quadratic"),
    ("amplifier.f.coeffs", "nums", None, [0.0, 0.0, 1.0], "poly_x"),
    ("amplifier.meter.kind", ("vacuum", "squeezed", "gaussian"),
     None, "vacuum", None),
    ("amplifier.meter.r", "num", f"[-{amp.R_MAX!r}, {amp.R_MAX!r}]", 0.0, None),
    ("amplifier.meter.epsilon", "num",
     f"[{math.exp(-amp.R_MAX)!r}, {math.exp(amp.R_MAX)!r}]", 1.0, None),
    ("input_state.kind", ("vacuum", "fock", "coherent", "squeezed_vacuum"),
     None, "vacuum", None),
    ("input_state.n", "int", "[0, inf)", None, "fock"),
    ("input_state.alpha", "pair", None, 1.0, "coherent"),
    ("input_state.r", "num", None, 0.5, "squeezed_vacuum"),
    ("input_state.phi", "num", None, 0.0, "squeezed_vacuum"),
    ("detector.kind", ("heterodyne", "homodyne"), None, "heterodyne", None),
    ("detector.efficiency", "num", "(0, 1]", 1.0, None),
    ("dims.signal", "int", "[2, inf)", 8, None),
    ("trials", "count", f"[2, {TRIALS_MAX}]", 100000, None),
    # a Philox key is below 2**128, and compare keys its linear side seed + 1
    ("seed", "int", f"[0, {2 ** 128 - 2}]", 42, None),
    ("grid.n_widths", "num", "(0, inf)", 5.0, None),
    ("grid.points_per_width", "int", "[1, inf)", 4, None),
    ("output", "str", None, ".", None),
)


def validate_config(cfg) -> dict:
    """Check a config against _FIELDS and the cross-field rules, naming the
    key in every error; returns a resolved copy with defaults filled in."""
    # every row's path and the paths of the objects that hold it
    known = {path.rsplit(".", n)[0] for path, *_ in _FIELDS
             for n in range(path.count(".") + 1)}
    out = {}
    blocks = {"": (_object(cfg, "", known), out)}
    for path, kind, bounds, default, reader in _FIELDS:
        prefix, _, key = path.rpartition(".")
        given, resolved = _block(blocks, prefix, known)
        if reader is not None and resolved["kind"] != reader:
            continue
        value = given.get(key, default(resolved) if callable(default)
                          else default)
        resolved[key] = _field(path, kind, bounds, value)
    _check_rules(out)
    return out


def _object(block, prefix: str, known: set) -> dict:
    """`block`, once it is an object whose keys are all `known` paths (a
    dotted key such as "amplifier.g" at the top is not one)."""
    if not isinstance(block, dict):
        raise ConfigError(f"'{prefix}' must be an object" if prefix
                          else "config must be a JSON object")
    head = prefix + "." if prefix else ""
    for key in block:
        if "." in key or head + key not in known:
            raise ConfigError(f"unknown key '{head}{key}'")
    return block


def _block(blocks: dict, prefix: str, known: set):
    """(given, resolved) objects at `prefix`, checked when first reached."""
    if prefix not in blocks:
        parent, _, name = prefix.rpartition(".")
        given, resolved = _block(blocks, parent, known)
        resolved[name] = {}
        blocks[prefix] = (_object(given.get(name, {}), prefix, known),
                          resolved[name])
    return blocks[prefix]


def _number(value):
    """A finite float, or None; JSON true/false load as bool, an int
    subclass, and are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _field(path: str, kind, bounds, value):
    """One config value checked against its row of _FIELDS and resolved."""
    if kind in ("int", "count"):
        items = [None if isinstance(value, bool) or not isinstance(value, int)
                 else value]
    elif kind == "num":
        items = [_number(value)]
    elif kind == "pair":
        parts = value if isinstance(value, list) else [value, 0.0]
        items = [_number(v) for v in parts] if len(parts) == 2 else [None]
    elif kind == "nums":
        items = [_number(v) for v in value] \
            if isinstance(value, list) and value else [None]
    else:
        items = [value if isinstance(value, str)
                 and (kind == "str" or value in kind) else None]
    ok = None not in items
    if ok and bounds:
        lo, hi = (int(b) if b.strip().isdigit() else float(b)
                  for b in bounds[1:-1].split(","))
        if kind == "count" and value > hi:
            raise ResourceLimit(f"'{path}' = {value} exceeds the run-time "
                                f"ceiling {hi:.0e}")
        ok = all((lo < v if bounds[0] == "(" else lo <= v)
                 and (v < hi if bounds[-1] == ")" else v <= hi) for v in items)
    if not ok:
        want = {"int": "an integer", "count": "an integer", "num": "a number",
                "pair": "a number or [re, im] pair",
                "nums": "a non-empty list of numbers",
                "str": "a string"}.get(kind) or f"one of {list(kind)}"
        raise ConfigError(f"'{path}' must be {want}"
                          + (f" in {bounds}" if bounds else "")
                          + f", not {value!r}")
    return items if kind in ("pair", "nums") else items[0]


def _check_rules(cfg: dict):
    """Cross-field rules: a Fock input inside the signal space; the variants
    each command covers (compare builds a two-mode and a linear amplifier
    of its own); for povm and estimate, the detector each variant is read
    out by (the POVM model of measurement.povm_model, or the estimator of
    estimators.run_plan); and the vacuum meter of two closed forms."""
    command, variant = cfg["command"], cfg["amplifier"]["variant"]
    if cfg["input_state"].get("n", 0) >= cfg["dims"]["signal"]:
        raise ConfigError("'input_state.n' must be below dims.signal = "
                          f"{cfg['dims']['signal']}")
    covers = {
        "noise-sweep": dict.fromkeys(("linear", "two_mode_normal",
                                      "von_neumann", "three_mode")),
        "povm": {"two_mode_normal": "heterodyne", "von_neumann": "homodyne",
                 "three_mode": "homodyne"},
        "estimate": {"linear": "heterodyne", "two_mode_normal": "homodyne",
                     "von_neumann": "homodyne"},
        "compare": {"two_mode_normal": None},
    }.get(command)
    if covers is None:
        return
    if variant not in covers:
        raise ConfigError(f"'amplifier.variant': {command} covers "
                          + ", ".join(sorted(covers)))
    if covers[variant] not in (None, cfg["detector"]["kind"]):
        raise ConfigError(f"'detector.kind' must be {covers[variant]} for a "
                          f"{variant} {command}")
    # a vacuum meter: the linear estimator draws the input's Husimi law, and
    # the heterodyne POVM's closed form has unit width
    if (command, variant) in (("estimate", "linear"), ("povm", "two_mode_normal")) \
            and cfg["amplifier"]["meter"]["kind"] != "vacuum":
        raise ConfigError("'amplifier.meter.kind' must be vacuum for a "
                          f"{variant} {command}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_signal_op(fres: dict, space: FockSpace):
    kind = fres["kind"]
    if kind == "a_dag_a":
        return number_op(space)
    if kind == "parity":
        return parity_op(space)
    if kind == "quadratic":
        op, _ = amp.quadratic_signal_op(
            space, complex(*fres["alpha"]), complex(*fres["beta"]),
            complex(*fres["gamma"]), complex(*fres["delta"]))
        return op
    # poly_x: Hermitian function of x via functional calculus
    return amp._f_of_x_operator(fres["coeffs"], space)


def build_meter(meter: dict) -> amp.Meter:
    return amp.Meter(meter["kind"], meter["r"], meter["epsilon"])


def build_amplifiers(cfg: dict, gains=None) -> list:
    """The config's amplifier at each of ``gains`` (``[amplifier.g]`` if
    None); they share one signal operator f, built once."""
    ab = cfg["amplifier"]
    variant, gains = ab["variant"], [ab["g"]] if gains is None else gains
    meter = build_meter(ab["meter"])
    if variant == "linear":
        return [amp.LinearAmp(g, meter) for g in gains]
    if variant == "single_mode":
        coeffs = tuple(ab["f"].get("coeffs", [0.0, 0.0, 1.0]))
        return [amp.SingleModeAmp(coeffs, g, ab["r"]) for g in gains]
    f = build_signal_op(ab["f"], FockSpace(cfg["dims"]["signal"]))
    if variant == "two_mode_normal":
        return [amp.TwoModeNormalAmp(f, g, meter) for g in gains]
    if variant == "von_neumann":
        return [amp.VonNeumannAmp(f, g, meter) for g in gains]
    return [amp.ThreeModeAmp(f, g, meter, meter) for g in gains]


def build_input_state(cfg: dict) -> State:
    sres = cfg["input_state"]
    space = FockSpace(cfg["dims"]["signal"])
    params = dict(sres)
    kind = params.pop("kind")
    if "alpha" in params:
        params["alpha"] = complex(*params["alpha"])
    return make_state(space, kind, **params)


def build_detector(cfg: dict) -> meas.DetectorSpec:
    return meas.DetectorSpec(cfg["detector"]["kind"], cfg["detector"]["efficiency"])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list, rows):
    # the bytes of one %-format per row, from the types of the first row, but
    # CSV_ROWS rows per format; a body formatted in one piece would hold a
    # whole povm weight table (~0.2 MB more peak RSS on the povm benchmark)
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fmt = None
        while block := list(itertools.islice(rows, CSV_ROWS)):
            fmt = fmt or ",".join("%s" if isinstance(v, str) else "%.11e"
                                  for v in block[0]) + "\n"
            fh.write(fmt * len(block) % tuple(itertools.chain.from_iterable(block)))


def _povm_rows(outcomes: np.ndarray, measure: float, table: np.ndarray):
    """CSV rows (outcome_re,outcome_im,measure, eigen_index, weight) of the
    (n, d) weight table, from .tolist() values about CSV_ROWS rows at a
    time; an outcome's three leading columns are formatted once."""
    labels = [str(i) for i in range(table.shape[1])]
    step, lead = max(1, CSV_ROWS // len(labels)), "%.11e,%.11e," + "%.11e" % measure
    for lo in range(0, table.shape[0], step):
        o = outcomes[lo:lo + step]
        for re, im, row in zip(np.real(o).tolist(), np.imag(o).tolist(),
                               table[lo:lo + step].tolist()):
            yield from zip(itertools.repeat(lead % (re, im)), labels, row)


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: dict, outdir: Path, amplifier_given: bool) -> int:
    # imported here: verify loads the dense oracles, which no other command needs
    from . import verify as verify_mod
    extra = []
    if amplifier_given:
        def _configured():
            try:
                build_amplifiers(cfg)
            except (NotNormal, NotHermitian) as exc:
                return False, f"{type(exc).__name__}: {exc}"
            return True, "amplifier constructible"
        extra.append(("configured amplifier gate", _configured))
    _, n_fail = verify_mod.run_all(extra)
    return EXIT_OK if n_fail == 0 else EXIT_CHECK


def cmd_noise_sweep(cfg: dict, outdir: Path) -> int:
    ab = cfg["amplifier"]
    state = build_input_state(cfg)
    rows = []
    for g, spec in zip(ab["g_list"], build_amplifiers(cfg, ab["g_list"])):
        rep = amp.predict_output_moments(spec, state)
        rows.append((g, ab["variant"], rep.quad_means[0], rep.quad_noises[0],
                     rep.added_noise))
        if ab["variant"] != "linear" and g >= 1.0:
            lin = amp.predict_output_moments(amp.LinearAmp(g), state)
            rows.append((g, "linear", lin.quad_means[0], lin.quad_noises[0],
                         lin.added_noise))
    _write_csv(outdir / "sweep.csv",
               ["g", "variant", "signal_mean", "total_noise", "added_noise"],
               rows)
    return EXIT_OK


def cmd_povm(cfg: dict, outdir: Path) -> int:
    detector = build_detector(cfg)
    specs = build_amplifiers(cfg, cfg["amplifier"]["g_list"])
    dec = specs[0].dec
    regions = meas.DecisionRegions.from_decomposition(dec)
    nw = cfg["grid"]["n_widths"]
    ppw = cfg["grid"]["points_per_width"]
    summary = {"config": cfg, "per_gain": []}
    # bounds the detector kernel's cost: signal dim x the largest unprobed meter
    # size; at 2 x 1225 a heterodyne povm at g 29 takes ~8 s on 2 vCPUs
    numeric_limit = 2500
    lam = dec.eigenvalues
    for g, spec in zip(cfg["amplifier"]["g_list"], specs):
        model, epsilon = meas.povm_model(spec)
        closed = meas.effective_povm_closed_form(spec.dec, g, detector.sigma2,
                                                 model, epsilon)
        w = math.sqrt(closed.width2)
        outcomes, measure = _povm_grid(lam, w, nw, ppw,
                                       complex_grid=(model != "homodyne"))
        _write_csv(outdir / f"povm_g{g:g}.csv",
                   ["outcome_re", "outcome_im", "measure", "eigen_index",
                    "weight"],
                   _povm_rows(outcomes, measure, closed.weights(outcomes)))
        weights = meas.own_region_weights(closed, regions)
        entry = {
            "g": g,
            "closed_identity_residual": closed.identity_residual(),
            "own_region_weights": [float(v) for v in weights],
            "numeric": None,
        }
        try:  # unprobed meter sizes: no meter is built for the gate
            levels = max(amp.meter_dim_for(g, float(np.abs(part(lam)).max()), m)
                         for m, part in amp.meter_table(spec))
        except TruncationError:
            levels = math.inf
        if dec.space.dim * levels <= numeric_limit:
            grid = meas.effective_povm_numeric(spec, detector, outcomes)
            grid.measure = measure
            entry["numeric"] = {
                "max_deviation_from_closed_form": grid.max_deviation(closed),
                "grid_identity_residual": grid.identity_residual(),
            }
        summary["per_gain"].append(entry)
    _write_json(outdir / "povm_summary.json", summary)
    return EXIT_OK


def _povm_grid(eigenvalues: np.ndarray, width: float, n_widths: float,
               points_per_width: int, complex_grid: bool):
    step = width / points_per_width
    parts = (np.real, np.imag) if complex_grid else (np.real,)
    spans = [(float(part(eigenvalues).min() - n_widths * width),
              float(part(eigenvalues).max() + n_widths * width) + step / 2)
             for part in parts]
    # np.arange's length, counted before anything is allocated; nan or inf
    # where the record width at this gain leaves the float range
    with np.errstate(divide="ignore", invalid="ignore"):
        count = math.prod(np.ceil(np.float64(hi - lo) / step) for lo, hi in spans)
    if not count <= POVM_OUTCOMES_MAX:
        raise ResourceLimit(f"'grid': {count:.3g} outcomes (record width "
                            f"{width:.3g}) exceed the ceiling {POVM_OUTCOMES_MAX:.0e}")
    axes = [np.arange(lo, hi, step) for lo, hi in spans]
    if not complex_grid:
        return axes[0], step
    gr, gi = np.meshgrid(*axes, indexing="ij")
    return (gr + 1j * gi).ravel(), step * step


def cmd_estimate(cfg: dict, outdir: Path) -> int:
    spec, = build_amplifiers(cfg)
    detector = build_detector(cfg)
    plan = est.TrialPlan(spec, build_input_state(cfg), detector,
                         cfg["trials"], cfg["seed"])
    rep = est.run_plan(plan)
    _write_json(outdir / "estimate.json", {"config": cfg, "report": rep.to_dict()})
    _write_csv(outdir / "estimate.csv", list(rep.CSV_HEADER), [rep.to_csv_row()])
    return EXIT_OK


def cmd_compare(cfg: dict, outdir: Path) -> int:
    state = build_input_state(cfg)
    space = state.space
    f = build_signal_op(cfg["amplifier"]["f"], space)
    rep = est.compare_schemes(state, cfg["amplifier"]["g"], cfg["trials"],
                              cfg["seed"], f=f,
                              eta=cfg["detector"]["efficiency"],
                              meter=build_meter(cfg["amplifier"]["meter"]))
    _write_json(outdir / "compare.json", {"config": cfg, "report": rep.to_dict()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fockamp",
        description="nonlinear-amplifier simulations on truncated Fock spaces")
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config RNG seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = validate_config(raw)
        if args.seed is not None:  # the override obeys the seed's own row
            cfg = validate_config({**raw, "seed": args.seed})
        outdir = Path(args.out) if args.out else Path(cfg["output"])
        outdir.mkdir(parents=True, exist_ok=True)
        command = cfg["command"]
        if command == "verify":
            return cmd_verify(cfg, outdir, "amplifier" in raw)
        if command == "noise-sweep":
            return cmd_noise_sweep(cfg, outdir)
        if command == "povm":
            return cmd_povm(cfg, outdir)
        if command == "estimate":
            return cmd_estimate(cfg, outdir)
        return cmd_compare(cfg, outdir)
    except ResourceLimit as exc:
        print(f"truncation/resource error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GainOutOfRange as exc:  # an amplifier's range or an estimator's noise rule
        print(f"config error: 'amplifier.g': {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotNormal, NotHermitian) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, MemoryError) as exc:
        print(f"truncation/resource error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (CoverageError, FockampError) as exc:
        print(f"check failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
