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
from .fock import (FockSpace, State, make_state, normal_decompose, number_op,
                   parity_op)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3

# Monte Carlo memory is O(workers * BLOCK) whatever trials is (the draws
# stream in blocks on a thread pool); this ceiling bounds run time. Larger
# configs are refused at validation.
TRIALS_MAX = 10 ** 8

_TOP_KEYS = {"command", "amplifier", "input_state", "detector", "dims",
             "trials", "seed", "grid", "output"}
_AMP_KEYS = {"variant", "f", "g", "g_list", "r", "meter"}
_F_KEYS = {"kind", "alpha", "beta", "gamma", "delta", "coeffs"}
_METER_KEYS = {"kind", "r", "epsilon"}
_STATE_KEYS = {"kind", "n", "alpha", "r", "phi"}
_DET_KEYS = {"kind", "efficiency"}
_DIMS_KEYS = {"signal"}
_GRID_KEYS = {"n_widths", "points_per_width"}
_COMMANDS = {"verify", "noise-sweep", "povm", "estimate", "compare"}
_VARIANTS = {"linear", "two_mode_normal", "von_neumann", "three_mode",
             "single_mode"}
# the detector each estimator reads (see estimators.run_plan): the linear
# scheme heterodynes mode a, the nonlinear ones homodyne the meter
_ESTIMATE_DETECTOR = {"linear": "heterodyne", "two_mode_normal": "homodyne",
                      "von_neumann": "homodyne"}


def _reject_unknown(block: dict, allowed: set, path: str):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path
                              else f"unknown key '{key}'")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is an int subclass: not a number
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _as_float(value, path: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"'{path}' must be a number")
    return float(value)


def _as_complex(value, path: str) -> complex:
    if _is_number(value):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"'{path}' must be a number or [re, im] pair")


def validate_config(cfg) -> dict:
    """Schema check with explicit field names in every error; returns a
    fully resolved copy with defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "")
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"'command' must be one of {sorted(_COMMANDS)}")
    out = {"command": command}

    ab = cfg.get("amplifier", {})
    if not isinstance(ab, dict):
        raise ConfigError("'amplifier' must be an object")
    _reject_unknown(ab, _AMP_KEYS, "amplifier")
    variant = ab.get("variant", "two_mode_normal")
    if variant not in _VARIANTS:
        raise ConfigError(f"'amplifier.variant' must be one of {sorted(_VARIANTS)}")
    g = ab.get("g", 2.0)
    if not _is_number(g) or g <= 0:
        raise ConfigError("'amplifier.g' must be a positive number")
    g_list = ab.get("g_list", [g])
    if (not isinstance(g_list, list) or not g_list
            or any(not _is_number(v) or v <= 0 for v in g_list)):
        raise ConfigError("'amplifier.g_list' must be a non-empty list of positive numbers")
    r = ab.get("r", 0.0)
    if not _is_number(r) or r < 0:
        raise ConfigError("'amplifier.r' must be a number >= 0")
    fb = ab.get("f", {"kind": "a_dag_a"})
    if not isinstance(fb, dict):
        raise ConfigError("'amplifier.f' must be an object")
    _reject_unknown(fb, _F_KEYS, "amplifier.f")
    fkind = fb.get("kind", "a_dag_a")
    if fkind not in {"a_dag_a", "quadratic", "poly_x", "parity"}:
        raise ConfigError("'amplifier.f.kind' must be a_dag_a|quadratic|poly_x|parity")
    fres = {"kind": fkind}
    if fkind == "quadratic":
        for name in ("alpha", "beta", "gamma", "delta"):
            fres[name] = _c2list(_as_complex(fb.get(name, 0.0), f"amplifier.f.{name}"))
    if fkind == "poly_x":
        coeffs = fb.get("coeffs", [0.0, 0.0, 1.0])
        if (not isinstance(coeffs, list) or not coeffs
                or any(not _is_number(v) for v in coeffs)):
            raise ConfigError("'amplifier.f.coeffs' must be a list of numbers")
        fres["coeffs"] = [float(v) for v in coeffs]
    mb = ab.get("meter", {"kind": "vacuum"})
    if not isinstance(mb, dict):
        raise ConfigError("'amplifier.meter' must be an object")
    _reject_unknown(mb, _METER_KEYS, "amplifier.meter")
    mkind = mb.get("kind", "vacuum")
    if mkind not in {"vacuum", "squeezed", "gaussian"}:
        raise ConfigError("'amplifier.meter.kind' must be vacuum|squeezed|gaussian")
    meter = {"kind": mkind, "r": _as_float(mb.get("r", 0.0), "amplifier.meter.r"),
             "epsilon": _as_float(mb.get("epsilon", 1.0), "amplifier.meter.epsilon")}
    if meter["epsilon"] <= 0:
        raise ConfigError("'amplifier.meter.epsilon' must be positive")
    out["amplifier"] = {"variant": variant, "f": fres, "g": float(g),
                        "g_list": [float(v) for v in g_list], "r": float(r),
                        "meter": meter}

    sb = cfg.get("input_state", {"kind": "vacuum"})
    if not isinstance(sb, dict):
        raise ConfigError("'input_state' must be an object")
    _reject_unknown(sb, _STATE_KEYS, "input_state")
    skind = sb.get("kind", "vacuum")
    if skind not in {"vacuum", "fock", "coherent", "squeezed_vacuum"}:
        raise ConfigError("'input_state.kind' must be vacuum|fock|coherent|squeezed_vacuum")
    sres = {"kind": skind}
    if skind == "fock":
        n = sb.get("n")
        if not _is_int(n) or n < 0:
            raise ConfigError("'input_state.n' must be an integer >= 0")
        sres["n"] = n
    if skind == "coherent":
        sres["alpha"] = _c2list(_as_complex(sb.get("alpha", 1.0), "input_state.alpha"))
    if skind == "squeezed_vacuum":
        sres["r"] = _as_float(sb.get("r", 0.5), "input_state.r")
        sres["phi"] = _as_float(sb.get("phi", 0.0), "input_state.phi")
    out["input_state"] = sres

    db = cfg.get("detector", {"kind": "heterodyne", "efficiency": 1.0})
    if not isinstance(db, dict):
        raise ConfigError("'detector' must be an object")
    _reject_unknown(db, _DET_KEYS, "detector")
    dkind = db.get("kind", "heterodyne")
    if dkind not in {"heterodyne", "homodyne"}:
        raise ConfigError("'detector.kind' must be heterodyne or homodyne")
    eff = db.get("efficiency", 1.0)
    if not _is_number(eff) or not 0 < eff <= 1:
        raise ConfigError("'detector.efficiency' must be in (0, 1]")
    out["detector"] = {"kind": dkind, "efficiency": float(eff)}
    if command == "estimate":
        if variant not in _ESTIMATE_DETECTOR:
            raise ConfigError("'amplifier.variant': estimate covers "
                              + ", ".join(sorted(_ESTIMATE_DETECTOR)))
        if dkind != _ESTIMATE_DETECTOR[variant]:
            raise ConfigError(f"'detector.kind' must be "
                              f"{_ESTIMATE_DETECTOR[variant]} for a {variant} "
                              "estimate")

    dm = cfg.get("dims", {})
    if not isinstance(dm, dict):
        raise ConfigError("'dims' must be an object")
    # meters are always auto-sized (see amplifiers.prepare_meters)
    _reject_unknown(dm, _DIMS_KEYS, "dims")
    signal = dm.get("signal", 8)
    if not _is_int(signal) or signal < 2:
        raise ConfigError("'dims.signal' must be an integer >= 2")
    out["dims"] = {"signal": signal}

    trials = cfg.get("trials", 100000)
    if not _is_int(trials) or trials < 2:
        raise ConfigError("'trials' must be an integer >= 2")
    if trials > TRIALS_MAX:
        raise ResourceLimit(f"'trials' = {trials} exceeds the run-time "
                            f"ceiling {TRIALS_MAX:.0e}")
    out["trials"] = trials
    seed = cfg.get("seed", 42)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("'seed' must be a nonnegative integer")
    out["seed"] = seed

    gb = cfg.get("grid", {})
    if not isinstance(gb, dict):
        raise ConfigError("'grid' must be an object")
    _reject_unknown(gb, _GRID_KEYS, "grid")
    nw = gb.get("n_widths", 5)
    ppw = gb.get("points_per_width", 4)
    if not _is_number(nw) or nw <= 0:
        raise ConfigError("'grid.n_widths' must be positive")
    if not _is_int(ppw) or ppw < 1:
        raise ConfigError("'grid.points_per_width' must be an integer >= 1")
    out["grid"] = {"n_widths": float(nw), "points_per_width": ppw}

    output = cfg.get("output", ".")
    if not isinstance(output, str):
        raise ConfigError("'output' must be a string path")
    out["output"] = output
    return out


def _c2list(z: complex) -> list:
    return [float(z.real), float(z.imag)]


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
    op, _ = amp._f_of_x_operator(fres["coeffs"], space)
    return op


def build_meter(meter: dict) -> amp.Meter:
    return amp.Meter(meter["kind"], meter["r"], meter["epsilon"])


def build_amplifier(cfg: dict, g: float | None = None):
    ab = cfg["amplifier"]
    g = ab["g"] if g is None else g
    variant = ab["variant"]
    space = FockSpace(cfg["dims"]["signal"])
    meter = build_meter(ab["meter"])
    try:
        if variant == "linear":
            return amp.LinearAmp(g, meter)
        if variant == "single_mode":
            coeffs = ab["f"].get("coeffs", [0.0, 0.0, 1.0])
            return amp.SingleModeAmp(tuple(coeffs), g, ab["r"])
        f = build_signal_op(ab["f"], space)
        if variant == "two_mode_normal":
            return amp.TwoModeNormalAmp(f, g, meter)
        if variant == "von_neumann":
            return amp.VonNeumannAmp(f, g, meter)
        return amp.ThreeModeAmp(f, g, meter, meter)
    except GainOutOfRange as exc:
        raise ConfigError(f"'amplifier.g': {exc}") from exc


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

def _fmt(x: float) -> str:
    return f"{float(x):.11e}"


def _write_csv(path: Path, header: list, rows):
    # row by row: a body formatted in one piece would hold every value of a
    # povm weight table at once (~0.2 MB more peak RSS on the povm benchmark)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row)
                     + "\n")


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: dict, outdir: Path) -> int:
    # imported here: verify loads the dense oracles, which no other command needs
    from . import verify as verify_mod
    extra = []
    if "amplifier" in cfg:
        def _configured():
            try:
                build_amplifier(cfg)
            except (NotNormal, NotHermitian) as exc:
                return False, f"{type(exc).__name__}: {exc}"
            return True, "amplifier constructible"
        extra.append(("configured amplifier gate", _configured))
    _, n_fail = verify_mod.run_all(extra)
    return EXIT_OK if n_fail == 0 else EXIT_CHECK


def cmd_noise_sweep(cfg: dict, outdir: Path) -> int:
    ab = cfg["amplifier"]
    if ab["variant"] == "single_mode":
        raise ConfigError("'amplifier.variant': noise-sweep covers the "
                          "linear/two_mode_normal/von_neumann/three_mode variants")
    state = build_input_state(cfg)
    rows = []
    for g in ab["g_list"]:
        spec = build_amplifier(cfg, g=g)
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


def _povm_model_and_epsilon(cfg: dict):
    variant = cfg["amplifier"]["variant"]
    # meter wavefunction width: Var[x] = epsilon^2/2
    epsilon = math.sqrt(2.0 * build_meter(cfg["amplifier"]["meter"]).x_variance())
    if variant == "two_mode_normal":
        return "heterodyne", 1.0
    if variant == "von_neumann":
        return "homodyne", epsilon
    if variant == "three_mode":
        return "three_mode", epsilon
    raise ConfigError("'amplifier.variant': povm covers two_mode_normal, "
                      "von_neumann and three_mode")


def cmd_povm(cfg: dict, outdir: Path) -> int:
    model, epsilon = _povm_model_and_epsilon(cfg)
    detector = build_detector(cfg)
    expected = "heterodyne" if model == "heterodyne" else "homodyne"
    if detector.kind != expected:
        raise ConfigError(f"'detector.kind' must be {expected} for this variant")
    space = FockSpace(cfg["dims"]["signal"])
    f = build_signal_op(cfg["amplifier"]["f"], space)
    dec = normal_decompose(f)
    regions = meas.DecisionRegions.from_decomposition(dec)
    nw = cfg["grid"]["n_widths"]
    ppw = cfg["grid"]["points_per_width"]
    summary = {"config": cfg, "per_gain": []}
    # Cost no longer sets this gate: the heterodyne sandwich is one GEMM per
    # expansion term over all outcomes. What keeps it is range: that kernel
    # raises past ~2200-3500 meter levels (by efficiency), below the sizing
    # cap METER_DIM_CAP = 4096, so the gate stays until the range covers it.
    numeric_limit = 2500
    for g in cfg["amplifier"]["g_list"]:
        closed = meas.effective_povm_closed_form(dec, g, detector.sigma2, model,
                                                 epsilon)
        w = math.sqrt(closed.width2)
        outcomes, measure = _povm_grid(dec.eigenvalues, w, nw, ppw,
                                       complex_grid=(model != "homodyne"))
        _write_csv(outdir / f"povm_g{g:g}.csv",
                   ["outcome_re", "outcome_im", "measure", "eigen_index",
                    "weight"],
                   ((np.real(o), np.imag(o), measure, str(i), w)
                    for o, row in zip(outcomes, closed.weights(outcomes))
                    for i, w in enumerate(row)))
        weights = meas.own_region_weights(closed, regions)
        entry = {
            "g": g,
            "closed_identity_residual": closed.identity_residual(),
            "own_region_weights": [float(v) for v in weights],
            "numeric": None,
        }
        spec = build_amplifier(cfg, g=g)
        meters = None
        if model != "three_mode":
            try:
                meters = meas.povm_meters(spec)
            except TruncationError:
                pass
        if meters and space.dim * meters[0][0].space.dim <= numeric_limit:
            grid = meas.effective_povm_numeric(spec, detector, outcomes,
                                               meters=meters)
            grid.measure = measure
            entry["numeric"] = {
                "max_offdiagonal": grid.max_offdiagonal(dec.eigenvectors),
                "max_deviation_from_closed_form": grid.max_deviation(closed),
                "grid_identity_residual": grid.identity_residual(),
            }
        summary["per_gain"].append(entry)
    _write_json(outdir / "povm_summary.json", summary)
    return EXIT_OK


def _povm_grid(eigenvalues: np.ndarray, width: float, n_widths: float,
               points_per_width: int, complex_grid: bool):
    step = width / points_per_width
    re_lo = float(np.real(eigenvalues).min() - n_widths * width)
    re_hi = float(np.real(eigenvalues).max() + n_widths * width)
    re_axis = np.arange(re_lo, re_hi + step / 2, step)
    if not complex_grid:
        return re_axis, step
    im_lo = float(np.imag(eigenvalues).min() - n_widths * width)
    im_hi = float(np.imag(eigenvalues).max() + n_widths * width)
    im_axis = np.arange(im_lo, im_hi + step / 2, step)
    gr, gi = np.meshgrid(re_axis, im_axis, indexing="ij")
    return (gr + 1j * gi).ravel(), step * step


def cmd_estimate(cfg: dict, outdir: Path) -> int:
    spec = build_amplifier(cfg)
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
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        outdir = Path(args.out) if args.out else Path(cfg["output"])
        outdir.mkdir(parents=True, exist_ok=True)
        command = cfg["command"]
        if command == "verify":
            return cmd_verify(cfg, outdir)
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
