"""Monte Carlo estimator statistics for the two measurement schemes.

Nonlinear scheme: amplify a Hermitian signal operator f into the meter
position, homodyne the meter, and estimate <f> as x/(sqrt(2) g) per trial.
The estimator is unbiased with variance Var[f] + 1/(4 g^2) for a vacuum
meter and an ideal detector; squeezing the meter replaces the 1 by e^{-2r}.

Linear scheme: phase-preserving amplification followed by heterodyne, with
n_hat = |alpha|^2/g^2 - 1, whose variance is Var[n] + <n> + 1 for an ideal
detector.

Sampling is exact rather than brute-force: the meter marginal after the
nonlinear coupling is a mixture of Gaussians centered at sqrt(2) g lambda_i
weighted by the spectral measure of the input, and the heterodyne outcome of
the amplified state is g times a draw from the input Husimi density (the
amplifier rescales the Husimi density without extra convolution). Both facts
are validated against full unitary evolution in the test suite. The Husimi
draws come from the grid sampler shared with the detector,
:func:`measurement.ideal_draws`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amplifiers import (LinearAmp, Meter, TwoModeNormalAmp, VACUUM,
                         VonNeumannAmp)
from .errors import GainOutOfRange, NotHermitian
from .fock import State, normal_decompose, number_op, variance
from .measurement import DetectorSpec, _rng, ideal_draws


# ---------------------------------------------------------------------------
# plans and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialPlan:
    amplifier: object
    input_state: State
    detector: DetectorSpec
    trials: int
    seed: int
    estimator: str  # "f_hat_nonlinear" | "n_hat_linear"

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("trials must be >= 2 for a sample variance")
        if self.estimator not in ("f_hat_nonlinear", "n_hat_linear"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass(frozen=True)
class EstimateReport:
    estimator: str
    trials: int
    seed: int
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    analytic_mean: float
    analytic_variance: float
    analytic_source: str  # "paper" for the ideal-detector formulas, else "derived"
    extra: dict = field(default_factory=dict)

    @property
    def z_mean(self) -> float:
        return (self.mean - self.analytic_mean) / self.se_mean

    @property
    def z_variance(self) -> float:
        return (self.variance - self.analytic_variance) / self.se_variance

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "trials": self.trials,
            "seed": self.seed,
            "mean": self.mean,
            "variance": self.variance,
            "se_mean": self.se_mean,
            "se_variance": self.se_variance,
            "analytic_mean": self.analytic_mean,
            "analytic_variance": self.analytic_variance,
            "analytic_source": self.analytic_source,
            "z_mean": self.z_mean,
            "z_variance": self.z_variance,
            "extra": dict(sorted(self.extra.items())),
        }

    CSV_HEADER = ("estimator", "trials", "seed", "mean", "variance", "se_mean",
                  "se_variance", "analytic_mean", "analytic_variance",
                  "z_mean", "z_variance")

    def to_csv_row(self) -> tuple:
        return (self.estimator, str(self.trials), str(self.seed), self.mean,
                self.variance, self.se_mean, self.se_variance,
                self.analytic_mean, self.analytic_variance, self.z_mean,
                self.z_variance)


def _sample_stats(x: np.ndarray):
    """Mean, variance, and their standard errors (variance SE via fourth moment).

    The centred buffer, squared, is what ``np.var(ddof=1)`` sums; squared
    again it gives the fourth moment without an elementwise ``pow``.
    """
    n = x.shape[0]
    mean = float(np.mean(x))
    d = x - mean
    d *= d
    var = float(d.sum() / (n - 1))
    se_mean = math.sqrt(var / n)
    d *= d
    m4 = float(d.mean())
    se_var = math.sqrt(max(m4 - (n - 3) / (n - 1) * var * var, 0.0) / n)
    return mean, var, se_mean, se_var


# ---------------------------------------------------------------------------
# nonlinear scheme: f_hat = x_out / (sqrt(2) g)
# ---------------------------------------------------------------------------

def nonlinear_meter_x_samples(plan: TrialPlan) -> np.ndarray:
    """Meter homodyne outcomes for the nonlinear scheme, sampled exactly.

    Draw an eigenvalue from the spectral measure of the input and add the
    meter position noise and the detector smearing, both Gaussian. Deterministic
    for a fixed (plan, seed): eigenvalue indices first, then meter noise, then
    detector noise.
    """
    amp = plan.amplifier
    dec = normal_decompose(amp.f)
    if np.abs(np.imag(dec.eigenvalues)).max() > 1e-9:
        raise NotHermitian("nonlinear estimation wants a Hermitian signal operator")
    lam = np.real(dec.eigenvalues)
    probs = dec.probabilities(plan.input_state)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = _rng(plan.seed)
    idx = rng.choice(lam.shape[0], size=plan.trials, p=probs)
    x = lam[idx]
    del idx
    x *= math.sqrt(2.0) * amp.g
    x += rng.normal(0.0, math.sqrt(amp.meter.x_variance()), size=plan.trials)
    s2 = plan.detector.sigma2
    if s2 > 0:
        x += rng.normal(0.0, math.sqrt(s2 / 2.0), size=plan.trials)
    return x


def run_nonlinear_estimation(plan: TrialPlan) -> EstimateReport:
    """Estimate <f> as E[x_out]/(sqrt(2) g) and compare to the analytic variance."""
    amp = plan.amplifier
    if not isinstance(amp, (VonNeumannAmp, TwoModeNormalAmp)):
        raise TypeError("nonlinear estimation wants a von Neumann or two-mode amplifier")
    if plan.detector.kind != "homodyne":
        raise ValueError("nonlinear estimation reads the meter with homodyne")
    g = amp.g
    fhat = nonlinear_meter_x_samples(plan)
    fhat /= math.sqrt(2.0) * g
    mean, var, se_m, se_v = _sample_stats(fhat)
    var_f = variance(plan.input_state, amp.f)
    mean_f = float(np.real(plan.input_state.expectation(amp.f)))
    noise_var = (amp.meter.x_variance() + plan.detector.sigma2 / 2.0) / (2.0 * g * g)
    ideal = amp.meter.kind == "vacuum" and plan.detector.efficiency == 1.0
    return EstimateReport(
        "f_hat_nonlinear", plan.trials, plan.seed, mean, var, se_m, se_v,
        analytic_mean=mean_f,
        analytic_variance=var_f + noise_var,
        analytic_source="paper" if ideal else "derived",
        extra={"gain": g, "projective_variance": var_f},
    )


# ---------------------------------------------------------------------------
# linear scheme: n_hat = |alpha|^2/g^2 - 1
# ---------------------------------------------------------------------------

def linear_heterodyne_samples(plan: TrialPlan) -> np.ndarray:
    """Heterodyne outcomes after phase-preserving amplification.

    alpha = g * (Husimi draw of the input, :func:`measurement.ideal_draws`)
    + detector noise. The amplifier adds no further term: with a vacuum
    internal mode the output Husimi density is exactly the input one
    rescaled by the gain, Q_out(alpha) = Q_in(alpha/g)/g^2, so the
    antinormally ordered extra quantum is already in the Husimi draw.
    Validated against two-mode squeezer evolution in the tests. An input
    holding more than 1e-6 at its cutoff raises TruncationError.
    """
    amp = plan.amplifier
    if amp.meter.kind != "vacuum":
        raise ValueError("linear-scheme sampling shortcut assumes a vacuum internal mode")
    rng = _rng(plan.seed)
    alpha = ideal_draws(plan.input_state, "heterodyne", plan.trials, rng)
    alpha *= amp.g
    s2 = plan.detector.sigma2
    if s2 > 0:
        noise = rng.normal(0.0, math.sqrt(s2 / 2.0), size=(plan.trials, 2))
        alpha += noise.view(complex)[:, 0]
    return alpha


def run_linear_number_estimation(plan: TrialPlan) -> EstimateReport:
    """n_hat = |alpha|^2/g^2 - 1 against Var[n_hat] = Var[n] + <n> + 1 (ideal)."""
    amp = plan.amplifier
    if not isinstance(amp, LinearAmp):
        raise TypeError("linear number estimation wants a LinearAmp")
    if amp.g < 1.0:
        raise GainOutOfRange("linear scheme needs g >= 1")
    if plan.detector.kind != "heterodyne":
        raise ValueError("linear number estimation reads mode a with heterodyne")
    alpha = linear_heterodyne_samples(plan)
    g = amp.g
    a2 = np.abs(alpha)
    del alpha
    a2 *= a2
    nhat = a2 / (g * g) - 1.0
    mean, var, se_m, se_v = _sample_stats(nhat)
    nop = number_op(plan.input_state.space)
    n_mean = float(np.real(plan.input_state.expectation(nop)))
    n_var = variance(plan.input_state, nop)
    s2 = plan.detector.sigma2
    analytic_mean = n_mean + s2 / (g * g)
    analytic_var = (n_var + n_mean + 1.0
                    + 2.0 * s2 * (n_mean + 1.0) / (g * g) + s2 * s2 / g ** 4)
    m2, v2, se2m, _ = _sample_stats(a2)
    return EstimateReport(
        "n_hat_linear", plan.trials, plan.seed, mean, var, se_m, se_v,
        analytic_mean=analytic_mean,
        analytic_variance=analytic_var,
        analytic_source="paper" if s2 == 0.0 else "derived",
        extra={
            "gain": g,
            "raw_second_moment": m2,
            "raw_second_moment_se": se2m,
            "analytic_raw_second_moment": g * g * n_mean + g * g + s2,
        },
    )


def run_plan(plan: TrialPlan) -> EstimateReport:
    if plan.estimator == "f_hat_nonlinear":
        return run_nonlinear_estimation(plan)
    return run_linear_number_estimation(plan)


# ---------------------------------------------------------------------------
# scheme comparison and SNR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareReport:
    nonlinear: EstimateReport
    linear: EstimateReport | None
    analytic_nonlinear_variance: float
    analytic_linear_variance: float
    improvement: bool
    crossover_satisfied: bool

    def to_dict(self) -> dict:
        return {
            "nonlinear": self.nonlinear.to_dict(),
            "linear": self.linear.to_dict() if self.linear else None,
            "analytic_nonlinear_variance": self.analytic_nonlinear_variance,
            "analytic_linear_variance": self.analytic_linear_variance,
            "improvement": self.improvement,
            "crossover_satisfied": self.crossover_satisfied,
        }


def compare_schemes(input_state: State, g: float, trials: int, seed: int,
                    f=None, eta: float = 1.0, meter: Meter = VACUUM) -> CompareReport:
    """Side-by-side estimator variances for number measurement.

    The nonlinear side amplifies f (default a^dag a) and homodynes the meter;
    the linear side is phase-preserving amplification plus heterodyne. The
    improvement flag compares the analytic variances; the linear Monte Carlo
    run is skipped below its g >= 1 validity range (the analytic linear
    variance does not depend on g at unit efficiency).
    """
    space = input_state.space
    fop = number_op(space) if f is None else f
    amp_nl = TwoModeNormalAmp(fop, g, meter)
    det_h = DetectorSpec("homodyne", eta)
    nl = run_nonlinear_estimation(
        TrialPlan(amp_nl, input_state, det_h, trials, seed, "f_hat_nonlinear"))
    linear = None
    if g >= 1.0:
        amp_l = LinearAmp(g)
        det = DetectorSpec("heterodyne", eta)
        linear = run_linear_number_estimation(
            TrialPlan(amp_l, input_state, det, trials, seed + 1, "n_hat_linear"))
    nop = number_op(space)
    n_mean = float(np.real(input_state.expectation(nop)))
    n_var = variance(input_state, nop)
    var_f = variance(input_state, fop)
    s2h = DetectorSpec("homodyne", eta).sigma2
    s2het = DetectorSpec("heterodyne", eta).sigma2
    var_nl = var_f + (meter.x_variance() + s2h / 2.0) / (2.0 * g * g)
    var_lin = (n_var + n_mean + 1.0 + 2.0 * s2het * (n_mean + 1.0) / (g * g)
               + s2het ** 2 / g ** 4)
    improvement = var_nl < var_lin
    crossover = (1.0 / (4.0 * g * g) < n_mean + 1.0)
    return CompareReport(nl, linear, var_nl, var_lin, improvement,
                         crossover_satisfied=crossover)


def snr_report(n: int, g: float, r: float = 0.0) -> float:
    """Single-shot SNR for a Fock input |n>: 2 g n (vacuum meter), 2 e^r g n (squeezed)."""
    if n < 0 or int(n) != n:
        raise ValueError("n must be a nonnegative integer")
    return 2.0 * g * float(n) * math.exp(r)
