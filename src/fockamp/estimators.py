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
are validated against full unitary evolution in the test suite. The meter
draws come from :func:`measurement.gaussian_blocks`, with the meter and
detector noise merged into one Gaussian. The heterodyne draws come from the
detector's sampler, :func:`measurement.detector_blocks`: exact Gaussian draws
for a coherent input, and exact rejection draws from the Husimi density for
any other.

Plans are drawn in blocks of :data:`measurement.BLOCK` trials on the
sampler's worker threads, which map each chunk of draws to x/(sqrt(2) g) or
|alpha|^2 and sum its powers; the moments do not see the Gaussian sampler's
order by centre. The main thread merges the sums in block order, so reports
do not depend on the worker count, and memory does not grow with ``trials``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .amplifiers import (LinearAmp, Meter, TwoModeNormalAmp, VACUUM,
                         VonNeumannAmp)
from .errors import ConfigError, GainOutOfRange, NotHermitian
from .fock import State, number_op, variance
from .measurement import DetectorSpec, detector_blocks, gaussian_blocks


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

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("trials must be >= 2 for a sample variance")
        amp = self.amplifier  # past g^2 = 1e70, 1e8 trials' (|alpha|^2)^4 overflow
        if isinstance(amp, LinearAmp) and not amp.g * amp.g <= 1e70:
            raise GainOutOfRange("the spread of |alpha|^2, about g^2, passes 1e70")

    @property
    def estimator(self) -> str:
        """n_hat_linear for a LinearAmp, else f_hat_nonlinear."""
        return "n_hat_linear" if isinstance(self.amplifier, LinearAmp) \
            else "f_hat_nonlinear"


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
        return {**asdict(self), "z_mean": self.z_mean, "z_variance": self.z_variance,
                "extra": dict(sorted(self.extra.items()))}

    CSV_HEADER = ("estimator", "trials", "seed", "mean", "variance", "se_mean",
                  "se_variance", "analytic_mean", "analytic_variance",
                  "z_mean", "z_variance")

    def to_csv_row(self) -> tuple:
        return (self.estimator, str(self.trials), str(self.seed)) \
            + tuple(getattr(self, key) for key in self.CSV_HEADER[3:])


class _Moments:
    """Mean and centred power sums (n, 0, M2, M3, M4) of a sample fed in blocks.

    Blocks, as power sums about a shift, merge exactly by the pairwise update
    of Chan, Golub & LeVeque and Pebay (SAND2008-6212), as the binomial
    re-centring of both sides at the merged mean. One block's centred sums
    about its mean give ``np.var(ddof=1)`` bit for bit.
    """

    def __init__(self):
        self.mean, self.sums = 0.0, [0, 0.0, 0.0, 0.0, 0.0]

    def merge(self, shift: float, sums: list) -> "_Moments":
        """Fold in one block's (shift, [n, sum (x - shift)^k for k = 1..4])."""
        mean = shift + sums[1] / sums[0]
        if self.sums[0]:
            mean = self.mean + (mean - self.mean) * sums[0] / (self.sums[0] + sums[0])
            self.sums = _recentred(self.sums, self.mean - mean)
        self.sums = [a + b for a, b in zip(self.sums, _recentred(sums, shift - mean))]
        self.mean = mean
        return self

    def stats(self):
        """Mean, variance, and their standard errors (variance SE via M4)."""
        n, _, m2, _, m4 = self.sums
        var = m2 / (n - 1)
        se_var = math.sqrt(max(m4 / n - (n - 3) / (n - 1) * var * var, 0.0) / n)
        return self.mean, var, math.sqrt(var / n), se_var


def _recentred(sums, shift: float) -> list:
    """sum (x - m + shift)^k for k = 0..4 from the sums sum (x - m)^k."""
    return [sum(math.comb(k, j) * sums[j] * shift ** (k - j) for j in range(k + 1))
            for k in range(5)]


# ---------------------------------------------------------------------------
# nonlinear scheme: f_hat = x_out / (sqrt(2) g)
# ---------------------------------------------------------------------------

def _nonlinear_blocks(plan: TrialPlan, transform=None):
    """Meter homodyne outcomes for the nonlinear scheme, block by block: a
    centre sqrt(2) g lambda per eigenspace of f, drawn with the input's
    probability of that eigenspace, plus the meter position noise and the
    detector smearing, drawn as one Gaussian of the summed variance.
    ``transform`` goes to :func:`measurement.gaussian_blocks`."""
    amp, dec = plan.amplifier, plan.amplifier.dec
    if np.abs(np.imag(dec.eigenvalues)).max() > 1e-9:
        raise NotHermitian("nonlinear estimation wants a Hermitian signal operator")
    probs = np.add.reduceat(np.clip(dec.probabilities(plan.input_state), 0.0, None), dec.heads)
    sd = math.sqrt(amp.meter.x_variance() + plan.detector.sigma2 / 2.0)
    if not sd <= 1e70 * math.sqrt(2.0) * amp.g:  # past it, 1e8 trials' y^4 overflow
        raise GainOutOfRange(f"the noise of y = x/(sqrt(2) g) passes 1e70 at g = {amp.g:.6g}")
    return gaussian_blocks(math.sqrt(2.0) * amp.g * np.real(dec.eigenvalues[dec.heads]), probs,
                           sd, plan.trials, plan.seed, transform=transform)


def run_nonlinear_estimation(plan: TrialPlan) -> EstimateReport:
    """Estimate <f> as E[x_out]/(sqrt(2) g) and compare to the analytic variance."""
    amp = plan.amplifier
    if not isinstance(amp, (VonNeumannAmp, TwoModeNormalAmp)):
        raise TypeError("nonlinear estimation wants a von Neumann or two-mode amplifier")
    if plan.detector.kind != "homodyne":
        raise ValueError("nonlinear estimation reads the meter with homodyne")
    g = amp.g
    scale = math.sqrt(2.0) * g

    moments = _Moments()
    for sums in _nonlinear_blocks(plan, lambda x, out: np.divide(x, scale, out=out)):
        moments.merge(*sums)
    mean, var, se_m, se_v = moments.stats()
    if 0.0 in (se_m, se_v):  # the noise is below double resolution at every centre
        raise ConfigError("'amplifier.meter': the estimate has no spread, so no z-score exists")
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

def _linear_blocks(plan: TrialPlan, transform=None):
    """Heterodyne outcomes after phase-preserving amplification, by block.

    alpha = g * (exact Husimi draw of the input) + detector noise, from the
    detector's sampler :func:`measurement.detector_blocks`. The amplifier
    adds no further term: with a vacuum internal mode the output Husimi
    density is exactly the input one rescaled by the gain, Q_out(alpha) =
    Q_in(alpha/g)/g^2, so the antinormally ordered extra quantum is already
    in the Husimi draw (validated against two-mode squeezer evolution in
    the tests). An input holding more than 1e-6 at its cutoff raises
    TruncationError. ``transform`` goes to the sampler.
    """
    amp = plan.amplifier
    if amp.meter.kind != "vacuum":
        raise ValueError("linear-scheme sampling shortcut assumes a vacuum internal mode")
    return detector_blocks(plan.input_state, plan.detector, plan.trials,
                           plan.seed, gain=amp.g, transform=transform)


def _linear_analytic(state: State, g: float, s2: float):
    """(<n>, mean, variance) of n_hat for heterodyne noise ``s2`` at gain g."""
    nop = number_op(state.space)
    n_mean = float(np.real(state.expectation(nop)))
    n_var = variance(state, nop)
    return (n_mean, n_mean + s2 / (g * g),
            n_var + n_mean + 1.0 + 2.0 * s2 * (n_mean + 1.0) / (g * g)
            + s2 * s2 / g ** 4)


def run_linear_number_estimation(plan: TrialPlan) -> EstimateReport:
    """n_hat = |alpha|^2/g^2 - 1 against Var[n_hat] = Var[n] + <n> + 1 (ideal)."""
    amp = plan.amplifier
    if not isinstance(amp, LinearAmp):
        raise TypeError("linear number estimation wants a LinearAmp")
    if plan.detector.kind != "heterodyne":
        raise ValueError("linear number estimation reads mode a with heterodyne")
    g = amp.g
    g2 = g * g

    raw = _Moments()
    for sums in _linear_blocks(plan, lambda a, out: np.square(np.abs(a, out=out), out=out)):
        raw.merge(*sums)
    # n_hat = |alpha|^2/g^2 - 1 is affine in |alpha|^2: its statistics follow
    m2, v2, se2m, se2v = raw.stats()
    mean, var, se_m, se_v = m2 / g2 - 1.0, v2 / (g2 * g2), se2m / g2, se2v / (g2 * g2)
    s2 = plan.detector.sigma2
    n_mean, analytic_mean, analytic_var = _linear_analytic(plan.input_state, g, s2)
    return EstimateReport(
        "n_hat_linear", plan.trials, plan.seed, mean, var, se_m, se_v,
        analytic_mean=analytic_mean,
        analytic_variance=analytic_var,
        analytic_source="paper" if s2 == 0.0 else "derived",
        extra={
            "gain": g,
            "raw_second_moment": m2,
            "raw_second_moment_se": se2m,
            "analytic_raw_second_moment": g2 * n_mean + g2 + s2,
        },
    )


def run_plan(plan: TrialPlan) -> EstimateReport:
    if isinstance(plan.amplifier, LinearAmp):
        return run_linear_number_estimation(plan)
    return run_nonlinear_estimation(plan)


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
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "nonlinear": self.nonlinear.to_dict(),
                "linear": self.linear.to_dict() if self.linear else None}


def compare_schemes(input_state: State, g: float, trials: int, seed: int,
                    f=None, eta: float = 1.0, meter: Meter = VACUUM) -> CompareReport:
    """Side-by-side estimator variances for number measurement.

    The nonlinear side amplifies f (default a^dag a) and homodynes the meter;
    the linear side is phase-preserving amplification plus heterodyne. The
    improvement flag compares the analytic variances; the linear Monte Carlo
    run is skipped below its g >= 1 validity range (the analytic linear
    variance does not depend on g at unit efficiency). The linear plan is
    made first, so its gain rule (:class:`TrialPlan`) refuses before either
    side draws.
    """
    det_l = DetectorSpec("heterodyne", eta)
    plan_l = TrialPlan(LinearAmp(g), input_state, det_l, trials, seed + 1) \
        if g >= 1.0 else None
    fop = number_op(input_state.space) if f is None else f
    nl = run_nonlinear_estimation(TrialPlan(TwoModeNormalAmp(fop, g, meter), input_state,
                                            DetectorSpec("homodyne", eta), trials, seed))
    linear = run_linear_number_estimation(plan_l) if plan_l else None
    n_mean, _, var_lin = _linear_analytic(input_state, g, det_l.sigma2)
    var_nl = nl.analytic_variance
    return CompareReport(nl, linear, var_nl, var_lin, var_nl < var_lin,
                         crossover_satisfied=1.0 / (4.0 * g * g) < n_mean + 1.0)


def snr_report(n: int, g: float, r: float = 0.0) -> float:
    """Single-shot SNR for a Fock input |n>: 2 g n (vacuum meter), 2 e^r g n (squeezed)."""
    if n < 0 or int(n) != n:
        raise ValueError("n must be a nonnegative integer")
    return 2.0 * g * float(n) * math.exp(r)
