"""Estimator tests: exact samplers vs unitary evolution, variance formulas,
and the sampler's worker threads."""
import dataclasses
import importlib
import inspect
import json
import math
import os
import signal
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from fockamp import (ConfigError, DetectorSpec, FockSpace, LinearAmp, Meter,
                     TrialPlan, TwoModeNormalAmp, VonNeumannAmp, coherent_state,
                     compare_schemes, fock_state, number_op,
                     run_linear_number_estimation, run_nonlinear_estimation,
                     run_plan, simulate_output_state, snr_report, tensor,
                     vacuum_state)
from fockamp.errors import GainOutOfRange, TruncationError
from fockamp.estimators import (_Moments, _linear_analytic, _linear_blocks,
                                 _nonlinear_blocks)
from fockamp.fock import (State, log_factorials, normal_decompose,
                          partial_trace, quadrature_amplitudes)
from fockamp import measurement
from fockamp.measurement import (BLOCK, DRAW_CHUNK, gaussian_blocks,
                                 sample_outcomes)
from fockamp.oracles import husimi_values, von_neumann_unitary
from support import run_python


def nonlinear_meter_x_samples(plan):
    """All meter outcomes of the plan's blocks, joined."""
    return np.concatenate(list(_nonlinear_blocks(plan)))


def linear_heterodyne_samples(plan):
    """All heterodyne outcomes of the plan's blocks, joined."""
    return np.concatenate(list(_linear_blocks(plan)))


def _hom(eta=1.0):
    return DetectorSpec("homodyne", eta)


def _het(eta=1.0):
    return DetectorSpec("heterodyne", eta)


# ---------------------------------------------------------------------------
# nonlinear scheme
# ---------------------------------------------------------------------------

def test_nonlinear_eigenstate_mean_and_variance():
    sp = FockSpace(8)
    plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 3.0), fock_state(sp, 2),
                     _hom(), 100000, 42)
    rep = run_nonlinear_estimation(plan)
    assert abs(rep.mean - 2.0) < 3 * rep.se_mean
    assert abs(rep.variance - 1.0 / 36.0) < 3 * rep.se_variance
    assert rep.analytic_variance == pytest.approx(1.0 / 36.0)
    assert rep.analytic_source == "paper"


def test_nonlinear_coherent_variance():
    # independent oracle: renormalized Poisson variance + the 1/(4 g^2) floor
    sp = FockSpace(32)
    st = coherent_state(sp, math.sqrt(2.0))
    plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 2.0), st, _hom(),
                     100000, 42)
    rep = run_nonlinear_estimation(plan)
    assert abs(rep.analytic_variance - (2.0 + 1.0 / 16.0)) < 1e-5
    assert abs(rep.variance - rep.analytic_variance) < 3 * rep.se_variance


def test_nonlinear_large_gain_reaches_projective_variance():
    sp = FockSpace(8)
    plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 50.0), fock_state(sp, 2),
                     _hom(), 100000, 1)
    rep = run_nonlinear_estimation(plan)
    assert rep.variance < 1e-3  # projective Var[f] = 0 for an eigenstate


def test_nonlinear_squeezed_meter_variance():
    from fockamp import Meter
    sp = FockSpace(8)
    amp = TwoModeNormalAmp(number_op(sp), 2.0, Meter("squeezed", 1.0))
    plan = TrialPlan(amp, fock_state(sp, 1), _hom(), 100000, 3)
    rep = run_nonlinear_estimation(plan)
    target = math.exp(-2.0) / 16.0
    assert rep.analytic_variance == pytest.approx(target)
    assert abs(rep.variance - target) < 3 * rep.se_variance
    assert rep.analytic_source == "derived"


def test_nonlinear_sampler_matches_unitary_evolution():
    # oracle: full von Neumann evolution, meter position density read off the
    # reduced state, moments compared against the mixture sampler
    sp = FockSpace(8)
    amp = VonNeumannAmp(number_op(sp), 0.8)
    st = coherent_state(sp, 0.5)
    u = von_neumann_unitary(amp.f, amp.g, (8, 64))
    out = State(u.space, "ket", u.matrix @ tensor(st, vacuum_state(FockSpace(64))).data)
    meter = partial_trace(out, 1)
    xs = np.arange(-10.0, 10.0, 0.01)
    q = np.real(quadrature_amplitudes(meter, xs))
    mean_q = float(np.sum(xs * q) * 0.01)
    var_q = float(np.sum(xs * xs * q) * 0.01) - mean_q ** 2
    plan = TrialPlan(amp, st, _hom(), 200000, 5)
    x = nonlinear_meter_x_samples(plan)
    se_m = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - mean_q) < 4 * se_m
    assert abs(x.var() - var_q) < 4 * var_q * math.sqrt(2.0 / x.size) + 1e-3
    # distribution-level comparison
    bins = np.arange(-6.0, 8.0 + 1e-9, 0.5)
    hist, _ = np.histogram(x, bins=bins)
    emp = hist / x.size
    dens = np.array([q[(xs >= lo) & (xs < hi)].sum() * 0.01
                     for lo, hi in zip(bins[:-1], bins[1:])])
    assert 0.5 * np.abs(emp - dens).sum() < 0.02


def test_nonlinear_inefficient_detector_variance():
    sp = FockSpace(8)
    plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 2.0), fock_state(sp, 1),
                     _hom(0.5), 100000, 9)
    rep = run_nonlinear_estimation(plan)
    target = (0.5 + 0.25 / 2.0) / 8.0
    assert rep.analytic_variance == pytest.approx(target)
    assert abs(rep.variance - target) < 3 * rep.se_variance


def test_plan_estimator_follows_amplifier():
    sp = FockSpace(8)
    args = (fock_state(sp, 1), _hom(), 10, 1)
    assert TrialPlan(LinearAmp(2.0), *args).estimator == "n_hat_linear"
    for amp in (TwoModeNormalAmp(number_op(sp), 2.0),
                VonNeumannAmp(number_op(sp), 2.0)):
        assert TrialPlan(amp, *args).estimator == "f_hat_nonlinear"


def test_nonlinear_plan_validation():
    sp = FockSpace(6)
    for trials in (0, 1):  # a sample variance needs two trials
        with pytest.raises(ValueError):
            TrialPlan(TwoModeNormalAmp(number_op(sp), 1.0), fock_state(sp, 1),
                      _hom(), trials, 1)
    plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 1.0), fock_state(sp, 1),
                     _het(), 10, 1)
    with pytest.raises(ValueError):
        run_nonlinear_estimation(plan)


@pytest.mark.parametrize("kind, basis", [("parity", "dense"), ("parity", "rotated"),
                                         ("poly_x", "rotated")])
def test_nonlinear_estimate_ignores_the_basis_inside_an_eigenspace(kind, basis):
    # parity and the default poly_x f = x^2 are degenerate; the draws run
    # over the eigenspaces, so turning the eigenvectors inside each one
    # (the dense path is such a turn for parity) leaves the estimate
    from fockamp.amplifiers import _f_of_x_operator
    from fockamp.fock import _dense_decompose, parity_op
    sp = FockSpace(16)
    f = parity_op(sp) if kind == "parity" else _f_of_x_operator([0.0, 0.0, 1.0], sp)
    amp = TwoModeNormalAmp(f, 2.0)
    plan = TrialPlan(amp, coherent_state(sp, 1.0), _hom(0.9), 200000, 7)
    ref = run_nonlinear_estimation(plan)
    dec = amp.dec
    if basis == "dense":
        turned = _dense_decompose(f)
    else:
        rng, v = np.random.default_rng(3), dec.eigenvectors.copy()
        for members in np.split(np.arange(sp.dim), dec.heads[1:]):
            z = rng.normal(size=(members.size, members.size, 2)) @ [1.0, 1j]
            v[:, members] = v[:, members] @ np.linalg.qr(z)[0]
        turned = dataclasses.replace(dec, eigenvectors=v)
    assert np.array_equal(turned.heads, dec.heads)
    assert np.diff(np.r_[dec.heads, sp.dim]).max() > 1
    object.__setattr__(amp, "dec", turned)
    rep = run_nonlinear_estimation(plan)
    assert abs(rep.mean - ref.mean) <= 1e-12
    assert abs(rep.variance - ref.variance) <= 1e-12


def test_nonlinear_estimate_keeps_eigenvalues_closer_than_the_order_gap():
    # beta a^dag a with beta = 1e-9: eigenvalues 1e-9 apart, far under the
    # 1e-8 gap that orders the spectrum yet each its own eigenspace, so at
    # g = 1e9 the estimate reads <f> = 1e-9 |alpha|^2, not the 0 of one
    # shared eigenvalue
    from fockamp.amplifiers import quadratic_signal_op
    sp = FockSpace(12)
    f, _ = quadratic_signal_op(sp, 0.0, 1e-9, 0.0, 0.0)
    amp, state = TwoModeNormalAmp(f, 1e9), coherent_state(sp, 1.0)
    assert amp.dec.heads.size == 12
    rep = run_nonlinear_estimation(TrialPlan(amp, state, _hom(), 100000, 7))
    truth = float(amp.dec.probabilities(state) @ np.real(amp.dec.eigenvalues))
    assert truth == pytest.approx(1e-9, rel=1e-4)
    assert abs(rep.mean - truth) < 4 * rep.se_mean < 0.1 * truth


# ---------------------------------------------------------------------------
# linear scheme
# ---------------------------------------------------------------------------

def test_linear_fock2_statistics():
    sp = FockSpace(16)
    plan = TrialPlan(LinearAmp(2.0), fock_state(sp, 2), _het(), 100000, 42)
    rep = run_linear_number_estimation(plan)
    assert abs(rep.mean - 2.0) < 3 * rep.se_mean
    assert abs(rep.variance - 3.0) < 3 * rep.se_variance
    assert rep.analytic_variance == pytest.approx(3.0, abs=1e-9)


def test_linear_coherent_statistics():
    sp = FockSpace(32)
    st = coherent_state(sp, math.sqrt(2.0))
    plan = TrialPlan(LinearAmp(1.5), st, _het(), 100000, 42)
    rep = run_linear_number_estimation(plan)
    assert abs(rep.analytic_variance - 5.0) < 1e-5
    assert abs(rep.variance - 5.0) < 3 * rep.se_variance
    assert abs(rep.mean - 2.0) < 3 * rep.se_mean


def test_linear_vacuum_statistics():
    sp = FockSpace(12)
    plan = TrialPlan(LinearAmp(1.25), vacuum_state(sp), _het(), 100000, 42)
    rep = run_linear_number_estimation(plan)
    assert abs(rep.mean) < 3 * rep.se_mean
    assert abs(rep.variance - 1.0) < 3 * rep.se_variance


def test_linear_analytic_matches_dense_number_moments():
    # <n> and Var[n] read from the Fock populations, against the dense
    # number operator, on a ket and on a density matrix at dim 64
    sp = FockSpace(64)
    nop = number_op(sp).matrix
    ket = coherent_state(sp, 1.0 + 0.5j)
    mix = 0.3 * ket.to_density().data + 0.7 * coherent_state(sp, -2.0j).to_density().data
    g, s2 = 2.0, _het(0.8).sigma2
    for state in (ket, State(sp, "density", mix)):
        rho = state.to_density().data
        n1 = np.trace(nop @ rho).real
        var = np.trace(nop @ nop @ rho).real - n1 ** 2
        want = (n1, n1 + s2 / g ** 2,
                var + n1 + 1.0 + 2.0 * s2 * (n1 + 1.0) / g ** 2 + s2 ** 2 / g ** 4)
        assert np.allclose(_linear_analytic(state, g, s2), want, rtol=1e-12, atol=0)


def test_heterodyne_second_moment_identity():
    sp = FockSpace(16)
    for g in (1.0, 1.5):
        plan = TrialPlan(LinearAmp(g), fock_state(sp, 2), _het(), 100000, 11)
        rep = run_linear_number_estimation(plan)
        m2 = rep.extra["raw_second_moment"]
        target = rep.extra["analytic_raw_second_moment"]
        assert target == pytest.approx(g * g * 2 + g * g)
        assert abs(m2 - target) < 3 * rep.extra["raw_second_moment_se"]


def test_linear_sampler_matches_two_mode_squeezer():
    # the shortcut rests on Q_out(alpha) = Q_in(alpha/g)/g^2 for a vacuum
    # internal mode; verify pointwise against actual squeezer evolution
    g = 1.25
    sp = FockSpace(24)
    st = coherent_state(sp, 0.7)
    out = simulate_output_state(LinearAmp(g), st, dims=(24,))
    rho_a = partial_trace(out, 0)
    pts = (np.linspace(-2, 2, 9)[:, None]
           + 1j * np.linspace(-1, 1, 5)[None, :]).ravel()
    q_out = husimi_values(rho_a, pts)
    q_in = husimi_values(st, pts / g) / g ** 2
    assert np.abs(q_out - q_in).max() < 1e-7


def test_linear_sampler_rejects_cutoff_heavy_state():
    # the draws would miss the input's mass beyond its cutoff
    sp = FockSpace(6)
    plan = TrialPlan(LinearAmp(2.0), fock_state(sp, 5), _het(), 10, 0)
    with pytest.raises(TruncationError):
        linear_heterodyne_samples(plan)


def test_linear_rejects_small_gain():
    sp = FockSpace(8)
    with pytest.raises(GainOutOfRange):
        LinearAmp(0.5)


def test_linear_estimate_bounds_the_spread_of_alpha_squared():
    # |alpha|^2 spreads about g^2: at g^2 = 1e70 its power sums stay finite,
    # past it they overflow (a NaN variance at g 1e40, OverflowErrors above)
    sp = FockSpace(4)
    rep = run_plan(TrialPlan(LinearAmp(1e35), vacuum_state(sp), _het(), 1000, 0))
    assert math.isfinite(rep.z_mean) and math.isfinite(rep.z_variance)
    for g in (1e40, 1e200):
        with pytest.raises(GainOutOfRange, match="passes 1e70"):
            run_plan(TrialPlan(LinearAmp(g), vacuum_state(sp), _het(), 50, 0))


def test_nonlinear_estimate_without_spread_is_refused():
    # at epsilon 1e-150 the noise of a Fock input's estimate is below double
    # resolution at its one centre: every trial reads 1, no z-score exists
    sp = FockSpace(4)
    amp = TwoModeNormalAmp(number_op(sp), 2.0, Meter("gaussian", epsilon=1e-150))
    with pytest.raises(ConfigError, match="'amplifier.meter'"):
        run_plan(TrialPlan(amp, fock_state(sp, 1), _hom(), 50, 0))


def test_inefficient_linear_detector():
    sp = FockSpace(12)
    plan = TrialPlan(LinearAmp(2.0), fock_state(sp, 1), _het(0.5), 100000, 4)
    rep = run_linear_number_estimation(plan)
    assert rep.analytic_source == "derived"
    # derived corrections: mean shifts by sigma^2/g^2, variance gains
    # 2 sigma^2 (n+1)/g^2 + sigma^4/g^4
    assert rep.analytic_mean == pytest.approx(1.0 + 1.0 / 4.0)
    # Var[n] + <n> + 1 + 2 s2 (<n>+1)/g^2 + s2^2/g^4 with Var[n] = 0, <n> = 1
    assert rep.analytic_variance == pytest.approx(0 + 1 + 1 + 2 * 2 / 4 + 1 / 16)
    assert abs(rep.mean - rep.analytic_mean) < 3 * rep.se_mean
    assert abs(rep.variance - rep.analytic_variance) < 3 * rep.se_variance


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_seed_determinism_bit_exact():
    sp = FockSpace(8)
    plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 2.0), fock_state(sp, 2),
                     _hom(), 5000, 123)
    x1 = nonlinear_meter_x_samples(plan)
    x2 = nonlinear_meter_x_samples(plan)
    assert np.array_equal(x1, x2)
    r1 = run_plan(plan).to_dict()
    r2 = run_plan(plan).to_dict()
    assert r1 == r2


# ---------------------------------------------------------------------------
# stream contracts: each sampler draws the same stream as its plain formula,
# block b of a plan from Philox(key=seed) jumped b times
# ---------------------------------------------------------------------------

def _block_streams(seed, n):
    # (rng, trials) of each block, from the jump rather than the counter
    return [(np.random.Generator(np.random.Philox(key=seed).jumped(b)),
             min(BLOCK, n - lo)) for b, lo in enumerate(range(0, n, BLOCK))]


def _plain_husimi_draws(state, det, n, seed):
    # levels with weight W_n = sum_k p_k S_k |c_kn| over all levels, |beta|^2
    # ~ Gamma(n + 1) and angle 2 pi u, kept where an accept uniform falls
    # below pi Q(beta) / sum_n W_n |<n|beta>|^2 from the dense oracle; gain
    # 1, then sd (z_re + 1j z_im)
    if state.kind == "ket":
        p, v = np.ones(1), state.data[:, None]
    else:
        p, v = np.linalg.eigh(state.data)
        p, v = p[p > 1e-32], v[:, p > 1e-32]
    w = np.abs(v) @ (p * np.abs(v).sum(axis=0))
    d = state.space.dim
    sd = math.sqrt(det.sigma2 / 2.0)
    out = []
    for rng, m in _block_streams(seed, n):
        got = []
        while len(got) < m:
            k = min(DRAW_CHUNK, m - len(got))
            s = rng.standard_gamma(rng.choice(d, size=k, p=w / w.sum()) + 1.0)
            beta = np.sqrt(s) * np.exp(2j * math.pi * rng.random(k))
            u = rng.random(k)
            n_beta = np.exp(np.multiply.outer(np.arange(d), np.log(s)) - s
                            - log_factorials(d)[:, None])  # |<n|beta>|^2
            accept = math.pi * husimi_values(state, beta) / (w @ n_beta)
            got.extend(beta[u < accept])
        block = np.array(got)
        if sd > 0:
            z = rng.standard_normal((m, 2))
            block = block + sd * (z[:, 0] + 1j * z[:, 1])
        out.append(block)
    return np.concatenate(out)


def _random_ket(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi[-1] = 0.0  # nothing at the cutoff
    return State(FockSpace(dim), "ket", psi / np.linalg.norm(psi))


@pytest.mark.parametrize("kind, eta", [("fock", 1.0), ("fock", 0.8),
                                       ("random", 0.8)])
def test_heterodyne_draws_match_plain_rejection(kind, eta):
    # BLOCK + 3 trials end in a partial block; a Fock input accepts every
    # proposal, a random ket on 7 levels about one in M = S^2 = 5.75
    st = fock_state(FockSpace(16), 2) if kind == "fock" else _random_ket(8, 1)
    det = _het(eta)
    got = sample_outcomes(st, det, BLOCK + 3, 5)
    ref = _plain_husimi_draws(st, det, BLOCK + 3, 5)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


def test_nonlinear_samples_match_choice_plus_normals():
    sp = FockSpace(16)
    amp = TwoModeNormalAmp(number_op(sp), 2.0)
    st = coherent_state(sp, 0.8)
    det = _hom(0.9)
    plan = TrialPlan(amp, st, det, BLOCK + 3, 9)
    dec = normal_decompose(amp.f)
    probs = np.clip(dec.probabilities(st), 0.0, None)
    probs /= probs.sum()
    centres = math.sqrt(2.0) * amp.g * np.real(dec.eigenvalues)
    sd = math.sqrt(amp.meter.x_variance() + det.sigma2 / 2.0)  # meter + detector
    ref = []
    for rng, m in _block_streams(9, plan.trials):
        counts = rng.multinomial(m, probs)
        ref.append(np.repeat(centres, counts) + sd * rng.standard_normal(m))
    assert np.array_equal(nonlinear_meter_x_samples(plan), np.concatenate(ref))


@pytest.mark.parametrize("centres", [[0.5], [-3.0, 0.0, 2.5, 40.0], [1.0 + 0.5j],
                                     list(np.linspace(-5.0, 5.0, 300)),
                                     list(np.linspace(-1.0, 1.0, 60) * (1 + 2j))])
def test_chunks_are_the_whole_block_draws_and_sum_to_its_moments(
        centres, monkeypatch):
    # the blocks, with or without a transform, are np.repeat(centres,
    # counts) plus the normals, bit for bit, whether a chunk lies in one
    # run, crosses a few or crosses dozens; the power sums about one shift
    # per block merge to the two-pass moments of the joined draws
    _set_cpus(monkeypatch, 1)  # chunks in trial order
    args = (centres, np.arange(1.0, len(centres) + 1), 0.7, 2 * BLOCK + 7, 4)
    whole = np.concatenate(list(gaussian_blocks(*args)))
    c, p = np.array(centres), args[1] / args[1].sum()
    ref = []
    for rng, m in _block_streams(4, args[3]):
        counts = [m] if c.size == 1 else rng.multinomial(m, p)
        ref.append(np.repeat(c, counts)
                   + 0.7 * rng.standard_normal(m * (c.dtype.itemsize // 8)).view(c.dtype))
    assert np.array_equal(whole, np.concatenate(ref))
    chunks, moments = [], _Moments()

    def transform(x, out):
        chunks.append(x.copy())
        np.square(np.abs(x, out=out), out=out)

    for block in gaussian_blocks(*args, transform=transform):
        moments.merge(*block)
    assert np.array_equal(np.concatenate(chunks), whole)
    y = np.abs(whole) ** 2
    d = y - y.mean()
    n, scale = y.size, float(y.max())
    for got, ref, k in zip([moments.mean] + moments.sums[2:],
                           [y.mean()] + [np.sum(d ** k) for k in (2, 3, 4)],
                           (1, 2, 3, 4)):
        assert abs(got - ref) <= 1e-12 * n * scale ** k


def _mean_amplitude(state):
    # <a> = sum_n sqrt(n) conj(psi_{n-1}) psi_n, summed as the sampler sums it
    psi = state.data
    return complex(np.vdot(psi[:-1], np.sqrt(np.arange(1, psi.size)) * psi[1:]))


def _plain_coherent_draws(state, det, gain, n, seed):
    # gain <a> + sd (z_re + 1j z_im), sd^2 = (gain^2 + sigma^2)/2 per axis
    centre = gain * _mean_amplitude(state)
    sd = math.sqrt((gain * gain + det.sigma2) / 2.0)
    out = []
    for rng, m in _block_streams(seed, n):
        z = rng.standard_normal((m, 2))
        out.append(centre + sd * (z[:, 0] + 1j * z[:, 1]))
    return np.concatenate(out)


def test_linear_samples_match_gain_times_draws_plus_noise():
    # the linear scheme and the detector share one sampler; a coherent input
    # is one Gaussian about gain <a>, amplifier and detector noise together
    st = coherent_state(FockSpace(16), 1.0 + 0.5j)
    det = _het(0.8)
    plan = TrialPlan(LinearAmp(2.0), st, det, BLOCK + 3, 4)
    ref = _plain_coherent_draws(st, det, 2.0, BLOCK + 3, 4)
    assert np.array_equal(linear_heterodyne_samples(plan), ref)


@pytest.mark.parametrize("as_density", [False, True])
def test_coherent_heterodyne_draws_build_no_grid(as_density, monkeypatch):
    # a coherent input never reaches the rejection sampler
    def refuse(*args, **kwargs):
        raise AssertionError("the rejection sampler was called")

    monkeypatch.setattr(measurement, "husimi_blocks", refuse)
    st = coherent_state(FockSpace(16), 1.0 + 0.5j)
    if as_density:
        st = st.to_density()
    det = _het(0.8)
    ref = _plain_coherent_draws(coherent_state(FockSpace(16), 1.0 + 0.5j), det,
                                1.0, BLOCK + 3, 6)
    got = sample_outcomes(st, det, BLOCK + 3, 6)
    if as_density:  # <a> is summed along the subdiagonal of rho instead
        assert np.abs(got - ref).max() < 1e-14
    else:
        assert np.array_equal(got, ref)
    plan = TrialPlan(LinearAmp(2.0), st, det, 1000, 6)
    assert run_plan(plan).to_dict() == run_plan(plan).to_dict()


@pytest.mark.parametrize("admixture, rejection", [(1e-6, True), (1e-14, False)])
def test_coherent_route_threshold(admixture, rejection, monkeypatch):
    # 1 - <m|rho|m> <= 1e-12 at m = <a> samples |m> as one Gaussian; a
    # coherent ket with 1e-6 of another level takes the rejection sampler
    calls = []
    husimi_blocks = measurement.husimi_blocks

    def counted(*args, **kwargs):
        calls.append(1)
        return husimi_blocks(*args, **kwargs)

    monkeypatch.setattr(measurement, "husimi_blocks", counted)
    sp = FockSpace(16)
    psi = math.sqrt(1.0 - admixture) * coherent_state(sp, 1.0 + 0.5j).data
    psi[5] += math.sqrt(admixture)
    st = State(sp, "ket", psi / np.linalg.norm(psi))
    out = sample_outcomes(st, _het(0.8), 1000, 2)
    assert bool(calls) == rejection
    assert np.isfinite(out).all()


def test_linear_seed_determinism_bit_exact():
    sp = FockSpace(16)
    plan = TrialPlan(LinearAmp(2.0), coherent_state(sp, 1.0 + 0.5j), _het(0.8),
                     5000, 123)
    assert np.array_equal(linear_heterodyne_samples(plan),
                          linear_heterodyne_samples(plan))
    assert run_plan(plan).to_dict() == run_plan(plan).to_dict()


def _set_cpus(mp, k):
    # _pooled sizes its pool from the CPU count at call time
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    mp.setattr(os, "cpu_count", lambda: k)


@pytest.mark.parametrize("case", ["linear", "two_mode"])
def test_estimation_memory_is_bounded(case, monkeypatch):
    # the two montecarlo benchmark plans, at 1 and 4 workers; the samplers
    # reduce their draws to moments a chunk at a time
    import tracemalloc
    if case == "linear":
        plan = TrialPlan(LinearAmp(2.0), coherent_state(FockSpace(64), 1.0 + 0.5j),
                         _het(0.8), 1_000_000, 7)
        bound = 60
    else:
        sp = FockSpace(8)
        plan = TrialPlan(TwoModeNormalAmp(number_op(sp), 2.0), fock_state(sp, 2),
                         _hom(0.9), 4_000_000, 7)
        bound = 90
    for workers in (1, 4):
        _set_cpus(monkeypatch, workers)
        tracemalloc.start()
        try:
            rep = run_plan(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(rep.z_mean) < 5 and abs(rep.z_variance) < 5
        assert peak < bound * 2 ** 20


@pytest.mark.parametrize("case", ["linear", "two_mode"])
def test_estimation_memory_is_flat_in_trials(case, monkeypatch):
    # the draws stream in blocks and the moments merge per block, so at 1
    # and at 4 workers the traced peak at 4e6 trials is the peak at 1e5
    import tracemalloc
    if case == "linear":
        args = (LinearAmp(2.0), coherent_state(FockSpace(64), 1.0 + 0.5j), _het(0.8))
    else:
        sp = FockSpace(8)
        args = (TwoModeNormalAmp(number_op(sp), 2.0), fock_state(sp, 2), _hom(0.9))
    for workers in (1, 4):
        _set_cpus(monkeypatch, workers)
        peaks = []
        for trials in (100_000, 4_000_000):
            plan = TrialPlan(*args, trials, 7)
            tracemalloc.start()
            try:
                rep = run_plan(plan)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert abs(rep.z_mean) < 5 and abs(rep.z_variance) < 5
        assert abs(peaks[1] - peaks[0]) < 4 * 2 ** 20


@pytest.mark.parametrize("case", ["linear", "two_mode"])
def test_gaussian_route_forms_no_block_sized_array(case, monkeypatch):
    # the Gaussian route reduces each chunk as it is drawn, so a worker holds
    # chunk-sized buffers: the traced peak of a five-block plan stays under
    # one real block (0.5 MiB) per worker, where whole blocks traced 1.1 and
    # 2.3 MiB (linear) and 1.0 and 2.0 MiB (two-mode) at 1 and 4 workers
    import tracemalloc
    if case == "linear":
        args = (LinearAmp(2.0), coherent_state(FockSpace(64), 1.0 + 0.5j), _het(0.8))
    else:
        sp = FockSpace(8)
        args = (TwoModeNormalAmp(number_op(sp), 2.0), fock_state(sp, 2), _hom(0.9))
    run_plan(TrialPlan(*args, 2, 7))  # the pool's and numpy.random's imports
    plan = TrialPlan(*args, 5 * BLOCK, 7)
    for workers in (1, 4):
        _set_cpus(monkeypatch, workers)
        tracemalloc.start()
        try:
            rep = run_plan(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(rep.z_mean) < 5 and abs(rep.z_variance) < 5
        assert peak < workers * BLOCK * 8


# ---------------------------------------------------------------------------
# worker threads: the blocks are drawn on a pool and merged in block order
# ---------------------------------------------------------------------------

def _thread_outputs(trials):
    sp = FockSpace(16)
    state = coherent_state(sp, 1.0 + 0.5j)
    nl = TrialPlan(TwoModeNormalAmp(number_op(sp), 2.0), state, _hom(0.9),
                   trials, 3)
    lin = TrialPlan(LinearAmp(2.0), state, _het(0.8), trials, 3)
    return [sample_outcomes(state, _het(0.8), trials, 3).tobytes(),
            sample_outcomes(fock_state(sp, 2), _het(0.8), trials, 3).tobytes(),
            nonlinear_meter_x_samples(nl).tobytes(),
            json.dumps(run_plan(nl).to_dict()), json.dumps(run_plan(lin).to_dict())]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(strategies.integers(2, 3 * BLOCK + 5))
def test_outputs_do_not_depend_on_worker_count(trials):
    with pytest.MonkeyPatch.context() as mp:
        _set_cpus(mp, 1)
        ref = _thread_outputs(trials)
        for workers in (2, 3, 4):
            _set_cpus(mp, workers)
            assert _thread_outputs(trials) == ref


class _Overrun(BaseException):
    """Raised by the alarm of a time-bounded test."""


def _overrun(signum, frame):
    raise _Overrun("the stressed runs took over 60 s")


def test_reports_under_thread_stress_match_one_worker():
    # eight workers on fewer cores, switched every microsecond, interleave
    # the per-chunk sums of the blocks in flight; a sum shared across blocks
    # or updated out of order would change a report's digits
    sp = FockSpace(16)
    state = coherent_state(sp, 1.0 + 0.5j)
    n = 8 * BLOCK + 5  # nine blocks: every worker has one
    plans = [TrialPlan(TwoModeNormalAmp(number_op(sp), 2.0), state, _hom(0.9), n, 3),
             TrialPlan(LinearAmp(2.0), state, _het(0.8), n, 3),
             TrialPlan(LinearAmp(2.0), fock_state(sp, 2), _het(0.8), n, 3)]

    def reports():
        return [json.dumps(run_plan(plan).to_dict()) for plan in plans] \
            + [json.dumps(compare_schemes(state, 2.0, n, 3, eta=0.9).to_dict())]

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        _set_cpus(mp, 1)
        ref = reports()
        _set_cpus(mp, 8)
        previous = signal.signal(signal.SIGALRM, _overrun)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        sys.setswitchinterval(1e-6)
        try:
            got = [reports() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert got == [ref] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_stopped_or_failed_stream_leaves_no_threads(workers, monkeypatch):
    _set_cpus(monkeypatch, workers)
    args = (np.arange(4.0), np.ones(4), 1.0, 4 * BLOCK + 1, 0)  # five blocks
    blocks = list(gaussian_blocks(*args))
    started = []

    def transform(x, out, fail=None):
        # a block starts with its first chunk, the only one that matches
        # the head of a whole block
        b = [i for i, ref in enumerate(blocks) if np.array_equal(x, ref[:x.size])]
        started.extend(b)
        if b == [fail]:
            raise ValueError(f"block {fail}")
        out[:] = x

    before = threading.active_count()
    stream = gaussian_blocks(*args, transform=transform)
    # the first yield is block 0's: its shift is the mean of block 0's first
    # chunk, drawn alone as a one-block plan (blocks[0] is whatever this
    # stream yields first)
    head = next(gaussian_blocks(*args[:3], BLOCK, 0))[:DRAW_CHUNK]
    assert next(stream)[0] == float(head.mean())
    stream.close()
    assert threading.active_count() == before
    assert max(started) <= workers  # at most workers + 1 blocks in flight

    started.clear()
    with pytest.raises(ValueError, match="block 2"):
        for _ in gaussian_blocks(*args,
                                 transform=lambda x, out: transform(x, out, fail=2)):
            pass
    assert threading.active_count() == before
    assert 2 in started and max(started) <= 2 + workers


def test_abandoned_stream_in_a_cycle_lets_the_interpreter_exit():
    # a stream left suspended inside a reference cycle is closed, if at all,
    # by the collector while the interpreter finalizes: its workers must
    # not keep the process alive, and that close must not wait on them
    script = textwrap.dedent("""
        import gc, os
        import numpy as np
        from fockamp.measurement import BLOCK, gaussian_blocks
        os.sched_getaffinity = lambda pid: {0, 1, 2}
        gc.disable()
        stream = gaussian_blocks(np.arange(4.0), np.ones(4), 1.0, 8 * BLOCK, 0,
                                 transform=lambda x, out: np.copyto(out, x))
        next(stream)
        cycle = [stream]
        cycle.append(cycle)
        del stream, cycle
    """)
    proc = run_python(["-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_functions_run_on_the_main_thread(monkeypatch):
    # every module-level function wrapped as perfbench/tracer.py wraps it
    # (generator functions aside): none may run on a sampler worker, whose
    # chunk transforms do run off the main thread
    from fockamp import estimators
    calls, reductions = [], []

    def on_thread(fn, log):
        def wrapper(*a, **k):
            log.append((fn.__name__, threading.current_thread()))
            if k.get("transform"):
                k["transform"] = on_thread(k["transform"], reductions)
            return fn(*a, **k)
        return wrapper

    wrapped = {}
    for short in ("fock", "amplifiers", "measurement", "estimators"):
        mod = importlib.import_module("fockamp." + short)
        for obj in vars(mod).values():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)):
                wrapped[id(obj)] = on_thread(obj, calls)
    for name, mod in list(sys.modules.items()):
        if name == "fockamp" or name.startswith("fockamp."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    monkeypatch.setattr(mod, attr, wrapped[id(obj)])
    _set_cpus(monkeypatch, 2)
    state = coherent_state(FockSpace(16), 1.0)
    estimators.compare_schemes(state, 2.0, 3 * BLOCK, 5)
    estimators.run_plan(TrialPlan(LinearAmp(2.0), state, _het(0.8), 3 * BLOCK, 5))
    # a non-coherent input takes the rejection sampler, whose acceptance
    # tables are built here and read by closures on the workers
    estimators.run_plan(TrialPlan(LinearAmp(2.0), fock_state(FockSpace(16), 1),
                                  _het(0.8), 3 * BLOCK, 5))
    names = {name for name, _ in calls}
    assert {"compare_schemes", "run_plan", "_linear_blocks", "gaussian_blocks",
            "husimi_blocks", "_husimi_proposal", "log_factorials"} <= names
    assert all(t is threading.main_thread() for _, t in calls)
    assert any(t is not threading.main_thread() for _, t in reductions)


def test_unbiasedness_over_seeds():
    sp = FockSpace(16)
    z_values = []
    for seed in range(42, 62):
        nl = TrialPlan(TwoModeNormalAmp(number_op(FockSpace(8)), 3.0),
                       fock_state(FockSpace(8), 2), _hom(), 20000, seed)
        lin = TrialPlan(LinearAmp(2.0), fock_state(sp, 2), _het(), 20000,
                        seed)
        z_values.append(abs(run_plan(nl).z_mean))
        z_values.append(abs(run_plan(lin).z_mean))
    z_values = np.array(z_values)
    assert np.mean(z_values < 3.0) >= 0.99


# ---------------------------------------------------------------------------
# scheme comparison / SNR
# ---------------------------------------------------------------------------

def test_compare_coherent_unit_gain():
    sp = FockSpace(16)
    rep = compare_schemes(coherent_state(sp, 1.0), 1.0, 20000, 7)
    assert rep.improvement
    assert abs(rep.analytic_nonlinear_variance - 1.25) < 1e-5
    assert abs(rep.analytic_linear_variance - 3.0) < 1e-5
    assert rep.crossover_satisfied


def test_compare_small_gain_vacuum():
    sp = FockSpace(8)
    rep = compare_schemes(vacuum_state(sp), 0.4, 2000, 3)
    assert abs(rep.analytic_nonlinear_variance - 1.5625) < 1e-12
    assert abs(rep.analytic_linear_variance - 1.0) < 1e-12
    assert not rep.improvement
    assert rep.linear is None  # Monte Carlo linear branch needs g >= 1


def test_compare_eigenstate_large_gain():
    sp = FockSpace(8)
    rep = compare_schemes(fock_state(sp, 3), 10.0, 2000, 5)
    assert abs(rep.analytic_nonlinear_variance - 0.0025) < 1e-12
    assert rep.analytic_linear_variance >= 1.0
    assert rep.improvement


def test_snr_values():
    assert snr_report(2, 3.0) == 12.0
    assert snr_report(0, 5.0) == 0.0
    assert abs(snr_report(1, 2.0, 1.0) - 4.0 * math.e) < 1e-12
    with pytest.raises(ValueError):
        snr_report(-1, 2.0)


def test_snr_consistent_with_simulation():
    from fockamp import simulated_output_moments
    sp = FockSpace(6)
    g, n = 2.0, 2
    rep = simulated_output_moments(TwoModeNormalAmp(number_op(sp), g),
                                   fock_state(sp, n))
    snr = rep.quad_means[0] / math.sqrt(rep.quad_noises[0])
    assert abs(snr - snr_report(n, g)) < 1e-6
