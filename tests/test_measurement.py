"""Measurement tests: detector elements, effective POVMs, regions, sampling."""
import dataclasses
import math
import os

import numpy as np
import pytest

from fockamp import (DecisionRegions, DetectorSpec, FockSpace, Operator,
                     ThreeModeAmp, TwoModeNormalAmp, VonNeumannAmp,
                     Meter, coherent_state, effective_povm_closed_form,
                     effective_povm_numeric, fock_state, normal_decompose,
                     number_op, own_region_weights, sample_outcomes, tensor,
                     vacuum_state)
from fockamp import amplifiers, heterodyne, measurement, oracles
from fockamp.errors import CoverageError, DimensionMismatch, TruncationError
from fockamp.amplifiers import (_f_of_x_operator, displaced_meter_ket,
                                quadratic_signal_op)
from fockamp.fock import State, log_factorials, parity_op
from fockamp.measurement import BLOCK, _region_masses
from fockamp.oracles import (heterodyne_element, homodyne_element,
                             husimi_values, three_mode_unitary,
                             two_mode_unitary, von_neumann_unitary)
from support import (coherent_amplitudes, displaced_row_povm,
                     heterodyne_expectations, traced_peak)


def povm_meter_dims(amp):
    """Dims of the meters that effective_povm_numeric builds for ``amp``,
    each of which it builds at rest."""
    built, kernel = [], amplifiers.displaced_meter_ket

    def spy(meter, dim, alphas):
        assert np.array_equal(alphas, [0.0])
        built.append(kernel(meter, dim, alphas))
        return built[-1]

    model, _ = measurement.povm_model(amp)
    kind = "heterodyne" if model == "heterodyne" else "homodyne"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amplifiers, "displaced_meter_ket", spy)
        effective_povm_numeric(amp, DetectorSpec(kind, 1.0), np.zeros(1))
    return tuple(rows.shape[1] for rows in built)


def coarse_grain(povm, regions: DecisionRegions) -> list[Operator]:
    """One operator per decision region, V diag(mass) V^dag in the eigenbasis."""
    dec = povm.decomposition
    v = dec.eigenvectors
    return [Operator(dec.space, (v * m) @ v.conj().T)
            for m in _region_masses(povm, regions)]


# ---------------------------------------------------------------------------
# detector specs
# ---------------------------------------------------------------------------

def test_detector_smearing_values():
    assert DetectorSpec("heterodyne", 1.0).sigma2 == 0.0
    assert abs(DetectorSpec("heterodyne", 0.5).sigma2 - 1.0) < 1e-15
    assert abs(DetectorSpec("homodyne", 0.5).sigma2 - 0.25) < 1e-15
    with pytest.raises(ValueError):
        DetectorSpec("heterodyne", 0.0)
    with pytest.raises(ValueError):
        DetectorSpec("photon_counting")


# ---------------------------------------------------------------------------
# heterodyne elements
# ---------------------------------------------------------------------------

def test_ideal_heterodyne_element_is_coherent_projector():
    sp = FockSpace(12)
    m = heterodyne_element(0.0, 0.0, sp).matrix
    target = np.zeros((12, 12))
    target[0, 0] = 1.0 / math.pi
    assert np.abs(m - target).max() < 1e-15


def test_heterodyne_trace_identity():
    sp = FockSpace(16)
    m = heterodyne_element(0.0, 1.0, sp).matrix
    assert abs(m[0, 0].real * math.pi * 2.0 - 1.0) < 1e-8


def test_heterodyne_element_against_brute_force_integral():
    # oracle: direct 2-D quadrature of the smeared coherent projector
    dim, sigma2, beta = 6, 0.5, 0.8 + 0.3j
    axis = np.linspace(-6, 6, 201)
    step = axis[1] - axis[0]
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    gammas = (gx + 1j * gy).ravel()
    c = np.zeros((dim, gammas.size), dtype=complex)
    c[0] = np.exp(-0.5 * np.abs(gammas) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * gammas / math.sqrt(n)
    w = np.exp(-np.abs(gammas - beta) ** 2 / sigma2)
    brute = (c * w) @ c.conj().T * step * step / (math.pi ** 2 * sigma2)
    closed = heterodyne_element(beta, sigma2, FockSpace(dim)).matrix
    assert np.abs(closed - brute).max() < 1e-8


def test_heterodyne_grid_resolves_identity():
    sp = FockSpace(10)
    axis = np.arange(-6.0, 6.0 + 1e-9, 0.1)
    total = np.zeros((10, 10), dtype=complex)
    for bx in axis:
        for by in axis:
            if bx * bx + by * by > 36.0 + 1e-9:
                continue
            total += heterodyne_element(bx + 1j * by, 1.0, sp).matrix * 0.01
    assert np.abs(total - np.eye(10)).max() < 1e-3


def test_heterodyne_elements_psd():
    sp = FockSpace(14)
    for beta, s2 in ((0.5 + 1j, 0.3), (2.0, 1.0), (-1.5j, 0.0)):
        m = heterodyne_element(beta, s2, sp).matrix
        assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-9


@pytest.mark.parametrize("dim", [24, 81, 144])
@pytest.mark.parametrize("sigma2", [0.0, 0.25, 1.0])
def test_heterodyne_expectations_match_element_oracle(dim, sigma2):
    # oracle: <chi|M_beta|chi> from one dense heterodyne_element per outcome,
    # on kets with weight on every level so no term of the expansion is idle
    rng = np.random.default_rng(dim)
    kets = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    betas = 3.0 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    oracle = np.array([
        np.real(np.sum(kets.conj() * (kets @ heterodyne_element(
            b, sigma2, FockSpace(dim)).matrix.T), axis=1)) for b in betas])
    got = heterodyne_expectations(kets, betas, sigma2)
    assert got.shape == oracle.shape
    assert np.max(np.abs(got - oracle) / np.abs(oracle)) < 1e-12


@pytest.mark.parametrize("sigma2", [0.0, 1.0])
def test_heterodyne_expectations_closed_form_at_large_amplitude(sigma2):
    # <alpha|M_beta|alpha> = (t/pi) e^{-t|alpha-beta|^2}; at 2048 levels the
    # terms of the expansion peak near k = s|alpha|^2 = 800 for sigma2 = 1
    alpha = 40.0 * np.exp(0.7j)
    ket = coherent_state(FockSpace(2048), alpha).data[None, :]
    betas = alpha + np.array([0.0, 0.3, -0.5 + 0.2j, 1.1j, 1.5, 2.0 - 1.0j])
    t = 1.0 / (1.0 + sigma2)
    exact = (t / math.pi) * np.exp(-t * np.abs(alpha - betas) ** 2)
    got = heterodyne_expectations(ket, betas, sigma2)[:, 0]
    assert np.max(np.abs(got - exact) / exact) < 1e-11


@pytest.mark.parametrize("sigma2", [1.0, 9.0])
def test_heterodyne_expectations_closed_form_at_4096_levels(sigma2):
    # the sizing cap: both factors of each term are at most 1, so no term
    # leaves the float range (the product form of the binomial weights
    # overflowed near 3500 levels at sigma2 = 1)
    alpha = 55.0 * np.exp(0.7j)
    ket = coherent_state(FockSpace(4096), alpha).data[None, :]
    betas = alpha + np.array([0.0, 0.5, -1.0 + 1.0j, 2.5j, 3.0])
    t = 1.0 / (1.0 + sigma2)
    exact = (t / math.pi) * np.exp(-t * np.abs(alpha - betas) ** 2)
    got = heterodyne_expectations(ket, betas, sigma2)[:, 0]
    assert np.max(np.abs(got - exact) / exact) < 1e-11


def _heterodyne_expectations_product_form(kets, betas, sigma2):
    """Reference sandwich with w_k(m) = s^{k/2} sqrt(binom(m, k)) built by
    the product w_k = w_{k-1} sqrt(s (m-k+1)/k) and the amplitudes
    e^{-t|beta|^2/2} (t beta)^p / sqrt(p!) in one complex exponential. The
    product overflows past ~3500 levels at sigma2 = 1."""
    d = kets.shape[1]
    betas = np.asarray(betas, dtype=complex)
    t, s = 1.0 / (1.0 + sigma2), sigma2 / (1.0 + sigma2)
    tb = t * betas
    p = np.arange(d)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logc = p * np.log(np.abs(tb))
    logc[0] = 0.0
    c = np.exp(logc - 0.5 * log_factorials(d)[:, None]
               - 0.5 * t * np.abs(betas) ** 2 + 1j * p * np.angle(tb))
    w = np.ones(d)
    acc = np.zeros((kets.shape[0], betas.size))
    for k in range(d if s > 0 else 1):
        if k:
            w = w[1:] * np.sqrt(s * np.arange(1.0, d - k + 1) / k)
        a = (kets[:, k:].conj() * w) @ c[:d - k]
        acc += a.real ** 2 + a.imag ** 2
    return (t / math.pi) * acc.T


@pytest.mark.parametrize("g, dim, sigma2", [(1.0, 81, 1.0), (2.0, 144, 1.0),
                                            (3.0, 225, 0.25), (2.0, 144, 0.0),
                                            (1.0, 2048, 1.0)])
def test_heterodyne_expectations_match_product_form(g, dim, sigma2):
    # the povm benchmark's readout (a^dag a on 4 levels, vacuum meter, its
    # rescaled outcome grid of 2 points per width) and the meter size of
    # the sizing rule at each gain; at 2048 levels, kets on every level
    lam = np.arange(4.0)
    if dim < 2048:
        kets = np.array([coherent_state(FockSpace(dim), g * x).data
                         for x in lam])
        w = math.sqrt((sigma2 + 1.0) / g ** 2)
        axis = np.arange(-5 * w, 5 * w + 1e-9, w / 2)
        grid = (lam[:, None] + axis).ravel()
        betas = g * (grid[:, None] + 1j * axis).ravel()
    else:
        kets = _random_kets(3, dim, 11)
        rng = np.random.default_rng(11)
        betas = 3.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
    got = heterodyne_expectations(kets, betas, sigma2)
    want = _heterodyne_expectations_product_form(kets, betas, sigma2)
    assert np.max(np.abs(got - want) / want.max(axis=0)) <= 1e-13


def test_heterodyne_expectations_memory_is_bounded():
    # the outcomes stream in blocks of _outcome_block, so the peak does not grow
    # with their count; one amplitude table over all outcomes traces 55 and
    # 220 MiB here
    kets = _random_kets(4, 144, 2)
    rng = np.random.default_rng(2)
    peaks = []
    for n in (10_000, 40_000):
        betas = 4.0 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        out, peak = traced_peak(lambda: heterodyne_expectations(kets, betas, 1.0))
        peaks.append(peak)
        assert out.shape == (n, 4)
    assert peaks[1] <= 16 * 2 ** 20, peaks
    assert peaks[1] - peaks[0] <= 2 * 2 ** 20, peaks  # the (n, 4) output


@pytest.mark.parametrize("eta", [1.0, 0.7, 0.5, 0.3])
@pytest.mark.parametrize("r", [0.0, -0.7, 0.5, 1.0])
def test_heterodyne_reads_match_truncated_rows(r, eta):
    # the outcome-frame series against the loss-channel kernel on the meter
    # rows cut at 800 levels, whose tails lie far below roundoff here:
    # alphas up to 12, outcomes within 6 of each alpha on both axes and at 0
    meter = Meter("squeezed", r=r) if r else Meter()
    sigma2 = DetectorSpec("heterodyne", eta).sigma2
    alphas = np.array([0.0, 3.0 + 1.0j, -8.0j, 12.0 * np.exp(0.4j)])
    rng = np.random.default_rng(7)
    betas = np.concatenate([[0.0], *(a + rng.uniform(-6.0, 6.0, 15)
                                     + 1j * rng.uniform(-6.0, 6.0, 15)
                                     for a in alphas)])
    want = heterodyne_expectations(amplifiers.displaced_meter_ket(meter, 800, alphas),
                                   betas, sigma2)
    got = heterodyne.meter_reads(meter, alphas, betas, sigma2)
    assert got.shape == want.shape and (got >= 0).all()
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("eta", [1.0, 0.9, 0.5, 0.3, 0.01, 1e-6])
def test_heterodyne_terms_leave_the_stated_tail(eta):
    # K is the fewest terms with s^K <= SERIES_TAIL: 1 at eta 1, 57 at 0.5,
    # ~39/eta at a small eta
    sigma2 = DetectorSpec("heterodyne", eta).sigma2
    s = sigma2 / (1.0 + sigma2)
    k = heterodyne.series_terms(sigma2)
    assert s ** k <= heterodyne.SERIES_TAIL == 1e-17
    assert k == 1 or s ** (k - 1) > heterodyne.SERIES_TAIL
    assert k == {1.0: 1, 0.5: 57}.get(eta, k)
    assert k <= 40 / eta


def test_heterodyne_reads_keep_the_float_range_at_low_efficiency():
    # at efficiency 0.01 the series runs 3,895 terms, and outcomes 30 to 100
    # from the meter put its largest terms near n = |beta|^2, far past where
    # e^{-|beta|^2} underflows: the rescaled running sums still give the
    # vacuum meter's read, (t/pi) e^{-t |beta|^2}, t = 1/(1 + sigma^2), to
    # roundoff where the K terms hold the row's mass (|beta| <= 30)
    sigma2 = DetectorSpec("heterodyne", 0.01).sigma2
    betas = np.array([0.0, 1.0, 10.0, 30.0, 60.0, 100.0]) * np.exp(0.3j)
    got = heterodyne.meter_reads(Meter(), np.zeros(1), betas, sigma2)[:, 0]
    t = 1.0 / (1.0 + sigma2)
    want = (t / math.pi) * np.exp(-t * np.abs(betas) ** 2)
    assert np.abs(got - want).max() <= 1e-17
    assert np.abs(got[:4] / want[:4] - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# homodyne elements
# ---------------------------------------------------------------------------

def test_ideal_homodyne_vacuum_density():
    sp = FockSpace(12)
    m = homodyne_element(0.0, 0.0, sp).matrix
    assert abs(m[0, 0].real - math.pi ** -0.5) < 1e-12


def test_homodyne_elements_resolve_identity():
    sp = FockSpace(12)
    xs = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    total = np.zeros((12, 12), dtype=complex)
    for x in xs:
        total += homodyne_element(float(x), 0.25, sp).matrix * 0.05
    assert np.abs(total - np.eye(12)).max() < 1e-4


def test_noisy_homodyne_vacuum_density_is_wider_gaussian():
    # Gaussian convolution oracle: vacuum q has variance 1/2, the detector
    # kernel adds sigma^2/2, so Tr[M_x rho_vac] is a normal density with
    # variance 1/2 + sigma^2/8... (sigma2 = 0.25 -> 0.625)
    sp = FockSpace(16)
    sigma2 = 0.25
    var = 0.5 + sigma2 / 2.0
    vac = vacuum_state(sp).to_density().data
    for x in (0.0, 0.4, 1.1):
        m = homodyne_element(x, sigma2, sp).matrix
        dens = float(np.real(np.trace(m @ vac)))
        target = math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert abs(dens - target) < 1e-8


def test_homodyne_element_grid_follows_the_outcome():
    # a coherent meter centred at x = 11 lies past |y| <= 10; the quadrature
    # grid extends to |x| + 8 kernel widths, so the density stays exact there
    sp = FockSpace(128)
    sigma2 = 0.25
    var = 0.5 + sigma2 / 2.0
    rho = coherent_state(sp, 11.0 / math.sqrt(2.0)).to_density().data
    for x in (10.5, 11.0, 12.0):
        dens = float(np.real(np.trace(homodyne_element(x, sigma2, sp).matrix @ rho)))
        target = math.exp(-(x - 11.0) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert abs(dens - target) < 1e-8


def _random_kets(n, d, seed):
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


@pytest.mark.parametrize("sigma2", [0.25, 0.0])
@pytest.mark.parametrize("layout", ["under_one_chunk", "four_chunks",
                                    "three_chunks_and_one"])
def test_streamed_homodyne_matches_dense_oracle(layout, sigma2):
    # the outcomes stream in blocks of _outcome_block(40) (1600 here); 28
    # outcomes repeat through them, so each lands at many places in a block
    # and at its boundaries, and each row is checked against the dense
    # quadrature of oracles.homodyne_element
    base = np.linspace(-4.0, 12.0, 28)
    step = measurement._outcome_block(40)
    n = {"under_one_chunk": base.size, "four_chunks": 4 * step,
         "three_chunks_and_one": 3 * step + 1}[layout]
    assert n <= step or n // step in (3, 4)
    kets = _random_kets(3, 40, 5)
    got = measurement._detector_expectations(kets, np.resize(base, n), sigma2)
    sp = FockSpace(40)
    want = np.array([[np.vdot(k, homodyne_element(float(x), sigma2, sp).matrix @ k).real
                      for k in kets] for x in base])
    want = np.resize(want, (n, 3))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_homodyne_expectations_memory_is_bounded():
    # one Hermite table of one outcome block at a time: a 1024-level meter
    # and 200 outcomes trace 2.4 MB here; the whole (d x 5131) quadrature
    # table and its complex copy traced 126 MB
    kets = _random_kets(4, 1024, 3)
    xs = np.linspace(-10.0, 10.0, 200)
    out, peak = traced_peak(
        lambda: measurement._detector_expectations(kets, xs, 0.25))
    assert out.shape == (200, 4)
    assert peak <= 16e6, peak / 1e6


def test_homodyne_expectations_memory_does_not_grow_with_outcomes():
    # the meters of a von Neumann povm (a_dag_a, signal 4, g 1, vacuum
    # meter, homodyne eta 0.5, pinned at 81 levels) on its grids of 52,
    # 1,269 and 5,074 outcomes (points_per_width 4, 100 and 400): past one
    # outcome block the peak grows by the (n, 4) output alone; the
    # quadrature over a grid traced 1.1, 21.4 and 84.7 MiB
    from fockamp.amplifiers import VonNeumannAmp
    from fockamp.cli import _povm_grid
    from fockamp.fock import number_op
    spec = VonNeumannAmp(number_op(FockSpace(4)), 1.0)
    drive = 1.0 / math.sqrt(2.0)
    kets = displaced_meter_ket(spec.meter, 81, drive * np.arange(4.0))
    assert 1269 > measurement._outcome_block(kets.shape[1])
    sigma2 = measurement.DetectorSpec("homodyne", 0.5).sigma2
    width = math.sqrt(sigma2 + 1.0)
    peaks = []
    for ppw, n in ((4, 52), (100, 1269), (400, 5074)):
        xs, _ = _povm_grid(np.arange(4.0), width, 5.0, ppw, complex_grid=False)
        assert xs.size == n
        out, peak = traced_peak(
            lambda: measurement._detector_expectations(kets, xs, sigma2))
        peaks.append(peak)
        assert out.shape == (n, 4)
    assert max(peaks) <= 2 * 2 ** 20, peaks
    assert peaks[2] - peaks[1] <= 32 * (5074 - 1269) + 2 ** 16, peaks  # the output


@pytest.mark.parametrize("sigma2", [0.25, 0.0])
def test_homodyne_expectations_past_old_reach(sigma2):
    # past |y| ~ 37.6, where h_0(y) underflows, the rescaled Hermite rows
    # carry a coherent meter centred at x = 42: a normal density of
    # variance 1/2 + sigma^2/2 about 42
    x0 = 42.0
    ket = coherent_state(FockSpace(1500), x0 / math.sqrt(2.0)).data[None, :]
    xs = x0 + np.array([-2.0, -0.7, 0.0, 0.4, 1.5])
    var = 0.5 + sigma2 / 2.0
    want = np.exp(-(xs - x0) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
    got = measurement._detector_expectations(ket, xs, sigma2)[:, 0]
    assert np.max(np.abs(got - want) / want) < 1e-9


# ---------------------------------------------------------------------------
# effective POVMs
# ---------------------------------------------------------------------------

def test_constant_signal_gives_uncorrelated_povm():
    # f = c 1: the meter decouples from the signal, E ~ identity
    sp = FockSpace(4)
    f = Operator(sp, 1.5 * np.eye(4))
    spec = TwoModeNormalAmp(f, 1.0)
    det = DetectorSpec("heterodyne", 1.0)
    grid = effective_povm_numeric(spec, det, np.array([1.5 + 0.0j, 1.2 + 0.3j]))
    for e in grid.elements:
        off = e - np.diag(np.diag(e))
        assert np.abs(off).max() < 1e-12
        assert np.abs(np.diag(e) - e[0, 0]).max() < 1e-12


def test_effective_povm_diagonal_in_signal_basis():
    sp = FockSpace(4)
    spec = TwoModeNormalAmp(number_op(sp), 2.0)
    det = DetectorSpec("heterodyne", 0.5)
    pts = np.array([0.5 + 0.2j, 1.5, 2.5 - 0.4j])
    grid = effective_povm_numeric(spec, det, pts)
    assert np.abs(grid.elements * (1.0 - np.eye(4))).max() < 1e-8


@pytest.mark.parametrize("model", ["heterodyne", "homodyne"])
def test_grid_checks_match_per_outcome_loops(model):
    # the closed-form deviation equals the per-outcome loop bit for bit, on
    # three outcomes and on 509 outcomes at d = 64: for these diagonal f the
    # eigenbasis V is the identity, so the weight-table difference that
    # max_deviation takes is the dense difference. The identity residual
    # sums the weight table by column, with the bits of the builtin sum
    small = (np.array([0.5 + 0.2j, 1.5, 2.5 - 0.4j]) if model == "heterodyne"
             else np.array([0.5, 1.5, 2.7]))
    line = np.linspace(-2.0, 2.0, 509)
    for f, pts in ((number_op(FockSpace(4)), small),
                   (parity_op(FockSpace(64)), line + 0.3j * line[::-1])):
        dec = normal_decompose(f)
        if model == "heterodyne":
            spec, det = TwoModeNormalAmp(f, 2.0), DetectorSpec("heterodyne", 0.5)
        else:
            spec, det = VonNeumannAmp(f, 2.0), DetectorSpec("homodyne", 0.5)
            pts = pts.real
        closed = effective_povm_closed_form(dec, 2.0, det.sigma2, model)
        grid = effective_povm_numeric(spec, det, pts)
        dev = max(float(np.abs(e - closed.element(o)).max())
                  for o, e in zip(grid.outcomes, grid.elements))
        assert grid.max_deviation(closed) == dev > 0
        assert np.array_equal(grid.weights.sum(axis=0), sum(grid.weights))


@pytest.mark.parametrize("case", ["quadratic", "poly_x"])
def test_max_deviation_is_the_weight_table_difference(case):
    # both POVMs are V diag(w) V^dag on the same eigenvalues, so the
    # deviation is max |w - w_closed|; for unitary V no entry of the dense
    # difference V diag(dw) V^dag exceeds it. Here V is not the identity:
    # a normal quadratic f under heterodyne, x + x^2 under homodyne
    sp = FockSpace(5)
    if case == "quadratic":
        f, normal = quadratic_signal_op(sp, 0.5, 1.0, 0.5, 0.5)
        assert normal
        spec, det = TwoModeNormalAmp(f, 2.0), DetectorSpec("heterodyne", 0.5)
    else:
        f = _f_of_x_operator([0.0, 0.5, 0.5], sp)
        spec, det = VonNeumannAmp(f, 2.0), DetectorSpec("homodyne", 0.5)
    model, epsilon = measurement.povm_model(spec)
    dec = normal_decompose(f)
    closed = effective_povm_closed_form(dec, 2.0, det.sigma2, model, epsilon)
    lam = dec.eigenvalues
    shift = math.sqrt(closed.width2) * (0.7 - 0.5j)
    grid = effective_povm_numeric(spec, det, np.concatenate(
        [lam, lam + shift, lam - 2 * shift]))
    dense = max(float(np.abs(e - closed.element(o)).max())
                for o, e in zip(grid.outcomes, grid.elements))
    dw = float(np.abs(grid.weights - closed.weights(grid.outcomes)).max())
    assert grid.max_deviation(closed) == dw < 1e-12
    if case == "poly_x":
        assert dw > dense > 0
    else:  # both sit at roundoff (1.67e-16 each), so they may tie
        assert dw >= dense > 0
    # a weight difference far above roundoff: V is not the identity, so it
    # spreads each column over several entries and the dense deviation is
    # strictly the smaller
    grid.weights[2, 0] += 1e-6
    dw = grid.max_deviation(closed)
    dense = max(float(np.abs(e - closed.element(o)).max())
                for o, e in zip(grid.outcomes, grid.elements))
    assert dw > dense * (1.0 + 1e-3) and dense > 1e-8


@pytest.mark.parametrize("variant", ["two_mode", "von_neumann"])
def test_numeric_povm_keeps_eigenvalues_closer_than_the_order_gap(variant):
    # 1 and 1 + 5e-9 share a decision cluster but not an eigenspace: each
    # column of the numeric table is its own eigenvalue's, as in the closed
    # form (sharing the row of 1 moves the 1 + 5e-9 column by ~1e-8 here)
    sp = FockSpace(4)
    f = Operator(sp, np.diag([0.0, 1.0, 1.0 + 5e-9, 2.0]).astype(complex))
    g = 6.0
    if variant == "two_mode":
        spec, det = TwoModeNormalAmp(f, g), DetectorSpec("heterodyne", 0.5)
    else:
        spec = VonNeumannAmp(f, g, Meter("squeezed", r=0.5))
        det = DetectorSpec("homodyne", 0.5)
    assert spec.dec.heads.tolist() == [0, 1, 2, 3]
    assert [c.tolist() for c in spec.dec.clusters()] == [[0], [1, 2], [3]]
    model, epsilon = measurement.povm_model(spec)
    closed = effective_povm_closed_form(spec.dec, g, det.sigma2, model, epsilon)
    pts = 1.0 + np.linspace(-0.3, 0.3, 13) * (1.0 if variant == "von_neumann" else 1 - 0.5j)
    grid = effective_povm_numeric(spec, det, pts)
    assert grid.max_deviation(closed) < 1e-12
    assert np.abs(grid.weights[:, 2] - grid.weights[:, 1]).max() > 1e-9


def test_max_deviation_refuses_another_decomposition():
    # the weight tables are indexed by the eigenvalues, so a closed form of
    # another f has nothing to compare column by column
    sp = FockSpace(4)
    det = DetectorSpec("heterodyne", 0.5)
    grid = effective_povm_numeric(TwoModeNormalAmp(number_op(sp), 2.0), det,
                                  np.array([0.5 + 0.2j, 1.5]))
    closed = effective_povm_closed_form(normal_decompose(parity_op(sp)), 2.0,
                                        det.sigma2, "heterodyne")
    with pytest.raises(ValueError, match="decompose f differently"):
        grid.max_deviation(closed)


def test_heterodyne_oracle_equivalence():
    # the module's central test: numeric sandwich vs analytic records
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    for g in (1.0, 2.0):
        for eta in (1.0, 0.5):
            det = DetectorSpec("heterodyne", eta)
            closed = effective_povm_closed_form(dec, g, det.sigma2, "heterodyne")
            w = math.sqrt(closed.width2)
            pts = np.concatenate(
                [k + w * np.linspace(-5, 5, 9) + 1j * w * 0.37
                 for k in range(4)])
            grid = effective_povm_numeric(TwoModeNormalAmp(f, g), det, pts)
            dev = max(float(np.abs(e - closed.element(o)).max())
                      for o, e in zip(pts, grid.elements))
            assert dev < 1e-5


def test_homodyne_oracle_equivalence():
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    for g in (1.0, 2.0):
        for eta in (1.0, 0.5):
            det = DetectorSpec("homodyne", eta)
            closed = effective_povm_closed_form(dec, g, det.sigma2, "homodyne",
                                                epsilon=1.0)
            w = math.sqrt(closed.width2)
            pts = np.concatenate([k + w * np.linspace(-5, 5, 9) for k in range(4)])
            grid = effective_povm_numeric(VonNeumannAmp(f, g), det, pts)
            dev = max(float(np.abs(e - closed.element(o)).max())
                      for o, e in zip(pts, grid.elements))
            assert dev < 1e-5


def test_three_mode_oracle_equivalence_moderate_squeezing():
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    g, r = 0.5, 0.5
    eps = math.exp(-r)
    det = DetectorSpec("homodyne", 0.2)  # sigma2 = 1
    spec = ThreeModeAmp(f, g, Meter("gaussian", epsilon=eps),
                        Meter("gaussian", epsilon=eps))
    closed = effective_povm_closed_form(dec, g, det.sigma2, "three_mode", eps)
    w = math.sqrt(closed.width2)
    pts = np.concatenate([k + w * np.linspace(-4, 4, 5) + 1j * w * 0.3
                          for k in range(4)])
    grid = effective_povm_numeric(spec, det, pts, dims=(28, 28))
    dev = max(float(np.abs(e - closed.element(o)).max())
              for o, e in zip(pts, grid.elements))
    assert dev < 1e-5


def _high_gain_homodyne_grid():
    """The CLI's squeezed-meter homodyne povm grid at g = 3 on four levels,
    with its closed form and outcomes."""
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    g, r = 3.0, 0.5
    det = DetectorSpec("homodyne", 0.5)
    closed = effective_povm_closed_form(dec, g, det.sigma2, "homodyne",
                                        epsilon=math.exp(-r))
    w = math.sqrt(closed.width2)
    step = w / 4
    pts = np.arange(-5 * w, 3 + 5 * w + step / 2, step)
    grid = effective_povm_numeric(VonNeumannAmp(f, g, Meter("squeezed", r=r)),
                                  det, pts)
    grid.measure = step
    return grid, closed, pts


def test_homodyne_numeric_povm_at_high_gain():
    # the CLI's povm grid at g = 3 runs to 3 + 5w, raw outcomes g (3 + 5w)
    # ~ 12.9, past |y| <= 10
    grid, closed, pts = _high_gain_homodyne_grid()
    dev = max(float(np.abs(e - closed.element(o)).max())
              for o, e in zip(pts, grid.elements))
    assert dev < 1e-9
    assert grid.identity_residual() < 1e-9


def test_identity_residual_reads_values_not_layout():
    # an F-ordered copy of the 87-outcome table holds the same values, but
    # numpy sums its columns in another order unless they are summed over a
    # C-ordered table
    grid, _, _ = _high_gain_homodyne_grid()
    turned = dataclasses.replace(grid, weights=np.asfortranarray(grid.weights))
    assert not turned.weights.flags.c_contiguous
    assert turned.identity_residual() == grid.identity_residual()


def test_heterodyne_numeric_povm_at_high_gain():
    # at g = 4 the meter is displaced to g lam = 12 on 324 levels, where the
    # expansion terms peak near k = s|alpha|^2 = 72: every term counts
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    g = 4.0
    det = DetectorSpec("heterodyne", 0.5)
    closed = effective_povm_closed_form(dec, g, det.sigma2, "heterodyne")
    w = math.sqrt(closed.width2)
    pts = (3.0 + w * np.linspace(-3, 3, 5)[:, None]
           + 1j * w * np.array([-1.5, -0.4, 0.6, 2.0])[None, :]).ravel()
    grid = effective_povm_numeric(TwoModeNormalAmp(f, g), det, pts)
    dev = max(float(np.abs(e - closed.element(o)).max())
              for o, e in zip(pts, grid.elements))
    assert dev < 1e-9


def test_numeric_povm_builds_no_heterodyne_element(monkeypatch):
    # heterodyne_element is the single-outcome oracle, not a production path
    calls = []
    oracle = oracles.heterodyne_element

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(oracles, "heterodyne_element", counted)
    f = number_op(FockSpace(4))
    pts = np.array([0.2 + 0.1j, 1.0, 1.7 - 0.4j, 3.2 + 0.5j])
    grid = effective_povm_numeric(TwoModeNormalAmp(f, 1.0),
                                  DetectorSpec("heterodyne", 0.5), pts)
    assert len(grid.elements) == pts.size
    assert calls == []


def test_numeric_povm_works_once_per_eigenspace(monkeypatch):
    # parity on 50 levels has 2 eigenspaces: the heterodyne read takes 2
    # alphas, not 50, and builds no meter row, and each eigenvector's column
    # is the one the read gives on its own alpha
    sp = FockSpace(50)
    spec, det = TwoModeNormalAmp(parity_op(sp), 1.0), DetectorSpec("heterodyne", 0.5)
    pts = np.add.outer(np.linspace(-4.0, 4.0, 9), 1j * np.linspace(-3.0, 3.0, 7)).ravel()
    read, alphas, rows = heterodyne.meter_reads, [], []
    monkeypatch.setattr(heterodyne, "meter_reads",
                        lambda m, al, *a: alphas.append(np.size(al)) or read(m, al, *a))
    monkeypatch.setattr(amplifiers, "displaced_meter_ket", lambda *a: rows.append(a))
    grid = effective_povm_numeric(spec, det, pts)
    assert alphas == [2] and rows == []
    assert np.array_equal(grid.weights, read(spec.meter, spec.dec.eigenvalues,
                                             pts, det.sigma2))


@pytest.mark.parametrize("variant", ["two_mode", "von_neumann"])
def test_spectral_sandwich_matches_dense_oracle(variant):
    # oracle: <meter| U^dag M U |meter> with the dense composite unitary
    sp = FockSpace(4)
    f = number_op(sp)
    if variant == "two_mode":
        g = 1.0
        spec = TwoModeNormalAmp(f, g)
        det = DetectorSpec("heterodyne", 0.5)
        pts = np.array([0.2 + 0.1j, 1.0, 1.7 - 0.4j, 3.2 + 0.5j])
        # the heterodyne read builds no meter: the oracle's is auto-sized,
        # 57 levels, below the 81 at which the dense oracle stops warning
        db = displaced_meter_ket(spec.meter, None, g * spec.dec.eigenvalues).shape[1]
        with pytest.warns(UserWarning, match="truncation limited"):
            u = two_mode_unitary(f, g, (4, db)).matrix
        def element(o):
            return g * g * heterodyne_element(g * o, det.sigma2, FockSpace(db)).matrix
    else:
        g = 2.0
        spec = VonNeumannAmp(f, g, Meter("squeezed", r=0.5))
        det = DetectorSpec("homodyne", 0.5)
        pts = np.array([-0.5, 0.3, 1.0, 2.6, 3.9])
        # the povm reads its meter at rest (75 levels); the oracle's is
        # sized for the displaced rows, 95 levels
        db = displaced_meter_ket(spec.meter, None,
                                 g / math.sqrt(2.0) * spec.dec.eigenvalues).shape[1]
        u = von_neumann_unitary(f, g / math.sqrt(2.0), (4, db)).matrix
        def element(o):
            return g * homodyne_element(g * o, det.sigma2, FockSpace(db)).matrix
    m = spec.meter.state(db).data
    psi = np.stack([u[:, j * db:(j + 1) * db] @ m for j in range(4)],
                   axis=-1).reshape(4, db, 4)
    grid = effective_povm_numeric(spec, det, pts)
    for o, e in zip(pts, grid.elements):
        dense = np.einsum("ami,mn,anj->ij", psi.conj(), element(o), psi,
                          optimize=True)
        assert np.abs(e - dense).max() < 1e-12


def test_numeric_identity_resolution():
    sp = FockSpace(4)
    g = 1.0
    det = DetectorSpec("heterodyne", 0.5)
    spec = TwoModeNormalAmp(number_op(sp), g)
    w = math.sqrt((det.sigma2 + 1) / g ** 2)
    step = w / 3
    axis_re = np.arange(-5 * w, 3 + 5 * w + step / 2, step)
    axis_im = np.arange(-5 * w, 5 * w + step / 2, step)
    gr, gi = np.meshgrid(axis_re, axis_im, indexing="ij")
    pts = (gr + 1j * gi).ravel()
    grid = effective_povm_numeric(spec, det, pts)
    grid.measure = step * step
    assert grid.identity_residual() < 5e-3


def test_closed_form_widths():
    sp = FockSpace(4)
    dec = normal_decompose(number_op(sp))
    het = effective_povm_closed_form(dec, 2.0, 0.0, "heterodyne")
    assert abs(het.width2 - 0.25) < 1e-15
    for r in (0.5, 1.0, 2.0):
        tm = effective_povm_closed_form(dec, 2.0, 0.3, "three_mode",
                                        math.exp(-r))
        assert tm.width2 < effective_povm_closed_form(
            dec, 2.0, 0.3, "heterodyne").width2


def test_numeric_width_is_inf_where_gain_squared_underflows():
    # g^2 is 0 below g ~ 1.6e-162; the numeric grid takes the closed form's
    # width rule there instead of dividing by zero
    amp = TwoModeNormalAmp(number_op(FockSpace(3)), 1e-200)
    grid = effective_povm_numeric(amp, DetectorSpec("heterodyne", 0.5), [0.0])
    closed = effective_povm_closed_form(normal_decompose(amp.f), amp.g, 1.0,
                                        "heterodyne")
    assert grid.width2 == closed.width2 == math.inf
    assert np.array_equal(grid.weights, np.zeros((1, 3)))


def test_closed_form_identity_and_psd():
    sp = FockSpace(5)
    dec = normal_decompose(number_op(sp))
    povm = effective_povm_closed_form(dec, 2.0, 0.5, "heterodyne")
    assert povm.identity_residual() < 1e-12
    for o in (0.3 + 0.1j, 2.0, 4.5 - 0.2j):
        e = povm.element(o)
        assert np.linalg.eigvalsh((e + e.conj().T) / 2).min() > -1e-12


def test_homodyne_model_rejects_complex_spectrum():
    sp = FockSpace(4)
    f = Operator(sp, number_op(sp).matrix + 0.5j * np.eye(4))
    dec = normal_decompose(f)
    with pytest.raises(ValueError):
        effective_povm_closed_form(dec, 1.0, 0.0, "homodyne")


# ---------------------------------------------------------------------------
# decision regions and coarse graining
# ---------------------------------------------------------------------------

def test_single_cluster_region_is_identity():
    sp = FockSpace(5)
    f = Operator(sp, 2.0 * np.eye(5))
    dec = normal_decompose(f)
    regions = DecisionRegions.from_decomposition(dec)
    assert regions.n_regions == 1
    povm = effective_povm_closed_form(dec, 1.0, 1.0, "heterodyne")
    ops = coarse_grain(povm, regions)
    assert np.abs(ops[0].matrix - np.eye(5)).max() < 1e-12


def test_own_region_weights_exact_tails():
    # oracle: the per-side loss is the normal tail Q(g Delta / (2 sd)) with
    # sd^2 = (sigma^2+1)/(2 g^2); interior eigenvalues lose both sides
    from scipy.special import erfc
    sp = FockSpace(4)
    dec = normal_decompose(number_op(sp))
    regions = DecisionRegions.from_decomposition(dec)
    g, s2 = 8.0, 1.0
    povm = effective_povm_closed_form(dec, g, s2, "heterodyne")
    w = own_region_weights(povm, regions)
    tail = 0.5 * erfc(g / (2.0 * math.sqrt(s2 + 1.0)))
    order = np.argsort(regions.centers.real)
    edge, interior = w[order[0]], w[order[1]]
    assert abs(edge - (1 - tail)) < 1e-12
    assert abs(interior - (1 - 2 * tail)) < 1e-12


def test_own_region_weights_increase_with_gain():
    sp = FockSpace(4)
    dec = normal_decompose(number_op(sp))
    regions = DecisionRegions.from_decomposition(dec)
    prev = None
    for g in (0.5, 1.0, 2.0, 4.0, 8.0):
        w = own_region_weights(
            effective_povm_closed_form(dec, g, 1.0, "heterodyne"), regions)
        if prev is not None:
            assert np.all(w > prev)
        prev = w


def test_coarse_grain_sums_to_identity():
    sp = FockSpace(4)
    dec = normal_decompose(number_op(sp))
    regions = DecisionRegions.from_decomposition(dec)
    povm = effective_povm_closed_form(dec, 3.0, 0.5, "heterodyne")
    total = sum(op.matrix for op in coarse_grain(povm, regions))
    assert np.abs(total - np.eye(4)).max() < 1e-12


def test_numeric_coarse_grain_matches_exact():
    # grid cells aligned so the half-integer region boundaries fall on cell
    # edges; the residual is then pure midpoint-rule quadrature error
    sp = FockSpace(3)
    g = 2.0
    det = DetectorSpec("heterodyne", 1.0)
    spec = TwoModeNormalAmp(number_op(sp), g)
    dec = normal_decompose(number_op(sp))
    closed = effective_povm_closed_form(dec, g, det.sigma2, "heterodyne")
    w = math.sqrt(closed.width2)
    step = 0.0625
    axis_re = np.arange(-3.0, 5.0, step) + step / 2
    axis_im = np.arange(-3.0, 3.0, step) + step / 2
    gr, gi = np.meshgrid(axis_re, axis_im, indexing="ij")
    pts = (gr + 1j * gi).ravel()
    grid = effective_povm_numeric(spec, det, pts)
    grid.measure = step * step
    regions = DecisionRegions.from_decomposition(dec)
    exact = coarse_grain(closed, regions)
    approx = coarse_grain(grid, regions)
    for a, b in zip(exact, approx):
        assert np.abs(a.matrix - b.matrix).max() < 2e-3
    # the grid is its weight table in the eigenbasis of f, and the own-region
    # weights read the same mass table for both POVM kinds
    v = dec.eigenvectors
    assert grid.weights.shape == (pts.size, 3)
    for wt, e in zip(grid.weights, grid.elements):
        assert np.abs(e - (v * wt) @ v.conj().T).max() < 1e-15
    assert np.abs(own_region_weights(grid, regions)
                  - own_region_weights(closed, regions)).max() < 2e-3


def test_coverage_error_for_skimpy_grid():
    sp = FockSpace(3)
    det = DetectorSpec("heterodyne", 1.0)
    spec = TwoModeNormalAmp(number_op(sp), 1.0)
    pts = np.array([0.0 + 0j, 1.0, 2.0])
    grid = effective_povm_numeric(spec, det, pts)
    grid.measure = 1.0
    regions = DecisionRegions.from_decomposition(normal_decompose(number_op(sp)))
    with pytest.raises(CoverageError):
        coarse_grain(grid, regions)


def test_coverage_error_for_narrow_imaginary_extent():
    # the real axis covers the regions; |Im| <= 0.25 is half a width, so the
    # cells hold only ~half of each element's mass
    sp = FockSpace(3)
    det = DetectorSpec("heterodyne", 1.0)
    spec = TwoModeNormalAmp(number_op(sp), 2.0)
    step = 0.0625
    axis_re = np.arange(-3.0, 5.0, step) + step / 2
    axis_im = np.arange(-0.25, 0.25, step) + step / 2
    gr, gi = np.meshgrid(axis_re, axis_im, indexing="ij")
    grid = effective_povm_numeric(spec, det, (gr + 1j * gi).ravel())
    grid.measure = step * step
    assert math.sqrt(grid.width2) == pytest.approx(0.5)
    regions = DecisionRegions.from_decomposition(normal_decompose(number_op(sp)))
    with pytest.raises(CoverageError, match="imag"):
        coarse_grain(grid, regions)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_outcome(state, detector, seed):
    """Single heterodyne outcome."""
    return complex(sample_outcomes(state, detector, 1, seed)[0])


@pytest.mark.parametrize("kind", ["coherent", "fock"])
def test_heterodyne_grid_memory_is_bounded(kind, monkeypatch):
    # traced peak of the two heterodyne routes at dim 64, 1 and 4 workers:
    # a coherent input is one Gaussian, Fock 1 takes the rejection sampler,
    # whose proposals and acceptance table are built in chunks
    sp = FockSpace(64)
    st = coherent_state(sp, 1.0) if kind == "coherent" else fock_state(sp, 1)
    for workers in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        blocks, peak = traced_peak(lambda: list(measurement.detector_blocks(
            st, DetectorSpec("heterodyne", 1.0), 1_000_000, 0,
            transform=lambda x, out: np.square(np.abs(x, out=out), out=out))))
        means = [shift + sums[1] / sums[0] for shift, sums in blocks]
        assert abs(np.mean(means) - 2.0) < 0.01  # E|beta|^2 = 2, se 0.0014
        assert peak < 64 * 2 ** 20


def test_sample_outcomes_holds_its_output_once(monkeypatch):
    # each block is copied into the output as it arrives: past the output,
    # the traced peak is the blocks in flight (workers + 1 pending, the one
    # being copied, the one copied last) and the chunk temporaries; joining
    # a list of every block held the output twice (31.8 MiB at 1e6 outcomes)
    st = coherent_state(FockSpace(64), 1.0 + 0.5j)
    block = BLOCK * np.dtype(complex).itemsize
    for workers in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        out, peak = traced_peak(lambda: sample_outcomes(
            st, DetectorSpec("heterodyne", 0.8), 1_000_000, 3))
        assert abs(np.mean(out) - (1.0 + 0.5j)) < 0.01  # se 0.0008 per axis
        assert peak < out.nbytes + (workers + 4) * block, peak / 2 ** 20


def test_husimi_values_match_overlap_matrix():
    # the dense oracle against one coherent ket per beta
    rng = np.random.default_rng(3)
    betas = 3.0 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    sp = FockSpace(64)
    c = coherent_amplitudes(64, betas)  # <n|beta>
    ket = coherent_state(sp, 1.0 + 0.5j)
    want = np.abs(c.conj().T @ ket.data) ** 2 / math.pi
    assert np.abs(husimi_values(ket, betas) - want).max() < 1e-15
    # full rank and rank 3 densities, and a pure density as its ket
    x = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    for a in (x, x[:, :3]):
        rho = a @ a.conj().T
        st = State(sp, "density", rho / np.trace(rho).real)
        want = np.real(np.einsum("mg,mn,ng->g", c.conj(), st.data, c)) / math.pi
        assert np.abs(husimi_values(st, betas) - want).max() < 1e-15
    assert np.abs(husimi_values(ket.to_density(), betas)
                  - husimi_values(ket, betas)).max() < 1e-15


def _random_state(rank, seed):
    # a random ket (rank 1) or rank-r density on 15 of 16 levels
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(16, rank)) + 1j * rng.normal(size=(16, rank))
    a[-1] = 0.0
    if rank == 1:
        return State(FockSpace(16), "ket", a[:, 0] / np.linalg.norm(a))
    rho = a @ a.conj().T
    return State(FockSpace(16), "density", rho / np.trace(rho).real)


@pytest.mark.parametrize("rank", [1, 3])
def test_rejection_envelope_bounds_husimi_density(rank):
    # the envelope sum_n W_n |<n|beta>|^2, W_n = sum_k p_k S_k |c_kn|, bounds
    # pi Q(beta); the sampler accepts with their ratio, once per M = sum_k
    # p_k S_k^2 proposals on average
    st = _random_state(rank, 5)
    if st.kind == "ket":
        p, v = np.ones(1), st.data[:, None]
    else:
        p, v = np.linalg.eigh(st.data)
        p, v = p[p > 1e-32], v[:, p > 1e-32]
    s_k = np.abs(v).sum(axis=0)
    w = np.abs(v) @ (p * s_k)
    levels, prob, acceptance = measurement._husimi_proposal(st)
    assert np.array_equal(levels, np.arange(15))
    assert np.allclose(prob, w[:15] / w.sum(), rtol=1e-13, atol=0)

    rng = np.random.default_rng(rank)
    betas = 3.0 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
    s = np.abs(betas) ** 2
    n_beta = np.exp(np.multiply.outer(np.arange(16), np.log(s)) - s
                    - log_factorials(16)[:, None])  # |<n|beta>|^2
    target = math.pi * husimi_values(st, betas)
    envelope = w @ n_beta
    assert (target <= envelope * (1 + 1e-12)).all()
    assert np.allclose(acceptance(s, betas / np.abs(betas)), target / envelope,
                       rtol=1e-10, atol=1e-15)

    k = 200_000
    s = rng.standard_gamma(rng.choice(levels, k, p=prob) + 1.0)
    accepted = rng.random(k) < acceptance(s, np.exp(2j * math.pi * rng.random(k)))
    rate, se = accepted.mean(), accepted.std() / math.sqrt(k)
    assert abs(rate - 1.0 / float(p @ s_k ** 2)) < 5 * se


def test_heterodyne_draws_reach_high_levels():
    # |<n|beta>| is scaled by its largest value over the levels, so nothing
    # underflows near |beta|^2 = 1400: E|beta|^2 = <n> + 1
    det = DetectorSpec("heterodyne", 1.0)
    sp = FockSpace(1402)
    pair = np.zeros(1402, complex)
    pair[[1390, 1400]] = math.sqrt(0.5)
    for st, want in ((fock_state(sp, 1400), 1401.0),
                     (State(sp, "ket", pair), 1396.0)):
        out = sample_outcomes(st, det, 1000, 0)
        assert np.isfinite(out).all()
        a2 = np.abs(out) ** 2
        assert abs(a2.mean() - want) < 5 * a2.std() / math.sqrt(out.size)
    # a coherent input is one Gaussian, at any amplitude
    out = sample_outcomes(coherent_state(FockSpace(3000), 38.0), det, 1000, 0)
    assert abs(np.mean(out) - 38.0) < 0.1  # se 0.022 per axis


@pytest.mark.parametrize("kind", ["coherent", "fock"])
def test_heterodyne_sampler_moments(kind):
    # coherent(1) is one Gaussian, Fock 1 takes the rejection sampler; both
    # have E|beta|^2 = 2, and E Re beta is 1 and 0
    sp = FockSpace(16)
    st = coherent_state(sp, 1.0) if kind == "coherent" else fock_state(sp, 1)
    mean = 1.0 if kind == "coherent" else 0.0
    out = sample_outcomes(st, DetectorSpec("heterodyne", 1.0), 100000, 42)
    se_mean = np.std(out.real) / math.sqrt(out.size)
    assert abs(np.mean(out.real) - mean) < 3 * se_mean
    a2 = np.abs(out) ** 2
    se2 = np.std(a2) / math.sqrt(out.size)
    assert abs(np.mean(a2) - 2.0) < 3 * se2


def test_sampler_determinism():
    sp = FockSpace(10)
    st = coherent_state(sp, 0.5)
    d = DetectorSpec("heterodyne", 0.8)
    a = sample_outcomes(st, d, 512, 7)
    b = sample_outcomes(st, d, 512, 7)
    assert np.array_equal(a, b)
    assert sample_outcome(st, d, 7) == sample_outcome(st, d, 7)
    assert not np.array_equal(a, sample_outcomes(st, d, 512, 8))


@pytest.mark.parametrize("kind", ["coherent", "fock"])
def test_heterodyne_marginal_total_variation(kind):
    # coherent(0.7) is one Gaussian, Fock 1 takes the rejection sampler
    sp = FockSpace(12)
    st = coherent_state(sp, 0.7) if kind == "coherent" else fock_state(sp, 1)
    det = DetectorSpec("heterodyne", 1.0)
    out = sample_outcomes(st, det, 100000, 4)
    # analytic marginal of the Husimi density along the real axis, bin masses
    # accumulated at fine resolution
    axis = np.arange(-6.0, 6.0, 0.025) + 0.0125
    gr, gi = np.meshgrid(axis, axis, indexing="ij")
    q = husimi_values(st, (gr + 1j * gi).ravel()).reshape(gr.shape)
    marg = q.sum(axis=1) * 0.025
    bins = np.arange(-6.0, 6.0 + 1e-9, 0.5)
    hist, _ = np.histogram(out.real, bins=bins)
    emp = hist / out.size
    dens = np.add.reduceat(marg * 0.025, np.arange(0, axis.size, 20))
    tv = 0.5 * np.abs(emp - dens).sum()
    assert tv < 0.01


# ---------------------------------------------------------------------------
# closed-form weight table
# ---------------------------------------------------------------------------

def test_closed_form_weight_table():
    sp = FockSpace(3)
    dec = normal_decompose(number_op(sp))
    povm = effective_povm_closed_form(dec, 2.0, 0.0, "heterodyne")
    table = povm.weights(np.array([0.0 + 0j, 1.0 + 0j]))
    assert table.shape == (2, 3)
    # weight at the eigenvalue center equals the peak density 1/(pi w^2)
    peak = table[0, np.argmin(np.abs(dec.eigenvalues - 0.0))]
    assert abs(peak - 1.0 / (math.pi * povm.width2)) < 1e-12


# ---------------------------------------------------------------------------
# degenerate clusters, meter-dependent widths, complex spectra
# ---------------------------------------------------------------------------

def test_parity_signal_merges_into_two_regions():
    # parity on 6 levels: eigenvalues +-1, threefold degenerate each; the
    # clusters become the two decision regions and each loses a single
    # Gaussian tail Q(4) at g = 4, sigma^2 = 1
    from scipy.special import erfc
    from fockamp import parity_op
    sp = FockSpace(6)
    dec = normal_decompose(parity_op(sp))
    regions = DecisionRegions.from_decomposition(dec)
    assert regions.n_regions == 2
    assert sorted(len(m) for m in regions.members) == [3, 3]
    povm = effective_povm_closed_form(dec, 4.0, 1.0, "heterodyne")
    w = own_region_weights(povm, regions)
    # boundary at distance 1 from each center: per-side loss (1/2)erfc(g/sqrt(sigma^2+1))
    tail = 0.5 * erfc(4.0 / math.sqrt(2.0))
    assert np.abs(w - (1.0 - tail)).max() < 1e-12
    total = sum(op.matrix for op in coarse_grain(povm, regions))
    assert np.abs(total - np.eye(6)).max() < 1e-12


def test_homodyne_oracle_with_gaussian_meters():
    # the closed-form width follows the meter wavefunction variance eps^2
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    det = DetectorSpec("homodyne", 0.8)
    for eps in (0.8, 1.25):
        closed = effective_povm_closed_form(dec, 1.5, det.sigma2, "homodyne",
                                            epsilon=eps)
        w = math.sqrt(closed.width2)
        pts = np.concatenate([k + w * np.linspace(-5, 5, 9) for k in range(4)])
        spec = VonNeumannAmp(f, 1.5, Meter("gaussian", epsilon=eps))
        grid = effective_povm_numeric(spec, det, pts, dims=(64,))
        dev = max(float(np.abs(e - closed.element(o)).max())
                  for o, e in zip(pts, grid.elements))
        assert dev < 1e-5


def test_three_mode_oracle_with_complex_spectrum():
    # a genuinely complex normal signal displaces both meters
    sp = FockSpace(4)
    f = Operator(sp, number_op(sp).matrix + 0.4j * np.eye(4))
    dec = normal_decompose(f)
    det = DetectorSpec("homodyne", 0.2)
    g, r = 0.5, 0.4
    eps = math.exp(-r)
    spec = ThreeModeAmp(f, g, Meter("gaussian", epsilon=eps),
                        Meter("gaussian", epsilon=eps))
    closed = effective_povm_closed_form(dec, g, det.sigma2, "three_mode", eps)
    w = math.sqrt(closed.width2)
    pts = np.array([lam + w * (u + 0.4j) for lam in dec.eigenvalues
                    for u in np.linspace(-4, 4, 5)])
    grid = effective_povm_numeric(spec, det, pts, dims=(28, 28))
    dev = max(float(np.abs(e - closed.element(o)).max())
              for o, e in zip(pts, grid.elements))
    assert dev < 1e-5


def _dense_three_mode_sandwich(spec, det, outcomes, dims):
    """Oracle: <meters| W^dag (M_b (x) M_c) W |meters> with the dense W."""
    g = spec.g
    da, (db, dc) = spec.f.space.dim, dims
    w = three_mode_unitary(spec.f, g / math.sqrt(2.0), (da, db, dc)).matrix
    mk = np.kron(spec.meter_b.state(db).data, spec.meter_c.state(dc).data)
    block = db * dc
    psi = np.stack([w[:, j * block:(j + 1) * block] @ mk for j in range(da)],
                   axis=-1).reshape(da, db, dc, da)
    els = []
    for phi in outcomes:
        mb = homodyne_element(g * phi.real, det.sigma2, FockSpace(db)).matrix
        mc = homodyne_element(g * phi.imag, det.sigma2, FockSpace(dc)).matrix
        els.append(g * g * np.einsum("amci,mn,cd,andj->ij", psi.conj(), mb, mc,
                                     psi, optimize=True))
    return els


@pytest.mark.parametrize("shift, dims, r, eta", [
    (0.0, (20, 20), 0.5, 0.2),
    (0.4, (28, 28), 0.4, 0.2),
    (0.4, (20, 20), 0.4, 1.0),
])
def test_three_mode_spectral_sandwich_matches_dense_oracle(monkeypatch, shift,
                                                           dims, r, eta):
    # the displaced-row read of the tests' reference on the oracle's
    # truncated-exponential rows, which are the columns of the dense W: the
    # test isolates the read of displaced rows
    monkeypatch.setattr(amplifiers, "displaced_meter_ket",
                        lambda meter, dim, alphas: oracles.displaced_meter_ket_expm(
                            meter.state(dim), alphas))
    sp = FockSpace(4)
    f = Operator(sp, number_op(sp).matrix + 1j * shift * np.eye(4))
    eps = math.exp(-r)
    spec = ThreeModeAmp(f, 0.5, Meter("gaussian", epsilon=eps),
                        Meter("gaussian", epsilon=eps))
    det = DetectorSpec("homodyne", eta)
    pts = np.array([lam + 0.8 * (u + 0.4j)
                    for lam in normal_decompose(f).eigenvalues
                    for u in np.linspace(-3, 3, 4)])
    grid = displaced_row_povm(spec, det, pts, dims=dims)
    dense = _dense_three_mode_sandwich(spec, det, pts, dims)
    assert max(float(np.abs(a - b).max())
               for a, b in zip(grid.elements, dense)) < 1e-12


def test_numeric_povm_rejects_truncated_meters():
    sp = FockSpace(4)
    det = DetectorSpec("homodyne", 0.5)
    # the prepared meter loses its norm above the cutoff
    spec = VonNeumannAmp(number_op(sp), 1.0, Meter("squeezed", r=2.0))
    with pytest.raises(TruncationError, match="drops"):
        effective_povm_numeric(spec, det, np.array([0.0]), dims=(24,))
    # the vacuum meter fits at rest but its displaced copies at g 3 reach
    # the cutoff; the povm reads it at rest, so at 24 levels it matches
    # the closed form
    with pytest.raises(TruncationError, match="cutoff"):
        displaced_meter_ket(Meter(), 24, 3.0 / math.sqrt(2.0) * np.arange(4.0))
    spec = VonNeumannAmp(number_op(sp), 3.0)
    closed = effective_povm_closed_form(spec.dec, 3.0, det.sigma2, "homodyne")
    pts = np.linspace(-1.0, 4.0, 41)
    grid = effective_povm_numeric(spec, det, pts, dims=(24,))
    assert grid.max_deviation(closed) <= 1e-12 * np.abs(closed.weights(pts)).max()


def test_povm_meter_dims_keep_fitting_meters():
    # the homodyne read takes each meter at rest, 75 levels at every g,
    # where its rows displaced by the drive g/sqrt(2) take 80, 95 and 119
    # levels at g 1, 2 and 3 (and the (g f_max + 6)^2 rule took 81, 144 and
    # 225)
    sp = FockSpace(4)
    f = number_op(sp)
    meter = Meter("squeezed", r=0.5)
    for g, d in ((1.0, 80), (2.0, 95), (3.0, 119)):
        assert povm_meter_dims(TwoModeNormalAmp(f, g)) == ()  # reads no meter
        assert povm_meter_dims(VonNeumannAmp(f, g, meter)) == (75,)
        assert displaced_meter_ket(meter, None, g / math.sqrt(2.0) * np.arange(4.0)
                                   ).shape[1] == d
    assert displaced_meter_ket(meter, None, [0.0]).shape[1] == 75
    # squeezed meters (r = 2) hold their own levels: both are read at the
    # size their squeezed vacuum needs alone, which the b meter's rows
    # displaced by the real f pass
    spec = ThreeModeAmp(f, 0.5, Meter("gaussian", epsilon=math.exp(-2.0)),
                        Meter("gaussian", epsilon=math.exp(-2.0)))
    db, dc = povm_meter_dims(spec)
    assert db == dc == displaced_meter_ket(spec.meter_c, None, [0.0]).shape[1]
    assert displaced_meter_ket(spec.meter_b, None, 0.5 / math.sqrt(2.0)
                               * spec.dec.eigenvalues.real).shape[1] > db


def test_sampler_rejects_cutoff_heavy_state():
    from fockamp import TruncationError
    sp = FockSpace(6)
    st = fock_state(sp, 5)  # all mass on the cutoff level
    with pytest.raises(TruncationError, match="cutoff"):
        sample_outcomes(st, DetectorSpec("heterodyne", 1.0), 10, 0)


def test_sampler_takes_zero_outcomes_and_refuses_negative():
    st = coherent_state(FockSpace(8), 0.5)
    det = DetectorSpec("heterodyne", 0.9)
    out = sample_outcomes(st, det, 0, 1)
    assert out.shape == (0,) and out.dtype == complex
    for n in (-1, -BLOCK):
        with pytest.raises(ValueError, match=f"n = {n}"):
            sample_outcomes(st, det, n, 1)


def test_sampler_refuses_homodyne_and_two_modes():
    # no caller draws homodyne outcomes of a state; one mode at a time
    sp = FockSpace(4)
    with pytest.raises(ValueError, match="heterodyne"):
        sample_outcomes(vacuum_state(sp), DetectorSpec("homodyne", 1.0), 10, 0)
    with pytest.raises(DimensionMismatch):
        sample_outcomes(tensor(vacuum_state(sp), vacuum_state(sp)),
                        DetectorSpec("heterodyne", 1.0), 10, 0)


def test_detector_variant_mismatch_rejected():
    sp = FockSpace(4)
    with pytest.raises(ValueError):
        effective_povm_numeric(TwoModeNormalAmp(number_op(sp), 1.0),
                               DetectorSpec("homodyne", 1.0), np.array([0.0]))
    with pytest.raises(ValueError):
        effective_povm_numeric(VonNeumannAmp(number_op(sp), 1.0),
                               DetectorSpec("heterodyne", 1.0), np.array([0.0]))


def test_meter_spec_validation():
    with pytest.raises(ValueError):
        Meter("thermal")
    with pytest.raises(ValueError):
        Meter("gaussian", epsilon=0.0)


@pytest.mark.parametrize("cls, meter, kind", [
    (VonNeumannAmp, Meter("squeezed", r=0.5), "homodyne"),
    (TwoModeNormalAmp, Meter(), "heterodyne"),
])
def test_numeric_povm_measures_f_ideally_at_large_gain(cls, meter, kind):
    # the paper's large-gain claim by direct evolution: read by a noisy
    # linear detector (eta 0.5), the numeric effective POVM of a^dag a at
    # signal 2 puts each eigenvector's record in its own decision region
    # with a weight that never falls as g grows and is ideal from g 16 on. The
    # closed form, summed over the same grid, gives the same weights
    from fockamp.cli import _povm_grid
    f = number_op(FockSpace(2))
    dec = normal_decompose(f)
    regions = DecisionRegions.from_decomposition(dec)
    det = DetectorSpec(kind, 0.5)
    own = []
    for g in (2.0, 4.0, 8.0, 16.0, 32.0):
        spec = cls(f, g, meter)
        model, epsilon = measurement.povm_model(spec)
        closed = effective_povm_closed_form(dec, g, det.sigma2, model, epsilon)
        outcomes, cell = _povm_grid(dec.eigenvalues, math.sqrt(closed.width2), 6.0,
                                    4, complex_grid=model != "homodyne")
        grid = effective_povm_numeric(spec, det, outcomes)
        grid.measure = cell
        same_grid = measurement.PovmGrid(outcomes, dec, closed.weights(outcomes),
                                         model, closed.width2, cell)
        weights = own_region_weights(grid, regions)
        assert np.abs(weights - own_region_weights(same_grid, regions)).max() <= 1e-9
        own.append(weights)
    assert all((later >= earlier - 1e-12).all() for earlier, later in zip(own, own[1:]))
    assert own[-1].min() > 0.9999
