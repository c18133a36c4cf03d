"""Property tests of the meter table: random normal signal operators.

Each example draws a normal f on 4 levels with a random eigenbasis on the
lowest 3 levels and a random (complex, or real for the von Neumann coupling)
spectrum in [-1, 1]^2; the cutoff level is its own eigenvector, so inputs on
the lowest 3 levels never reach it. The simulated output is checked against
the dense composite unitary, and the numeric heterodyne POVM of the same f
against its closed form. The numeric POVMs of all three readouts on the
drawn eigenbasis (heterodyne, homodyne on the Hermitian part of f, two-meter
homodyne) are checked against their closed forms too, and their weight-table
identity residuals against the dense sum of their elements, and their
weight-table deviations bound the dense ones; that test draws
only the spectrum, eigenbasis, gain and meter it reads, on a 0.001 grid.
Numeric POVMs on grids that cover the outcomes resolve the identity. The
batched displacement kernel undoes itself: D(-alpha) D(alpha)|meter> is the
meter, and every row has unit norm. The auto-sized meter rows (squeezing
r in [-2, 2], displacements up to 48) leave at most the tail tolerance past
their size, measured on rows rebuilt at twice it, and the size is within a
few levels of where that measured tail first drops below it. The
estimator statistics are checked on random samples against NumPy's mean
and variance (bit for bit) and a two-pass fourth-moment reference, and
their block merge against one-buffer two-pass moments.
The mode-moment reader is checked on random kets and densities of 2-3 mode
composites against dense embedded operators, cutoff level included, and
predicted output moments against simulated ones for squeezed, Gaussian and
vacuum meters on mixed inputs.
:func:`normal_decompose` is checked against ``scipy.linalg.schur`` on random
normal operators whose spectra hold equal, nearly equal (1e-7 apart) and
repeated real parts; on drawn diagonal operators (one to three modes, with
exact ties and real parts within and beyond 1e-8 * scale) it runs no
eigensolver and gives the dense path's eigenvalues and cluster projectors.
On drawn spectra whose eigenvalues lie within 1e-8 or at least 1e-6 of
each other, the eigenspaces both paths mark are the old greedy clusters.
The ket path of ``variance`` (one product O psi) is checked against the
dense <O O> - <O>^2 on random Hermitian O and random kets.
The three-mode column builder is checked against the
kept columns of ``scipy.linalg.expm`` of the full generator on small random
dims, keeps, gains and normal f. Hermite functions (n <= 3000, |x| <= 60),
the test suite's log-form coherent amplitudes (p < 4096, |gamma| <= 60) and the Yuen
amplitudes <n|D(alpha) S(r e^{i theta})|0> of every Gaussian Fock row
(|alpha| <= 48, r in [-2, 2]) are checked against ``mpmath`` at 40 digits.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm, schur

from fockamp import (DetectorSpec, FockSpace, Meter, Operator, State,
                     ThreeModeAmp, TwoModeNormalAmp, VACUUM, VonNeumannAmp,
                     annihilation_op, effective_povm_closed_form,
                     effective_povm_numeric, normal_decompose,
                     predict_output_moments, quadrature_ops, real_imag_parts,
                     simulate_output_state, simulated_output_moments, tensor,
                     variance)
from fockamp.amplifiers import (METER_DIM_CAP, METER_TAIL, R_MAX, TRUNCATION_TOL,
                                _mode_quad_moments, displaced_meter_ket)
from fockamp.errors import TruncationError
from fockamp.estimators import _Moments
from fockamp.fock import hermite_functions, yuen_levels
from fockamp.oracles import (displaced_meter_ket_expm, embed,
                             three_mode_columns, three_mode_unitary,
                             two_mode_unitary, von_neumann_unitary)
from support import coherent_amplitudes, dense_rounding, heterodyne_expectations

METER_DIM = 20
unit = st.floats(-1.0, 1.0)
# one value per choice: floats draw 0.0 and -0.0 as two choices of one f
grid_unit = st.integers(-1000, 1000).map(lambda k: k / 1000)


def _complex(parts):
    return np.array(parts[0::2]) + 1j * np.array(parts[1::2])


@st.composite
def cases(draw):
    variant = draw(st.sampled_from(["two_mode", "von_neumann", "three_mode"]))
    q, _ = np.linalg.qr(_complex(draw(st.lists(unit, min_size=18, max_size=18)))
                        .reshape(3, 3))
    v = np.eye(4, dtype=complex)
    v[:3, :3] = q
    lam = _complex(draw(st.lists(unit, min_size=8, max_size=8)))
    if variant == "von_neumann":
        lam = lam.real
    f = (v * lam) @ v.conj().T
    if variant == "von_neumann":
        f = (f + f.conj().T) / 2
    psi = np.zeros(4, dtype=complex)
    psi[:3] = _complex(draw(st.lists(unit, min_size=6, max_size=6)))
    if np.linalg.norm(psi) < 0.1:
        psi[0] = 1.0
    g = draw(st.floats(0.3, 1.0))
    meters = draw(st.lists(st.sampled_from([VACUUM, Meter("squeezed", r=0.3)]),
                           min_size=2, max_size=2))
    return variant, Operator(FockSpace(4), f), g, meters, psi / np.linalg.norm(psi)


@st.composite
def povm_cases(draw):
    """Only what the weight-table test reads: f on the drawn eigenbasis with a
    complex spectrum, g and one meter.

    The spectrum is drawn first: on a zero spectrum every eigenbasis gives
    the same f, and the early, simple draws would repeat it.
    """
    lam = _complex(draw(st.lists(grid_unit, min_size=8, max_size=8)))
    q, _ = np.linalg.qr(_complex(draw(st.lists(grid_unit, min_size=18,
                                               max_size=18))).reshape(3, 3))
    v = np.eye(4, dtype=complex)
    v[:3, :3] = q
    g = draw(st.floats(0.3, 1.0))
    meter = draw(st.sampled_from([VACUUM, Meter("squeezed", r=0.3)]))
    return Operator(FockSpace(4), (v * lam) @ v.conj().T), g, meter


@settings(max_examples=12, derandomize=True, deadline=None)
@given(cases())
def test_meter_table_matches_dense_oracle_and_closed_form(case):
    variant, f, g, meters, psi = case
    st_in = State(f.space, "ket", psi)
    # the oracles warn below their own (g max|f| + 6)^2 guard; at these dims
    # the displaced meters stay clear of the cutoff, which the spectral route
    # checks. The two-mode coupling shifts its meter along p, which an r 0.3
    # meter anti-squeezes: a shift of 1.41 leaves 1.3e-6 past 20 levels and
    # 1e-13 past 40, so the single-meter variants run at 40. The three-mode
    # meters shift along their squeezed x
    d = METER_DIM if variant == "three_mode" else 2 * METER_DIM
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if variant == "three_mode":
            spec = ThreeModeAmp(f, g, *meters)
            u = three_mode_unitary(f, g, (4, d, d))
            dims = (d, d)
        else:
            cls, unitary = ((TwoModeNormalAmp, two_mode_unitary)
                            if variant == "two_mode"
                            else (VonNeumannAmp, von_neumann_unitary))
            spec = cls(f, g, meters[0])
            u = unitary(f, g, (4, d))
            dims = (d,)
    meter_states = [m.state(dim) for m, dim in zip(meters, dims)]
    dense = u.matrix @ tensor(st_in, *meter_states).data
    spectral = simulate_output_state(spec, st_in, dims=dims)
    assert abs(abs(np.vdot(dense, spectral.data)) - 1.0) < 1e-10

    # the numeric heterodyne POVM of the same f, vacuum meter, auto-sized
    det = DetectorSpec("heterodyne", 0.5)
    dec = normal_decompose(f)
    pts = np.concatenate([dec.eigenvalues, dec.eigenvalues + 0.4 - 0.3j])
    grid = effective_povm_numeric(TwoModeNormalAmp(f, g), det, pts)
    closed = effective_povm_closed_form(dec, g, det.sigma2, "heterodyne")
    assert max(float(np.abs(e - closed.element(o)).max())
               for o, e in zip(pts, grid.elements)) < 1e-6


@settings(max_examples=12, derandomize=True, deadline=None)
@given(povm_cases())
def test_numeric_povm_weight_table_matches_closed_form(case):
    # every readout on the drawn eigenbasis: heterodyne with a vacuum meter,
    # homodyne on the Hermitian part of f (real spectrum, same eigenbasis),
    # and two equal homodyne meters on the complex spectrum of f
    f, g, meter = case
    hermitian = Operator(f.space, (f.matrix + f.matrix.conj().T) / 2)
    readouts = [(TwoModeNormalAmp(f, g), "heterodyne"),
                (VonNeumannAmp(hermitian, g, meter), "homodyne"),
                (ThreeModeAmp(f, g, meter, meter), "three_mode")]
    for spec, model in readouts:
        det = DetectorSpec("heterodyne" if model == "heterodyne" else "homodyne",
                           0.5)
        dec = normal_decompose(spec.f)
        closed = effective_povm_closed_form(dec, g, det.sigma2, model,
                                            np.sqrt(2.0 * meter.x_variance()))
        shift = np.sqrt(closed.width2) * (0.7 - 0.5j)
        lam = dec.eigenvalues
        pts = np.concatenate([lam, lam + shift, lam - 2 * shift])
        grid = effective_povm_numeric(spec, det, pts)
        elements = grid.elements
        assert grid.weights.shape == (pts.size, 4)
        dense = max(float(np.abs(e - closed.element(o)).max())
                    for o, e in zip(pts, elements))
        assert dense < 1e-11
        # the weight-table deviation bounds the dense one in a unitary basis,
        # up to the roundoff of forming the dense elements: relative in V's
        # unitarity, absolute in the rounding of each entry
        assert grid.max_deviation(closed) >= \
            dense * (1.0 - 1e-12) - dense_rounding(grid, closed)

        # the weight-table identity residual against the dense element sum,
        # on a basis that is not the identity
        grid.measure = 0.05
        dense = float(np.abs(sum(elements) * grid.measure - np.eye(4)).max())
        assert abs(grid.identity_residual() - dense) < 1e-12


def _centred(x):
    # one block as its sums about its own mean: (mean, [n, 0, M2, M3, M4])
    mean = float(np.mean(x))
    d = x - mean
    return mean, [x.size, 0.0] + [float(np.sum(d ** k)) for k in (2, 3, 4)]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=500))
def test_sample_stats_match_numpy_and_two_pass_reference(values):
    x = np.array(values)
    n = x.size
    mean, var, se_mean, se_var = _Moments().merge(*_centred(x)).stats()
    assert mean == float(np.mean(x))
    assert var == float(np.var(x, ddof=1))
    assert se_mean == np.sqrt(var / n)
    m4 = float(np.mean((x - np.mean(x)) ** 4))
    ref = np.sqrt(max(m4 - (n - 3) / (n - 1) * var * var, 0.0) / n)
    assert np.isclose(se_var, ref, rtol=1e-12, atol=0.0)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=400),
       st.lists(st.integers(1, 64), min_size=1, max_size=40))
def test_merged_moments_match_one_buffer_two_pass(values, sizes):
    # blocks cut at random sizes, and blocks of size 1, each as its power
    # sums about its first value (a shift other than its mean, as the
    # sampler's blocks come), merge to the moments of the whole sample
    x = np.array(values)
    n = x.size
    mean = x.sum() / n
    d = x - mean
    m2, m3, m4 = (float(np.sum(d ** k)) for k in (2, 3, 4))
    scale = max(float(np.abs(x).max()), 1e-300)
    cuts = np.cumsum(sizes)
    for parts in (np.split(x, cuts[cuts < n]), np.split(x, np.arange(1, n))):
        acc = _Moments()
        for part in parts:
            acc.merge(part[0], [part.size] + [float(np.sum((part - part[0]) ** k))
                                              for k in (1, 2, 3, 4)])
        assert acc.sums[0] == n
        for got, ref, k in zip([acc.mean] + acc.sums[2:], (mean, m2, m3, m4),
                               (1, 2, 3, 4)):
            assert abs(got - ref) <= 1e-12 * n * scale ** k
        var = m2 / (n - 1)
        ref = np.sqrt(max(m4 / n - (n - 3) / (n - 1) * var * var, 0.0) / n)
        _, got_var, _, got_se = acc.stats()
        assert np.isclose(got_var, var, rtol=1e-12, atol=1e-12 * scale ** 2)
        assert np.isclose(got_se, ref, rtol=1e-12, atol=1e-12 * scale ** 2)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(povm_cases())
def test_numeric_povm_grid_covering_outcomes_resolves_identity(case):
    # a grid at half-width steps reaching 6 widths past the extreme
    # eigenvalues on every axis it covers: the Riemann sum of the Gaussian
    # records is then 1 up to e^-36 tails and e^-(2 pi)^2 aliasing
    f, g, meter = case
    hermitian = Operator(f.space, (f.matrix + f.matrix.conj().T) / 2)
    readouts = [(TwoModeNormalAmp(f, g), "heterodyne"),
                (VonNeumannAmp(hermitian, g, meter), "homodyne"),
                (ThreeModeAmp(f, g, meter, meter), "three_mode")]
    for spec, model in readouts:
        det = DetectorSpec("heterodyne" if model == "heterodyne" else "homodyne",
                           0.5)
        dec = normal_decompose(spec.f)
        w = np.sqrt(effective_povm_closed_form(
            dec, g, det.sigma2, model,
            np.sqrt(2.0 * meter.x_variance())).width2)
        step = w / 2
        lam = dec.eigenvalues
        axes = [np.arange(part(lam).min() - 6 * w, part(lam).max() + 6 * w + step,
                          step) for part in (np.real, np.imag)]
        if model == "homodyne":
            pts, measure = axes[0], step
        else:
            pts, measure = (axes[0][:, None] + 1j * axes[1][None, :]).ravel(), step ** 2
        grid = effective_povm_numeric(spec, det, pts)
        grid.measure = measure
        assert grid.identity_residual() < 1e-11


@st.composite
def three_mode_cases(draw):
    """A normal f on da = 2..5 levels (complex spectrum on a 0.001 grid,
    drawn first, then a random eigenbasis), meter dims 4..10, any keep and
    g in [0, 1]."""
    dims = (draw(st.integers(2, 5)), draw(st.integers(4, 10)),
            draw(st.integers(4, 10)))
    da = dims[0]
    lam = _complex(draw(st.lists(grid_unit, min_size=2 * da, max_size=2 * da)))
    q, _ = np.linalg.qr(_complex(draw(st.lists(
        grid_unit, min_size=2 * da * da, max_size=2 * da * da))).reshape(da, da))
    keep = tuple(draw(st.integers(1, d)) for d in dims)
    g = draw(st.floats(0.0, 1.0))
    return Operator(FockSpace(da), (q * lam) @ q.conj().T), g, dims, keep


@settings(max_examples=12, derandomize=True, deadline=None)
@given(three_mode_cases())
def test_three_mode_columns_match_expm(case):
    f, g, dims, keep = case
    _, db, dc = dims
    fr, fi = real_imag_parts(f)
    pb = quadrature_ops(FockSpace(db))[1].matrix
    pc = quadrature_ops(FockSpace(dc))[1].matrix
    h = g * (np.kron(np.kron(fr.matrix, pb), np.eye(dc))
             + np.kron(np.kron(fi.matrix, np.eye(db)), pc))
    want = expm(-1j * h).reshape(dims + dims)
    want = want[..., :keep[0], :keep[1], :keep[2]]
    cols = three_mode_columns(f, g, dims, keep).reshape(dims + keep)
    assert cols.shape == dims + keep
    assert np.abs(cols - want).max() < 1e-12


@st.composite
def normal_operators(draw):
    """A normal f on 6..8 levels: random unitary eigenbasis, complex spectrum
    at magnitude 1 or 40. Eigenvalues 0 and 1 share their real part, 2 and 3
    have real parts 1e-7 apart, and 5 repeats 4."""
    d = draw(st.integers(6, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
    lam *= draw(st.sampled_from([1.0, 40.0]))
    lam[1] = lam[0].real + 1j * lam[1].imag
    lam[3] = lam[2].real + 1e-7 + 1j * lam[3].imag
    lam[5] = lam[4]
    return Operator(FockSpace(d), (q * lam) @ q.conj().T)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(normal_operators())
def test_normal_decompose_matches_schur(f):
    m = f.matrix
    d = m.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    dec = normal_decompose(f)
    v, lam = dec.eigenvectors, dec.eigenvalues
    assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-12
    assert np.abs((v * lam) @ v.conj().T - m).max() <= 1e-12 * scale
    assert dec.residual <= 1e-12 * scale

    # pinned order: ascending real part, ascending imaginary part inside a
    # run of real parts closer than 1e-8 * scale
    # (repeated eigenvalues tie up to roundoff)
    step = np.diff(lam)
    run = np.abs(step.real) < 1e-8 * scale
    assert (step.real[~run] > 0).all()
    assert (step.imag[run] > -1e-12 * scale).all()

    # the same eigenvalues and spectral projectors as the Schur form
    t, z = schur(m, output="complex")
    ref = np.diag(t)
    dist = np.abs(lam[:, None] - ref[None, :])
    assert dist.min(axis=1).max() <= 1e-12 * scale
    assert dist.min(axis=0).max() <= 1e-12 * scale
    for center in lam:
        ours = v[:, np.abs(lam - center) < 1e-6 * scale]
        theirs = z[:, np.abs(ref - center) < 1e-6 * scale]
        assert ours.shape == theirs.shape
        assert np.abs(ours @ ours.conj().T - theirs @ theirs.conj().T).max() <= 1e-9


@st.composite
def diagonal_operators(draw):
    """A diagonal complex f on one to three modes: each entry is one of three
    drawn centres (magnitude 1 or 40) shifted in its real part by 0 (an
    exact tie), 0.3 or -0.45 (a run) or 2.5 (beyond one) times 1e-8 * scale,
    and in its imaginary part by 0, 0.5 or -1 times that step."""
    dims = draw(st.sampled_from([(2,), (3,), (5,), (9,), (2, 3), (2, 2, 2)]))
    size = draw(st.sampled_from([1.0, 40.0]))
    centres = _complex(draw(st.lists(unit, min_size=6, max_size=6))) * size
    step = 1e-8 * max(1.0, float(np.abs(centres).max()))
    entries = [centres[draw(st.integers(0, 2))]
               + step * draw(st.sampled_from([0.0, 0.3, -0.45, 2.5]))
               + 1j * step * draw(st.sampled_from([0.0, 0.5, -1.0]))
               for _ in range(math.prod(dims))]
    return Operator(FockSpace(dims), np.diag(entries))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(diagonal_operators())
def test_diagonal_normal_decompose_matches_the_dense_path(f):
    # a diagonal f skips the eigensolver and still gives the dense path's
    # eigenvalues (in the pinned order) and spectral projectors
    from unittest import mock

    from fockamp.fock import _dense_decompose
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        dec = normal_decompose(f)
    assert eigh.call_count == 0
    dense = _dense_decompose(f)
    lam, ref = dec.eigenvalues, dense.eigenvalues
    scale = max(1.0, float(np.abs(f.matrix).max()))
    assert dec.residual == 0.0
    assert np.array_equal(np.sort(lam), np.sort(ref))
    # the pinned order: the runs of the sorted real parts (chains of gaps
    # below 1e-8 * scale) in turn, each by ascending imaginary part
    re = np.sort(lam.real)
    cuts = np.flatnonzero(np.diff(re) >= 1e-8 * scale) + 1
    for ours, run in zip(np.split(lam, cuts), np.split(re, cuts)):
        assert np.array_equal(np.sort(ours.real), run)
        assert (np.diff(ours.imag) >= 0).all()
    # within a run the order is pinned only where the imaginary parts differ
    assert np.abs(lam - ref).max() <= 1e-8 * scale * lam.size
    groups, dense_groups = dec.clusters(), dense.clusters()
    assert len(groups) == len(dense_groups)
    for ours, theirs in zip(groups, dense_groups):
        v, w = dec.eigenvectors[:, ours], dense.eigenvectors[:, theirs]
        assert np.array_equal(np.sort(lam[ours]), np.sort(ref[theirs]))
        assert np.abs(v @ v.conj().T - w @ w.conj().T).max() <= 1e-12


def _greedy_clusters(lam: np.ndarray) -> set:
    """The grouping clusters() made by a loop before the decomposition held
    its eigenspaces: in (real, imaginary) order, each eigenvalue joins the
    first group whose first member lies within 1e-8 of it."""
    groups, centres = [], []
    for i in np.lexsort((lam.imag, lam.real)):
        for group, centre in zip(groups, centres):
            if abs(lam[i] - centre) < 1e-8:
                group.append(int(i))
                break
        else:
            groups.append([int(i)])
            centres.append(lam[i])
    return {frozenset(g) for g in groups}


@st.composite
def clustered_spectra(draw):
    """(eigenvalues, seed) on 2-9 levels, |lam| <= 10: each eigenvalue is a
    cluster centre moved by 0, 2e-11, -3e-11 or 5e-9 per part, so one
    cluster holds values 2e-11 to 5.03e-9 apart per part, all within 1e-8;
    the centres' parts are k/2 + j 2e-6 (j = 0, 1, 2), so two clusters lie
    at least 1e-6 apart, and their imaginary parts are 0 (a Hermitian f) or
    drawn alike."""
    n = draw(st.integers(2, 9))
    part = st.tuples(st.integers(-12, 12), st.integers(0, 2)).map(
        lambda kj: kj[0] / 2 + kj[1] * 2e-6)
    hermitian = draw(st.booleans())
    centres = draw(st.lists(st.tuples(part, st.just(0.0) if hermitian else part),
                            min_size=1, max_size=n, unique=True))
    jitter = st.sampled_from([0.0, 2e-11, -3e-11, 5e-9])
    lam = [complex(*centres[draw(st.integers(0, len(centres) - 1))])
           + draw(jitter) + (0.0 if hermitian else 1j * draw(jitter))
           for _ in range(n)]
    return np.array(lam), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(clustered_spectra())
def test_clusters_are_the_greedy_groups_split_into_eigenspaces(spectrum):
    # on spectra whose eigenvalues are within 1e-8 or at least 1e-6 apart,
    # clusters() on the diagonal path and on the dense path of a unitarily
    # turned f gives the groups of the old greedy loop, and the eigenspaces
    # ``heads`` marks split them. On the diagonal path, and on the dense path
    # of a Hermitian f, an eigenspace is all the copies of one eigenvalue,
    # also where one cluster holds several values. The dense path of a
    # complex spectrum pins eigenvectors only up to runs closer than 1e-8 *
    # scale, so there the check needs clusters of one value each
    lam, seed = spectrum
    z = np.random.default_rng(seed).normal(size=(lam.size, lam.size, 2)) @ [1.0, 1j]
    u = np.linalg.qr(z)[0]
    sp, values = FockSpace(lam.size), np.unique(lam)
    apart = np.abs(np.subtract.outer(values, values))[np.triu_indices(values.size, 1)]
    for diagonal, f in ((True, Operator(sp, np.diag(lam))),
                        (False, Operator(sp, (u * lam) @ u.conj().T))):
        dec = normal_decompose(f)
        groups = dec.clusters()
        assert {frozenset(g.tolist()) for g in groups} == _greedy_clusters(dec.eigenvalues)
        heads = dec.heads
        assert heads[0] == 0 and (np.diff(heads) > 0).all()
        assert set(heads.tolist()) >= {int(g[0]) for g in groups}
        if diagonal or not lam.imag.any() or (apart > 1e-7).all():
            # each eigenvector's exact eigenvalue, told apart at 2e-11
            label = np.abs(dec.eigenvalues[:, None] - values).argmin(axis=1)
            assert all((s == s[0]).all() for s in np.split(label, heads[1:]))
            assert (label[heads[1:]] != label[heads[1:] - 1]).all()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 48), st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1))
def test_ket_variance_matches_dense_second_moment(dim, size, seed):
    # <O^2> = ||O psi||^2 and <O> = Re <psi|O psi> against psi^dag (O O) psi
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(dim, dim, 2)) @ [1.0, 1j]
    o = size * (h + h.conj().T) / 2
    psi = rng.normal(size=(dim, 2)) @ [1.0, 1j]
    psi /= np.linalg.norm(psi)
    dense = (psi.conj() @ (o @ o) @ psi).real - (psi.conj() @ o @ psi).real ** 2
    got = variance(State(FockSpace(dim), "ket", psi), Operator(FockSpace(dim), o))
    assert abs(got - dense) <= 1e-12 * max(1.0, np.linalg.norm(o, 2) ** 2)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(24, 64), st.floats(0.0, 0.5),
       st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                min_size=1, max_size=4))
def test_displaced_meter_ket_rows_invert(dim, r, parts):
    # the truncated exponentials of the oracle kernel are exact inverses of
    # each other
    meter = Meter("squeezed", r=r).state(dim)
    alphas = np.array([complex(a, b) for a, b in parts])
    rows = displaced_meter_ket_expm(meter, alphas)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
    for row, alpha in zip(rows, alphas):
        back = displaced_meter_ket_expm(State(meter.space, "ket", row), [-alpha])
        assert np.abs(back[0] - meter.data).max() <= 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(24, 200), st.floats(-1.5, 1.5),
       st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                min_size=1, max_size=4))
def test_displaced_meter_ket_rows_are_displaced_squeezed_states(dim, r, parts):
    # each row is the unit eigenvector of mu (a - alpha) + nu (a^dag - alpha*)
    # (mu, nu = cosh r, sinh r) below its cutoff level, c_0 has the phase of
    # e^{-tanh(r) alpha*^2/2}, and the alpha = 0 row is the meter ket itself.
    # Where a row leaves more than TRUNCATION_TOL past dim, the pass at dim
    # raises, and the auto-sized rows cut at dim are checked instead
    meter = Meter("squeezed", r=r)
    alphas = np.array([0.0] + [complex(a, b) for a, b in parts])
    rows = displaced_meter_ket(meter, None, alphas)
    if (np.abs(rows[:, dim:]) ** 2).sum(axis=1).max() > TRUNCATION_TOL:
        with pytest.raises(TruncationError, match="drops"):
            displaced_meter_ket(meter, dim, alphas)
        rows = rows[:, :dim] / np.linalg.norm(rows[:, :dim], axis=1, keepdims=True)
    else:
        rows = displaced_meter_ket(meter, dim, alphas)
        assert np.array_equal(rows[0], meter.state(dim).data)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
    mu, nu, up = math.cosh(r), math.sinh(r), np.sqrt(np.arange(1.0, dim))
    for row, alpha in zip(rows, alphas):
        a_row, ad_row = np.zeros(dim, complex), np.zeros(dim, complex)
        a_row[:-1], ad_row[1:] = up * row[1:], up * row[:-1]
        b_row = mu * (a_row - alpha * row) + nu * (ad_row - np.conj(alpha) * row)
        assert np.abs(b_row[:-1]).max() <= 1e-12
        if abs(row[0]) > 1e-150:
            phase = np.exp(-0.5j * math.tanh(r) * (np.conj(alpha) ** 2).imag)
            assert abs(row[0] / abs(row[0]) - phase) <= 1e-12


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.floats(-2.0, 2.0),
       st.lists(st.tuples(st.floats(0.0, 48.0), st.floats(0.0, 2 * math.pi)),
                min_size=1, max_size=3))
@example(1.0, [(48.0, math.pi / 2)])  # anti-squeezed: 3,900 levels
@example(2.0, [(48.0, math.pi / 2)])  # past the cap
def test_auto_meter_size_leaves_at_most_the_tail(r, polar):
    # the auto size d fits the cap, the rows rebuilt at 2d leave at most
    # METER_TAIL^2 of their mass past d, and d is within a few levels of the
    # first level where that measured tail drops below it; or the pass
    # raises, naming the cap
    meter = Meter("squeezed", r=r)
    alphas = np.array([0.0] + [m * np.exp(1j * a) for m, a in polar])
    try:
        d = displaced_meter_ket(meter, None, alphas).shape[1]
    except TruncationError as err:
        assert f"cap of {METER_DIM_CAP}" in str(err)
        return
    assert d <= METER_DIM_CAP
    mass = np.abs(displaced_meter_ket(meter, 2 * d, alphas)) ** 2
    past = np.cumsum(mass[:, ::-1], axis=1)[:, ::-1].max(axis=0)
    assert past[d] <= METER_TAIL ** 2
    assert d <= max(2, int(np.argmax(past <= METER_TAIL ** 2))) + 2


@st.composite
def composite_states(draw):
    """A ket or a rank 1-3 density on 2-3 modes of 2-6 levels, with weight
    on every level of every mode, the cutoffs included."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=3)))
    rank = draw(st.sampled_from([0, 1, 2, 3]))  # 0: a ket
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(np.prod(dims))
    vecs = (rng.uniform(0.5, 1.0, (max(rank, 1), n))
            * np.exp(2j * np.pi * rng.uniform(size=(max(rank, 1), n))))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    space = FockSpace(dims)
    if rank == 0:
        return State(space, "ket", vecs[0])
    w = rng.uniform(0.2, 1.0, rank)
    return State(space, "density", (vecs.T * (w / w.sum())) @ vecs.conj())


@settings(max_examples=12, derandomize=True, deadline=None)
@given(composite_states())
def test_mode_moments_match_embedded_operators(state):
    # three diagonals of each mode's reduced density against the dense
    # truncated products, whose a a^dag gives the cutoff level 0
    space = state.space
    for mode, d in enumerate(space.dims):
        a = annihilation_op(FockSpace(d)).matrix
        x, p = (q.matrix for q in quadrature_ops(FockSpace(d)))

        def ev(m):
            return state.expectation(embed(Operator(FockSpace(d), m), mode, space))

        mean_a, ex, ep = ev(a), ev(x).real, ev(p).real
        oracle = (mean_a,
                  0.5 * (ev(a @ a.conj().T) + ev(a.conj().T @ a)).real - abs(mean_a) ** 2,
                  ex, ep, ev(x @ x).real - ex ** 2, ev(p @ p).real - ep ** 2)
        got = _mode_quad_moments(state, mode)
        assert max(abs(u - v) for u, v in zip(got, oracle)) < 1e-12


@st.composite
def moment_cases(draw):
    """A nonlinear variant on a random normal f of 5 levels, one meter kind,
    a gain, and an input on the lowest 4 levels: a rank 1-3 density for the
    two-mode variants, a ket for the three-mode one (a density on its three
    auto-sized modes would not fit in memory)."""
    variant = draw(st.sampled_from(["two_mode", "von_neumann", "three_mode"]))
    meter = draw(st.sampled_from([Meter("squeezed", r=0.5),
                                  Meter("gaussian", epsilon=0.7), VACUUM]))
    g = draw(st.sampled_from([0.5, 1.0, 1.5]))
    q, _ = np.linalg.qr(_complex(draw(st.lists(unit, min_size=32, max_size=32)))
                        .reshape(4, 4))
    v = np.eye(5, dtype=complex)
    v[:4, :4] = q
    lam = _complex(draw(st.lists(unit, min_size=10, max_size=10)))
    if variant == "von_neumann":
        lam = lam.real
    f = Operator(FockSpace(5), (v * lam) @ v.conj().T)
    rank = 1 if variant == "three_mode" else draw(st.integers(1, 3))
    vecs = np.zeros((rank, 5), dtype=complex)
    for k in range(rank):
        vecs[k, :4] = _complex(draw(st.lists(unit, min_size=8, max_size=8)))
        vecs[k, k] += 2.0  # keeps the components clear of zero
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    if variant == "three_mode":
        return ThreeModeAmp(f, g, meter, meter), State(f.space, "ket", vecs[0])
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=rank, max_size=rank)))
    rho = (vecs.T * (w / w.sum())) @ vecs.conj()
    cls = TwoModeNormalAmp if variant == "two_mode" else VonNeumannAmp
    return cls(f, g, meter), State(f.space, "density", rho)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(moment_cases())
def test_predicted_vs_simulated_meters_and_mixed_inputs(case):
    spec, state = case
    pred = predict_output_moments(spec, state)
    sim = simulated_output_moments(spec, state)
    tol = max(1e-6, 10 * state.norm_defect)
    assert abs(pred.mean_out - sim.mean_out) < tol
    assert abs(pred.quad_means[0] - sim.quad_means[0]) < tol
    assert abs(pred.quad_means[1] - sim.quad_means[1]) < tol
    assert abs(pred.quad_noises[0] - sim.quad_noises[0]) < tol * 10
    assert abs(pred.quad_noises[1] - sim.quad_noises[1]) < tol * 10
    assert abs(pred.added_noise - sim.added_noise) < tol * 10


def _mp_hermite_function(n: int, x: float):
    """h_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), in mpmath."""
    x = mpmath.mpf(x)
    return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / mpmath.sqrt(
        mpmath.mpf(2) ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 3000), st.integers(-60000, 60000).map(lambda k: k / 1000))
@example(1000, 42.0)
@example(3000, -55.5)
@example(700, 37.7)
def test_hermite_functions_match_mpmath(n, x):
    # where the true h_n(x) is a normal float, the table is exact to 1e-12
    # of the local scale max(|h_{n-1}|, |h_n|, |h_{n+1}|): near a zero of
    # h_n no relative bound can hold, and the recurrence's roundoff follows
    # the neighbouring rows. Past |x| ~ 37.6, where h_0 underflows, the rows
    # come from the rescaled start (0 everywhere before it)
    with mpmath.workdps(40):
        true = [float(_mp_hermite_function(k, x)) if k >= 0 else 0.0
                for k in (n - 1, n, n + 1)]
    got = hermite_functions(n + 2, np.array([x]))[n, 0]
    if abs(true[1]) >= np.finfo(float).tiny:
        assert abs(got - true[1]) <= 1e-12 * max(map(abs, true))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 4095), st.floats(0.0, 60.0),
       st.floats(-math.pi, math.pi))
@example(4095, 60.0, 2.5)
@example(3600, 60.0, -0.4)
@example(0, 0.0, 0.0)
def test_coherent_amplitudes_match_mpmath(p, r, phase):
    # <p|gamma> from its logarithms: the relative error is the roundoff of
    # the log-space sum, 4 eps (p (|ln r| + pi) + ln(p!)/2 + r^2/2 + 1)
    # (~6e-12 at p = 4095, r = 60), wherever the true modulus is a normal
    # float; a column is the same bit for bit in a batch as on its own
    gamma = r * complex(math.cos(phase), math.sin(phase))
    with mpmath.workdps(40):
        g = mpmath.mpc(gamma.real, gamma.imag)
        true = complex(mpmath.exp(-abs(g) ** 2 / 2) * g ** p
                       / mpmath.sqrt(mpmath.factorial(p)))
    table = coherent_amplitudes(p + 1, [0.5j, gamma, -3.0])
    got = table[p, 1]
    assert np.array_equal(table[:, 1], coherent_amplitudes(p + 1, gamma)[:, 0])
    assert abs(got) <= 1.0
    if abs(true) >= np.finfo(float).tiny:
        scale = p * (abs(math.log(r)) + math.pi) if p else 0.0
        scale += 0.5 * math.lgamma(p + 1) + 0.5 * r * r + 1.0
        assert abs(got - true) <= 4 * np.finfo(float).eps * scale * abs(true)


def _mp_yuen(n: int, alpha: complex, r: float, theta: float) -> complex:
    """<n|D(alpha) S(r e^{i theta})|0> at 40 digits from the Hermite form
    sech(r)^{1/2} e^{-|alpha|^2/2 - alpha*^2 u^2} u^n H_n(gamma/(2u cosh r)) / sqrt(n!),
    u^2 = e^{i theta} tanh(r)/2 and gamma = alpha cosh r + alpha* e^{i theta}
    sinh r (2u cosh r is sqrt(e^{i theta} sinh 2r), and u^n H_n(z/u) is a
    polynomial in u^2, so the branch of u does not matter); at r = 0 the
    coherent amplitude e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    with mpmath.workdps(40):
        a, r_ = mpmath.mpc(alpha.real, alpha.imag), mpmath.mpf(r)
        if r == 0.0:
            return complex(mpmath.exp(-abs(a) ** 2 / 2) * a ** n
                           / mpmath.sqrt(mpmath.factorial(n)))
        u2 = mpmath.expj(theta) * mpmath.tanh(r_) / 2
        u = mpmath.sqrt(u2)
        gamma = a * mpmath.cosh(r_) + mpmath.conj(a) * 2 * u2 * mpmath.cosh(r_)
        return complex(mpmath.sqrt(mpmath.sech(r_))
                       * mpmath.exp(-abs(a) ** 2 / 2 - mpmath.conj(a) ** 2 * u2)
                       * u ** n * mpmath.hermite(n, gamma / (2 * u * mpmath.cosh(r_)))
                       / mpmath.sqrt(mpmath.factorial(n)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.floats(0.0, 48.0), st.floats(-math.pi, math.pi), st.floats(-2.0, 2.0),
       st.floats(-math.pi, math.pi), st.floats(0.0, 1.0))
@example(30.0, 0.5, 0.0, 0.0, 0.6)  # r = 0: the coherent row
@example(0.0, 0.0, 1.3, 0.4, 0.3)  # alpha = 0: the squeezed vacuum
@example(60.0, 2.5, 0.0, 0.0, 1.0)  # p 4095 at |alpha| 60
@example(5.0, 0.9, R_MAX, 0.0, 0.01)  # tanh r rounds to 1
@example(1e-3, 2.0, -R_MAX, 1.0, 0.01)
def test_yuen_amplitudes_match_mpmath(size, angle, r, theta, frac):
    # the one amplitude kernel against the Hermite closed form, at a level n
    # up to twice the row's mean photon number (capped at 4095): the
    # relative error is at most 2 eps (n + |alpha|^2 + |r| + 1), the
    # roundoff of n recurrence steps and of the exponent of c_0, measured
    # against the largest true amplitude of levels n - 1, n and n + 1 (the
    # recurrence error follows the row's envelope, not its zeros), wherever
    # the true amplitude is a normal float
    alpha = size * complex(math.cos(angle), math.sin(angle))
    n = int(frac * min(4095.0, 2 * (size * size + math.sinh(r) ** 2) + 64))
    got = yuen_levels(n + 1, alpha, r, theta)[n]
    true = [_mp_yuen(k, alpha, r, theta) if k >= 0 else 0.0 for k in (n - 1, n, n + 1)]
    if abs(true[1]) >= np.finfo(float).tiny:
        bound = 2 * np.finfo(float).eps * (n + size * size + abs(r) + 1)
        assert abs(got - true[1]) <= bound * max(map(abs, true))


@st.composite
def detector_cases(draw):
    """Random kets on 2 <= d <= 40 levels, a detector at efficiency 10^-e
    (e in [0, 9], 1 exactly included) and outcomes on its scale."""
    d = draw(st.integers(2, 40))
    heterodyne = draw(st.booleans())
    eta = 10.0 ** -draw(st.floats(0.0, 9.0))
    sigma2 = DetectorSpec("heterodyne" if heterodyne else "homodyne", eta).sigma2
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kets = rng.normal(size=(draw(st.integers(1, 3)), d)) * (1 + 0j)
    kets += 1j * rng.normal(size=kets.shape)
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    # outcome 0 near the peak, the others out to several record widths
    reach = 6.0 + 3.0 * math.sqrt(sigma2)
    parts = draw(st.lists(unit, min_size=10, max_size=10))
    outcomes = np.concatenate(([0.0], reach * _complex(parts)))
    return kets, sigma2, heterodyne, outcomes if heterodyne else outcomes.real


@settings(max_examples=60, derandomize=True, deadline=None)
@given(detector_cases())
@example((np.array([[0.6, 0.8j]]), 5.7565290067304925e-06, False,
          np.array([0.0, 0.7, -2.3])))  # a homodyne kernel under the grid step
def test_detector_kernel_matches_dense_elements(case):
    # the loss-channel kernel of both detectors against the dense
    # single-outcome elements (closed form for heterodyne, trapezoid
    # quadrature for homodyne), from eta = 1 down to 1e-9
    from fockamp.measurement import _detector_expectations
    from fockamp.oracles import heterodyne_element, homodyne_element
    kets, sigma2, heterodyne, outcomes = case
    element = heterodyne_element if heterodyne else homodyne_element
    kernel = heterodyne_expectations if heterodyne else _detector_expectations
    space = FockSpace(kets.shape[1])
    want = np.array([[np.vdot(k, element(o, sigma2, space).matrix @ k).real
                      for k in kets] for o in outcomes])
    got = kernel(kets, outcomes, sigma2)
    assert got.shape == want.shape and (got >= 0).all()
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(detector_cases(), st.floats(0.0, 2.5), st.lists(unit, min_size=1,
                                                       max_size=4))
def test_detector_kernel_rows_do_not_depend_on_block_boundaries(case, blocks,
                                                                cuts):
    # the outcomes in pieces cut anywhere (inside, at and across the blocks
    # of _outcome_block) give the rows of one call, bit for bit
    from fockamp.measurement import _detector_expectations, _outcome_block
    kets, sigma2, heterodyne, outcomes = case
    kernel = heterodyne_expectations if heterodyne else _detector_expectations
    n = 1 + int(blocks * _outcome_block(kets.shape[1]))
    outcomes = np.resize(outcomes, n) * np.linspace(0.5, 1.5, n)
    whole = kernel(kets, outcomes, sigma2)
    edges = sorted({0, n, *(int((c + 1) / 2 * n) for c in cuts)})
    pieces = [kernel(kets, outcomes[a:b], sigma2)
              for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(0.0, 20.0), st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0),
       st.floats(0.2, 1.0, exclude_min=True),
       st.lists(unit, min_size=8, max_size=8))
def test_heterodyne_reads_match_the_gaussian_record(size, angle, r, eta, parts):
    # the outcome-frame series on the untruncated row D(alpha) S(r)|0>
    # against its exact Gaussian: the quadratures X, P of the outcome
    # b = (X + iP)/sqrt(2) are normal about sqrt(2) (Re, Im) alpha with
    # variances e^{-2r}/2 and e^{2r}/2 plus sigma^2 + 1/2 (the thermal
    # noise and the heterodyne vacuum), and b has twice their joint density
    from fockamp.heterodyne import meter_reads
    alpha = size * complex(math.cos(angle), math.sin(angle))
    sigma2 = DetectorSpec("heterodyne", eta).sigma2
    betas = alpha + 4.0 * _complex(parts)
    got = meter_reads(Meter("squeezed", r=r) if r else VACUUM,
                      np.array([alpha]), betas, sigma2)[:, 0]
    vx = math.exp(-2 * r) / 2 + sigma2 + 0.5
    vp = math.exp(2 * r) / 2 + sigma2 + 0.5
    dx, dp = math.sqrt(2) * (betas - alpha).real, math.sqrt(2) * (betas - alpha).imag
    want = np.exp(-dx * dx / (2 * vx) - dp * dp / (2 * vp)) / (math.pi * math.sqrt(vx * vp))
    assert np.abs(got - want).max() <= 1e-14
