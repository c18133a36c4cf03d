"""Detector POVMs and effective measurements induced by preamplification.

An inefficient heterodyne detector with efficiency eta is the coherent-state
POVM smeared by a complex Gaussian of variance sigma^2 = (1 - eta)/eta:

    M_beta = (1/pi^2 sigma^2) int d2gamma e^{-|gamma-beta|^2/sigma^2} |gamma><gamma|

normalized so that int M_beta d2beta = 1. Inefficient homodyne smears the
quadrature projector with sigma^2 = (1 - eta)/(4 eta). Sandwiching a detector
between an amplifier unitary and a fixed meter preparation produces an
effective POVM on the signal mode; for a normal signal operator it is a sum
of Gaussians centered on the eigenvalues, diagonal in the eigenbasis.

All outcome grids and closed forms are stored in the gain-rescaled variable
(raw outcome divided by g), so Gaussian widths shrink as 1/g^2 and decision
regions do not move with the gain.
"""
from __future__ import annotations

import bisect
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .amplifiers import displaced_rows, meter_table, prepare_meters
from .errors import CoverageError, DimensionMismatch, TruncationError
from .fock import (FockSpace, SpectralDecomposition, State,
                   _coherent_amplitudes, hermite_functions, log_factorials)

# outcomes per GEMM of the detector kernel (see _detector_expectations); one
# width for every product keeps an outcome's row independent of its neighbours
OUTCOME_TILE = 64
# trials per Monte Carlo block, the unit of the stream law (see _pooled)
BLOCK = 2 ** 16
# trials per fill of normals and per proposal round of husimi_blocks; the
# fills are sequential, so for them it sets only a worker's buffers
DRAW_CHUNK = 2 ** 13
# proposals x levels per slice of the acceptance table of husimi_blocks;
# sets the working set, not the streams
ACCEPT_SLICE = 2 ** 18
# 1 - <m|rho|m> at or below which a heterodyne input is sampled as the
# coherent state |m>, m = <a> (see detector_blocks)
COHERENT_DEFECT = 1e-12


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorSpec:
    """heterodyne or homodyne linear detector with efficiency eta in (0, 1]."""

    kind: str
    efficiency: float = 1.0

    def __post_init__(self):
        if self.kind not in ("heterodyne", "homodyne"):
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def sigma2(self) -> float:
        """Gaussian smearing: (1-eta)/eta heterodyne, (1-eta)/(4 eta) homodyne."""
        eta = self.efficiency
        if self.kind == "heterodyne":
            return (1.0 - eta) / eta
        return (1.0 - eta) / (4.0 * eta)


# ---------------------------------------------------------------------------
# POVM containers
# ---------------------------------------------------------------------------

@dataclass
class PovmGrid:
    """Numeric effective POVM on a grid of (rescaled) outcomes, in spectral form.

    Every element is diagonal in the eigenbasis V of f by construction, so the
    grid stores V (``decomposition``) and the (n_outcomes, d) weight table:
    E(outcomes[j]) = V diag(weights[j]) V^dag, as :class:`ClosedFormPovm`
    stores its Gaussians. ``elements`` builds the dense matrices on demand.
    """

    outcomes: np.ndarray            # complex (heterodyne/three_mode) or real
    decomposition: SpectralDecomposition
    weights: np.ndarray             # (n_outcomes, d), per eigenvector
    model: str                      # heterodyne | homodyne | three_mode
    width2: float                   # nominal Gaussian width of the elements
    measure: float | None = None    # cell measure per grid point

    @property
    def space(self) -> FockSpace:
        return self.decomposition.space

    @property
    def elements(self) -> np.ndarray:
        """(n_outcomes, d, d) dense elements, V diag(weights[j]) V^dag."""
        return _spectral_elements(self.decomposition.eigenvectors, self.weights)

    def identity_residual(self) -> float:
        """Max-norm residual of V diag(measure sum_j weights[j]) V^dag
        against 1, which includes the residual of the eigenbasis itself."""
        if self.measure is None:
            raise ValueError("grid carries no cell measure")
        v = self.decomposition.eigenvectors
        total = (v * (self.measure * self.weights.sum(axis=0))) @ v.conj().T
        return float(np.abs(total - np.eye(v.shape[0])).max())

    def max_deviation(self, closed: "ClosedFormPovm") -> float:
        """max |weights - closed.weights(outcomes)| over the grid's outcomes.

        Both POVMs are V diag(w) V^dag with their weight tables indexed by the
        eigenvalues, so they are compared there. For unitary V no entry of
        V diag(dw) V^dag exceeds max |dw|, so this bounds the dense deviation.
        """
        if not np.array_equal(self.decomposition.eigenvalues,
                              closed.decomposition.eigenvalues):
            raise ValueError("the grid and the closed form decompose f differently")
        return float(np.abs(self.weights - closed.weights(self.outcomes)).max())


def _spectral_elements(v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """V diag(weights[j]) V^dag for each row j of the (n, d) weight table."""
    return (v * weights[:, None, :]) @ v.conj().T


@dataclass(frozen=True)
class ClosedFormPovm:
    """Analytic effective POVM: per-eigenvector Gaussians about the eigenvalues.

    Densities per unit rescaled outcome measure:

      heterodyne   (1/(pi w^2)) exp(-|phi - lam_i|^2 / w^2),  w^2 = (sigma^2+1)/g^2
      homodyne     (1/sqrt(pi w^2)) exp(-(x - lam_i)^2 / w^2), w^2 = (sigma^2+eps^2)/g^2
      three_mode   (1/(pi w^2)) exp(-|phi - lam_i|^2 / w^2),  w^2 = (sigma^2+eps^2)/g^2

    The homodyne w^2 corresponds to outcome variance (sigma^2+eps^2)/(2 g^2).
    """

    decomposition: SpectralDecomposition
    g: float
    sigma2: float
    model: str
    epsilon2: float = 1.0

    def __post_init__(self):
        if self.model not in ("heterodyne", "homodyne", "three_mode"):
            raise ValueError(f"unknown POVM model {self.model!r}")
        if self.model == "homodyne":
            if np.abs(np.imag(self.decomposition.eigenvalues)).max() > 1e-9:
                raise ValueError("homodyne model wants a Hermitian signal operator")

    @property
    def width2(self) -> float:
        return _width2(self.sigma2, 1.0 if self.model == "heterodyne"
                       else self.epsilon2, self.g)

    def weights(self, outcomes) -> np.ndarray:
        """(n, d) table: the Gaussian density of each eigenvector record
        (columns) at each of the n outcomes (rows); a scalar is one row."""
        lam = self.decomposition.eigenvalues
        o = np.atleast_1d(outcomes)[:, None]
        w2 = self.width2
        if self.model == "homodyne":
            return np.exp(-((np.real(o) - np.real(lam)) ** 2) / w2) \
                / math.sqrt(math.pi * w2)
        return np.exp(-(np.abs(o - lam) ** 2) / w2) / (math.pi * w2)

    def element(self, outcome) -> np.ndarray:
        return _spectral_elements(self.decomposition.eigenvectors,
                                  self.weights(outcome))[0]

    def identity_residual(self) -> float:
        """The analytic outcome integral is exactly V V^dag; report its residual."""
        v = self.decomposition.eigenvectors
        return float(np.abs(v @ v.conj().T - np.eye(v.shape[0])).max())


def _width2(sigma2: float, epsilon2: float, g: float) -> float:
    """(sigma^2 + epsilon^2)/g^2; inf where g^2 underflows (g below ~1.6e-162)."""
    return (sigma2 + epsilon2) / (g * g) if g * g else math.inf


def effective_povm_closed_form(decomposition: SpectralDecomposition, g: float,
                               sigma2: float, model: str,
                               epsilon: float = 1.0) -> ClosedFormPovm:
    """Analytic effective POVM for a decomposed normal signal operator."""
    return ClosedFormPovm(decomposition, float(g), float(sigma2), model,
                          float(epsilon) ** 2)


# ---------------------------------------------------------------------------
# numeric sandwich
# ---------------------------------------------------------------------------

def povm_model(amp) -> tuple[str, float]:
    """(model, epsilon) of the closed form the numeric sandwich of ``amp``
    matches: heterodyne (epsilon 1) for one meter recording the whole
    eigenvalue of f, else homodyne for one meter and three_mode for two,
    at the width epsilon = sqrt(2 Var x) of the (first) meter's preparation
    (:func:`amplifiers.meter_table`)."""
    table = meter_table(amp)
    if table[0][1] is np.asarray:
        return "heterodyne", 1.0
    return ("homodyne" if len(table) == 1 else "three_mode",
            math.sqrt(2.0 * table[0][0].x_variance()))


def _outcome_block(d: int) -> int:
    """Outcomes per amplitude table of :func:`_detector_expectations`: ~2**16
    entries in whole tiles, at least 256, so a large meter's GEMMs stay wide."""
    return max(256, 2 ** 16 // d // OUTCOME_TILE * OUTCOME_TILE)


def _detector_expectations(kets: np.ndarray, outcomes, sigma2: float,
                           heterodyne: bool) -> np.ndarray:
    """<chi_k|M_o|chi_k> for each outcome o (rows) and ket chi_k (columns).

    The detector is the ideal one behind a loss channel of transmission
    t = 1/(1+sigma^2), s = 1 - t, with Kraus weights B_k(m) =
    sqrt(binom(m, k) s^k t^(m-k)) (from log factorials, at most 1):

        <chi|M_o|chi> = c sum_k |sum_{m>=k} chi*(m) B_k(m) A_{m-k}(sqrt(t) o)|^2,

    c = t/pi and A_p = <p|gamma> (:func:`fock._coherent_amplitudes`) for
    heterodyne, c = sqrt(t) and A_p = h_p (:func:`fock.hermite_functions`,
    real GEMMs on the stacked real and imaginary parts) for homodyne. No
    grid and no term is dropped at any sigma^2 (k = 0 alone at 0). Outcome
    blocks of :func:`_outcome_block` are padded to whole OUTCOME_TILEs, so
    every GEMM has one shape and a row is the same bit for bit wherever the
    block boundaries fall; one amplitude table is alive at a time.
    """
    n, d = kets.shape
    outcomes = np.atleast_1d(np.asarray(outcomes, dtype=complex if heterodyne
                                        else float))
    t = 1.0 / (1.0 + sigma2)
    s = sigma2 / (1.0 + sigma2)
    # log B_k(m) = half_lf[m] + rest[m - k] + head[k]
    half_lf = 0.5 * log_factorials(d)
    rest = 0.5 * np.arange(d) * math.log(t) - half_lf
    head = 0.5 * np.arange(d) * (math.log(s) if s else 0.0) - half_lf
    bra, table, scale = (kets.conj(), _coherent_amplitudes, t / math.pi) if heterodyne \
        else (np.concatenate((kets.real, kets.imag)), hermite_functions, math.sqrt(t))
    out = np.empty((outcomes.size, n))
    step = _outcome_block(d)
    for lo in range(0, outcomes.size, step):
        part = outcomes[lo:lo + step]
        block = np.zeros(-(-part.size // OUTCOME_TILE) * OUTCOME_TILE, part.dtype)
        block[:part.size] = part
        tiles = table(d, math.sqrt(t) * block).reshape(
            d, -1, OUTCOME_TILE).transpose(1, 0, 2)
        acc = np.zeros((tiles.shape[0], bra.shape[0], OUTCOME_TILE))
        for k in range(d if s > 0 else 1):
            w = np.exp(half_lf[k:] + (rest[:d - k] + head[k]))
            a = (bra[:, k:] * w) @ tiles[:, :d - k]
            acc += a.real ** 2 + a.imag ** 2 if heterodyne else np.square(a, out=a)
        if not heterodyne:
            acc = acc[:, :n] + acc[:, n:]
        out[lo:lo + step] = (scale * acc).transpose(0, 2, 1).reshape(-1, n)[:part.size]
        del tiles  # freed before the next block's table is built
    return out


def effective_povm_numeric(amp, detector: DetectorSpec, outcomes,
                           dims=None) -> PovmGrid:
    """E(outcome) = <meters| U^dag M U |meters> on the signal mode, rescaled.

    The amplifier fixes the model (:func:`povm_model`); the three-mode
    meters are read by two homodyne detectors of equal efficiency. The
    homodyne-type couplings are driven at kappa t = g/sqrt(2) so the
    displacement seen by each meter is g times the (standard) real or
    imaginary part of the eigenvalue, matching the closed-form records whose
    centers are the complex eigenvalues themselves.

    U acts on the eigenspace of f with eigenvalue lam_k as a displacement of
    each meter of :func:`amplifiers.meter_table` by the drive times its part
    of lam_k, so the sandwich is E = sum_k P_k prod_meters g^j <chi_k|M|chi_k>
    over the displaced meters chi_k, one per eigenspace P_k, read at g times
    the same part of the outcome, with j = 2 for heterodyne and j = 1 for
    homodyne readout. This is what the dense sandwich with
    :func:`oracles.two_mode_unitary`, :func:`oracles.von_neumann_unitary` or
    :func:`oracles.three_mode_unitary` gives.

    The meters come from :func:`amplifiers.prepare_meters` at ``dims``
    (auto-sized if None, driven as above), which simulation shares. A meter
    whose truncation drops more than 1e-6 of its norm, or whose displaced
    copy puts more than 1e-6 on the cutoff, raises TruncationError instead
    of yielding truncation-limited elements.

    ``outcomes`` are rescaled (outcome/g); the weights carry the matching
    Jacobian (g^2 for complex outcomes, g for real ones).
    """
    model, epsilon = povm_model(amp)  # TypeError for a variant without meters
    heterodyne = model == "heterodyne"
    expected = "heterodyne" if heterodyne else "homodyne"
    if detector.kind != expected:
        raise ValueError(f"{type(amp).__name__} is read out by {expected}")
    outcomes = np.atleast_1d(outcomes)
    if model == "homodyne":
        outcomes = np.real(outcomes)
    sig2 = detector.sigma2
    g = amp.g
    drive = g if heterodyne else g / math.sqrt(2.0)
    jacobian = g * g if heterodyne else g
    weights = 1.0
    meters = prepare_meters(amp, drive, dims)
    for (_, part), (meter, rows) in zip(meter_table(amp), meters):
        weights = weights * (jacobian * _detector_expectations(
            displaced_rows(meter, rows), g * part(outcomes), sig2, heterodyne))
    eigenspace = np.searchsorted(amp.dec.heads, np.arange(amp.dec.eigenvalues.size), "right") - 1
    return PovmGrid(outcomes, amp.dec, np.take(weights, eigenspace, axis=1), model,
                    _width2(sig2, epsilon ** 2, g))


# ---------------------------------------------------------------------------
# decision regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionRegions:
    """Voronoi cells around eigenvalue clusters; nearest-center assignment."""

    centers: np.ndarray
    members: tuple

    @classmethod
    def from_decomposition(cls, dec: SpectralDecomposition) -> "DecisionRegions":
        groups = dec.clusters()
        centers = np.array([dec.eigenvalues[g].mean() for g in groups])
        return cls(centers, tuple(tuple(int(i) for i in g) for g in groups))

    @property
    def n_regions(self) -> int:
        return len(self.centers)

    def assign(self, outcomes) -> np.ndarray:
        outcomes = np.atleast_1d(outcomes)
        dist = np.abs(outcomes[:, None] - self.centers[None, :])
        return np.argmin(dist, axis=1)


def _collinear_axis(centers: np.ndarray):
    """Unit direction if all centers lie on one line in C, else None."""
    rel = centers - centers[0]
    scale = np.abs(rel).max()
    if scale == 0:
        return complex(1.0)
    u = rel[np.argmax(np.abs(rel))] / scale
    if np.abs(np.imag(rel * np.conj(u))).max() > 1e-9 * max(1.0, scale):
        return None
    return u


def _region_masses(povm, regions: DecisionRegions) -> np.ndarray:
    """(n_regions, d) table: the mass region k takes from eigenvector i's record.

    Closed-form POVMs with collinear cluster centers use exact error-function
    slab integrals (the orthogonal Gaussian direction integrates to one), so
    no grid error enters. Numeric grids sum their weight rows over each cell
    with the cell measure, after a coverage check of five nominal widths
    beyond the extreme centers, on the real axis and, for complex outcomes,
    on the imaginary axis too.
    """
    if isinstance(povm, ClosedFormPovm):
        u = _collinear_axis(regions.centers)
        if u is None:
            raise CoverageError(
                "exact coarse graining implemented for collinear cluster centers; "
                "integrate a numeric grid for general complex configurations")
        t_centers = np.real((regions.centers - regions.centers[0]) * np.conj(u))
        t_lam = np.real((povm.decomposition.eigenvalues - regions.centers[0])
                        * np.conj(u))
        order = np.argsort(t_centers)
        sorted_t = t_centers[order]
        bounds = np.concatenate(
            ([-np.inf], 0.5 * (sorted_t[1:] + sorted_t[:-1]), [np.inf]))
        z = (bounds[:, None] - t_lam) / math.sqrt(povm.width2)
        cdf = 0.5 * (1 + np.vectorize(math.erf, otypes=[float])(z))
        mass = np.empty((regions.n_regions, t_lam.size))
        mass[order] = np.diff(cdf, axis=0)
        return mass
    if povm.measure is None:
        raise CoverageError("numeric coarse graining needs a grid with a measure")
    w = math.sqrt(povm.width2)
    pts = np.atleast_1d(povm.outcomes)
    for part in (np.real,) if povm.model == "homodyne" else (np.real, np.imag):
        lo, hi = part(pts).min(), part(pts).max()
        need = part(regions.centers).min() - 5 * w, part(regions.centers).max() + 5 * w
        if lo > need[0] or hi < need[1]:
            raise CoverageError(
                f"grid {part.__name__} extent [{lo:.2f}, {hi:.2f}] does not "
                f"cover regions to 5 widths [{need[0]:.2f}, {need[1]:.2f}]")
    mass = np.zeros((regions.n_regions, povm.weights.shape[1]))
    np.add.at(mass, regions.assign(povm.outcomes), povm.weights)
    return mass * povm.measure


def own_region_weights(povm, regions: DecisionRegions) -> np.ndarray:
    """<e_i | Pi_own(i) | e_i> averaged over each cluster's members, read off
    the mass table of :func:`_region_masses`."""
    mass = _region_masses(povm, regions)
    return np.array([float(np.mean(mass[k, list(members)]))
                     for k, members in enumerate(regions.members)])


# ---------------------------------------------------------------------------
# outcome sampling
# ---------------------------------------------------------------------------

def _pooled(n: int, seed: int, draw, sd: float, dtype, transform=None):
    """Each block of n trials, in block order: draw(rng, size) plus sd times
    a standard normal per real axis.

    Block b holds trials [b BLOCK, (b + 1) BLOCK) and draws from Philox
    keyed by the seed with b as its third counter word, which is
    ``Philox(key=seed).jumped(b)`` (Salmon et al., SC'11). ``draw`` draws
    first and returns ``add(x, lo)``, adding trials lo:lo + len(x) of the
    noiseless block (``dtype``) to each chunk x of DRAW_CHUNK normals, (re,
    im) per complex trial (none at sd 0). Without ``transform`` the chunks
    fill the block, which is yielded; ``transform(x, out)`` writes a real y
    per trial of chunk x, and the block yields (c, [size, sum (y - c)^k for
    k = 1..4]), c the mean y of its first chunk. Blocks are drawn on a
    thread pool, one worker per CPU available to the process, at most
    workers + 1 in flight. The streams do not depend on the worker count;
    the workers call closures only.
    """
    from concurrent.futures import ThreadPoolExecutor
    from threading import local

    def work(b, size):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, b, 0]))
        add = draw(rng, size)
        out, m = mine.bufs if transform else (np.empty(size, dtype), None)
        for lo in range(0, size, DRAW_CHUNK):
            x = out[lo:lo + DRAW_CHUNK] if transform is None else out[:size - lo]
            r = x.view(float)
            if sd > 0:
                rng.standard_normal(out=r)  # rng.normal(0.0, sd)
                r *= sd
            else:
                r.fill(-0.0)  # -0.0 + t is t, bit for bit
            add(x, lo)
            if transform is not None:
                d = m[:, :x.shape[0]]  # rows 1, y - c, (y - c)^2
                transform(x, d[1])
                shift = float(d[1].mean()) if lo == 0 else shift
                d[1] -= shift
                np.multiply(d[1], d[1], out=d[2])
                acc = (acc if lo else 0.0) + d @ d[1:].T  # (y - c)^(j + k) sums
        return out if transform is None else \
            (shift, [size] + acc[0].tolist() + acc[1:, 1].tolist())

    affinity = getattr(os, "sched_getaffinity", None)
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    # worker buffers made here: a worker's own allocations stay resident
    chunk = min(DRAW_CHUNK, n) if transform else 0
    spare = [(np.empty(chunk, dtype), np.ones((3, chunk))) for _ in range(workers)]
    mine, pending = local(), deque()
    with ThreadPoolExecutor(workers, initializer=lambda: setattr(
            mine, "bufs", spare.pop())) as pool:  # a closed stream joins its pool
        for b, lo in enumerate(range(0, n, BLOCK)):
            pending.append(pool.submit(work, b, min(BLOCK, n - lo)))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def gaussian_blocks(centres, weights, sd: float, n: int, seed: int,
                    transform=None):
    """n draws of centres[i] + sd * (a standard normal per real axis), i
    with the law weights/sum(weights), in the blocks of :func:`_pooled`.

    A block is drawn by counts: ``rng.multinomial(size, p)`` says how many
    of its trials fall on each centre (skipped for one centre), then each
    chunk of ``sd * rng.standard_normal``, (re, im) per complex trial, takes
    its part of ``np.repeat(centres, counts)``. So a block is ordered by
    centre: an exchangeable sample of the mixture, not i.i.d. in sequence.
    A function of the block that ignores order (its moments, all that the
    estimators read, or a histogram) has exactly its law on i.i.d. draws.
    """
    centres = np.array(centres)
    p = np.array(weights, dtype=float)
    p /= p.sum()
    for shared in (centres, p):  # read by every worker
        shared.flags.writeable = False

    def draw(rng, size):
        counts = [size] if centres.size == 1 else rng.multinomial(size, p)
        ends = np.cumsum(counts).tolist()  # run i ends before trial ends[i]

        def add_centres(x, lo):
            hi = lo + x.shape[0]  # trials lo and hi - 1 are in runs i and j
            i, j = bisect.bisect_right(ends, lo), bisect.bisect_left(ends, hi)
            if j - i < 8:  # slice adds, no chunk-sized temporary
                for r in range(i, j + 1):
                    x[max(lo, ends[r] - counts[r]) - lo:ends[r] - lo] += centres[r]
            else:  # one repeat of the chunk's runs
                k = counts[i:j + 1].copy()
                k[0], k[-1] = ends[i] - lo, hi - ends[j - 1]
                x += np.repeat(centres[i:j + 1], k)
        return add_centres

    return _pooled(n, seed, draw, sd, centres.dtype, transform)


def _husimi_proposal(state: State):
    """(levels, probabilities, acceptance) of :func:`husimi_blocks` for
    rho = sum_k p_k |v_k><v_k| (a ket is the one-term case; p_k < 1e-32
    dropped), c_kn = <n|v_k>, S_k = sum_n |c_kn|: level n has probability
    W_n / M, W_n = sum_k p_k S_k |c_kn|, M = sum_k p_k S_k^2 (levels with
    W_n = 0 dropped), and the closure ``acceptance(s, phase)`` gives
    sum_k p_k |<beta|v_k>|^2 / sum_n W_n |<n|beta>|^2 <= 1 (Cauchy-Schwarz)
    at beta = sqrt(s) phase, |phase| = 1. Both sums take |<n|beta>|
    e^{s/2} over its largest value on the kept levels, so nothing under- or
    overflows, and run ACCEPT_SLICE proposals x levels at a time.
    """
    if state.kind == "ket":
        p, v = np.ones(1), state.data[:, None]
    else:
        p, v = np.linalg.eigh(state.data)
        keep = p > 1e-32
        p, v = p[keep], v[:, keep]
    a = np.abs(v)
    w = a @ (p * a.sum(axis=0))
    levels = np.flatnonzero(w)
    w = w[levels]
    c = (v[levels] * np.sqrt(p)).T  # row k: sqrt(p_k) c_kn on the kept levels
    half_lf = 0.5 * log_factorials(levels[-1] + 1)[levels, None]
    gaps = np.diff(levels).tolist()
    for shared in (levels, w, c, half_lf):  # read by every worker
        shared.flags.writeable = False
    rows = max(1, ACCEPT_SLICE // levels.size)

    def acceptance(s, phase):
        out = np.empty(s.shape[0])
        for lo in range(0, s.shape[0], rows):
            # log |<n|beta>| + |beta|^2/2, less its largest value over n
            t = np.multiply.outer(levels, 0.5 * np.log(s[lo:lo + rows]))
            t -= half_lf
            t -= t.max(axis=0)
            np.exp(t, out=t)
            # Horner: amp_k = sum_n c_kn t_n conj(phase)^(n - levels[0])
            spin = {g: phase[lo:lo + rows].conj() ** g for g in set(gaps)}
            amp = c[:, -1:] * t[-1]
            for j in range(levels.size - 2, -1, -1):
                amp *= spin[gaps[j]]
                amp += c[:, j:j + 1] * t[j]
            out[lo:lo + rows] = ((amp.real ** 2 + amp.imag ** 2).sum(axis=0)
                                 / (w @ (t * t)))
        return out

    return levels, w / w.sum(), acceptance


def husimi_blocks(state: State, gain: float, sd: float, n: int, seed: int,
                  transform=None):
    """n draws of gain beta + sd (a standard normal per real axis), beta
    exactly from the Husimi density <beta|rho|beta>/pi of ``state``, in the
    blocks of :func:`_pooled`, by rejection (:func:`_husimi_proposal`).

    A block proposes in rounds of min(DRAW_CHUNK, draws missing). A round
    draws levels n (``rng.choice``), |beta|^2 ~ Gamma(n + 1), angles 2 pi
    ``rng.random()`` and accept uniforms, in that order, and keeps in order
    the betas whose uniform is below their acceptance; the gain scales the
    block. Proposals per draw average M = sum_k p_k S_k^2 <= levels kept.
    """
    levels, prob, acceptance = _husimi_proposal(state)

    def draw(rng, size):
        out = np.empty(size, complex)
        done = 0
        while done < size:
            k = min(DRAW_CHUNK, size - done)
            s = rng.standard_gamma(rng.choice(levels, k, p=prob) + 1.0)
            phase = np.exp(2j * math.pi * rng.random(k))
            keep = rng.random(k) < acceptance(s, phase)
            beta = np.sqrt(s[keep]) * phase[keep]
            out[done:done + beta.shape[0]] = beta
            done += beta.shape[0]
        out *= gain
        return lambda x, lo: np.add(x, out[lo:lo + x.shape[0]], out=x)

    return _pooled(n, seed, draw, sd, complex, transform)


def detector_blocks(state: State, detector: DetectorSpec, n: int, seed: int,
                    gain: float = 1.0, transform=None):
    """n heterodyne outcomes on ``state`` times ``gain``, in the blocks of
    :func:`_pooled`; ``transform`` goes with them. A homodyne detector, a
    multi-mode state, or one holding more than 1e-6 at its cutoff, raises
    first.

    The draws are exact. A coherent input, one with 1 - <m|rho|m> <=
    COHERENT_DEFECT for m = <a> and |m> the renormalized coherent ket on the
    state's own truncated space, is sampled as |m>: the complex Gaussian
    about gain m of per-axis variance (gain^2 + sigma^2)/2, drawn by
    :func:`gaussian_blocks`. The law of the truncated ket is within
    sqrt(COHERENT_DEFECT) = 1e-6 in total variation of the input's
    (Fuchs-van de Graaf), but the draws follow the untruncated |m>: the
    bound holds up to sqrt(t), t the mass of |m> past the cutoff. Every
    other input is drawn from its Husimi density by :func:`husimi_blocks`,
    plus detector noise of per-axis variance sigma^2/2.
    """
    if state.space.n_modes != 1:
        raise DimensionMismatch("sampler wants a single-mode state")
    if detector.kind != "heterodyne":
        raise ValueError("only heterodyne outcomes are sampled")
    top = float(state.probabilities()[-1])
    if top > 1e-6:
        raise TruncationError(
            f"state holds {top:.2e} probability at its cutoff; the draws "
            "would miss mass beyond it")
    m = _as_coherent(state)
    if m is not None:
        return gaussian_blocks([gain * m], [1.0],
                               math.sqrt((gain * gain + detector.sigma2) / 2.0),
                               n, seed, transform)
    return husimi_blocks(state, gain, math.sqrt(detector.sigma2 / 2.0), n,
                         seed, transform)


def _as_coherent(state: State):
    """m = <a> if 1 - <m|rho|m> <= COHERENT_DEFECT, else None; |m> is the
    renormalized coherent ket on the state's own truncated space."""
    root = np.sqrt(np.arange(1, state.space.dim))
    if state.kind == "ket":
        psi = state.data
        m = complex(np.vdot(psi[:-1], root * psi[1:]))
    else:
        m = complex(np.sum(root * np.diagonal(state.data, -1)))
    ket = _coherent_amplitudes(state.space.dim, m)[:, 0]
    ket /= np.linalg.norm(ket)
    if state.kind == "ket":
        fidelity = abs(np.vdot(ket, psi)) ** 2
    else:
        fidelity = float(np.real(np.vdot(ket, state.data @ ket)))
    return m if 1.0 - fidelity <= COHERENT_DEFECT else None


def sample_outcomes(state: State, detector: DetectorSpec, n: int,
                    seed: int) -> np.ndarray:
    """n outcomes of :func:`detector_blocks`, each block copied into the
    output as it arrives; deterministic given seed."""
    if n < 0:
        raise ValueError(f"n = {n}: the number of outcomes must be >= 0")
    out = np.empty(n, complex)
    for b, block in enumerate(detector_blocks(state, detector, n, seed)):
        out[b * BLOCK:b * BLOCK + block.shape[0]] = block
    return out
