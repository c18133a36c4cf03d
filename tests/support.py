"""Helpers shared by the test modules, and the references that share no code
with the package: the log-form coherent table and the heterodyne loss-channel
kernel on truncated rows, against which the outcome-frame heterodyne read of
the untruncated rows is checked."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fockamp
from fockamp.fock import log_factorials
from fockamp.measurement import OUTCOME_TILE, _outcome_block


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` of this interpreter with ``args``, the directory
    that holds the fockamp under test first on the child's PYTHONPATH, so
    the child imports the same package whether or not it is installed."""
    root = str(Path(fockamp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def dense_rounding(grid, closed) -> float:
    """Bound on the rounding of max |E_grid(o) - E_closed(o)| over the dense
    elements V diag(w) V^dag of both POVMs (PovmGrid.elements,
    ClosedFormPovm.element).

    An entry sums d products v_ik w_k conj(v_jk). In floating point the sum
    is off by at most sqrt(2) gamma_{d+2} sum_k |v_ik| |w_k| |v_jk| (Higham,
    Accuracy and Stability, Lemmas 3.3 and 3.5; gamma_n = n u / (1 - n u),
    u = eps/2), at most (d + 3) eps max|w| for unitary V, since
    sum_k |v_ik| |v_jk| <= 1 (Cauchy-Schwarz). Each difference holds two
    such entries.
    """
    d = grid.weights.shape[1]
    w = max(float(np.abs(grid.weights).max()),
            float(np.abs(closed.weights(grid.outcomes)).max()))
    return 2 * (d + 3) * np.finfo(float).eps * w


def coherent_amplitudes(d: int, gammas) -> np.ndarray:
    """<p|gamma_j> = e^{-|gamma_j|^2/2} gamma_j^p / sqrt(p!) for p < d (rows)
    and each gamma_j (columns), from their logarithms, so every entry has
    modulus at most 1 at any gamma. log|gamma| and |gamma|^2 are taken per
    gamma in float arithmetic, so a column is the same at any batch size.
    Rows are built 2**12 entries at a time: the result is the one (d, n) array."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=complex))
    r = [abs(g) for g in gammas.tolist()]
    log_r = [math.log(x) if x else -math.inf for x in r]
    half_lf, phase = 0.5 * log_factorials(d)[:, None], np.angle(gammas)
    out = np.zeros((d, gammas.size), dtype=complex)
    step = max(1, 2 ** 12 // max(1, gammas.size))
    for lo in range(0, d, step):
        p, rows = np.arange(lo, min(lo + step, d))[:, None], out[lo:lo + step]
        mag = np.zeros(rows.shape)  # row p = 0 stays 0: gamma^0 = 1, at gamma = 0 too
        np.multiply(p[lo == 0:], log_r, out=mag[lo == 0:])
        mag -= half_lf[lo:lo + step]
        mag -= [0.5 * x ** 2 for x in r]
        np.multiply(p, phase, out=rows.imag)
        np.exp(rows, out=rows)  # the phases e^{i p arg gamma}
        rows *= np.exp(mag, out=mag)
    return out


def heterodyne_expectations(kets: np.ndarray, betas, sigma2: float) -> np.ndarray:
    """<chi_k|M_beta|chi_k> for each outcome beta (rows) and truncated ket
    chi_k (columns): the loss-channel kernel of the homodyne read
    (:func:`measurement._detector_expectations`) with A_p = <p|gamma> from
    :func:`coherent_amplitudes` and c = t/pi,

        <chi|M_beta|chi> = (t/pi) sum_k |sum_{m>=k} chi*(m) B_k(m) A_{m-k}(sqrt(t) beta)|^2,

    in the same padded outcome blocks, so a row is the same bit for bit
    wherever the blocks fall. It reads the rows as cut, where
    :func:`heterodyne.meter_reads` takes the untruncated rows in the outcome
    frame, so it is that read's reference.
    """
    n, d = kets.shape
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    t = 1.0 / (1.0 + sigma2)
    s = sigma2 / (1.0 + sigma2)
    # log B_k(m) = half_lf[m] + rest[m - k] + head[k]
    half_lf = 0.5 * log_factorials(d)
    rest = 0.5 * np.arange(d) * math.log(t) - half_lf
    head = 0.5 * np.arange(d) * (math.log(s) if s else 0.0) - half_lf
    bra = kets.conj()
    out = np.empty((betas.size, n))
    step = _outcome_block(d)
    for lo in range(0, betas.size, step):
        part = betas[lo:lo + step]
        block = np.zeros(-(-part.size // OUTCOME_TILE) * OUTCOME_TILE, complex)
        block[:part.size] = part
        tiles = coherent_amplitudes(d, math.sqrt(t) * block).reshape(
            d, -1, OUTCOME_TILE).transpose(1, 0, 2)
        acc = np.zeros((tiles.shape[0], n, OUTCOME_TILE))
        for k in range(d if s > 0 else 1):
            w = np.exp(half_lf[k:] + (rest[:d - k] + head[k]))
            a = (bra[:, k:] * w) @ tiles[:, :d - k]
            acc += a.real ** 2 + a.imag ** 2
        out[lo:lo + step] = (t / math.pi * acc).transpose(0, 2, 1).reshape(-1, n)[:part.size]
        del tiles  # freed before the next block's table is built
    return out
