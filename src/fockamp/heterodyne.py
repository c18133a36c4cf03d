"""The heterodyne read of the numeric effective POVM, in the outcome frame.

A heterodyne detector with added noise sigma^2 has the element
M_b = D(b) rho_th D(b)^dag / pi, rho_th the thermal state of mean sigma^2,
whose populations are (1 - s) s^n, s = sigma^2/(1 + sigma^2). For a meter
row D(alpha) S(r)|0>, D(-b) D(alpha) is D(alpha - b) up to a phase, so each
read is a Fock series over the first K levels of :func:`fock.yuen_blocks`
at any gain and any meter size, with no meter state; its reference is
the test suite's loss-channel kernel on truncated rows. The homodyne read
is its twin, each meter at rest at shifted outcomes
(:func:`measurement.effective_povm_numeric`). The numeric POVM and the
heterodyne cost gate of ``povm`` import this module on first use, so a
command that reads no heterodyne POVM neither compiles nor holds it.
"""
from __future__ import annotations

import math

import numpy as np

from .fock import yuen_blocks

# s^K, the largest share of a read that its K terms leave out
SERIES_TAIL = 1e-17


def series_terms(sigma2: float) -> int:
    """K, the fewest terms of :func:`meter_reads` with s^K <= SERIES_TAIL:
    1 at sigma^2 = 0, 57 at 1, and about 39/eta at a small efficiency eta."""
    if not sigma2:
        return 1
    k = math.ceil(math.log(SERIES_TAIL) / -math.log1p(1.0 / sigma2))  # log s
    return k + ((sigma2 / (1.0 + sigma2)) ** k > SERIES_TAIL)


def meter_reads(meter, alphas, betas, sigma2: float) -> np.ndarray:
    """<chi_k|M_b|chi_k> = (1 - s)/pi sum_{n<K} s^n |<n|D(alpha_k - b) S(r)|0>|^2
    for each outcome b (rows) and untruncated meter row chi_k = D(alpha_k)
    S(r)|0> (columns), K = :func:`series_terms`.

    The amplitudes are the blocks c 2^e of :func:`fock.yuen_blocks` over
    ~2**11 (outcome, row) pairs at a time. Each term s^n |c_n|^2 takes the
    power of two 4^e last (exact above ~1e-300), so the terms that carry a
    read survive where e^{-|alpha - b|^2/2} underflows; they are summed in
    level order, so a read is the same bit for bit in any batch.
    """
    s, k = sigma2 / (1.0 + sigma2), series_terms(sigma2)
    out = np.zeros((betas.size, alphas.size))
    rows = max(1, 2 ** 11 // alphas.size)
    for lo in range(0, betas.size, rows):
        n, acc = 0, out[lo:lo + rows]
        for c, e in yuen_blocks(alphas - betas[lo:lo + rows, None], meter.r):
            terms = c[:k - n].real ** 2 + c[:k - n].imag ** 2
            terms *= (s ** np.arange(n, n + len(terms)))[:, None, None] * np.ldexp(1.0, 2 * e)
            for term in terms:
                acc += term
            n += len(terms)
            if n == k:
                break
    return ((1.0 - s) / math.pi) * out
