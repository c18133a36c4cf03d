"""The heterodyne read of the numeric effective POVM, in the outcome frame.

A heterodyne detector with added noise sigma^2 has the element
M_b = D(b) rho_th D(b)^dag / pi, rho_th the thermal state of mean sigma^2,
whose populations are (1 - s) s^n, s = sigma^2/(1 + sigma^2). For a meter
row D(alpha) S(r)|0>, D(-b) D(alpha) is D(alpha - b) up to a phase, so each
read is a Fock series of K terms at any gain and any meter size, with no
meter state. :func:`measurement.effective_povm_numeric` and ``povm``'s cost
gate import this module on first use, so a command that reads no heterodyne
POVM neither compiles nor holds it.
"""
from __future__ import annotations

import math

import numpy as np

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

    Every meter runs Yuen's recurrence (:func:`amplifiers.displaced_meter_ket`;
    at r = 0 it is the Poisson series) from the explicit c_0 =
    sech(r)^{1/2} e^{-|beta|^2/2 - tanh(r) beta*^2/2}, as running sums over
    a block of outcomes. Each entry keeps its own log scale, and every
    ``step`` terms (set by the call's largest |alpha - b|, not by the block)
    its largest term is taken out: none leaves the float range.
    """
    s = sigma2 / (1.0 + sigma2)
    t, k = math.tanh(meter.r), series_terms(sigma2)
    reach = max((float(np.abs(betas - a).max(initial=0.0)) for a in alphas), default=0.0)
    step = max(1, int(150 / math.log10(2.0 + 2.0 * reach)))  # |gamma| < 2 reach
    out = np.empty((betas.size, alphas.size))
    rows = max(1, 2 ** 16 // alphas.size)
    for lo in range(0, betas.size, rows):
        beta = alphas - betas[lo:lo + rows, None]
        b2 = beta.conj() ** 2  # c_n = c e^{log}, sum s^j |c_j|^2 = acc e^{2 log}
        gamma = beta + t * beta.conj()
        log = -0.5 * (beta.real ** 2 + beta.imag ** 2 + t * b2.real)
        c = np.exp(-0.5j * t * b2.imag) / math.sqrt(math.cosh(meter.r))
        prev, acc, sn = np.zeros_like(c), np.abs(c) ** 2, 1.0
        for n in range(1, k):
            c, prev = (gamma * c - t * math.sqrt(n - 1) * prev) / math.sqrt(n), c
            sn *= s
            acc += sn * (c.real ** 2 + c.imag ** 2)
            if n % step == 0:
                f = np.maximum(np.maximum(np.abs(c), np.abs(prev)), np.sqrt(acc))
                c, prev, acc = c / f, prev / f, acc / (f * f)
                log += np.log(f)
        log *= 2.0
        with np.errstate(divide="ignore"):  # acc is 0 only far below 1e-308
            out[lo:lo + rows] = ((1.0 - s) / math.pi) * np.exp(log + np.log(acc))
    return out
