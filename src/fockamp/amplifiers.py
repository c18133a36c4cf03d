"""Amplifier models on truncated Fock spaces.

Five variants share the package:

* linear phase-preserving: a_out = g a + sqrt(g^2-1) b^dag, realized by a
  two-mode squeezer with g = cosh(r);
* two-mode normal-signal: b_out = g f + b from H = -i kappa (f^dag b - f b^dag),
  g = kappa t, valid for any normal f;
* von Neumann pointer coupling for Hermitian f: H = sqrt(2) kappa f p_b, which
  shifts the meter position by sqrt(2) g f;
* three-mode two-meter coupling H = kappa (f_R p_b + f_I p_c) with
  f = (f_R + i f_I)/sqrt(2), writing the real and imaginary parts of f onto
  the meter positions;
* single-mode phase-sensitive: a_out = i g f(x) + cosh(r) a + sinh(r) a^dag.

The signal always appears with gain in a meter quadrature; the added noise of
the nonlinear variants is the meter preparation noise and is gain independent.
One table, :func:`meter_table`, describes that readout for each nonlinear
variant: simulation, the moment reports, the numeric effective POVM and the
POVM model (:func:`measurement.povm_model`) all read it. Simulation of a
nonlinear variant reads each meter's mixture of displaced rows over the
eigenspaces of f and forms no composite state; that composite is the test
reference :func:`oracles.spectral_output`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GainOutOfRange, NotHermitian, TruncationError
from .fock import (FockSpace, Operator, SpectralDecomposition, State,
                   annihilation_op, complex_ldexp, guard_keep, normal_decompose,
                   partial_trace, quadrature_ops, squeezed_vacuum,
                   symmetrized_moment, tensor, variance, yuen_blocks)

METER_DIM_CAP = 4096
# norm an auto-sized meter row leaves past its cutoff (mass 1e-26): a
# homodyne read is a quadratic form of a dense element, so it errs linearly
# in this norm, not in the mass
METER_TAIL = 1e-13
# probability a meter row at given dims, or an output mode's cutoff level,
# may hold past its truncation
TRUNCATION_TOL = 1e-6
R_MAX = 512 * math.log(2.0)  # largest meter |r|: e^{2|r|} rounds to a float


# ---------------------------------------------------------------------------
# meter preparations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Meter:
    """Internal-mode preparation: vacuum, squeezed(r), or gaussian(epsilon).

    Each is the squeezed vacuum of one parameter, which the constructor
    stores in ``r``: 0 for vacuum, r for squeezed and -ln epsilon for
    gaussian. Every method reads that one value, which R_MAX bounds.
    """

    kind: str = "vacuum"
    r: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.kind not in ("vacuum", "squeezed", "gaussian"):
            raise ValueError(f"unknown meter kind {self.kind!r}")
        if self.kind == "gaussian" and self.epsilon <= 0:
            raise ValueError("gaussian meter needs epsilon > 0")
        if self.kind != "squeezed":
            object.__setattr__(self, "r", -math.log(self.epsilon)
                               if self.kind == "gaussian" else 0.0)
        if not abs(self.r) <= R_MAX:
            raise ValueError(f"meter r = {self.r:.6g} puts e^(2|r|) past the float range")

    def x_variance(self) -> float:
        return 0.5 * math.exp(-2 * self.r)

    def p_variance(self) -> float:
        return 0.5 * math.exp(2 * self.r)

    def symmetrized_variance(self) -> float:
        return 0.5 * (self.x_variance() + self.p_variance())

    def state(self, dim: int) -> State:
        return squeezed_vacuum(FockSpace(dim), self.r)


VACUUM = Meter()


# ---------------------------------------------------------------------------
# amplifier specs
# ---------------------------------------------------------------------------

def _is_hermitian(f: Operator) -> bool:
    """Whether f - f^dag is at most 1e-10 max(1, max|f|)."""
    return f.hermiticity_residual() <= 1e-10 * max(1.0, float(np.abs(f.matrix).max()))


@dataclass(frozen=True)
class LinearAmp:
    g: float
    meter: Meter = VACUUM

    def __post_init__(self):
        if self.g < 1.0:
            raise GainOutOfRange(f"linear amplifier needs g >= 1, got {self.g}")


@dataclass(frozen=True)
class TwoModeNormalAmp:
    f: Operator
    g: float
    meter: Meter = VACUUM
    dec: SpectralDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("two-mode amplifier needs g > 0")
        object.__setattr__(self, "dec", normal_decompose(self.f))


@dataclass(frozen=True)
class VonNeumannAmp:
    f: Operator
    g: float
    meter: Meter = VACUUM
    dec: SpectralDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("von Neumann amplifier needs g > 0")
        if not _is_hermitian(self.f):
            raise NotHermitian(
                f"signal operator residual {self.f.hermiticity_residual():.2e}")
        object.__setattr__(self, "dec", normal_decompose(self.f))


@dataclass(frozen=True)
class ThreeModeAmp:
    f: Operator
    g: float
    meter_b: Meter = VACUUM
    meter_c: Meter = VACUUM
    dec: SpectralDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("three-mode amplifier needs g > 0")
        object.__setattr__(self, "dec", normal_decompose(self.f))


@dataclass(frozen=True)
class SingleModeAmp:
    """a_out = i g f(x) + cosh(r) a + sinh(r) a^dag.

    ``f_of_x`` is a real-valued callable or an ascending-power coefficient
    sequence; the phases are fixed (rotation 0, gain phase pi/2, squeeze
    angle -pi/2), which is what makes x_out = e^r x carry no signal.
    """

    f_of_x: object
    g: float
    r: float = 0.0

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("single-mode amplifier needs g > 0")
        if self.r < 0:
            raise ValueError("single-mode amplifier needs r >= 0")


# ---------------------------------------------------------------------------
# signal operators
# ---------------------------------------------------------------------------

def quadratic_signal_op(space: FockSpace, alpha, beta, gamma,
                        delta) -> tuple[Operator, bool]:
    """f = alpha a^2 + beta a^dag a + gamma a^dag^2 + delta 1, plus normality flag.

    Normality holds iff |alpha|^2 = |gamma|^2 and alpha beta* = beta gamma*
    (delta is unconstrained); the flag tests those conditions to within
    1e-9 max(1, |alpha|, |beta|, |gamma|)^2, it does not raise.
    """
    alpha, beta, gamma, delta = (complex(alpha), complex(beta), complex(gamma),
                                 complex(delta))
    a = annihilation_op(space).matrix
    ad = a.conj().T
    m = (alpha * (a @ a) + beta * (ad @ a) + gamma * (ad @ ad)
         + delta * np.eye(space.dim))
    tol = 1e-9 * max(1.0, abs(alpha), abs(beta), abs(gamma)) ** 2
    is_normal = (abs(abs(alpha) ** 2 - abs(gamma) ** 2) < tol
                 and abs(alpha * beta.conjugate() - beta * gamma.conjugate()) < tol)
    return Operator(space, m), bool(is_normal)


def real_imag_parts(f: Operator) -> tuple[Operator, Operator]:
    """f_R = (f + f^dag)/sqrt(2), f_I = -i(f - f^dag)/sqrt(2); f = (f_R + i f_I)/sqrt(2)."""
    m = f.matrix
    fr = (m + m.conj().T) / np.sqrt(2.0)
    fi = -1j * (m - m.conj().T) / np.sqrt(2.0)
    return Operator(f.space, fr), Operator(f.space, fi)


def _f_of_x_operator(f_of_x, space: FockSpace) -> Operator:
    """Build f(x) by functional calculus on the truncated x quadrature; a
    coefficient sequence (ascending powers) is summed by Horner's rule."""
    x, _ = quadrature_ops(space)
    dec = normal_decompose(x)
    func = f_of_x if callable(f_of_x) else \
        lambda t, c=np.asarray(f_of_x, dtype=float)[::-1]: np.polyval(c, t)
    vals = np.array([func(t) for t in np.real(dec.eigenvalues)], dtype=float)
    v = dec.eigenvectors
    fm = (v * vals) @ v.conj().T
    fm = (fm + fm.conj().T) / 2.0
    return Operator(space, fm)


# ---------------------------------------------------------------------------
# squeezer chains
# ---------------------------------------------------------------------------

def _squeezer_chains(g: float, dims: tuple[int, int]):
    """(indices, block) of the linear squeezer on each photon-difference chain.

    The generator K = r (a^dag b^dag - a b), g = cosh(r), keeps n_a - n_b
    fixed, truncated or not, so exp(K) is block diagonal over the
    d_a + d_b - 1 chains |n_a, n_b>, |n_a + 1, n_b + 1>, ... On a chain K is
    P (i T) P^dag with P = diag((-i)^k) and T real symmetric tridiagonal
    with zero diagonal and off-diagonals r sqrt((n_a+1)(n_b+1)); one eigh of
    T gives the block P exp(i T) P^dag. ``indices`` are the chain's flat
    positions n_a d_b + n_b in the composite space.
    """
    if g < 1.0:
        raise GainOutOfRange(f"linear amplifier needs g >= 1, got {g}")
    da, db = dims
    r = math.acosh(g)
    for delta in range(1 - db, da):
        na0, nb0 = max(delta, 0), max(-delta, 0)
        k = np.arange(min(da - na0, db - nb0))
        # eigh reads the upper triangle only: the superdiagonal of T
        off = r * np.sqrt((na0 + k[1:]) * (nb0 + k[1:]))
        w, v = np.linalg.eigh(np.diag(off, 1), UPLO="U")
        p = np.array([1, -1j, -1, 1j])[k % 4]
        yield (na0 + k) * db + nb0 + k, \
            (p[:, None] * ((v * np.exp(1j * w)) @ v.T)) * p.conj()


# ---------------------------------------------------------------------------
# moment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """First and second moments of the output.

    For a nonlinear variant these are the moments of its two readout
    quadratures (:func:`_readouts`): ``mean_out`` = (<q0> + i <q1>)/sqrt(2),
    ``symmetrized_noise`` the mean of their variances and ``added_noise``
    their noise less g^2 Var f_j: q0's for a Hermitian f on a single meter,
    else the mean of the two. The linear amplifier reports its signal mode
    and its symmetrized added noise.
    """

    mean_out: complex
    symmetrized_noise: float
    quad_means: tuple[float, float]
    quad_noises: tuple[float, float]
    added_noise: float


def _readouts(spec) -> list:
    """(f_j, part, meter, quadrature) of the two readout quadratures of a
    nonlinear variant: quadrature j reads sqrt(2) g f_j (:func:`real_imag_parts`),
    mean sqrt(2) g part(<f>), on x and p of a single meter or on x of each
    of two (indices into :func:`meter_table` and (x, p))."""
    second = (0, 1) if len(meter_table(spec)) == 1 else (1, 0)
    f_r, f_i = real_imag_parts(spec.f)
    return [(f_r, np.real, 0, 0), (f_i, np.imag, *second)]


def _readout_report(spec, quads) -> MomentReport:
    """MomentReport of a nonlinear variant from (variance, added noise,
    mean) of each of its two readout quadratures."""
    (v0, a0, m0), (v1, a1, m1) = quads
    single_hermitian = len(meter_table(spec)) == 1 and _is_hermitian(spec.f)
    return MomentReport(complex(m0, m1) / math.sqrt(2.0), 0.5 * (v0 + v1),
                        (m0, m1), (v0, v1),
                        a0 if single_hermitian else 0.5 * (a0 + a1))


def predict_output_moments(spec, input_a: State) -> MomentReport:
    """Closed-form output moments from input-state moments; no unitary applied.

    A nonlinear variant's readout quadrature adds to g^2 Var f_j the
    variance of that quadrature in its meter's preparation.
    """
    if isinstance(spec, SingleModeAmp):
        return single_mode_output_moments(spec.f_of_x, spec.g, spec.r, input_a)
    if isinstance(spec, LinearAmp):
        g = spec.g
        a = annihilation_op(input_a.space)
        x, p = quadrature_ops(input_a.space)
        vxb, vpb = spec.meter.x_variance(), spec.meter.p_variance()
        sym_b = spec.meter.symmetrized_variance()
        sym = g * g * symmetrized_moment(input_a, a) + (g * g - 1.0) * sym_b
        qm = (g * float(np.real(input_a.expectation(x))),
              g * float(np.real(input_a.expectation(p))))
        qn = (g * g * variance(input_a, x) + (g * g - 1) * vxb,
              g * g * variance(input_a, p) + (g * g - 1) * vpb)
        return MomentReport(g * input_a.expectation(a), sym, qm, qn,
                            (g * g - 1.0) * sym_b)
    table, g = meter_table(spec), spec.g
    mean = input_a.expectation(spec.f)
    quads = []
    for f_j, part, i, q in _readouts(spec):
        noise = (table[i][0].x_variance(), table[i][0].p_variance())[q]
        quads.append((g * g * variance(input_a, f_j) + noise, noise,
                      g * math.sqrt(2.0) * float(part(mean))))
    return _readout_report(spec, quads)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def displaced_meter_ket(meter: Meter, dim: int | None, alphas) -> np.ndarray:
    """The one meter pass: rows D(alpha) S(r)|0> of the meter at ``dim``
    levels, or at its auto size if ``dim`` is None, renormalized.

    The rows are blocks of :func:`fock.yuen_blocks`, O(d) per row with no
    matrix (``meter.state(d)`` at alpha = 0), and the untruncated row has
    unit norm, so every level's mass is absolute.

    The auto size is the first n (at least 2) past which no row holds more
    than METER_TAIL^2 of its mass, summed from the far end, so nothing
    cancels. The far end is the first block, past every row's median, whose
    levels each hold at most 1e-6 (1 - |tanh r|) METER_TAIL^2; past it the
    rows fall off geometrically, toward |tanh r| per level, so what they
    leave out is a few millionths of the tolerance. An auto size past
    METER_DIM_CAP raises TruncationError, as does a row that leaves more
    than TRUNCATION_TOL past a given ``dim``.
    """
    alphas = np.ravel(alphas).astype(complex)
    far = 1e-6 * (1.0 - abs(math.tanh(meter.r))) * METER_TAIL ** 2
    levels, kept, n, d = [], 0.0, 0, dim
    blocks = yuen_blocks(alphas, meter.r)
    while d is None or n < d:
        out = complex_ldexp(*next(blocks))[:None if dim is None else dim - n]
        levels.append(out)
        mass = out.real ** 2 + out.imag ** 2
        kept, n = kept + mass.sum(axis=0), n + len(out)
        if dim is not None:
            continue
        if np.min(kept) >= 0.5 and mass.max() <= far:
            rest = np.cumsum(np.abs(np.concatenate(levels)[::-1]) ** 2, axis=0)[::-1]
            d = max(2, int(np.argmax(rest.max(axis=1) <= METER_TAIL ** 2)))
        elif n > METER_DIM_CAP and np.max(1.0 - kept) > 1e-12:
            d = n  # the tail past the cap alone is far above METER_TAIL^2
    if dim is None and d > METER_DIM_CAP:
        raise TruncationError(
            f"meter (r {meter.r:.3g}) displaced by up to {np.abs(alphas).max():.1f} "
            f"would need more than the cap of {METER_DIM_CAP} levels")
    lost = float(np.max(1.0 - kept))
    if dim is not None and lost > TRUNCATION_TOL:
        raise TruncationError(
            f"a meter row drops {lost:.2e} of its norm past its cutoff at dim "
            f"{dim} (> {TRUNCATION_TOL:.0e}); enlarge the meter")
    rows = np.concatenate(levels)[:d].T
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def meter_table(spec) -> list:
    """(meter, part) for each meter of a nonlinear variant.

    On the eigenspace of f with eigenvalue lam the coupling displaces each
    meter by a drive times ``part(lam)``: the whole eigenvalue for the
    two-mode coupling, its real part for the von Neumann coupling, and its
    real and imaginary parts on the b and c meters for the three-mode one.
    """
    if isinstance(spec, TwoModeNormalAmp):
        return [(spec.meter, np.asarray)]
    if isinstance(spec, VonNeumannAmp):
        return [(spec.meter, np.real)]
    if isinstance(spec, ThreeModeAmp):
        return [(spec.meter_b, np.real), (spec.meter_c, np.imag)]
    raise TypeError(f"no meters for {type(spec)!r}")


def _meter_rows(spec, lam, dims) -> list[np.ndarray]:
    """The rows D(part(lam)) S(r)|0> of each meter of :func:`meter_table`, one
    per value of ``lam``, at ``dims`` or auto-sized if None, each by one pass
    of :func:`displaced_meter_ket`."""
    table = meter_table(spec)
    return [displaced_meter_ket(m, d, part(lam))
            for (m, part), d in zip(table, dims or [None] * len(table), strict=True)]


def simulate_output_state(spec, input_a: State, dims=None) -> State:
    """Evolve input (x) meter under the linear amplifier and return the composite.

    The two-mode squeezer acts one photon-difference chain at a time
    (:func:`_squeeze`) on its meter at ``dims`` (the signal dimension if
    None). An output holding more than TRUNCATION_TOL on either mode's
    cutoff raises TruncationError. A nonlinear variant's composite is the
    test reference :func:`oracles.spectral_output`; its moments need none
    (:func:`simulated_output_moments`).
    """
    if not isinstance(spec, LinearAmp):
        raise TypeError(f"simulate_output_state evolves a LinearAmp, not {type(spec).__name__}; "
                        "a nonlinear variant's composite output is oracles.spectral_output")
    meter = spec.meter.state(dims[0] if dims else input_a.space.dim)
    out = _squeeze(spec.g, tensor(input_a, meter))
    prob = out.probabilities().reshape(out.space.dims)
    _check_top_occupancy([float(np.take(prob, d - 1, axis=mode).sum())
                          for mode, d in enumerate(out.space.dims)], out.space.dims)
    return out


def _check_top_occupancy(top, dims):
    """Reject an output holding more than TRUNCATION_TOL on any mode's
    cutoff, the first such mode by index; ``top`` holds those probabilities."""
    for mode, d in enumerate(dims):
        if top[mode] > TRUNCATION_TOL:
            raise TruncationError(
                f"mode {mode} holds {top[mode]:.2e} probability at its cutoff "
                f"(dim {d}); enlarge the truncation")


def _squeeze(g: float, state: State) -> State:
    """U psi, or U rho U^dag, of the linear squeezer on a two-mode state.

    Each chain block of :func:`_squeezer_chains` maps its own indices, rows
    first and then (for a density) columns, so U is never formed.
    """
    chains = list(_squeezer_chains(g, state.space.dims))
    out = np.empty(state.data.shape, dtype=complex)
    for idx, block in chains:
        out[idx] = block @ state.data[idx]
    if state.kind == "density":
        rows = out.copy()
        for idx, block in chains:
            out[:, idx] = rows[:, idx] @ block.conj().T
    return State(state.space, state.kind, out, state.norm_defect)


def _mode_quad_moments(reduced):
    """(mean_a, sym_a, <x>, <p>, Var x, Var p) of one mode whose reduced
    density rho is sum_k |chi_k><chi_k| over the rows chi_k of a (k, d)
    array, or is the data of a single-mode density State.

    Every moment comes from three diagonals r_k[n] = rho[n + k, n], k = 0, 1,
    2; rows give each r_k as one sum over k, so no d x d matrix is formed.
    Then <a> = sum sqrt(n+1) r_1, <a^2> = sum sqrt((n+1)(n+2)) r_2 and
    <a^dag a + a a^dag> = sum n r_0 + sum_{n<d-1} (n+1) r_0: the truncated
    a a^dag gives the cutoff level 0, as the matrix products do.
    """
    if isinstance(reduced, State):
        d = reduced.space.dim
        r0, r1, r2 = (np.diag(reduced.data, -k) for k in range(3))
    else:
        d = reduced.shape[1]
        r0, r1, r2 = (np.einsum("in,in->n", reduced[:, k:], reduced[:, :d - k].conj())
                      for k in range(3))
    up = np.sqrt(np.arange(1.0, d))
    pops = r0.real
    mean = complex(up @ r1)
    re_a2 = float(np.real((up[:-1] * up[1:]) @ r2))
    anti = float(np.arange(d) @ pops + np.arange(1.0, d) @ pops[:-1])
    mx, mp = math.sqrt(2.0) * mean.real, math.sqrt(2.0) * mean.imag
    return (mean, 0.5 * anti - abs(mean) ** 2, mx, mp,
            re_a2 + 0.5 * anti - mx * mx, -re_a2 + 0.5 * anti - mp * mp)


def simulated_output_moments(spec, input_a: State, dims=None) -> MomentReport:
    """MomentReport extracted from an actual evolution (matrix moments).

    A nonlinear variant forms no composite: each meter's reduced state is
    the mixture sum_k p_k |chi_k><chi_k| of its displaced rows over the
    eigenspaces the input populates, p_k = <P_k>, and the cutoffs are
    checked as the composite's would be (README, simulation).
    """
    if isinstance(spec, SingleModeAmp):
        return _single_mode_matrix_report(spec, input_a)
    if isinstance(spec, LinearAmp):
        out = simulate_output_state(spec, input_a, dims=dims)
        reduced = out.data.reshape(out.space.dims).T if out.kind == "ket" \
            else partial_trace(out, 0)
        mean, sym, mx, mp, vx, vp = _mode_quad_moments(reduced)
        added = sym - spec.g * spec.g * symmetrized_moment(
            input_a, annihilation_op(input_a.space))
        return MomentReport(mean, sym, (mx, mp), (vx, vp), added)
    readouts, dec = _readouts(spec), spec.dec
    p = dec.eigenspace_weights(input_a)
    used = np.flatnonzero(p >= 1e-32)
    total = p[used].sum()
    meters = _meter_rows(spec, spec.g * dec.eigenvalues[dec.heads[used]], dims)
    overlaps = np.prod([rows.conj() @ rows.T for rows in meters], axis=0)
    vecs, top = dec.eigenvectors, dec.eigenvectors[-1]
    b = top[:, None] * (vecs.conj().T @ input_a.to_density().data @ vecs) * top.conj()
    b = np.add.reduceat(np.add.reduceat(b, dec.heads, axis=0), dec.heads, axis=1)
    _check_top_occupancy(
        [float(np.real(np.sum(b[np.ix_(used, used)] * overlaps.T))) / total]
        + [float(p[used] @ np.abs(rows[:, -1]) ** 2) / total for rows in meters],
        (input_a.space.dim,) + tuple(rows.shape[1] for rows in meters))
    # (<x>, <p>) and (Var x, Var p) of meter i at 2 + q and 4 + q
    moments = [_mode_quad_moments(np.sqrt(p[used] / total)[:, None] * rows)
               for rows in meters]
    quads = []
    for f_j, _, i, q in readouts:
        v = moments[i][4 + q]
        quads.append((v, v - spec.g * spec.g * variance(input_a, f_j),
                      moments[i][2 + q]))
    return _readout_report(spec, quads)


# ---------------------------------------------------------------------------
# single-mode variant
# ---------------------------------------------------------------------------

def single_mode_output_ops(f_of_x, g: float, r: float, space: FockSpace):
    """Heisenberg output operators (a_out, x_out, p_out) as matrices.

    a_out = i g f(x) + cosh(r) a + sinh(r) a^dag; the quadratures are
    assembled from a_out, so x_out = e^r x and p_out = sqrt(2) g f(x)
    + e^{-r} p hold as matrix identities away from the cutoff.
    """
    fop = _f_of_x_operator(f_of_x, space)
    a = annihilation_op(space).matrix
    a_out = 1j * g * fop.matrix + math.cosh(r) * a + math.sinh(r) * a.conj().T
    x_out = (a_out + a_out.conj().T) / math.sqrt(2.0)
    p_out = -1j * (a_out - a_out.conj().T) / math.sqrt(2.0)
    sp = space
    return (Operator(sp, a_out), Operator(sp, x_out), Operator(sp, p_out), fop)


def single_mode_output_moments(f_of_x, g: float, r: float,
                               input_state: State) -> MomentReport:
    """Analytic single-mode output moments, exact cross term included.

    <x_out> = e^r <x>, <p_out> = sqrt(2) g <f(x)> + e^{-r} <p>, and
    Var p_out = 2 g^2 Var f + sqrt(2) g e^{-r} (<{f, p}> - 2<f><p>)
    + e^{-2r} Var p. The O(g e^{-r}) statement of the large-squeezing limit
    is checked against this exact value in the tests.
    """
    space = input_state.space
    fop = _f_of_x_operator(f_of_x, space)
    x, p = quadrature_ops(space)
    a = annihilation_op(space)
    er, emr = math.exp(r), math.exp(-r)
    mf = float(np.real(input_state.expectation(fop)))
    mx = float(np.real(input_state.expectation(x)))
    mp = float(np.real(input_state.expectation(p)))
    vf = variance(input_state, fop)
    vx = variance(input_state, x)
    vp = variance(input_state, p)
    anti = fop.matrix @ p.matrix + p.matrix @ fop.matrix
    cross = float(np.real(input_state.expectation(Operator(space, anti)))) - 2 * mf * mp
    mean_a = complex(input_state.expectation(a))
    mean_out = 1j * g * mf + math.cosh(r) * mean_a + math.sinh(r) * mean_a.conjugate()
    vx_out = er * er * vx
    vp_out = 2 * g * g * vf + math.sqrt(2.0) * g * emr * cross + emr * emr * vp
    return MomentReport(
        mean_out,
        0.5 * (vx_out + vp_out),
        (er * mx, math.sqrt(2.0) * g * mf + emr * mp),
        (vx_out, vp_out),
        vp_out - 2 * g * g * vf,
    )


def _single_mode_matrix_report(spec: SingleModeAmp, input_state: State) -> MomentReport:
    """Moment report from the assembled Heisenberg matrices (simulation side)."""
    a_out, x_out, p_out, fop = single_mode_output_ops(
        spec.f_of_x, spec.g, spec.r, input_state.space)
    mean = complex(input_state.expectation(a_out))
    mx = float(np.real(input_state.expectation(x_out)))
    mp = float(np.real(input_state.expectation(p_out)))
    vx = variance(input_state, x_out)
    vp = variance(input_state, p_out)
    vf = variance(input_state, fop)
    return MomentReport(mean, 0.5 * (vx + vp), (mx, mp), (vx, vp),
                        vp - 2 * spec.g * spec.g * vf)


def single_mode_commutator_residual(f_of_x, g: float, r: float,
                                    space: FockSpace) -> float:
    """|| P([a_out, a_out^dag] - 1) P ||_max on the guarded subspace."""
    a_out, _, _, _ = single_mode_output_ops(f_of_x, g, r, space)
    m = a_out.matrix
    c = m @ m.conj().T - m.conj().T @ m - np.eye(space.dim)
    k = guard_keep(space.dim)
    return float(np.abs(c[:k, :k]).max())
