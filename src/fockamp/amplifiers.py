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
POVM model (:func:`measurement.povm_model`) all read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GainOutOfRange, NotHermitian, TruncationError
from .fock import (FockSpace, Operator, SpectralDecomposition, State,
                   _coherent_amplitudes, annihilation_op, guard_keep,
                   normal_decompose, partial_trace, quadrature_ops,
                   squeezed_vacuum, symmetrized_moment, tensor, variance)

METER_DIM_CAP = 4096
METER_DIM_FLOOR = 24
# probability (or mean quanta) a meter may lose to its truncation
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

    def fock_levels(self) -> int:
        """Fewest Fock levels whose complement holds at most 1e-6 mean quanta.

        The discarded mean photon number bounds what the truncation does to
        the meter's second moments. A squeezed vacuum puts
        p_2k = sech(r) tanh(r)^2k (2k)!/(4^k k!^2) on level 2k and holds
        sinh(r)^2 quanta in all; the count stops past METER_DIM_CAP.
        """
        r = abs(self.r)
        t2 = math.tanh(r) ** 2
        tail = math.sinh(r) ** 2
        p = 1.0 / math.cosh(r)
        k = 0
        while tail > TRUNCATION_TOL and 2 * k < METER_DIM_CAP:
            tail -= 2 * k * p
            k += 1
            p *= t2 * (2 * k - 1) / (2 * k)
        return max(1, 2 * k - 1)


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
# meter sizing and squeezer chains
# ---------------------------------------------------------------------------

def meter_dim_for(g: float, f_max: float, meter: Meter | None = None,
                  alphas=()) -> int:
    """Meter truncation that holds a displacement of size g*f_max: (g f_max + 6)^2.

    The size is at least METER_DIM_FLOOR. Given the ``meter`` preparation
    and the displacements ``alphas`` it undergoes, that size stays wherever
    the meter fits there: its own tail holds at most 1e-6 quanta
    (:meth:`Meter.fock_levels`) and no displaced copy D(alpha)|meter> puts
    more than 1e-6 on the cutoff. Otherwise (strongly squeezed meters) the
    meter's own levels are added on top of the displacement's. Without
    ``alphas`` nothing is built, and the size is a lower bound on the probed
    one. Sizes past METER_DIM_CAP raise TruncationError.
    """
    return _sized_meter(g, f_max, meter, alphas)[0]


def _sized_meter(g: float, f_max: float, meter: Meter | None, alphas):
    """(:func:`meter_dim_for`, the rows its probe built at that size or None)."""
    need = max(METER_DIM_FLOOR, int(math.ceil((g * f_max + 6.0) ** 2)))
    rows = None
    if meter is not None and need <= METER_DIM_CAP:
        levels = meter.fock_levels()
        if levels <= need and np.size(alphas):
            rows = displaced_meter_ket(meter, need, alphas)
        if levels > need or _cutoff_occupancy(rows) > TRUNCATION_TOL:
            need, rows = need + levels, None
    if need > METER_DIM_CAP:
        raise TruncationError(
            f"meter would need dim {need} > cap {METER_DIM_CAP} for "
            f"displacement {g * f_max:.1f}")
    return need, rows


def _cutoff_occupancy(rows) -> float:
    """Largest probability that a displaced row puts on the meter's cutoff."""
    return 0.0 if rows is None else float(np.max(np.abs(rows[:, -1]) ** 2, initial=0.0))


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

def displaced_meter_ket(meter: Meter, dim: int, alphas) -> np.ndarray:
    """The one conditional-displacement kernel: rows D(alpha) S(r)|0> of the
    meter at ``dim`` levels, renormalized; alpha = 0 rows copy
    ``meter.state(dim)``. A vacuum meter's rows are coherent; a squeezed
    one's are the eigenvectors of mu a + nu a^dag (mu, nu = cosh r, sinh r)
    at gamma = mu alpha + nu alpha* (Yuen, PRA 13, 2226, 1976), so
    mu sqrt(n+1) c_{n+1} = gamma c_n - nu sqrt(n) c_{n-1}, run up from
    c_{-1} = 0 (row dim - 1, still 0) and the phase of c_0 = sech(r)^{1/2}
    e^{-|alpha|^2/2 - tanh(r) alpha*^2/2}: O(dim) per row, no matrix. |c|
    grows at most 2 max|alpha| + 1 per level; every ``step`` levels the rows
    are scaled back to 1, before they pass 1e150.
    """
    alphas = np.ravel(alphas).astype(complex)
    rows = np.tile(meter.state(dim).data, (alphas.size, 1))
    move = np.flatnonzero(alphas)
    if not move.size:
        return rows
    a = alphas[move]
    if meter.r == 0.0:
        c = _coherent_amplitudes(dim, a)
    else:
        t = math.tanh(meter.r)
        g = a + t * a.conj()  # gamma / mu
        c = np.zeros((dim, a.size), dtype=complex)
        c[0] = np.exp(-0.5j * t * (a.conj() ** 2).imag)
        step = max(1, int(150 / math.log10(2.0 * float(np.abs(a).max()) + 2.0)))
        for lo in range(0, dim - 1, step):
            hi = min(lo + step, dim - 1)
            for n in range(lo, hi):
                c[n + 1] = (g * c[n] - t * math.sqrt(n) * c[n - 1]) / math.sqrt(n + 1)
            c[:hi + 1] /= np.maximum(np.abs(c[hi - 1:hi + 1]).max(axis=0), 1.0)
    rows[move] = c.T / np.linalg.norm(c, axis=0)[:, None]
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


def prepare_meters(spec, drive: float,
                   dims=None) -> list[tuple[State, np.ndarray]]:
    """The meters of :func:`meter_table` at ``dims``, auto-sized if not given,
    each with its rows D(drive part(lam))|m> over the eigenspaces of f.

    Auto-sizing holds each meter's preparation and those displacements
    (:func:`meter_dim_for`), whose sizing probe hands its rows on. A meter
    whose truncation drops more than TRUNCATION_TOL of its norm raises
    TruncationError instead of being renormalized.
    """
    table, lam = meter_table(spec), spec.dec.eigenvalues[spec.dec.heads]
    sized = [(d, None) for d in dims] if dims else [
        _sized_meter(spec.g, float(np.abs(part(lam)).max()), m, drive * part(lam))
        for m, part in table]
    prepared = []
    for (m, part), (d, rows) in zip(table, sized, strict=True):
        st = m.state(d)
        if st.norm_defect > TRUNCATION_TOL:
            raise TruncationError(
                f"meter truncated at dim {d} drops {st.norm_defect:.2e} "
                f"of its norm (> {TRUNCATION_TOL:.0e}); enlarge the meter")
        prepared.append((st, displaced_meter_ket(m, d, drive * part(lam))
                         if rows is None else rows))
    return prepared


def displaced_rows(meter: State, rows: np.ndarray) -> np.ndarray:
    """``rows`` of displaced copies of ``meter``, once none puts more than
    TRUNCATION_TOL on the meter's cutoff."""
    worst = _cutoff_occupancy(rows)
    if worst > TRUNCATION_TOL:
        raise TruncationError(
            f"a displaced meter holds {worst:.2e} at its cutoff (dim "
            f"{meter.space.dim}, > {TRUNCATION_TOL:.0e}); enlarge the meter")
    return rows


def simulate_output_state(spec, input_a: State, dims=None) -> State:
    """Evolve input (x) meters under the amplifier unitary and return the composite.

    The meters of a nonlinear variant come from :func:`prepare_meters` at
    ``dims`` (auto-sized if None, driven at g), and kets and density
    matrices alike are assembled from conditional meter displacements in
    the signal eigenbasis (:func:`_spectral_output`); the linear amplifier
    applies its two-mode squeezer, one photon-difference chain at a time
    (:func:`_squeeze`), to its meter at ``dims`` (the signal dimension if
    None). A meter that drops more than 1e-6 of its norm, a
    displaced meter of a populated eigenvector that puts more than 1e-6 on
    its cutoff, and an output holding more than 1e-6 on any mode's cutoff
    raise TruncationError.
    """
    if isinstance(spec, SingleModeAmp):
        raise TypeError("single-mode variant has no internal mode; "
                        "use single_mode_output_moments / single_mode_output_ops")
    if isinstance(spec, LinearAmp):
        meter = spec.meter.state(dims[0] if dims else input_a.space.dim)
        out = _squeeze(spec.g, tensor(input_a, meter))
    else:
        meter_table(spec)  # TypeError before spec.g is read
        out = _spectral_output(spec, input_a, prepare_meters(spec, spec.g, dims))

    _check_top_occupancy(out)
    return out


def _check_top_occupancy(out: State):
    """Reject outputs holding more than TRUNCATION_TOL on any mode's cutoff."""
    dims = out.space.dims
    prob = out.probabilities().reshape(dims)
    for mode, d in enumerate(dims):
        top = float(np.take(prob, d - 1, axis=mode).sum())
        if top > TRUNCATION_TOL:
            raise TruncationError(
                f"mode {mode} holds {top:.2e} probability at its cutoff "
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


def _spectral_output(spec, input_a: State, meters) -> State:
    """Output via conditional meter displacements in the f eigenbasis.

    U acts on the eigenspace of f with eigenvalue lam_i as a meter
    displacement, so it maps e_i (x) meters to the column y_i = e_i (x) chi_i,
    where chi_i is the product over :func:`meter_table` of the displaced
    meters D(g part(lam_i))|m>, one per eigenspace. In the eigenbasis
    (c = V^dag psi, rho' = V^dag rho V) the output is Y c for a ket and
    Y rho' Y^dag for a density matrix. Eigenvectors the input does not
    populate (|c_i|^2 or rho'_ii below 1e-32) are skipped; for a density
    this is exact, since rho' is positive semidefinite.
    """
    v, ket = spec.dec.eigenvectors, input_a.kind == "ket"
    c = v.conj().T @ input_a.data if ket else v.conj().T @ input_a.data @ v
    keep = np.flatnonzero((np.abs(c) ** 2 if ket else np.real(np.diag(c))) >= 1e-32)
    c = c[keep] if ket else c[np.ix_(keep, keep)]
    chi = np.ones((keep.size, 1))
    for meter, rows in meters:
        rows = displaced_rows(meter, rows[np.searchsorted(spec.dec.heads, keep, "right") - 1])
        chi = (chi[:, :, None] * rows[:, None, :]).reshape(keep.size, -1)
    # y[(a, m), i] = v[a, i] chi_i[m]
    y = (v[:, None, keep] * chi.T).reshape(-1, keep.size)
    space = FockSpace((input_a.space.dim,) + tuple(m.space.dim for m, _ in meters))
    defect = input_a.norm_defect + sum(m.norm_defect for m, _ in meters)
    if ket:
        out = y @ c
        nrm = np.linalg.norm(out)
        return State(space, "ket", out / nrm, defect + max(0.0, 1.0 - nrm ** 2))
    out = y @ c @ y.conj().T
    tr = float(np.trace(out).real)
    return State(space, "density", out / tr, defect + max(0.0, 1.0 - tr))


def _mode_quad_moments(out: State, mode: int):
    """(mean_a, sym_a, <x>, <p>, Var x, Var p) of one mode of a composite.

    Every moment comes from three diagonals r_k[n] = rho[n + k, n], k = 0, 1,
    2, of the mode's reduced density rho. A ket, reshaped to (rest, d), gives
    each r_k as one sum over the other modes, so no d x d matrix is formed; a
    density gives them from its partial trace. Then <a> = sum sqrt(n+1) r_1,
    <a^2> = sum sqrt((n+1)(n+2)) r_2 and <a^dag a + a a^dag> = sum n r_0 +
    sum_{n<d-1} (n+1) r_0: the truncated a a^dag gives the cutoff level 0,
    as the matrix products do.
    """
    d = out.space.dims[mode]
    if out.kind == "ket":
        psi = np.moveaxis(out.data.reshape(out.space.dims), mode, -1).reshape(-1, d)
        r0, r1, r2 = (np.einsum("in,in->n", psi[:, k:], psi[:, :d - k].conj())
                      for k in range(3))
    else:
        rho = partial_trace(out, mode).data
        r0, r1, r2 = (np.diag(rho, -k) for k in range(3))
    up = np.sqrt(np.arange(1.0, d))
    pops = r0.real
    mean = complex(up @ r1)
    re_a2 = float(np.real((up[:-1] * up[1:]) @ r2))
    anti = float(np.arange(d) @ pops + np.arange(1.0, d) @ pops[:-1])
    mx, mp = math.sqrt(2.0) * mean.real, math.sqrt(2.0) * mean.imag
    return (mean, 0.5 * anti - abs(mean) ** 2, mx, mp,
            re_a2 + 0.5 * anti - mx * mx, -re_a2 + 0.5 * anti - mp * mp)


def simulated_output_moments(spec, input_a: State, dims=None) -> MomentReport:
    """MomentReport extracted from an actual evolution (matrix moments)."""
    if isinstance(spec, SingleModeAmp):
        return _single_mode_matrix_report(spec, input_a)
    if isinstance(spec, LinearAmp):
        out = simulate_output_state(spec, input_a, dims=dims)
        mean, sym, mx, mp, vx, vp = _mode_quad_moments(out, 0)
        added = sym - spec.g * spec.g * symmetrized_moment(
            input_a, annihilation_op(input_a.space))
        return MomentReport(mean, sym, (mx, mp), (vx, vp), added)
    readouts = _readouts(spec)
    out = simulate_output_state(spec, input_a, dims=dims)
    # meter i is mode i + 1; (<x>, <p>) and (Var x, Var p) at 2 + q and 4 + q
    moments = [_mode_quad_moments(out, i) for i in range(1, out.space.n_modes)]
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
