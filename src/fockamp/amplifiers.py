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
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, GainOutOfRange, NotHermitian, NotNormal,
                     TruncationError)
from .fock import (FockSpace, Operator, SpectralDecomposition, State,
                   annihilation_op, cv_swap, displacement_matrix,
                   expm_hermitian, gaussian_meter, mode_expectation,
                   mode_symmetrized_moment, normal_decompose, quadrature_ops,
                   squeezed_vacuum, symmetrized_moment, tensor, vacuum_state,
                   variance)

METER_DIM_CAP = 4096
METER_DIM_FLOOR = 24
# probability (or mean quanta) a meter may lose to its truncation
TRUNCATION_TOL = 1e-6


# ---------------------------------------------------------------------------
# meter preparations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Meter:
    """Internal-mode preparation: vacuum, squeezed(r), or gaussian(epsilon)."""

    kind: str = "vacuum"
    r: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.kind not in ("vacuum", "squeezed", "gaussian"):
            raise ValueError(f"unknown meter kind {self.kind!r}")
        if self.kind == "gaussian" and self.epsilon <= 0:
            raise ValueError("gaussian meter needs epsilon > 0")

    def x_variance(self) -> float:
        if self.kind == "vacuum":
            return 0.5
        if self.kind == "squeezed":
            return 0.5 * math.exp(-2 * self.r)
        return 0.5 * self.epsilon ** 2

    def p_variance(self) -> float:
        if self.kind == "vacuum":
            return 0.5
        if self.kind == "squeezed":
            return 0.5 * math.exp(2 * self.r)
        return 0.5 / self.epsilon ** 2

    def symmetrized_variance(self) -> float:
        return 0.5 * (self.x_variance() + self.p_variance())

    def state(self, dim: int) -> State:
        sp = FockSpace(dim)
        if self.kind == "vacuum":
            return vacuum_state(sp)
        if self.kind == "squeezed":
            return squeezed_vacuum(sp, self.r)
        return gaussian_meter(sp, self.epsilon)

    def fock_levels(self) -> int:
        """Fewest Fock levels whose complement holds at most 1e-6 mean quanta.

        The discarded mean photon number bounds what the truncation does to
        the meter's second moments. A squeezed vacuum puts
        p_2k = sech(r) tanh(r)^2k (2k)!/(4^k k!^2) on level 2k and holds
        sinh(r)^2 quanta in all; the count stops past METER_DIM_CAP.
        """
        r = abs(self.r if self.kind == "squeezed"
                else -math.log(self.epsilon) if self.kind == "gaussian" else 0.0)
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

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("two-mode amplifier needs g > 0")
        norm = self.f.commutator_norm()
        scale = max(1.0, float(np.abs(self.f.matrix).max()))
        if norm >= 1e-9 * scale:
            raise NotNormal(f"signal operator not normal, [f,f^dag] = {norm:.2e}", norm)


@dataclass(frozen=True)
class VonNeumannAmp:
    f: Operator
    g: float
    meter: Meter = VACUUM

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("von Neumann amplifier needs g > 0")
        res = self.f.hermiticity_residual()
        if res > 1e-10 * max(1.0, float(np.abs(self.f.matrix).max())):
            raise NotHermitian(f"signal operator residual {res:.2e}")


@dataclass(frozen=True)
class ThreeModeAmp:
    f: Operator
    g: float
    meter_b: Meter = VACUUM
    meter_c: Meter = VACUUM

    def __post_init__(self):
        if self.g <= 0:
            raise GainOutOfRange("three-mode amplifier needs g > 0")
        norm = self.f.commutator_norm()
        scale = max(1.0, float(np.abs(self.f.matrix).max()))
        if norm >= 1e-9 * scale:
            raise NotNormal(f"signal operator not normal, [f,f^dag] = {norm:.2e}", norm)


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


AmplifierSpec = (LinearAmp, TwoModeNormalAmp, VonNeumannAmp, ThreeModeAmp,
                 SingleModeAmp)


def output_modes(spec) -> tuple[int, ...]:
    """Mode indices carrying the amplified signal after evolution."""
    if isinstance(spec, LinearAmp):
        return (0,)
    if isinstance(spec, (TwoModeNormalAmp, VonNeumannAmp)):
        return (1,)
    if isinstance(spec, ThreeModeAmp):
        return (1, 2)
    return (0,)


# ---------------------------------------------------------------------------
# signal operators
# ---------------------------------------------------------------------------

def quadratic_signal_op(space: FockSpace, alpha, beta, gamma, delta,
                        tol: float | None = None) -> tuple[Operator, bool]:
    """f = alpha a^2 + beta a^dag a + gamma a^dag^2 + delta 1, plus normality flag.

    Normality holds iff |alpha|^2 = |gamma|^2 and alpha beta* = beta gamma*
    (delta is unconstrained); the flag tests those conditions, it does not
    raise.
    """
    alpha, beta, gamma, delta = (complex(alpha), complex(beta), complex(gamma),
                                 complex(delta))
    a = annihilation_op(space).matrix
    ad = a.conj().T
    m = (alpha * (a @ a) + beta * (ad @ a) + gamma * (ad @ ad)
         + delta * np.eye(space.dim))
    if tol is None:
        s = max(1.0, abs(alpha), abs(beta), abs(gamma))
        tol = 1e-9 * s * s
    is_normal = (abs(abs(alpha) ** 2 - abs(gamma) ** 2) < tol
                 and abs(alpha * beta.conjugate() - beta * gamma.conjugate()) < tol)
    return Operator(space, m), bool(is_normal)


def f_plus(space: FockSpace) -> Operator:
    """Signal operator transducing x^2: (a^2 + a^dag^2)/2 + a^dag a + 1/2."""
    return quadratic_signal_op(space, 0.5, 1.0, 0.5, 0.5)[0]


def f_minus(space: FockSpace) -> Operator:
    """Signal operator transducing p^2."""
    return quadratic_signal_op(space, -0.5, 1.0, -0.5, 0.5)[0]


def real_imag_parts(f: Operator) -> tuple[Operator, Operator]:
    """f_R = (f + f^dag)/sqrt(2), f_I = -i(f - f^dag)/sqrt(2); f = (f_R + i f_I)/sqrt(2)."""
    m = f.matrix
    fr = (m + m.conj().T) / np.sqrt(2.0)
    fi = -1j * (m - m.conj().T) / np.sqrt(2.0)
    return Operator(f.space, fr), Operator(f.space, fi)


def _f_of_x_operator(f_of_x, space: FockSpace) -> tuple[Operator, SpectralDecomposition]:
    """Build f(x) by functional calculus on the truncated x quadrature."""
    x, _ = quadrature_ops(space)
    dec = normal_decompose(x)
    if callable(f_of_x):
        func = f_of_x
    else:
        coeffs = np.asarray(f_of_x, dtype=float)
        func = lambda t: np.polynomial.polynomial.polyval(np.real(t), coeffs)  # noqa: E731
    vals = np.array([func(np.real(lam)) for lam in dec.eigenvalues], dtype=float)
    v = dec.eigenvectors
    fm = (v * vals) @ v.conj().T
    fm = (fm + fm.conj().T) / 2.0
    return Operator(space, fm), dec


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------

def meter_dim_for(g: float, f_max: float, meter: Meter | None = None,
                  alphas=()) -> int:
    """Meter truncation that holds a displacement of size g*f_max: (g f_max + 6)^2.

    The size is at least METER_DIM_FLOOR. Given the ``meter`` preparation
    and the displacements ``alphas`` it undergoes, that size stays wherever
    the meter fits there: its own tail holds at most 1e-6 quanta
    (:meth:`Meter.fock_levels`) and no displaced copy D(alpha)|meter> puts
    more than 1e-6 on the cutoff. Otherwise (strongly squeezed meters) the
    meter's own levels are added on top of the displacement's. Displaced
    copies are probed only for meters that need more than one level: at
    this size a displaced vacuum leaves at most ~1e-34 on the cutoff
    (|alpha| up to METER_DIM_CAP). Sizes past METER_DIM_CAP raise
    TruncationError.
    """
    need = max(METER_DIM_FLOOR, int(math.ceil((g * f_max + 6.0) ** 2)))
    if meter is not None and need <= METER_DIM_CAP:
        levels = meter.fock_levels()
        if levels > need or (levels > 1 and _cutoff_occupancy(
                meter.state(need), alphas) > TRUNCATION_TOL):
            need += levels
    if need > METER_DIM_CAP:
        raise TruncationError(
            f"meter would need dim {need} > cap {METER_DIM_CAP} for "
            f"displacement {g * f_max:.1f}")
    return need


def _cutoff_occupancy(meter_state: State, alphas) -> float:
    """Largest probability that a displaced copy D(alpha)|meter> puts on the cutoff."""
    return max((abs(displaced_meter_ket(meter_state, a)[-1]) ** 2
                for a in np.ravel(alphas)), default=0.0)


def _warn_if_meter_tight(g: float, f_max: float, dim_b: int):
    # consistent with the sizing rule: a displacement of A needs dim >= (A+6)^2;
    # no displacement (U = 1) needs nothing
    if g * f_max > 0 and dim_b < (g * f_max + 6.0) ** 2:
        warnings.warn(
            f"displacement g*max|f| = {g * f_max:.2f} needs meter dim "
            f">= {(g * f_max + 6.0) ** 2:.0f} but got {dim_b}; results are "
            "truncation limited", stacklevel=3)


def two_mode_unitary(f: Operator, g: float, dims: tuple[int, int]) -> Operator:
    """U = exp(g (f b^dag - f^dag b)) on H_a (x) H_b, f normal."""
    da, db = dims
    if f.space.dim != da:
        raise DimensionMismatch("f dim != dims[0]")
    dec = normal_decompose(f)
    _warn_if_meter_tight(g, float(np.abs(dec.eigenvalues).max()), db)
    b = annihilation_op(FockSpace(db)).matrix
    k = g * (np.kron(f.matrix, b.conj().T) - np.kron(f.matrix.conj().T, b))
    return Operator(FockSpace((da, db)), expm_hermitian(1j * k))


def two_mode_unitary_factored(f: Operator, g: float,
                              dims: tuple[int, int]) -> Operator:
    """Ordered product e^{g f b^dag} e^{-g f^dag b} e^{-g^2 f^dag f / 2}, projected.

    On the eigenvector of f with eigenvalue lam the product is the
    normal-ordered D(g lam), so this assembles sum_i |e_i><e_i| (x) D(g lam_i)
    from the closed-form Fock elements of :func:`fock.displacement_matrix`.
    It equals the projection of the untruncated unitary and, holding no
    composite-space exponential, serves as the independent cross-check of
    the direct exponential.
    """
    da, db = dims
    if f.space.dim != da:
        raise DimensionMismatch("f dim != dims[0]")
    dec = normal_decompose(f)
    v = dec.eigenvectors
    disp = np.array([displacement_matrix(g * lam, db) for lam in dec.eigenvalues])
    m = np.einsum("ai,bi,imn->ambn", v, v.conj(), disp, optimize=True)
    return Operator(FockSpace((da, db)), m.reshape(da * db, da * db))


def von_neumann_unitary(f: Operator, g: float, dims: tuple[int, int]) -> Operator:
    """V = exp(-i sqrt(2) g f (x) p_b), f Hermitian; shifts x_b by sqrt(2) g f."""
    da, db = dims
    if f.space.dim != da:
        raise DimensionMismatch("f dim != dims[0]")
    res = f.hermiticity_residual()
    if res > 1e-10 * max(1.0, float(np.abs(f.matrix).max())):
        raise NotHermitian(f"von Neumann coupling wants Hermitian f, residual {res:.2e}")
    _, p = quadrature_ops(FockSpace(db))
    h = math.sqrt(2.0) * g * np.kron(f.matrix, p.matrix)
    return Operator(FockSpace((da, db)), expm_hermitian(h))


def three_mode_columns(f: Operator, g: float, dims: tuple[int, int, int],
                       keep: tuple[int, int, int]) -> np.ndarray:
    """Columns W[:, :ka, :kb, :kc] of :func:`three_mode_unitary`, shape dims + keep.

    W is assembled in the joint eigenbasis Va (x) Vb (x) Vc of (f, p_b, p_c):
    the phase table times the conjugated kept rows of each factor, then one
    mode product per factor. The composite-space basis is never formed, so
    the cost and memory scale with the kept columns, not with dim^2.
    """
    da, db, dc = dims
    if f.space.dim != da:
        raise DimensionMismatch("f dim != dims[0]")
    ka, kb, kc = keep
    if not all(0 < k <= d for k, d in zip(keep, dims)):
        raise DimensionMismatch(f"keep {tuple(keep)} outside dims {tuple(dims)}")
    dec = normal_decompose(f)
    _, pb = quadrature_ops(FockSpace(db))
    _, pc = quadrature_ops(FockSpace(dc))
    wb, vb = np.linalg.eigh(pb.matrix)
    wc, vc = np.linalg.eigh(pc.matrix)
    va = dec.eigenvectors
    # eigenvalues of f_R, f_I on the shared eigenvectors
    fr = np.sqrt(2.0) * np.real(dec.eigenvalues)
    fi = np.sqrt(2.0) * np.imag(dec.eigenvalues)
    phase = np.exp(-1j * g * (fr[:, None, None] * wb[None, :, None]
                              + fi[:, None, None] * wc[None, None, :]))
    rows = np.einsum("ijk,xi,yj,zk->ijkxyz", phase, va[:ka].conj(),
                     vb[:kb].conj(), vc[:kc].conj())
    return np.einsum("ai,bj,ck,ijkxyz->abcxyz", va, vb, vc, rows,
                     optimize=True)


def three_mode_unitary(f: Operator, g: float,
                       dims: tuple[int, int, int]) -> Operator:
    """W = exp(-i g (f_R p_b + f_I p_c)) with f_R, f_I from :func:`real_imag_parts`.

    f_R and f_I commute for normal f, so W is assembled in the joint
    eigenbasis of (f, p_b, p_c); this equals the exponential of the full
    generator to roundoff and needs no composite-space eigendecomposition.
    It is the full-column reshape of :func:`three_mode_columns`.
    """
    n = math.prod(dims)
    return Operator(FockSpace(tuple(dims)),
                    three_mode_columns(f, g, dims, dims).reshape(n, n))


def linear_amp_unitary(g: float, dims: tuple[int, int]) -> Operator:
    """Two-mode squeezer with amplitude gain g = cosh(r): a_out = g a + sqrt(g^2-1) b^dag.

    g = 1 (r = 0) is the identity boundary; g < 1 is rejected.
    """
    if g < 1.0:
        raise GainOutOfRange(f"linear amplifier needs g >= 1, got {g}")
    da, db = dims
    r = math.acosh(g)
    a = annihilation_op(FockSpace(da)).matrix
    b = annihilation_op(FockSpace(db)).matrix
    # generator r (a^dag b^dag - a b) gives the +sqrt(g^2-1) b^dag convention
    k = r * (np.kron(a.conj().T, b.conj().T) - np.kron(a, b))
    return Operator(FockSpace((da, db)), expm_hermitian(1j * k))


# ---------------------------------------------------------------------------
# moment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """First and second moments of the designated output mode(s).

    ``added_noise`` is the output noise minus the amplified input-signal
    noise: symmetrized for the linear amplifier and non-Hermitian signal
    operators, the x-quadrature value for Hermitian signal operators, and
    the mean meter-quadrature value for the three-mode variant.
    """

    mean_out: complex
    symmetrized_noise: float
    quad_means: tuple[float, float]
    quad_noises: tuple[float, float]
    added_noise: float


def _signal_moments(f: Operator, state: State):
    fr, fi = real_imag_parts(f)
    return {
        "mean": state.expectation(f),
        "sym": symmetrized_moment(state, f),
        "var_r": variance(state, fr),
        "var_i": variance(state, fi),
        "hermitian": f.hermiticity_residual()
        <= 1e-10 * max(1.0, float(np.abs(f.matrix).max())),
    }


def _meter_quads(meter, meter_state: State | None):
    """(x-var, p-var, <x>, <p>) of an internal mode, analytic unless a state is given."""
    if meter_state is None:
        return meter.x_variance(), meter.p_variance(), 0.0, 0.0
    x, p = quadrature_ops(meter_state.space)
    return (variance(meter_state, x), variance(meter_state, p),
            float(np.real(meter_state.expectation(x))),
            float(np.real(meter_state.expectation(p))))


def predict_output_moments(spec, input_a: State, meters=None) -> MomentReport:
    """Closed-form output moments from input-state moments; no unitary applied."""
    if isinstance(spec, SingleModeAmp):
        return single_mode_output_moments(spec.f_of_x, spec.g, spec.r, input_a)

    if isinstance(spec, LinearAmp):
        g = spec.g
        a = annihilation_op(input_a.space)
        x, p = quadrature_ops(input_a.space)
        vxb, vpb, mxb, mpb = _meter_quads(spec.meter, meters[0] if meters else None)
        mean = g * input_a.expectation(a)
        sym_b = 0.5 * (vxb + vpb)
        sym = g * g * symmetrized_moment(input_a, a) + (g * g - 1.0) * sym_b
        qm = (g * float(np.real(input_a.expectation(x))) + math.sqrt(g * g - 1) * mxb,
              g * float(np.real(input_a.expectation(p))) - math.sqrt(g * g - 1) * mpb)
        qn = (g * g * variance(input_a, x) + (g * g - 1) * vxb,
              g * g * variance(input_a, p) + (g * g - 1) * vpb)
        return MomentReport(mean, sym, qm, qn, (g * g - 1.0) * sym_b)

    if isinstance(spec, (TwoModeNormalAmp, VonNeumannAmp)):
        g = spec.g
        sm = _signal_moments(spec.f, input_a)
        vxb, vpb, mxb, mpb = _meter_quads(spec.meter, meters[0] if meters else None)
        mean = g * sm["mean"]
        sym = g * g * sm["sym"] + 0.5 * (vxb + vpb)
        qm = (g * math.sqrt(2.0) * float(np.real(sm["mean"])) + mxb,
              g * math.sqrt(2.0) * float(np.imag(sm["mean"])) + mpb)
        qn = (g * g * sm["var_r"] + vxb, g * g * sm["var_i"] + vpb)
        added = vxb if sm["hermitian"] else 0.5 * (vxb + vpb)
        return MomentReport(mean, sym, qm, qn, added)

    if isinstance(spec, ThreeModeAmp):
        g = spec.g
        sm = _signal_moments(spec.f, input_a)
        vxb, _, mxb, _ = _meter_quads(spec.meter_b, meters[0] if meters else None)
        vxc, _, mxc, _ = _meter_quads(spec.meter_c, meters[1] if meters else None)
        qm = (g * math.sqrt(2.0) * float(np.real(sm["mean"])) + mxb,
              g * math.sqrt(2.0) * float(np.imag(sm["mean"])) + mxc)
        qn = (g * g * sm["var_r"] + vxb, g * g * sm["var_i"] + vxc)
        mean = g * sm["mean"]
        sym = g * g * sm["sym"] + 0.5 * (vxb + vxc)
        return MomentReport(mean, sym, qm, qn, 0.5 *(vxb + vxc))

    raise TypeError(f"unknown amplifier spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def displaced_meter_ket(meter_state: State, alpha: complex) -> np.ndarray:
    """D(alpha)|meter> = exp(alpha b^dag - alpha* b)|meter> on the meter's truncation.

    This is the one conditional-displacement kernel: the exponential of the
    truncated generator, the object the dense composite unitaries hold on
    each eigenspace of f. scipy's ``expm_multiply`` applies it to the ket,
    so no meter-space matrix, eigendecomposition or cache is built.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply
    ket = meter_state.data
    if alpha == 0:
        return ket.copy()
    s = np.sqrt(np.arange(1, ket.shape[0]))
    gen = diags([alpha * s, -np.conj(alpha) * s], [-1, 1], format="csr")
    out = expm_multiply(gen, ket)
    return out / np.linalg.norm(out)


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


def prepare_meters(spec, drive: float, dims=None) -> list[State]:
    """The meters of :func:`meter_table` at ``dims``, auto-sized if not given.

    Auto-sizing holds each meter's preparation and its displacements
    ``drive * part(lam)`` over the spectrum of f (:func:`meter_dim_for`).
    A meter whose truncation drops more than TRUNCATION_TOL of its norm
    raises TruncationError instead of being renormalized.
    """
    table = meter_table(spec)
    if not dims:
        lam = normal_decompose(spec.f).eigenvalues
        dims = [meter_dim_for(spec.g, float(np.abs(part(lam)).max()), meter=m,
                              alphas=drive * part(lam)) for m, part in table]
    states = [m.state(d) for (m, _), d in zip(table, dims, strict=True)]
    for st in states:
        if st.norm_defect > TRUNCATION_TOL:
            raise TruncationError(
                f"meter truncated at dim {st.space.dim} drops {st.norm_defect:.2e} "
                f"of its norm (> {TRUNCATION_TOL:.0e}); enlarge the meter")
    return states


def displaced_rows(meter: State, alphas) -> np.ndarray:
    """Rows D(alpha)|meter>, one per alpha; reject any that put more than
    TRUNCATION_TOL on the meter's cutoff."""
    chi = np.array([displaced_meter_ket(meter, a) for a in alphas])
    worst = float(np.max(np.abs(chi[:, -1]) ** 2))
    if worst > TRUNCATION_TOL:
        raise TruncationError(
            f"a displaced meter holds {worst:.2e} at its cutoff (dim "
            f"{meter.space.dim}, > {TRUNCATION_TOL:.0e}); enlarge the meter")
    return chi


def simulate_output_state(spec, input_a: State, dims=None,
                          apply_swap: bool = False) -> State:
    """Evolve input (x) meters under the amplifier unitary and return the composite.

    The meters of a nonlinear variant come from :func:`prepare_meters` at
    ``dims`` (auto-sized if None, driven at g), and kets and density
    matrices alike are assembled from conditional meter displacements in
    the signal eigenbasis (:func:`_spectral_output`); the linear amplifier
    applies its two-mode squeezer to its meter at ``dims`` (the signal
    dimension if None). A meter that drops more than 1e-6 of its norm, a
    displaced meter of a populated eigenvector that puts more than 1e-6 on
    its cutoff, and an output holding more than 1e-6 on any mode's cutoff
    raise TruncationError. ``apply_swap`` exchanges modes 0 and 1 afterwards
    for the two-mode variants (needs equal dims).
    """
    if isinstance(spec, SingleModeAmp):
        raise TypeError("single-mode variant has no internal mode; "
                        "use single_mode_output_moments / single_mode_output_ops")
    if isinstance(spec, LinearAmp):
        meter = spec.meter.state(dims[0] if dims else input_a.space.dim)
        u = linear_amp_unitary(spec.g, (input_a.space.dim, meter.space.dim))
        out = _apply_unitary(u, tensor(input_a, meter))
    else:
        out = _spectral_output(spec, input_a, prepare_meters(spec, spec.g, dims))

    _check_top_occupancy(out)
    if apply_swap:
        if out.space.n_modes != 2 or out.space.dims[0] != out.space.dims[1]:
            raise DimensionMismatch("CV swap needs two equal-dimension modes")
        out = _apply_unitary(cv_swap(out.space, 0, 1), out)
    return out


def _check_top_occupancy(out: State, tol: float = TRUNCATION_TOL):
    """Reject evolutions that pile more than ``tol`` mass on any mode's cutoff."""
    dims = out.space.dims
    if out.kind == "ket":
        prob = np.abs(out.data.reshape(dims)) ** 2
    else:
        prob = np.real(np.diag(out.data)).reshape(dims)
    for mode, d in enumerate(dims):
        top = float(np.take(prob, d - 1, axis=mode).sum())
        if top > tol:
            raise TruncationError(
                f"mode {mode} holds {top:.2e} probability at its cutoff "
                f"(dim {d}); enlarge the truncation")


def _apply_unitary(u: Operator, state: State) -> State:
    if state.kind == "ket":
        return State(u.space, "ket", u.matrix @ state.data, state.norm_defect)
    m = u.matrix @ state.data @ u.matrix.conj().T
    return State(u.space, "density", m, state.norm_defect)


def _spectral_output(spec, input_a: State, meters) -> State:
    """Output via conditional meter displacements in the f eigenbasis.

    U acts on the eigenspace of f with eigenvalue lam_i as a meter
    displacement, so it maps e_i (x) meters to the column y_i = e_i (x) chi_i,
    where chi_i is the product over :func:`meter_table` of the displaced
    meters D(g part(lam_i))|m>. In the eigenbasis (c = V^dag psi,
    rho' = V^dag rho V) the output is Y c for a ket and Y rho' Y^dag for a
    density matrix. Eigenvectors the input does not populate (|c_i|^2 or
    rho'_ii below 1e-32) are skipped; for a density this is exact, since
    rho' is positive semidefinite.
    """
    dec = normal_decompose(spec.f)
    v, ket = dec.eigenvectors, input_a.kind == "ket"
    c = v.conj().T @ input_a.data if ket else v.conj().T @ input_a.data @ v
    keep = np.flatnonzero((np.abs(c) ** 2 if ket else np.real(np.diag(c))) >= 1e-32)
    c = c[keep] if ket else c[np.ix_(keep, keep)]
    lam = dec.eigenvalues[keep]
    chi = np.ones((keep.size, 1))
    for (_, part), meter in zip(meter_table(spec), meters):
        rows = displaced_rows(meter, spec.g * part(lam))
        chi = (chi[:, :, None] * rows[:, None, :]).reshape(keep.size, -1)
    # y[(a, m), i] = v[a, i] chi_i[m]
    y = (v[:, None, keep] * chi.T).reshape(-1, keep.size)
    space = FockSpace((input_a.space.dim,) + tuple(m.space.dim for m in meters))
    defect = input_a.norm_defect + sum(m.norm_defect for m in meters)
    if ket:
        out = y @ c
        nrm = np.linalg.norm(out)
        return State(space, "ket", out / nrm, defect + max(0.0, 1.0 - nrm ** 2))
    out = y @ c @ y.conj().T
    tr = float(np.trace(out).real)
    return State(space, "density", out / tr, defect + max(0.0, 1.0 - tr))


def _mode_quad_moments(out: State, mode: int):
    """(mean_a, sym_a, <x>, <p>, Var x, Var p) of one mode of a composite.

    Ket states stay matvec-only (no dense operator squares), which keeps the
    large auto-sized meters cheap; densities go through the partial trace.
    """
    msp = out.space.mode(mode)
    am = annihilation_op(msp).matrix
    if out.kind == "ket":
        from .fock import mode_vectors
        psi = mode_vectors(out, mode)
        a_psi = psi @ am.T
        ad_psi = psi @ am.conj()
        mean = complex(np.vdot(psi, a_psi))
        sym = 0.5 * (np.vdot(a_psi, a_psi).real + np.vdot(ad_psi, ad_psi).real) \
            - abs(mean) ** 2
        x_psi = (a_psi + ad_psi) / math.sqrt(2.0)
        p_psi = -1j * (a_psi - ad_psi) / math.sqrt(2.0)
        mx = float(np.vdot(psi, x_psi).real)
        mp = float(np.vdot(psi, p_psi).real)
        vx = float(np.vdot(x_psi, x_psi).real) - mx * mx
        vp = float(np.vdot(p_psi, p_psi).real) - mp * mp
        return mean, float(sym), mx, mp, vx, vp
    x, p = (q.matrix for q in quadrature_ops(msp))
    mean = complex(mode_expectation(out, mode, am))
    sym = mode_symmetrized_moment(out, mode, am)
    mx = float(np.real(mode_expectation(out, mode, x)))
    mp = float(np.real(mode_expectation(out, mode, p)))
    vx = float(np.real(mode_expectation(out, mode, x @ x))) - mx ** 2
    vp = float(np.real(mode_expectation(out, mode, p @ p))) - mp ** 2
    return mean, sym, mx, mp, vx, vp


def simulated_output_moments(spec, input_a: State, dims=None) -> MomentReport:
    """MomentReport extracted from an actual evolution (matrix moments)."""
    if isinstance(spec, SingleModeAmp):
        return _single_mode_matrix_report(spec, input_a)
    out = simulate_output_state(spec, input_a, dims=dims)
    if isinstance(spec, ThreeModeAmp):
        _, _, mxb, _, vxb, _ = _mode_quad_moments(out, 1)
        _, _, mxc, _, vxc, _ = _mode_quad_moments(out, 2)
        sm = _signal_moments(spec.f, input_a)
        g = spec.g
        mean = (mxb + 1j * mxc) / math.sqrt(2.0)
        return MomentReport(complex(mean), 0.5 * (vxb + vxc), (mxb, mxc),
                            (vxb, vxc),
                            0.5 * ((vxb - g * g * sm["var_r"])
                                   + (vxc - g * g * sm["var_i"])))
    mode = output_modes(spec)[0]
    mean, sym, mx, mp, vx, vp = _mode_quad_moments(out, mode)
    g = spec.g
    if isinstance(spec, LinearAmp):
        a_in = annihilation_op(input_a.space)
        added = sym - g * g * symmetrized_moment(input_a, a_in)
    else:
        sm = _signal_moments(spec.f, input_a)
        added = (vx - 2.0 * g * g * variance(input_a, spec.f)) if sm["hermitian"] \
            else (sym - g * g * sm["sym"])
    return MomentReport(mean, sym, (mx, mp), (vx, vp), added)


# ---------------------------------------------------------------------------
# single-mode variant
# ---------------------------------------------------------------------------

def single_mode_output_ops(f_of_x, g: float, r: float, space: FockSpace):
    """Heisenberg output operators (a_out, x_out, p_out) as matrices.

    a_out = i g f(x) + cosh(r) a + sinh(r) a^dag; the quadratures are
    assembled from a_out, so x_out = e^r x and p_out = sqrt(2) g f(x)
    + e^{-r} p hold as matrix identities away from the cutoff.
    """
    fop, _ = _f_of_x_operator(f_of_x, space)
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
    fop, _ = _f_of_x_operator(f_of_x, space)
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


def single_mode_commutator_residual(f_of_x, g: float, r: float, space: FockSpace,
                                    keep: int | None = None) -> float:
    """|| P([a_out, a_out^dag] - 1) P ||_max on the guarded subspace."""
    from .fock import guard_keep
    a_out, _, _, _ = single_mode_output_ops(f_of_x, g, r, space)
    m = a_out.matrix
    c = m @ m.conj().T - m.conj().T @ m - np.eye(space.dim)
    k = guard_keep(space.dim) if keep is None else keep
    return float(np.abs(c[:k, :k]).max())
