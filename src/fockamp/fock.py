"""Truncated-Fock-space linear algebra.

Conventions used throughout the package: hbar = 1, quadratures
x = (a + a^dag)/sqrt(2) and p = -i(a - a^dag)/sqrt(2), so [x, p] = i and the
vacuum has <x^2> = <p^2> = 1/2.

Everything is dense complex numpy. Truncation to the lowest ``dim`` Fock
levels breaks operator identities only near the cutoff, so physical checks
are made on a guarded subspace of low-lying levels (by default the lowest
dim - ceil(dim/4) of each mode, see :func:`guard_keep`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotNormal, TruncationError

_KET_ATOL = 1e-12


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockSpace:
    """A truncated bosonic Fock space, one entry of ``dims`` per mode.

    ``FockSpace(8)`` is a single mode with levels 0..7; ``FockSpace((8, 30))``
    is a two-mode composite with the mode order fixed.
    """

    dims: tuple

    def __post_init__(self):
        d = self.dims
        if isinstance(d, (int, np.integer)):
            d = (int(d),)
        d = tuple(int(x) for x in d)
        if len(d) == 0 or any(x < 2 for x in d):
            raise ValueError("every mode needs dim >= 2")
        object.__setattr__(self, "dims", d)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def mode(self, i: int) -> "FockSpace":
        return FockSpace(self.dims[i])

    def __repr__(self):
        return f"FockSpace{self.dims}"


def guard_keep(dim: int) -> int:
    """Number of low-lying levels kept by the default truncation guard."""
    return dim - math.ceil(dim / 4)


def log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n-1, from ``math.lgamma``."""
    return np.array([math.lgamma(k + 1) for k in range(n)])


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Operator:
    """Dense complex matrix on a (possibly composite) Fock space."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] != self.space.dim:
            raise DimensionMismatch(
                f"matrix side {m.shape[0]} != space dim {self.space.dim}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        m = m.copy() if not m.flags.owndata else m
        m.setflags(write=False)  # operators are shareable across threads
        object.__setattr__(self, "matrix", m)

    # light algebra so call sites stay readable
    @property
    def h(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def __matmul__(self, other):
        self._check(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other):
        self._check(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, c):
        return Operator(self.space, self.matrix * complex(c))

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(self.space, -self.matrix)

    def _check(self, other):
        if not isinstance(other, Operator) or other.space.dims != self.space.dims:
            raise DimensionMismatch("operator spaces differ")

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def unitarity_residual(self) -> float:
        m = self.matrix
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())

    def commutator_norm(self) -> float:
        """Max-norm of [A, A^dag], the normality defect."""
        m = self.matrix
        c = m @ m.conj().T - m.conj().T @ m
        return float(np.abs(c).max())


def annihilation_op(space: FockSpace) -> Operator:
    """Ladder matrix <n-1|a|n> = sqrt(n) on a single mode."""
    if space.n_modes != 1:
        raise DimensionMismatch("annihilation_op wants a single-mode space")
    d = space.dim
    return Operator(space, np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex))


def number_op(space: FockSpace) -> Operator:
    d = space.dim
    return Operator(space, np.diag(np.arange(d)).astype(complex))


def parity_op(space: FockSpace) -> Operator:
    d = space.dim
    return Operator(space, np.diag((-1.0) ** np.arange(d)).astype(complex))


def quadrature_ops(space: FockSpace) -> tuple[Operator, Operator]:
    """x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2)."""
    a = annihilation_op(space).matrix
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = -1j * (a - a.conj().T) / np.sqrt(2.0)
    return Operator(space, x), Operator(space, p)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class State:
    """Ket or density matrix on a Fock space.

    ``norm_defect`` records the probability mass discarded by truncation
    before renormalization, so tests can bound truncation error.
    """

    space: FockSpace
    kind: str  # "ket" | "density"
    data: np.ndarray
    norm_defect: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if self.kind == "ket":
            d = d.ravel()
            if d.shape[0] != self.space.dim:
                raise DimensionMismatch("ket length != space dim")
            n = np.linalg.norm(d)
            if abs(n - 1.0) > _KET_ATOL:
                raise ValueError(f"ket norm {n} deviates from 1 beyond 1e-12")
        elif self.kind == "density":
            if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] != self.space.dim:
                raise DimensionMismatch("density shape != space dim")
            if abs(np.trace(d) - 1.0) > 1e-10:
                raise ValueError("density trace deviates from 1")
            if np.abs(d - d.conj().T).max() > 1e-10 * max(1.0, np.abs(d).max()):
                raise ValueError("density not Hermitian")
            if d.shape[0] <= 256:
                # positivity check is O(d^3); skip for large composites
                if np.linalg.eigvalsh(d).min() < -1e-9:
                    raise ValueError("density has eigenvalue below -1e-9")
        else:
            raise ValueError("kind must be 'ket' or 'density'")
        d = d.copy() if not d.flags.owndata else d
        d.setflags(write=False)  # states are shareable across threads
        object.__setattr__(self, "data", d)

    def to_density(self) -> "State":
        if self.kind == "density":
            return self
        return State(self.space, "density", np.outer(self.data, self.data.conj()),
                     self.norm_defect)

    def expectation(self, op: Operator) -> complex:
        if op.space.dims != self.space.dims:
            raise DimensionMismatch("state and operator live on different spaces")
        if self.kind == "ket":
            return complex(self.data.conj() @ (op.matrix @ self.data))
        return complex(np.trace(op.matrix @ self.data))

    def fidelity(self, other: "State") -> float:
        """|<psi|phi>|^2 for kets; Tr[rho sigma] if either is mixed."""
        if self.kind == "ket" and other.kind == "ket":
            return float(abs(np.vdot(self.data, other.data)) ** 2)
        a, b = self.to_density().data, other.to_density().data
        return float(np.real(np.trace(a @ b)))

    def probabilities(self) -> np.ndarray:
        if self.kind == "ket":
            return np.abs(self.data) ** 2
        return np.real(np.diag(self.data)).copy()


def fock_state(space: FockSpace, n: int) -> State:
    if not 0 <= n < space.dim:
        raise ValueError(f"fock level {n} outside 0..{space.dim - 1}")
    v = np.zeros(space.dim, dtype=complex)
    v[n] = 1.0
    return State(space, "ket", v)


def vacuum_state(space: FockSpace) -> State:
    if space.n_modes == 1:
        return fock_state(space, 0)
    v = np.zeros(space.dim, dtype=complex)
    v[0] = 1.0
    return State(space, "ket", v)


def _coherent_amplitudes(d: int, gammas) -> np.ndarray:
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


def coherent_state(space: FockSpace, alpha: complex) -> State:
    """Coherent ket from exact coefficients e^{-|a|^2/2} a^n / sqrt(n!), renormalized.

    Warns when the top three levels carry more than 1e-8 occupancy; raises
    TruncationError when the discarded tail mass exceeds 1e-6.
    """
    d = space.dim
    alpha = complex(alpha)
    if abs(alpha) == 0.0:
        return fock_state(space, 0)
    c = _coherent_amplitudes(d, alpha)[:, 0]
    kept = float(np.sum(np.abs(c) ** 2))
    tail = max(0.0, 1.0 - kept)
    if float(np.sum(np.abs(c[-3:]) ** 2)) > 1e-8:
        warnings.warn(
            f"coherent({alpha}) occupies top 3 of {d} levels above 1e-8",
            stacklevel=2)
    if tail > 1e-6:
        raise TruncationError(
            f"coherent({alpha}) tail mass {tail:.2e} exceeds 1e-06 at dim {d}")
    return State(space, "ket", c / np.sqrt(kept), norm_defect=tail)


def squeezed_vacuum(space: FockSpace, r: float, phi: float = 0.0) -> State:
    """Squeezed vacuum with Var[x] = e^{-2r}/2 at phi = 0.

    Built from the exact even-level coefficients
    c_{2k} ~ (-e^{2i phi} tanh r)^k sqrt((2k)!) / (2^k k!), then renormalized;
    the discarded tail mass is recorded in ``norm_defect``.
    """
    d = space.dim
    if r == 0.0:
        return fock_state(space, 0)
    c = np.zeros(d, dtype=complex)
    t = math.tanh(r)
    zeta = -t * np.exp(2j * phi)
    for k in range(0, (d + 1) // 2):
        lnmag = 0.5 * math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)
        c[2 * k] = zeta ** k * math.exp(lnmag)
    c *= math.sqrt(1.0 / math.cosh(r))
    kept = float(np.sum(np.abs(c) ** 2))
    tail = max(0.0, 1.0 - kept)
    if tail > 1e-6:
        warnings.warn(
            f"squeezed_vacuum(r={r}) truncation tail {tail:.2e} at dim {d}",
            stacklevel=2)
    return State(space, "ket", c / np.sqrt(kept), norm_defect=tail)


def gaussian_meter(space: FockSpace, epsilon: float) -> State:
    """Meter ket with Gaussian position wavefunction, Var[x] = epsilon^2/2.

    epsilon = 1 is the vacuum; epsilon < 1 is position-squeezed.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return squeezed_vacuum(space, -math.log(epsilon))


def make_state(space: FockSpace, kind: str, **params) -> State:
    """Config-friendly state dispatcher."""
    if kind == "fock":
        return fock_state(space, int(params["n"]))
    if kind == "vacuum":
        return vacuum_state(space)
    if kind == "coherent":
        return coherent_state(space, params["alpha"])
    if kind == "squeezed_vacuum":
        return squeezed_vacuum(space, float(params["r"]), float(params.get("phi", 0.0)))
    if kind == "gaussian_meter":
        return gaussian_meter(space, float(params["epsilon"]))
    raise ValueError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """f = sum_i lambda_i |e_i><e_i| for a normal operator f."""

    space: FockSpace
    eigenvalues: np.ndarray        # complex, length d
    eigenvectors: np.ndarray       # unitary, columns are |e_i>
    residual: float                # max-norm reconstruction error
    heads: np.ndarray              # first index of each eigenspace (its lambda)
    cluster_heads: np.ndarray      # first index of each decision cluster

    def probabilities(self, state: State) -> np.ndarray:
        """Spectral measure of ``state``: p_i = <e_i|rho|e_i>."""
        v = self.eigenvectors
        if state.kind == "ket":
            return np.abs(v.conj().T @ state.data) ** 2
        return np.real(np.einsum("ji,jk,ki->i", v.conj(), state.data, v))

    def clusters(self) -> list[np.ndarray]:
        """Indices of the eigenvectors of each decision cluster."""
        return np.split(np.arange(self.eigenvalues.size), self.cluster_heads[1:])


def _partitions(lam: np.ndarray, cuts: np.ndarray, gap: float):
    """First indices of the eigenspaces and clusters of ``lam``. A cluster is
    a run split at ``cuts`` and at imaginary steps of ``gap``; an eigenspace
    ends there and at steps over 1e-5 * gap (1e-13 * scale, roundoff)."""
    step = lam[1:] - lam[:-1]
    cut = step.imag >= gap
    cut[cuts - 1] = True
    return (np.r_[0, np.flatnonzero(cut | (np.abs(step) > 1e-5 * gap)) + 1],
            np.r_[0, np.flatnonzero(cut) + 1])


def normal_decompose(f: Operator, tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition of a normal operator.

    Eigenvalues ascend by real part, and by imaginary part within a run of
    real parts closer than 1e-8 * scale, scale = max(1, max|f|), and
    :func:`_partitions` splits them. A diagonal f (a_dag_a, parity) is its
    own decomposition: its diagonal in that order, identity columns,
    residual 0, no eigensolver. Any other f takes :func:`_dense_decompose`,
    which raises NotNormal at ``tol`` (1e-9 * scale).
    """
    m, lam = f.matrix, np.diagonal(f.matrix)
    if np.count_nonzero(m) > np.count_nonzero(lam):
        return _dense_decompose(f, tol)
    order = np.lexsort((lam.imag, lam.real))
    re, gap = lam.real[order], 1e-8 * max(1.0, float(np.abs(lam).max()))
    cuts = np.flatnonzero(re[1:] - re[:-1] >= gap) + 1
    runs = np.searchsorted(cuts, np.arange(lam.size), side="right")
    order = order[np.lexsort((lam.imag[order], runs))]
    return SpectralDecomposition(f.space, lam[order], np.eye(lam.size, dtype=complex)[:, order],
                                 0.0, *_partitions(lam[order], cuts, gap))


def _dense_decompose(f: Operator, tol: float | None = None) -> SpectralDecomposition:
    """:func:`normal_decompose` of any f, as a joint eigenbasis.

    The Hermitian part h = (f + f^dag)/2 and the anti-Hermitian part
    k = (f - f^dag)/2i of a normal f commute, so one orthonormal basis
    diagonalizes both. ``eigh(h)`` gives it up to rotations inside runs of
    eigenvalues of h closer than 1e-8 * scale; ``eigh`` of k on each run
    fixes those. Eigenvectors of h whose eigenvalues are close but not equal
    still mix at roundoff over their gap (~1e-9 at a gap of 1e-7), which k
    turns into off-diagonal terms of V^dag f V. One first-order step
    V <- V (1 + E), E_ij = (V^dag f V)_ij / (lambda_j - lambda_i) over pairs
    at least 1e-8 * scale apart, removes them, and one Newton-Schulz step
    V <- V (3 - V^dag V)/2 restores orthonormality; both are exact no-ops on
    a basis that already diagonalizes f exactly. NotNormal is raised when
    [f, f^dag] reaches ``tol``, or when the off-diagonal part of V^dag f V
    or scale * (V^dag V - 1) reaches 10 * tol (a step that cannot converge
    leaves V far from unitary). The eigenvalues are the diagonal of V^dag f V.
    """
    m = f.matrix
    d = m.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    if tol is None:
        tol = 1e-9 * scale
    cnorm = f.commutator_norm()
    if cnorm >= tol:
        raise NotNormal(
            f"[f, f^dag] max-norm {cnorm:.3e} >= tolerance {tol:.3e}", cnorm)
    gap = 1e-8 * scale
    mh = m.conj().T
    re, vecs = np.linalg.eigh((m + mh) / 2)
    k = (m - mh) / 2j
    cuts = np.flatnonzero(np.diff(re) >= gap) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, d]):
        if hi - lo > 1:
            blk = vecs[:, lo:hi]
            _, w = np.linalg.eigh(blk.conj().T @ k @ blk)
            vecs[:, lo:hi] = blk @ w
    t = vecs.conj().T @ m @ vecs
    dl = np.diag(t)[None, :] - np.diag(t)[:, None]
    far = np.abs(dl) >= gap
    vecs = vecs + vecs @ np.where(far, t / np.where(far, dl, 1.0), 0.0)
    vecs = vecs @ (1.5 * np.eye(d) - 0.5 * (vecs.conj().T @ vecs))
    t = vecs.conj().T @ m @ vecs
    vals = np.diag(t).copy()
    off = max(float(np.abs(t - np.diag(vals)).max()),
              scale * float(np.abs(vecs.conj().T @ vecs - np.eye(d)).max()))
    if off >= 10 * tol:
        raise NotNormal(
            f"joint eigenbasis residual {off:.3e} >= {10 * tol:.3e}",
            cnorm)
    recon = (vecs * vals) @ vecs.conj().T
    residual = float(np.abs(recon - m).max())
    return SpectralDecomposition(f.space, vals, vecs, residual, *_partitions(vals, cuts, gap))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def symmetrized_moment(state: State, op: Operator) -> float:
    """<|Delta O|^2> with Delta O = O - <O> and |O|^2 = (O O^dag + O^dag O)/2.

    Equals the ordinary variance for Hermitian O; always >= 0.
    """
    m = op.matrix
    sym = (m @ m.conj().T + m.conj().T @ m) / 2.0
    mean = state.expectation(op)
    val = np.real(state.expectation(Operator(op.space, sym))) - abs(mean) ** 2
    return float(val)


def variance(state: State, op: Operator) -> float:
    """<O^2> - <O>^2 for Hermitian O (independent code path, used as oracle)."""
    res = op.hermiticity_residual()
    if res > 1e-9 * max(1.0, float(np.abs(op.matrix).max())):
        raise NotHermitian(f"variance() wants Hermitian O, residual {res:.2e}")
    mean = np.real(state.expectation(op))
    second = np.real(state.expectation(op @ op))
    return float(second - mean ** 2)


# ---------------------------------------------------------------------------
# composite-space plumbing
# ---------------------------------------------------------------------------

def tensor(*objs):
    """Kronecker product of Operators or of States (mode order = argument order)."""
    if all(isinstance(o, Operator) for o in objs):
        dims = sum((o.space.dims for o in objs), ())
        m = objs[0].matrix
        for o in objs[1:]:
            m = np.kron(m, o.matrix)
        return Operator(FockSpace(dims), m)
    if all(isinstance(o, State) for o in objs):
        dims = sum((o.space.dims for o in objs), ())
        defect = float(sum(o.norm_defect for o in objs))
        if all(o.kind == "ket" for o in objs):
            v = objs[0].data
            for o in objs[1:]:
                v = np.kron(v, o.data)
            return State(FockSpace(dims), "ket", v, defect)
        m = objs[0].to_density().data
        for o in objs[1:]:
            m = np.kron(m, o.to_density().data)
        return State(FockSpace(dims), "density", m, defect)
    raise TypeError("tensor() wants all Operators or all States")


def partial_trace(state: State, keep) -> State:
    """Trace out all modes not in ``keep`` (int or sequence of ints)."""
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    dims = state.space.dims
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatch("keep index outside mode range")
    kept_dims = tuple(dims[k] for k in keep)
    dk = int(np.prod(kept_dims))
    if state.kind == "ket":
        psi = state.data.reshape(dims)
        psi_k = np.moveaxis(psi, keep, range(len(keep))).reshape(dk, -1)
        rho = psi_k @ psi_k.conj().T
    else:
        rho = state.data.reshape(dims + dims)
        rest = [i for i in range(len(dims)) if i not in keep]
        for i in sorted(rest, reverse=True):
            rho = np.trace(rho, axis1=i, axis2=i + rho.ndim // 2)
        rho = rho.reshape(dk, dk)
    rho = (rho + rho.conj().T) / 2.0
    return State(FockSpace(kept_dims), "density", rho, state.norm_defect)


# ---------------------------------------------------------------------------
# position representation
# ---------------------------------------------------------------------------

def hermite_functions(nmax: int, xs: np.ndarray) -> np.ndarray:
    """Hermite functions h_n(x), n = 0..nmax-1, shape (nmax, len(xs)).

    h_0(x) = pi^{-1/4} e^{-x^2/2}; the three-term recurrence is run on the
    functions themselves, which stays bounded for large n (unlike the
    polynomial recurrence). Where h_0 is below the smallest normal float
    (|x| > ~37.6), :func:`_rescaled_hermite_rows` runs it on scaled values.
    """
    xs = np.asarray(xs, dtype=float)
    h = np.zeros((nmax, xs.shape[0]))
    h[0] = np.pi ** -0.25 * np.exp(-xs * xs / 2.0)
    if nmax > 1:
        h[1] = np.sqrt(2.0) * xs * h[0]
    # h_n = sqrt(2/n) x h_{n-1} - sqrt((n-1)/n) h_{n-2}, in place: the rows
    # are short when callers stream a grid, so per-row temporaries dominate
    n = np.arange(1.0, nmax + 1)
    up, down = np.sqrt(2.0 / n).tolist(), np.sqrt((n - 1.0) / n).tolist()
    tmp = np.empty_like(xs)
    for k in range(2, nmax):
        row = h[k]
        np.multiply(xs, up[k - 1], out=row)
        row *= h[k - 1]
        row -= np.multiply(h[k - 2], down[k - 1], out=tmp)
    far = np.flatnonzero(h[0] < np.finfo(float).tiny)
    if far.size:
        _rescaled_hermite_rows(h, xs, far, up, down)
    return h


def _rescaled_hermite_rows(h, xs, far, up, down):
    """Columns ``far`` of the table h of :func:`hermite_functions`, rewritten
    from a scaled start: h_n = s_n 2^e per column, with h_0 = s_0 2^e,
    1 <= s_0 < 2, and the same recurrence on s_n (h_{-1} = 0). Each new s_n
    is normalised into [1/2, 1) by its float exponent, which moves into e,
    so s stays finite at any order; row n is written as ldexp(s_n, e)."""
    x = xs[far]
    log2h = (math.log(math.pi ** -0.25) - x * x / 2.0) / math.log(2.0)
    e = np.floor(log2h).astype(int)
    prev, cur = np.zeros_like(x), np.exp2(log2h - e)
    for k in range(h.shape[0]):
        h[k, far] = np.ldexp(cur, e)
        prev, cur = cur, (x * up[k]) * cur - prev * down[k]
        cur, shift = np.frexp(cur)
        prev = np.ldexp(prev, -shift)
        e += shift


def quadrature_amplitudes(state: State, grid) -> np.ndarray:
    """<x|psi> on a grid for kets; the diagonal q(x) = <x|rho|x> for densities."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if state.space.n_modes != 1:
        raise DimensionMismatch("quadrature_amplitudes wants a single-mode state")
    h = hermite_functions(state.space.dim, grid)
    if state.kind == "ket":
        return state.data @ h
    return np.einsum("mx,mn,nx->x", h, state.data, h).astype(complex)
