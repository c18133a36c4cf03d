"""Dense oracles: composite-space unitaries, the composite output state of a
nonlinear variant, the truncated-exponential meter displacement,
single-outcome detector elements and Husimi values.

No command builds these. The production routes take the exact displaced
meter rows of Yuen's three-term recurrence in the eigenbasis of f
(:func:`fock.yuen_blocks` through :func:`amplifiers.displaced_meter_ket`,
O(d) per row), each meter's mixture of those rows in place of the composite
output (:func:`amplifiers.simulated_output_moments`), the photon-difference
chains of the linear squeezer
(:func:`amplifiers._squeezer_chains`), the homodyne detector expectations
of :mod:`fockamp.measurement`, the outcome-frame heterodyne read of
:mod:`fockamp.heterodyne` and the exact Husimi draws. The builders here
form the dense matrices those routes avoid, among them the O(d^3)
exponential of the truncated displacement generator
(:func:`displaced_meter_ket_expm`), so they serve as independent
cross-checks in ``verify`` and the tests, and only those import this module.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .amplifiers import _meter_rows, _squeezer_chains
from .errors import DimensionMismatch, NotHermitian
from .fock import (FockSpace, Operator, State, annihilation_op,
                   hermite_functions, log_factorials, normal_decompose,
                   quadrature_ops)

# trapezoid quadrature of homodyne_element: step and least half-width of its grid
HOMODYNE_YGRID_STEP = 0.005
HOMODYNE_YGRID_RANGE = 10.0


# ---------------------------------------------------------------------------
# single-mode exponentials and composite-space plumbing
# ---------------------------------------------------------------------------

def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i h t) by eigendecomposition; exactly unitary up to roundoff.

    Beside h it holds three matrices of its size: the eigenvectors v, their
    one scaled copy and the product, v being conjugated in place and read
    as a transposed view.
    """
    w, v = np.linalg.eigh(h)
    vs = v * np.exp(-1j * w * t)
    np.conjugate(v, out=v)
    return vs @ v.T


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """<m|D(alpha)|n> for m, n < dim: the Fock projection of the untruncated D(alpha).

    Closed form (Cahill & Glauber 1969), for m >= n

        sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2),

    and the mirrored form with -alpha* for m < n. The real elements
    F_n^(k) = <n+k|D(|alpha|)|n> are bounded by one, and the Laguerre
    three-term recurrence runs on them rather than on L_n^(k), which
    overflows from about 1040 levels up:

        F_{n+1} = ((2n+1+k-x) F_n - sqrt(n(n+k)) F_{n-1}) / sqrt((n+1)(n+k+1)),

    with x = |alpha|^2 and F_0^(k) = |alpha|^k e^{-x/2}/sqrt(k!) taken in log
    space. The cost is O(dim^2).
    """
    alpha = complex(alpha)
    if alpha == 0.0:
        return np.eye(dim, dtype=complex)
    x = abs(alpha) ** 2
    k = np.arange(dim)
    f = np.zeros((dim, dim))  # f[n, k] = F_n^(k) for n + k < dim
    f[0] = np.exp(k * math.log(abs(alpha)) - 0.5 * x - 0.5 * log_factorials(dim))
    for n in range(dim - 1):
        kn = k[:dim - n - 1]
        f[n + 1, kn] = ((2 * n + 1 + kn - x) * f[n, kn]
                        - np.sqrt(n * (n + kn)) * f[n - 1, kn]) \
            / np.sqrt((n + 1) * (n + kn + 1))
    m, n = k[:, None], k[None, :]
    lo, dk = np.minimum(m, n), np.abs(m - n)
    u = alpha / abs(alpha)
    phase = np.where(m >= n, (u ** k)[dk], ((-np.conj(u)) ** k)[dk])
    return f[lo, dk] * phase


def displaced_meter_ket_expm(meter_state, alphas) -> np.ndarray:
    """Rows exp(alpha b^dag - alpha* b)|ket> of the truncated generator, shape
    (len(alphas), d), for any ket; alpha = 0 rows copy it.

    These are the columns the dense composite unitaries hold on each
    eigenspace of f, and the cross-check of the exact rows of
    :func:`amplifiers.displaced_meter_ket`, which they match where the
    truncation is below roundoff. With beta = -i sqrt(2) alpha,
    R = e^{i arg(beta) n} and x = U diag(xi) U^T, U the normalized Hermite
    functions at the zeros xi of h_d (Golub-Welsch, one Newton step), each
    row is R U e^{i|beta| xi} U^T R^dag |ket>, by two real GEMMs,
    renormalized. The cost is O(d^3).
    """
    ket, d = meter_state.data, meter_state.data.size
    alphas = np.ravel(alphas).astype(complex)
    rows = np.tile(ket, (alphas.size, 1))
    move = np.flatnonzero(alphas)
    if move.size:
        # eigvalsh reads the upper triangle only: the superdiagonal sqrt(n/2) of x
        xi = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, d) / 2), 1), UPLO="U")
        h = hermite_functions(d + 1, xi)[d - 1:].copy()  # rows d-1, d; table freed
        xi -= h[1] / (math.sqrt(2.0 * d) * h[0])  # Newton: eigvalsh errs by ~1e-12
        u = hermite_functions(d, xi)
        u /= np.linalg.norm(u, axis=0)
        beta = -1j * math.sqrt(2.0) * alphas[move, None]
        r = np.exp(1j * np.angle(beta) * np.arange(d))
        out = _times_real(_times_real(ket * r.conj(), u)
                          * np.exp(1j * np.abs(beta) * xi), u.T) * r
        rows[move] = out / np.linalg.norm(out, axis=1, keepdims=True)
    return rows


def _times_real(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """z @ m for complex rows z and a real matrix m, by one real GEMM."""
    p = np.concatenate((z.real, z.imag)) @ m
    return p[:z.shape[0]] + 1j * p[z.shape[0]:]


def unitary_from_generator(h: Operator, t: float = 1.0) -> Operator:
    """U = exp(-i H t) for Hermitian H.

    Uses eigendecomposition rather than a series, so the result is unitary to
    roundoff at any t.
    """
    res = h.hermiticity_residual()
    if res > 1e-10 * max(1.0, float(np.abs(h.matrix).max())):
        raise NotHermitian(f"generator hermiticity residual {res:.2e}")
    hm = h.matrix.conj().T
    hm += h.matrix
    hm /= 2.0
    return Operator(h.space, expm_hermitian(hm, t))


def embed(op: Operator, slot: int, space: FockSpace) -> Operator:
    """Embed a single-mode operator into ``slot`` of a composite space."""
    if op.space.n_modes != 1:
        raise DimensionMismatch("embed() wants a single-mode operator")
    if op.space.dim != space.dims[slot]:
        raise DimensionMismatch(
            f"operator dim {op.space.dim} != mode dim {space.dims[slot]}")
    m = np.eye(1, dtype=complex)
    for i, d in enumerate(space.dims):
        m = np.kron(m, op.matrix if i == slot else np.eye(d, dtype=complex))
    return Operator(space, m)


def cv_swap(space: FockSpace, i: int, j: int) -> Operator:
    """Permutation unitary exchanging the full Hilbert spaces of modes i and j."""
    dims = space.dims
    if dims[i] != dims[j]:
        raise DimensionMismatch("cv_swap wants equal dims on the swapped modes")
    perm = np.arange(space.dim).reshape(dims)
    axes = list(range(len(dims)))
    axes[i], axes[j] = axes[j], axes[i]
    perm = np.transpose(perm, axes).ravel()
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[np.arange(space.dim), perm] = 1.0
    return Operator(space, m)


# ---------------------------------------------------------------------------
# amplifier unitaries
# ---------------------------------------------------------------------------

def _warn_if_meter_tight(g: float, f_max: float, dim_b: int):
    # the dense oracles' own guard: a displacement of A on a truncated
    # exponential wants dim >= (A+6)^2; no displacement (U = 1) needs nothing
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
    # f^dag (x) b is the adjoint of f (x) b^dag, so one Kronecker product serves
    k = np.kron(f.matrix, b.conj().T)
    k -= k.conj().T
    k *= g
    k *= 1j
    return Operator(FockSpace((da, db)), expm_hermitian(k))


def two_mode_unitary_factored(f: Operator, g: float,
                              dims: tuple[int, int]) -> Operator:
    """Ordered product e^{g f b^dag} e^{-g f^dag b} e^{-g^2 f^dag f / 2}, projected.

    On the eigenvector of f with eigenvalue lam the product is the
    normal-ordered D(g lam), so this assembles sum_i |e_i><e_i| (x) D(g lam_i)
    from the closed-form Fock elements of :func:`displacement_matrix`.
    It equals the projection of the untruncated unitary and, holding no
    composite-space exponential, serves as the independent cross-check of
    the direct exponential :func:`two_mode_unitary`.
    """
    da, db = dims
    if f.space.dim != da:
        raise DimensionMismatch("f dim != dims[0]")
    dec = normal_decompose(f)
    v = dec.eigenvectors
    disp = np.array([displacement_matrix(g * lam, db) for lam in dec.eigenvalues])
    # einsum copies its tensordot into a view of the owned output: two copies
    m = np.empty((da * db, da * db), complex)
    np.einsum("ai,bi,imn->ambn", v, v.conj(), disp, out=m.reshape(da, db, da, db),
              optimize=True)
    return Operator(FockSpace((da, db)), m)


def von_neumann_unitary(f: Operator, g: float, dims: tuple[int, int]) -> Operator:
    """V = exp(-i sqrt(2) g f (x) p_b), f Hermitian; shifts x_b by sqrt(2) g f."""
    da, db = dims
    if f.space.dim != da:
        raise DimensionMismatch("f dim != dims[0]")
    res = f.hermiticity_residual()
    if res > 1e-10 * max(1.0, float(np.abs(f.matrix).max())):
        raise NotHermitian(f"von Neumann coupling wants Hermitian f, residual {res:.2e}")
    _, p = quadrature_ops(FockSpace(db))
    h = np.kron(f.matrix, p.matrix)
    h *= math.sqrt(2.0) * g
    return Operator(FockSpace((da, db)), expm_hermitian(h))


def three_mode_blocks(f: Operator, g: float, dims: tuple[int, int, int],
                      keep: tuple[int, int, int], out=None):
    """An iterator over the mode-a row blocks of :func:`three_mode_columns`,
    each built as it is read: block a is W[a, :, :, :ka, :kb, :kc] of shape
    (db, dc, prod(keep)), meter rows first. It is written into ``out[a]``
    (``out`` of shape dims + keep) when ``out`` is given, else into an
    array of its own.

    W is assembled in the joint eigenbasis Va (x) Vb (x) Vc of (f, p_b, p_c):
    the phase table is taken through one mode product per factor, c, then b,
    then a, each with that factor's projector columns V V[:k]^H; the last
    product runs one row a of mode a at a time. The table it reads is da/ka
    blocks in size, so a reader that drops each block before the next holds
    that table and one block, not the kept columns; the composite-space
    basis is never formed.
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
    t = np.einsum("ijk,czk->ijcz", phase, vc[:, None] * vc[None, :kc].conj())
    t = np.einsum("byj,ijcz->ibcyz", vb[:, None] * vb[None, :kb].conj(), t)
    pa = va[:, None] * va[None, :ka].conj()
    return (np.einsum("xi,ibcyz->bcxyz", pa[a], t,
                      out=np.empty((db, dc) + tuple(keep), dtype=complex)
                      if out is None else out[a]).reshape(db, dc, -1)
            for a in range(da))


def three_mode_columns(f: Operator, g: float, dims: tuple[int, int, int],
                       keep: tuple[int, int, int]) -> np.ndarray:
    """Columns W[:, :ka, :kb, :kc] of :func:`three_mode_unitary` as one owned
    (prod(dims), prod(keep)) matrix; view it as shape dims + keep to index
    the modes. It is :func:`three_mode_blocks` written in place, so beside
    the output it holds the table the blocks read.
    """
    out = np.empty((math.prod(dims), math.prod(keep)), dtype=complex)
    for _ in three_mode_blocks(f, g, dims, keep,
                               out.reshape(tuple(dims) + tuple(keep))):
        pass
    return out


def three_mode_unitary(f: Operator, g: float,
                       dims: tuple[int, int, int]) -> Operator:
    """W = exp(-i g (f_R p_b + f_I p_c)), f_R, f_I from :func:`amplifiers.real_imag_parts`.

    f_R and f_I commute for normal f, so W is assembled in the joint
    eigenbasis of (f, p_b, p_c); this equals the exponential of the full
    generator to roundoff and needs no composite-space eigendecomposition.
    It is :func:`three_mode_columns` at full keep, handed to the Operator
    without a copy.
    """
    return Operator(FockSpace(tuple(dims)), three_mode_columns(f, g, dims, dims))


def linear_amp_unitary(g: float, dims: tuple[int, int]) -> Operator:
    """Two-mode squeezer with amplitude gain g = cosh(r): a_out = g a + sqrt(g^2-1) b^dag.

    U = exp(r (a^dag b^dag - a b)), assembled from its photon-difference
    chain blocks (:func:`amplifiers._squeezer_chains`); simulation applies
    the blocks without forming U. g = 1 (r = 0) is the identity boundary;
    g < 1 is rejected.
    """
    n = math.prod(dims)
    u = np.zeros((n, n), dtype=complex)
    for idx, block in _squeezer_chains(g, dims):
        u[np.ix_(idx, idx)] = block
    return Operator(FockSpace(tuple(dims)), u)


def spectral_output(spec, input_a: State, dims=None) -> State:
    """The composite output state of a nonlinear variant, unchecked: the
    reference of :func:`amplifiers.simulated_output_moments`, which reads
    each meter's mixture instead.

    U acts on the eigenspace k of f as a displacement of each meter, so it
    maps e_i (x) meters, i in k, to the column y_i = e_i (x) chi_k, chi_k
    the Kronecker product of the meters' rows (:func:`amplifiers._meter_rows`
    at ``dims``, auto-sized if None, driven at g) over the eigenspaces the
    input populates (<P_k> >= 1e-32), as simulation takes them. In the
    eigenbasis (c = V^dag psi, rho' = V^dag rho V) the output is Y c for a
    ket and Y rho' Y^dag for a density matrix, renormalized. It holds
    d_s prod(d_m) entries for a ket and their square for a density.
    """
    dec, ket = spec.dec, input_a.kind == "ket"
    used = np.flatnonzero(dec.eigenspace_weights(input_a) >= 1e-32)
    space_of = np.searchsorted(dec.heads, np.arange(dec.eigenvalues.size), "right") - 1
    keep = np.flatnonzero(np.isin(space_of, used))
    v = dec.eigenvectors[:, keep]
    c = v.conj().T @ input_a.data if ket else v.conj().T @ input_a.data @ v
    meters = _meter_rows(spec, spec.g * dec.eigenvalues[dec.heads[used]], dims)
    idx = np.searchsorted(used, space_of[keep])
    chi = np.ones((keep.size, 1))
    for rows in meters:
        chi = (chi[:, :, None] * rows[idx, None, :]).reshape(keep.size, -1)
    # y[(a, m), i] = v[a, i] chi_i[m]
    y = (v[:, None, :] * chi.T).reshape(-1, keep.size)
    space = FockSpace((input_a.space.dim,) + tuple(rows.shape[1] for rows in meters))
    out = y @ c if ket else y @ c @ y.conj().T
    norm = float(np.linalg.norm(out) ** 2 if ket else np.trace(out).real)
    return State(space, input_a.kind, out / (math.sqrt(norm) if ket else norm),
                 input_a.norm_defect + max(0.0, 1.0 - norm))


# ---------------------------------------------------------------------------
# detector elements
# ---------------------------------------------------------------------------

def heterodyne_element(beta: complex, sigma2: float, space: FockSpace) -> Operator:
    """<m|M_beta|n> in closed form (no numeric 2-D integral).

    With t = 1/(1+sigma^2) and s = sigma^2/(1+sigma^2),

        M_beta = (t/pi) e^{-t|beta|^2} sum_k v_k v_k^dag,
        v_k(k) = s^{k/2},  v_k(m+1) = v_k(m) t beta sqrt(m+1)/(m+1-k),

    which is the Fock projection of the exact smeared coherent projector for
    any beta (entries are exact; only states near the cutoff are affected by
    truncation). sigma^2 = 0 reduces to (1/pi)|beta><beta|. The numeric POVM
    builds no element and reads heterodyne outcomes in the outcome frame
    (:func:`heterodyne.meter_reads`).
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    d = space.dim
    beta = complex(beta)
    t = 1.0 / (1.0 + sigma2)
    s = sigma2 / (1.0 + sigma2)
    tb = t * beta
    m = np.zeros((d, d), dtype=complex)
    sq = np.sqrt(np.arange(1, d))
    kmax = d if sigma2 > 0 else 1
    for k in range(kmax):
        v = np.zeros(d, dtype=complex)
        v[k] = s ** (k / 2.0)
        for i in range(k + 1, d):
            v[i] = v[i - 1] * tb * sq[i - 1] / (i - k)
        m += np.outer(v, v.conj())
    m *= (t / math.pi) * math.exp(-t * abs(beta) ** 2)
    return Operator(space, m)


def _default_ygrid(xs, sigma2: float, d: int) -> np.ndarray:
    """Grid for the raw outcomes ``xs`` and kets of ``d`` levels: step 0.005
    on |y| <= max(10, max|x| + 8 sqrt(sigma^2/2)) (the noise kernel to eight
    deviations), capped at sqrt(2d + 1) + 12 (the densities below roundoff)."""
    half = min(max(HOMODYNE_YGRID_RANGE,
                   float(np.abs(xs).max()) + 8.0 * math.sqrt(sigma2 / 2.0)),
               math.sqrt(2 * d + 1) + 12.0)
    n = int(round(2 * half / HOMODYNE_YGRID_STEP)) + 1
    return np.linspace(-half, half, n)


def _homodyne_kernel(xs, sigma2: float, y: np.ndarray) -> np.ndarray:
    """(points, outcomes) trapezoid weights of the noise kernel K_sigma(x - y)
    on the grid ``y``, one column per outcome x in ``xs``."""
    arg = np.subtract.outer(y, np.atleast_1d(np.asarray(xs, dtype=float)))
    arg *= arg
    arg /= -sigma2
    # exp is left at 0 where it would be subnormal (1e-308 of the peak):
    # most of the table lies there, and exp takes a ~15x slower path on it
    w = np.zeros_like(arg)
    np.exp(arg, out=w, where=arg >= math.log(np.finfo(float).tiny))
    w /= math.sqrt(math.pi * sigma2)
    w *= y[1] - y[0]
    w[[0, -1]] *= 0.5
    return w


def homodyne_element(x: float, sigma2: float, space: FockSpace) -> Operator:
    """<m|M_x|n> = int K_sigma(x - y) h_m(y) h_n(y) dy by trapezoid quadrature.

    The grid is :func:`_default_ygrid` of x for ``space.dim`` levels, or,
    for a kernel of deviation sd = sqrt(sigma^2/2) under twice its step, the
    kernel's own window x + u, |u| <= 9 sd at step sd/8: the trapezoid rule
    errs on a Gaussian by ~e^{-2 pi^2 (sd/step)^2}, 0.17 of the element at
    sigma^2 6e-6 on the default grid. sigma^2 = 0 returns the rank-one outcome
    density h_m(x) h_n(x) (per unit outcome, not a projector). The numeric
    POVM needs no grid (:func:`measurement._detector_expectations`), so this
    is its cross-check.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    d = space.dim
    if sigma2 == 0.0:
        h = hermite_functions(d, np.array([float(x)]))[:, 0]
        return Operator(space, np.outer(h, h).astype(complex))
    sd = math.sqrt(sigma2 / 2.0)
    if sd >= 2 * HOMODYNE_YGRID_STEP:
        y = _default_ygrid(float(x), sigma2, d)
        w = _homodyne_kernel(x, sigma2, y)[:, 0]
    else:  # weights from the exact offsets u, not from y - x
        u = sd * np.linspace(-9.0, 9.0, 145)
        y, w = float(x) + u, _homodyne_kernel(0.0, sigma2, u)[:, 0]
    h = hermite_functions(d, y)
    m = (h * w) @ h.T
    return Operator(space, m.astype(complex))


def husimi_values(state, betas) -> np.ndarray:
    """Q(beta) = <beta|rho|beta>/pi over a flat array of betas, from the
    dense overlap matrix C[n, j] = <n|beta_j> (C[0] underflows past
    |beta|^2 ~ 1416)."""
    betas = np.asarray(betas, dtype=complex)
    c = np.empty((state.space.dim, betas.shape[0]), dtype=complex)
    c[0] = np.exp(-0.5 * np.abs(betas) ** 2)
    for n in range(1, state.space.dim):
        c[n] = c[n - 1] * betas / math.sqrt(n)
    if state.kind == "ket":
        return np.abs(state.data.conj() @ c) ** 2 / math.pi
    return np.real(np.einsum("nj,nm,mj->j", c.conj(), state.data, c)) / math.pi
