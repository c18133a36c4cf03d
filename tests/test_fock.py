"""Fock-core unit tests: ladder algebra, states, spectra, moments, plumbing."""
import math

import numpy as np
import pytest

from fockamp import (FockSpace, NotHermitian, NotNormal, Operator,
                     TruncationError, annihilation_op, coherent_state,
                     fock_state, gaussian_meter, guard_keep,
                     hermite_functions, make_state, normal_decompose,
                     number_op, parity_op, partial_trace,
                     quadrature_amplitudes, quadrature_ops, squeezed_vacuum,
                     symmetrized_moment, tensor, vacuum_state, variance)
from fockamp.fock import State
from fockamp.oracles import (cv_swap, displacement_matrix, embed,
                             unitary_from_generator)


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_ladder_lowers_one_photon():
    a = annihilation_op(FockSpace(2)).matrix
    assert a[0, 1] == 1.0
    assert np.abs(a - np.array([[0, 1], [0, 0]])).max() == 0.0


def test_ladder_sqrt_rule():
    a = annihilation_op(FockSpace(8)).matrix
    assert abs(a[2, 3] - math.sqrt(3)) < 1e-15


def test_projected_ladder_commutator():
    # P [a, a^dag] P = P for P keeping levels 0..6 of dim 8; the top level
    # violates the commutator by -(N-1)
    d = 8
    a = annihilation_op(FockSpace(d)).matrix
    c = a @ a.conj().T - a.conj().T @ a
    assert np.abs(c[:7, :7] - np.eye(d)[:7, :7]).max() < 1e-14
    assert abs(c[7, 7] - (1 - d)) < 1e-12


def test_quadrature_vacuum_variance():
    sp = FockSpace(12)
    x, _ = quadrature_ops(sp)
    assert abs(variance(vacuum_state(sp), x) - 0.5) < 1e-13


def test_quadrature_commutator_guarded():
    sp = FockSpace(12)
    x, p = quadrature_ops(sp)
    c = (x @ p - p @ x).matrix
    assert np.abs(c[:10, :10] - 1j * np.eye(12)[:10, :10]).max() < 1e-13


def test_quadratures_hermitian():
    x, p = quadrature_ops(FockSpace(12))
    assert x.hermiticity_residual() < 1e-14
    assert p.hermiticity_residual() < 1e-14


def test_guard_keep():
    assert guard_keep(8) == 6
    assert guard_keep(12) == 9
    assert guard_keep(30) == 22


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def test_gaussian_meter_unit_epsilon_is_vacuum():
    sp = FockSpace(20)
    assert gaussian_meter(sp, 1.0).fidelity(fock_state(sp, 0)) > 1 - 1e-10


def test_gaussian_meter_position_variance():
    sp = FockSpace(40)
    x, _ = quadrature_ops(sp)
    for eps in (0.5, 0.8, 1.3):
        st = gaussian_meter(sp, eps)
        assert abs(variance(st, x) - eps * eps / 2) < 1e-8


def test_squeezed_vacuum_variance():
    sp = FockSpace(24)
    st = squeezed_vacuum(sp, 0.5)
    x, _ = quadrature_ops(sp)
    assert abs(variance(st, x) - 0.5 * math.exp(-1.0)) < 1e-6


def test_squeezed_vacuum_antisqueezed_momentum():
    sp = FockSpace(40)
    st = squeezed_vacuum(sp, 0.5)
    _, p = quadrature_ops(sp)
    assert abs(variance(st, p) - 0.5 * math.exp(1.0)) < 1e-6


def _even_level_row(dim, r, phi):
    """The closed-form even levels sech(r)^{1/2} (-e^{2i phi} tanh r)^k
    sqrt((2k)!) / (2^k k!) of the squeezed vacuum, renormalized on dim."""
    k = np.arange((dim + 1) // 2)
    ln = np.array([0.5 * math.lgamma(2 * j + 1) - j * math.log(2.0) - math.lgamma(j + 1)
                   for j in k])
    row = np.zeros(dim, dtype=complex)
    row[::2] = (-np.exp(2j * phi) * math.tanh(r)) ** k * np.exp(ln)
    return row / np.linalg.norm(row)


@pytest.mark.parametrize("r, phi", [(0.5, 0.3), (-0.7, 1.2), (1.0, -2.0)])
def test_squeezed_vacuum_squeezes_the_rotated_quadrature(r, phi):
    # S(r e^{2i phi})|0> has variance e^{-2r}/2 on x cos(phi) + p sin(phi)
    # and e^{2r}/2 on the orthogonal quadrature, and its levels are the
    # closed-form even-level coefficients
    sp = FockSpace(120)
    st = squeezed_vacuum(sp, r, phi)
    x, p = (q.matrix for q in quadrature_ops(sp))
    c, s = math.cos(phi), math.sin(phi)
    assert abs(variance(st, Operator(sp, c * x + s * p)) - math.exp(-2 * r) / 2) < 1e-10
    assert abs(variance(st, Operator(sp, c * p - s * x)) - math.exp(2 * r) / 2) < 1e-10
    assert np.abs(st.data - _even_level_row(120, r, phi)).max() <= 1e-14


def test_gaussian_meter_at_the_squeezing_limit():
    # at epsilon = e^{-R_MAX}, tanh r rounds to 1.0: the even levels no longer
    # decay, the 12-level meter is their renormalized row, and the whole
    # norm lies past the cutoff
    from fockamp.amplifiers import R_MAX
    epsilon = math.exp(-R_MAX)
    assert math.tanh(-math.log(epsilon)) == 1.0
    with pytest.warns(UserWarning, match="truncation tail"):
        st = gaussian_meter(FockSpace(12), epsilon)
    assert np.abs(st.data - _even_level_row(12, -math.log(epsilon), 0.0)).max() <= 1e-15
    assert st.norm_defect == 1.0


def test_coherent_eigenvalue():
    sp = FockSpace(24)
    st = coherent_state(sp, 1.0 + 0.0j)
    assert abs(st.expectation(annihilation_op(sp)) - 1.0) < 1e-10


def test_coherent_truncation_error():
    with pytest.raises(TruncationError):
        coherent_state(FockSpace(6), 3.0)


def test_coherent_top_level_warning():
    with pytest.warns(UserWarning):
        coherent_state(FockSpace(8), 0.6)


def test_coherent_norm_defect_recorded():
    st = coherent_state(FockSpace(24), 1.0)
    exact_tail = 1.0 - sum(math.exp(-1.0) / math.factorial(n) for n in range(24))
    assert abs(st.norm_defect - exact_tail) < 1e-15


def test_make_state_dispatcher():
    sp = FockSpace(16)
    assert make_state(sp, "fock", n=3).fidelity(fock_state(sp, 3)) == 1.0
    assert make_state(sp, "vacuum").fidelity(fock_state(sp, 0)) == 1.0
    with pytest.raises(ValueError):
        make_state(sp, "cat")


def test_state_validation():
    sp = FockSpace(4)
    with pytest.raises(ValueError):
        State(sp, "ket", np.array([1.0, 1.0, 0, 0]))
    with pytest.raises(ValueError):
        State(sp, "density", np.eye(4))  # trace 4


# ---------------------------------------------------------------------------
# unitaries from generators
# ---------------------------------------------------------------------------

def test_zero_generator_gives_identity():
    sp = FockSpace(8)
    h = Operator(sp, np.zeros((8, 8)))
    u = unitary_from_generator(h, 3.7)
    assert np.abs(u.matrix - np.eye(8)).max() < 1e-14
    x, _ = quadrature_ops(sp)
    assert np.abs(unitary_from_generator(x, 0.0).matrix - np.eye(8)).max() < 1e-14


def test_momentum_generator_displaces_x():
    # exp(i p t) x exp(-i p t) = x + t, checked away from the cutoff.
    sp = FockSpace(32)
    x, p = quadrature_ops(sp)
    u = unitary_from_generator(p, 1.0)
    lhs = u.h.matrix @ x.matrix @ u.matrix
    target = x.matrix + np.eye(32)
    assert np.abs((lhs - target)[:13, :13]).max() < 1e-8


def test_position_generator_displaces_p_downward():
    # with [x, p] = i, exp(i x t) p exp(-i x t) = p - t
    sp = FockSpace(32)
    x, p = quadrature_ops(sp)
    u = unitary_from_generator(x, 1.0)
    lhs = u.h.matrix @ p.matrix @ u.matrix
    assert np.abs((lhs - (p.matrix - np.eye(32)))[:13, :13]).max() < 1e-8


def test_unitarity_of_generator_exponential():
    rng = np.random.default_rng(3)
    sp = FockSpace(16)
    for t in (0.3, 1.7):
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        u = unitary_from_generator(Operator(sp, (h + h.conj().T) / 2), t)
        assert u.unitarity_residual() < 1e-10


def test_displacement_matrix_closed_form():
    # first column is the coherent ket, D(alpha)^dag = D(-alpha), and the
    # projection equals the untruncated product D(a) D(b) = e^{i Im(a b*)} D(a+b)
    # on rows and columns far below the cutoff
    a, b = 1.3 - 0.7j, -0.4 + 2.1j
    d = displacement_matrix(a, 80)
    lg = np.array([math.lgamma(n + 1) for n in range(80)])
    coh = np.exp(-abs(a) ** 2 / 2 + np.arange(80) * np.log(complex(a)) - lg / 2)
    assert np.abs(d[:, 0] - coh).max() < 1e-14
    assert np.abs(d.conj().T - displacement_matrix(-a, 80)).max() < 1e-14
    prod = (d @ displacement_matrix(b, 80))[:20, :20]
    target = np.exp(1j * (a * b.conjugate()).imag) * displacement_matrix(a + b, 80)
    assert np.abs(prod - target[:20, :20]).max() < 1e-12
    assert np.array_equal(displacement_matrix(0.0, 5), np.eye(5))


def _displacement_element_50_digits(mpmath, alpha, m, n):
    """<m|D(alpha)|n> from the Cahill-Glauber closed form at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpc(alpha.real, alpha.imag)
        z = a if m >= n else -mpmath.conj(a)
        lo, k = min(m, n), abs(m - n)
        x = abs(a) ** 2
        val = (mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(lo + k))
               * z ** k * mpmath.exp(-x / 2) * mpmath.laguerre(lo, k, x))
        return complex(val)


def test_displacement_matrix_finite_and_exact_at_1100_levels():
    # L_n^(k) overflows from about 1040 levels up; the recurrence runs on the
    # bounded elements, so every entry stays finite and matches 50 digits
    mpmath = pytest.importorskip("mpmath")
    levels = (0, 1, 37, 550, 1040, 1099)
    for alpha in (0.3j, 7.0 - 12.0j):
        d = displacement_matrix(alpha, 1100)
        assert np.isfinite(d).all()
        worst = max(abs(d[m, n] - _displacement_element_50_digits(mpmath, alpha, m, n))
                    for m in levels for n in levels)
        assert worst < 1e-11


def test_non_hermitian_generator_rejected():
    with pytest.raises(NotHermitian):
        unitary_from_generator(annihilation_op(FockSpace(6)), 1.0)


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_decompose_number_operator():
    sp = FockSpace(6)
    dec = normal_decompose(number_op(sp))
    assert np.abs(np.sort(dec.eigenvalues.real) - np.arange(6)).max() < 1e-12
    assert np.abs(dec.eigenvalues.imag).max() < 1e-12
    # eigenvectors are the Fock basis up to phases
    overlap = np.abs(dec.eigenvectors)
    assert np.abs(np.sort(overlap, axis=0)[-1] - 1.0).max() < 1e-12
    assert dec.residual < 1e-12


def test_decompose_rejects_ladder():
    with pytest.raises(NotNormal):
        normal_decompose(annihilation_op(FockSpace(8)))


def test_decompose_complex_normal():
    rng = np.random.default_rng(11)
    sp = FockSpace(10)
    # random normal operator: unitary conjugation of a complex diagonal
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    q, _ = np.linalg.qr(m)
    lam = rng.normal(size=10) + 1j * rng.normal(size=10)
    f = Operator(sp, (q * lam) @ q.conj().T)
    dec = normal_decompose(f)
    assert dec.residual < 1e-10
    ortho = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.abs(ortho - np.eye(10)).max() < 1e-10


def test_decompose_eigenvalue_order():
    # ascending real part, then ascending imaginary part among equal real parts
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    lam = np.array([1 + 2j, 5j, 1 - 1j, -2, 1])
    dec = normal_decompose(Operator(FockSpace(5), (q * lam) @ q.conj().T))
    assert np.abs(dec.eigenvalues - [-2, 5j, 1 - 1j, 1, 1 + 2j]).max() < 1e-12
    assert np.array_equal(normal_decompose(number_op(FockSpace(6))).eigenvalues,
                          np.arange(6))
    # parity lists its -1 eigenspace first, so eigen_index 0..2 is odd parity
    assert np.array_equal(normal_decompose(parity_op(FockSpace(6))).eigenvalues,
                          [-1, -1, -1, 1, 1, 1])


def test_decompose_rejects_nonunitary_eigenbasis():
    # with a loose tolerance a nilpotent f passes the commutator gate
    # ([f, f^dag] ~ eps^2); the eigenbasis gate still rejects it
    f = Operator(FockSpace(2), np.array([[0.0, 0.01], [0.0, 0.0]]))
    with pytest.raises(NotNormal, match="joint eigenbasis residual"):
        normal_decompose(f, tol=2e-4)


def test_decompose_degenerate_cluster():
    sp = FockSpace(6)
    f = Operator(sp, np.diag([0.0, 1.0, 1.0 + 5e-9, 2.0, 2.0, 3.0]).astype(complex))
    dec = normal_decompose(f)
    groups = dec.clusters()
    assert sorted(len(g) for g in groups) == [1, 1, 2, 2]
    # 1 and 1 + 5e-9 share a cluster, not an eigenspace
    assert np.diff(np.r_[dec.heads, 6]).tolist() == [1, 1, 1, 2, 1]


def test_dense_decompose_separates_close_eigenvalues_of_a_hermitian_f():
    # the same spectrum unitarily turned: 1 and 1 + 5e-9 share a run of h,
    # whose k = (f - f^dag)/2i is roundoff; turning the run by eigh of that
    # noise mixed the pair 91 % / 9 % and moved each eigenvalue by ~5e-10
    lam = np.array([0.0, 1.0, 1.0 + 5e-9, 2.0])
    z = np.random.default_rng(0).normal(size=(4, 4, 2)) @ [1.0, 1j]
    u = np.linalg.qr(z)[0]
    dec = normal_decompose(Operator(FockSpace(4), (u * lam) @ u.conj().T))
    assert np.abs(dec.eigenvalues - lam).max() < 1e-12
    overlap = np.abs(np.sum(u.conj() * dec.eigenvectors, axis=0)) ** 2
    assert overlap.min() >= 1.0 - 1e-9
    assert np.diff(np.r_[dec.heads, 4]).tolist() == [1, 1, 1, 1]
    assert dec.residual < 1e-14


def test_functional_calculus_square():
    sp = FockSpace(16)
    x, _ = quadrature_ops(sp)
    dec = normal_decompose(x)
    v = dec.eigenvectors
    x2 = (v * dec.eigenvalues ** 2) @ v.conj().T
    assert np.abs(x2 - x.matrix @ x.matrix).max() < 1e-10


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_symmetrized_moment_vacuum_ladder():
    sp = FockSpace(12)
    assert abs(symmetrized_moment(vacuum_state(sp), annihilation_op(sp)) - 0.5) < 1e-13


def test_symmetrized_moment_eigenstate():
    sp = FockSpace(8)
    assert abs(symmetrized_moment(fock_state(sp, 2), number_op(sp))) < 1e-13


def test_symmetrized_moment_coherent_poisson():
    # independent oracle: renormalized Poisson weights summed by brute force
    d = 32
    alpha2 = 2.0
    logp = np.array([-alpha2 + n * math.log(alpha2) - math.lgamma(n + 1)
                     for n in range(d)])
    p = np.exp(logp)
    p /= p.sum()
    n = np.arange(d)
    mean = (p * n).sum()
    var = (p * (n - mean) ** 2).sum()
    sp = FockSpace(d)
    st = coherent_state(sp, math.sqrt(alpha2))
    assert abs(symmetrized_moment(st, number_op(sp)) - var) < 1e-12
    assert abs(var - 2.0) < 1e-6


def test_symmetrized_moment_nonnegative_and_matches_variance():
    rng = np.random.default_rng(5)
    sp = FockSpace(12)
    for _ in range(20):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        st = State(sp, "ket", v / np.linalg.norm(v))
        h = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        herm = Operator(sp, (h + h.conj().T) / 2)
        sym = symmetrized_moment(st, herm)
        assert sym >= -1e-12
        assert abs(sym - variance(st, herm)) < 1e-9
        # non-Hermitian operators still give a nonnegative spread
        assert symmetrized_moment(st, Operator(sp, h)) >= -1e-12


# ---------------------------------------------------------------------------
# composite-space plumbing
# ---------------------------------------------------------------------------

def test_cv_swap_exchanges_modes():
    sp = FockSpace((5, 5))
    st = tensor(fock_state(FockSpace(5), 2), fock_state(FockSpace(5), 0))
    swapped = cv_swap(sp, 0, 1).matrix @ st.data
    expected = tensor(fock_state(FockSpace(5), 0), fock_state(FockSpace(5), 2)).data
    assert np.abs(swapped - expected).max() < 1e-14


def test_cv_swap_squares_to_identity():
    sp = FockSpace((4, 4))
    s = cv_swap(sp, 0, 1)
    assert np.abs((s @ s).matrix - np.eye(16)).max() < 1e-14


def test_partial_trace_product_state():
    a = coherent_state(FockSpace(8), 0.5)
    b = fock_state(FockSpace(6), 1)
    joint = tensor(a, b)
    ra = partial_trace(joint, 0)
    rb = partial_trace(joint, 1)
    assert np.abs(ra.data - a.to_density().data).max() < 1e-14
    assert np.abs(rb.data - b.to_density().data).max() < 1e-14


def test_partial_trace_density_route_matches_ket_route():
    a = coherent_state(FockSpace(6), 0.4)
    b = squeezed_vacuum(FockSpace(6), 0.3)
    joint = tensor(a, b)
    from_ket = partial_trace(joint, 1).data
    from_rho = partial_trace(joint.to_density(), 1).data
    assert np.abs(from_ket - from_rho).max() < 1e-13


def test_embed_disjoint_slots_commute():
    sp = FockSpace((6, 6))
    a0 = embed(annihilation_op(FockSpace(6)), 0, sp)
    a1 = embed(annihilation_op(FockSpace(6)), 1, sp)
    assert np.abs((a0 @ a1 - a1 @ a0).matrix).max() < 1e-14


def test_tensor_operator_dims():
    op = tensor(number_op(FockSpace(3)), Operator(FockSpace(4), np.eye(4)))
    assert op.space.dims == (3, 4)
    assert np.abs(op.matrix - np.kron(np.diag([0, 1, 2]), np.eye(4))).max() == 0


# ---------------------------------------------------------------------------
# position representation
# ---------------------------------------------------------------------------

def test_vacuum_amplitude_at_origin():
    sp = FockSpace(12)
    amp = quadrature_amplitudes(vacuum_state(sp), [0.0])[0]
    assert abs(amp - math.pi ** -0.25) < 1e-14


def test_single_photon_amplitude_vanishes_at_origin():
    sp = FockSpace(12)
    assert abs(quadrature_amplitudes(fock_state(sp, 1), [0.0])[0]) < 1e-14


def test_gaussian_meter_wavefunction():
    sp = FockSpace(24)
    eps = 0.7
    st = gaussian_meter(sp, eps)
    xs = np.linspace(-3, 3, 61)
    dens = np.abs(quadrature_amplitudes(st, xs)) ** 2
    target = np.exp(-xs ** 2 / eps ** 2) / math.sqrt(math.pi * eps ** 2)
    assert np.abs(dens - target).max() < 1e-6


def test_wavefunction_normalization():
    xs = np.arange(-8.0, 8.0 + 1e-9, 0.01)
    sp = FockSpace(24)
    for st in (fock_state(sp, 0), fock_state(sp, 3), coherent_state(sp, 1.0),
               squeezed_vacuum(sp, 0.4)):
        q = np.abs(quadrature_amplitudes(st, xs)) ** 2
        assert abs(np.trapezoid(q, xs) - 1.0) < 1e-6


def test_density_diagonal_amplitudes():
    sp = FockSpace(16)
    st = coherent_state(sp, 0.6).to_density()
    xs = np.array([0.0, 0.5])
    q = quadrature_amplitudes(st, xs)
    ket_q = np.abs(quadrature_amplitudes(coherent_state(sp, 0.6), xs)) ** 2
    assert np.abs(q.real - ket_q).max() < 1e-12


def test_hermite_recurrence_stable_at_high_order():
    h = hermite_functions(60, np.linspace(-10, 10, 101))
    assert np.isfinite(h).all()
    # orthonormality on a fine grid for a couple of pairs
    xs = np.arange(-12, 12, 0.002)
    h2 = hermite_functions(40, xs)
    gram = (h2 * 0.002) @ h2.T
    assert abs(gram[39, 39] - 1.0) < 1e-6
    assert abs(gram[39, 37]) < 1e-6


@pytest.mark.parametrize("nmax", [1, 2, 3, 300])
def test_hermite_table_matches_plain_recurrence_bit_for_bit(nmax):
    # the in-place recurrence does the plain formula's arithmetic in its
    # order, and every point on its own, so any block of points is a block
    # of the table
    xs = np.random.default_rng(nmax).uniform(-30.0, 30.0, 257)
    ref = np.zeros((nmax, xs.size))
    ref[0] = np.pi ** -0.25 * np.exp(-xs * xs / 2.0)
    if nmax > 1:
        ref[1] = np.sqrt(2.0) * xs * ref[0]
    for n in range(2, nmax):
        ref[n] = np.sqrt(2.0 / n) * xs * ref[n - 1] \
            - np.sqrt((n - 1.0) / n) * ref[n - 2]
    assert np.array_equal(hermite_functions(nmax, xs), ref)
    assert np.array_equal(hermite_functions(nmax, xs[100:131]), ref[:, 100:131])
