"""Amplifier tests: unitary constructions, input-output relations, moments."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fockamp import (FockSpace, GainOutOfRange, LinearAmp, NotHermitian,
                     NotNormal, Operator, SingleModeAmp, ThreeModeAmp,
                     TwoModeNormalAmp, VonNeumannAmp, Meter, annihilation_op,
                     coherent_state, fock_state, linear_amp_unitary, number_op,
                     parity_op, predict_output_moments, quadratic_signal_op,
                     quadrature_ops, real_imag_parts, simulate_output_state,
                     simulated_output_moments, single_mode_output_moments,
                     squeezed_vacuum, tensor, three_mode_unitary,
                     two_mode_unitary, two_mode_unitary_factored,
                     vacuum_state, von_neumann_unitary)
from fockamp.amplifiers import (displaced_meter_ket, meter_dim_for,
                                single_mode_commutator_residual,
                                three_mode_columns)
from fockamp.errors import TruncationError
from fockamp.fock import State


# ---------------------------------------------------------------------------
# quadratic signal operators
# ---------------------------------------------------------------------------

def test_quadratic_fplus_is_x_squared():
    sp = FockSpace(16)
    f, ok = quadratic_signal_op(sp, 0.5, 1.0, 0.5, 0.5)
    assert ok
    x, _ = quadrature_ops(sp)
    # agrees with x@x except for the (N/2) top-corner truncation defect
    diff = f.matrix - x.matrix @ x.matrix
    assert abs(diff[15, 15] - 8.0) < 1e-12
    diff[15, 15] = 0.0
    assert np.abs(diff).max() < 1e-12


def test_quadratic_fminus_is_p_squared():
    sp = FockSpace(16)
    f, ok = quadratic_signal_op(sp, -0.5, 1.0, -0.5, 0.5)
    assert ok
    _, p = quadrature_ops(sp)
    diff = f.matrix - p.matrix @ p.matrix
    diff[15, 15] = 0.0
    assert np.abs(diff).max() < 1e-12


def test_quadratic_normality_flags():
    sp = FockSpace(10)
    _, bad = quadratic_signal_op(sp, 1.0, 0.0, 0.0, 0.0)
    assert not bad
    f, _ = quadratic_signal_op(sp, 1.0, 0.0, 0.0, 0.0)
    assert f.commutator_norm() > 1.0  # [a^2, a^dag^2] != 0 by direct product
    _, diag_ok = quadratic_signal_op(sp, 0.0, 2.0 + 1.0j, 0.0, 7.0j)
    assert diag_ok


def test_quadratic_fplus_spectrum_psd():
    sp = FockSpace(16)
    f, _ = quadratic_signal_op(sp, 0.5, 1.0, 0.5, 0.5)
    from fockamp import normal_decompose
    dec = normal_decompose(f)
    assert np.abs(dec.eigenvalues.imag).max() < 1e-10
    assert dec.eigenvalues.real.min() > -1e-8
    # each squared eigenvalue of truncated x survives in the spectrum (the
    # rank-one cutoff defect shifts only one member of each +/- pair)
    x, _ = quadrature_ops(sp)
    lam_x2 = np.unique(np.round(np.linalg.eigvalsh(x.matrix) ** 2, 10))
    for val in lam_x2:
        assert np.abs(dec.eigenvalues.real - val).min() < 1e-8


# ---------------------------------------------------------------------------
# two-mode coupling
# ---------------------------------------------------------------------------

def test_two_mode_zero_gain_is_identity():
    # U = 1 displaces nothing, so no meter size is "truncation limited"
    sp = FockSpace(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        u = two_mode_unitary(number_op(sp), 0.0, (4, 12))
    assert np.abs(u.matrix - np.eye(48)).max() < 1e-14


def test_two_mode_unitary_for_unitary_signal():
    sp = FockSpace(6)
    u = two_mode_unitary(parity_op(sp), 0.5, (6, 20))
    assert u.unitarity_residual() < 1e-10


def test_two_mode_meter_relation():
    # U^dag (I x b) U = g f + b; meter guard sized to the conditional
    # displacement (g * fmax_kept = 2.4 needs low meter levels at dim 30)
    da, db, g = 6, 30, 0.8
    sp = FockSpace(da)
    u = two_mode_unitary(number_op(sp), g, (da, db))
    b = annihilation_op(FockSpace(db)).matrix
    big_b = np.kron(np.eye(da), b)
    lhs = u.h.matrix @ big_b @ u.matrix
    rhs = g * np.kron(number_op(sp).matrix, np.eye(db)) + big_b
    d = (lhs - rhs).reshape(da, db, da, db)
    assert np.abs(d[:4, :3, :4, :3]).max() < 1e-7


def test_zassenhaus_factorization_on_amplifier_inputs():
    # the ordered product equals the projected untruncated unitary; the
    # direct exponential matches it to roundoff on vacuum-meter columns
    # whenever the displaced meter fits under the cutoff
    sp = FockSpace(4)
    for g in (0.5, 1.0, 1.5):
        ud = two_mode_unitary(number_op(sp), g, (4, 60))
        uf = two_mode_unitary_factored(number_op(sp), g, (4, 60))
        d = (ud.matrix - uf.matrix).reshape(4, 60, 4, 60)
        assert np.abs(d[:3, :45, :3, 0]).max() < 1e-8


def test_zassenhaus_full_guarded_block_small_displacement():
    sp = FockSpace(4)
    ud = two_mode_unitary(number_op(sp), 0.5, (4, 60))
    uf = two_mode_unitary_factored(number_op(sp), 0.5, (4, 60))
    d = (ud.matrix - uf.matrix).reshape(4, 60, 4, 60)
    assert np.abs(d[:3, :45, :3, :45]).max() < 1e-8


def test_two_mode_rejects_nonnormal():
    with pytest.raises(NotNormal):
        TwoModeNormalAmp(annihilation_op(FockSpace(6)), 1.0)


# ---------------------------------------------------------------------------
# von Neumann coupling
# ---------------------------------------------------------------------------

def test_von_neumann_zero_gain_identity():
    sp = FockSpace(4)
    v = von_neumann_unitary(number_op(sp), 0.0, (4, 10))
    assert np.abs(v.matrix - np.eye(40)).max() < 1e-14


def test_von_neumann_meter_relation():
    da, db, g = 5, 40, 1.0
    sp = FockSpace(da)
    v = von_neumann_unitary(number_op(sp), g, (da, db))
    b = annihilation_op(FockSpace(db)).matrix
    big_b = np.kron(np.eye(da), b)
    lhs = v.h.matrix @ big_b @ v.matrix
    rhs = g * np.kron(number_op(sp).matrix, np.eye(db)) + big_b
    d = (lhs - rhs).reshape(da, db, da, db)
    assert np.abs(d[:3, :10, :3, :10]).max() < 1e-6


def test_von_neumann_identity_signal_displaces_meter():
    # f = 1 shifts the meter position by sqrt(2) g, leaving the system alone
    da, db, g = 3, 40, 1.0
    sp = FockSpace(da)
    v = von_neumann_unitary(Operator(sp, np.eye(da)), g, (da, db))
    out = v.matrix @ tensor(fock_state(sp, 1), vacuum_state(FockSpace(db))).data
    target = tensor(fock_state(sp, 1),
                    coherent_state(FockSpace(db), g)).data
    assert abs(abs(np.vdot(out, target)) - 1.0) < 1e-10


def test_von_neumann_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        VonNeumannAmp(annihilation_op(FockSpace(6)), 1.0)
    sp = FockSpace(6)
    with pytest.raises(NotHermitian):
        von_neumann_unitary(Operator(sp, number_op(sp).matrix + 0.3j * np.eye(6)),
                            1.0, (6, 10))


# ---------------------------------------------------------------------------
# three-mode coupling
# ---------------------------------------------------------------------------

def test_three_mode_zero_gain_identity():
    sp = FockSpace(3)
    w = three_mode_unitary(number_op(sp), 0.0, (3, 6, 6))
    assert np.abs(w.matrix - np.eye(108)).max() < 1e-13


def test_three_mode_matches_brute_force_exponential():
    sp = FockSpace(4)
    f = Operator(sp, number_op(sp).matrix + 0.3j * np.eye(4))
    dims = (4, 10, 10)
    g = 0.7
    w = three_mode_unitary(f, g, dims)
    fr, fi = real_imag_parts(f)
    pb = quadrature_ops(FockSpace(10))[1].matrix
    h = g * (np.kron(np.kron(fr.matrix, pb), np.eye(10))
             + np.kron(np.kron(fi.matrix, np.eye(10)), pb))
    brute = expm(-1j * h)
    assert np.abs(w.matrix - brute).max() < 1e-12
    assert w.unitarity_residual() < 1e-12
    # the column builder behind W, on a keep that differs in every mode
    cols = three_mode_columns(f, g, dims, (3, 4, 5))
    assert cols.shape == dims + (3, 4, 5)
    want = brute.reshape(dims + dims)[..., :3, :4, :5]
    assert np.abs(cols - want).max() < 1e-12


def test_three_mode_hermitian_signal_leaves_mode_c_alone():
    sp = FockSpace(4)
    w = three_mode_unitary(number_op(sp), 0.9, (4, 12, 12))
    m = w.matrix.reshape(4, 12, 12, 4, 12, 12)
    # block-diagonal in mode c: W = W_ab (x) I_c
    wc = m[:, :, 0, :, :, 0]
    full = np.kron(wc.reshape(48, 48), np.eye(12))
    assert np.abs(full - w.matrix.reshape(48 * 12, 48 * 12)).max() < 1e-12


def test_three_mode_meter_relations_complex_signal():
    sp = FockSpace(5)
    f = Operator(sp, number_op(sp).matrix + 0.3j * np.eye(5))
    dims = (5, 24, 24)
    g = 0.7
    w = three_mode_unitary(f, g, dims)
    fr, fi = real_imag_parts(f)
    from fockamp import embed
    cs = FockSpace(dims)
    # (W^H X W)[R, R] = W[:, R]^H X W[:, R] on the guarded indices R
    guard = np.ravel_multi_index(np.ix_(range(3), range(6), range(6)),
                                 dims).ravel()
    cols = w.matrix[:, guard]
    for mode, part in ((1, fr), (2, fi)):
        xq = embed(quadrature_ops(FockSpace(24))[0], mode, cs).matrix
        rhs = xq + g * embed(part, 0, cs).matrix
        block = cols.conj().T @ xq @ cols - rhs[np.ix_(guard, guard)]
        assert np.abs(block).max() < 1e-6


# ---------------------------------------------------------------------------
# linear amplifier
# ---------------------------------------------------------------------------

def test_linear_unit_gain_is_identity():
    u = linear_amp_unitary(1.0, (8, 8))
    assert np.abs(u.matrix - np.eye(64)).max() < 1e-13


def test_linear_gain_below_one_rejected():
    with pytest.raises(GainOutOfRange):
        linear_amp_unitary(0.8, (8, 8))
    with pytest.raises(GainOutOfRange):
        LinearAmp(0.9)


def test_linear_io_relation():
    # U^dag (a x I) U = g (a x I) + sqrt(g^2-1) (I x b^dag) near the bottom;
    # squeezer conjugation contaminates the kept block like tanh(r)^(dim-keep),
    # so the meter guard here is much deeper than the 1/4 rule
    g = 1.25
    da = db = 40
    u = linear_amp_unitary(g, (da, db))
    a = annihilation_op(FockSpace(da)).matrix
    b = annihilation_op(FockSpace(db)).matrix
    lhs = u.h.matrix @ np.kron(a, np.eye(db)) @ u.matrix
    rhs = g * np.kron(a, np.eye(db)) + math.sqrt(g * g - 1) * np.kron(np.eye(da), b.conj().T)
    d = (lhs - rhs).reshape(da, db, da, db)
    assert np.abs(d[:5, :5, :5, :5]).max() < 1e-6


def test_linear_amplified_mean():
    sp = FockSpace(20)
    rep = simulated_output_moments(LinearAmp(1.25), coherent_state(sp, 0.5),
                                   dims=(20,))
    assert abs(rep.mean_out - 1.25 * 0.5) < 1e-6


def test_linear_vacuum_noise():
    g = 1.25
    sp = FockSpace(20)
    rep = simulated_output_moments(LinearAmp(g), vacuum_state(sp), dims=(20,))
    assert abs(rep.symmetrized_noise - (g * g * 0.5 + (g * g - 1) * 0.5)) < 1e-6


def test_linear_added_noise_lower_bound():
    # added noise (g^2-1)<|db|^2> >= (g^2-1)/2 for every meter preparation
    sp = FockSpace(16)
    st = vacuum_state(sp)
    for g in (1.25, 1.5, 2.0):
        for meter in (Meter(), Meter("squeezed", 0.5), Meter("gaussian", epsilon=0.7)):
            rep = predict_output_moments(LinearAmp(g, meter), st)
            assert rep.added_noise >= (g * g - 1) * 0.5 - 1e-10
            assert abs(rep.added_noise
                       - (g * g - 1) * meter.symmetrized_variance()) < 1e-12


# ---------------------------------------------------------------------------
# moment predictions and simulations
# ---------------------------------------------------------------------------

def test_predicted_number_amplifier_moments():
    sp = FockSpace(8)
    spec = TwoModeNormalAmp(number_op(sp), 3.0)
    rep = predict_output_moments(spec, fock_state(sp, 2))
    assert abs(rep.quad_means[0] - 6 * math.sqrt(2)) < 1e-12
    assert abs(rep.quad_noises[0] - 0.5) < 1e-12
    snr = rep.quad_means[0] / math.sqrt(rep.quad_noises[0])
    assert abs(snr - 12.0) < 1e-10


def test_predicted_squeezed_meter_snr():
    sp = FockSpace(8)
    spec = TwoModeNormalAmp(number_op(sp), 3.0, Meter("squeezed", 1.0))
    rep = predict_output_moments(spec, fock_state(sp, 2))
    snr = rep.quad_means[0] / math.sqrt(rep.quad_noises[0])
    assert abs(snr - 12.0 * math.e) < 1e-9
    assert abs(rep.added_noise - 0.5 * math.exp(-2.0)) < 1e-12


def test_eigenstate_input_leaves_meter_noise_only():
    sp = FockSpace(8)
    spec = TwoModeNormalAmp(number_op(sp), 2.5)
    rep = predict_output_moments(spec, fock_state(sp, 3))
    assert abs(rep.quad_noises[0] - 0.5) < 1e-12
    assert abs(rep.symmetrized_noise - 0.5) < 1e-12


def test_simulated_von_neumann_meter_mean():
    sp = FockSpace(6)
    spec = VonNeumannAmp(number_op(sp), 1.5)
    rep = simulated_output_moments(spec, fock_state(sp, 1))
    assert abs(rep.quad_means[0] - math.sqrt(2) * 1.5) < 1e-6


def test_added_noise_gain_independent_simulated():
    sp = FockSpace(6)
    vals = []
    for g in (0.5, 1.0, 2.0, 4.0):
        rep = simulated_output_moments(TwoModeNormalAmp(number_op(sp), g),
                                       fock_state(sp, 2))
        vals.append(rep.added_noise)
    assert abs(vals[0] - 0.5) < 1e-8
    assert max(vals) - min(vals) < 1e-8


def test_added_noise_gain_independent_squeezed_meter():
    sp = FockSpace(4)
    meter = Meter("squeezed", 0.3)
    vals = []
    for g in (0.5, 1.0, 2.0):
        rep = simulated_output_moments(
            TwoModeNormalAmp(number_op(sp), g, meter), fock_state(sp, 2),
            dims=(160,))
        vals.append(rep.added_noise)
    assert max(vals) - min(vals) < 1e-8
    assert abs(vals[0] - 0.5 * math.exp(-0.6)) < 1e-4


def _mixed_state(sp, support, rank, seed):
    """Random density matrix of the given rank on the lowest ``support`` levels."""
    rng = np.random.default_rng(seed)
    a = np.zeros((sp.dim, rank), dtype=complex)
    a[:support] = rng.normal(size=(support, rank)) + 1j * rng.normal(size=(support, rank))
    rho = a @ a.conj().T
    return State(sp, "density", rho / np.trace(rho).real)


def test_spectral_route_matches_dense_route():
    # oracle: the dense composite unitary applied to input (x) meter
    sp = FockSpace(6)
    st = State(sp, "ket", np.array([0.8, 0.0, 0.6j, 0.0, 0.0, 0.0]))
    joint = tensor(st, vacuum_state(FockSpace(64))).data
    for spec, unitary in ((TwoModeNormalAmp(number_op(sp), 1.2), two_mode_unitary),
                          (VonNeumannAmp(number_op(sp), 1.2), von_neumann_unitary)):
        dense = unitary(spec.f, spec.g, (6, 64)).matrix @ joint
        spectral = simulate_output_state(spec, st, dims=(64,))
        fid = abs(np.vdot(dense, spectral.data))
        assert abs(fid - 1.0) < 1e-10
    # density inputs supported below the signal cutoff, against U (rho (x) sigma) U^dag
    rho = _mixed_state(sp, 4, 3, 0)
    for spec, unitary in (
            (TwoModeNormalAmp(number_op(sp), 1.2), two_mode_unitary),
            (VonNeumannAmp(number_op(sp), 1.2), von_neumann_unitary),
            (TwoModeNormalAmp(number_op(sp), 0.8, Meter("squeezed", 0.4)),
             two_mode_unitary)):
        u = unitary(spec.f, spec.g, (6, 64)).matrix
        dense = u @ tensor(rho, spec.meter.state(64)).data @ u.conj().T
        spectral = simulate_output_state(spec, rho, dims=(64,))
        assert spectral.kind == "density"
        assert np.abs(spectral.data - dense).max() < 1e-12


def test_spectral_route_three_mode_matches_dense():
    sp = FockSpace(4)
    f = Operator(sp, number_op(sp).matrix + 0.5j * np.eye(4))
    spec = ThreeModeAmp(f, 0.5)
    st = State(sp, "ket", np.array([0.6, 0.48j, 0.64, 0.0]))
    vac = vacuum_state(FockSpace(24))
    w = three_mode_unitary(f, 0.5, (4, 24, 24)).matrix
    dense = w @ tensor(st, vac, vac).data
    spectral = simulate_output_state(spec, st, dims=(24, 24))
    assert abs(abs(np.vdot(dense, spectral.data)) - 1.0) < 1e-10
    rho = _mixed_state(sp, 3, 2, 1)
    # rho (x) |0><0| (x) |0><0| is zero off the vacuum-meter columns
    vac_cols = w[:, ::24 * 24]
    dense = vac_cols @ rho.data @ vac_cols.conj().T
    spectral = simulate_output_state(spec, rho, dims=(24, 24))
    assert np.abs(spectral.data - dense).max() < 1e-12


@pytest.mark.parametrize("make_input", [
    lambda sp: fock_state(sp, 0),
    lambda sp: fock_state(sp, 1),
    lambda sp: fock_state(sp, 2),
    lambda sp: fock_state(sp, 3),
    lambda sp: coherent_state(sp, 0.5),
    lambda sp: squeezed_vacuum(sp, 0.4),
])
def test_predicted_vs_simulated_all_variants(make_input):
    sp = FockSpace(10)
    st = make_input(sp)
    fc = Operator(sp, number_op(sp).matrix + 0.3j * np.eye(10))
    specs = [
        TwoModeNormalAmp(number_op(sp), 1.5),
        VonNeumannAmp(number_op(sp), 1.2),
        ThreeModeAmp(fc, 0.8),
        SingleModeAmp((0.0, 0.0, 1.0), 2.0, 1.0),
    ]
    # linear amplification populates the signal space itself, so it gets a
    # roomier one (thermal tail at dim d scales like (1 - 1/g^2)^d)
    sp_lin = FockSpace(32)
    cases = [(spec, st, None) for spec in specs]
    cases.append((LinearAmp(1.25), make_input(sp_lin), (32,)))
    for spec, state, dims in cases:
        pred = predict_output_moments(spec, state)
        sim = simulated_output_moments(spec, state, dims=dims)
        tol = max(1e-6, 10 * state.norm_defect)
        assert abs(pred.mean_out - sim.mean_out) < tol
        assert abs(pred.quad_means[0] - sim.quad_means[0]) < tol
        assert abs(pred.quad_means[1] - sim.quad_means[1]) < tol
        assert abs(pred.quad_noises[0] - sim.quad_noises[0]) < tol * 10
        assert abs(pred.quad_noises[1] - sim.quad_noises[1]) < tol * 10
        assert abs(pred.added_noise - sim.added_noise) < tol * 10


def test_cv_swap_moves_signal_to_mode_zero():
    sp = FockSpace(10)
    spec = TwoModeNormalAmp(number_op(sp), 0.4)
    st = fock_state(sp, 2)
    plain = simulate_output_state(spec, st, dims=(10,))
    swapped = simulate_output_state(spec, st, dims=(10,), apply_swap=True)
    from fockamp.fock import mode_expectation
    b = annihilation_op(sp).matrix
    assert abs(mode_expectation(plain, 1, b) - mode_expectation(swapped, 0, b)) < 1e-12


def test_displaced_meter_ket_is_truncated_exponential():
    # the one conditional-displacement kernel: exp(alpha b^dag - alpha* b)
    # of the truncated b applied to any meter ket
    b = annihilation_op(FockSpace(24)).matrix
    for meter in (Meter(), Meter("squeezed", 0.5)):
        st = meter.state(24)
        for alpha in (0.7, 1.5 - 2.0j):
            target = expm(alpha * b.conj().T - np.conj(alpha) * b) @ st.data
            assert np.abs(displaced_meter_ket(st, alpha) - target).max() < 1e-13


def test_meter_dim_rule_and_cap():
    assert meter_dim_for(2.0, 3.0) == (2 * 3 + 6) ** 2
    with pytest.raises(TruncationError):
        meter_dim_for(30.0, 3.0)


@pytest.mark.parametrize("cls", [TwoModeNormalAmp, VonNeumannAmp])
@pytest.mark.parametrize("r", [1.5, 2.0])
def test_auto_sized_meter_counts_squeezing(cls, r):
    # the displacement rule alone picks 57 levels here, which leaves 7.1e-4
    # (r = 1.5) and 4.0e-2 (r = 2) of the squeezed meter above the cutoff
    sp = FockSpace(4)
    spec = cls(number_op(sp), 0.5, Meter("squeezed", r=r))
    for n in range(3):
        rep = simulated_output_moments(spec, fock_state(sp, n))
        assert abs(rep.added_noise - math.exp(-2 * r) / 2) < 1e-6
    assert meter_dim_for(2, 3) == 144


def test_simulation_rejects_lossy_meter():
    # at 40 levels the r = 1.5 meter drops 5.0e-3 of its norm; renormalized,
    # it read added noise 0.0494 where e^{-3}/2 = 0.0249 is right
    sp = FockSpace(6)
    spec = VonNeumannAmp(number_op(sp), 0.3, Meter("squeezed", r=1.5))
    with pytest.warns(UserWarning, match="truncation tail"):
        with pytest.raises(TruncationError, match="drops"):
            simulated_output_moments(spec, fock_state(sp, 1), dims=(40,))
    rep = simulated_output_moments(spec, fock_state(sp, 1))
    assert abs(rep.added_noise - math.exp(-3.0) / 2) < 1e-6


def test_auto_sizing_keeps_displacement_rule_for_fitting_meters():
    lam = np.arange(4.0)
    for g in (0.5, 1.0, 2.0):
        base = meter_dim_for(g, 3.0)
        assert meter_dim_for(g, 3.0, meter=Meter(), alphas=g * lam) == base
        assert meter_dim_for(g, 3.0, meter=Meter("squeezed", r=0.5),
                             alphas=g * lam) == base
    assert Meter().fock_levels() == 1
    # sinh(2)^2 = 13.2 quanta in all; at most 1e-6 of them above the levels
    levels = Meter("squeezed", r=2.0).fock_levels()
    st = squeezed_vacuum(FockSpace(levels + 1), 2.0)
    assert st.norm_defect * levels < 1e-6


# ---------------------------------------------------------------------------
# single-mode amplifier
# ---------------------------------------------------------------------------

def test_single_mode_momentum_mean_vacuum():
    sp = FockSpace(24)
    rep = single_mode_output_moments((0.0, 0.0, 1.0), 2.0, 0.0, vacuum_state(sp))
    assert abs(rep.quad_means[1] - math.sqrt(2)) < 1e-10


def test_single_mode_x_carries_no_signal():
    sp = FockSpace(48)
    st = coherent_state(sp, 0.4)
    x, _ = quadrature_ops(sp)
    for r in (0.0, 1.0, 3.0):
        rep = single_mode_output_moments((0.0, 0.0, 1.0), 2.0, r, st)
        assert abs(rep.quad_means[0]
                   - math.exp(r) * np.real(st.expectation(x))) < 1e-9


def test_single_mode_matrix_and_formula_routes_agree():
    sp = FockSpace(32)
    st = coherent_state(sp, 0.5)
    spec = SingleModeAmp((0.0, 0.0, 1.0), 2.0, 1.5)
    pred = predict_output_moments(spec, st)
    sim = simulated_output_moments(spec, st)
    assert abs(pred.quad_noises[1] - sim.quad_noises[1]) < 1e-10
    assert abs(pred.mean_out - sim.mean_out) < 1e-10


def test_single_mode_large_squeezing_noise_bound():
    # Var p_out - 2 g^2 Var f = sqrt(2) g e^{-r} cov + e^{-2r} Var p = O(g e^{-r})
    sp = FockSpace(48)
    g, r = 2.0, 3.0
    for st in (vacuum_state(sp), fock_state(sp, 2), coherent_state(sp, 0.5),
               fock_state(sp, 4)):
        rep = single_mode_output_moments((0.0, 0.0, 1.0), g, r, st)
        assert abs(rep.added_noise) <= 5 * g * math.exp(-r)


def test_single_mode_commutator_guarded():
    sp = FockSpace(48)
    res = single_mode_commutator_residual((0.0, 0.0, 1.0), 2.0, 3.0, sp)
    assert res < 1e-7


def test_single_mode_callable_signal():
    sp = FockSpace(32)
    st = vacuum_state(sp)
    r1 = single_mode_output_moments(lambda x: x * x, 1.5, 0.5, st)
    r2 = single_mode_output_moments((0.0, 0.0, 1.0), 1.5, 0.5, st)
    assert abs(r1.quad_means[1] - r2.quad_means[1]) < 1e-12
