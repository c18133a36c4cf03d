"""Invariant check matrix behind the `verify` command.

Each check returns (ok, detail); the driver prints one line per check and
reports an overall verdict. Checks are deliberately fast (seconds, not
minutes) and cover every module: operator algebra on the guarded subspace,
state constructors, amplifier input-output relations, POVM identities, and
sampler/estimator spot checks at reduced trial counts.
"""
from __future__ import annotations

import math

import numpy as np

from . import amplifiers as amp
from . import estimators as est
from . import measurement as meas
from . import oracles
from .errors import NotNormal
from .fock import (FockSpace, Operator, annihilation_op, coherent_state,
                   fock_state, gaussian_meter, guard_keep, hermite_functions,
                   normal_decompose, number_op, quadrature_amplitudes,
                   quadrature_ops, squeezed_vacuum, symmetrized_moment,
                   vacuum_state, variance)

CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


def _ok(residual, tol):
    return residual < tol, f"residual {residual:.3e} (tol {tol:.1e})"


# --- operator algebra -------------------------------------------------------

@check("ladder sqrt(n) matrix elements")
def _ladder():
    a = annihilation_op(FockSpace(8)).matrix
    res = max(abs(a[2, 3] - math.sqrt(3)), abs(a[0, 1] - 1.0))
    return _ok(res, 1e-14)


@check("guarded [a, a^dag] = 1")
def _comm():
    sp = FockSpace(12)
    a = annihilation_op(sp).matrix
    c = a @ a.conj().T - a.conj().T @ a
    k = guard_keep(12)
    return _ok(float(np.abs(c[:k, :k] - np.eye(12)[:k, :k]).max()), 1e-12)


@check("guarded [x, p] = i")
def _xp():
    sp = FockSpace(12)
    x, p = quadrature_ops(sp)
    c = x.matrix @ p.matrix - p.matrix @ x.matrix
    k = guard_keep(12)
    return _ok(float(np.abs(c[:k, :k] - 1j * np.eye(12)[:k, :k]).max()), 1e-12)


@check("vacuum <x^2> = 1/2")
def _vacx():
    sp = FockSpace(12)
    x, _ = quadrature_ops(sp)
    return _ok(abs(variance(vacuum_state(sp), x) - 0.5), 1e-12)


@check("coherent first moment")
def _cohm():
    sp = FockSpace(24)
    st = coherent_state(sp, 1.0)
    return _ok(abs(st.expectation(annihilation_op(sp)) - 1.0), 1e-10)


@check("squeezed vacuum Var[x] = e^{-2r}/2")
def _sqv():
    sp = FockSpace(24)
    st = squeezed_vacuum(sp, 0.5)
    x, _ = quadrature_ops(sp)
    return _ok(abs(variance(st, x) - 0.5 * math.exp(-1.0)), 1e-6)


@check("gaussian meter(1) is vacuum")
def _gm1():
    sp = FockSpace(20)
    fid = gaussian_meter(sp, 1.0).fidelity(fock_state(sp, 0))
    return _ok(1.0 - fid, 1e-10)


@check("generator exponential unitarity")
def _unit():
    rng = np.random.default_rng(0)
    sp = FockSpace(16)
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    u = oracles.unitary_from_generator(Operator(sp, (h + h.conj().T) / 2), 0.7)
    return _ok(u.unitarity_residual(), 1e-10)


@check("momentum generator displaces x")
def _disp():
    sp = FockSpace(32)
    x, p = quadrature_ops(sp)
    u = oracles.unitary_from_generator(p, 1.0)
    lhs = u.h.matrix @ x.matrix @ u.matrix
    k = 13
    return _ok(float(np.abs((lhs - (x.matrix + np.eye(32)))[:k, :k]).max()), 1e-8)


@check("spectral reconstruction of a normal operator")
def _spec():
    sp = FockSpace(10)
    # a fixed unitary turns the diagonal n + 0.4i into a dense f, so the check
    # runs the joint-eigenbasis path, not the diagonal one
    u = oracles.unitary_from_generator(quadrature_ops(sp)[0], 0.7).matrix
    f = Operator(sp, (u * (np.arange(10) + 0.4j)) @ u.conj().T)
    dec = normal_decompose(f)
    return _ok(dec.residual, 1e-10)


@check("non-normal operator rejected")
def _notnormal():
    try:
        normal_decompose(annihilation_op(FockSpace(8)))
    except NotNormal:
        return True, "NotNormal raised"
    return False, "no error raised"


@check("symmetrized moment equals variance for Hermitian O")
def _symvar():
    sp = FockSpace(16)
    st = coherent_state(sp, 0.8)
    n = number_op(sp)
    return _ok(abs(symmetrized_moment(st, n) - variance(st, n)), 1e-10)


@check("cv swap squares to identity")
def _swap():
    sp = FockSpace((5, 5))
    s = oracles.cv_swap(sp, 0, 1)
    return _ok(float(np.abs((s @ s).matrix - np.eye(25)).max()), 1e-14)


@check("disjoint-slot embeddings commute")
def _embed():
    sp = FockSpace((6, 6))
    a0 = oracles.embed(annihilation_op(FockSpace(6)), 0, sp)
    a1 = oracles.embed(annihilation_op(FockSpace(6)), 1, sp)
    c = a0 @ a1 - a1 @ a0
    return _ok(float(np.abs(c.matrix).max()), 1e-14)


@check("position wavefunction normalization")
def _wfnorm():
    sp = FockSpace(24)
    st = coherent_state(sp, 0.5)
    xs = np.arange(-8.0, 8.0 + 1e-9, 0.01)
    q = np.abs(quadrature_amplitudes(st, xs)) ** 2
    return _ok(abs(np.trapezoid(q, xs) - 1.0), 1e-6)


# --- amplifiers --------------------------------------------------------------

@check("quadratic normality gate vs commutator")
def _quadgate():
    sp = FockSpace(12)
    rng = np.random.default_rng(7)
    agree = True
    for _ in range(10):
        co = rng.normal(size=8)
        f, flag = amp.quadratic_signal_op(
            sp, co[0] + 1j * co[1], co[2] + 1j * co[3], co[4] + 1j * co[5],
            co[6] + 1j * co[7])
        brute = f.commutator_norm() < 1e-9 * max(1.0, float(np.abs(f.matrix).max()))
        agree = agree and (flag == brute)
    _, flag_plus = amp.quadratic_signal_op(sp, 0.5, 1.0, 0.5, 0.5)
    _, flag_bad = amp.quadratic_signal_op(sp, 1.0, 0.0, 0.0, 0.0)
    agree = agree and flag_plus and not flag_bad
    return agree, "flag matches brute-force commutator"


@check("two-mode coupling unitarity")
def _tmu():
    sp = FockSpace(4)
    u = oracles.two_mode_unitary(number_op(sp), 0.6, (4, 24))
    return _ok(u.unitarity_residual(), 1e-10)


@check("two-mode meter relation b_out = g f + b")
def _tmb():
    sp = FockSpace(6)
    u = oracles.two_mode_unitary(number_op(sp), 0.8, (6, 30))
    b = annihilation_op(FockSpace(30)).matrix
    big_b = np.kron(np.eye(6), b)
    lhs = u.h.matrix @ big_b @ u.matrix
    rhs = 0.8 * np.kron(number_op(sp).matrix, np.eye(30)) + big_b
    d = (lhs - rhs).reshape(6, 30, 6, 30)
    return _ok(float(np.abs(d[:4, :3, :4, :3]).max()), 1e-7)


@check("ordered-product factorization on amplifier inputs")
def _zass():
    sp = FockSpace(4)
    g = 1.0
    ud = oracles.two_mode_unitary(number_op(sp), g, (4, 60))
    uf = oracles.two_mode_unitary_factored(number_op(sp), g, (4, 60))
    d = (ud.matrix - uf.matrix).reshape(4, 60, 4, 60)
    return _ok(float(np.abs(d[:3, :45, :3, 0]).max()), 1e-8)


@check("von Neumann meter relation")
def _vnrel():
    sp = FockSpace(5)
    v = oracles.von_neumann_unitary(number_op(sp), 1.0, (5, 40))
    b = annihilation_op(FockSpace(40)).matrix
    big_b = np.kron(np.eye(5), b)
    lhs = v.h.matrix @ big_b @ v.matrix
    rhs = np.kron(number_op(sp).matrix, np.eye(40)) + big_b
    d = (lhs - rhs).reshape(5, 40, 5, 40)
    return _ok(float(np.abs(d[:3, :12, :3, :12]).max()), 1e-6)


@check("three-mode meter relations")
def _tm3():
    # (W^H X W)[R, R] = W[:, R]^H X W[:, R]: only the guarded columns R of W
    # are built; the guard is sized to the conditional displacement, not the
    # 1/4 rule. X leaves mode a alone, so the sandwich is a sum over the
    # mode-a row blocks C_a of W[:, R], one block and one part at a time
    sp = FockSpace(5)
    f = Operator(sp, number_op(sp).matrix + 0.3j * np.eye(5))
    g, keep = 0.7, (3, 6, 6)
    cols = oracles.three_mode_columns(f, g, (5, 24, 24), keep)
    k = math.prod(keep)
    fr, fi = amp.real_imag_parts(f)
    x = quadrature_ops(FockSpace(24))[0].matrix
    one, xg = np.eye(6), x[:6, :6]
    res = 0.0
    for mode, meters, part in ((1, np.kron(xg, one), fr),
                               (2, np.kron(one, xg), fi)):
        want = np.kron(np.eye(3), meters) + g * np.kron(part.matrix[:3, :3],
                                                        np.eye(36))
        lhs = np.zeros((k, k), dtype=complex)
        for c in cols.reshape((5, 24, 24) + keep):
            # C_a viewed as (b, rest), x acts on mode b; as (b, c, rest), on c
            xc = x @ c.reshape(c.shape[:mode] + (-1,))
            lhs += c.reshape(-1, k).conj().T @ xc.reshape(-1, k)
        res = max(res, float(np.abs(lhs - want).max()))
    return _ok(res, 1e-6)


@check("linear amplifier first moment")
def _linm():
    sp = FockSpace(20)
    spec = amp.LinearAmp(1.25)
    rep = amp.simulated_output_moments(spec, coherent_state(sp, 0.5),
                                       dims=(20,))
    return _ok(abs(rep.mean_out - 1.25 * 0.5), 1e-6)


@check("linear added noise (g^2-1)/2")
def _linn():
    sp = FockSpace(20)
    spec = amp.LinearAmp(1.25)
    rep = amp.simulated_output_moments(spec, vacuum_state(sp), dims=(20,))
    return _ok(abs(rep.added_noise - (1.25 ** 2 - 1) / 2), 1e-6)


@check("nonlinear added noise is half quantum, gain independent")
def _nlnoise():
    sp = FockSpace(6)
    worst = 0.0
    for g in (0.5, 2.0):
        spec = amp.TwoModeNormalAmp(number_op(sp), g)
        rep = amp.simulated_output_moments(spec, fock_state(sp, 2))
        worst = max(worst, abs(rep.added_noise - 0.5))
    return _ok(worst, 1e-8)


@check("predicted vs simulated moments (two-mode, coherent input)")
def _pvss():
    sp = FockSpace(10)
    spec = amp.TwoModeNormalAmp(number_op(sp), 1.5)
    st = coherent_state(sp, 0.5)
    pred = amp.predict_output_moments(spec, st)
    sim = amp.simulated_output_moments(spec, st)
    res = max(abs(pred.mean_out - sim.mean_out),
              abs(pred.quad_noises[0] - sim.quad_noises[0]))
    return _ok(res, 1e-6)


@check("single-mode quadrature relations and commutator")
def _smq():
    sp = FockSpace(40)
    spec = amp.SingleModeAmp((0.0, 0.0, 1.0), 2.0, 1.0)  # f(x) = x^2
    st = coherent_state(sp, 0.4)
    pred = amp.predict_output_moments(spec, st)
    sim = amp.simulated_output_moments(spec, st)
    res = max(abs(pred.quad_means[0] - sim.quad_means[0]),
              abs(pred.quad_noises[1] - sim.quad_noises[1]))
    cres = amp.single_mode_commutator_residual((0.0, 0.0, 1.0), 2.0, 1.0, sp)
    return _ok(max(res, cres if cres > 1e-7 else 0.0), 1e-6)


# --- measurement -------------------------------------------------------------

@check("heterodyne element trace identity")
def _hettr():
    sp = FockSpace(40)
    m = oracles.heterodyne_element(0.0, 1.0, sp)
    val = float(np.real(np.trace(m.matrix @ np.outer(
        np.eye(40, 1).ravel(), np.eye(40, 1).ravel())))) * math.pi * 2.0
    return _ok(abs(val - 1.0), 1e-8)


@check("homodyne elements resolve the identity")
def _homres():
    # sum_x M_x dx on the grid and kernel weights of oracles.homodyne_element,
    # 64 outcomes at a time; 12 levels fit one Hermite table
    xs = np.arange(-8.0, 8.0 + 1e-9, 0.05)
    y = oracles._default_ygrid(xs, 0.25, 12)
    h = hermite_functions(12, y)
    w = sum(oracles._homodyne_kernel(xs[lo:lo + 64], 0.25, y).sum(axis=1)
            for lo in range(0, xs.size, 64)) * 0.05
    return _ok(float(np.abs((h * w) @ h.T - np.eye(12)).max()), 1e-4)


@check("numeric sandwich matches closed form (heterodyne)")
def _oracle():
    sp = FockSpace(3)
    spec = amp.TwoModeNormalAmp(number_op(sp), 1.0)
    det = meas.DetectorSpec("heterodyne", 0.5)
    closed = meas.effective_povm_closed_form(spec.dec, 1.0, det.sigma2, "heterodyne")
    pts = np.array([0.2 + 0.1j, 1.0, 1.7 - 0.4j])
    grid = meas.effective_povm_numeric(spec, det, pts)
    return _ok(grid.max_deviation(closed), 1e-5)


@check("closed-form POVM resolves identity analytically")
def _cfid():
    sp = FockSpace(6)
    dec = normal_decompose(number_op(sp))
    closed = meas.effective_povm_closed_form(dec, 2.0, 0.5, "heterodyne")
    return _ok(closed.identity_residual(), 1e-12)


@check("own-region weight grows with gain")
def _sharp():
    sp = FockSpace(4)
    dec = normal_decompose(number_op(sp))
    regions = meas.DecisionRegions.from_decomposition(dec)
    w2 = meas.own_region_weights(
        meas.effective_povm_closed_form(dec, 2.0, 1.0, "heterodyne"), regions)
    w8 = meas.own_region_weights(
        meas.effective_povm_closed_form(dec, 8.0, 1.0, "heterodyne"), regions)
    return bool(np.all(w8 > w2)), f"min w(g=8) = {w8.min():.6f}"


@check("heterodyne sampler moment identity")
def _sampmom():
    sp = FockSpace(16)
    st = fock_state(sp, 1)
    out = meas.sample_outcomes(st, meas.DetectorSpec("heterodyne", 1.0), 20000, 11)
    m2 = float(np.mean(np.abs(out) ** 2))
    se = float(np.std(np.abs(out) ** 2) / math.sqrt(out.size))
    return abs(m2 - 2.0) < 5 * se, f"E|alpha|^2 = {m2:.4f} (target 2, se {se:.4f})"


# --- estimators ---------------------------------------------------------------

@check("nonlinear estimator variance formula")
def _estnl():
    sp = FockSpace(8)
    plan = est.TrialPlan(amp.TwoModeNormalAmp(number_op(sp), 3.0),
                         fock_state(sp, 2), meas.DetectorSpec("homodyne", 1.0),
                         20000, 5)
    rep = est.run_nonlinear_estimation(plan)
    return (abs(rep.z_mean) < 4 and abs(rep.z_variance) < 4,
            f"z_mean {rep.z_mean:.2f}, z_var {rep.z_variance:.2f}")


@check("linear estimator variance formula")
def _estlin():
    sp = FockSpace(16)
    plan = est.TrialPlan(amp.LinearAmp(2.0), fock_state(sp, 2),
                         meas.DetectorSpec("heterodyne", 1.0), 20000, 6)
    rep = est.run_linear_number_estimation(plan)
    return (abs(rep.z_mean) < 4 and abs(rep.z_variance) < 4,
            f"z_mean {rep.z_mean:.2f}, z_var {rep.z_variance:.2f}")


@check("nonlinear beats linear at g = 1")
def _cmp():
    sp = FockSpace(16)
    rep = est.compare_schemes(coherent_state(sp, 1.0), 1.0, 4000, 9)
    return (rep.improvement and rep.crossover_satisfied,
            f"{rep.analytic_nonlinear_variance:.3f} vs {rep.analytic_linear_variance:.3f}")


@check("snr report values")
def _snr():
    ok = (est.snr_report(2, 3.0) == 12.0 and est.snr_report(0, 5.0) == 0.0
          and abs(est.snr_report(1, 2.0, 1.0) - 4 * math.e) < 1e-12)
    return ok, "2gn and 2 e^r g n"


def run_all(extra_checks=(), out=print):
    """Run the matrix; returns (n_pass, n_fail).

    Warnings leave a check's verdict alone (several checks probe tight
    truncations on purpose); their count and first message end its line.
    Each check's wall time, and the total, go to stderr, so the verdict
    lines on ``out`` stay the same from run to run.
    """
    import sys
    import time
    import warnings
    n_pass = n_fail = 0
    start = time.perf_counter()
    for name, fn in list(CHECKS) + list(extra_checks):
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ok, detail = fn()
            except Exception as exc:  # surfaced as a failing check, not a crash
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"[time] {name}: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
        if caught:
            detail += (f" [{len(caught)} warning{'s' * (len(caught) > 1)}: "
                       f"{caught[0].message}]")
        n_pass += ok
        n_fail += not ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"[time] total: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    out(f"{n_pass} passed, {n_fail} failed, {n_pass + n_fail} total")
    return n_pass, n_fail
