"""Acceptance suite: one test per acceptance check, tolerances pinned.

Each test prints a [PASS]/[FAIL] line (visible under ``pytest -s``) naming the
claim it checks. Three checks pin parameters too small for what they assert;
each asserts its claim where the claim can hold and, at the pinned parameters,
the warning or error the package raises, so the margin stays visible:

* the ordered-product (direct vs factored) unitary comparison, 1e-8 on the
  guarded block [:4, :22, :4, :22], runs at the meter sizes (g f_max + 6)^2
  (73, 121, 256 levels for g 0.5, 1, 2). At the pinned meter dimension 30
  the conditional displacements (up to g*f = 10) overflow the cutoff and the
  two constructions differ by up to 0.285; two_mode_unitary warns
  "truncation limited" there, which the test asserts;
* the projective-limit weights at sigma^2 = 1: at g = 8 the per-axis width is
  s = 1/8, each side of a decision region loses Q(4) = 3.167e-5, and interior
  weights are 1 - 6.334e-5, so the test asserts that exact tail law to 1e-12;
  the floor 1 - 3e-5 is asserted at g = 9, the first integer gain above the
  crossing 2 sqrt(2) erfc^-1(3e-5) = 8.35;
* the three-mode numeric/closed-form match below 1e-4 for squeezing
  r in {0.5, 1, 2} runs at the auto-sized meter dimensions. At the pinned
  meter dimension 20 a squeezed meter with r = 2 (mean occupation
  sinh(2)^2 = 13.2) drops 0.23 of its norm, and 1.1e-3 at r = 1, so
  effective_povm_numeric raises TruncationError there; r = 0.5 still matches.
"""
import math
import time

import numpy as np
import pytest

from fockamp import (DecisionRegions, DetectorSpec, FockSpace, LinearAmp,
                     Meter, ThreeModeAmp, TrialPlan, TruncationError,
                     TwoModeNormalAmp, coherent_state, compare_schemes,
                     effective_povm_closed_form, effective_povm_numeric,
                     fock_state, normal_decompose, number_op,
                     own_region_weights, predict_output_moments,
                     quadratic_signal_op, run_linear_number_estimation,
                     run_nonlinear_estimation, simulated_output_moments,
                     single_mode_output_moments, vacuum_state)
from fockamp.amplifiers import single_mode_commutator_residual
from fockamp.oracles import two_mode_unitary, two_mode_unitary_factored


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_a01_gain_independent_half_quantum_added_noise():
    t0 = time.monotonic()
    sp = FockSpace(8)
    f = number_op(sp)
    inputs = [fock_state(sp, n) for n in range(4)] + [coherent_state(sp, 0.5)]
    worst = 0.0
    for g in (0.5, 1.0, 2.0, 4.0):
        spec = TwoModeNormalAmp(f, g)
        for st in inputs:
            rep = simulated_output_moments(spec, st)
            worst = max(worst, abs(rep.added_noise - 0.5))
    elapsed = time.monotonic() - t0
    _report("gain-independent half-quantum added noise",
            worst < 1e-6 and elapsed < 10.0,
            f"max |added - 0.5| = {worst:.2e}, {elapsed:.1f} s")


def test_a02_linear_amplifier_added_noise_contrast():
    sp = FockSpace(20)
    vac = vacuum_state(sp)
    worst = 0.0
    improvements = []
    for g in (1.25, 1.5, 2.0):
        rep = predict_output_moments(LinearAmp(g), vac)
        worst = max(worst, abs(rep.added_noise - (g * g - 1) / 2))
        # estimator-variance comparison: the nonlinear scheme beats the
        # all-linear number measurement for every g > 1/2
        for st in (vac, fock_state(sp, 2)):
            cmp = compare_schemes(st, g, trials=10, seed=1)
            improvements.append(cmp.improvement)
    _report("linear amplifier added noise and scheme contrast",
            worst < 1e-6 and all(improvements),
            f"max |added - (g^2-1)/2| = {worst:.2e}, "
            f"nonlinear beats linear in {sum(improvements)}/{len(improvements)} cases")


def test_a03_ordered_product_factorization_at_pinned_dims():
    t0 = time.monotonic()
    sp = FockSpace(6)
    f = number_op(sp)
    ka, kb = 4, 22  # keep dim - ceil(dim/4) levels per mode of dims (6, 30)
    devs = {}
    for g, db in ((0.5, 73), (1.0, 121), (2.0, 256)):
        # displacements up to g*f = 10 overflow the pinned 30-level meter
        with pytest.warns(UserWarning, match="truncation limited"):
            two_mode_unitary(f, g, (6, 30))
        dims = (6, db)
        ud = two_mode_unitary(f, g, dims)
        uf = two_mode_unitary_factored(f, g, dims)
        d = (ud.matrix - uf.matrix).reshape(6, dims[1], 6, dims[1])
        devs[g] = float(np.abs(d[:ka, :kb, :ka, :kb]).max())
    elapsed = time.monotonic() - t0
    worst = max(devs.values())
    _report("ordered-product factorization, dims (6, 73 | 121 | 256), g <= 2",
            worst < 1e-8 and elapsed < 5.0,
            f"guarded deviations {dict((k, f'{v:.2e}') for k, v in devs.items())}, "
            f"{elapsed:.1f} s (the pinned 30-level meter warns 'truncation "
            "limited' at every gain)")


def test_a04_povm_oracle_equivalence():
    t0 = time.monotonic()
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    worst = 0.0
    for g in (1.0, 2.0):
        for eta in (1.0, 0.5):
            det = DetectorSpec("heterodyne", eta)
            closed = effective_povm_closed_form(dec, g, det.sigma2, "heterodyne")
            w = math.sqrt(closed.width2)
            pts = np.array(
                [lam + w * (u + 1j * v)
                 for lam in dec.eigenvalues.real
                 for u in np.linspace(-5, 5, 9)
                 for v in np.linspace(-5, 5, 5)])
            grid = effective_povm_numeric(TwoModeNormalAmp(f, g), det, pts)
            dev = max(float(np.abs(e - closed.element(o)).max())
                      for o, e in zip(grid.outcomes, grid.elements))
            worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    _report("effective POVM: numeric sandwich vs closed form",
            worst < 1e-5 and elapsed < 60.0,
            f"max elementwise deviation = {worst:.2e}, {elapsed:.1f} s")


def _gaussian_tail(z):
    """Q(z) = P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _own_region_law(centers, s):
    """1 - Q(d_lo/s) - Q(d_hi/s) per center; an edge region has one side."""
    law = []
    for c in centers:
        below, above = centers[centers < c], centers[centers > c]
        d_lo = (c - below.max()) / 2 if below.size else math.inf
        d_hi = (above.min() - c) / 2 if above.size else math.inf
        law.append(1.0 - _gaussian_tail(d_lo / s) - _gaussian_tail(d_hi / s))
    return np.array(law)


def test_a05a_projective_limit_weight_floor():
    sp = FockSpace(6)
    dec = normal_decompose(number_op(sp))
    regions = DecisionRegions.from_decomposition(dec)
    sigma2 = 1.0
    w8 = own_region_weights(
        effective_povm_closed_form(dec, 8.0, sigma2, "heterodyne"), regions)
    s8 = math.sqrt((sigma2 + 1.0) / 2.0) / 8.0  # per-axis width, 1/8
    law_dev = float(np.abs(w8 - _own_region_law(regions.centers.real, s8)).max())
    w9 = own_region_weights(
        effective_povm_closed_form(dec, 9.0, sigma2, "heterodyne"), regions)
    _report("own-region weights: exact tail law at g = 8, >= 1 - 3e-5 at g = 9",
            law_dev < 1e-12 and bool(np.all(w9 >= 1 - 3e-5)),
            f"g=8: min weight 1 - {1 - w8.min():.3e}, |weights - law| = "
            f"{law_dev:.1e}; g=9: min weight 1 - {1 - w9.min():.2e}")


def test_a05b_projective_limit_monotone_sharpening():
    sp = FockSpace(6)
    dec = normal_decompose(number_op(sp))
    regions = DecisionRegions.from_decomposition(dec)
    prev = None
    ok = True
    for g in (1.0, 2.0, 4.0, 8.0):
        w = own_region_weights(
            effective_povm_closed_form(dec, g, 1.0, "heterodyne"), regions)
        if prev is not None:
            ok = ok and bool(np.all(w > prev))
        prev = w
    _report("own-region weights strictly increase with gain", ok,
            f"weights at g=8: min {prev.min():.6f}")


def test_a06a_three_mode_width_reduction():
    sp = FockSpace(4)
    dec = normal_decompose(number_op(sp))
    ok = True
    vals = {}
    for r in (0.5, 1.0, 2.0):
        tm = effective_povm_closed_form(dec, 2.0, 0.3, "three_mode",
                                        math.exp(-r))
        het = effective_povm_closed_form(dec, 2.0, 0.3, "heterodyne")
        vals[r] = (tm.width2, het.width2)
        ok = ok and tm.width2 < het.width2
    _report("three-mode closed-form width beats single-meter width", ok,
            ", ".join(f"r={r}: {a:.4f} < {b:.4f}" for r, (a, b) in vals.items()))


def test_a06b_three_mode_numeric_matches_closed_form():
    sp = FockSpace(4)
    f = number_op(sp)
    dec = normal_decompose(f)
    g = 0.5
    det = DetectorSpec("homodyne", 0.2)  # sigma^2 = 1
    devs = {}
    pinned = {}
    for r in (0.5, 1.0, 2.0):
        eps = math.exp(-r)
        spec = ThreeModeAmp(f, g, Meter("gaussian", epsilon=eps),
                            Meter("gaussian", epsilon=eps))
        closed = effective_povm_closed_form(dec, g, det.sigma2, "three_mode", eps)
        w = math.sqrt(closed.width2)
        pts = np.concatenate([lam + w * np.linspace(-4, 4, 5) + 1j * w * 0.3
                              for lam in dec.eigenvalues.real])

        def deviation(grid):
            return max(float(np.abs(e - closed.element(o)).max())
                       for o, e in zip(grid.outcomes, grid.elements))

        devs[r] = deviation(effective_povm_numeric(spec, det, pts))
        if r == 0.5:
            pinned[r] = deviation(
                effective_povm_numeric(spec, det, pts, dims=(20, 20)))
        else:
            # a squeezed meter with r >= 1 does not fit in 20 Fock levels
            with pytest.raises(TruncationError, match="drops"):
                effective_povm_numeric(spec, det, pts, dims=(20, 20))
    worst = max(max(devs.values()), pinned[0.5])
    _report("three-mode sandwich vs closed form at auto-sized meters",
            worst < 1e-4,
            f"max deviations {dict((k, f'{v:.2e}') for k, v in devs.items())}, "
            f"at meter dim 20: r=0.5 {pinned[0.5]:.2e}, r >= 1 raises "
            "TruncationError")


def _poisson_moments(alpha2, dim):
    logp = np.array([-alpha2 + n * math.log(alpha2) - math.lgamma(n + 1)
                     for n in range(dim)])
    p = np.exp(logp)
    p /= p.sum()
    n = np.arange(dim)
    mean = float(p @ n)
    var = float(p @ (n - mean) ** 2)
    return mean, var


def test_a07_estimator_variances():
    t0 = time.monotonic()
    sp8, sp32 = FockSpace(8), FockSpace(32)
    coh_mean, coh_var = _poisson_moments(2.0, 32)
    cases = [
        (fock_state(sp8, 2), 2.0, 0.0),
        (coherent_state(sp32, math.sqrt(2.0)), coh_mean, coh_var),
    ]
    worst_z = 0.0
    for st, n_mean, n_var in cases:
        f = number_op(st.space)
        for g in (1.0, 2.0, 3.0):
            nl = run_nonlinear_estimation(TrialPlan(
                TwoModeNormalAmp(f, g), st, DetectorSpec("homodyne"),
                100000, 42))
            target_nl = n_var + 1.0 / (4 * g * g)
            z_nl = abs(nl.variance - target_nl) / nl.se_variance
            z_nl_mean = abs(nl.mean - n_mean) / nl.se_mean
            lin = run_linear_number_estimation(TrialPlan(
                LinearAmp(g), st, DetectorSpec("heterodyne"),
                100000, 42))
            target_lin = n_var + n_mean + 1.0
            z_lin = abs(lin.variance - target_lin) / lin.se_variance
            z_lin_mean = abs(lin.mean - n_mean) / lin.se_mean
            worst_z = max(worst_z, z_nl, z_nl_mean, z_lin, z_lin_mean)
    elapsed = time.monotonic() - t0
    _report("estimator variances match the closed-form laws",
            worst_z < 3.0 and elapsed < 30.0,
            f"max |z| = {worst_z:.2f} over 12 runs, {elapsed:.1f} s")


def test_a08_heterodyne_second_moment_identity():
    sp = FockSpace(24)
    worst = 0.0
    for st, n_mean in ((fock_state(sp, 2), 2.0), (coherent_state(sp, 1.0), 1.0)):
        for g in (1.0, 1.5):
            rep = run_linear_number_estimation(TrialPlan(
                LinearAmp(g), st, DetectorSpec("heterodyne"), 100000, 42))
            target = g * g * (n_mean + 1.0)
            z = abs(rep.extra["raw_second_moment"] - target) \
                / rep.extra["raw_second_moment_se"]
            worst = max(worst, z)
    _report("heterodyne moment identity E|alpha|^2 = g^2 <n> + g^2",
            worst < 3.0, f"max |z| = {worst:.2f}")


def test_a09_single_mode_amplifier():
    sp = FockSpace(48)
    g, r = 2.0, 3.0
    fx = (0.0, 0.0, 1.0)  # f(x) = x^2
    from fockamp import quadrature_ops
    x, _ = quadrature_ops(sp)
    st = coherent_state(sp, 0.4)
    rep = single_mode_output_moments(fx, g, r, st)
    x_dev = abs(rep.quad_means[0] - math.exp(r) * float(np.real(st.expectation(x))))
    noise_ok = True
    margins = []
    for probe in (vacuum_state(sp), fock_state(sp, 2), coherent_state(sp, 0.5)):
        rr = single_mode_output_moments(fx, g, r, probe)
        margins.append(abs(rr.added_noise))
        noise_ok = noise_ok and abs(rr.added_noise) <= 5 * g * math.exp(-r)
    comm = single_mode_commutator_residual(fx, g, r, sp)
    _report("single-mode amplifier moments and commutator",
            x_dev < 1e-6 and noise_ok and comm < 1e-7,
            f"x-relation dev {x_dev:.2e}, max |Var p - 2g^2 Var f| = "
            f"{max(margins):.2e} <= {5 * g * math.exp(-r):.2e}, "
            f"commutator {comm:.2e}")


def test_a10_quadratic_normality_gate():
    sp = FockSpace(12)
    named = [
        ((0.5, 1.0, 0.5, 0.5), True),     # transduces x^2
        ((-0.5, 1.0, -0.5, 0.5), True),   # transduces p^2
        ((0.0, 1.0, 0.0, 0.0), True),     # photon number
        ((0.0, 2.0 + 1.0j, 0.0, 7.0j), True),
        ((1.0, 0.0, 0.0, 0.0), False),
        ((1.0, 1.0, 0.0, 0.0), False),
    ]
    ok = True
    for coeffs, expected in named:
        _, flag = quadratic_signal_op(sp, *coeffs)
        ok = ok and flag == expected
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(50):
        co = rng.normal(size=8)
        f, flag = quadratic_signal_op(
            sp, co[0] + 1j * co[1], co[2] + 1j * co[3], co[4] + 1j * co[5],
            co[6] + 1j * co[7])
        brute = f.commutator_norm() < 1e-9 * max(1.0, float(np.abs(f.matrix).max()))
        agree += flag == brute
    _report("quadratic normality gate vs brute-force commutator",
            ok and agree == 50, f"named cases ok = {ok}, random agreement {agree}/50")
