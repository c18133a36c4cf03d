"""Property tests of the meter table: random normal signal operators.

Each example draws a normal f on 4 levels with a random eigenbasis on the
lowest 3 levels and a random (complex, or real for the von Neumann coupling)
spectrum in [-1, 1]^2; the cutoff level is its own eigenvector, so inputs on
the lowest 3 levels never reach it. The simulated output is checked against
the dense composite unitary, and the numeric heterodyne POVM of the same f
against its closed form. The numeric POVMs of all three readouts on the
drawn eigenbasis (heterodyne, homodyne on the Hermitian part of f, two-meter
homodyne) are checked against their closed forms too, and their weight-table
identity residuals against the dense sum of their elements; that test draws
only the spectrum, eigenbasis, gain and meter it reads, on a 0.001 grid.
"""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from fockamp import (DetectorSpec, FockSpace, Meter, Operator, State,
                     ThreeModeAmp, TwoModeNormalAmp, VACUUM, VonNeumannAmp,
                     effective_povm_closed_form, effective_povm_numeric,
                     normal_decompose, simulate_output_state, tensor,
                     three_mode_unitary, two_mode_unitary, von_neumann_unitary)

METER_DIM = 20
unit = st.floats(-1.0, 1.0)
# one value per choice: floats draw 0.0 and -0.0 as two choices of one f
grid_unit = st.integers(-1000, 1000).map(lambda k: k / 1000)


def _complex(parts):
    return np.array(parts[0::2]) + 1j * np.array(parts[1::2])


@st.composite
def cases(draw):
    variant = draw(st.sampled_from(["two_mode", "von_neumann", "three_mode"]))
    q, _ = np.linalg.qr(_complex(draw(st.lists(unit, min_size=18, max_size=18)))
                        .reshape(3, 3))
    v = np.eye(4, dtype=complex)
    v[:3, :3] = q
    lam = _complex(draw(st.lists(unit, min_size=8, max_size=8)))
    if variant == "von_neumann":
        lam = lam.real
    f = (v * lam) @ v.conj().T
    if variant == "von_neumann":
        f = (f + f.conj().T) / 2
    psi = np.zeros(4, dtype=complex)
    psi[:3] = _complex(draw(st.lists(unit, min_size=6, max_size=6)))
    if np.linalg.norm(psi) < 0.1:
        psi[0] = 1.0
    g = draw(st.floats(0.3, 1.0))
    meters = draw(st.lists(st.sampled_from([VACUUM, Meter("squeezed", r=0.3)]),
                           min_size=2, max_size=2))
    return variant, Operator(FockSpace(4), f), g, meters, psi / np.linalg.norm(psi)


@st.composite
def povm_cases(draw):
    """Only what the weight-table test reads: f on the drawn eigenbasis with a
    complex spectrum, g and one meter.

    The spectrum is drawn first: on a zero spectrum every eigenbasis gives
    the same f, and the early, simple draws would repeat it.
    """
    lam = _complex(draw(st.lists(grid_unit, min_size=8, max_size=8)))
    q, _ = np.linalg.qr(_complex(draw(st.lists(grid_unit, min_size=18,
                                               max_size=18))).reshape(3, 3))
    v = np.eye(4, dtype=complex)
    v[:3, :3] = q
    g = draw(st.floats(0.3, 1.0))
    meter = draw(st.sampled_from([VACUUM, Meter("squeezed", r=0.3)]))
    return Operator(FockSpace(4), (v * lam) @ v.conj().T), g, meter


@settings(max_examples=12, derandomize=True, deadline=None)
@given(cases())
def test_meter_table_matches_dense_oracle_and_closed_form(case):
    variant, f, g, meters, psi = case
    st_in = State(f.space, "ket", psi)
    d = METER_DIM
    # the oracles warn below the (g max|f| + 6)^2 sizing rule; at dim 20 the
    # displaced meters stay clear of the cutoff, which the spectral route checks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if variant == "three_mode":
            spec = ThreeModeAmp(f, g, *meters)
            u = three_mode_unitary(f, g, (4, d, d))
            dims = (d, d)
        else:
            cls, unitary = ((TwoModeNormalAmp, two_mode_unitary)
                            if variant == "two_mode"
                            else (VonNeumannAmp, von_neumann_unitary))
            spec = cls(f, g, meters[0])
            u = unitary(f, g, (4, d))
            dims = (d,)
    meter_states = [m.state(dim) for m, dim in zip(meters, dims)]
    dense = u.matrix @ tensor(st_in, *meter_states).data
    spectral = simulate_output_state(spec, st_in, dims=dims)
    assert abs(abs(np.vdot(dense, spectral.data)) - 1.0) < 1e-10

    # the numeric heterodyne POVM of the same f, vacuum meter, auto-sized
    det = DetectorSpec("heterodyne", 0.5)
    dec = normal_decompose(f)
    pts = np.concatenate([dec.eigenvalues, dec.eigenvalues + 0.4 - 0.3j])
    grid = effective_povm_numeric(TwoModeNormalAmp(f, g), det, pts)
    closed = effective_povm_closed_form(dec, g, det.sigma2, "heterodyne")
    assert max(float(np.abs(e - closed.element(o)).max())
               for o, e in zip(pts, grid.elements)) < 1e-6


@settings(max_examples=12, derandomize=True, deadline=None)
@given(povm_cases())
def test_numeric_povm_weight_table_matches_closed_form(case):
    # every readout on the drawn eigenbasis: heterodyne with a vacuum meter,
    # homodyne on the Hermitian part of f (real spectrum, same eigenbasis),
    # and two equal homodyne meters on the complex spectrum of f
    f, g, meter = case
    hermitian = Operator(f.space, (f.matrix + f.matrix.conj().T) / 2)
    readouts = [(TwoModeNormalAmp(f, g), "heterodyne"),
                (VonNeumannAmp(hermitian, g, meter), "homodyne"),
                (ThreeModeAmp(f, g, meter, meter), "three_mode")]
    for spec, model in readouts:
        det = DetectorSpec("heterodyne" if model == "heterodyne" else "homodyne",
                           0.5)
        dec = normal_decompose(spec.f)
        closed = effective_povm_closed_form(dec, g, det.sigma2, model,
                                            np.sqrt(2.0 * meter.x_variance()))
        shift = np.sqrt(closed.width2) * (0.7 - 0.5j)
        lam = dec.eigenvalues
        pts = np.concatenate([lam, lam + shift, lam - 2 * shift])
        grid = effective_povm_numeric(spec, det, pts)
        elements = grid.elements
        assert grid.weights.shape == (pts.size, 4)
        assert max(float(np.abs(e - closed.element(o)).max())
                   for o, e in zip(pts, elements)) < 1e-11

        # the weight-table identity residual against the dense element sum,
        # on a basis that is not the identity
        grid.measure = 0.05
        dense = float(np.abs(sum(elements) * grid.measure - np.eye(4)).max())
        assert abs(grid.identity_residual() - dense) < 1e-12
