"""Truncated-Fock-space simulations of nonlinear bosonic amplifiers.

Layers: :mod:`fockamp.fock` (operators, states, spectral decompositions),
:mod:`fockamp.amplifiers` (amplifier models, simulation and moment
predictions), :mod:`fockamp.measurement` (detector POVMs, effective POVMs,
sampling), :mod:`fockamp.estimators` (Monte Carlo estimator statistics), and
:mod:`fockamp.cli` (config-driven runs). :mod:`fockamp.heterodyne` (the
heterodyne read of the numeric POVM) loads on its first use. The dense oracles of
:mod:`fockamp.oracles` (composite-space unitaries, single-outcome detector
elements) are imported by name only where a cross-check needs them, so no
command loads them.
"""

from .errors import (ConfigError, CoverageError, DimensionMismatch,
                     FockampError, GainOutOfRange, NotHermitian, NotNormal,
                     ResourceLimit, TruncationError)
from .fock import (FockSpace, Operator, SpectralDecomposition, State,
                   annihilation_op, coherent_state, fock_state,
                   gaussian_meter, guard_keep, hermite_functions, make_state,
                   normal_decompose, number_op, parity_op, partial_trace,
                   quadrature_amplitudes, quadrature_ops, squeezed_vacuum,
                   symmetrized_moment, tensor, vacuum_state, variance)
from .amplifiers import (LinearAmp, Meter, MomentReport, SingleModeAmp,
                         ThreeModeAmp, TwoModeNormalAmp, VACUUM,
                         VonNeumannAmp, predict_output_moments,
                         quadratic_signal_op, real_imag_parts,
                         simulate_output_state, simulated_output_moments,
                         single_mode_output_moments, single_mode_output_ops)
from .measurement import (ClosedFormPovm, DecisionRegions, DetectorSpec,
                          PovmGrid, effective_povm_closed_form,
                          effective_povm_numeric, own_region_weights,
                          sample_outcomes)
from .estimators import (CompareReport, EstimateReport, TrialPlan,
                         compare_schemes, run_linear_number_estimation,
                         run_nonlinear_estimation, run_plan, snr_report)

__version__ = "0.1.0"
