"""Fast-adiabatic control waveforms for a two-level crossing: spectral error
theory, optimal-window coefficient search, nonlinear time remapping, exact
dynamics, and a three-level derivative-control comparison."""

from .adiabatic_error import (
    ErrorCurve,
    ErrorResult,
    Evaluator,
    error_curve,
    geometric_error,
    landau_zener_error,
)
from .dynamics import (
    EvolutionResult,
    RemappedResult,
    TwoLevelState,
    evolve_two_level_direct,
    evolve_two_level_exact,
    remapped_p_e,
)
from .geometry import (
    excited_state,
    ground_state,
    h_z_from_theta,
    omega_from_theta,
    theta_from_fields,
)
from .optimize import (
    CZ_ROUNDING_SIGMA_PERIODS,
    Objective,
    ObjectiveKind,
    OptimizationReport,
    basis_transform,
    convolve_trajectory,
    optimize_cz_pulse,
    optimize_coefficients,
)
from .remap import RemapTable, build_remap, invert_remap, remapped_trajectory
from .spectral import SpectralDensity, fourier_integral, psd
from .three_level import (
    CalibrationResult,
    RotationTarget,
    ThreeLevelPulse,
    ThreeLevelResult,
    calibrate_pulse,
    drag_envelope,
    evolve_three_level,
    stark_shift,
)
from .waveform import (
    BasisMode,
    FourierWaveform,
    SampledTrajectory,
    constraint_residual,
    derivative_waveform,
    eval_fourier,
    hanning_window,
    linear_ramp_trajectory,
    rectangular_window,
    sample_trajectory,
    small_angle_trajectory,
    theta_waveform,
)

__version__ = "0.1.0"
