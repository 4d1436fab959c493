"""Kinematics of twisted-photon absorption: angular-momentum partitioning,
transverse superkick recoil, and reaction-threshold shifts for atomic,
nuclear, and photon-photon processes."""

__version__ = "0.1.0"

from .beam import (
    DEFAULT_PITCH_ANGLE,
    TwistedPhotonBeam,
    bessel_gauss_amplitude,
    bessel_gauss_norm,
    equal_kick_radius,
    longitudinal_momentum,
    profile_peak_radius,
    superkick,
    transverse_wavenumber,
)
from .errors import (
    ConfigurationError,
    DomainError,
    NoAbsorptionError,
    QuadratureError,
    SolverError,
    TruncationWarning,
    TwistkickError,
    UndefinedDistributionError,
)
from .pair_production import (
    BeamFitResult,
    CrossoverResult,
    PairThresholdQuery,
    crossover_product,
    fit_beam_for_threshold_factor,
    pair_threshold,
    plane_wave_threshold,
    small_angle_threshold,
)
from .recoil_kinematics import (
    TargetParticle,
    ThresholdSolution,
    absorption_energy,
    deuteron_threshold,
    focus_fraction,
    ratio_cut_radius,
    transverse_recoil_energy,
)
from .special_functions import bessel_j, wigner_small_d
from .transitions import (
    AmPartition,
    SublevelDistribution,
    TransitionChannel,
    am_partition,
    excitation_probabilities,
    mean_cm_am,
    mean_internal_am,
    recoil_ratio,
    recoil_ratio_array,
    sublevel_profile,
)
from .trap import (
    SidebandSpectrum,
    TrapModel,
    in_lamb_dicke_regime,
    jump_probability_extended,
    jump_probability_point,
    lamb_dicke,
    level_spacing,
    sideband_spectrum,
)
from .units import (
    nonrel_recoil_energy,
    energy_to_wavelength,
    frequency_to_energy,
    wavelength_to_energy,
)
