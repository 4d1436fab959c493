"""Threshold kinematics of electron-positron pair creation by a twisted
very-high-energy photon on a background photon (head-on collision).

A Bessel-beam photon of energy w1 at pitch angle theta_k carries longitudinal
momentum w1 cos(theta_k); a pair produced a distance b from the vortex line
additionally receives the superkick p_T = l_gamma hbar / b.  The invariant
mass condition at threshold (pair at rest in its c.m. frame) becomes

    w1^2 sin^2(theta_k) + 4 w1 w2 = 4 m_e^2 + p_T^2,

a quadratic in w1 solved here in a cancellation-free form; theta_k = 0
degenerates smoothly to the linear small-angle relation

    w1 = m_e^2/w2 + p_T^2/(4 w2).

The pitch-angle term lowers the threshold (less longitudinal momentum to
balance), the superkick raises it.  The two balance, w1 = m_e^2/w2, where
p_T = (m_e^2/w2) sin(theta_k), i.e. at the product

    b*theta_k = l_gamma hbar c w2/m_e^2 * theta_k/sin(theta_k),

invariant up to the relative term theta_k^2/6.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .beam import TwistedPhotonBeam, bessel_gauss_amplitude, first_lobe_peak_argument, \
    profile_peak_radius
from .errors import DomainError, SolverError
from .recoil_kinematics import ThresholdSolution
from .units import ELECTRON_MASS_EV, HBARC_EV_NM


def _check_l_gamma(l_gamma, least: int) -> None:
    if not (isinstance(l_gamma, numbers.Integral) and l_gamma >= least):
        raise DomainError(f"l_gamma must be an integer >= {least}, got {l_gamma!r}")


@dataclass(frozen=True)
class PairThresholdQuery:
    """Inputs for one threshold evaluation: background photon energy (eV),
    pitch angle (rad), impact parameter (nm), orbital index l_gamma."""

    omega2: float
    pitch_angle: float
    impact_parameter: float = 0.0
    l_gamma: int = 0

    def __post_init__(self):
        if not (self.omega2 > 0.0 and math.isfinite(self.omega2)):
            raise DomainError(f"omega2 must be finite and positive, got {self.omega2}")
        if not 0.0 <= self.pitch_angle < 0.5 * math.pi:
            raise DomainError(f"pitch angle must lie in [0, pi/2), got {self.pitch_angle}")
        if not math.isfinite(self.impact_parameter):
            raise DomainError(f"impact parameter must be finite, got {self.impact_parameter}")
        _check_l_gamma(self.l_gamma, 0)
        if self.l_gamma > 0 and not self.impact_parameter > 0.0:
            raise DomainError(
                "l_gamma > 0 requires a positive impact parameter",
                code="B_SINGULARITY",
            )


def plane_wave_threshold(omega2: float) -> float:
    """Minimum VHE photon energy m_e^2/omega2 for untwisted head-on photons."""
    if not (omega2 > 0.0 and math.isfinite(omega2)):
        raise DomainError(f"omega2 must be finite and positive, got {omega2}")
    threshold = ELECTRON_MASS_EV * ELECTRON_MASS_EV / omega2
    if not math.isfinite(threshold):
        raise DomainError(
            f"omega2 = {omega2:g} eV puts the plane-wave threshold m_e^2/omega2 "
            "beyond the floating-point range"
        )
    return threshold


def small_angle_threshold(omega2: float, p_t: float) -> float:
    """Threshold in the very-small-pitch-angle limit: m_e^2/w2 + p_T^2/(4 w2)."""
    if not omega2 > 0.0:
        raise DomainError(f"omega2 must be positive, got {omega2}")
    if p_t < 0.0:
        raise DomainError(f"p_T must be non-negative, got {p_t}")
    return (ELECTRON_MASS_EV * ELECTRON_MASS_EV + 0.25 * p_t * p_t) / omega2


def pair_threshold(query: PairThresholdQuery) -> ThresholdSolution:
    """Threshold energy for the twisted photon, from the full quadratic.

    Returns the solved w1 with its momentum budget; ``recoil_energy`` holds
    the shift w1 - m_e^2/w2 relative to the plane-wave threshold (negative
    when the pitch angle wins over the superkick).
    """
    plane_wave = plane_wave_threshold(query.omega2)
    if query.l_gamma > 0:
        p_t = query.l_gamma * HBARC_EV_NM / query.impact_parameter
    else:
        p_t = 0.0
    if not math.isfinite(p_t * p_t):
        raise DomainError(
            f"the superkick p_T = l_gamma hbar c / b at b = {query.impact_parameter:g} nm "
            "is too large to square in floating point"
        )
    sin_t = math.sin(query.pitch_angle)
    rhs = 4.0 * ELECTRON_MASS_EV * ELECTRON_MASS_EV + p_t * p_t
    # positive root of sin^2 w1^2 + 4 w2 w1 - rhs = 0, rationalized so the
    # sin -> 0 limit reduces exactly to the small-angle form
    disc = 4.0 * query.omega2 * query.omega2 + sin_t * sin_t * rhs
    omega1 = rhs / (2.0 * query.omega2 + math.sqrt(disc))
    if not (omega1 > 0.0 and math.isfinite(omega1)):
        raise SolverError(f"no positive threshold root (got {omega1})")
    return ThresholdSolution(
        photon_energy=omega1,
        p_z=omega1 * math.cos(query.pitch_angle),
        p_T=p_t,
        recoil_energy=omega1 - plane_wave,
    )


@dataclass(frozen=True)
class CrossoverResult:
    """b*theta_k (nm*rad) where the twisted threshold crosses the plane-wave
    one, and the relative spread of that product across a decade of theta_k."""

    product: float
    relative_variation: float
    pitch_angles: tuple[float, ...]


def crossover_product(
    omega2: float,
    l_gamma: int,
    pitch_angles: tuple[float, ...] = (1e-6, 1.7783e-6, 3.1623e-6, 5.6234e-6, 1e-5),
) -> CrossoverResult:
    """The product b*theta_k at which twisted and plane-wave thresholds
    coincide, l_gamma hbar c w2/m_e^2 * theta_k/sin(theta_k) (module
    docstring), averaged over the supplied pitch angles; ``relative_variation``
    is its (max-min)/mean spread, quantifying how invariant the product is.
    """
    _check_l_gamma(l_gamma, 1)
    pitch_angles = tuple(pitch_angles)
    if not pitch_angles or not all(0.0 < t < 0.5 * math.pi for t in pitch_angles):
        raise DomainError(f"pitch angles must be one or more in (0, pi/2), got {pitch_angles}")
    invariant = l_gamma * HBARC_EV_NM / plane_wave_threshold(omega2)
    products = [invariant * theta / math.sin(theta) for theta in pitch_angles]
    mean = math.fsum(products) / len(products)
    return CrossoverResult(mean, (max(products) - min(products)) / mean, pitch_angles)


@dataclass(frozen=True)
class BeamFitResult:
    """Beam parameters realizing a requested threshold increase: the required
    superkick, the impact parameter delivering it, and a (pitch angle,
    envelope) pair whose transverse profile peaks there."""

    threshold_factor: float
    p_T: float
    impact_parameter: float
    pitch_angle: float
    envelope_w0: float
    photon_energy: float
    peak_radius: float


def fit_beam_for_threshold_factor(
    factor: float,
    omega2: float,
    l_gamma: int = 1,
    w0_over_b: float = 2.0,
) -> BeamFitResult:
    """Find beam parameters that raise the pair threshold by ``factor``.

    From the small-angle relation, p_T = 2 m_e sqrt(factor - 1) and the
    superkick locates the production radius at b = l_gamma hbar / p_T
    (unbounded as factor -> 1+).  The envelope is set to w0 = w0_over_b * b
    (documented modeling default).  The profile J_l(kappa rho) exp(-rho^2/w0^2)
    is stationary at rho = b when x = kappa b solves

        x J_{l-1}(x) = (l + 2 b^2/w0^2) J_l(x),

    which has one root below the first maximum of J_l; then sin(theta_k) =
    x hbar c / (b w1).  The fit fails with code FIT when l <= 2 b^2/w0^2 (no
    interior peak), theta_k > 1 rad, the global maximum (``peak_radius``)
    misses b by more than 1e-7 b, or a 4000-point grid of the profile over
    [0, 10 w0] exceeds its value at b (so 10 kappa w0 must be <= 1e6).
    """
    if not factor > 1.0:
        raise DomainError(f"threshold factor must exceed 1, got {factor}")
    if not w0_over_b > 0.0:
        raise DomainError(f"w0/b must be positive, got {w0_over_b:g}")
    _check_l_gamma(l_gamma, 1)
    p_t = 2.0 * ELECTRON_MASS_EV * math.sqrt(factor - 1.0)
    b = l_gamma * HBARC_EV_NM / p_t
    w0 = w0_over_b * b
    omega1 = factor * plane_wave_threshold(omega2)
    sin_per_x = HBARC_EV_NM / (b * omega1)  # sin(theta_k) / (kappa b)
    if not all(0.0 < v < math.inf for v in (b, w0, omega1, sin_per_x)):
        raise DomainError(
            f"threshold factor {factor:g} at omega2 = {omega2:g} eV leaves the floating-point "
            "range: the fit radius, envelope, energy or pitch angle is not finite and positive"
        )
    # l > 2 b^2/w0^2, tested without the division that (w0/b)^2 underflowing
    # to 0 would make
    if not l_gamma * w0_over_b * w0_over_b > 2.0:
        raise SolverError(f"w0/b = {w0_over_b:g} gives no interior peak", code="FIT")
    envelope_slope = 2.0 / (w0_over_b * w0_over_b)
    x = first_lobe_peak_argument(l_gamma, lambda x: envelope_slope)
    sin_theta = x * sin_per_x
    if not sin_theta <= math.sin(1.0):
        raise SolverError("the profile fit needs a pitch angle above 1 rad", code="FIT")
    theta = math.asin(sin_theta)
    beam = TwistedPhotonBeam(l_gamma + 1, 1, omega1, theta, envelope_w0=w0)
    peak = profile_peak_radius(beam)
    if abs(peak - b) > 1e-7 * b:
        raise SolverError(f"fitted profile peaks at {peak:g} nm, not {b:g} nm", code="FIT")
    # peak_radius solves the fit's own equation, so a grid of the profile checks
    # that b is the global maximum (to rounding at a grid point next to b)
    rho = np.linspace(0.0, 10.0 * w0, 4000)
    grid = np.abs(bessel_gauss_amplitude(beam, rho))
    if grid.max() > abs(bessel_gauss_amplitude(beam, b)) * (1.0 + 1e-12):
        raise SolverError(f"fitted profile is larger at {rho[grid.argmax()]:g} nm "
                          f"than at b = {b:g} nm", code="FIT")
    return BeamFitResult(
        threshold_factor=factor,
        p_T=p_t,
        impact_parameter=b,
        pitch_angle=theta,
        envelope_w0=w0,
        photon_energy=omega1,
        peak_radius=peak,
    )

