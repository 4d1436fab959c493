"""Twisted-photon model: quantum numbers, cone geometry, superkick momentum,
and the Bessel-Gauss transverse profile.

A twisted photon of total angular-momentum projection m_gamma and (paraxial)
helicity Lambda carries orbital index l_gamma = m_gamma - Lambda.  Its
Fourier components all propagate at the pitch angle theta_k to the beam
axis, giving a transverse wavenumber kappa = (E/hbar c) sin(theta_k) and a
position-space amplitude J_{l_gamma}(kappa rho) exp(-rho^2/w0^2) once a
Gaussian envelope of scale w0 is imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, QuadratureError
from .special_functions import bessel_first_max, bessel_j, bessel_j_array, \
    check_bessel_domain, scipy_bessel
from .units import HBARC_EV_NM, energy_to_wavelength

#: Pitch angle used by figure sweeps when none is specified.  The value is a
#: documented modeling default, not a measured quantity; every consumer
#: accepts an override.
DEFAULT_PITCH_ANGLE = 0.1


@dataclass(frozen=True)
class TwistedPhotonBeam:
    """Photon quantum numbers and cone geometry.

    energy in eV, pitch_angle in radians, envelope_w0 in nm (optional, only
    needed for the Bessel-Gauss profile operations).
    """

    m_gamma: int
    lambda_spin: int
    energy: float
    pitch_angle: float
    envelope_w0: float | None = None

    def __post_init__(self):
        if self.lambda_spin not in (-1, 1):
            raise DomainError(f"lambda_spin must be +1 or -1, got {self.lambda_spin}")
        if not isinstance(self.m_gamma, (int, np.integer)):
            raise DomainError(f"m_gamma must be an integer, got {self.m_gamma!r}")
        if not 0.0 < self.energy < math.inf:
            raise DomainError(f"energy must be positive and finite, got {self.energy}")
        if not 0.0 <= self.pitch_angle < 0.5 * math.pi:
            raise DomainError(
                f"pitch angle must lie in [0, pi/2), got {self.pitch_angle}"
            )
        if self.envelope_w0 is not None and not 0.0 < self.envelope_w0 < math.inf:
            raise DomainError(
                f"envelope_w0 must be positive and finite, got {self.envelope_w0}"
            )

    @property
    def l_gamma(self) -> int:
        """Orbital index l_gamma = m_gamma - Lambda."""
        return int(self.m_gamma) - int(self.lambda_spin)

    @property
    def wavelength(self) -> float:
        """Wavelength in nm."""
        return energy_to_wavelength(self.energy)


def transverse_wavenumber(beam: TwistedPhotonBeam) -> float:
    """kappa = (E / hbar c) sin(theta_k) in nm^-1; 0 in the plane-wave limit."""
    return beam.energy / HBARC_EV_NM * math.sin(beam.pitch_angle)


def longitudinal_momentum(beam: TwistedPhotonBeam, paraxial: bool = True) -> float:
    """Longitudinal momentum p_z (as p_z*c in eV).

    With ``paraxial=True`` (the form every sub-relativistic module uses)
    p_z = E/c exactly; otherwise p_z = (E/c) cos(theta_k).
    """
    if paraxial:
        return beam.energy
    return beam.energy * math.cos(beam.pitch_angle)


def superkick(delta_l: int, b: float) -> float:
    """Transverse recoil momentum p_T = delta_l * hbar / b (as p_T*c in eV).

    ``delta_l`` is the angular momentum (units hbar) delivered to the
    absorber's center of mass; ``b`` its distance from the vortex line in nm.
    The vortex line itself (b = 0) is a hard domain error: the formula
    diverges there and the physical cutoff is the target's own extent, which
    callers must model explicitly.
    """
    if delta_l < 0:
        raise DomainError(f"delta_l must be non-negative, got {delta_l}")
    if not b > 0.0:
        raise DomainError(
            f"impact parameter must be positive, got {b}", code="B_SINGULARITY"
        )
    return delta_l * HBARC_EV_NM / b


def equal_kick_radius(beam: TwistedPhotonBeam) -> float:
    """Impact parameter (nm) where the superkick equals the longitudinal kick.

    b = lambda (m_gamma - Lambda) / (2 pi).  When m_gamma equals Lambda the
    transverse kick vanishes identically and no finite radius exists.
    """
    delta_l = beam.l_gamma
    if delta_l == 0:
        raise DomainError(
            "m_gamma = lambda_spin carries no orbital angular momentum; "
            "the recoil momenta are never equal at finite b",
            code="NO_FINITE_RADIUS",
        )
    return beam.wavelength * delta_l / (2.0 * math.pi)


def _require_w0(beam: TwistedPhotonBeam) -> float:
    if beam.envelope_w0 is None:
        raise ConfigurationError("beam has no envelope_w0; required for profile operations")
    return beam.envelope_w0


def bessel_gauss_amplitude(beam: TwistedPhotonBeam, rho) -> float | np.ndarray:
    """Unnormalized transverse amplitude J_{l_gamma}(kappa rho) exp(-rho^2/w0^2).

    Accepts a scalar or array ``rho`` (nm, >= 0).  See
    :func:`bessel_gauss_norm` for the normalization constant.
    """
    w0 = _require_w0(beam)
    kappa = transverse_wavenumber(beam)
    if np.isscalar(rho):
        if rho < 0.0:
            raise DomainError(f"rho must be non-negative, got {rho}")
        return bessel_j(beam.l_gamma, kappa * rho) * math.exp(-(rho / w0) ** 2)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise DomainError("rho must be non-negative")
    return bessel_j_array(beam.l_gamma, kappa * rho) * np.exp(-((rho / w0) ** 2))


# 16-node Gauss-Legendre panels, evaluated _PANEL_CHUNK panels at a time so
# that kappa * upper near the Bessel limit (~3e5 panels) stays small in memory
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_MIN_PANELS = 8
_PANEL_CHUNK = 4096


def _composite_gl(beam: TwistedPhotonBeam, upper: float, panels: int) -> float:
    h = upper / panels
    offsets = 0.5 * (_GL_X + 1.0)
    total = 0.0
    for start in range(0, panels, _PANEL_CHUNK):
        index = np.arange(start, min(start + _PANEL_CHUNK, panels))
        rho = h * (index[:, None] + offsets)
        amp = bessel_gauss_amplitude(beam, rho)
        total += float(np.sum(amp * amp * rho * _GL_W))
    return 0.5 * h * total


def radial_intensity_integral(beam: TwistedPhotonBeam, upper: float) -> tuple[float, float]:
    """Integral of |psi(rho)|^2 rho d rho over [0, upper] (nm), unnormalized,
    with an error estimate.

    Composite Gauss-Legendre: 16 nodes per panel on panels about one Bessel
    period 2 pi/kappa wide (at least 8).  The returned estimate is the change
    when the panel count is doubled; the value is the doubled-count sum.
    """
    kappa = transverse_wavenumber(beam)
    check_bessel_domain(beam.l_gamma, kappa * upper)
    panels = max(_MIN_PANELS, math.ceil(kappa * upper / (2.0 * math.pi)))
    coarse = _composite_gl(beam, upper, panels)
    fine = _composite_gl(beam, upper, 2 * panels)
    return fine, abs(fine - coarse)


def radial_intensity_total(beam: TwistedPhotonBeam) -> float:
    """Integral of |psi(rho)|^2 rho d rho over [0, inf) (nm^2), unnormalized.

    Weber's second exponential integral (DLMF 10.22.67) gives it in closed
    form, (w0^2/4) exp(-y) I_l(y) with y = kappa^2 w0^2/4.  The accepted
    inputs are those of :func:`radial_intensity_integral` over [0, 8 w0]; a
    QuadratureError is raised when the integral is zero (kappa = 0 with
    l_gamma != 0) or not finite.
    """
    w0 = _require_w0(beam)
    kappa = transverse_wavenumber(beam)
    check_bessel_domain(beam.l_gamma, kappa * 8.0 * w0)
    _, ive = scipy_bessel()
    value = 0.25 * w0 * w0 * float(ive(abs(beam.l_gamma), 0.25 * (kappa * w0) ** 2))
    if not 0.0 < value < math.inf:  # NaN where w0^2 overflows and I_l(y) = 0
        raise QuadratureError(
            f"profile is not normalizable: its integral at w0 = {w0:g} nm is "
            f"{'zero' if value == 0.0 else 'not finite'}"
        )
    return value


def bessel_gauss_norm(beam: TwistedPhotonBeam) -> float:
    """Constant A with integral |A psi|^2 2 pi rho d rho = 1, from
    :func:`radial_intensity_total`."""
    return 1.0 / math.sqrt(2.0 * math.pi * radial_intensity_total(beam))


def first_lobe_peak_argument(l_gamma: int, envelope_slope) -> float:
    """The root x below the first maximum j'_{l,1} of J_l, l = |l_gamma| >= 1,
    of x J_{l-1}(x)/J_l(x) = l + s(x): the first-lobe stationary point of
    J_l(x) times an envelope of log-slope -s(x) = x d/dx ln(envelope).  There
    x J_l'/J_l = x J_{l-1}/J_l - l falls from l to 0, so for a non-negative,
    non-decreasing s = ``envelope_slope`` the root is unique; bisection finds
    it to the last bit.  Where J_l underflows to 0, the ratio takes its
    small-x limit 2l."""
    l = abs(l_gamma)
    lo, hi = 0.0, bessel_first_max(l)[0]
    x = 0.5 * hi
    while lo < x < hi:
        j_l = bessel_j(l, x)
        ratio = x * bessel_j(l - 1, x) / j_l if j_l else 2.0 * l
        if ratio > l + envelope_slope(x):
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    return x


def profile_peak_radius(beam: TwistedPhotonBeam) -> float:
    """Radius (nm) of the global maximum of |bessel_gauss_amplitude|.

    Beyond the first maximum of |J_l| the Bessel factor never exceeds that
    maximum and the envelope only falls, so the peak is the first-lobe
    stationary point, :func:`first_lobe_peak_argument` with s(x) =
    2 x^2/(kappa w0)^2 at x = kappa rho.  No point past the first lobe is
    evaluated, so any kappa w0 > 0 is answered.  NO_PEAK when l_gamma = 0
    (the peak is the axis) or kappa = 0 (the profile vanishes).
    """
    w0 = _require_w0(beam)
    if abs(beam.l_gamma) < 1:
        raise DomainError(
            "profile peak is at rho = 0 for l_gamma = 0; no interior peak",
            code="NO_PEAK",
        )
    kappa = transverse_wavenumber(beam)
    scale = kappa * w0
    if not scale > 0.0:
        raise DomainError("profile vanishes identically; no peak", code="NO_PEAK")
    # (x/scale) squared by a product, which overflows to inf, not to an error
    x = first_lobe_peak_argument(beam.l_gamma, lambda x: 2.0 * (x / scale) * (x / scale))
    return x / kappa
