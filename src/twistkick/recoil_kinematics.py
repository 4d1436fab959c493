"""Energy bookkeeping with recoil: absorption-energy shifts, deuteron
photodisintegration thresholds per multipole channel, and the beam-focus
fraction estimator.

Energy conservation with target recoil reads

    hbar w = hbar w0 + (p_z^2 + p_T^2) / (2M),

with the paraxial p_z = hbar w / c and the superkick p_T = dl * hbar / b.
That makes the absorbed energy a quadratic in w, solved here in the
cancellation-free closed form (no iteration tolerances in the goldens).
The focus fraction divides the Bessel-Gauss intensity inside a radius,
integrated with the composite Gauss-Legendre rule of
:func:`twistkick.beam.radial_intensity_integral` (error estimate from
doubling the panel count), by its closed-form total.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beam import TwistedPhotonBeam, longitudinal_momentum, radial_intensity_integral, \
    radial_intensity_total, superkick
from .errors import DomainError, QuadratureError, SolverError, shown
from .units import DEUTERON_BINDING_EV, DEUTERON_MASS_EV, HBARC_EV_NM, check, \
    nonrel_recoil_energy


class TargetParticle(namedtuple("TargetParticle", "mass impact_parameter spread_rms")):
    """Absorber: rest energy mass (eV), distance impact_parameter from the
    vortex line (nm), and an optional per-axis Gaussian rms spread_rms (nm)
    or None.  The distance may be an array of them, each checked as a float
    is."""

    __slots__ = ()

    def __new__(cls, mass, impact_parameter=0.0, spread_rms=None):
        return super().__new__(
            cls, check(mass, "mass"), check(impact_parameter, "b target"),
            None if spread_rms is None else check(spread_rms, "spread_rms"))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace


class ThresholdSolution(namedtuple("ThresholdSolution",
                                   "photon_energy p_z p_T recoil_energy")):
    """Solved photon energy plus the momentum budget that produced it.

    All in eV (momenta as p*c); each a float, or an array for an array
    query.  ``recoil_energy`` is the kinetic energy taken by the final
    state's motion; for the nonrelativistic solver it satisfies
    photon_energy = omega0 + recoil_energy to machine precision.
    """

    __slots__ = ()


def absorption_energy(
    omega0: float, target: TargetParticle, delta_l_cm: int
) -> ThresholdSolution:
    """Photon energy absorbed by a recoiling target with excitation energy omega0.

    Solves hbar w = omega0 + [(hbar w/c)^2 + (dl hbar / b)^2] / (2M) exactly
    (physical root of the quadratic).  delta_l_cm > 0 requires a positive
    impact parameter.
    """
    omega0, delta_l_cm = check(omega0, "omega0"), check(delta_l_cm, "delta_l_cm")
    check(target.impact_parameter, "b point")  # one b, not an array
    if delta_l_cm > 0:
        p_t = superkick(delta_l_cm, target.impact_parameter)
    else:
        p_t = 0.0
    e_t = nonrel_recoil_energy(p_t, target.mass)

    # w = M - sqrt(M^2 - 2M(omega0 + E_T)) rationalized to avoid the
    # catastrophic cancellation of the textbook form when omega0 << M
    if math.isinf(target.mass):
        omega = omega0 + e_t
    else:
        rad = 1.0 - 2.0 * (omega0 + e_t) / target.mass
        if rad < 0.0:
            raise SolverError(
                f"no physical root: target mass {target.mass} below 2*(omega0 + E_T)"
            )
        omega = 2.0 * (omega0 + e_t) / (1.0 + math.sqrt(rad))
    return ThresholdSolution(
        photon_energy=omega,
        p_z=omega,
        p_T=p_t,
        recoil_energy=omega - omega0,
    )


def transverse_recoil_energy(target: TargetParticle, delta_l_cm: int) -> float | np.ndarray:
    """Superkick recoil energy (dl hbar / b)^2 / (2M) in eV, an array for an
    array of b, each element equal to the float call bit for bit."""
    p_t = superkick(delta_l_cm, target.impact_parameter)
    return nonrel_recoil_energy(p_t, target.mass)


def deuteron_threshold(
    beam: TwistedPhotonBeam, internal_am_absorbed: int, b: float
) -> ThresholdSolution:
    """Photodisintegration threshold for a deuteron at impact parameter b (nm).

    The internal degrees of freedom absorb ``internal_am_absorbed`` units of
    the photon's total AM (J of the multipole transition actually driven);
    the remainder dl_cm = m_gamma - internal goes to the center of mass.
    With dl_cm = 0 the threshold is the plane-wave one at any position.
    """
    internal = check(internal_am_absorbed, "internal AM")
    delta_l_cm = beam.m_gamma - internal
    if delta_l_cm < 0:
        raise DomainError(
            f"internal AM {shown(internal)} exceeds the photon's m_gamma={beam.m_gamma}"
        )
    target = TargetParticle(mass=DEUTERON_MASS_EV, impact_parameter=b)
    return absorption_energy(DEUTERON_BINDING_EV, target, delta_l_cm)


def ratio_cut_radius(beam: TwistedPhotonBeam, delta_l_cm: int, ratio_cut: float) -> float:
    """Impact parameter below which p_T/p_z exceeds ``ratio_cut``.

    b* = dl hbar / (ratio_cut * p_z) with the paraxial p_z."""
    ratio_cut, delta_l_cm = check(ratio_cut, "ratio_cut"), check(delta_l_cm, "delta_l_cm > 0")
    p_z = longitudinal_momentum(beam, paraxial=True)
    denominator = ratio_cut * p_z
    b_star = delta_l_cm * HBARC_EV_NM / denominator if denominator > 0.0 else math.inf
    if b_star == math.inf:
        raise DomainError(
            f"ratio_cut {ratio_cut:g} at p_z = {p_z:g} eV/c puts b* beyond the "
            "floating-point range"
        )
    return b_star


def focus_fraction(beam: TwistedPhotonBeam, delta_l_cm: int, ratio_cut: float) -> float:
    """Fraction of absorptions with transverse/longitudinal recoil above the cut.

    Model: the absorption probability density follows the Bessel-Gauss
    intensity, dP ~ |psi(rho)|^2 2 pi rho d rho; the returned value is the
    probability that the absorption happens inside the critical radius
    b* = dl hbar / (ratio_cut p_z).  The total is the closed form of
    :func:`radial_intensity_total`; the inner integral over [0, b*] uses the
    composite Gauss-Legendre rule of :func:`radial_intensity_integral`, and a
    QuadratureError is raised when its panel-doubling error estimate exceeds
    1e-8 of the total.  Where the inner integral holds more than half of the
    total, the fraction is 1 minus the integral over [b*, 8 w0] over the
    total, from the same rule.
    """
    b_star = ratio_cut_radius(beam, delta_l_cm, ratio_cut)
    total = radial_intensity_total(beam)  # ConfigurationError without envelope_w0
    w0 = beam.envelope_w0
    # the profile beyond 8 w0 holds at most 3e-10 of the total: the envelope
    # exp(-2 rho^2/w0^2) < 1e-55 there, but J_l^2 grows like rho^(2l), and
    # at |l| = 64 the tail reaches 2.9e-10 (7e-15 for |l| <= 48; a test pins
    # it below 1e-9), inside the 1e-8 the quadrature is held to
    if b_star >= 8.0 * w0:
        return 1.0
    inner, err_i = radial_intensity_integral(beam, b_star)
    if err_i > 1e-8 * total:
        raise QuadratureError(f"inner profile integral stalled at error {err_i:g}")
    if inner <= 0.5 * total:
        return inner / total
    # most of the mass lies inside b*: the fraction comes from the smaller
    # mass beyond it, which keeps its digits next to 1 (the rule and the
    # closed-form total round differently by a few ulp)
    outer, err_o = radial_intensity_integral(beam, 8.0 * w0, b_star)
    if err_o > 1e-8 * total:
        raise QuadratureError(f"outer profile integral stalled at error {err_o:g}")
    return 1.0 - outer / total
