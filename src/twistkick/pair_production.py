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

The beam fit (:func:`fit_beam_for_threshold_factor`) checks its profile on
a grid of 4000 points: on Python floats in a process without numpy, as one
array otherwise (:func:`twistkick.units.on_floats`), so ``beam-fit`` and
``reproduce --figure pair_table`` load no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beam import TwistedPhotonBeam, bessel_gauss_amplitude, bessel_gauss_amplitudes, \
    first_lobe_peak_argument, profile_peak_radius, superkick
from .errors import DomainError, SolverError, shown
from .recoil_kinematics import ThresholdSolution
from .units import ELECTRON_MASS_EV, FLOAT_FIT_POINTS, HBARC_EV_NM, _linspace, _type_of, \
    check, extremes, on_floats, per_element, sqrt

_FIT_GRID_POINTS = 4000  # of the profile grid that checks a fit's peak


class PairThresholdQuery(namedtuple("PairThresholdQuery",
                                    "omega2 pitch_angle impact_parameter l_gamma")):
    """Inputs for one threshold evaluation: background photon energy omega2
    (eV), pitch angle (rad), impact parameter (nm), integer orbital index
    l_gamma.  The pitch angle or the impact parameter may be an array of
    them, each checked as a float is."""

    __slots__ = ()

    def __new__(cls, omega2, pitch_angle, impact_parameter=0.0, l_gamma=0):
        omega2, pitch_angle = check(omega2, "omega2"), check(pitch_angle, "pitch angles")
        impact_parameter, l_gamma = check(impact_parameter, "b finite"), check(l_gamma, "l_gamma")
        if l_gamma > 0 and not all(b > 0.0 for b in extremes(impact_parameter)):
            raise DomainError(
                "l_gamma > 0 requires a positive impact parameter",
                code="B_SINGULARITY",
            )
        return super().__new__(cls, omega2, pitch_angle, impact_parameter, l_gamma)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace


def plane_wave_threshold(omega2: float) -> float:
    """Minimum VHE photon energy m_e^2/omega2 for untwisted head-on photons."""
    omega2 = check(omega2, "omega2")
    threshold = ELECTRON_MASS_EV * ELECTRON_MASS_EV / omega2
    if not math.isfinite(threshold):
        raise DomainError(
            f"omega2 = {omega2:g} eV puts the plane-wave threshold m_e^2/omega2 "
            "beyond the floating-point range"
        )
    return threshold


def small_angle_threshold(omega2: float, p_t: float) -> float:
    """Threshold in the very-small-pitch-angle limit: m_e^2/w2 + p_T^2/(4 w2)."""
    omega2, p_t = check(omega2, "omega2"), check(p_t, "p_T")
    numerator = ELECTRON_MASS_EV * ELECTRON_MASS_EV + 0.25 * p_t * p_t
    if numerator == math.inf:
        raise DomainError(f"p_T = {p_t:g} eV is too large to square in floating point")
    threshold = numerator / omega2
    if threshold == math.inf:
        raise DomainError(f"omega2 = {omega2:g} eV puts the small-angle threshold beyond the "
                          "floating-point range")
    return threshold


def pair_threshold(query: PairThresholdQuery) -> ThresholdSolution:
    """Threshold energy for the twisted photon, from the full quadratic.

    Returns the solved w1 with its momentum budget; ``recoil_energy`` holds
    the shift w1 - m_e^2/w2 relative to the plane-wave threshold (negative
    when the pitch angle wins over the superkick).  A query holding an array
    of pitch angles or of impact parameters gives a solution of arrays, each
    element equal to the float call bit for bit (sin and cos from ``math``
    per element); it raises for the whole array where the float call raises
    for some element.
    """
    plane_wave = plane_wave_threshold(query.omega2)
    p_t = superkick(query.l_gamma, query.impact_parameter) if query.l_gamma > 0 else 0.0
    if isinstance(p_t, float):
        p_t_sq = p_t * p_t
    else:
        import numpy as np
        with np.errstate(over="ignore"):  # inf where it overflows, as on floats
            p_t_sq = p_t * p_t
    for square in extremes(p_t_sq):
        if not math.isfinite(square):
            b = extremes(query.impact_parameter)[0]  # the largest kick
            raise DomainError(
                f"the superkick p_T = l_gamma hbar c / b at b = {b:g} nm "
                "is too large to square in floating point"
            )
    sin_t = per_element(math.sin, query.pitch_angle)
    rhs = 4.0 * ELECTRON_MASS_EV * ELECTRON_MASS_EV + p_t_sq
    # positive root of sin^2 w1^2 + 4 w2 w1 - rhs = 0, rationalized so the
    # sin -> 0 limit reduces exactly to the small-angle form
    disc = 4.0 * query.omega2 * query.omega2 + sin_t * sin_t * rhs
    omega1 = rhs / (2.0 * query.omega2 + sqrt(disc))
    for end in extremes(omega1):
        if not (end > 0.0 and math.isfinite(end)):
            raise SolverError(f"no positive threshold root (got {shown(end)})")
    return ThresholdSolution(
        photon_energy=omega1,
        p_z=omega1 * per_element(math.cos, query.pitch_angle),
        p_T=p_t,
        recoil_energy=omega1 - plane_wave,
    )


class CrossoverResult(namedtuple("CrossoverResult",
                                 "product relative_variation pitch_angles")):
    """b*theta_k (nm*rad) where the twisted threshold crosses the plane-wave
    one, the relative spread of that product across a decade of theta_k, and
    the tuple of pitch angles (rad) it was averaged over."""

    __slots__ = ()


def crossover_product(
    omega2: float,
    l_gamma: int,
    pitch_angles: tuple[float, ...] = (1e-6, 1.7783e-6, 3.1623e-6, 5.6234e-6, 1e-5),
) -> CrossoverResult:
    """The product b*theta_k at which twisted and plane-wave thresholds
    coincide, l_gamma hbar c w2/m_e^2 * theta_k/sin(theta_k) (module
    docstring), averaged over the supplied pitch angles; ``relative_variation``
    is its (max-min)/mean spread, quantifying how invariant the product is.
    ``pitch_angles`` is a sequence or a 1-D array of angles; one angle is
    passed as a one-element sequence, and a single number, which is no
    sequence, is a ``DOMAIN`` error that names its type.
    """
    l_gamma = check(l_gamma, "l_gamma > 0")
    try:
        angles = iter(pitch_angles)
    except TypeError:
        raise DomainError("pitch angles must be a sequence of real numbers, "
                          f"got {_type_of(pitch_angles)}") from None
    pitch_angles = tuple([check(theta, "crossover pitch angle") for theta in angles])
    if not pitch_angles:
        raise DomainError("pitch angles must be one or more, got ()")
    invariant = l_gamma * HBARC_EV_NM / plane_wave_threshold(omega2)
    products = [invariant * theta / math.sin(theta) for theta in pitch_angles]
    mean = math.fsum(products) / len(products)
    if not 0.0 < mean < math.inf:  # a tiny pitch angle, or a huge l_gamma omega2
        raise DomainError("the product b*theta_k leaves the floating-point range")
    return CrossoverResult(mean, (max(products) - min(products)) / mean, pitch_angles)


def _profile_grid(beam: TwistedPhotonBeam, end: float):
    """``(rho, |amplitude|, largest |amplitude|)`` on the fit's grid of
    ``_FIT_GRID_POINTS`` radii over [0, ``end``]: lists of Python floats
    where :func:`on_floats` picks them, else numpy arrays.  The radii are
    the same floats; an amplitude may differ by an ulp or two where
    ``math.exp`` and ``numpy.exp`` round its envelope apart."""
    if on_floats(_FIT_GRID_POINTS, FLOAT_FIT_POINTS):
        rho = _linspace(0.0, end, _FIT_GRID_POINTS)
        grid = [abs(a) for a in bessel_gauss_amplitudes(beam, rho)]
        return rho, grid, max(grid)
    import numpy as np
    rho = np.linspace(0.0, end, _FIT_GRID_POINTS)
    grid = np.abs(bessel_gauss_amplitude(beam, rho))
    return rho, grid, grid.max()


class BeamFitResult(namedtuple("BeamFitResult", "threshold_factor p_T impact_parameter "
                               "pitch_angle envelope_w0 photon_energy peak_radius")):
    """Beam parameters realizing a requested threshold increase: the required
    superkick p_T (eV), the impact parameter (nm) delivering it, and a (pitch
    angle in rad, envelope_w0 in nm) pair whose transverse profile peaks
    there; photon_energy (eV) is the raised threshold and peak_radius (nm)
    the maximum of the fitted beam's profile."""

    __slots__ = ()


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
    [0, min(10, sqrt(-ln|A(b)|)) w0] exceeds its value A(b) at b (so kappa
    times that radius must be <= 1e6).  The grid runs on Python floats
    where :func:`twistkick.units.on_floats` picks them (a process without
    numpy), else as one array: the same radii, and amplitudes within an ulp
    or two, so the same check.
    """
    factor, w0_over_b = check(factor, "threshold factor"), check(w0_over_b, "w0/b")
    l_gamma = check(l_gamma, "l_gamma > 0")
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
    # that b is the global maximum (to rounding at a grid point next to b); it
    # ends where the envelope, which bounds the profile, falls below |A(b)|
    at_b = abs(bessel_gauss_amplitude(beam, b))
    rho, grid, top = _profile_grid(beam, min(10.0, math.sqrt(-math.log(at_b))) * w0)
    if top > at_b * (1.0 + 1e-12):
        first = next(r for r, a in zip(rho, grid) if a == top)
        raise SolverError(f"fitted profile is larger at {first:g} nm "
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

