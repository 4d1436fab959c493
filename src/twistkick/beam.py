"""Twisted-photon model: quantum numbers, cone geometry, superkick momentum,
and the Bessel-Gauss transverse profile.

A twisted photon of total angular-momentum projection m_gamma and (paraxial)
helicity Lambda carries orbital index l_gamma = m_gamma - Lambda.  Its
Fourier components all propagate at the pitch angle theta_k to the beam
axis, giving a transverse wavenumber kappa = (E/hbar c) sin(theta_k) and a
position-space amplitude J_{l_gamma}(kappa rho) exp(-rho^2/w0^2) once a
Gaussian envelope of scale w0 is imposed.

The profile's quadrature (:func:`radial_intensity_integral`) runs its nodes
on Python floats through :func:`bessel_gauss_amplitudes` where the
package's float-or-array rule (:func:`twistkick.units.on_floats`, at most
``FLOAT_NODES`` nodes) picks floats, and as numpy tables otherwise; both
take the same nodes, products and summation order.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import add

from .errors import ConfigurationError, DomainError, QuadratureError
from .special_functions import _BANDS, _j_list, bessel_i_scaled_orders, bessel_j, \
    bessel_j_array, check_bessel_domain, first_lobe_peak_argument
from .units import FLOAT_NODES, HBARC_EV_NM, check, energy_to_wavelength, extremes, \
    on_floats

#: Pitch angle used by figure sweeps when none is specified.  The value is a
#: documented modeling default, not a measured quantity; every consumer
#: accepts an override.
DEFAULT_PITCH_ANGLE = 0.1


class TwistedPhotonBeam(namedtuple("TwistedPhotonBeam",
                                   "m_gamma lambda_spin energy pitch_angle envelope_w0")):
    """Photon quantum numbers and cone geometry.

    m_gamma and lambda_spin (+-1) integers, energy in eV, pitch_angle in
    radians, envelope_w0 in nm or None (only needed for the Bessel-Gauss
    profile operations).
    """

    __slots__ = ()

    def __new__(cls, m_gamma, lambda_spin, energy, pitch_angle, envelope_w0=None):
        return super().__new__(
            cls, check(m_gamma, "m_gamma"), check(lambda_spin, "lambda_spin"),
            check(energy, "energy"), check(pitch_angle, "pitch angle"),
            None if envelope_w0 is None else check(envelope_w0, "envelope_w0"))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace

    @property
    def l_gamma(self) -> int:
        """Orbital index l_gamma = m_gamma - Lambda."""
        return self.m_gamma - self.lambda_spin

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


def superkick(delta_l: int, b) -> float | np.ndarray:
    """Transverse recoil momentum p_T = delta_l * hbar / b (as p_T*c in eV).

    ``delta_l`` is the angular momentum (units hbar) delivered to the
    absorber's center of mass; ``b`` its distance from the vortex line in nm,
    a float or an array.  The vortex line itself (b = 0) is a hard domain
    error: the formula diverges there and the physical cutoff is the
    target's own extent, which callers must model explicitly.  An array
    raises for the whole array where the float call raises for some b.
    """
    delta_l, b = check(delta_l, "delta_l"), check(b, "b kick")
    if isinstance(b, (float, int)):
        return delta_l * HBARC_EV_NM / b
    import numpy as np
    with np.errstate(over="ignore"):  # a kick beyond the float range is inf, as on floats
        return delta_l * HBARC_EV_NM / np.asarray(b, dtype=float)


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
    rho = check(rho, "rho")
    if isinstance(rho, (float, int)):  # an envelope of 0 where (rho/w0)^2 overflows
        envelope = math.exp(-(rho / w0) ** 2) if rho / w0 < 1e150 else 0.0
        return bessel_j(beam.l_gamma, kappa * rho) * envelope
    import numpy as np
    rho = np.asarray(rho, dtype=float)
    # the largest rho first, so that kappa rho is only formed within the domain
    check_bessel_domain(beam.l_gamma, kappa * max(extremes(rho), default=0.0))
    with np.errstate(over="ignore"):  # an envelope of 0 where the square overflows
        envelope = np.exp(-((rho / w0) ** 2))
    return bessel_j_array(beam.l_gamma, kappa * rho) * envelope


def bessel_gauss_amplitudes(beam: TwistedPhotonBeam, rhos: list[float]) -> list[float]:
    """:func:`bessel_gauss_amplitude` at each of ``rhos``, a list of floats
    >= 0 (nm), as a list of floats, without numpy: the array call's checks
    once, then J_l from the float Bessel row of each point, which the array
    table equals bit for bit, times ``math.exp`` of the envelope
    (``numpy.exp`` may round it an ulp apart)."""
    w0 = _require_w0(beam)
    kappa = transverse_wavenumber(beam)
    check(min(rhos), "rho")
    l = beam.l_gamma
    n = abs(l)
    check_bessel_domain(l, kappa * max(rhos))
    top = _BANDS[0] if n <= _BANDS[0] else _BANDS[1]
    sign = -1.0 if l < 0 and n % 2 else 1.0  # J_{-n} = (-1)^n J_n
    return [sign * _j_list(top, kappa * rho, n + 1)[n] * math.exp(-(rho / w0) * (rho / w0))
            for rho in rhos]


# 16-node Gauss-Legendre panels, evaluated _PANEL_CHUNK panels at a time so
# that kappa * upper near the Bessel limit (~3e5 panels) stays small in memory
_MIN_PANELS = 8
_PANEL_CHUNK = 4096


#: (node, weight) of the 16-node rule at its positive nodes, as
#: numpy.polynomial.legendre.leggauss(16) gives them (a test checks); the
#: rule is symmetric about 0, so these literals spare numpy.polynomial
_GL16_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)


#: the 16 (node, weight) pairs in ascending order
_GL16 = tuple((-node, weight) for node, weight in reversed(_GL16_HALF)) + _GL16_HALF


@functools.cache
def _gauss_legendre():  # the nodes and weights, built at the first array quadrature
    import numpy as np
    return np.array([node for node, _ in _GL16]), np.array([weight for _, weight in _GL16])


def _pairwise_sum(values: list[float]) -> float:
    """The sum of ``values`` in the order ``numpy.sum`` adds a contiguous
    float array (its pairwise summation): fewer than 8 values one by one,
    up to 128 as eight running sums of every eighth value, more as the sums
    of two halves split at a multiple of 8."""
    count = len(values)
    if count < 8:
        return functools.reduce(add, values, 0.0)
    if count <= 128:
        stop = count - count % 8
        r = [functools.reduce(add, values[j:stop:8]) for j in range(8)]
        return functools.reduce(add, values[stop:],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = count // 2 - count // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def radial_intensity_integral(
    beam: TwistedPhotonBeam, upper: float, lower: float = 0.0
) -> tuple[float, float]:
    """Integral of |psi(rho)|^2 rho d rho over [lower, upper] (nm),
    unnormalized, with an error estimate.

    Composite Gauss-Legendre: 16 nodes per panel on P panels about one
    Bessel period 2 pi/kappa wide (at least 8).  The value is the 2P-panel
    sum and the estimate its change from the P-panel one.  Each pass is
    summed in chunks of at most _PANEL_CHUNK panels, whose amplitudes come
    from shared tables of at most _PANEL_CHUNK panels (one while 3P fits).

    Where :func:`on_floats` picks floats for the 48 P nodes of both passes
    (at most ``FLOAT_NODES``), each pass is one chunk of Python floats: the
    same nodes and products from :func:`bessel_gauss_amplitudes`, summed in
    ``numpy.sum``'s order, so the two paths differ only where ``math.exp``
    and ``numpy.exp`` round an envelope apart (within a few ulps of the
    value; a test bounds it).
    """
    kappa = transverse_wavenumber(beam)
    check_bessel_domain(beam.l_gamma, kappa * upper)
    panels = max(_MIN_PANELS, math.ceil(kappa * (upper - lower) / (2.0 * math.pi)))
    steps = {count: (upper - lower) / count for count in (panels, 2 * panels)}
    node_sums = _float_sums if on_floats(48 * panels, FLOAT_NODES) else _array_sums
    sums = node_sums(beam, lower, steps)
    coarse, fine = (0.5 * step * sums[count] for count, step in steps.items())
    return fine, abs(fine - coarse)


def _float_sums(beam: TwistedPhotonBeam, lower: float, steps: dict) -> dict:
    # the node sum of each pass {panels: step}, on Python floats: one chunk a
    # pass, summed in numpy.sum's order
    rule = [(0.5 * (node + 1.0), weight) for node, weight in _GL16]
    sums = dict.fromkeys(steps, 0.0)
    for count, step in steps.items():
        rhos = [lower + step * (i + offset) for i in range(count) for offset, _ in rule]
        amps = bessel_gauss_amplitudes(beam, rhos)
        sums[count] += _pairwise_sum(
            [a * a * rho * weight for a, rho, (_, weight) in zip(amps, rhos, rule * count)])
    return sums


def _array_sums(beam: TwistedPhotonBeam, lower: float, steps: dict) -> dict:
    # the node sum of each pass {panels: step}, on numpy tables
    import numpy as np
    sums = dict.fromkeys(steps, 0.0)
    nodes, weights = _gauss_legendre()
    offsets = 0.5 * (nodes + 1.0)
    # the chunks of both passes in order, packed into tables greedily
    tables = [[]]
    for count in steps:
        for start in range(0, count, _PANEL_CHUNK):
            stop = min(start + _PANEL_CHUNK, count)
            if sum(b - a for _, a, b in tables[-1]) + stop - start > _PANEL_CHUNK:
                tables.append([])
            tables[-1].append((count, start, stop))
    for table in tables:
        rhos = [lower + steps[count] * (np.arange(start, stop)[:, None] + offsets)
                for count, start, stop in table]
        # no amplitude depends on the other nodes of its table, so each chunk
        # sums the operand a table of its own would give
        amp = bessel_gauss_amplitude(beam, np.concatenate(rhos))
        for (count, _, _), rho in zip(table, rhos):
            part, amp = amp[:len(rho)], amp[len(rho):]
            sums[count] += float(np.sum(part * part * rho * weights))
    return sums


def radial_intensity_total(beam: TwistedPhotonBeam) -> float:
    """Integral of |psi(rho)|^2 rho d rho over [0, inf) (nm^2), unnormalized.

    Weber's second exponential integral (DLMF 10.22.67) gives it in closed
    form, (w0^2/4) exp(-y) I_l(y) with y = kappa^2 w0^2/4, from
    :func:`bessel_i_scaled_orders`.  The accepted inputs are those of
    :func:`radial_intensity_integral` over [0, 8 w0], so y <= 3.9e9.  A
    QuadratureError is raised when the integral is zero (kappa = 0 with
    l_gamma != 0) or not finite.
    """
    w0 = _require_w0(beam)
    kappa = transverse_wavenumber(beam)
    l = abs(beam.l_gamma)
    check_bessel_domain(l, kappa * 8.0 * w0)
    value = 0.25 * w0 * w0 * bessel_i_scaled_orders(l, 0.25 * (kappa * w0) ** 2)[l]
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
