"""Harmonic-trap response to the superkick: Lamb-Dicke diagnostics, trap-jump
probabilities for point and extended targets, and the transverse sideband
spectrum.

Geometry: the beam's vortex line defines the origin, the trap center sits a
distance b away, and positions are taken in polar coordinates (s, alpha)
about the trap center.  The beam factor acting on the target wave function is

    F(r) = J_nu(kappa |r|) exp(i nu phi_r),

with nu the angular momentum transferred to the center of mass and phi_r the
azimuth about the vortex line.  Two deliberately different jump models are
provided: the sudden-impulse displaced-oscillator formula for a point target,
and the beam-factor overlap for an extended wavepacket, which softens the
kick once the packet can saddle the vortex line.

The extended-packet quantities come from one series.  Graf's addition
theorem (DLMF 10.23.7) writes F about the trap center as
sum_l J_{nu-l}(kappa b) J_l(kappa s) e^{i l alpha}, and each partial wave
J_l(kappa s) e^{i l alpha} acting on the Gaussian ground state populates
the oscillator states |n_r, l> with weight
exp(-x) (x/2)^n / (n_r! (n_r+|l|)!), n = 2 n_r + |l|, x = (kappa sigma)^2.
Summed over n_r that weight is exp(-x) I_l(x) (Weber's second exponential
integral, DLMF 10.22.67).  :func:`jump_probability_extended` sums the whole
series; :func:`sideband_spectrum` splits it level by level, one b a call.
Both read one pair table per packet, P_0 = J_nu(kappa b)^2 and P_a =
J_{nu-a}^2 + J_{nu+a}^2: the +-l partial waves share e^{-x} I_l(x) in the
strength and their factorials in a level, so a level is

    w_n = e^{n ln(x/2) - x} sum_{a = n mod 2, n mod 2 + 2 ... n} C_n[a] P_a / S,

with S = <0||F|^2|0> the strength and the row C_n[a] = 1 / (r! (r + a)!),
r = (n - a)/2, depending on n alone: computed once per process, one exp
and one sum a level.  The exponent is at most 585 for n <= 170 and
x <= 745, so it does not overflow, and 1/170!, the least entry of the
rows, is a normal double.

The series runs over |l| <= L, the smallest L >= |nu| + 1 at which the
dropped tail is provably below 2^-60 of the strength S at every
kappa b <= 1e6, capped at the earlier rule max(|nu|, 9 sqrt(x)) + 30,
which takes over from x ~ 20-30 (:func:`_half_width`); L <= |nu| + 9 for
x <= 0.012, the ion's packets.  Where the cap holds the proof below does
not reach, and what the cap drops rests on a test instead: the tail summed
in mpmath is below 2^-60 of S for |nu| in {0, 2, 64}, kappa b in {0, 1,
25, 1e3, 1e6} and the x from 20 to 745 where the width is the cap.  Below
the cap, with w_l = exp(-x) I_l(x), m = |nu| + 1 and z = kappa b:

- the power series of I_l (DLMF 10.25.2) gives w_l <= u_l =
  exp(-x) (x/2)^l / l! exp(x^2 / (4(l+1))), and u_{l+1}/u_l <= x/(2(l+1)),
  so sum_{l > L} w_l <= u_{L+1} / (1 - r) with r = x / (2(L+2)) < 1;
- for |l| > L >= m neither nu - l nor nu + l is 0, and |J_n| <= 2^-1/2
  for n >= 1 (DLMF 10.14.1), so the tail is at most sum_{l > L} w_l;
- S keeps l = nu, nu +- 1, and w_l falls with |l| (DLMF 10.37), so
  S >= w_m (J_0(z)^2 + J_1(z)^2) >= exp(-x) (x/2)^m / m! (J_0^2 + J_1^2);
- J_0^2 + J_1^2 falls with z (its derivative is -2 J_1^2 / z) and stays
  above 0.18 min(1, 1/z) (a test checks it against mpmath at z = 2^k,
  k = 0 ... 20), so at least 0.18e-6.

exp(-x) cancels in the ratio of the two bounds, so L depends on nu and x
alone: a float b and an array of b sum the same terms.

L never decreases as x grows: every term of the log bound rises with x,
and so do r and the cap.  So for x in the quarter binade [(4 + q)/8,
(5 + q)/8) 2^e, q = 0 ... 3, L lies between the widths at its two ends,
which are cached per (|nu|, e, q).  Where they agree (most packets) that
is L; else L is bisected between them, the upper end lowered to the cap
at x.  It is the same search over a smaller range, so L is the same
integer that a bisection of [|nu| + 1, cap] finds (a test holds the two
equal for every |nu| <= 64 over a log grid of x and at every quarter
edge and its neighbouring doubles).

The jump probabilities also take a 1-D array (of b, of p_T).  A float runs
on Python floats and ``math``; an array of b sums the series from one
Bessel table, and one helper, :func:`_packet_strength`, adds the terms
left to right on both, so each element equals the float result bit for
bit.  An array call raises for the whole array where the float call raises
for some element.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple

from .beam import TwistedPhotonBeam, transverse_wavenumber
from .errors import DomainError, NoAbsorptionError, TruncationWarning
from .special_functions import MAX_ARGUMENT, _j_list, bessel_i_scaled_orders, \
    bessel_j_orders, check_bessel_domain
from .units import HBARC_EV_NM, MAX_SIDEBAND_LEVEL, check, extremes, frequency_to_energy, \
    nonrel_recoil_energy, per_element


class TrapModel(namedtuple("TrapModel", "axial_frequency transverse_frequency ion_mass")):
    """Harmonic trap: axial and (isotropic x,y) transverse frequencies in Hz,
    ion rest energy in eV, each a positive finite float."""

    __slots__ = ()

    def __new__(cls, axial_frequency, transverse_frequency, ion_mass):
        return super().__new__(
            cls, check(axial_frequency, "axial_frequency"),
            check(transverse_frequency, "transverse_frequency"), check(ion_mass, "ion_mass"))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace

    def oscillator_length(self, axis: str = "transverse") -> float:
        """x0 = sqrt(hbar / (M omega)) in nm."""
        product = self.ion_mass * level_spacing(self, axis)
        if not 0.0 < product < math.inf:
            raise DomainError("ion mass times level spacing "
                              + ("overflows" if product else "underflows to 0"))
        return HBARC_EV_NM / math.sqrt(product)

    def ground_state_sigma(self, axis: str = "transverse") -> float:
        """Per-axis rms spread x0/sqrt(2) of the motional ground state (nm)."""
        return self.oscillator_length(axis) / math.sqrt(2.0)


def level_spacing(trap: TrapModel, axis: str = "axial") -> float:
    """Oscillator level spacing h*f (eV) for the requested axis."""
    if axis == "axial":
        return frequency_to_energy(trap.axial_frequency)
    if axis == "transverse":
        return frequency_to_energy(trap.transverse_frequency)
    raise DomainError(f"axis must be 'axial' or 'transverse', got {axis!r}")


def lamb_dicke(recoil_energy: float, trap_frequency_hz: float) -> float:
    """Lamb-Dicke parameter eta = sqrt(E_rec / (hbar omega_trap))."""
    recoil_energy = check(recoil_energy, "recoil energy")
    eta_sq = recoil_energy / frequency_to_energy(trap_frequency_hz)
    if eta_sq == math.inf:
        raise DomainError("recoil energy over the level spacing overflows")
    return math.sqrt(eta_sq)


def in_lamb_dicke_regime(eta: float) -> bool:
    """True while eta < 1; the boundary marks the breakdown of the regime."""
    return check(eta, "eta") < 1.0


def jump_probability_point(p_t, trap: TrapModel) -> float | np.ndarray:
    """Probability that a sudden momentum kick p_T (eV/c, a float or an array)
    excites the trap.

    Displaced-ground-state overlap: P = 1 - exp(-eta^2) with
    eta^2 = (p_T^2/2M) / (hbar omega_T).  An array takes ``math.exp`` per
    element, so each equals the float call bit for bit.
    """
    p_t = check(p_t, "p_T kick")
    if isinstance(p_t, (float, int)):
        eta_sq = nonrel_recoil_energy(p_t, trap.ion_mass) / level_spacing(trap, "transverse")
        return 1.0 - math.exp(-eta_sq)
    import numpy as np
    with np.errstate(over="ignore"):  # an infinite eta^2, as on floats
        eta_sq = nonrel_recoil_energy(p_t, trap.ion_mass) / level_spacing(trap, "transverse")
    return per_element(lambda e: 1.0 - math.exp(-e), eta_sq)


@functools.lru_cache(maxsize=64)
def _packet_weights(nu_abs: int, x: float) -> tuple[int, tuple[float, ...]]:
    # the half width L of the series and e^{-x} I_l(x), l = 0 ... L: one
    # packet's, shared by every b of a sweep and by a jump and a spectrum
    half_width = _half_width(nu_abs, x)
    return half_width, tuple(bessel_i_scaled_orders(half_width, x))


#: log of 2^-60 * 0.18e-6: the dropped tail's share of the strength times
#: the least J_0^2 + J_1^2 >= 0.18 min(1, 1/kappa b) at kappa b <= 1e6
_LOG_TAIL_BUDGET = math.log(0.18 / MAX_ARGUMENT) - 60.0 * math.log(2.0)


def _half_width(nu: int, x: float) -> int:
    # the series' L of the module docstring: the smallest L >= m = |nu| + 1,
    # at most max(|nu|, 9 sqrt(x)) + 30, at which the log of the tail bound
    # u_{L+1} / (1 - r) over exp(-x) (x/2)^m / m! is at most _LOG_TAIL_BUDGET
    # (up to the rounding of the logs; exp(-x) cancels).  L never falls as x
    # grows, so the widths at the ends of x's quarter binade bracket it: where
    # they agree that is L, else the bisection runs between them
    nu = abs(nu)
    if x == 0.0:  # no partial wave but l = 0 carries weight
        return nu + 1
    mantissa, exponent = math.frexp(x)
    low, high = _width_bracket(nu, exponent, int(8.0 * mantissa))
    return low if low == high else _bisected_width(nu, x, low, min(high, _width_cap(nu, x)))


@functools.lru_cache(maxsize=256)
def _width_bracket(nu_abs: int, exponent: int, eighths: int) -> tuple[int, int]:
    # the widths at both ends of the quarter binade [eighths, eighths + 1)
    # * 2^(exponent - 3) (an end that is not a double rounds to the nearest,
    # which still brackets every double of the quarter)
    return tuple(_bisected_width(nu_abs, end, nu_abs + 1, _width_cap(nu_abs, end))
                 for end in (math.ldexp(eighths, exponent - 3),
                             math.ldexp(eighths + 1, exponent - 3)))


def _width_cap(nu_abs: int, x: float) -> int:
    # the earlier fixed rule, which caps the width
    return math.ceil(max(nu_abs, 9.0 * math.sqrt(x))) + 30


def _bisected_width(nu_abs: int, x: float, lo: int, hi: int) -> int:
    # the smallest width in [lo, hi] that passes the bound of _half_width for
    # a positive x, hi passing by fiat: where r < 1 the log bound falls with
    # the width, so the widths that pass lie above those that fail
    low = nu_abs + 1
    log_half_x = math.log(x) - math.log(2.0)  # x / 2 underflows at the least subnormal
    log_low = math.lgamma(low + 1)
    while lo < hi:
        width = (lo + hi) // 2
        r = x / (2.0 * width + 4.0)
        if r < 1.0 and (width + 1 - low) * log_half_x + log_low - math.lgamma(width + 2) \
                + 0.5 * x * r - math.log1p(-r) <= _LOG_TAIL_BUDGET:
            hi = width
        else:
            lo = width + 1
    return hi


def _packet_strength(pairs, i_scaled):
    """<0||F|^2|0> = sum_l J_{nu-l}(kappa b)^2 e^{-x} I_l(x) over |l| <= L,
    from the pair table ``pairs`` of :func:`_packet_series`
    (``pairs[0]`` = J_nu^2, ``pairs[l]`` = J_{nu-l}^2 + J_{nu+l}^2) and
    ``i_scaled[l]`` = e^{-x} I_l(x) for l = 0 ... L, e^{-x} I_{-l} being
    e^{-x} I_l.  A pair is a float (one b) or a row (one column per b).
    Either way one loop adds the terms left to right (the builtin ``sum``
    of floats compensates since Python 3.12, that of rows does not), so a
    column equals the float result bit for bit."""
    total = 0.0
    for l in range(1, len(i_scaled)):
        total = total + i_scaled[l] * pairs[l]
    return pairs[0] * i_scaled[0] + total


def _packet_series(beam: TwistedPhotonBeam, nu: int, b, sigma: float, n_max: int = 0):
    """Input checks and packet averages shared by the extended-packet jump and
    spectrum at a float b or at every b of a 1-D array: (J_k(kappa b)^2 for
    k = 0 ... |nu| + top, the pair table P_0 = J_nu^2, P_a = J_{nu-a}^2 +
    J_{nu+a}^2 for a = 1 ... top, x, strength <0||F|^2|0> from
    :func:`_packet_strength`, carrier |<0|F|0>|^2 / strength), top being
    the larger of the half width L and ``n_max``.  For a float the J^2 and
    the pairs are floats in lists, which keeps a call cheap; for an array
    rows, one per order.  Once exp(-x) underflows (x > 745) the tables and
    strength are None and the carrier 0.  An array raises where the float
    call raises for some b."""
    sigma, b = check(sigma, "sigma"), check(b, "b target")
    b_max = max(extremes(b), default=0.0)
    scalar = isinstance(b, (float, int))
    kappa = transverse_wavenumber(beam)
    nu = check(nu, "nu")
    # kappa (b + 9 sigma) rounds monotonically in b, so the largest b stands for all
    check_bessel_domain(nu, kappa * (b_max + 9.0 * sigma))
    nu = abs(nu)  # J_{-k}^2 = J_k^2, so the pairs depend on |nu| alone
    x = (kappa * sigma) ** 2
    carrier_decay = math.exp(-x)
    if carrier_decay == 0.0:
        return None, None, x, None, 0.0 * b
    half_width, i_scaled = _packet_weights(nu, x)
    top = max(half_width, n_max)
    if scalar:
        j_sq = [j * j for j in _j_list(nu + top, kappa * b, nu + top + 1)]
    else:
        j_sq = bessel_j_orders(nu + top, kappa * b) ** 2
    pairs = [j_sq[nu]] + [j_sq[abs(nu - a)] + j_sq[nu + a] for a in range(1, top + 1)]
    strength = _packet_strength(pairs, i_scaled)
    if not (0.0 < strength < math.inf if scalar
            else ((0.0 < strength) & (strength < math.inf)).all()):
        value = f"= {strength}" if scalar else "is not positive and finite at some b"
        raise NoAbsorptionError(f"absorption strength <|F|^2> {value}; jump probability "
                                "and sideband spectrum undefined")
    return j_sq, pairs, x, strength, pairs[0] * carrier_decay / strength


def jump_probability_extended(
    beam: TwistedPhotonBeam, nu: int, b, trap: TrapModel, sigma: float
) -> float | np.ndarray:
    """Trap-jump probability for a Gaussian wavepacket of per-axis rms sigma.

    P = 1 - |<0|F|0>|^2 / <0||F|^2|0>, i.e. the conditional probability of
    leaving the motional ground state given that absorption happened.  Both
    packet averages are closed-form series in x = (kappa sigma)^2:

        <0|F|0>     = J_nu(kappa b) exp(-x/2),
        <0||F|^2|0> = sum_l J_{nu-l}(kappa b)^2 exp(-x) I_l(x).

    The first is the Gaussian average of the plane-wave (conical)
    decomposition of F; the second is the series of the module docstring,
    summed over |l| <= L, the smallest L >= |nu| + 1 at which the terms
    dropped are provably below 2^-60 of the sum at every kappa b <= 1e6,
    and at most the earlier max(|nu|, 9 sqrt(x)) + 30 (the module docstring
    gives the proof; L <= |nu| + 9 for x <= 0.012).  Once exp(-x) underflows
    (x > 745, a packet wider than ~27/kappa) the carrier is gone and P = 1.
    The domain is that of the beam factor over the packet out to 9 sigma:
    |nu| <= 64 and kappa (b + 9 sigma) <= 1e6.  ``b`` (nm) is a float or a
    1-D array; an array raises for the whole array where the float call
    raises for some b.  ``trap`` is not read: the probability depends only
    on the beam, nu, b and the packet width ``sigma`` (pass
    trap.ground_state_sigma() for a trap-consistent packet).
    """
    # the carrier is not negative, so 1 - carrier <= 1
    carrier = _packet_series(beam, nu, b, sigma)[-1]
    if isinstance(carrier, float):
        return max(1.0 - carrier, 0.0)
    import numpy as np
    return np.maximum(1.0 - carrier, 0.0)


@functools.lru_cache(maxsize=None)
def _level_rows(n_max: int) -> tuple[tuple[float, ...], ...]:
    # rows 0 ... n_max of the level sum, row n holding 1 / (r! (r + a)!),
    # r = (n - a) / 2, for a = n mod 2, n mod 2 + 2 ... n: each entry one
    # correctly rounded division of two ints (1/170! is still a normal
    # double, 1/171! no longer); the rows below n_max are shared
    row = tuple(1 / (math.factorial((n_max - a) // 2) * math.factorial((n_max + a) // 2))
                for a in range(n_max % 2, n_max + 1, 2))
    return (_level_rows(n_max - 1) if n_max else ()) + (row,)


class SidebandSpectrum(namedtuple("SidebandSpectrum", "weights carrier_weight "
                                 "truncation_residual quantum_energy")):
    """Relative weights of transverse trap levels populated by absorption.

    ``weights[n]`` (a dict of floats keyed by int) is the probability of
    gaining n transverse quanta (n = 2 n_r + |l_osc|) from the motional
    ground state; starting from the ground state no n < 0 entries exist.
    ``carrier_weight`` is weights[0]; ``truncation_residual`` is
    1 - sum(weights) left above n_max; ``quantum_energy`` the energy per
    quantum h f_T in eV.
    """

    __slots__ = ()


def sideband_spectrum(
    beam: TwistedPhotonBeam,
    nu: int,
    b: float,
    trap: TrapModel,
    sigma: float,
    n_max: int,
) -> SidebandSpectrum:
    """Distribution over trap levels gained when the beam factor F acts on the
    motional ground state.

    The 2D oscillator basis is polar, |n_r, l> with level n = 2 n_r + |l|,
    built on the oscillator length a = sigma*sqrt(2) so the n = 0 state is
    exactly the packet used by :func:`jump_probability_extended`.  Level n
    collects the partial waves of the module docstring with l = n (mod 2):

        w_n = exp(-x) (x/2)^n sum_{|l| <= n} J_{nu-l}(kappa b)^2
              / (n_r! (n_r+|l|)!) / <0||F|^2|0>,   n_r = (n - |l|)/2,

    summed in +-l pairs from the packet's pair table and the cached
    factorial row of the level (module docstring): one exp a level, the
    terms added left to right.  ``weights[0]`` is the carrier term of
    the jump probability, so P_jump = 1 - carrier_weight.  A residual above
    1e-3 raises a TruncationWarning; beyond the carrier underflow (x > 745)
    every weight is 0 and the residual 1.  ``n_max`` must lie in
    [2, MAX_SIDEBAND_LEVEL = 170].
    """
    # one float b, whose range the packet series checks
    b, n_max = check(b, "b point"), check(n_max, "n_max")
    _, pairs, x, strength, carrier = _packet_series(beam, nu, b, sigma, n_max)
    weights = {n: 0.0 for n in range(n_max + 1)}
    weights[0] = carrier
    if strength is not None:
        # log(x / 2) without halving x, which rounds the least subnormal to 0
        log_half_x = math.log(x) - math.log(2.0) if x > 0.0 else -math.inf
        rows, by_parity = _level_rows(n_max), (pairs[::2], pairs[1::2])
        for n in range(1, n_max + 1):
            level = 0.0  # left to right, as the strength (builtin sum compensates since 3.12)
            for c, p in zip(rows[n], by_parity[n % 2]):
                level = level + c * p
            weights[n] = math.exp(n * log_half_x - x) * level / strength

    residual = 1.0 - math.fsum(weights.values())
    if residual > 1e-3:
        warnings.warn(
            f"sideband truncation residual {residual:.3e} above 1e-3 at n_max={n_max}",
            TruncationWarning,
            stacklevel=2,
        )
    return SidebandSpectrum(
        weights=weights,
        carrier_weight=carrier,
        truncation_residual=residual,
        quantum_energy=level_spacing(trap, "transverse"),
    )
