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
The jump probabilities also take a 1-D array (of b, of p_T).  A float runs
on Python floats and ``math``; an array of b sums the series from one
Bessel table, and one helper, :func:`_packet_strength`, adds the terms in
the same order on both, so each element equals the float result bit for
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
from .special_functions import _j_list, bessel_i_scaled_orders, bessel_j_orders, \
    check_bessel_domain
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
        eta_sq = nonrel_recoil_energy(np.asarray(p_t, dtype=float), trap.ion_mass) \
            / level_spacing(trap, "transverse")
    return per_element(lambda e: 1.0 - math.exp(-e), eta_sq)


@functools.lru_cache(maxsize=64)
def _packet_weights(half_width: int, x: float) -> tuple[float, ...]:
    # e^{-x} I_l(x), l = 0 ... half_width: one packet's weights, shared by
    # every b of a sweep
    return tuple(bessel_i_scaled_orders(half_width, x))


def _half_width(nu: int, x: float) -> int:
    # the series' |l| <= max(|nu|, 9 sqrt(x)) + 30 of jump_probability_extended
    return math.ceil(max(abs(nu), 9.0 * math.sqrt(x))) + 30


def _packet_strength(j_sq, i_scaled, nu: int, half_width: int):
    """<0||F|^2|0> = sum_l J_{nu-l}(kappa b)^2 e^{-x} I_l(x) over |l| <=
    ``half_width``, from ``j_sq[k]`` = J_k(kappa b)^2 and ``i_scaled[l]`` =
    e^{-x} I_l(x).  ``j_sq`` is a list of floats (one b) or a table of rows
    (one row per order, one column per b); either way the terms are added
    in the same order, so a column equals the float result bit for bit."""
    # J_{nu-l}^2 = J_{|nu-l|}^2 and e^{-x} I_l = e^{-x} I_{|l|}: the terms
    # summed in +-l pairs
    return j_sq[abs(nu)] * i_scaled[0] + sum([
        i_scaled[l] * (j_sq[abs(nu - l)] + j_sq[abs(nu + l)]) for l in range(1, half_width + 1)])


def _packet_series(beam: TwistedPhotonBeam, nu: int, b, sigma: float, n_max: int = 0):
    """Input checks and packet averages shared by the extended-packet jump and
    spectrum at a float b or at every b of a 1-D array: (nu, J_k(kappa b)^2
    for k = 0 ... |nu| + max(half width, n_max), x, strength <0||F|^2|0>
    from :func:`_packet_strength`, carrier |<0|F|0>|^2 / strength).  For a
    float the J^2 are a list of floats, which keeps a call cheap; for an
    array a table of rows, one per order.  Once exp(-x) underflows
    (x > 745) the table and strength are None and the carrier 0.  An array
    raises where the float call raises for some b."""
    sigma, b = check(sigma, "sigma"), check(b, "b target")
    b_max = max(extremes(b), default=0.0)
    scalar = isinstance(b, (float, int))
    if not scalar:
        import numpy as np
        b = np.asarray(b, dtype=float)
    kappa = transverse_wavenumber(beam)
    nu = check(nu, "nu")
    # kappa (b + 9 sigma) rounds monotonically in b, so the largest b stands for all
    check_bessel_domain(nu, kappa * (b_max + 9.0 * sigma))
    x = (kappa * sigma) ** 2
    carrier_decay = math.exp(-x)
    if carrier_decay == 0.0:
        return nu, None, x, None, 0.0 * b
    half_width = _half_width(nu, x)
    n_top = abs(nu) + max(half_width, n_max)
    if scalar:
        j_sq = [j * j for j in _j_list(n_top, kappa * b, n_top + 1)]
    else:
        j_sq = bessel_j_orders(n_top, kappa * b) ** 2
    strength = _packet_strength(j_sq, _packet_weights(half_width, x), nu, half_width)
    if not (0.0 < strength < math.inf if scalar
            else np.all((0.0 < strength) & (strength < math.inf))):
        value = f"= {strength}" if scalar else "is not positive and finite at some b"
        raise NoAbsorptionError(f"absorption strength <|F|^2> {value}; jump probability "
                                "and sideband spectrum undefined")
    return nu, j_sq, x, strength, j_sq[abs(nu)] * carrier_decay / strength


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
    summed over |l| <= max(|nu|, 9 sqrt(x)) + 30, beyond which exp(-x) I_l(x)
    has fallen below exp(-40) of the terms kept.  Once exp(-x) underflows
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

    each term evaluated in log space.  ``weights[0]`` is the carrier term of
    the jump probability, so P_jump = 1 - carrier_weight.  A residual above
    1e-3 raises a TruncationWarning; beyond the carrier underflow (x > 745)
    every weight is 0 and the residual 1.  ``n_max`` must lie in
    [2, MAX_SIDEBAND_LEVEL = 170].
    """
    # one float b, whose range the packet series checks
    b, n_max = check(b, "b point"), check(n_max, "n_max")
    nu, j_sq, x, strength, carrier = _packet_series(beam, nu, b, sigma, n_max)
    weights = {n: 0.0 for n in range(n_max + 1)}
    weights[0] = carrier
    if strength is not None:
        log_half_x = math.log(0.5 * x) if x > 0.0 else -math.inf
        log_factorial = [math.lgamma(k + 1) for k in range(n_max + 1)]
        for n in range(1, n_max + 1):
            total = 0.0
            scale = n * log_half_x - x
            for l in range(-n, n + 1, 2):
                n_r = (n - abs(l)) // 2
                total += j_sq[abs(nu - l)] * math.exp(
                    scale - log_factorial[n_r] - log_factorial[n_r + abs(l)])
            weights[n] = total / strength

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
