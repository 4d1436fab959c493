"""Harmonic-trap response to the superkick: Lamb-Dicke diagnostics, trap-jump
probabilities for point and extended targets, and the transverse sideband
spectrum.

Geometry: the beam's vortex line defines the origin, the trap center sits a
distance b away, and positions are integrated in polar coordinates (s, alpha)
about the trap center.  The beam factor acting on the target wave function is

    F(r) = J_nu(kappa |r|) exp(i nu phi_r),

with nu the angular momentum transferred to the center of mass and phi_r the
azimuth about the vortex line.  Two deliberately different jump models are
provided: the sudden-impulse displaced-oscillator formula for a point target,
and the beam-factor overlap for an extended wavepacket, which softens the
kick once the packet can saddle the vortex line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, ive, jv

from .beam import TwistedPhotonBeam, transverse_wavenumber
from .errors import DomainError, NoAbsorptionError, TruncationWarning
from .special_functions import bessel_j, bessel_j_array, check_bessel_domain
from .units import HBARC_EV_NM, frequency_to_energy, nonrel_recoil_energy


@dataclass(frozen=True)
class TrapModel:
    """Harmonic trap: axial and (isotropic x,y) transverse frequencies in Hz,
    ion rest energy in eV."""

    axial_frequency: float
    transverse_frequency: float
    ion_mass: float

    def __post_init__(self):
        if not self.axial_frequency > 0.0 or not self.transverse_frequency > 0.0:
            raise DomainError("trap frequencies must be positive")
        if not self.ion_mass > 0.0:
            raise DomainError(f"ion mass must be positive, got {self.ion_mass}")

    def oscillator_length(self, axis: str = "transverse") -> float:
        """x0 = sqrt(hbar / (M omega)) in nm."""
        spacing = level_spacing(self, axis)
        return HBARC_EV_NM / math.sqrt(self.ion_mass * spacing)

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
    if not recoil_energy > 0.0:
        raise DomainError(f"recoil energy must be positive, got {recoil_energy}")
    return math.sqrt(recoil_energy / frequency_to_energy(trap_frequency_hz))


def in_lamb_dicke_regime(eta: float) -> bool:
    """True while eta < 1; the boundary marks the breakdown of the regime."""
    return eta < 1.0


def jump_probability_point(p_t: float, trap: TrapModel) -> float:
    """Probability that a sudden momentum kick p_T (eV/c) excites the trap.

    Displaced-ground-state overlap: P = 1 - exp(-eta^2) with
    eta^2 = (p_T^2/2M) / (hbar omega_T).
    """
    if p_t < 0.0:
        raise DomainError(f"p_T must be non-negative, got {p_t}")
    eta_sq = nonrel_recoil_energy(p_t, trap.ion_mass) / level_spacing(trap, "transverse")
    return 1.0 - math.exp(-eta_sq)


def jump_probability_extended(
    beam: TwistedPhotonBeam, nu: int, b: float, trap: TrapModel, sigma: float
) -> float:
    """Trap-jump probability for a Gaussian wavepacket of per-axis rms sigma.

    P = 1 - |<0|F|0>|^2 / <0||F|^2|0>, i.e. the conditional probability of
    leaving the motional ground state given that absorption happened.  Both
    packet averages are closed-form series in x = (kappa sigma)^2:

        <0|F|0>     = J_nu(kappa b) exp(-x/2),
        <0||F|^2|0> = sum_l J_{nu-l}(kappa b)^2 exp(-x) I_l(x).

    The first is the Gaussian average of the plane-wave (conical)
    decomposition of F.  The second follows from Graf's addition theorem
    (DLMF 10.23.7), F = sum_l J_{nu-l}(kappa b) J_l(kappa s) e^{i l alpha}
    about the trap center, and Weber's second exponential integral
    (DLMF 10.22.67) for the radial average of J_l(kappa s)^2.  The sum runs
    over |l| <= max(|nu|, 9 sqrt(x)) + 30; beyond that exp(-x) I_l(x) has
    fallen below exp(-40) of the terms kept.  Once exp(-x) underflows
    (x > 745, a packet wider than ~27/kappa) the carrier is gone and P = 1.
    The domain is that of the beam factor over the packet out to 9 sigma:
    |nu| <= 64 and kappa (b + 9 sigma) <= 1e6.  ``trap`` fixes the energy
    scale of the levels jumped into; the packet shape is set by ``sigma``
    (pass trap.ground_state_sigma() for a trap-consistent packet).
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if b < 0.0:
        raise DomainError(f"impact parameter must be non-negative, got {b}")
    kappa = transverse_wavenumber(beam)
    nu = int(nu)
    check_bessel_domain(nu, kappa * (b + 9.0 * sigma))
    kb = kappa * b
    x = (kappa * sigma) ** 2
    carrier_decay = math.exp(-x)
    if carrier_decay == 0.0:
        # x > 745: no carrier amplitude survives, while <|F|^2> > 0
        return 1.0
    half_width = math.ceil(max(abs(nu), 9.0 * math.sqrt(x))) + 30
    l = np.arange(-half_width, half_width + 1)
    denom = float(np.sum(jv(nu - l, kb) ** 2 * ive(l, x)))
    if denom <= 0.0 or not math.isfinite(denom):
        raise NoAbsorptionError(
            f"absorption strength <|F|^2> = {denom}; jump probability undefined"
        )
    p = 1.0 - bessel_j(nu, kb) ** 2 * carrier_decay / denom
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class SidebandSpectrum:
    """Relative weights of transverse trap levels populated by absorption.

    ``weights[n]`` is the probability of gaining n transverse quanta
    (n = 2 n_r + |l_osc|) from the motional ground state; starting from the
    ground state no n < 0 entries exist.  ``truncation_residual`` is
    1 - sum(weights) left above n_max; ``quantum_energy`` the energy per
    quantum h f_T in eV.
    """

    weights: dict[int, float]
    carrier_weight: float
    truncation_residual: float
    quantum_energy: float


#: Highest trap level a sideband spectrum may retain: the radial
#: normalization needs (n_r + l)! <= n_max! as a finite double, and 171!
#: overflows.
MAX_SIDEBAND_LEVEL = 170


def _radial_eigenfunctions(n_max: int, s_over_a: np.ndarray, a: float) -> dict:
    # R_{n,l}(s) = sqrt(2 n!/(a^2 (n+l)!)) (s/a)^l L_n^l(s^2/a^2) e^{-s^2/(2a^2)}
    gauss = np.exp(-0.5 * s_over_a**2)
    u = s_over_a**2
    table = {}
    for l in range(0, n_max + 1):
        for n_r in range(0, (n_max - l) // 2 + 1):
            norm = math.sqrt(
                2.0 * math.factorial(n_r) / (a * a * math.factorial(n_r + l))
            )
            table[(n_r, l)] = norm * s_over_a**l * eval_genlaguerre(n_r, l, u) * gauss
    return table


def sideband_spectrum(
    beam: TwistedPhotonBeam,
    nu: int,
    b: float,
    trap: TrapModel,
    sigma: float,
    n_max: int,
    radial_nodes: int = 240,
    azimuthal_nodes: int = 512,
) -> SidebandSpectrum:
    """Distribution over trap levels gained when the beam factor F acts on the
    motional ground state.

    The 2D oscillator basis is polar, |n_r, l_osc> with level n = 2 n_r +
    |l_osc|, built on the oscillator length a = sigma*sqrt(2) so the n = 0
    state is exactly the packet used by :func:`jump_probability_extended`.
    Matrix elements use Gauss-Legendre radial quadrature and a uniform
    (spectrally accurate) azimuthal grid.  A residual above 1e-3 raises a
    TruncationWarning.  ``n_max`` must lie in [2, MAX_SIDEBAND_LEVEL = 170].
    """
    if not 2 <= n_max <= MAX_SIDEBAND_LEVEL:
        raise DomainError(f"n_max must lie in [2, {MAX_SIDEBAND_LEVEL}], got {n_max}")
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if b < 0.0:
        raise DomainError(f"impact parameter must be non-negative, got {b}")
    nu = int(nu)
    kappa = transverse_wavenumber(beam)
    a = sigma * math.sqrt(2.0)
    s_max = 9.0 * a

    nodes, gl_weights = np.polynomial.legendre.leggauss(radial_nodes)
    s = 0.5 * s_max * (nodes + 1.0)
    ws = 0.5 * s_max * gl_weights

    alpha = 2.0 * math.pi * np.arange(azimuthal_nodes) / azimuthal_nodes
    x = b + s[:, None] * np.cos(alpha)[None, :]
    y = s[:, None] * np.sin(alpha)[None, :]
    rho = np.hypot(x, y)
    phi = np.arctan2(y, x)
    f_grid = bessel_j_array(nu, kappa * rho) * np.exp(1j * nu * phi)

    # azimuthal Fourier coefficients g_l(s) = (1/2pi) int F e^{-i l alpha}
    g = np.fft.fft(f_grid, axis=1) / azimuthal_nodes

    radials = _radial_eigenfunctions(n_max, s / a, a)
    r00 = radials[(0, 0)]

    denom = float(np.sum(ws * s * r00**2 * np.mean(np.abs(f_grid) ** 2, axis=1)))
    # the polar ground state is R00/sqrt(2pi); the 1/(2pi) from the pair of
    # angular normalizations cancels against the 2pi of the measure
    if denom <= 0.0 or not math.isfinite(denom):
        raise NoAbsorptionError(
            f"absorption strength <|F|^2> = {denom}; spectrum undefined"
        )

    weights: dict[int, float] = {}
    for n in range(0, n_max + 1):
        total = 0.0
        for l_osc in range(-n, n + 1):
            if (n - abs(l_osc)) % 2:
                continue
            n_r = (n - abs(l_osc)) // 2
            coeff = g[:, l_osc % azimuthal_nodes]
            me = np.sum(ws * s * radials[(n_r, abs(l_osc))] * r00 * coeff)
            total += abs(me) ** 2
        weights[n] = total / denom

    carrier = weights[0]
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
