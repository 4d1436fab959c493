"""Photoexcitation of a localized target at impact parameter b.

Amplitude model: a Bessel beam is a conical superposition of plane waves at
the pitch angle, so the amplitude for changing the target's magnetic quantum
number by dm = m_f - m_i in a multipole-J transition factorizes as

    A(m_f) ~ J_{m_gamma - dm}(kappa b) * d^J_{dm, Lambda}(theta_k),

times an azimuthal phase exp(i (m_gamma - dm) phi_b) that never enters the
probabilities and is carried here as the integer winding number.  The
reduced matrix element is a common factor across the sublevels of one
channel and is set to 1.

The final-sublevel band is the full inclusive range m_i - J ... m_i + J.
Probabilities and their means reproduce the angular-momentum bookkeeping:
whatever the internal excitation does not absorb goes to the center of
mass, whose recoil is the superkick.

:func:`am_partition` is the array kernel behind every mean: it takes a whole
array of impact parameters, evaluates each Wigner d once per (beam, dm) and
one Bessel array per order, and returns the internal and c.m. means with a
per-row error code instead of raising, so a figure sweep is evaluated over
its whole grid at once and drops exactly the rows that carry a code.  The
scalar :func:`mean_internal_am`, :func:`mean_cm_am` and :func:`recoil_ratio`
are one-row wrappers that raise what the code names.  The per-point dict
path :func:`excitation_probabilities` is kept as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beam import TwistedPhotonBeam, transverse_wavenumber
from .errors import DomainError, UndefinedDistributionError
from .special_functions import MAX_ARGUMENT, MAX_ORDER, bessel_first_max, bessel_j, \
    bessel_j_array, check_bessel_domain, wigner_small_d


@dataclass(frozen=True)
class TransitionChannel:
    """Target transition descriptor.

    multipole_J: angular momentum absorbed internally (1 = dipole E1,
    2 = quadrupole E2, 3 = octupole E3).  The photon carries integer
    multipolarity, so the value must be a positive integer; m_initial may be
    half-integer (e.g. -1/2 for an S_1/2 ground state).
    """

    multipole_J: float
    m_initial: float = 0.0
    label: str = ""

    def __post_init__(self):
        j = float(self.multipole_J)
        if not j >= 1.0:
            raise DomainError(f"multipole_J must be >= 1, got {self.multipole_J}")
        if abs(j - round(j)) > 1e-9:
            raise DomainError(
                f"multipole_J must be an integer (photon multipolarity), got {self.multipole_J}"
            )
        two_mi = round(2.0 * float(self.m_initial))
        if abs(2.0 * float(self.m_initial) - two_mi) > 1e-9:
            raise DomainError(
                f"m_initial must be integer or half-integer, got {self.m_initial}"
            )

    @property
    def j_int(self) -> int:
        return int(round(float(self.multipole_J)))

    def final_sublevels(self) -> list[float]:
        """m_f values m_i - J ... m_i + J (inclusive, integer steps)."""
        mi = float(self.m_initial)
        return [mi + dm for dm in range(-self.j_int, self.j_int + 1)]


@dataclass(frozen=True)
class SublevelDistribution:
    """Relative amplitudes and probabilities over final sublevels m_f.

    ``amplitudes`` holds the real factor J_{m_gamma-dm}(kappa b) * d-element;
    ``winding`` the integer azimuthal phase winding m_gamma - dm of the
    omitted factor exp(i nu phi_b); ``weights`` is empty until the
    distribution is normalized by :func:`excitation_probabilities`.
    """

    amplitudes: dict[float, float]
    winding: dict[float, int]
    weights: dict[float, float] = field(default_factory=dict)


def transition_amplitudes(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> SublevelDistribution:
    """Relative sublevel amplitudes at impact parameter b (nm, >= 0)."""
    if b < 0.0:
        raise DomainError(f"impact parameter must be non-negative, got {b}")
    kappa = transverse_wavenumber(beam)
    x = kappa * b
    j = channel.j_int
    mi = float(channel.m_initial)
    amps: dict[float, float] = {}
    winding: dict[float, int] = {}
    for dm in range(-j, j + 1):
        m_f = mi + dm
        nu = beam.m_gamma - dm
        d = wigner_small_d(float(j), float(dm), float(beam.lambda_spin), beam.pitch_angle)
        amps[m_f] = bessel_j(nu, x) * d
        winding[m_f] = nu
    return SublevelDistribution(amplitudes=amps, winding=winding)


def excitation_probabilities(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> SublevelDistribution:
    """Normalized probabilities w(m_f) = |A(m_f)|^2 / sum |A|^2.

    Raises UndefinedDistributionError when every amplitude vanishes (the
    physical answer is "no absorption"; downstream means are undefined).
    """
    dist = transition_amplitudes(beam, channel, b)
    j = channel.j_int
    mi = float(channel.m_initial)
    # sum in +-dm pairs so a global sign mirror of the quantum numbers
    # produces bit-identical normalization
    sq = {m_f: a * a for m_f, a in dist.amplitudes.items()}
    total = sq[mi]
    for dm in range(1, j + 1):
        total += sq[mi + dm] + sq[mi - dm]
    if total == 0.0:
        raise UndefinedDistributionError(
            f"all sublevel amplitudes vanish at b={b}; no absorption"
        )
    weights = {m_f: v / total for m_f, v in sq.items()}
    return SublevelDistribution(
        amplitudes=dist.amplitudes, winding=dist.winding, weights=weights
    )


@dataclass(frozen=True)
class AmPartition:
    """Sublevel weights and mean angular momentum (units hbar) over a 1-D
    array of impact parameters.

    ``weights[J + dm]`` is the row of w(m_i + dm) for dm = -J ... J;
    ``lz_internal`` is the probability-weighted mean of m_f - m_i and
    ``lz_cm = m_gamma - lz_internal`` its exact complement.  ``errors`` holds
    one code per row: "" where the row is defined, otherwise the code of the
    error the scalar functions raise there (``DOMAIN`` for b < 0 or a
    Bessel order/argument outside the supported range,
    ``UNDEFINED_DISTRIBUTION`` where every amplitude vanishes); every value
    of such a row is NaN.
    """

    weights: np.ndarray
    lz_internal: np.ndarray
    lz_cm: np.ndarray
    errors: np.ndarray


def _orders(beam: TwistedPhotonBeam, channel: TransitionChannel) -> list[int]:
    # Bessel order m_gamma - dm per dm = -J ... J, in evaluation order
    j = channel.j_int
    return [beam.m_gamma - dm for dm in range(-j, j + 1)]


def am_partition(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> AmPartition:
    """Sublevel weights and internal/c.m. mean angular momentum at every
    impact parameter of the 1-D array ``b`` (nm), with a per-row error code
    in place of an exception.

    Each Wigner d is evaluated once and each Bessel order in one array call.
    The arithmetic is that of :func:`excitation_probabilities` row by row
    (squared amplitudes summed in +-dm pairs, means accumulated from dm = 1
    up), so every row is bit-identical to a scalar evaluation.
    """
    b = np.asarray(b, dtype=float)
    j = channel.j_int
    if any(abs(nu) > MAX_ORDER for nu in _orders(beam, channel)):
        nan = np.full(b.shape, np.nan)
        return AmPartition(weights=np.full((2 * j + 1,) + b.shape, np.nan),
                           lz_internal=nan, lz_cm=nan,
                           errors=np.full(b.shape, "DOMAIN", dtype=object))
    # an overflowing kappa b, or inf * 0 (a NaN), is a row coded below
    with np.errstate(over="ignore", invalid="ignore"):
        x = transverse_wavenumber(beam) * b
    valid = np.isfinite(x) & (np.abs(x) <= MAX_ARGUMENT) & ~(b < 0.0)
    errors = np.where(valid, "", "DOMAIN").astype(object)
    x = np.where(valid, x, 0.0)
    sq = {}
    for dm in range(-j, j + 1):
        d = wigner_small_d(float(j), float(dm), float(beam.lambda_spin), beam.pitch_angle)
        amplitude = bessel_j_array(beam.m_gamma - dm, x) * d
        sq[dm] = amplitude * amplitude
    total = sq[0]
    for dm in range(1, j + 1):
        total = total + (sq[dm] + sq[-dm])
    undefined = valid & (total == 0.0)
    errors[undefined] = "UNDEFINED_DISTRIBUTION"
    valid &= ~undefined
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(valid, np.stack([sq[dm] for dm in range(-j, j + 1)]) / total,
                           np.nan)
    internal = 0.0
    for dm in range(1, j + 1):
        internal = internal + dm * (weights[j + dm] - weights[j - dm])
    return AmPartition(weights=weights, lz_internal=internal,
                       lz_cm=beam.m_gamma - internal, errors=errors)


def recoil_ratio_array(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`recoil_ratio` at every impact parameter of ``b`` (nm): the
    ratios and per-row error codes as in :class:`AmPartition`, with
    ``B_SINGULARITY`` (checked first) wherever b > 0 fails."""
    b = np.asarray(b, dtype=float)
    partition = am_partition(beam, channel, b)
    positive = b > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = partition.lz_cm * beam.wavelength / (2.0 * math.pi * b)
    errors = np.where(positive, partition.errors, "B_SINGULARITY")
    return np.where(positive, ratio, np.nan), errors


def raise_first_row_error(
    errors: np.ndarray, beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> None:
    """Raise, for the first row of ``b`` whose code in ``errors`` is set, the
    exception a scalar evaluation raises there; nothing if no row failed."""
    failed = np.flatnonzero(errors != "")
    if not failed.size:
        return
    code, b = errors[failed[0]], float(b[failed[0]])
    if code == "B_SINGULARITY":
        raise DomainError(f"impact parameter must be positive, got {b}", code=code)
    if code == "UNDEFINED_DISTRIBUTION":
        raise UndefinedDistributionError(
            f"all sublevel amplitudes vanish at b={b}; no absorption"
        )
    x = transverse_wavenumber(beam) * b
    if not math.isfinite(x):
        raise DomainError("the Bessel argument kappa b overflows the floating-point range")
    if b < 0.0:
        raise DomainError(f"impact parameter must be non-negative, got {b}")
    for nu in _orders(beam, channel):
        check_bessel_domain(nu, x)
    raise AssertionError(f"row error code {code!r} at b={b} names no error")


def _checked_row(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> AmPartition:
    partition = am_partition(beam, channel, [b])
    raise_first_row_error(partition.errors, beam, channel, [b])
    return partition


def mean_internal_am(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> float:
    """Mean angular momentum (units hbar) absorbed by internal excitation.

    Probability-weighted mean of m_f - m_i over the sublevel distribution.
    """
    return float(_checked_row(beam, channel, b).lz_internal[0])


def mean_cm_am(beam: TwistedPhotonBeam, channel: TransitionChannel, b: float) -> float:
    """Mean angular momentum passed to the center of mass: m_gamma minus the
    internal mean (exact complement)."""
    return float(_checked_row(beam, channel, b).lz_cm[0])


def recoil_ratio(beam: TwistedPhotonBeam, channel: TransitionChannel, b: float) -> float:
    """Transverse-to-longitudinal recoil ratio p_T/p_z at impact parameter b.

    p_T/p_z = <l_z>_cm * lambda / (2 pi b), with the paraxial p_z = E/c.
    """
    ratio, errors = recoil_ratio_array(beam, channel, [b])
    raise_first_row_error(errors, beam, channel, [b])
    return float(ratio[0])


def sublevel_profile(
    beam: TwistedPhotonBeam, channel: TransitionChannel, m_f: float, b: float
) -> float:
    """Excitation profile of one sublevel vs b, normalized to its peak.

    Returns |J_nu(kappa b)|^2 / max_x |J_nu(x)|^2 with nu = m_gamma - dm; the
    Wigner-d factor and any Rabi-time normalization are b-independent and
    drop out.  For nu = 0 the maximum sits at b = 0, otherwise at the first
    Bessel maximum.
    """
    dm = float(m_f) - float(channel.m_initial)
    dm_int = round(dm)
    if abs(dm - dm_int) > 1e-9 or abs(dm_int) > channel.j_int:
        raise DomainError(
            f"m_f={m_f} is not reachable from m_i={channel.m_initial} "
            f"with multipole J={channel.multipole_J}"
        )
    nu = beam.m_gamma - int(dm_int)
    d = wigner_small_d(
        float(channel.j_int), float(dm_int), float(beam.lambda_spin), beam.pitch_angle
    )
    if d == 0.0:
        return 0.0
    x = transverse_wavenumber(beam) * b
    peak = bessel_first_max(nu)[1]
    val = bessel_j(nu, x) / peak
    return val * val
