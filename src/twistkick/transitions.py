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

:func:`am_partition` is the one implementation of the distribution: it
takes a whole array of impact parameters, evaluates the 2J+1 Wigner d once
and all 2J+1 Bessel orders in one array call (:func:`am_partitions` makes
one call for several beams of one transverse wavenumber), and returns the
amplitudes, weights and internal and c.m. means with a per-row error code
instead of raising, so a figure sweep is evaluated over its whole grid at
once and drops exactly the rows that carry a code.  The scalar
:func:`excitation_probabilities`, :func:`mean_internal_am`,
:func:`mean_cm_am` and :func:`recoil_ratio` are one-row views that raise
what the code names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .beam import TwistedPhotonBeam, transverse_wavenumber
from .errors import DomainError, UndefinedDistributionError
from .special_functions import MAX_ARGUMENT, MAX_ORDER, _half_int, bessel_first_max, \
    bessel_j, bessel_j_array, check_bessel_argument, check_bessel_domain, wigner_small_d


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
        two_j = _half_int(self.multipole_J, "multipole_J")
        if not self.multipole_J >= 1.0:
            raise DomainError(f"multipole_J must be >= 1, got {self.multipole_J}")
        if two_j % 2:
            raise DomainError(
                f"multipole_J must be an integer (photon multipolarity), got {self.multipole_J}"
            )
        _half_int(self.m_initial, "m_initial")

    @property
    def j_int(self) -> int:
        return int(round(float(self.multipole_J)))

    def final_sublevels(self) -> list[float]:
        """m_f values m_i - J ... m_i + J (inclusive, integer steps)."""
        mi = float(self.m_initial)
        return [mi + dm for dm in range(-self.j_int, self.j_int + 1)]


@dataclass(frozen=True)
class SublevelDistribution:
    """One impact parameter's sublevel distribution, keyed by m_f: the
    ``amplitudes`` J_{m_gamma-dm}(kappa b) * d-element, the integer
    ``winding`` m_gamma - dm of the omitted factor exp(i nu phi_b), and the
    normalized ``weights``; one row of :func:`am_partition`."""

    amplitudes: dict[float, float]
    winding: dict[float, int]
    weights: dict[float, float]


@dataclass(frozen=True)
class AmPartition:
    """Sublevel amplitudes, weights and mean angular momentum (units hbar)
    over a 1-D array of impact parameters.

    ``amplitudes[J + dm]`` and ``weights[J + dm]`` are the rows of A and w
    for m_f = m_i + dm, dm = -J ... J; ``lz_internal`` is the mean of
    m_f - m_i and ``lz_cm = m_gamma - lz_internal`` its exact complement.
    ``errors`` holds one code per row: "" where the row is defined, else the
    code the scalar functions raise there (``DOMAIN`` for b < 0 or a Bessel
    order/argument outside the supported range, ``UNDEFINED_DISTRIBUTION``
    where every amplitude vanishes).  Every value of such a row is NaN, but
    for the amplitudes of an ``UNDEFINED_DISTRIBUTION`` row: its zeros.
    """

    amplitudes: np.ndarray
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
    """Sublevel distribution and internal/c.m. mean angular momentum at every
    impact parameter of the 1-D array ``b`` (nm), with a per-row error code
    in place of an exception.

    This is the package's one implementation of the distribution
    (:func:`am_partitions` for one beam).  The 2J+1 Wigner d form one column
    and all 2J+1 Bessel orders come from one :func:`bessel_j_array` call.
    Squared amplitudes are summed in +-dm pairs and the means accumulated
    from dm = 1 up, so a global sign mirror of the quantum numbers gives
    bit-identical weights.
    """
    return am_partitions([beam], channel, b)[0]


def am_partitions(
    beams, channel: TransitionChannel, b
) -> list[AmPartition]:
    """:func:`am_partition` of each of ``beams``, which share one transverse
    wavenumber (the m_gamma series of an AM panel), from one
    :func:`bessel_j_array` call for every order they need."""
    import numpy as np
    b = np.asarray(b, dtype=float)
    j = channel.j_int
    kappa = transverse_wavenumber(beams[0])
    if any(transverse_wavenumber(beam) != kappa for beam in beams):
        raise DomainError("am_partitions needs beams of one transverse wavenumber")
    # a beam whose widest order m_gamma -+ J is beyond the Bessel range has
    # every row coded
    in_range = [abs(beam.m_gamma) + j <= MAX_ORDER for beam in beams]
    # an overflowing kappa b, inf * 0 (a NaN) and the NaN of an invalid row
    # are coded, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = kappa * b
        valid = (np.abs(x) <= MAX_ARGUMENT) & (b >= 0.0)  # False for NaN and inf
        if any(in_range):
            orders = np.array([_orders(beam, channel)
                               for beam, ok in zip(beams, in_range) if ok])
            tables = iter(bessel_j_array(orders[:, :, None], np.where(valid, x, 0.0)))
        return [_partition(beam, channel, valid, next(tables)) if ok
                else _out_of_range(channel, b.shape) for beam, ok in zip(beams, in_range)]


def _out_of_range(channel: TransitionChannel, shape) -> AmPartition:
    import numpy as np
    nan = np.full((2 * channel.j_int + 1,) + shape, np.nan)
    return AmPartition(amplitudes=nan, weights=nan, lz_internal=nan[0], lz_cm=nan[0],
                       errors=np.full(shape, "DOMAIN", dtype=object))


def _partition(beam, channel, valid, bessel) -> AmPartition:
    # the distribution from the Bessel rows J_{m_gamma - dm}(kappa b), dm = -J ... J,
    # under the caller's errstate
    import numpy as np
    j = channel.j_int
    d = np.array([wigner_small_d(float(j), float(dm), float(beam.lambda_spin), beam.pitch_angle)
                  for dm in range(-j, j + 1)])
    amplitudes = bessel * d[:, None]
    sq = amplitudes * amplitudes
    total = sq[j]
    for dm in range(1, j + 1):
        total = total + (sq[j + dm] + sq[j - dm])
    undefined = valid & (total == 0.0)
    weights = np.where(valid & ~undefined, sq / total, np.nan)
    errors = np.where(valid, "", "DOMAIN").astype(object)
    errors[undefined] = "UNDEFINED_DISTRIBUTION"
    internal = 0.0
    for dm in range(1, j + 1):
        internal = internal + dm * (weights[j + dm] - weights[j - dm])
    return AmPartition(amplitudes=np.where(valid, amplitudes, np.nan), weights=weights,
                       lz_internal=internal, lz_cm=beam.m_gamma - internal, errors=errors)


def recoil_ratio_array(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`recoil_ratio` at every impact parameter of ``b`` (nm): the
    ratios and per-row error codes as in :class:`AmPartition`, with
    ``B_SINGULARITY`` (checked first) wherever b > 0 fails."""
    import numpy as np
    b = np.asarray(b, dtype=float)
    (ratio,), errors = _ratio_from_partition(beam, b, am_partition(beam, channel, b))
    return ratio, errors


def _ratio_from_partition(
    beam: TwistedPhotonBeam, b: np.ndarray, partition: AmPartition
) -> tuple[tuple[np.ndarray], np.ndarray]:
    # recoil_ratio_array(beam, channel, b) from its partition
    # am_partition(beam, channel, b), as the one column of an AM sweep kernel
    import numpy as np
    positive = b > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # lambda / b first: lz_cm lambda and 2 pi b overflow where the ratio does not
        ratio = partition.lz_cm * (beam.wavelength / b) / (2.0 * math.pi)
    errors = np.where(positive, partition.errors, "B_SINGULARITY")
    return (np.where(positive, ratio, np.nan),), errors


def raise_first_row_error(
    errors: np.ndarray, beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> None:
    """Raise, for the first row of ``b`` whose code in ``errors`` is set, the
    exception a scalar evaluation raises there; nothing if no row failed."""
    import numpy as np
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
    if math.isnan(b):
        raise DomainError(f"impact parameter must be a finite number, got {b}")
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


def excitation_probabilities(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> SublevelDistribution:
    """The sublevel distribution at impact parameter b (nm, >= 0): one row
    of :func:`am_partition`, with w(m_f) = |A(m_f)|^2 / sum |A|^2.

    Raises UndefinedDistributionError when every amplitude vanishes (the
    physical answer is "no absorption"; downstream means are undefined) and
    DomainError where the row is coded ``DOMAIN``.
    """
    partition = _checked_row(beam, channel, b)
    m_f = channel.final_sublevels()
    return SublevelDistribution(
        amplitudes=dict(zip(m_f, partition.amplitudes[:, 0].tolist())),
        winding=dict(zip(m_f, _orders(beam, channel))),
        weights=dict(zip(m_f, partition.weights[:, 0].tolist())),
    )


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
    beam: TwistedPhotonBeam, channel: TransitionChannel, m_f: float, b
) -> float | np.ndarray:
    """Excitation profile of one sublevel vs b, normalized to its peak.

    Returns |J_nu(kappa b)|^2 / max_x |J_nu(x)|^2 with nu = m_gamma - dm; the
    Wigner-d factor and any Rabi-time normalization are b-independent and
    drop out.  For nu = 0 the maximum sits at b = 0, otherwise at the first
    Bessel maximum.  Accepts a scalar or array ``b`` (nm); an array takes
    its Bessel values from one :func:`bessel_j_array` call, each equal to the
    scalar result bit for bit, and raises for the whole array where the
    scalar call raises for some b.  Where the Wigner d vanishes the profile
    is 0, but b < 0 and a kappa b that is NaN or beyond the Bessel range
    still raise DomainError.
    """
    two_dm = _half_int(m_f, "m_f") - _half_int(channel.m_initial, "m_initial")
    if two_dm % 2 or abs(two_dm) > 2 * channel.j_int:
        raise DomainError(
            f"m_f={m_f} is not reachable from m_i={channel.m_initial} "
            f"with multipole J={channel.multipole_J}"
        )
    nu = beam.m_gamma - two_dm // 2
    d = wigner_small_d(
        float(channel.j_int), two_dm / 2, float(beam.lambda_spin), beam.pitch_angle
    )
    scalar = isinstance(b, numbers.Real)
    if not scalar:
        import numpy as np
        b = np.asarray(b, dtype=float)
    x = transverse_wavenumber(beam) * b
    if d == 0.0:
        check_bessel_argument(x if scalar else (float(np.abs(x).max()) if x.size else 0.0))
        if b < 0.0 if scalar else np.any(b < 0.0):
            raise DomainError("impact parameter must be non-negative"
                              + (f", got {b}" if scalar else ""))
        return 0.0 if scalar else np.zeros(b.shape)
    peak = bessel_first_max(nu)[1]
    val = (bessel_j(nu, x) if scalar else bessel_j_array(nu, x)) / peak
    return val * val
