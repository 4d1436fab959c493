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

:func:`am_partition` is the one implementation of the distribution.  It
takes a float impact parameter or a whole array of them and returns the
amplitudes, weights and internal and c.m. means with a per-row error code
instead of raising, so a figure sweep is evaluated over its whole grid at
once and drops exactly the rows that carry a code.  An array takes all
2J+1 Bessel orders from one array call (:func:`am_partitions` makes one
call for several beams of one transverse wavenumber); a float takes them
from the same recurrences on Python floats and needs no numpy.  One body,
``_partition``, then runs the same operations in the same order on a float
row or on the rows of an array, so each array row equals the float result
bit for bit (a test holds them equal); the b-independent Wigner d column is
computed once per beam.  The scalar :func:`excitation_probabilities`,
:func:`mean_internal_am`, :func:`mean_cm_am` and :func:`recoil_ratio` are
one-row float calls that raise what the code names, through
:func:`raise_row_error`, the one source of the row messages.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from collections import namedtuple

from .beam import TwistedPhotonBeam, transverse_wavenumber
from .errors import DomainError, UndefinedDistributionError, shown
from .special_functions import MAX_ARGUMENT, MAX_ORDER, _half_int, _j_row, \
    bessel_first_max, bessel_j, bessel_j_array, check_bessel_argument, check_bessel_domain, \
    wigner_small_d
from .units import check


class TransitionChannel(namedtuple("TransitionChannel", "multipole_J m_initial label")):
    """Target transition descriptor.

    multipole_J: angular momentum absorbed internally (1 = dipole E1,
    2 = quadrupole E2, 3 = octupole E3).  The photon carries integer
    multipolarity, so the value must be a positive integer; m_initial may be
    half-integer (e.g. -1/2 for an S_1/2 ground state); label is a string.
    """

    __slots__ = ()

    def __new__(cls, multipole_J, m_initial=0.0, label=""):
        multipole_J, m_initial = check(multipole_J, "multipole_J"), check(m_initial, "m_initial")
        if _half_int(multipole_J, "multipole_J") % 2:
            raise DomainError(
                f"multipole_J must be an integer (photon multipolarity), got {multipole_J}"
            )
        _half_int(m_initial, "m_initial")
        return super().__new__(cls, multipole_J, m_initial, label)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace

    @property
    def j_int(self) -> int:
        return round(self.multipole_J)

    def final_sublevels(self) -> list[float]:
        """m_f values m_i - J ... m_i + J (inclusive, integer steps)."""
        mi = float(self.m_initial)
        return [mi + dm for dm in range(-self.j_int, self.j_int + 1)]


class SublevelDistribution(namedtuple("SublevelDistribution",
                                      "amplitudes winding weights")):
    """One impact parameter's sublevel distribution, three dicts keyed by
    m_f: the float ``amplitudes`` J_{m_gamma-dm}(kappa b) * d-element, the
    integer ``winding`` m_gamma - dm of the omitted factor exp(i nu phi_b),
    and the normalized float ``weights``; one row of :func:`am_partition`."""

    __slots__ = ()


class AmPartition(namedtuple("AmPartition", "amplitudes weights lz_internal lz_cm errors")):
    """Sublevel amplitudes, weights and mean angular momentum (units hbar)
    over a 1-D array of impact parameters, each an ndarray, or at one float
    impact parameter: then lists of floats, floats and one code string.

    ``amplitudes[J + dm]`` and ``weights[J + dm]`` are the rows of A and w
    for m_f = m_i + dm, dm = -J ... J; ``lz_internal`` is the mean of
    m_f - m_i and ``lz_cm = m_gamma - lz_internal`` its exact complement.
    ``errors`` holds one code per row: "" where the row is defined, else the
    code the scalar functions raise there (``DOMAIN`` for b < 0 or a Bessel
    order/argument outside the supported range, ``UNDEFINED_DISTRIBUTION``
    where every amplitude vanishes).  Every value of such a row is NaN, but
    for the amplitudes of an ``UNDEFINED_DISTRIBUTION`` row: its zeros.
    """

    __slots__ = ()


def _orders(beam: TwistedPhotonBeam, channel: TransitionChannel) -> list[int]:
    # Bessel order m_gamma - dm per dm = -J ... J, in evaluation order
    j = channel.j_int
    return [beam.m_gamma - dm for dm in range(-j, j + 1)]


def am_partition(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> AmPartition:
    """Sublevel distribution and internal/c.m. mean angular momentum at a
    float impact parameter ``b`` (nm) or at every b of a 1-D array, with a
    per-row error code in place of an exception.

    This is the package's one implementation of the distribution
    (:func:`am_partitions` for one beam).  The 2J+1 Wigner d form one column
    and all 2J+1 Bessel orders come from one :func:`bessel_j_array` call, or
    for a float from the same recurrences on Python floats.  Squared
    amplitudes are summed in +-dm pairs and the means accumulated from
    dm = 1 up, so a global sign mirror of the quantum numbers gives
    bit-identical weights.
    """
    return am_partitions([beam], channel, b)[0]


def am_partitions(
    beams, channel: TransitionChannel, b
) -> list[AmPartition]:
    """:func:`am_partition` of each of ``beams``, which share one transverse
    wavenumber (the m_gamma series of an AM panel), from one Bessel table
    for every order they need."""
    scalar = isinstance(b, numbers.Real)  # the one float-or-array decision
    if scalar:
        b = check(b, "b point")
    else:
        import numpy as np
        b = np.asarray(b, dtype=float)
    j = channel.j_int
    kappa = transverse_wavenumber(beams[0])
    if any(transverse_wavenumber(beam) != kappa for beam in beams):
        raise DomainError("am_partitions needs beams of one transverse wavenumber")
    # a beam whose widest order m_gamma -+ J is beyond the Bessel range reads
    # order 0 at m_gamma 0 and has every row coded
    in_range = [abs(beam.m_gamma) + j <= MAX_ORDER for beam in beams]
    m_gammas = [beam.m_gamma if ok else 0 for beam, ok in zip(beams, in_range)]
    orders = [_orders(beam, channel) if ok else [0] * (2 * j + 1)
              for beam, ok in zip(beams, in_range)]
    # an overflowing kappa b, inf * 0 (a NaN) and the NaN of an invalid row
    # are coded, not warned about
    with _quiet(scalar):
        x = kappa * b
        valid = (abs(x) <= MAX_ARGUMENT) & (b >= 0.0)  # False for NaN and inf
        x = _where(scalar, valid, x, 0.0)
        if scalar:
            row = _j_row([n for beam_orders in orders for n in beam_orders], x)
            tables = [row[k:k + 2 * j + 1] for k in range(0, len(row), 2 * j + 1)]
        else:
            tables = bessel_j_array(np.array(orders)[:, :, None], x)
        return [_partition(beam, channel, m_gamma, valid & ok, table, scalar)
                for beam, m_gamma, ok, table in zip(beams, m_gammas, in_range, tables)]


def _quiet(scalar: bool):
    # nothing for a float; for an array, numpy's errstate that leaves an
    # overflow, an invalid operation or a division by zero to the row codes
    if scalar:
        return contextlib.nullcontext()
    import numpy as np
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _where(scalar: bool, condition, yes, no):
    # a conditional expression for a float row, np.where for an array's mask
    if scalar:
        return yes if condition else no
    import numpy as np
    return np.where(condition, yes, no)


_ROW_CODES = ("", "UNDEFINED_DISTRIBUTION", "DOMAIN")


def _partition(beam, channel, m_gamma, valid, bessel, scalar) -> AmPartition:
    """The distribution from the Bessel rows J_{m_gamma - dm}(kappa b), dm =
    -J ... J: with ``scalar``, floats and a truth value ``valid`` for one b,
    else rows of an array and a mask, under the caller's errstate.  Both run
    the same operations in the same order, so an array row equals the float
    result bit for bit; an array takes each step on all rows at once."""
    j = channel.j_int
    d = _d_column(j, beam.lambda_spin, beam.pitch_angle)
    if scalar:
        amplitudes = [row * d_row for row, d_row in zip(bessel, d)]
        sq = [a * a for a in amplitudes]
    else:
        import numpy as np
        amplitudes = bessel * np.array(d)[:, None]
        sq = amplitudes * amplitudes
    total = sq[j]
    for dm in range(1, j + 1):
        total = total + (sq[j + dm] + sq[j - dm])
    defined = valid & (total != 0.0)
    divisor = _where(scalar, defined, total, math.nan)
    weights = [s / divisor for s in sq] if scalar else sq / divisor
    internal = 0.0
    for dm in range(1, j + 1):
        internal = internal + dm * (weights[j + dm] - weights[j - dm])
    code = 2 - defined - valid  # an index into _ROW_CODES: defined 0, vanishing 1, invalid 2
    if scalar:
        amplitudes = amplitudes if valid else [math.nan] * len(amplitudes)
        errors = _ROW_CODES[code]
    else:
        amplitudes = np.where(valid, amplitudes, np.nan)
        errors = np.array(_ROW_CODES, dtype=object)[code]
    return AmPartition(amplitudes=amplitudes, weights=weights, lz_internal=internal,
                       lz_cm=m_gamma - internal, errors=errors)


@functools.lru_cache(maxsize=64)
def _d_column(j: int, lambda_spin: int, theta: float) -> tuple[float, ...]:
    # d^J_{dm, Lambda}(theta_k), dm = -J ... J: independent of b, so the rows
    # of a sweep and the one-row calls at one beam share it
    return tuple(wigner_small_d(float(j), float(dm), float(lambda_spin), theta)
                 for dm in range(-j, j + 1))


def recoil_ratio_array(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`recoil_ratio` at every impact parameter of ``b`` (nm): the
    ratios and per-row error codes as in :class:`AmPartition`, with
    ``B_SINGULARITY`` (checked first) wherever b > 0 fails."""
    import numpy as np
    b = np.asarray(b, dtype=float)
    (ratio,), errors = _ratio_from_partition(beam, b, am_partition(beam, channel, b), False)
    return ratio, errors


def _ratio_from_partition(beam: TwistedPhotonBeam, b, partition: AmPartition,
                          scalar: bool):
    # recoil_ratio_array(beam, channel, b) from its partition
    # am_partition(beam, channel, b), as the one column of an AM sweep
    # kernel; with scalar, the ratio and the code of the float row b
    positive = b > 0.0
    with _quiet(scalar):
        # lambda / b first: lz_cm lambda and 2 pi b overflow where the ratio does not
        ratio = partition.lz_cm * (beam.wavelength / _where(scalar, positive, b, math.nan)) \
            / (2.0 * math.pi)
    return (ratio,), _where(scalar, positive, partition.errors, "B_SINGULARITY")


def raise_first_row_error(errors: np.ndarray, beam: TwistedPhotonBeam,
                          channel: TransitionChannel, b: np.ndarray) -> None:
    """Raise, for the first row of the array ``b`` whose code in ``errors``
    is set, the exception a scalar evaluation raises there (through
    :func:`raise_row_error`); nothing if no row failed."""
    import numpy as np
    failed = np.flatnonzero(errors != "")
    if failed.size:
        raise_row_error(errors[failed[0]], beam, channel, float(b[failed[0]]))


def raise_row_error(code: str, beam: TwistedPhotonBeam, channel: TransitionChannel,
                    b: float) -> None:
    """Raise the exception that the row code ``code`` names at the float
    impact parameter ``b``; nothing for the empty code.  The one source of
    the row messages."""
    if not code:
        return
    if code == "B_SINGULARITY":
        check(b, "b kick")
    if code == "UNDEFINED_DISTRIBUTION":
        raise UndefinedDistributionError(
            f"all sublevel amplitudes vanish at b={b}; no absorption"
        )
    x = transverse_wavenumber(beam) * b
    if not (math.isfinite(x) or math.isnan(b)):
        raise DomainError("the Bessel argument kappa b overflows the floating-point range")
    check(b, "b target")  # NaN, or b < 0
    for nu in _orders(beam, channel):
        check_bessel_domain(nu, x)
    raise AssertionError(f"row error code {code!r} at b={b} names no error")


def _checked_row(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> AmPartition:
    b = check(b, "b point")
    partition = am_partition(beam, channel, b)
    raise_row_error(partition.errors, beam, channel, b)
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
        amplitudes=dict(zip(m_f, partition.amplitudes)),
        winding=dict(zip(m_f, _orders(beam, channel))),
        weights=dict(zip(m_f, partition.weights)),
    )


def mean_internal_am(
    beam: TwistedPhotonBeam, channel: TransitionChannel, b: float
) -> float:
    """Mean angular momentum (units hbar) absorbed by internal excitation.

    Probability-weighted mean of m_f - m_i over the sublevel distribution.
    """
    return _checked_row(beam, channel, b).lz_internal


def mean_cm_am(beam: TwistedPhotonBeam, channel: TransitionChannel, b: float) -> float:
    """Mean angular momentum passed to the center of mass: m_gamma minus the
    internal mean (exact complement)."""
    return _checked_row(beam, channel, b).lz_cm


def recoil_ratio(beam: TwistedPhotonBeam, channel: TransitionChannel, b: float) -> float:
    """Transverse-to-longitudinal recoil ratio p_T/p_z at impact parameter b.

    p_T/p_z = <l_z>_cm * lambda / (2 pi b), with the paraxial p_z = E/c.
    """
    b = check(b, "b point")
    (ratio,), code = _ratio_from_partition(beam, b, am_partition(beam, channel, b), True)
    raise_row_error(code, beam, channel, b)
    return ratio


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
    b = check(b, "b finite")
    scalar = isinstance(b, (float, int))
    if not scalar:
        import numpy as np
        b = np.asarray(b, dtype=float)
    x = transverse_wavenumber(beam) * b
    if d == 0.0:
        check_bessel_argument(x if scalar else (float(np.abs(x).max()) if x.size else 0.0))
        check(b, "b target")
        return 0.0 if scalar else np.zeros(b.shape)
    peak = bessel_first_max(nu)[1]
    val = (bessel_j(nu, x) if scalar else bessel_j_array(nu, x)) / peak
    return val * val
