"""Test-only oracles shared by several test modules."""

import contextlib
import math
from collections import Counter

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import jv

from twistkick import beam as beam_module
from twistkick import special_functions, trap
from twistkick.beam import bessel_gauss_amplitude, transverse_wavenumber
from twistkick.errors import DomainError, UndefinedDistributionError
from twistkick.special_functions import bessel_j, wigner_small_d


def bisection_first_lobe_peak_argument(l_gamma: int, envelope_slope) -> float:
    """The root of x J_{l-1}(x)/J_l(x) = l + s(x) by bisection of the
    bracket (0, l + 1.33 l^(1/3)) to adjacent floats, returning their
    midpoint: the loop that ITP replaced in ``first_lobe_peak_argument``,
    kept as its oracle.  A point is below the root where the ratio exceeds
    l + s(x).  The ratio is looked up on the module, so a test can count
    its calls."""
    l = abs(int(l_gamma))
    if not 1 <= l <= special_functions.MAX_ORDER:
        raise DomainError(f"first-lobe order out of range: {l_gamma}")
    lo, hi = 0.0, special_functions._first_lobe_bracket(l)
    start = special_functions._start_order(l + 1, hi)
    x = 0.5 * hi
    while lo < x < hi:
        if special_functions._lobe_ratio(l, x, start) > l + envelope_slope(x):
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    return x


def mask_kept_rows(rows, codes):
    """``(kept rows, dropped_by_code)`` of a figure builder's ``(rows, codes)``
    by a numpy mask: a row is kept where its code is "" and every value is
    finite, and a dropped row without a code counts as ``NON_FINITE``.  The
    bookkeeping that ``run_sweep`` replaced with lists, kept as its oracle."""
    table, errors = np.array(rows, dtype=float), np.array(codes, dtype=str)
    kept = (errors == "") & np.isfinite(table).all(axis=1)
    dropped = np.where(errors == "", "NON_FINITE", errors)[~kept].tolist()
    return table[kept].tolist(), dict(sorted(Counter(dropped).items()))


def composite_gl(beam, lower: float, upper: float, panels: int) -> float:
    """One pass of the composite 16-node Gauss-Legendre rule for the integral
    of |psi(rho)|^2 rho d rho over [lower, upper] on ``panels`` panels, one
    amplitude table per chunk of _PANEL_CHUNK panels, summed chunk by chunk:
    the per-pass loop that ``radial_intensity_integral`` replaced with
    shared tables, kept as its oracle.  _PANEL_CHUNK is looked up on the
    module, so a test can shrink it."""
    nodes, weights = beam_module._gauss_legendre()
    h = (upper - lower) / panels
    offsets = 0.5 * (nodes + 1.0)
    total = 0.0
    for start in range(0, panels, beam_module._PANEL_CHUNK):
        index = np.arange(start, min(start + beam_module._PANEL_CHUNK, panels))
        rho = lower + h * (index[:, None] + offsets)
        amp = bessel_gauss_amplitude(beam, rho.ravel()).reshape(rho.shape)
        total += float(np.sum(amp * amp * rho * weights))
    return 0.5 * h * total


def per_pass_radial_intensity_integral(beam, upper: float, lower: float = 0.0):
    """``radial_intensity_integral`` from :func:`composite_gl` at P panels
    and at 2P: ``(fine, |fine - coarse|)``."""
    kappa = transverse_wavenumber(beam)
    special_functions.check_bessel_domain(beam.l_gamma, kappa * upper)
    panels = max(beam_module._MIN_PANELS, math.ceil(kappa * (upper - lower) / (2.0 * math.pi)))
    coarse = composite_gl(beam, lower, upper, panels)
    fine = composite_gl(beam, lower, upper, 2 * panels)
    return fine, abs(fine - coarse)


def dense_grid_peak_radius(beam) -> float:
    """Radius of the largest |J_l(kappa rho)| exp(-rho^2/w0^2) on [0, 10 w0],
    independent of the stationarity condition the package solves.

    The grid has 100 points per half Bessel period or per w0, whichever is
    shorter, up to (|l| + 5) of them (past the first lobe), and 10 per such
    length beyond; bounded Brent then refines the largest sample between its
    neighbours.
    """
    w0 = beam.envelope_w0
    kappa = transverse_wavenumber(beam)

    def amplitude(rho):
        return np.abs(jv(beam.l_gamma, kappa * rho) * np.exp(-((rho / w0) ** 2)))

    lobe = min(math.pi / kappa, w0)
    fine_end = min(10.0 * w0, (abs(beam.l_gamma) + 5) * lobe)
    rho = np.concatenate([
        np.linspace(0.0, fine_end, math.ceil(100.0 * fine_end / lobe) + 1),
        np.arange(fine_end + 0.1 * lobe, 10.0 * w0, 0.1 * lobe),
    ])
    i = int(np.argmax(amplitude(rho)))
    lo, hi = rho[max(i - 1, 0)], rho[min(i + 1, rho.size - 1)]
    found = minimize_scalar(lambda r: -amplitude(r), bounds=(lo, hi), method="bounded",
                            options={"xatol": 1e-12 * hi})
    return float(found.x)


def dict_sublevel_distribution(beam, channel, b):
    """``(amplitudes, winding, weights)`` dicts keyed by m_f, built one
    sublevel at a time from the scalar ``bessel_j`` and ``wigner_small_d``:
    the per-point path that ``am_partition`` replaced, kept as its oracle.

    Squared amplitudes are summed in +-dm pairs, as ``am_partition`` sums
    them, so the weights must agree bit for bit.
    """
    if b < 0.0:
        raise DomainError(f"impact parameter must be non-negative, got {b}")
    x = transverse_wavenumber(beam) * b
    j = channel.j_int
    mi = float(channel.m_initial)
    amps = {}
    winding = {}
    for dm in range(-j, j + 1):
        m_f = mi + dm
        nu = beam.m_gamma - dm
        d = wigner_small_d(float(j), float(dm), float(beam.lambda_spin), beam.pitch_angle)
        amps[m_f] = bessel_j(nu, x) * d
        winding[m_f] = nu
    sq = {m_f: a * a for m_f, a in amps.items()}
    total = sq[mi]
    for dm in range(1, j + 1):
        total += sq[mi + dm] + sq[mi - dm]
    if total == 0.0:
        raise UndefinedDistributionError(
            f"all sublevel amplitudes vanish at b={b}; no absorption"
        )
    return amps, winding, {m_f: v / total for m_f, v in sq.items()}


def fixed_half_width(nu: int, x: float) -> int:
    """|l| <= max(|nu|, 9 sqrt(x)) + 30: the fixed-margin half width of the
    extended-packet series that the proven width of ``trap._half_width``
    replaced, kept as its oracle (and as that width's cap)."""
    return math.ceil(max(abs(nu), 9.0 * math.sqrt(x))) + 30


@contextlib.contextmanager
def fixed_width_series():
    """Run the extended-packet series (jump probabilities, sideband spectra,
    fig7) at :func:`fixed_half_width` within the block: the series as it was
    summed before its width was proven, with the packet weights' cache
    emptied on entry and on exit."""
    proven = trap._half_width
    trap._packet_weights.cache_clear()
    trap._half_width = fixed_half_width
    try:
        yield
    finally:
        trap._half_width = proven
        trap._packet_weights.cache_clear()


def bisected_half_width(nu: int, x: float) -> int:
    """The smallest width L >= |nu| + 1 at which the log tail bound of
    ``trap._half_width`` is at most ``trap._LOG_TAIL_BUDGET``, the cap
    max(|nu|, 9 sqrt(x)) + 30 passing by fiat, by one bisection of the whole
    range [|nu| + 1, cap]: the search that the cached quarter-binade
    bracket of ``trap._half_width`` replaced, kept as its oracle."""
    low = abs(nu) + 1
    top = fixed_half_width(nu, x)
    if x == 0.0:  # no partial wave but l = 0 carries weight
        return low
    log_half_x = math.log(x) - math.log(2.0)
    log_low = math.lgamma(low + 1)
    lo, hi = low, top
    while lo < hi:
        width = (lo + hi) // 2
        r = x / (2.0 * width + 4.0)
        if r < 1.0 and (width + 1 - low) * log_half_x + log_low - math.lgamma(width + 2) \
                + 0.5 * x * r - math.log1p(-r) <= trap._LOG_TAIL_BUDGET:
            hi = width
        else:
            lo = width + 1
    return hi
