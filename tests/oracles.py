"""Test-only oracles shared by several test modules."""

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import jv

from twistkick import special_functions
from twistkick.beam import transverse_wavenumber
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
