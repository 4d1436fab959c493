"""Test-only oracles shared by several test modules."""

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import jv

from twistkick.beam import transverse_wavenumber


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
