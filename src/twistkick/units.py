"""Physical constants and unit conversions.

Internal unit system: energies in eV, lengths in nm, momenta in eV/c (stored
as the energy p*c), masses as rest energies M*c^2 in eV.  Because

    hbar*c = 197.3269804 eV nm = 197.3269804 MeV fm

the single constant serves the optical (eV, nm), nuclear (MeV, fm) and
astroparticle (GeV, pm) regimes without scale-dependent branches: feed
lengths in nm and energies in eV and every formula below is regime-blind.

Constants are frozen CODATA-2018 values so that all derived tables are
bit-reproducible.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, shown

# --- unit multipliers (to internal eV / nm) ---------------------------------
EV = 1.0
KEV = 1.0e3
MEV = 1.0e6
GEV = 1.0e9
TEV = 1.0e12
NEV = 1.0e-9  # nano-eV

NM = 1.0
UM = 1.0e3
PM = 1.0e-3
FM = 1.0e-6

# --- frozen constants (CODATA-2018 / AME) -----------------------------------
HBARC_EV_NM = 197.3269804           # hbar*c [eV nm] == [MeV fm]
PLANCK_H_EV_S = 4.135667696e-15     # h [eV s] (exact since the 2019 SI)
HBAR_EV_S = PLANCK_H_EV_S / (2.0 * math.pi)

ELECTRON_MASS_EV = 0.51099895000e6      # m_e c^2
DEUTERON_MASS_EV = 1875.61294257e6      # m_d c^2
ATOMIC_MASS_UNIT_EV = 931.49410242e6    # u c^2

# 40Ca neutral-atom mass 39.962590863 u (AME2020), minus one electron for the
# singly charged ion; the ~eV-scale ionization energy is negligible here.
CA40_ATOMIC_MASS_U = 39.962590863
CA40_ION_MASS_EV = CA40_ATOMIC_MASS_U * ATOMIC_MASS_UNIT_EV - ELECTRON_MASS_EV

DEUTERON_BINDING_EV = 2224.52e3         # E_B, known to sub-keV accuracy


def constants_table() -> dict[str, float]:
    """All frozen constants as a name -> value mapping (internal units)."""
    return {
        "hbarc_ev_nm": HBARC_EV_NM,
        "planck_h_ev_s": PLANCK_H_EV_S,
        "hbar_ev_s": HBAR_EV_S,
        "electron_mass_ev": ELECTRON_MASS_EV,
        "deuteron_mass_ev": DEUTERON_MASS_EV,
        "atomic_mass_unit_ev": ATOMIC_MASS_UNIT_EV,
        "ca40_ion_mass_ev": CA40_ION_MASS_EV,
        "deuteron_binding_ev": DEUTERON_BINDING_EV,
    }


def constants_sha256() -> str:
    """Stable hash of the constants table, recorded in sweep metadata: the
    SHA-256 of its ``name=repr(value)`` entries sorted by name and joined by
    ",".  The constants are frozen, so the digest is too; the tests recompute
    it from :func:`constants_table`."""
    return "1bcfcc73313c3fe9dff2f45f7f7dfd012544257c0b8a85cf3b0ecdea4080449a"


# --- conversions -------------------------------------------------------------

def check_float_range(value: int, name: str) -> None:
    """Raise DomainError naming ``name`` when the integer ``value`` is beyond
    the floating-point range, where ``value * HBARC_EV_NM`` would overflow."""
    if abs(value) > sys.float_info.max:
        raise DomainError(f"{name} is beyond the floating-point range")


def check_positive(value, name: str) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is positive (NaN is
    not), or where it is an int beyond the floating-point range."""
    if isinstance(value, int):
        check_float_range(value, name)
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {shown(value)}")


def check_positive_finite(value, name: str) -> None:
    """:func:`check_positive`, and DomainError where ``value`` is inf."""
    check_positive(value, name)
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got {shown(value)}")


def extremes(value, name: str) -> tuple:
    """What a bound or finiteness check of ``value`` must pass: ``(value,)``
    for a float or an int, and for an array its least and greatest element
    as floats (both NaN where some element is NaN; none for an empty array).
    A check written once for a float thus holds for every element of an
    array exactly when it holds for each extreme.  An int beyond the
    floating-point range raises DomainError naming ``name``: it would
    overflow the first formula it met."""
    if isinstance(value, (float, int)):
        if isinstance(value, int):
            check_float_range(value, name)
        return (value,)
    import numpy as np
    value = np.asarray(value, dtype=float)
    return (float(value.min()), float(value.max())) if value.size else ()


def per_element(func, x):
    """``func(x)`` for a float; for an array, an array of ``func`` called on
    each element as a float.  ``math`` and numpy need not round alike, so
    each element then equals the float call bit for bit."""
    if isinstance(x, (float, int)):
        return func(x)
    import numpy as np
    x = np.asarray(x, dtype=float)
    return np.array([func(v) for v in x.ravel().tolist()]).reshape(x.shape)


def sqrt(x):
    """``math.sqrt`` for a float, ``numpy.sqrt`` for an array: both round
    correctly, so each element equals the float call bit for bit."""
    if isinstance(x, (float, int)):
        return math.sqrt(x)
    import numpy as np
    return np.sqrt(x)


def wavelength_to_energy(wavelength_nm: float) -> float:
    """Photon energy E = 2*pi*hbar*c / lambda, eV for lambda in nm."""
    check_positive_finite(wavelength_nm, "wavelength")
    energy = 2.0 * math.pi * HBARC_EV_NM / wavelength_nm
    if energy == math.inf:
        raise DomainError(
            f"wavelength {wavelength_nm:g} nm is too short: its photon energy overflows"
        )
    return energy


def energy_to_wavelength(energy_ev: float) -> float:
    """Inverse of :func:`wavelength_to_energy`; round-trips to 1e-12 relative."""
    check_positive_finite(energy_ev, "energy")
    return 2.0 * math.pi * HBARC_EV_NM / energy_ev


def frequency_to_energy(frequency_hz: float) -> float:
    """Quantum energy h*f of an oscillation at ``frequency_hz``."""
    check_positive_finite(frequency_hz, "frequency")
    energy = PLANCK_H_EV_S * frequency_hz
    if energy == 0.0:
        raise DomainError(
            f"frequency {frequency_hz:g} Hz is too low: its quantum energy underflows to 0"
        )
    return energy


def nonrel_recoil_energy(p_ev: float, mass_ev: float) -> float:
    """Non-relativistic kinetic energy p^2 c^2 / (2 M c^2).

    ``p_ev`` is the momentum as p*c in eV, a float or an array, and
    ``mass_ev`` the rest energy in eV; ``mass_ev = math.inf`` is accepted and
    yields 0.  An energy beyond the floating-point range is inf, on an array
    as on a float; an int momentum or mass beyond that range raises
    DomainError.  Where 2 M overflows, the energy is (p/2) (p/M).
    """
    check_positive(mass_ev, "mass")
    if isinstance(p_ev, int):
        check_float_range(p_ev, "momentum")
        p_ev = float(p_ev)  # its square overflows to inf, where an int's would raise
    if math.isinf(mass_ev):
        return 0.0
    two_m = 2.0 * mass_ev
    if isinstance(p_ev, float):
        return p_ev * p_ev / two_m if two_m < math.inf else 0.5 * p_ev * (p_ev / mass_ev)
    import numpy as np
    with np.errstate(over="ignore"):
        return p_ev * p_ev / two_m if two_m < math.inf else 0.5 * p_ev * (p_ev / mass_ev)
