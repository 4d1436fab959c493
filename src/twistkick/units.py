"""Physical constants and unit conversions.

Internal unit system: energies in eV, lengths in nm, momenta in eV/c (stored
as the energy p*c), masses as rest energies M*c^2 in eV.  Because

    hbar*c = 197.3269804 eV nm = 197.3269804 MeV fm

the single constant serves the optical (eV, nm), nuclear (MeV, fm) and
astroparticle (GeV, pm) regimes without scale-dependent branches: feed
lengths in nm and energies in eV and every formula below is regime-blind.

Constants are frozen CODATA-2018 values so that all derived tables are
bit-reproducible.

**Accepted ranges.**  :data:`RANGES` declares, once, every checked input
quantity: integer or real, its bounds and which ends are closed, whether it
takes a 1-D array, and its error code.  :func:`check` enforces it, and
every numeric input goes through it: the record constructors and exported
functions of every physics module, the Bessel orders and Wigner indices, a
figure's grid and parameter overrides (:mod:`twistkick.sweeps`) and the
CLI's float flags and point count (:mod:`twistkick.cli`, whose failures are
usage errors).  So a bool or a non-number, an int beyond the floating-point
range, a NaN or an infinity is handled in one place, an error names the
value through :func:`twistkick.errors.shown`, and a numpy scalar comes back
as the Python number it holds.  What stays with the callers: checks on
results (an energy that overflows), relations between inputs (the internal
AM within m_gamma, b > 0 where l_gamma > 0, a grid's stop above its start,
a nonzero first-lobe order, a half-integer magnetic number), the code or
the words an error takes where a caller needs its own (a figure
parameter's ``PARAMETER_TYPE``, and its range error, which names the
figure and the parameter with the quantity's code; a CLI flag's
``USAGE``), and the Bessel kernel contract on the derived argument kappa
rho.

**Floats or arrays.**  A kernel that runs over many points computes them
either one by one on Python floats or as one numpy array, with the same
values (or, where ``math.exp`` and ``numpy.exp`` round apart, within a few
ulps); :func:`on_floats` is the one rule that picks.  A kernel runs on
floats while numpy is not loaded (a fresh CLI call) and its own count is at
most its own limit, and as one array otherwise, so in-process callers,
which have numpy loaded, keep the array code.  Each limit keeps the dearest
float call of its kernel well below what importing numpy costs, 40 ms on a
2-core AMD EPYC VM (73 ms for ``python -c "import numpy"`` against 33 ms
for ``python -c pass``).  Measured there, in a process without numpy:

- ``FLOAT_ROWS`` = 1000 rows of a figure grid or an AM sweep
  (:mod:`twistkick.sweeps`): an AM panel row (3 beams) costs 16-19 us and a
  fig7 row 16 us, so a grid costs at most ~19 ms.
- ``FLOAT_FIT_POINTS`` = 4000, every point of a beam fit's grid check
  (:mod:`twistkick.pair_production`): a point costs 2-3 us for l_gamma <= 8
  and up to 6 us at l_gamma = 64, so a whole fit takes 9-14 ms, and 24 ms
  at l_gamma = 64.
- ``FLOAT_NODES`` = 2400 nodes of one profile integral, both passes (50
  panels, :func:`twistkick.beam.radial_intensity_integral`): a node costs
  2.1-3.7 us for |l_gamma| <= 8 and up to 8.2 us at |l_gamma| = 64, so an
  integral costs at most ~20 ms.  The ``focus-fraction`` draws of the
  ``cli_calls`` benchmark need up to 112 panels; 1.6% of them exceed 50.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple

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


# --- floats or arrays (module docstring) -------------------------------------

#: the most items each kernel runs on Python floats (module docstring)
FLOAT_ROWS = 1000
FLOAT_FIT_POINTS = 4000
FLOAT_NODES = 2400


def on_floats(count: int, most: int) -> bool:
    """The one float-or-array rule: ``count`` items run one by one on Python
    floats while numpy is not loaded and ``count`` <= ``most``, the limit of
    the kernel asking, and as one array otherwise."""
    return count <= most and sys.modules.get("numpy") is None


def _linspace(start: float, stop: float, count: int, endpoint: bool = True) -> list[float]:
    """``numpy.linspace(start, stop, count, endpoint)`` as a list of floats,
    by the same operations, so the same bits (a test holds them equal)."""
    div = count - 1 if endpoint else count
    if div <= 0:
        return [0.0 * (stop - start) + start]
    delta = stop - start
    step = delta / div
    if step == 0.0:  # a zero span, or a step that underflows: scale the span, as numpy does
        values = [i / div * delta + start for i in range(count)]
    else:
        values = [i * step + start for i in range(count)]
    if endpoint:
        values[-1] = stop
    return values


# --- accepted ranges (module docstring) ---------------------------------------

_INF = math.inf
_FLOAT_MAX = sys.float_info.max

#: Highest trap level a sideband spectrum may retain: the kernel's limit, as
#: its cached rows 1 / (r! (r + a)!) stay normal doubles up to 1/170! (1/171!
#: is subnormal), and the factorial-normalized grid oracle's in the tests,
#: whose weights stay finite up to 170! (171! overflows a double), so the
#: whole accepted range is checked against an independent method.
MAX_SIDEBAND_LEVEL = 170
#: largest j of a Wigner d, and so of a multipole order: the factorials of
#: the explicit sum stay within the floating-point range up to 2j = 98
MAX_WIGNER_J = 49
#: largest |n| of a Bessel order: the tables of
#: :mod:`twistkick.special_functions` reach it
MAX_BESSEL_ORDER = 64
#: largest |m| of a magnetic number, whose double is then finite
_HALF_MAX = 0.5 * _FLOAT_MAX


class Range(namedtuple("Range", "name integer low high ends arrays code rule")):
    """The accepted values of one input quantity: ``name`` as messages spell
    it, an integer or a real number, bounds ``low`` and ``high`` with
    ``ends`` telling which are included ("()", "[)", "(]" or "[]"; "{}"
    for the two ends alone, integers two apart such as a sign; "" for any
    number, NaN included), whether a 1-D array of them is accepted, the
    code of the error, and ``rule``, the range in the words of a message."""

    __slots__ = ()


def _range(name, low=-_INF, high=_INF, ends="()", integer=False, arrays=False,
           code="DOMAIN") -> Range:
    return Range(name, integer, low, high, ends, arrays, code, _rule(integer, low, high, ends))


def _rule(integer: bool, low, high, ends: str) -> str:
    # the words of "<name> must <rule>, got <value>"
    if ends == "{}":
        return f"be {high:+d} or {low:+d}"
    if low > -_INF and high < _INF:
        end = {0.5 * math.pi: "pi/2", 1e6: "1e6"}
        return (f"{'be an integer in' if integer else 'lie in'} "
                f"{ends[0]}{end.get(low, f'{low:g}')}, {end.get(high, f'{high:g}')}{ends[1]}")
    if integer:
        return {0: "be a non-negative integer", 1: "be a positive integer"}.get(
            low, "be an integer")
    words = [{"(0": "positive", "[0": "non-negative"}.get(
        f"{ends[0]}{low:g}", f"{'greater than' if ends[0] == '(' else 'at least'} {low:g}")
        ] if low > -_INF else []
    return "be " + (" and ".join(words + ["finite"] * (ends[1:] == ")")) or "a number")


def _bounds(q: Range) -> tuple:
    """The closed bounds :func:`check` compares with: of a float (an empty
    interval for an integer quantity), and, as ints, of an int (within the
    floating-point range) with the int it excludes: the middle of "{}" ends,
    else one past the top, so that an int compares with ints alone."""
    lo = math.nextafter(q.low, _INF) if q.ends[:1] == "(" else q.low
    hi = math.nextafter(q.high, -_INF) if q.ends[1:] == ")" else q.high
    ilo, ihi = math.ceil(max(lo, -_FLOAT_MAX)), math.floor(min(hi, _FLOAT_MAX))
    hole = (q.low + q.high) // 2 if q.ends == "{}" else ihi + 1
    return (_INF, -_INF) if q.integer else (lo, hi), (ilo, ihi, hole)


def _ranges(names: str, *bounds, **kinds) -> dict:
    # one range under each of the comma-separated names
    return {name: _range(name, *bounds, **kinds) for name in names.split(", ")}


#: Every checked input quantity, once: the record constructors and the
#: exported functions take their numeric arguments through :func:`check`.
#: Energies in eV, lengths in nm, angles in rad, frequencies in Hz.
RANGES = {
    # integers: quanta of angular momentum (hbar), orders and levels
    **_ranges("m_gamma, nu, internal AM", integer=True),
    **_ranges("delta_l, delta_l_cm, l_gamma", 0, ends="[)", integer=True),
    "Bessel order": _range("Bessel order", -MAX_BESSEL_ORDER, MAX_BESSEL_ORDER, "[]",
                           integer=True),
    "delta_l_cm > 0": _range("delta_l_cm", 1, ends="[)", integer=True),
    "l_gamma > 0": _range("l_gamma", 1, ends="[)", integer=True),
    "lambda_spin": _range("lambda_spin", -1, 1, "{}", integer=True),
    "n_max": _range("n_max", 2, MAX_SIDEBAND_LEVEL, "[]", integer=True),
    # energies (eV), lengths (nm), frequencies (Hz) and ratios
    **_ranges("energy, envelope_w0, omega0, omega2, spread_rms, w0/b, sigma, axial_frequency, "
              "transverse_frequency, ion_mass, wavelength, frequency", 0.0),
    # inf accepted: the recoil-free absorber, b* = 0, and lamb_dicke names its overflow
    **_ranges("mass, ratio_cut, recoil energy", 0.0, ends="(]"),
    "threshold factor": _range("threshold factor", 1.0),
    "p_T": _range("p_T", 0.0, ends="[)"),
    "p_T kick": _range("p_T", 0.0, ends="[]", arrays=True),
    "eta": _range("eta", 0.0, ends="[]"),
    "momentum": _range("momentum", -_INF, _INF, "[]", arrays=True),
    # angles (rad) and the indices of a Wigner d
    "pitch angle": _range("pitch angle", 0.0, 0.5 * math.pi, "[)"),
    "pitch angles": _range("pitch angle", 0.0, 0.5 * math.pi, "[)", arrays=True),
    "crossover pitch angle": _range("pitch angle", 0.0, 0.5 * math.pi),
    "theta": _range("theta"),
    **_ranges("m_initial, m_f, m_i", -_HALF_MAX, _HALF_MAX, "[]"),
    "j": _range("j", 0.0, MAX_WIGNER_J, "[]"),
    "multipole_J": _range("multipole_J", 1.0, MAX_WIGNER_J, "[]"),
    # impact parameters (nm): of a superkick, of a target or a packet (and
    # the profile's radius rho), of a pair query or a sublevel profile, and
    # of one point or an AM row whose caller codes or checks its range
    "b kick": _range("impact parameter", 0.0, ends="(]", arrays=True, code="B_SINGULARITY"),
    "b target": _range("impact parameter", 0.0, ends="[)", arrays=True),
    "rho": _range("rho", 0.0, ends="[)", arrays=True),
    "b finite": _range("impact parameter", arrays=True),
    "b point": _range("impact parameter", ends=""),
    "b row": _range("impact parameter", ends="", arrays=True),
    # a Bessel argument, whose range (|x| <= 1e6) the Bessel kernels check
    "Bessel argument": _range("Bessel argument", ends=""),
    # a figure's grid and parameters (by the type of the default), and the
    # CLI's float flags and point count
    **_ranges("grid start, grid stop"),
    "grid count": _range("grid count", 2, 10**6, "[]", integer=True),
    "integer parameter": _range("value", integer=True),
    "real parameter": _range("value"),
    "flag value": _range("flag value"),
    "count": _range("count", 1, 10**6, "[]", integer=True),
}


_FLOAT_BOUNDS, _INT_BOUNDS = ({quantity: _bounds(q)[k] for quantity, q in RANGES.items()}
                              for k in (0, 1))


def check(value, quantity: str):
    """``value`` if it lies in the range :data:`RANGES` declares for
    ``quantity``, as a Python ``float`` or ``int`` (a numpy scalar is
    converted; an accepted array is returned as given); DomainError, with
    the quantity's code, otherwise.

    A non-integer is rejected where the quantity is an integer, an int
    beyond the floating-point range everywhere, and an array where the
    quantity takes none; an array is checked through its :func:`extremes`.
    A 0-d array is read as the number it holds.  An array is a 1-D ndarray,
    list or tuple of real numbers, numpy's dtype or Python's number types
    (an int beyond int64, a ``Fraction``); one of two or more dimensions is
    rejected with ``DOMAIN`` by a message that names its shape, and one
    holding a number beyond the floating-point range by the message that
    number alone gets.  An empty 1-D array passes where arrays do, so every
    function that takes an array returns an empty result for it, of the
    kind an array gives; ``crossover_product``, which reduces over its
    pitch angles, raises ``DOMAIN`` instead.  A bool, and any other value
    that is neither a real number nor an array of them, is rejected with
    ``DOMAIN`` whatever the quantity's code, by a message that names its
    type.
    The message names the value through :func:`twistkick.errors.shown`,
    so it never spells nan or inf.  A float or an int in range returns
    after a few comparisons; text is built only to raise."""
    kind = type(value)
    if kind is float:
        lo, hi = _FLOAT_BOUNDS[quantity]
        if lo <= value <= hi:
            return value
    elif kind is int:
        lo, hi, hole = _INT_BOUNDS[quantity]
        if lo <= value <= hi and value != hole:
            return value
    q = RANGES[quantity]
    if getattr(value, "ndim", None) == 0:  # a 0-d array: the number it holds
        value = value.item()
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
        if type(value) is int and abs(value) > _FLOAT_MAX:
            raise DomainError(f"{q.name} is beyond the floating-point range, got {shown(value)}")
        ends = (value,)
    elif q.arrays and (shape := _real_array_shape(value, q.name)) is not None:
        if len(shape) > 1:
            raise DomainError(f"{q.name} must be a real number or a 1-D array of them, "
                              f"got {type(value).__name__} of shape {shape}")
        ends = extremes(value) if q.ends else ()  # "" ends take any number
    else:
        raise DomainError(f"{q.name} must be a real number{' or an array of them' * q.arrays}, "
                          f"got {_type_of(value)}")
    ilo, ihi, hole = _INT_BOUNDS[quantity]
    lo, hi = (ilo, ihi) if q.integer else _FLOAT_BOUNDS[quantity]
    for end in ends:
        if not (lo <= end <= hi and end != hole or not q.ends) or q.integer and type(end) is float:
            raise DomainError(f"{q.name} must {q.rule}, got {shown(end)}", code=q.code)
    return value


def _real_array_shape(value, name: str) -> tuple | None:
    # the shape numpy reads ``value`` with if that is an array of real
    # numbers, else None: an ndarray of numbers by its dtype alone; a list, a
    # tuple or an object array by its elements too, as numpy reads a True
    # among floats as 1.0, and holds an int beyond int64 or a Fraction as an
    # object, which converts unless it is beyond the floating-point range,
    # a DomainError that names ``name`` and the first such element
    import numpy as np
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged sequence
        return None
    kind = array.dtype.kind
    if kind in "fiu" and isinstance(value, np.ndarray):
        return array.shape
    if kind not in "fiuO" or _not_numbers(value):
        return None
    try:
        array.astype(float)
    except OverflowError:
        beyond = next(v for v in _elements(value) if abs(v) > _FLOAT_MAX)
        raise DomainError(f"{name} is beyond the floating-point range, got {shown(beyond)}") \
            from None
    return array.shape


def _elements(value) -> list:
    # the elements of a sequence or an array, at any depth
    import numpy as np
    return np.asarray(value, dtype=object).ravel().tolist()


def _not_numbers(value) -> list:
    # the elements of a sequence or an array that are no real number, a bool
    # (which numpy reads as 1.0 or 0.0) and None (NaN) among them
    return [v for v in _elements(value) if isinstance(v, bool) or not isinstance(v, numbers.Real)]


def _type_of(value) -> str:
    # a rejected value's type as error text: an ndarray's with its dtype; a
    # list's, a tuple's or an object array's with that of its first element
    # that is no real number, else of the first that is no float
    kind = type(value).__name__
    if kind == "ndarray" and value.dtype.kind != "O":
        return f"{kind} of {value.dtype.type.__name__.rstrip('_')}"
    if not isinstance(value, (list, tuple)) and kind != "ndarray":
        return kind
    held = _not_numbers(value) or [v for v in _elements(value) if not isinstance(v, float)]
    return kind + (f" holding {type(held[0]).__name__}" if held else "")


def extremes(value) -> tuple:
    """What a bound or finiteness check of ``value`` must pass: ``(value,)``
    for a float or an int, and for an array its least and greatest element
    as floats (both NaN where some element is NaN; none for an empty array).
    A check written once for a float thus holds for every element of an
    array exactly when it holds for each extreme."""
    if isinstance(value, (float, int)):
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
    wavelength_nm = check(wavelength_nm, "wavelength")
    energy = 2.0 * math.pi * HBARC_EV_NM / wavelength_nm
    if energy == math.inf:
        raise DomainError(
            f"wavelength {wavelength_nm:g} nm is too short: its photon energy overflows"
        )
    return energy


def energy_to_wavelength(energy_ev: float) -> float:
    """Inverse of :func:`wavelength_to_energy`; round-trips to 1e-12 relative."""
    energy_ev = check(energy_ev, "energy")
    wavelength = 2.0 * math.pi * HBARC_EV_NM / energy_ev
    if wavelength == math.inf:
        raise DomainError(f"energy {energy_ev:g} eV is too low: its wavelength overflows")
    return wavelength


def frequency_to_energy(frequency_hz: float) -> float:
    """Quantum energy h*f of an oscillation at ``frequency_hz``."""
    frequency_hz = check(frequency_hz, "frequency")
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
    yields 0, or zeros of the momentum's shape.  An energy beyond the floating-point range is inf, on an array
    as on a float; an int momentum or mass beyond that range raises
    DomainError.  Where 2 M overflows, the energy is (p/2) (p/M).
    """
    mass_ev, p_ev = check(mass_ev, "mass"), check(p_ev, "momentum")
    two_m = 2.0 * mass_ev
    if isinstance(p_ev, (float, int)):
        p_ev = float(p_ev)  # its square overflows to inf, where an int's would raise
        if math.isinf(mass_ev):
            return 0.0
        return p_ev * p_ev / two_m if two_m < math.inf else 0.5 * p_ev * (p_ev / mass_ev)
    import numpy as np
    p_ev = np.asarray(p_ev, dtype=float)
    if math.isinf(mass_ev):
        return np.zeros(p_ev.shape)
    with np.errstate(over="ignore"):
        return p_ev * p_ev / two_m if two_m < math.inf else 0.5 * p_ev * (p_ev / mass_ev)
