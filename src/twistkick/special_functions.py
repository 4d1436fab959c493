"""Integer-order Bessel functions J_n and Wigner small-d rotation elements.

This is the only transcendental machinery the physics modules need.

``bessel_j`` and ``bessel_j_array`` are thin wrappers over
``scipy.special.jv`` that enforce the package contract (integer order
|n| <= 64, finite argument |x| <= 1e6) and canonicalize signs through
J_{-n}(x) = (-1)^n J_n(x) = J_n(-x), so sign-flipped calls share
bit-identical magnitudes.

``scipy.special`` is bound lazily.  Importing it takes about 0.3 s, more
than the rest of a CLI call that needs no Bessel function (the ion recoil,
the deuteron and pair thresholds, the crossover), so no module imports it
at load time.  :func:`scipy_bessel` imports it on the first Bessel
evaluation and caches ``jv`` and ``ive`` in a module global; every Bessel
evaluation in the package, here and in :mod:`.beam` and :mod:`.trap`, goes
through it.

``wigner_small_d`` evaluates the finite explicit sum in the Condon-Shortley
convention.  Arguments are canonicalized through the exact index symmetries
first, so sign-mirrored calls reuse bit-identical arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

MAX_ORDER = 64
MAX_ARGUMENT = 1.0e6

_SCIPY_BESSEL = None


def scipy_bessel():
    """``(jv, ive)`` from ``scipy.special``, imported on the first call and
    cached, so later calls cost one global lookup."""
    global _SCIPY_BESSEL
    if _SCIPY_BESSEL is None:
        from scipy.special import ive, jv
        _SCIPY_BESSEL = jv, ive
    return _SCIPY_BESSEL


def check_bessel_domain(n: int, x: float) -> None:
    """Raise DomainError unless n is an integer with |n| <= 64 and x is
    finite with |x| <= 1e6."""
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"Bessel order must be an integer, got {n!r}")
    if abs(int(n)) > MAX_ORDER:
        raise DomainError(f"Bessel order |n| <= {MAX_ORDER} supported, got {n}")
    if not abs(x) <= MAX_ARGUMENT:
        got = x if math.isfinite(x) else "a non-finite value (an input overflows)"
        raise DomainError(f"Bessel argument |x| <= {MAX_ARGUMENT:g} supported, got {got}")


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n (may be negative).

    The symmetries J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x) are
    applied before evaluation, so sign-flipped calls share bit-identical
    arithmetic.  ``scipy.special.jv`` then evaluates J_|n|(|x|): absolute
    error <= ~1e-13 for |x| <= 50, relative (to the envelope sqrt(2/pi x))
    ~1e-12 beyond.
    """
    check_bessel_domain(n, x)
    n = int(n)
    jv, _ = scipy_bessel()
    value = float(jv(abs(n), abs(x)))
    # odd order: one sign flip for n < 0, another for x < 0
    return -value if n % 2 and (x < 0.0) != (n < 0) else value


def bessel_j_array(n: int, x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bessel_j` over an array of arguments: one
    ``scipy.special.jv`` call on |x| with the order and argument signs
    folded in afterwards."""
    x = np.asarray(x, dtype=float)
    check_bessel_domain(n, float(np.max(np.abs(x))) if x.size else 0.0)
    n = int(n)
    jv, _ = scipy_bessel()
    values = jv(abs(n), np.abs(x))
    if n % 2 == 0:
        return values
    flip = (x < 0.0) != (n < 0)
    return np.where(flip, -values, values)


def bessel_first_max(n: int) -> tuple[float, float]:
    """Location and value of the first (global) maximum of |J_n| on x >= 0.

    For n = 0 the maximum sits at x = 0; for n >= 1 it is the first zero
    j'_{n,1} of J_n', from ``scipy.special.jnp_zeros`` (within 1e-15
    relative of mpmath's ``besseljzero(n, 1, derivative=1)`` for
    n = 1...64).  Results are cached per order.
    """
    n = abs(int(n))
    if n > MAX_ORDER:
        raise DomainError(f"Bessel order |n| <= {MAX_ORDER} supported, got {n}")
    cached = _FIRST_MAX_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 0:
        result = (0.0, 1.0)
    else:
        from scipy.special import jnp_zeros
        x = float(jnp_zeros(n, 1)[0])
        result = (x, bessel_j(n, x))
    _FIRST_MAX_CACHE[n] = result
    return result


_FIRST_MAX_CACHE: dict[int, tuple[float, float]] = {}


# --- Wigner small-d ----------------------------------------------------------

def _half_int(value: float, name: str) -> int:
    two = round(2.0 * value)
    if abs(2.0 * value - two) > 1e-9:
        raise DomainError(f"{name} must be integer or half-integer, got {value}")
    return int(two)


def _d_sum(two_j: int, two_mp: int, two_m: int, theta: float) -> float:
    # explicit Condon-Shortley sum; all factorial arguments are integers here
    jpm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    jpmp = (two_j + two_mp) // 2
    jmmp = (two_j - two_mp) // 2
    root = math.sqrt(
        math.factorial(jpmp) * math.factorial(jmmp)
        * math.factorial(jpm) * math.factorial(jmm)
    )
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    mp_minus_m = (two_mp - two_m) // 2
    k_min = max(0, -mp_minus_m)
    k_max = min(jpm, jmmp)
    total = 0.0
    for k in range(k_min, k_max + 1):
        denom = (
            math.factorial(jpm - k) * math.factorial(k)
            * math.factorial(jmmp - k) * math.factorial(k + mp_minus_m)
        )
        phase = -1.0 if (k + mp_minus_m) % 2 else 1.0
        total += (
            phase * root / denom
            * c ** (jpm + jmmp - 2 * k)
            * s ** (2 * k + mp_minus_m)
        )
    return total


def wigner_small_d(j: float, m_f: float, m_i: float, theta: float) -> float:
    """Wigner small-d rotation element d^j_{m_f, m_i}(theta), Condon-Shortley.

    ``j`` and the magnetic numbers may be half-integers but must share
    integer/half-integer character; supported up to j = 3 per the package
    contract (the formula itself is exact for any modest j).
    """
    two_j = _half_int(j, "j")
    two_mf = _half_int(m_f, "m_f")
    two_mi = _half_int(m_i, "m_i")
    if two_j < 0:
        raise DomainError(f"j must be non-negative, got {j}")
    if (two_j - two_mf) % 2 or (two_j - two_mi) % 2:
        raise DomainError(
            f"(j, m_f, m_i)=({j}, {m_f}, {m_i}) must share integer/half-integer character"
        )
    if abs(two_mf) > two_j or abs(two_mi) > two_j:
        raise DomainError(f"|m| <= j required, got (j, m_f, m_i)=({j}, {m_f}, {m_i})")

    # canonicalize via d_{m',m} = (-1)^{m'-m} d_{-m',-m} so that a global sign
    # flip of all magnetic numbers reuses the exact same floating-point sum
    sign = 1.0
    if (two_mf, two_mi) < (-two_mf, -two_mi):
        if ((two_mf - two_mi) // 2) % 2:
            sign = -1.0
        two_mf, two_mi = -two_mf, -two_mi
    return sign * _d_sum(two_j, two_mf, two_mi, theta)
