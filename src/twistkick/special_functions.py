"""Integer-order Bessel functions J_n and e^{-x} I_n, the first-lobe peak of
J_n, and Wigner small-d rotation elements.

This is the only transcendental machinery the physics modules need, and it
is numpy alone, imported by the array functions on first use: a scalar
argument runs on Python floats and ``math``.

**J_0 ... J_n at once** (:func:`bessel_j_orders`).  Three-term recurrences
give every order of one argument for the price of one (Gautschi, SIAM Rev.
9 (1967) 24; DLMF 3.6):

- Where x < 25, or where an order exceeds x, Miller's backward recurrence
  runs from an order far enough above max(n, x) that the truncation has
  died out, two orders a step on the ratios x J_{k-1}/J_k and
  x^2 J_{k-2}/J_k, and is normalised by J_0 + 2 sum_k J_{2k} = 1 (DLMF
  10.12.4).  The scaled ratios neither overflow nor vanish, so tiny
  arguments need no rescaling.
- For x >= 25 and every order below x, J_0 and J_1 come from Hankel's
  expansion (DLMF 10.17.3) and the forward recurrence, which is stable while
  the order stays below x.

The start order of the backward recurrence depends on the argument only
through its octave (2^(e-1) <= x < 2^e, all x < 4 alike), so an array of
arguments runs one recurrence per octave; an array of at most 8 arguments
runs the float recurrence of a scalar argument once per element.
``bessel_j`` and ``bessel_j_array`` read orders 0...8 from tables of top
order 8 and orders 9...64 from tables of top order 64.  A table's
recurrences stop at the highest order its caller reads but start where its
top order puts them, so a value never depends on the other orders or
arguments of the call: the scalar and the array function agree bit for
bit.  Both enforce the package contract
(integer order |n| <= 64, finite argument |x| <= 1e6) and canonicalize
signs through J_{-n}(x) = (-1)^n J_n(x) = J_n(-x).

**e^{-x} I_0 ... I_n** (:func:`bessel_i_scaled_orders`).  The same backward
recurrence, I_k/I_{k-1} = 1/(2k/x + I_{k+1}/I_k), normalised by
e^{-x} (I_0 + 2 sum_k I_k) = 1 (DLMF 10.35.5).  Beyond x = 4 n^2 + 1e3 the
large-argument expansion (DLMF 10.40.1) gives the top two orders and the
backward recurrence, which only adds there, the rest.

**First maximum of J_n** (:func:`bessel_first_max`): the root of
x J_{n-1} = n J_n, the stationary point that
:func:`first_lobe_peak_argument` finds by ITP on the ratio
x J_{n-1}/J_n = 2n - x J_{n+1}/J_n, itself a backward recurrence that needs
no normalisation.

``wigner_small_d`` evaluates the finite explicit sum in the Condon-Shortley
convention; the factorial coefficients of each (j, m', m) are computed once
and cached.  Arguments are canonicalized through the exact index symmetries
first, so sign-mirrored calls reuse bit-identical arithmetic.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

from .errors import DomainError, shown
from .units import check

MAX_ORDER = 64
MAX_ARGUMENT = 1.0e6

#: from here on J_0 and J_1 come from Hankel's expansion
HANKEL_MIN_X = 25.0
#: top orders of the tables ``bessel_j`` and ``bessel_j_array`` read from
_BANDS = (8, MAX_ORDER)
#: up to this many arguments a table is one float recurrence per argument:
#: numpy's cost per call exceeds the arithmetic below about 16 arguments
_FEW_ARGUMENTS = 8


def _hankel_coefficients(nu: int, terms: int) -> tuple[list[float], list[float]]:
    # (-1)^k a_{2k}(nu) and (-1)^k a_{2k+1}(nu) of DLMF 10.17.3, as Horner
    # coefficients in 1/x^2, highest first
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    even = [(-1) ** k * a[2 * k] for k in range(terms)]
    odd = [(-1) ** k * a[2 * k + 1] for k in range(terms)]
    return even[::-1], odd[::-1]


# 15 terms each put the truncation below 1e-17 of J at x = 25
_HANKEL = [_hankel_coefficients(nu, 15) for nu in (0, 1)]


def _hankel_j01(x):
    """J_0(x) and J_1(x) for x >= 25 from Hankel's expansion, with the phases
    x - pi/4 and x - 3 pi/4 taken through cos x and sin x: ``math``'s for a
    float x, numpy's for an array, which agree bit for bit (a test checks)."""
    w = 1.0 / (x * x)
    pq = []
    for even, odd in _HANKEL:
        p = q = 0.0
        for c_even, c_odd in zip(even, odd):
            p = p * w + c_even
            q = q * w + c_odd
        pq.append((p, q / x))
    (p0, q0), (p1, q1) = pq
    if isinstance(x, float):
        c, s, scale = math.cos(x), math.sin(x), 1.0 / math.sqrt(math.pi * x)
    else:
        import numpy as np
        c, s, scale = np.cos(x), np.sin(x), 1.0 / np.sqrt(np.pi * x)
    return scale * (p0 * (c + s) - q0 * (s - c)), scale * (p1 * (s - c) + q1 * (s + c))


def _forward(rows: int, x) -> list:
    """J_0 ... J_{rows-1}(x), x >= max(25, rows - 1): Hankel, then upward."""
    j0, j1 = _hankel_j01(x)
    values = [j0, j1]
    for k in range(1, rows - 1):
        values.append(2 * k / x * values[k] - values[k - 1])
    return values[:rows]


@functools.lru_cache(maxsize=1024)
def _start_order(n: int, x: float) -> int:
    """Even order from which the backward recurrence reaches orders <= n at
    arguments <= x with a truncation below 1e-17 of min(1, sqrt(2/(pi x)))
    (fitted to the converged recurrence for n <= 340, x <= 512).  Callers
    pass x as a power-of-two octave or a first-lobe bracket, so the keys are
    few and a float Bessel row reads its start order from the cache."""
    cube = 12.0 * x ** (1.0 / 3.0)
    start = max(x + cube + 2.0, n + 8.0 + cube * min(1.0, x * x / max(n, 1) ** 2))
    return 2 * math.ceil(0.5 * start)


def _miller(rows: int, x, start: int) -> list:
    """J_0 ... J_{rows-1}(x) by the backward recurrence from ``start`` (even),
    two orders a step, normalised by J_0 + 2 sum J_2k = 1.  Every step runs
    whatever ``rows`` is; only the ratios below order ``rows`` are kept.

    At even k the step carries t = x J_{k-1}/J_k = 2k - w t', d =
    x^2 J_{k-2}/J_k = 2(k-1) t - x^2 and w = x^2/d = J_k/J_{k-2}, and the
    sum s of J_j/J_k over even j >= k becomes 1 + s w.  Scaled by x these
    neither overflow nor vanish as x -> 0, and each step divides once.
    Where x lies within rounding of a zero of some J_k the recurrence
    divides by zero: a float x raises ZeroDivisionError, an array element
    comes out NaN (``0 * s`` turns an infinite sum into NaN)."""
    x2 = x * x
    t = w = 0.0 * x
    s = 1.0 + t
    pairs = [(t, t)] * (rows // 2)  # (J_{k-1}/J_{k-2}, J_k/J_{k-2}), k = 2, 4, ...
    for k in range(start, 0, -2):
        t = 2 * k - w * t
        d = (2 * k - 2) * t - x2
        w = x2 / d
        s = s * w + 1.0
        if k <= rows:
            pairs[k // 2 - 1] = (x * t / d, w)
    value = 1.0 / (2.0 * s - 1.0) + 0.0 * s
    values = [value]
    for odd, even in pairs:
        values.append(value * odd)
        value = value * even
        values.append(value)
    return values[:rows]


def _miller_retry(rows: int, x, start: int) -> list:
    # _miller, at the next float up where x is (within rounding) a zero of
    # some J_k; the scalar and the array path step alike
    if isinstance(x, float):
        while True:
            try:
                return _miller(rows, x, start)
            except ZeroDivisionError:
                x = math.nextafter(x, math.inf)
    import numpy as np
    values = np.array(_miller(rows, x, start))
    bad = np.isnan(values[0]) & np.isfinite(x)  # a NaN argument stays NaN
    while bad.any():
        x = np.where(bad, np.nextafter(x, math.inf), x)
        values[:, bad] = np.array(_miller(rows, x[bad], start))
        bad = np.isnan(values[0]) & np.isfinite(x)
    return values


def _j_list(n_max: int, x: float, rows: int) -> list:
    # bessel_j_orders at one float argument, as a list of floats
    if x == 0.0:
        return [1.0] + [0.0] * (rows - 1)
    if x >= max(HANKEL_MIN_X, n_max):
        return _forward(rows, x)
    octave = max(math.ldexp(1.0, math.frexp(x)[1]), 4.0)  # as in bessel_j_orders
    return _miller_retry(rows, x, _start_order(n_max, octave))


def _j_row(orders: list[int], x: float) -> list[float]:
    # bessel_j_array(orders, x) at one float x >= 0 and orders |n| <= 64, as a
    # list of floats: one table per band, as there, so the same bits
    top = max(map(abs, orders))
    table = _j_list(_BANDS[0], x, min(top, _BANDS[0]) + 1)
    if top > _BANDS[0]:
        table += _j_list(_BANDS[1], x, top + 1)[_BANDS[0] + 1:]
    return [-table[-n] if n < 0 and n % 2 else table[abs(n)] for n in orders]


def bessel_j_orders(n_max: int, x, rows: int | None = None) -> np.ndarray:
    """J_0(x) ... J_{n_max}(x) for every argument x >= 0 (finite) of a scalar
    or array ``x``: shape (rows,) + shape(x), with rows = n_max + 1 unless
    fewer are asked for.

    Miller's backward recurrence where x < max(25, n_max), Hankel's
    expansion and the forward recurrence elsewhere (module docstring).  The
    start order depends on n_max and on the octave of x, so a value depends
    on n_max but never on the other orders or arguments, and an array of at
    most 8 arguments runs as that many scalar calls.  Fewer ``rows`` stop
    the recurrences early, not their start: the first rows of the full
    table, bit for bit.  Absolute error below 5e-14 of min(1,
    sqrt(2/(pi x))) for n_max <= 340.  No domain check: callers pass
    |x| <= 1e6.
    """
    import numpy as np
    n_max = int(n_max)
    rows = n_max + 1 if rows is None else int(rows)
    if np.ndim(x) == 0:
        return np.array(_j_list(n_max, float(x), rows), dtype=float)
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    table = np.empty((rows, flat.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if flat.size <= _FEW_ARGUMENTS:
            # the same arithmetic on floats, so the same bits
            for i, value in enumerate(flat.tolist()):
                table[:, i] = _j_list(n_max, value, rows)
            return table.reshape((rows,) + x.shape)
        forward = flat >= max(HANKEL_MIN_X, n_max)
        # the start-order argument of each x: 2^e with 2^(e-1) <= x < 2^e, at
        # least 4; each one once, ascending (np.unique would load numpy.ma)
        octaves = np.maximum(np.ldexp(1.0, np.frexp(flat)[1]), 4.0)
        ordered = np.sort(octaves[~forward])
        distinct = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
        groups = [(forward, None)] + [
            (~forward & (octaves == octave), octave) for octave in distinct]
        for mask, octave in groups:
            whole = bool(mask.all())
            if not whole and not mask.any():
                continue
            xs = flat if whole else flat[mask]
            if octave is None:
                values = _forward(rows, xs)
            else:
                values = _miller_retry(rows, xs, _start_order(n_max, float(octave)))
            if whole:
                table[:] = values
            else:
                table[:, mask] = values
    return table.reshape((rows,) + x.shape)


def check_bessel_domain(n: int, x: float) -> None:
    """Raise DomainError unless n is an integer with |n| <= 64 and x is
    finite with |x| <= 1e6."""
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"Bessel order must be an integer, got {shown(n)}")
    if abs(int(n)) > MAX_ORDER:
        raise DomainError(f"Bessel order |n| <= {MAX_ORDER} supported, got {shown(n)}")
    check_bessel_argument(x)


def check_bessel_argument(x: float) -> None:
    """Raise DomainError unless x is finite with |x| <= 1e6."""
    if not abs(x) <= MAX_ARGUMENT:
        raise DomainError(f"Bessel argument |x| <= {MAX_ARGUMENT:g} supported, got {shown(x)}")


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n (may be negative).

    The symmetries J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x) are
    applied before evaluation, so sign-flipped calls share bit-identical
    arithmetic; J_|n|(|x|) is read from :func:`bessel_j_orders` (absolute
    error below 5e-14 of min(1, sqrt(2/(pi |x|)))).
    """
    check_bessel_domain(n, x)
    n = int(n)
    top = _BANDS[0] if abs(n) <= _BANDS[0] else _BANDS[1]
    value = float(_j_list(top, abs(float(x)), abs(n) + 1)[-1])
    # odd order: one sign flip for n < 0, another for x < 0
    return -value if n % 2 and (x < 0.0) != (n < 0) else value


def bessel_j_array(n, x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bessel_j`: J_n(x) with the integer order ``n`` (a
    scalar or an array) broadcast against the arguments ``x``.

    One domain check over the largest order and argument, one table per
    band of the orders up to the largest at |x|, and one ``np.where``
    folding in the signs, so each element is bit-identical to the scalar
    call; an order column of shape (k, 1) against x of shape (m,) gives the
    (k, m) table."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    order = np.asarray(n)
    # the widest of integer orders stands for all; a float order, or an int
    # beyond int64, goes to the check as given, which rejects it
    widest = int(order.flat[np.abs(order).argmax()]) if order.dtype.kind in "iu" else n
    magnitude = np.abs(x)
    check_bessel_domain(widest, float(magnitude.max()) if x.size else 0.0)
    # J_0 ... J_|widest|(|x|), each order from the table of its band
    n_top = abs(widest)
    table = bessel_j_orders(_BANDS[0], magnitude, min(n_top, _BANDS[0]) + 1)
    if n_top > _BANDS[0]:
        table = np.concatenate(
            [table, bessel_j_orders(_BANDS[1], magnitude, n_top + 1)[_BANDS[0] + 1:]])
    index = np.abs(order)
    values = table[(index,) + np.indices(x.shape, sparse=True)] if index.ndim else table[index]
    # odd order: one sign flip for n < 0, another for x < 0
    return np.where((order % 2 == 1) & ((x < 0.0) != (order < 0)), -values, values)


def bessel_i_scaled_orders(n_max: int, x: float) -> list[float]:
    """e^{-x} I_0(x) ... e^{-x} I_{n_max}(x) at one argument x >= 0, as a
    list of floats.

    Below x = 4 n_max^2 + 1e3 the backward ratio recurrence runs from an
    order where I_k/I_{n_max} < 1e-20 and is normalised by
    e^{-x}(I_0 + 2 sum_k I_k) = 1; beyond it, the large-argument expansion
    (DLMF 10.40.1) gives orders n_max and n_max + 1 and the recurrence
    I_{k-1} = I_{k+1} + (2k/x) I_k the rest.  Relative error below 5e-14.
    """
    n_max, x = int(n_max), float(x)
    if x == 0.0:
        return [1.0] + [0.0] * n_max
    if x > 4.0 * n_max * n_max + 1e3:
        upper, top = (_i_scaled_expansion(nu, x) for nu in (n_max + 1, n_max))
        values = [top]
        for k in range(n_max, 0, -1):
            upper, top = top, upper + 2 * k / x * top
            values.append(top)
        return values[::-1]
    start = 2 * math.ceil(0.5 * math.sqrt(n_max * n_max + 92.0 * x)) + 10
    p = 0.0
    s = 1.0
    ratios = [p] * (n_max + 1)  # I_{k+1}/I_k at index k
    for k in range(start, 0, -2):
        q = 1.0 / (2 * k / x + p)  # I_k / I_{k-1}
        p = 1.0 / ((2 * k - 2) / x + q)  # I_{k-1} / I_{k-2}
        s = 1.0 + (1.0 + s * q) * p
        if k <= n_max + 1:
            ratios[k - 1] = q
            ratios[k - 2] = p
    value = 1.0 / (2.0 * s - 1.0)
    values = [value]
    for p in ratios[:n_max]:
        value = value * p
        values.append(value)
    return values


def _i_scaled_expansion(nu: int, x: float) -> float:
    # DLMF 10.40.1 summed until a term is below 1e-17 of the sum; for
    # x > 4 nu^2 + 1e3 the terms fall at least eightfold per order
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * total:
        k += 1
        term *= -(4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
    return total / math.sqrt(2.0 * math.pi * x)


def _first_lobe_bracket(l: int) -> float:
    # between the first maximum j'_{l,1} ~ l + 0.81 l^(1/3) (tests check
    # l = 1...64 against mpmath) and the first zero of J_l, which exceeds
    # l + 1.8557 l^(1/3) (Qu and Wong, Trans. Amer. Math. Soc. 351 (1999) 2833)
    return l + 1.33 * l ** (1.0 / 3.0)


def _lobe_ratio(l: int, x: float, start: int) -> float:
    # x J_{l-1}(x)/J_l(x) = 2l - x J_{l+1}(x)/J_l(x), the ratio from the
    # backward recurrence from ``start`` (x > 0)
    q = 0.0
    for k in range(start, l, -1):
        q = 1.0 / (2 * k / x - q)
    return 2.0 * l - x * q


def first_lobe_peak_argument(l_gamma: int, envelope_slope) -> float:
    """The root x below the first maximum j'_{l,1} of J_l, l = |l_gamma| in
    1...64, of x J_{l-1}(x)/J_l(x) = l + s(x): the first-lobe stationary
    point of J_l(x) times an envelope of log-slope -s(x) = x d/dx
    ln(envelope).  There x J_l'/J_l = x J_{l-1}/J_l - l falls from l to 0,
    so for a non-negative, non-decreasing s = ``envelope_slope`` the root is
    unique (0.0 where s(0) >= l leaves none).  The ratio tends to 2l as
    x -> 0, so no underflow of J_l can stop it.

    ITP (Oliveira and Takahashi, ACM TOMS 47 (2020) 5; kappa1 = 0.2/hi,
    kappa2 = 2, n0 = 1, epsilon half the float spacing at hi) narrows the
    bracket (0, hi) below the first zero of J_l to adjacent floats and
    returns their midpoint, in about 20 evaluations of the ratio instead of
    bisection's 54.  A point counts as below the root exactly where
    bisection counted it so, ratio > l + s(x), so both end on the same two
    floats."""
    l = abs(int(l_gamma))
    if not 1 <= l <= MAX_ORDER:
        raise DomainError(f"first-lobe order 1 <= |l| <= {MAX_ORDER} supported, "
                          f"got {shown(l_gamma)}")
    lo, hi = 0.0, _first_lobe_bracket(l)
    # f(x) = ratio - (l + s(x)), whose sign fl() keeps; f(0) is its limit
    f_lo = l - envelope_slope(0.0)
    if not f_lo > 0.0:
        return 0.0
    start = _start_order(l + 1, hi)
    f_hi = _lobe_ratio(l, hi, start) - (l + envelope_slope(hi))
    kappa1 = 0.2 / hi
    # epsilon 2^(n_max - j), n_max = 54: no bracket after step j is wider
    reach = 2.0 ** math.frexp(hi)[1]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        width = hi - lo
        # regula falsi, moved kappa1 width^2 (at least one unit in the last
        # place, so that a converged estimate still steps across the root)
        # towards mid and kept within reach - width/2 of it; a point off
        # (lo, hi), or NaN, becomes mid
        fall = f_lo - f_hi
        x = lo + f_lo / fall * width if fall > 0.0 else mid
        toward = 1.0 if x <= mid else -1.0
        delta = max(kappa1 * width * width, math.ulp(mid))
        x = x + toward * delta if delta <= abs(mid - x) else mid
        radius = reach - 0.5 * width
        if not abs(x - mid) <= radius:
            x = mid - toward * radius
        if not lo < x < hi:
            x = mid
        reach *= 0.5
        f = _lobe_ratio(l, x, start) - (l + envelope_slope(x))
        if f > 0.0:
            lo, f_lo = x, f
        else:
            hi, f_hi = x, f


def bessel_first_max(n: int) -> tuple[float, float]:
    """Location and value of the first (global) maximum of |J_n| on x >= 0.

    For n = 0 the maximum sits at x = 0; for n >= 1 it is the first zero
    j'_{n,1} of J_n', the root of x J_{n-1} = n J_n that
    :func:`first_lobe_peak_argument` finds with a zero envelope slope.
    Results are cached per order.
    """
    n = abs(int(n))
    if n > MAX_ORDER:
        raise DomainError(f"Bessel order |n| <= {MAX_ORDER} supported, got {shown(n)}")
    cached = _FIRST_MAX_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 0:
        result = (0.0, 1.0)
    else:
        x = first_lobe_peak_argument(n, lambda x: 0.0)
        result = (x, bessel_j(n, x))
    _FIRST_MAX_CACHE[n] = result
    return result


_FIRST_MAX_CACHE: dict[int, tuple[float, float]] = {}


# --- Wigner small-d ----------------------------------------------------------

def _half_int(value: float, name: str) -> int:
    """2 * value as an integer; DomainError unless 2 * value is finite and
    ``value`` an integer or half-integer."""
    if not abs(value) <= 0.5 * sys.float_info.max:  # also False for NaN
        raise DomainError(f"{name} must be an integer or half-integer of magnitude at most "
                          f"{0.5 * sys.float_info.max:g}, got {shown(value)}")
    two = round(2.0 * value)
    if abs(2.0 * value - two) > 1e-9:
        raise DomainError(f"{name} must be integer or half-integer, got {value}")
    return int(two)


@functools.lru_cache(maxsize=1024)
def _d_terms(two_j: int, two_mp: int, two_m: int) -> tuple[tuple[float, int, int], ...]:
    # the explicit Condon-Shortley sum as (coefficient, power of cos(theta/2),
    # power of sin(theta/2)) per term; all factorial arguments are integers here
    jpm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    jpmp = (two_j + two_mp) // 2
    jmmp = (two_j - two_mp) // 2
    root = math.sqrt(
        math.factorial(jpmp) * math.factorial(jmmp)
        * math.factorial(jpm) * math.factorial(jmm)
    )
    mp_minus_m = (two_mp - two_m) // 2
    terms = []
    for k in range(max(0, -mp_minus_m), min(jpm, jmmp) + 1):
        denom = (
            math.factorial(jpm - k) * math.factorial(k)
            * math.factorial(jmmp - k) * math.factorial(k + mp_minus_m)
        )
        phase = -1.0 if (k + mp_minus_m) % 2 else 1.0
        terms.append((phase * root / denom, jpm + jmmp - 2 * k, 2 * k + mp_minus_m))
    return tuple(terms)


def wigner_small_d(j: float, m_f: float, m_i: float, theta: float) -> float:
    """Wigner small-d rotation element d^j_{m_f, m_i}(theta), Condon-Shortley.

    ``j`` and the magnetic numbers may be half-integers but must share
    integer/half-integer character; supported up to j = 3 per the package
    contract (the formula itself is exact for any modest j), and accepted
    up to j = 49, where its factorials stay within the floating-point range.
    """
    two_j = _half_int(check(j, "j"), "j")
    two_mf = _half_int(m_f, "m_f")
    two_mi = _half_int(m_i, "m_i")
    theta = check(theta, "theta")
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
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    total = 0.0
    for coefficient, cos_power, sin_power in _d_terms(two_j, two_mf, two_mi):
        total += coefficient * c ** cos_power * s ** sin_power
    return sign * total
