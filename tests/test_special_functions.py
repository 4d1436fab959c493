import math
import random

import mpmath
import numpy as np
import pytest

from oracles import bisection_first_lobe_peak_argument as bisection
from twistkick.errors import DomainError
from twistkick.special_functions import (
    _first_lobe_bracket,
    _hankel_j01,
    _lobe_ratio,
    _start_order,
    bessel_first_max,
    bessel_i_scaled_orders,
    bessel_j,
    bessel_j_array,
    bessel_j_orders,
    first_lobe_peak_argument,
    wigner_small_d,
)


def series_oracle(n: int, x: float) -> float:
    """Independent ascending-series evaluation (plain sum, no dispatch)."""
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, 300):
        term *= -half * half / (k * (n + k))
        total += term
        if abs(term) < 1e-25:
            break
    return total


def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_j1_small_argument_leading_term():
    # J_1(x) ~ x/2
    assert bessel_j(1, 1e-8) == pytest.approx(5e-9, abs=1e-12)


def test_first_j0_root_bracketed_bisection():
    # bracketed bisection on the independent series oracle
    lo, hi = 2.0, 3.0
    assert series_oracle(0, lo) > 0 > series_oracle(0, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series_oracle(0, mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert 2.40 < root < 2.41
    assert bessel_j(0, root) == pytest.approx(0.0, abs=1e-13)


def test_negative_order_symmetry_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        x = float(rng.uniform(0.01, 60.0))
        sign = -1.0 if n % 2 else 1.0
        assert bessel_j(-n, x) == sign * bessel_j(n, x)


def test_negative_argument_symmetry():
    assert bessel_j(3, -2.5) == -bessel_j(3, 2.5)
    assert bessel_j(4, -2.5) == bessel_j(4, 2.5)


def test_recurrence_relation():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x), 1e-9 relative
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        x = float(rng.uniform(0.1, 50.0))
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = 2.0 * n / x * bessel_j(n, x)
        scale = max(abs(lhs), abs(rhs), 1e-3)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_against_mpmath_moderate_range():
    mpmath.mp.dps = 30
    rng = np.random.default_rng(19)
    for _ in range(800):
        n = int(rng.integers(0, 65))
        x = float(rng.uniform(0.0, 50.0))
        assert bessel_j(n, x) == pytest.approx(float(mpmath.besselj(n, x)), abs=1e-12)


def test_against_mpmath_large_arguments():
    mpmath.mp.dps = 30
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(0, 65))
        x = float(10.0 ** rng.uniform(1.7, 6.0))
        envelope = math.sqrt(2.0 / (math.pi * x))
        assert abs(bessel_j(n, x) - float(mpmath.besselj(n, x))) <= 1e-10 * envelope


def test_against_mpmath_spot_checks():
    mpmath.mp.dps = 30
    cases = [(0, 2.5), (1, 10.0), (7, 123.456), (64, 50.0), (64, 12001.0),
             (32, 5000.0), (3, 1e6), (64, 1e6)]
    for n, x in cases:
        reference = float(mpmath.besselj(n, x))
        envelope = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
        assert abs(bessel_j(n, x) - reference) <= 1e-10 * max(envelope, abs(reference))


def test_array_matches_scalar():
    xs = np.array([0.0, 1e-9, 0.3, 9.99, 10.01, 77.7, 5e4, -3.2])
    for n in (-3, 0, 1, 5):
        scalars = np.array([bessel_j(n, float(x)) for x in xs])
        assert np.array_equal(bessel_j_array(n, xs), scalars)
    # an order column broadcast against the arguments: one call, every order
    orders = np.arange(-4, 5)
    table = bessel_j_array(orders[:, None], xs)
    assert table.shape == (orders.size, xs.size)
    for n, row in zip(orders.tolist(), table):
        assert np.array_equal(row, [bessel_j(n, float(x)) for x in xs])
    # up to 8 arguments a table is one float recurrence per argument; beyond,
    # numpy arrays: each column of either equals the other's, in 1-D and 2-D,
    # also on the zeros of J_0 ... J_5, where both step to the next float
    zeros = [float(mpmath.besseljzero(n, k)) for n in range(6) for k in (1, 2)]
    rng = np.random.default_rng(8)
    pool = np.concatenate([zeros, 10.0 ** rng.uniform(-3.0, 4.0, 20), [0.0, 25.0, 70.0]])
    for n_max in (0, 5, 8, 40, 64):
        numpy_path = bessel_j_orders(n_max, pool)
        for size in range(11):
            index = rng.choice(pool.size, size, replace=False)
            assert np.array_equal(bessel_j_orders(n_max, pool[index]), numpy_path[:, index])
            assert np.array_equal(bessel_j_orders(n_max, pool[index].reshape(1, size)),
                                  numpy_path[:, index].reshape(n_max + 1, 1, size))
            for n in (0, 1, min(n_max, 7)):
                assert np.array_equal(bessel_j_array(n, pool[index]),
                                      [bessel_j(n, x) for x in pool[index].tolist()])
    grid = pool[:12].reshape(3, 4)  # a 2-D table beyond the float loop
    assert np.array_equal(bessel_j_orders(9, grid),
                          bessel_j_orders(9, pool[:12]).reshape(10, 3, 4))


def test_hankel_float_path_matches_array_path():
    # a float argument takes math.cos, math.sin and math.sqrt, an array
    # numpy's: the scalar Bessel functions equal the array ones only where
    # libm and numpy agree bit for bit
    rng = np.random.default_rng(16)
    xs = np.concatenate([rng.uniform(25.0, 1e6, 20000),
                         10.0 ** rng.uniform(math.log10(25.0), 6.0, 20000), [25.0, 1e6]])
    j0, j1 = _hankel_j01(xs)
    floats = [_hankel_j01(x) for x in xs.tolist()]
    assert all(type(value) is float for pair in floats[:3] for value in pair)
    assert np.array_equal(j0, [pair[0] for pair in floats])
    assert np.array_equal(j1, [pair[1] for pair in floats])


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(65, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, 2e6)
    with pytest.raises(DomainError):
        bessel_j(0, math.nan)
    with pytest.raises(DomainError):
        bessel_j(1.5, 1.0)  # type: ignore[arg-type]


def test_first_max_j1():
    x, val = bessel_first_max(1)
    assert x == pytest.approx(1.8412, rel=1e-3)
    assert val == pytest.approx(0.5819, rel=1e-3)


def test_first_max_matches_mpmath_derivative_zero():
    mpmath.mp.dps = 30
    for n in range(1, 65):
        x, value = bessel_first_max(n)
        first_max = float(mpmath.besseljzero(n, 1, derivative=1))
        assert x == pytest.approx(first_max, rel=1e-14, abs=0.0)
        # the bisection bracket lies above the first maximum and below the
        # Qu-Wong lower bound n + 1.8557 n^(1/3) of the first zero of J_n
        assert first_max < _first_lobe_bracket(n) < n + 1.8557 * n ** (1.0 / 3.0)
        assert value == bessel_j(n, x)
        assert bessel_first_max(-n) == (x, value)
    assert bessel_first_max(0) == (0.0, 1.0)


def _envelope(x):
    return min(1.0, math.sqrt(2.0 / (math.pi * x))) if x > 0.0 else 1.0


@pytest.mark.parametrize("regime, n_max, xs", [
    # Miller's backward recurrence below x = 25
    ("small", 64, 10.0 ** np.linspace(-6.0, math.log10(24.99), 40)),
    # orders above x >= 25: Miller normalised over every order up to x
    ("order-above", 340, np.linspace(25.0, 339.0, 24)),
    # Hankel's expansion and the forward recurrence up to x = 1e6
    ("large", 64, 10.0 ** np.linspace(math.log10(64.0), 6.0, 30)),
    ("large-wide", 340, np.array([341.3, 500.0, 2345.6, 1e5, 1e6])),
])
def test_bessel_j_orders_against_mpmath(regime, n_max, xs):
    # one table for all arguments, every order checked against mpmath within
    # 5e-14 of the envelope min(1, sqrt(2/(pi x)))
    mpmath.mp.dps = 30
    rng = np.random.default_rng(41)
    table = bessel_j_orders(n_max, xs)
    assert table.shape == (n_max + 1, xs.size)
    for i, x in enumerate(xs.tolist()):
        for n in {0, 1, n_max, *rng.integers(0, n_max + 1, 4).tolist()}:
            reference = float(mpmath.besselj(n, x))
            assert abs(table[n, i] - reference) <= 5e-14 * _envelope(x), (n, x)
        assert np.array_equal(table[:, i], bessel_j_orders(n_max, x))


def test_bessel_j_orders_relative_accuracy_where_j_is_tiny():
    # below its turning point J_n(x) is kept to its last digits, not only
    # to the envelope
    mpmath.mp.dps = 30
    for n, x in [(3, 1e-3), (64, 1e-3), (40, 2.0), (64, 30.0), (30, 1e-6), (276, 100.0)]:
        reference = float(mpmath.besselj(n, x))
        assert bessel_j_orders(n, x)[n] == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_scalar_and_array_agree_at_zeros():
    # arguments within rounding of a zero of J_0 ... J_3 make the recurrence
    # divide by zero; both paths step to the next float alike
    xs = []
    for n in range(4):
        for k in (1, 2, 3):
            xs.append(float(mpmath.besseljzero(n, k)))
    xs = np.array(xs)
    for n in range(9):
        array = bessel_j_array(n, xs)
        assert np.isfinite(array).all()
        assert np.array_equal(array, [bessel_j(n, float(x)) for x in xs])
        assert np.abs(array - [float(mpmath.besselj(n, x)) for x in xs]).max() <= 1e-15


def test_bessel_i_scaled_against_mpmath():
    # e^{-x} I_l(x) over x in [1e-6, 3.9e9] and l <= 276, relative 5e-14;
    # x < 1 is where scipy's ive is off by up to 1.7e-13
    mpmath.mp.dps = 30
    rng = np.random.default_rng(43)
    xs = list(10.0 ** rng.uniform(-6.0, math.log10(3.9e9), 40)) + [1e-6, 0.3, 745.0]
    for x in xs:
        for n_max in (0, 3, 64, 276):
            values = bessel_i_scaled_orders(n_max, x)
            for n in {0, n_max // 2, n_max}:
                reference = float(mpmath.besseli(n, x) * mpmath.exp(-x))
                assert values[n] == pytest.approx(reference, rel=5e-14, abs=1e-300), (n, x)


@pytest.mark.parametrize("n_max", [0, 1, 64])
def test_bessel_i_scaled_continuous_across_expansion_switch(n_max):
    # the recurrence hands over to DLMF 10.40.1 at x = 4 n_max^2 + 1e3
    mpmath.mp.dps = 30
    switch = 4.0 * n_max * n_max + 1e3
    for x in (math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)):
        values = bessel_i_scaled_orders(n_max, x)
        for n in range(n_max + 1):
            reference = float(mpmath.besseli(n, x) * mpmath.exp(-x))
            assert values[n] == pytest.approx(reference, rel=5e-15)


def test_first_zero_above_qu_wong_bound():
    mpmath.mp.dps = 30
    for n in (1, 8, 64):
        assert float(mpmath.besseljzero(n, 1)) > n + 1.8557 * n ** (1.0 / 3.0)


def test_first_lobe_ratio_against_mpmath():
    # x J_{l-1}(x)/J_l(x) from the unnormalised backward recurrence
    mpmath.mp.dps = 30
    for l in range(1, 65):
        hi = _first_lobe_bracket(l)
        start = _start_order(l + 1, hi)
        for x in (1e-3 * hi, 0.5 * hi, 0.9 * hi, hi):
            reference = float(x * mpmath.besselj(l - 1, x) / mpmath.besselj(l, x))
            assert _lobe_ratio(l, x, start) == pytest.approx(reference, rel=3e-15)


def test_first_lobe_peak_argument_with_slope():
    # the root of x J_{l-1} = (l + s) J_l for a constant envelope slope s
    mpmath.mp.dps = 30
    for l, slope in [(1, 0.5), (3, 1.0), (64, 2.0)]:
        x = first_lobe_peak_argument(l, lambda x: slope)
        reference = mpmath.findroot(
            lambda t: t * mpmath.besselj(l - 1, t) - (l + slope) * mpmath.besselj(l, t), x)
        assert x == pytest.approx(float(reference), rel=1e-14)
    with pytest.raises(DomainError):
        first_lobe_peak_argument(65, lambda x: 0.0)


# ITP must end on the two floats the bisection it replaced ended on
def test_first_lobe_root_is_the_bisection_root_for_every_order():
    for n in range(1, 65):
        x = bisection(n, lambda x: 0.0)
        assert first_lobe_peak_argument(n, lambda x: 0.0).hex() == x.hex()
        assert first_lobe_peak_argument(-n, lambda x: 0.0).hex() == x.hex()
        assert bessel_first_max(n) == (x, bessel_j(n, x))


def test_first_lobe_root_is_the_bisection_root_for_constant_slopes():
    rng = random.Random(20)
    for l in range(1, 65):
        for slope in [rng.uniform(0.0, l) for _ in range(10)] + [0.999999 * l]:
            envelope = lambda x, slope=slope: slope
            assert first_lobe_peak_argument(l, envelope).hex() == \
                bisection(l, envelope).hex(), (l, slope)


def test_first_lobe_root_is_the_bisection_root_for_quadratic_slopes():
    # s = 2 x^2/scale^2, the profile peak's slope, at scales 1e-1 ... 1e5
    rng = random.Random(21)
    for l in range(1, 65):
        for scale in [10.0 ** rng.uniform(-1.0, 5.0) for _ in range(10)]:
            envelope = lambda x, scale=scale: 2.0 * (x / scale) * (x / scale)
            assert first_lobe_peak_argument(l, envelope).hex() == \
                bisection(l, envelope).hex(), (l, scale)


@pytest.mark.parametrize("slope", [
    lambda l, x: l, lambda l, x: l + 1.0, lambda l, x: 2.0 * l + x, lambda l, x: math.inf,
    lambda l, x: math.nan, lambda l, x: -math.inf, lambda l, x: -5.0 * l,
    lambda l, x: 1e300 * x, lambda l, x: l - 1e-12,
], ids=["s=l", "s=l+1", "s>2l", "s=inf", "s=nan", "s=-inf", "f(hi)>0", "s=1e300x",
        "s~l"])
def test_first_lobe_root_of_a_degenerate_bracket_is_the_bisection_root(slope):
    # no sign change, or none below hi, or a root next to 0: ITP returns
    # what bisection returns, 0.0 where f <= 0 throughout
    for l in (1, 2, 17, 64):
        envelope = lambda x, l=l: slope(l, x)
        assert first_lobe_peak_argument(l, envelope).hex() == bisection(l, envelope).hex()


# --- Wigner small-d -----------------------------------------------------------

def test_identity_rotation():
    assert wigner_small_d(1, 1, 1, 0.0) == 1.0
    for j in (0.5, 1, 1.5, 2, 2.5, 3):
        two_j = round(2 * j)
        ms = [(-two_j + 2 * k) / 2.0 for k in range(two_j + 1)]
        for mf in ms:
            for mi in ms:
                expected = 1.0 if mf == mi else 0.0
                assert abs(wigner_small_d(j, mf, mi, 0.0) - expected) <= 1e-15


def test_j1_closed_form():
    theta = 0.3
    assert wigner_small_d(1, 1, 1, theta) == pytest.approx(
        (1.0 + math.cos(theta)) / 2.0, abs=1e-14
    )
    assert wigner_small_d(1, 0, 1, theta) == pytest.approx(
        math.sin(theta) / math.sqrt(2.0), abs=1e-14
    )
    assert wigner_small_d(1, -1, 1, theta) == pytest.approx(
        (1.0 - math.cos(theta)) / 2.0, abs=1e-14
    )
    assert wigner_small_d(1, 0, 0, theta) == pytest.approx(math.cos(theta), abs=1e-14)


def test_half_integer_closed_form():
    theta = 0.77
    assert wigner_small_d(0.5, 0.5, 0.5, theta) == pytest.approx(
        math.cos(theta / 2.0), abs=1e-15
    )
    assert wigner_small_d(0.5, -0.5, 0.5, theta) == pytest.approx(
        math.sin(theta / 2.0), abs=1e-15
    )
    assert wigner_small_d(0.5, 0.5, -0.5, theta) == pytest.approx(
        -math.sin(theta / 2.0), abs=1e-15
    )


def test_row_normalization_j2():
    theta = 0.7
    total = sum(wigner_small_d(2, mf, 1, theta) ** 2 for mf in range(-2, 3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_unitarity_all_j():
    rng = np.random.default_rng(31)
    for j in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        two_j = round(2 * j)
        ms = [(-two_j + 2 * k) / 2.0 for k in range(two_j + 1)]
        for _ in range(100):
            theta = float(rng.uniform(0.0, math.pi))
            for mi in ms:
                total = sum(wigner_small_d(j, mf, mi, theta) ** 2 for mf in ms)
                assert abs(total - 1.0) <= 1e-12


def test_mirror_symmetry_bitwise():
    rng = np.random.default_rng(37)
    for _ in range(200):
        j = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0]))
        two_j = round(2 * j)
        mf = (-two_j + 2 * int(rng.integers(0, two_j + 1))) / 2.0
        mi = (-two_j + 2 * int(rng.integers(0, two_j + 1))) / 2.0
        theta = float(rng.uniform(0.0, math.pi))
        assert abs(wigner_small_d(j, -mf, -mi, theta)) == abs(
            wigner_small_d(j, mf, mi, theta)
        )


def test_inconsistent_triples_rejected():
    with pytest.raises(DomainError):
        wigner_small_d(1, 0.5, 1, 0.3)
    with pytest.raises(DomainError):
        wigner_small_d(1, 2, 0, 0.3)
    with pytest.raises(DomainError):
        wigner_small_d(1.2, 1, 1, 0.3)
    with pytest.raises(DomainError):
        wigner_small_d(-1, 0, 0, 0.3)
