import math

import mpmath
import numpy as np
import pytest

from twistkick.errors import DomainError
from twistkick.special_functions import (
    bessel_first_max,
    bessel_j,
    bessel_j_array,
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
        assert x == pytest.approx(
            float(mpmath.besseljzero(n, 1, derivative=1)), rel=1e-14, abs=0.0)
        assert value == bessel_j(n, x)
        assert bessel_first_max(-n) == (x, value)
    assert bessel_first_max(0) == (0.0, 1.0)


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
