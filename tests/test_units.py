import hashlib
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from twistkick import units
from twistkick.errors import DomainError
from twistkick.units import (
    CA40_ION_MASS_EV,
    DEUTERON_MASS_EV,
    FM,
    HBARC_EV_NM,
    KEV,
    MEV,
    NEV,
    energy_to_wavelength,
    frequency_to_energy,
    nonrel_recoil_energy,
    wavelength_to_energy,
)

from child import run_cli_in_child


def test_hbarc_frozen_value():
    assert HBARC_EV_NM == 197.3269804


def test_ev_nm_mev_fm_identity():
    # the same constant must serve both scales: a wavelength given in fm
    # (as nm via the FM factor) returns the energy in eV at the MeV scale
    e_optical = wavelength_to_energy(197.3269804)          # nm -> eV
    e_nuclear = wavelength_to_energy(197.3269804 * FM)     # fm -> eV
    assert e_optical == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert e_nuclear == pytest.approx(2.0 * math.pi * MEV, rel=1e-15)


def test_397nm_photon_energy():
    # 3.12 eV within 0.2%
    assert wavelength_to_energy(397.0) == pytest.approx(3.12, rel=2e-3)


def test_559fm_photon_energy():
    # 2.218 MeV, within 0.5% of the deuteron binding energy (the wavelength
    # is a rounded value)
    e = wavelength_to_energy(559.0 * FM)
    assert e == pytest.approx(units.DEUTERON_BINDING_EV, rel=5e-3)
    assert e == pytest.approx(2.218 * MEV, rel=1e-3)


def test_wavelength_energy_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = float(10.0 ** rng.uniform(-8, 6))
        back = energy_to_wavelength(wavelength_to_energy(lam))
        assert abs(back - lam) <= 1e-12 * lam


def test_conversions_monotone():
    lams = np.geomspace(1e-6, 1e4, 50)
    energies = [wavelength_to_energy(l) for l in lams]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_recoil_energy_ca40():
    p = wavelength_to_energy(397.0)
    assert nonrel_recoil_energy(p, CA40_ION_MASS_EV) == pytest.approx(0.13 * NEV, rel=0.05)


def test_recoil_energy_zero_momentum():
    assert nonrel_recoil_energy(0.0, CA40_ION_MASS_EV) == 0.0


def test_recoil_energy_deuteron():
    assert nonrel_recoil_energy(2.22452 * MEV, DEUTERON_MASS_EV) == pytest.approx(
        1.3 * KEV, rel=0.03
    )


def test_recoil_energy_infinite_mass():
    assert nonrel_recoil_energy(5.0, math.inf) == 0.0


def test_recoil_energy_int_beyond_float_range_is_domain():
    # a coded error naming the momentum, not an OverflowError from the int
    for p in (10**400, -(10**400)):
        with pytest.raises(DomainError, match="momentum") as err:
            nonrel_recoil_energy(p, 1.0)
        assert err.value.code == "DOMAIN"
    # an int within the range whose square is not overflows as a float does
    assert nonrel_recoil_energy(10**200, 1.0) == nonrel_recoil_energy(1e200, 1.0) == math.inf
    assert nonrel_recoil_energy(3, 2.0) == 2.25


@pytest.mark.parametrize("mass", [math.nan, -math.inf])
def test_recoil_energy_non_finite_mass_is_domain(mass):
    # +inf is the documented infinitely heavy target (above); NaN and -inf
    # are rejected, and the message names them without spelling nan or inf
    for p in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(DomainError) as err:
            nonrel_recoil_energy(p, mass)
        assert err.value.code == "DOMAIN"
        assert not re.search(r"\b(nan|inf)\b", str(err.value), re.IGNORECASE), err.value


def test_recoil_energy_int_mass_beyond_float_range_is_domain():
    for mass in (10**400, -(10**400)):
        with pytest.raises(DomainError, match="mass is beyond") as err:
            nonrel_recoil_energy(1.0, mass)
        assert err.value.code == "DOMAIN"
    assert nonrel_recoil_energy(3.0, 2) == 2.25


@pytest.mark.filterwarnings("error")
def test_recoil_energy_where_twice_the_mass_overflows():
    # p^2/(2M) without forming 2M, which overflows past 8.99e307: finite
    # where the energy is, on an array as on a float
    big = 1e308
    assert nonrel_recoil_energy(1e200, big) == pytest.approx(5e91, rel=1e-15)
    assert nonrel_recoil_energy(1e10, big) == pytest.approx(5e-289, rel=1e-15)
    assert nonrel_recoil_energy(-1e10, big) == nonrel_recoil_energy(1e10, big)
    assert nonrel_recoil_energy(0.0, big) == 0.0
    assert nonrel_recoil_energy(1.7e308, big) == pytest.approx(1.445e308, rel=1e-15)
    assert nonrel_recoil_energy(math.inf, big) == math.inf
    p = [0.0, 1e-10, 1e10, 1e200, 1e300, 1.7e308]
    for mass in (big, 9e307, math.nextafter(0.5 * sys.float_info.max, math.inf)):
        assert nonrel_recoil_energy(np.array(p), mass).tolist() == [
            nonrel_recoil_energy(v, mass) for v in p]
    # below the overflow, the arithmetic is p * p / (2 M) as before
    half = 0.5 * sys.float_info.max
    assert nonrel_recoil_energy(1e200, half) == 1e200 * 1e200 / (2.0 * half)


@pytest.mark.filterwarnings("error")
def test_recoil_energy_array_overflows_silently_as_floats_do():
    for p, mass in (([1.0, 1e200], 1.0), ([1.0, 1e10], 1e-300)):
        assert nonrel_recoil_energy(np.array(p), mass).tolist() == [
            nonrel_recoil_energy(v, mass) for v in p]


def test_trap_spacing_quotable():
    # h * 1.5 MHz = 6.2 neV within 2%
    assert frequency_to_energy(1.5e6) == pytest.approx(6.2 * NEV, rel=0.02)


def test_domain_errors():
    with pytest.raises(DomainError):
        wavelength_to_energy(0.0)
    with pytest.raises(DomainError):
        wavelength_to_energy(-1.0)
    with pytest.raises(DomainError):
        energy_to_wavelength(0.0)
    with pytest.raises(DomainError):
        nonrel_recoil_energy(1.0, 0.0)
    with pytest.raises(DomainError):
        nonrel_recoil_energy(1.0, -2.0)
    with pytest.raises(DomainError):
        frequency_to_energy(0.0)


@pytest.mark.parametrize("convert", [wavelength_to_energy, energy_to_wavelength,
                                     frequency_to_energy])
def test_conversion_of_an_int_beyond_float_range_is_domain(convert):
    # a coded error naming the input, not an OverflowError from the int
    name = convert.__name__.split("_")[0]
    for value in (10**400, -(10**400)):
        with pytest.raises(DomainError, match=f"{name} is beyond") as err:
            convert(value)
        assert err.value.code == "DOMAIN"


@pytest.mark.parametrize("convert, value", [
    (wavelength_to_energy, math.nan), (energy_to_wavelength, math.nan),
    (frequency_to_energy, math.nan), (frequency_to_energy, math.inf),
    (wavelength_to_energy, math.inf), (energy_to_wavelength, math.inf),
])
def test_conversion_of_a_non_finite_input_is_domain(convert, value):
    # an infinite frequency, wavelength or energy has no finite converse
    # (it was 0.0); the messages name a non-finite input without spelling
    # nan or inf
    with pytest.raises(DomainError) as err:
        convert(value)
    assert err.value.code == "DOMAIN"
    assert not re.search(r"\b(nan|inf)\b", str(err.value), re.IGNORECASE), err.value


def test_constants_hash_stable():
    assert units.constants_sha256() == units.constants_sha256()
    assert len(units.constants_sha256()) == 64


def test_constants_hash_is_the_digest_of_the_table():
    # the literal digest stands for the SHA-256 of the frozen table
    text = ",".join(f"{k}={v!r}" for k, v in sorted(units.constants_table().items()))
    assert units.constants_sha256() == hashlib.sha256(text.encode("ascii")).hexdigest()


def test_fig7_sweep_loads_no_hashlib():
    # the digest is a literal, so no sweep loads OpenSSL to stamp it
    _, ((status, _, _),), loaded = run_cli_in_child([["reproduce", "--figure", "fig7"]],
                                                    report=["_hashlib"])
    assert (status, loaded) == (0, [])


def _declared(q, value) -> bool:
    """Whether ``value`` lies in the range ``q`` declares, read from its
    bounds and ends alone (not from the check's own closed bounds)."""
    import numbers
    if isinstance(value, bool):  # a bool is no number (units.check)
        return False
    if q.integer and not isinstance(value, numbers.Integral):
        return False
    if isinstance(value, numbers.Integral) and abs(int(value)) > sys.float_info.max:
        return False
    if not q.ends:
        return True
    if q.ends == "{}":
        return value in (q.low, q.high)
    above = q.low < value if q.ends[0] == "(" else q.low <= value
    below = value < q.high if q.ends[1] == ")" else value <= q.high
    return above and below


def _probes(q):
    # the edge values, and each finite bound with its float and int neighbours
    values = [0, -0.0, 5e-324, 1e-300, 1.5, 1e300, 1.7e308, math.nan, math.inf, -math.inf,
              10**400, -(10**400), -1.0, -1, -3, 2, 7, np.float64(1.5), np.int64(2), True]
    for end in (q.low, q.high):
        if math.isfinite(end):
            values += [end, float(end), math.nextafter(end, -math.inf),
                       math.nextafter(end, math.inf), round(end) - 1, round(end) + 1]
    return values


@pytest.mark.parametrize("quantity", sorted(units.RANGES))
def test_check_accepts_exactly_the_declared_range(quantity):
    # the fast path's closed bounds and the slow path agree with the declared
    # bounds and ends on every probe; an accepted scalar comes back as a
    # plain number equal to it, a rejected one as a coded error that spells
    # no nan or inf
    q = units.RANGES[quantity]
    for value in _probes(q):
        try:
            result = units.check(value, quantity)
        except DomainError as err:
            assert not _declared(q, value), (quantity, value, str(err))
            # a range error takes the quantity's code, a type error DOMAIN
            assert err.code == (q.code if str(err).startswith(f"{q.name} must") and
                                "must be a real number" not in str(err) else "DOMAIN")
            assert not re.search(r"\b(nan|inf)\b", str(err), re.IGNORECASE), str(err)
        else:
            assert _declared(q, value), (quantity, value)
            assert type(result) in (int, float) and (result == value or math.isnan(value))


@pytest.mark.parametrize("quantity", sorted(q for q, r in units.RANGES.items() if r.arrays))
def test_check_reads_an_array_through_its_extremes(quantity):
    q = units.RANGES[quantity]
    inside = [v for v in _probes(q) if isinstance(v, float) and _declared(q, v)]
    values = np.array(inside)
    assert units.check(values, quantity) is values
    for bad in (v for v in _probes(q) if isinstance(v, float) and not _declared(q, v)):
        with pytest.raises(DomainError) as err:
            units.check(np.array(inside + [bad]), quantity)
        assert err.value.code == q.code
    # the same array where a quantity takes none
    scalar = next(k for k, r in units.RANGES.items() if not r.arrays)
    with pytest.raises(DomainError, match="must be a real number, got ndarray"):
        units.check(np.array(inside), scalar)


@pytest.mark.parametrize("value, held", [
    ([True, 1.0], "list holding bool"), ([1.0, np.True_], "list holding bool"),
    ([[2.0, True]], "list holding bool"),
    (np.array([True]), "ndarray of bool"), (np.array(["1.5"]), "ndarray of str"),
    (np.array([1.0, None], dtype=object), "ndarray holding NoneType"),
    ([10**400, "a"], "list holding str"),
])
def test_array_holding_no_number_is_named_by_type(value, held):
    # numpy reads a True among floats as 1.0 and None as NaN; every array
    # input rejects both with the DOMAIN error that names what it holds
    from twistkick.beam import TwistedPhotonBeam
    from twistkick.transitions import TransitionChannel, am_partition
    from twistkick.trap import TrapModel, jump_probability_extended, jump_probability_point
    beam = TwistedPhotonBeam(2, 1, wavelength_to_energy(397.0), 0.1)
    trap = TrapModel(1e6, 3e6, CA40_ION_MASS_EV)
    for name, call in [
        ("impact parameter", lambda: jump_probability_extended(beam, -1, value, trap, 10.0)),
        ("p_T", lambda: jump_probability_point(value, trap)),
        ("impact parameter", lambda: am_partition(beam, TransitionChannel(2, -0.5), value)),
        ("impact parameter", lambda: units.check(value, "b target")),
    ]:
        with pytest.raises(DomainError) as err:
            call()
        assert (err.value.code, str(err.value)) == (
            "DOMAIN", f"{name} must be a real number or an array of them, got {held}")


def test_float_array_check_reads_no_element(monkeypatch):
    # an ndarray of floats is taken by its dtype: no per-element test, in
    # check or in bessel_j_array, which takes its arguments through check
    from twistkick import special_functions

    def refused(value, floats=False):
        raise AssertionError("an element test ran on a float array")

    monkeypatch.setattr(units, "_not_numbers", refused)
    values = np.linspace(0.0, 5.0, 7)
    assert units.check(values, "b target") is values
    assert special_functions.bessel_j_array(1, values).shape == (7,)


def test_energy_whose_wavelength_overflows_is_domain():
    # it returned inf, and equal_kick_radius too through it
    from twistkick.beam import TwistedPhotonBeam, equal_kick_radius
    for call in (lambda: energy_to_wavelength(5e-324),
                 lambda: equal_kick_radius(TwistedPhotonBeam(2, 1, 5e-324, 0.1))):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == "DOMAIN"
        assert str(err.value) == "energy 4.94066e-324 eV is too low: its wavelength overflows"
    assert energy_to_wavelength(1e-300) == 2.0 * math.pi * HBARC_EV_NM / 1e-300


def _array_calls():
    # (name, call) of every export that takes an array of a checked quantity
    from twistkick.beam import TwistedPhotonBeam, bessel_gauss_amplitude, superkick
    from twistkick.pair_production import PairThresholdQuery
    from twistkick.recoil_kinematics import TargetParticle
    from twistkick.special_functions import bessel_j_array
    from twistkick.transitions import TransitionChannel, am_partition, recoil_ratio_array, \
        sublevel_profile
    from twistkick.trap import TrapModel, jump_probability_extended, jump_probability_point
    beam = TwistedPhotonBeam(2, 1, wavelength_to_energy(397.0), 0.1, 500.0)
    channel, trap = TransitionChannel(2, -0.5), TrapModel(1e6, 3e6, CA40_ION_MASS_EV)
    return [
        ("check", lambda v: units.check(v, "b target")),
        ("superkick", lambda v: superkick(1, v)),
        ("jump_probability_point", lambda v: jump_probability_point(v, trap)),
        ("jump_probability_extended", lambda v: jump_probability_extended(beam, -1, v, trap, 10.0)),
        ("am_partition", lambda v: am_partition(beam, channel, v)),
        ("recoil_ratio_array", lambda v: recoil_ratio_array(beam, channel, v)),
        ("sublevel_profile", lambda v: sublevel_profile(beam, channel, 0.5, v)),
        ("nonrel_recoil_energy", lambda v: nonrel_recoil_energy(v, CA40_ION_MASS_EV)),
        ("bessel_gauss_amplitude", lambda v: bessel_gauss_amplitude(beam, v)),
        ("bessel_j_array", lambda v: bessel_j_array(1, v)),
        # records, which hold the float array that check returns
        ("PairThresholdQuery pitch", lambda v: PairThresholdQuery(2.5, v, 1.0, 1)),
        ("PairThresholdQuery b", lambda v: PairThresholdQuery(2.5, 0.1, v, 1)),
        ("TargetParticle", lambda v: TargetParticle(1e9, v)),
    ]


def _result_or_error(call, value):
    # what a call gives, as text that tells a float from a numpy scalar or
    # array, or the type, code and message of what it raises
    try:
        return repr(call(value))
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc).__name__, getattr(exc, "code", None), str(exc)


@pytest.mark.parametrize("value, shape", [
    (np.ones((2, 2)), "ndarray of shape (2, 2)"), (np.ones((1, 1, 3)), "ndarray of shape (1, 1, 3)"),
    ([[1.0, 2.0]], "list of shape (1, 2)"), (((1.0,), (2.0,)), "tuple of shape (2, 1)"),
])
def test_array_of_two_or_more_dimensions_is_named_by_its_shape(value, shape):
    # am_partition and recoil_ratio_array raised numpy's IndexError, and
    # superkick and the jump probabilities returned arrays of that shape
    for name, call in _array_calls():
        got = _result_or_error(call, value)
        assert got[:2] == ("DomainError", "DOMAIN"), name
        assert got[2].endswith(f"must be a real number or a 1-D array of them, got {shape}"), name


def test_zero_dimensional_array_is_read_as_its_number():
    # superkick and the extended jump returned 0-d arrays, am_partition
    # partitions of one-element rows, and a quantity without arrays rejected it
    for name, call in _array_calls():
        for number in (2.0, 3):
            assert _result_or_error(call, np.array(number)) == _result_or_error(call, number), name
    assert units.check(np.array(2.5), "sigma") == 2.5 and type(units.check(
        np.array(7, dtype=np.int32), "n_max")) is int
    with pytest.raises(DomainError, match="got bool"):
        units.check(np.array(True), "b target")


@pytest.mark.parametrize("value", [[2**70, 1.0], [Fraction(1, 2), 1.0], (Fraction(3), 2**64),
                                   np.array([Fraction(1, 2), 1.0], dtype=object)])
def test_list_of_python_numbers_is_read_as_their_floats(value):
    # numpy holds an int beyond int64 or a Fraction as an object; check
    # rejected such a list ("got list holding int") where bessel_j_array
    # converted it: now every array input converts it, once, in check, so
    # the records hold the floats too
    floats = np.array([float(v) for v in value])
    for name, call in _array_calls():
        assert _result_or_error(call, value) == _result_or_error(call, floats), name
    assert units.check(value, "b target").tobytes() == floats.tobytes()


def test_check_returns_the_float_array_that_the_kernels_use():
    # an array came back as given, and each kernel converted it again; a
    # float64 ndarray still comes back as itself, uncopied
    from twistkick.pair_production import PairThresholdQuery
    from twistkick.recoil_kinematics import TargetParticle
    floats = np.array([0.5, 1.0, 3.0])
    for value, expected in (
            ([0.5, 1, 3.0], floats), ((0.5, 1.0, 3), floats), ([Fraction(1, 2), 1, 3], floats),
            (np.array([0.5, 1, 3], dtype=object), floats),
            (np.array([0.5, 1.0, 3.0], dtype=np.float32), floats),
            (np.array([1, 2, 6]), 2 * floats), (np.array([1, 2, 6], dtype=np.uint64), 2 * floats)):
        got = units.check(value, "b target")
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.ndim == 1
        assert got.tobytes() == expected.tobytes()
    assert units.check(floats, "b target") is floats
    target, query = TargetParticle(1e9, [0.5, 1, 3.0]), PairThresholdQuery(2.5, (0.1, 0.2), [1, 2])
    for held, expected in ((target.impact_parameter, floats), (query.pitch_angle, [0.1, 0.2]),
                           (query.impact_parameter, [1.0, 2.0])):
        assert type(held) is np.ndarray and held.dtype == np.float64
        assert held.tolist() == list(expected)
    assert TargetParticle(1e9, floats).impact_parameter is floats


def test_list_holding_an_int_beyond_the_float_range_is_a_range_error():
    # it was named by its type ("got list holding int"), where the int alone
    # is beyond the floating-point range; a Fraction beyond it raised an
    # uncoded OverflowError alone and echoed its 401 digits in a list; an int
    # or a Fraction just past the largest float, which float() rounds down
    # to it, was taken in a list and refused alone
    for big, shown in ((10**400, "an integer of 401 digits"),
                       (Fraction(10**400), "a fraction with an integer part of 401 digits"),
                       (int(sys.float_info.max) + 1, "an integer of 309 digits"),
                       (Fraction(sys.float_info.max) + 1, "a fraction with an integer part "
                                                          "of 309 digits")):
        for name, call in _array_calls():
            got = _result_or_error(call, [big, 1.0])
            assert got == _result_or_error(call, big), name
            assert got[1:] == ("DOMAIN", got[2].split(" is ")[0] + " is beyond the "
                               f"floating-point range, got {shown}"), name


def test_infinite_mass_gives_zeros_of_the_momentum_shape():
    # an array returned the float 0.0
    for p in (np.array([1.0, 2.0]), [1.0, -2.0], np.empty(0)):
        result = nonrel_recoil_energy(p, math.inf)
        assert type(result) is np.ndarray and result.tolist() == [0.0] * len(p)
    assert nonrel_recoil_energy(-2, math.inf) == 0.0


def test_momentum_sequence_is_converted():
    # a list raised "can't multiply sequence by non-int"
    assert nonrel_recoil_energy([], 1.0).shape == (0,)
    assert nonrel_recoil_energy([2.0, 4.0], 2.0).tolist() == [1.0, 4.0]
    assert nonrel_recoil_energy((2.0,), 2.0).tolist() == [1.0]
    with pytest.raises(DomainError, match=r"got list of shape \(1, 2\)"):
        nonrel_recoil_energy([[1.0, 2.0]], 1.0)
