import math
import re

import numpy as np
import pytest
from scipy.special import jv

from twistkick.beam import TwistedPhotonBeam, transverse_wavenumber
from twistkick.errors import DomainError, UndefinedDistributionError
from twistkick.transitions import (
    SublevelDistribution,
    TransitionChannel,
    am_partition,
    am_partitions,
    excitation_probabilities,
    raise_first_row_error,
    mean_cm_am,
    mean_internal_am,
    recoil_ratio,
    recoil_ratio_array,
    sublevel_profile,
)
from twistkick.special_functions import wigner_small_d
from twistkick.units import wavelength_to_energy

from oracles import dict_sublevel_distribution

E397 = wavelength_to_energy(397.0)


def make_beam(m, spin=1, theta=0.1, energy=E397):
    return TwistedPhotonBeam(m_gamma=m, lambda_spin=spin, energy=energy, pitch_angle=theta)


def d_oracle(j, mp, m, beta):
    """Closed-form J=1 and explicit-sum oracle for larger J (independent)."""
    from math import factorial
    k_min = max(0, m - mp)
    k_max = min(j + m, j - mp)
    root = math.sqrt(
        factorial(j + mp) * factorial(j - mp) * factorial(j + m) * factorial(j - m)
    )
    total = 0.0
    for k in range(k_min, k_max + 1):
        denom = factorial(j + m - k) * factorial(k) * factorial(j - k - mp) * factorial(k - m + mp)
        total += (
            (-1.0) ** (k - m + mp) * root / denom
            * math.cos(beta / 2.0) ** (2 * j - 2 * k + m - mp)
            * math.sin(beta / 2.0) ** (2 * k - m + mp)
        )
    return total


@pytest.mark.parametrize("call", [
    lambda: TransitionChannel(math.inf),
    lambda: TransitionChannel(math.nan),
    lambda: TransitionChannel(10**400),
    lambda: TransitionChannel(1, m_initial=1e308),
    lambda: TransitionChannel(1, m_initial=math.nan),
    lambda: wigner_small_d(1e308, 0, 0, 0.1),
    lambda: sublevel_profile(make_beam(1), TransitionChannel(1), 1e308, 10.0),
    lambda: sublevel_profile(make_beam(1), TransitionChannel(1), 10**400, 10.0),
], ids=["j-inf", "j-nan", "j-huge-int", "m-initial-huge", "m-initial-nan", "wigner-j-huge",
        "m-final-huge", "m-final-huge-int"])
def test_half_integers_beyond_float_range_are_domain_errors(call):
    # each raised OverflowError or ValueError from rounding 2 m, or showed nan
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.code == "DOMAIN"
    assert not re.search(r"\b(nan|inf)\b", str(err.value), re.IGNORECASE)


def test_channel_validation():
    with pytest.raises(DomainError):
        TransitionChannel(0.5)
    with pytest.raises(DomainError):
        TransitionChannel(1.5)
    with pytest.raises(DomainError):
        TransitionChannel(2, m_initial=0.3)
    ch = TransitionChannel(2, m_initial=-0.5, label="E2")
    assert ch.final_sublevels() == [-2.5, -1.5, -0.5, 0.5, 1.5]


def test_amplitudes_vortex_center_selection():
    # at b = 0 only the Bessel order 0 survives: m_f = m_gamma
    beam = make_beam(2)
    dist = excitation_probabilities(beam, TransitionChannel(2), 0.0)
    assert dist.amplitudes[2.0] != 0.0
    for m_f, amp in dist.amplitudes.items():
        if m_f != 2.0:
            assert amp == 0.0


def test_amplitudes_paraxial_selection():
    # theta_k = 0 with m_gamma = Lambda: only dm = Lambda survives
    beam = make_beam(1, theta=0.0)
    dist = excitation_probabilities(beam, TransitionChannel(1), 123.0)
    assert dist.amplitudes[1.0] == 1.0
    assert dist.amplitudes[0.0] == 0.0
    assert dist.amplitudes[-1.0] == 0.0


def test_amplitude_ratios_against_series_oracle():
    # m_gamma=2, J=1, Lambda=1, kappa*b = 2.0, theta=0.1
    beam = make_beam(2, theta=0.1)
    kappa = transverse_wavenumber(beam)
    b = 2.0 / kappa
    dist = excitation_probabilities(beam, TransitionChannel(1), b)
    for dm in (-1, 0, 1):
        oracle = float(jv(2 - dm, 2.0)) * d_oracle(1, dm, 1, 0.1)
        assert dist.amplitudes[float(dm)] == pytest.approx(oracle, rel=1e-10)
    assert dist.winding == {-1.0: 3, 0.0: 2, 1.0: 1}


def test_probabilities_normalized():
    rng = np.random.default_rng(2)
    for _ in range(100):
        beam = make_beam(int(rng.integers(-4, 5)), spin=int(rng.choice([-1, 1])),
                         theta=float(rng.uniform(0.01, 0.5)))
        channel = TransitionChannel(float(rng.integers(1, 4)))
        b = float(rng.uniform(1e-3, 2.0)) * beam.wavelength
        dist = excitation_probabilities(beam, channel, b)
        assert sum(dist.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0.0 for w in dist.weights.values())


def test_small_b_concentrates_on_lowest_bessel_order():
    # m_gamma=3, J=2, Lambda=1: smallest reachable order is m_gamma - dm = 1
    # at dm = 2, so w(m_f=2) -> 1 as b -> 0
    beam = make_beam(3)
    dist = excitation_probabilities(beam, TransitionChannel(2), 1e-6 * beam.wavelength)
    assert dist.weights[2.0] > 1.0 - 1e-6


def test_plane_wave_dipole_rule():
    beam = make_beam(1, theta=1e-3)
    kappa = transverse_wavenumber(beam)
    dist = excitation_probabilities(beam, TransitionChannel(1), 20.0 / kappa)
    assert dist.weights[1.0] > 1.0 - 1e-4


def test_all_null_is_an_error():
    # b = 0 with m_gamma > J: every Bessel order is positive -> no absorption
    beam = make_beam(3)
    with pytest.raises(UndefinedDistributionError):
        excitation_probabilities(beam, TransitionChannel(2), 0.0)


def test_mean_internal_one_unit_for_dipole():
    # S->P keeps absorbing one unit even for m_gamma = 2 (away from nulls)
    beam = make_beam(2, theta=0.01)
    lz = mean_internal_am(beam, TransitionChannel(1), 0.3 * beam.wavelength)
    assert lz == pytest.approx(1.0, abs=0.05)


def test_mean_internal_vortex_center_full_transfer():
    # b -> 0 with m_gamma <= J: the internal excitation takes all of m_gamma
    beam = make_beam(2)
    lz = mean_internal_am(beam, TransitionChannel(2), 1e-6 * beam.wavelength)
    assert lz == pytest.approx(2.0, abs=1e-3)


def test_mean_internal_paraxial_equals_helicity():
    beam = make_beam(1, theta=0.0)
    assert mean_internal_am(beam, TransitionChannel(1), 50.0) == pytest.approx(
        1.0, abs=1e-15
    )


def test_mean_cm_complement_identity():
    rng = np.random.default_rng(41)
    for _ in range(200):
        beam = make_beam(int(rng.integers(-4, 5)), spin=int(rng.choice([-1, 1])),
                         theta=float(rng.uniform(0.01, 0.4)))
        channel = TransitionChannel(float(rng.integers(1, 4)),
                                    m_initial=float(rng.choice([0.0, -0.5, 0.5])))
        b = float(rng.uniform(1e-3, 1.5)) * beam.wavelength
        total = mean_internal_am(beam, channel, b) + mean_cm_am(beam, channel, b)
        assert total == pytest.approx(beam.m_gamma, abs=1e-12)


def test_mean_cm_small_b_quadrupole():
    beam = make_beam(3)
    cm = mean_cm_am(beam, TransitionChannel(2), 1e-6 * beam.wavelength)
    assert cm == pytest.approx(1.0, abs=1e-3)


def test_mean_cm_dipole_plateau():
    # S->P, m_gamma=3: c.m. keeps m_gamma - Lambda = 2 units
    beam = make_beam(3, theta=0.01)
    cm = mean_cm_am(beam, TransitionChannel(1), 0.4 * beam.wavelength)
    assert cm == pytest.approx(2.0, abs=0.05)


def test_recoil_ratio_unity_at_equal_kick_radius():
    beam = make_beam(2, theta=0.01)
    b = beam.wavelength / (2.0 * math.pi)
    assert recoil_ratio(beam, TransitionChannel(1), b) == pytest.approx(1.0, rel=0.02)


def test_recoil_ratio_zero_without_orbital_am():
    beam = make_beam(1, theta=1e-6)
    ratio = recoil_ratio(beam, TransitionChannel(1), 0.3 * beam.wavelength)
    assert abs(ratio) < 1e-6


def test_recoil_ratio_composition_oracle():
    # S->F, m_gamma=3, Lambda=-1, b=0.2 lambda, theta=0.1: weights from the
    # independent Bessel/Wigner oracles composed with the ratio formula
    beam = make_beam(3, spin=-1, theta=0.1)
    channel = TransitionChannel(3)
    b = 0.2 * beam.wavelength
    x = transverse_wavenumber(beam) * b
    amps = {dm: float(jv(3 - dm, x)) * d_oracle(3, dm, -1, 0.1) for dm in range(-3, 4)}
    norm = sum(a * a for a in amps.values())
    lz_cm = 3.0 - sum(dm * a * a for dm, a in amps.items()) / norm
    oracle = lz_cm * beam.wavelength / (2.0 * math.pi * b)
    assert recoil_ratio(beam, channel, b) == pytest.approx(oracle, rel=1e-10)


def test_recoil_ratio_domain():
    beam = make_beam(2)
    with pytest.raises(DomainError):
        recoil_ratio(beam, TransitionChannel(1), 0.0)


def test_sublevel_profile_vortex_null():
    # m_gamma=-2, m_i=-1/2, m_f=-3/2 (J=2): winding nu = -1, null at b = 0
    beam = make_beam(-2, spin=-1)
    channel = TransitionChannel(2, m_initial=-0.5)
    assert sublevel_profile(beam, channel, -1.5, 0.0) == 0.0


def test_sublevel_profile_peak_location():
    beam = make_beam(-2, spin=-1)
    channel = TransitionChannel(2, m_initial=-0.5)
    kappa = transverse_wavenumber(beam)
    bs = np.linspace(1e-3, 4.0 / kappa, 4000)
    vals = [sublevel_profile(beam, channel, -1.5, float(b)) for b in bs]
    i = int(np.argmax(vals))
    assert kappa * bs[i] == pytest.approx(1.8412, rel=0.01)
    assert vals[i] == pytest.approx(1.0, abs=1e-4)


def test_sublevel_profile_nu_zero_peaks_on_axis():
    beam = make_beam(1)
    channel = TransitionChannel(1)
    assert sublevel_profile(beam, channel, 1.0, 0.0) == 1.0
    assert sublevel_profile(beam, channel, 1.0, 30.0) < 1.0


def test_sublevel_profile_vanishing_wigner_d_is_exact_zero():
    # theta_k = 0: d^J_{dm, Lambda}(0) vanishes unless dm = Lambda, whatever b
    beam = make_beam(1, spin=1, theta=0.0)
    for m_f in (-1.0, 0.0):
        for b in (0.0, 40.0, 1e9):
            assert sublevel_profile(beam, TransitionChannel(1), m_f, b) == 0.0
    assert sublevel_profile(beam, TransitionChannel(1), 1.0, 0.0) == 1.0


def test_sublevel_profile_unreachable_m_f():
    beam = make_beam(1)
    with pytest.raises(DomainError):
        sublevel_profile(beam, TransitionChannel(1), 2.0, 5.0)


@pytest.mark.parametrize("theta", [0.0, 1e-200])
def test_sublevel_profile_checks_b_where_the_wigner_d_vanishes(theta):
    # m_i = -1/2 -> m_f = 1/2 with J = 2 and Lambda = -1: d^2_{1,-1}(theta)
    # carries sin^2(theta/2), exactly 0 at theta = 0 and underflowing to 0 at
    # 1e-200, where kappa > 0 puts kappa 1e300 beyond the Bessel range
    beam = make_beam(-2, spin=-1, theta=theta, energy=wavelength_to_energy(729.0))
    channel = TransitionChannel(2, m_initial=-0.5)
    assert wigner_small_d(2.0, 1.0, -1.0, theta) == 0.0
    bad = [math.nan, -1.0] + ([1e300] if theta else [])
    for b in bad:
        for form in (b, [10.0, b]):
            with pytest.raises(DomainError) as info:
                sublevel_profile(beam, channel, 0.5, form)
            assert info.value.code == "DOMAIN"
    assert sublevel_profile(beam, channel, 0.5, 10.0) == 0.0
    assert sublevel_profile(beam, channel, 0.5, [10.0, 20.0]).tolist() == [0.0, 0.0]
    # where d does not vanish, the Bessel domain check raises for NaN and
    # 1e300, and b < 0 is a value, J_nu^2 being even
    for b in bad[:1] + bad[2:]:
        with pytest.raises(DomainError):
            sublevel_profile(beam, channel, -1.5, b)
    assert sublevel_profile(beam, channel, -1.5, -1.0) == sublevel_profile(beam, channel, -1.5, 1.0)


# --- property suites ----------------------------------------------------------

def _random_config(rng):
    m = int(rng.integers(-4, 5))
    spin = int(rng.choice([-1, 1]))
    theta = float(rng.uniform(0.005, 0.4))
    j = float(rng.integers(1, 4))
    mi = float(rng.choice([0.0, -0.5, 0.5]))
    beam = make_beam(m, spin=spin, theta=theta)
    channel = TransitionChannel(j, m_initial=mi)
    b = float(rng.uniform(1e-4, 1.5)) * beam.wavelength
    return beam, channel, b


def test_am_conservation_property():
    rng = np.random.default_rng(101)
    for _ in range(500):
        beam, channel, b = _random_config(rng)
        try:
            internal = mean_internal_am(beam, channel, b)
        except UndefinedDistributionError:
            continue
        assert internal + mean_cm_am(beam, channel, b) == pytest.approx(
            beam.m_gamma, abs=1e-12
        )


def test_paraxial_limit_property():
    # theta <= 1e-4 at fixed Bessel argument away from the nulls of
    # J_{m_gamma - Lambda}: the helicity selection rule re-emerges
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 200:
        m = int(rng.integers(-3, 4))
        spin = int(rng.choice([-1, 1]))
        theta = float(10.0 ** rng.uniform(-6, -4))
        j = float(rng.integers(1, 4))
        beam = make_beam(m, spin=spin, theta=theta)
        kappa = transverse_wavenumber(beam)
        x = float(rng.uniform(0.05, 20.0))
        if abs(float(jv(m - spin, x))) < 0.05:
            continue  # near a Bessel null; dips there are expected
        lz = mean_internal_am(beam, TransitionChannel(j), x / kappa)
        assert abs(lz - spin) <= 1e-3
        checked += 1


def test_vortex_center_property():
    # w concentrates on the smallest |m_gamma - dm|; for |m_gamma| <= J the
    # c.m. share vanishes
    rng = np.random.default_rng(107)
    for _ in range(100):
        j = int(rng.integers(1, 4))
        m = int(rng.integers(-j, j + 1))
        beam = make_beam(m, spin=int(rng.choice([-1, 1])))
        cm = mean_cm_am(beam, TransitionChannel(float(j)), 1e-6 * beam.wavelength)
        assert abs(cm) <= 1e-3


def test_mirror_symmetry_property_exact():
    # flipping (Lambda, m_gamma, m_i, m_f) -> all negated leaves every
    # probability bitwise unchanged
    rng = np.random.default_rng(109)
    for _ in range(300):
        beam, channel, b = _random_config(rng)
        mirrored_beam = make_beam(-beam.m_gamma, spin=-beam.lambda_spin,
                                  theta=beam.pitch_angle)
        mirrored_channel = TransitionChannel(
            channel.multipole_J, m_initial=-channel.m_initial
        )
        try:
            dist = excitation_probabilities(beam, channel, b)
        except UndefinedDistributionError:
            with pytest.raises(UndefinedDistributionError):
                excitation_probabilities(mirrored_beam, mirrored_channel, b)
            continue
        mirrored = excitation_probabilities(mirrored_beam, mirrored_channel, b)
        for m_f, w in dist.weights.items():
            assert mirrored.weights[-m_f] == w


# --- array kernel against the per-point dict path ------------------------------

def _oracle_row(beam, channel, b):
    """(code, amplitudes, weights, lz_cm) of one row from the dict oracle."""
    try:
        amplitudes, _, weights = dict_sublevel_distribution(beam, channel, b)
    except (DomainError, UndefinedDistributionError) as exc:
        return exc.code, None, None, None
    mi = channel.m_initial
    internal = math.fsum((m_f - mi) * w for m_f, w in weights.items())
    return "", list(amplitudes.values()), list(weights.values()), beam.m_gamma - internal


def test_am_partition_matches_dict_oracle():
    rng = np.random.default_rng(211)
    rows = 0
    for draw in range(60):
        j = int(rng.integers(1, 4))
        beam = make_beam(int(rng.integers(-3, 4)), spin=int(rng.choice([-1, 1])),
                         theta=0.0 if draw % 10 == 0 else float(rng.uniform(0.0, 0.3)))
        channel = TransitionChannel(j, m_initial=float(rng.choice([0.0, -0.5, 0.5])))
        b = [0.0] + list(rng.uniform(1e-4, 3.0, 8) * beam.wavelength)
        kappa = transverse_wavenumber(beam)
        if kappa > 0.0:
            # both sides of the Bessel argument limit kappa*b = 1e6
            b += [1e6 / kappa * (1.0 - 1e-9), 1e6 / kappa * (1.0 + 1e-9)]
        b = np.array(b)
        partition = am_partition(beam, channel, b)
        ratio, ratio_errors = recoil_ratio_array(beam, channel, b)
        for i, b_i in enumerate(b):
            code, amplitudes, weights, lz_cm = _oracle_row(beam, channel, float(b_i))
            assert partition.errors[i] == code, (draw, b_i)
            if b_i == 0.0:
                assert ratio_errors[i] == "B_SINGULARITY"
            else:
                assert ratio_errors[i] == code
            if code:
                assert math.isnan(partition.lz_cm[i]) and math.isnan(ratio[i])
                assert np.isnan(partition.weights[:, i]).all()
                continue
            assert partition.amplitudes[:, i].tolist() == amplitudes
            assert partition.weights[:, i].tolist() == weights
            assert partition.lz_cm[i] == pytest.approx(lz_cm, abs=1e-12)
            if b_i > 0.0:
                scale = beam.wavelength / (2.0 * math.pi * b_i)
                assert ratio[i] == pytest.approx(lz_cm * scale, rel=0, abs=1e-12 * scale)
            rows += 1
    assert rows >= 300


def test_am_partition_error_codes():
    beam = make_beam(3)
    channel = TransitionChannel(2)
    kappa = transverse_wavenumber(beam)
    b = np.array([-1.0, 0.0, 50.0, 2e6 / kappa, np.nan, np.inf])
    partition = am_partition(beam, channel, b)
    assert list(partition.errors) == ["DOMAIN", "UNDEFINED_DISTRIBUTION", "", "DOMAIN",
                                      "DOMAIN", "DOMAIN"]
    assert np.isnan(partition.weights[:, [0, 1, 3]]).all()
    # amplitudes: NaN on DOMAIN rows, the true zeros on the undefined row
    assert np.isnan(partition.amplitudes[:, [0, 3, 4, 5]]).all()
    assert (partition.amplitudes[:, 1] == 0.0).all()
    assert math.fsum(partition.weights[:, 2]) == pytest.approx(1.0, abs=1e-15)
    _, ratio_errors = recoil_ratio_array(beam, channel, b)
    assert list(ratio_errors) == ["B_SINGULARITY", "B_SINGULARITY", "", "DOMAIN",
                                  "B_SINGULARITY", "DOMAIN"]
    # a Bessel order beyond 64 fails every row, whatever b is
    partition = am_partition(make_beam(64), TransitionChannel(1), np.array([1.0, 2.0]))
    assert list(partition.errors) == ["DOMAIN", "DOMAIN"]


@pytest.mark.parametrize("function", [mean_internal_am, mean_cm_am, recoil_ratio])
def test_scalar_wrappers_raise_row_errors(function):
    beam = make_beam(3)
    channel = TransitionChannel(2)
    kappa = transverse_wavenumber(beam)
    singular = "B_SINGULARITY" if function is recoil_ratio else "UNDEFINED_DISTRIBUTION"
    with pytest.raises(DomainError if function is recoil_ratio
                       else UndefinedDistributionError) as err:
        function(beam, channel, 0.0)
    assert err.value.code == singular
    with pytest.raises(DomainError) as err:
        function(beam, channel, 2e6 / kappa)
    assert err.value.code == "DOMAIN"
    assert "Bessel argument" in str(err.value)
    with pytest.raises(DomainError) as err:
        function(make_beam(64), TransitionChannel(1), 10.0)
    assert "Bessel order" in str(err.value)


@pytest.mark.parametrize("function", [mean_cm_am, excitation_probabilities])
def test_nan_impact_parameter_is_named(function):
    # a NaN b is not an overflowing Bessel argument
    with pytest.raises(DomainError) as err:
        function(make_beam(1), TransitionChannel(1), float("nan"))
    assert err.value.code == "DOMAIN"
    assert str(err.value) == ("impact parameter must be a finite number, "
                              "got a value that is not a number")


def test_am_partitions_match_one_beam_at_a_time():
    # one Bessel table for an m_gamma series gives each beam's partition bit
    # for bit, out-of-range orders included
    channel = TransitionChannel(3, m_initial=0.5)
    beams = [make_beam(m, spin=-1, theta=0.2) for m in (-3, 1, 6, 62)]
    b = np.array([-1.0, 0.0, 1e-3, 50.0, 400.0, 3e4, np.nan])
    for beam, partition in zip(beams, am_partitions(beams, channel, b)):
        single = am_partition(beam, channel, b)
        for name in ("amplitudes", "weights", "lz_internal", "lz_cm"):
            assert np.array_equal(getattr(partition, name), getattr(single, name),
                                  equal_nan=True)
        assert list(partition.errors) == list(single.errors)
    with pytest.raises(DomainError):
        am_partitions([make_beam(1), make_beam(2, theta=0.3)], channel, b)


def _seeded_rows(rng, count):
    # (beam, channel, b): J 1-3, m_gamma -8...8, integer and half-integer
    # m_i, every pitch regime, and impact parameters on each side of every
    # row rule (b < 0, NaN, inf, b = 0, kappa b beyond 1e6, kappa b that
    # overflows)
    for _ in range(count):
        j = int(rng.integers(1, 4))
        beam = make_beam(int(rng.integers(-8, 9)), spin=int(rng.choice([-1, 1])),
                         theta=float(rng.choice([0.0, rng.uniform(0.0, 1.5)])),
                         energy=wavelength_to_energy(float(rng.uniform(100.0, 1000.0))))
        channel = TransitionChannel(j, m_initial=float(rng.choice([0.0, -0.5, 0.5, 1.5])))
        b = float(rng.choice([0.0, -1.0, math.nan, math.inf, 1e307,
                              rng.uniform(0.0, 3.0) * beam.wavelength,
                              10.0 ** rng.uniform(-3.0, 8.0) * beam.wavelength]))
        yield beam, channel, b


def _row_outcome(function, *args):
    try:
        return repr(function(*args))
    except (DomainError, UndefinedDistributionError) as exc:
        return type(exc).__name__, exc.code, str(exc)


def _array_row_view(name, beam, channel, b):
    """What the one-row view ``name`` gives at b, read from the one-row
    array partition and its first-row raise: the views' array oracle."""
    b = np.array([b])
    partition = am_partition(beam, channel, b)
    if name == "recoil_ratio":
        ratio, errors = recoil_ratio_array(beam, channel, b)
        raise_first_row_error(errors, beam, channel, b)
        return float(ratio[0])
    raise_first_row_error(partition.errors, beam, channel, b)
    if name == "mean_internal_am":
        return float(partition.lz_internal[0])
    if name == "mean_cm_am":
        return float(partition.lz_cm[0])
    m_f = channel.final_sublevels()
    j = channel.j_int
    return SublevelDistribution(dict(zip(m_f, partition.amplitudes[:, 0].tolist())),
                                dict(zip(m_f, [beam.m_gamma - dm for dm in range(-j, j + 1)])),
                                dict(zip(m_f, partition.weights[:, 0].tolist())))


def test_float_partition_is_the_array_row_bit_for_bit():
    # a float b runs on Python floats; each of its values is that row of the
    # one-row array, and each one-row view gives what the array row and the
    # first-row raise give, for a beam of numpy scalars too
    rng = np.random.default_rng(2301)
    codes = set()
    for beam, channel, b in _seeded_rows(rng, 1500):
        if rng.random() < 0.3:
            beam = beam._replace(m_gamma=np.int64(beam.m_gamma), energy=np.float64(beam.energy),
                                 pitch_angle=np.float64(beam.pitch_angle))
        row = am_partition(beam, channel, b)
        array = am_partition(beam, channel, np.array([b]))
        assert isinstance(row.errors, str) and type(row.lz_cm) is float
        assert (repr(row.amplitudes), repr(row.weights), repr(row.lz_internal), repr(row.lz_cm),
                row.errors) == (repr(array.amplitudes[:, 0].tolist()),
                                repr(array.weights[:, 0].tolist()),
                                repr(float(array.lz_internal[0])), repr(float(array.lz_cm[0])),
                                array.errors[0]), (beam, channel, b)
        codes.add(recoil_ratio_array(beam, channel, np.array([b]))[1][0])
        for view in (excitation_probabilities, mean_internal_am, mean_cm_am, recoil_ratio):
            assert _row_outcome(view, beam, channel, b) == _row_outcome(
                _array_row_view, view.__name__, beam, channel, b), (view, beam, b)
    assert codes == {"", "DOMAIN", "B_SINGULARITY", "UNDEFINED_DISTRIBUTION"}


def test_float_partitions_of_an_m_gamma_series_are_the_array_rows():
    # one Bessel row for several beams, out-of-range orders included
    channel = TransitionChannel(3, m_initial=0.5)
    beams = [make_beam(m, spin=-1, theta=0.2) for m in (-3, 1, 6, 62)]
    b = [-1.0, 0.0, 1e-3, 50.0, 400.0, 3e4, math.nan]
    tables = am_partitions(beams, channel, np.array(b))
    for i, b_i in enumerate(b):
        for row, table in zip(am_partitions(beams, channel, b_i), tables):
            assert repr((row.amplitudes, row.weights, row.lz_internal, row.lz_cm)) == repr(
                (table.amplitudes[:, i].tolist(), table.weights[:, i].tolist(),
                 float(table.lz_internal[i]), float(table.lz_cm[i])))
            assert row.errors == table.errors[i]


def test_recoil_ratio_names_a_nan_impact_parameter():
    with pytest.raises(DomainError) as err:
        recoil_ratio(make_beam(1), TransitionChannel(1), math.nan)
    assert err.value.code == "B_SINGULARITY"
    assert not re.search(r"\b(nan|inf)\b", str(err.value), re.IGNORECASE), err.value


def test_int_impact_parameter_beyond_float_range_is_domain():
    for function in (mean_cm_am, recoil_ratio, am_partition):
        with pytest.raises(DomainError, match="impact parameter is beyond") as err:
            function(make_beam(1), TransitionChannel(1), 10**400)
        assert err.value.code == "DOMAIN"
    # a float-range int is its float
    assert mean_cm_am(make_beam(2), TransitionChannel(1), 100) == \
        mean_cm_am(make_beam(2), TransitionChannel(1), 100.0)
