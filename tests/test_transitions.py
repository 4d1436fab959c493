import math

import numpy as np
import pytest
from scipy.special import jv

from twistkick.beam import TwistedPhotonBeam, transverse_wavenumber
from twistkick.errors import DomainError, UndefinedDistributionError
from twistkick.transitions import (
    SublevelDistribution,
    TransitionChannel,
    am_partition,
    excitation_probabilities,
    mean_cm_am,
    mean_internal_am,
    recoil_ratio,
    recoil_ratio_array,
    sublevel_profile,
    transition_amplitudes,
)
from twistkick.units import wavelength_to_energy

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
    dist = transition_amplitudes(beam, TransitionChannel(2), 0.0)
    assert dist.amplitudes[2.0] != 0.0
    for m_f, amp in dist.amplitudes.items():
        if m_f != 2.0:
            assert amp == 0.0


def test_amplitudes_paraxial_selection():
    # theta_k = 0 with m_gamma = Lambda: only dm = Lambda survives
    beam = make_beam(1, theta=0.0)
    dist = transition_amplitudes(beam, TransitionChannel(1), 123.0)
    assert dist.amplitudes[1.0] == 1.0
    assert dist.amplitudes[0.0] == 0.0
    assert dist.amplitudes[-1.0] == 0.0


def test_amplitude_ratios_against_series_oracle():
    # m_gamma=2, J=1, Lambda=1, kappa*b = 2.0, theta=0.1
    beam = make_beam(2, theta=0.1)
    kappa = transverse_wavenumber(beam)
    b = 2.0 / kappa
    dist = transition_amplitudes(beam, TransitionChannel(1), b)
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
    """(code, lz_cm) of one row from excitation_probabilities alone."""
    try:
        dist = excitation_probabilities(beam, channel, b)
    except DomainError as exc:
        return exc.code, None
    except UndefinedDistributionError as exc:
        return exc.code, None
    mi = channel.m_initial
    internal = math.fsum((m_f - mi) * w for m_f, w in dist.weights.items())
    return "", beam.m_gamma - internal


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
            code, lz_cm = _oracle_row(beam, channel, float(b_i))
            assert partition.errors[i] == code, (draw, b_i)
            if b_i == 0.0:
                assert ratio_errors[i] == "B_SINGULARITY"
            else:
                assert ratio_errors[i] == code
            if code:
                assert math.isnan(partition.lz_cm[i]) and math.isnan(ratio[i])
                continue
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
