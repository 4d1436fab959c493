import math

import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import jv

from twistkick import beam as beam_module
from twistkick import recoil_kinematics, units
from twistkick.beam import (
    TwistedPhotonBeam,
    bessel_gauss_amplitude,
    bessel_gauss_norm,
    equal_kick_radius,
    longitudinal_momentum,
    profile_peak_radius,
    radial_intensity_integral,
    radial_intensity_total,
    superkick,
    transverse_wavenumber,
)
from twistkick.errors import ConfigurationError, DomainError, QuadratureError
from twistkick.units import DEUTERON_BINDING_EV, ELECTRON_MASS_EV, FM, GEV, \
    HBARC_EV_NM, MEV, PM, TEV, wavelength_to_energy

from oracles import dense_grid_peak_radius, per_pass_radial_intensity_integral


def make_beam(m=2, spin=1, energy=None, theta=0.1, w0=None):
    return TwistedPhotonBeam(
        m_gamma=m, lambda_spin=spin,
        energy=energy if energy is not None else wavelength_to_energy(397.0),
        pitch_angle=theta, envelope_w0=w0,
    )


def test_beam_validation():
    with pytest.raises(DomainError):
        make_beam(spin=0)
    with pytest.raises(DomainError):
        make_beam(energy=-1.0)
    with pytest.raises(DomainError):
        make_beam(theta=2.0)
    with pytest.raises(DomainError):
        make_beam(w0=-5.0)
    assert make_beam(m=3, spin=-1).l_gamma == 4


@pytest.mark.parametrize("field, value", [
    ("energy", math.inf), ("energy", math.nan),
    ("w0", math.inf), ("w0", math.nan),
])
def test_beam_rejects_non_finite_inputs(field, value):
    with pytest.raises(DomainError) as err:
        make_beam(**{field: value})
    assert err.value.code == "DOMAIN"
    assert "finite" in str(err.value)


@pytest.mark.parametrize("m_gamma, shown", [
    (math.nan, "a value that is not a number"),
    (math.inf, "a non-finite value (an input overflows)"), (1.5, "1.5"),
])
def test_non_integer_m_gamma_is_named_without_spelling_it(m_gamma, shown):
    with pytest.raises(DomainError) as err:
        make_beam(m=m_gamma)
    assert err.value.code == "DOMAIN"
    assert str(err.value) == f"m_gamma must be an integer, got {shown}"


def test_transverse_wavenumber_plane_wave_limit():
    assert transverse_wavenumber(make_beam(theta=0.0)) == 0.0


def test_transverse_wavenumber_direct_arithmetic():
    beam = make_beam(energy=3.12, theta=0.1)
    assert transverse_wavenumber(beam) == pytest.approx(
        3.12 / 197.3269804 * math.sin(0.1), rel=1e-14
    )


def test_wavenumber_definition_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beam = make_beam(
            energy=float(10.0 ** rng.uniform(-1, 12)),
            theta=float(rng.uniform(1e-8, 1.4)),
        )
        lhs = transverse_wavenumber(beam) * beam.wavelength / (2.0 * math.pi)
        assert lhs == pytest.approx(math.sin(beam.pitch_angle), rel=1e-12)


def test_longitudinal_momentum_plane_wave():
    beam = make_beam(theta=0.0)
    assert longitudinal_momentum(beam, paraxial=False) == beam.energy


def test_longitudinal_momentum_deficit_series_oracle():
    # deficit E - p_z c = E theta^2/2 to second order: 1.25 eV at 100 GeV,
    # 5 urad (oracle computed from the series, frozen here)
    beam = make_beam(energy=100.0 * GEV, theta=5e-6)
    deficit = beam.energy - longitudinal_momentum(beam, paraxial=False)
    oracle = beam.energy * beam.pitch_angle**2 / 2.0
    assert oracle == pytest.approx(1.25, rel=1e-9)
    assert deficit == pytest.approx(oracle, rel=0.01)


def test_longitudinal_momentum_paraxial_flag():
    beam = make_beam(theta=0.3)
    assert longitudinal_momentum(beam, paraxial=True) == beam.energy


def test_superkick_zero_delta_l():
    assert superkick(0, 1.0) == 0.0
    assert superkick(0, 1e-9) == 0.0


def test_superkick_equals_deuteron_threshold_momentum():
    # p_T at b = 89 fm matches the longitudinal momentum at the deuteron
    # threshold wavelength 559 fm to 1%
    p_t = superkick(1, 89.0 * FM)
    p_z = wavelength_to_energy(559.0 * FM)
    assert p_t / p_z == pytest.approx(1.0, abs=0.01)


def test_superkick_inversion_identity():
    b = HBARC_EV_NM / (6.0 * ELECTRON_MASS_EV)
    assert superkick(1, b) == pytest.approx(6.0 * ELECTRON_MASS_EV, rel=1e-12)


def test_superkick_am_conservation_identity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        delta_l = int(rng.integers(0, 6))
        b = float(10.0 ** rng.uniform(-8, 4))
        assert superkick(delta_l, b) * b == pytest.approx(
            delta_l * HBARC_EV_NM, rel=1e-15
        )


def test_superkick_vortex_singularity():
    with pytest.raises(DomainError) as err:
        superkick(1, 0.0)
    assert err.value.code == "B_SINGULARITY"
    assert str(err.value) == "impact parameter must be positive, got 0.0"
    # a NaN b is named, not spelled
    with pytest.raises(DomainError) as err:
        superkick(1, math.nan)
    assert str(err.value) == ("impact parameter must be positive, "
                              "got a value that is not a number")
    with pytest.raises(DomainError):
        superkick(-1, 1.0)


def test_equal_kick_radius_397():
    beam = make_beam(m=2, spin=1)
    assert equal_kick_radius(beam) == pytest.approx(397.0 / (2.0 * math.pi), rel=1e-12)
    assert equal_kick_radius(beam) == pytest.approx(63.18, rel=1e-3)


def test_equal_kick_radius_559fm():
    beam = make_beam(m=2, spin=1, energy=wavelength_to_energy(559.0 * FM))
    assert equal_kick_radius(beam) == pytest.approx(89.0 * FM, rel=5e-3)


def test_equal_kick_radius_linearity():
    b2 = equal_kick_radius(make_beam(m=2, spin=1))
    b3 = equal_kick_radius(make_beam(m=3, spin=1))
    assert b3 == pytest.approx(2.0 * b2, rel=1e-15)


def test_equal_kick_radius_no_solution():
    with pytest.raises(DomainError) as err:
        equal_kick_radius(make_beam(m=1, spin=1))
    assert err.value.code == "NO_FINITE_RADIUS"


def test_superkick_unity_ratio_at_equal_kick_radius():
    rng = np.random.default_rng(17)
    for _ in range(30):
        beam = make_beam(
            m=int(rng.integers(2, 5)),
            energy=float(10.0 ** rng.uniform(0, 9)),
            theta=float(rng.uniform(0.0, 0.5)),
        )
        b = equal_kick_radius(beam)
        ratio = superkick(beam.l_gamma, b) / longitudinal_momentum(beam, paraxial=True)
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_bessel_gauss_vortex_null_and_axis_value():
    beam = make_beam(m=2, spin=1, w0=100.0)
    assert bessel_gauss_amplitude(beam, 0.0) == 0.0
    axis = make_beam(m=1, spin=1, w0=100.0)  # l_gamma = 0
    assert bessel_gauss_amplitude(axis, 0.0) == 1.0


def test_bessel_gauss_requires_w0():
    with pytest.raises(ConfigurationError):
        bessel_gauss_amplitude(make_beam(), 1.0)
    with pytest.raises(ConfigurationError):
        profile_peak_radius(make_beam())


def test_bessel_gauss_nonnegative_before_first_zero():
    beam = make_beam(m=2, spin=1, w0=50.0)
    kappa = transverse_wavenumber(beam)
    first_zero = 3.8317 / kappa  # first zero of J_1
    rho = np.linspace(0.0, 0.999 * first_zero, 200)
    assert np.all(bessel_gauss_amplitude(beam, rho) >= 0.0)


def test_bessel_gauss_norm_unit_integral():
    beam = make_beam(m=2, spin=1, energy=1.0 * TEV, theta=5e-6, w0=60.0 * FM)
    a = bessel_gauss_norm(beam)
    # verify with an independent midpoint Riemann sum at high resolution
    n = 400_000
    upper = 8.0 * beam.envelope_w0
    rho = (np.arange(n) + 0.5) * upper / n
    amp = a * bessel_gauss_amplitude(beam, rho)
    integral = float(np.sum(amp * amp * 2.0 * math.pi * rho) * upper / n)
    assert integral == pytest.approx(1.0, rel=1e-6)


def test_gauss_legendre_literals_are_numpys_rule():
    # the 8 written (node, weight) pairs, mirrored, are leggauss(16) bit for bit
    from twistkick import beam
    nodes, weights = beam._gauss_legendre()
    oracle_nodes, oracle_weights = np.polynomial.legendre.leggauss(16)
    assert nodes.tobytes() == oracle_nodes.tobytes()
    assert weights.tobytes() == oracle_weights.tobytes()


def quad_intensity(beam, upper):
    """Test-only oracle: adaptive quadrature of |psi|^2 rho over [0, upper]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, err = quad(
            lambda rho: bessel_gauss_amplitude(beam, rho) ** 2 * rho,
            0.0, upper, epsabs=0.0, epsrel=1e-13, limit=5000,
        )
    assert err <= 1e-12 * value
    return value


def seeded_profile_beams(seed, count=20):
    """Deuteron-threshold photons over w0 2-100 pm, theta_k 0.01-0.3 and
    delta_l 1-3, plus the 1 TeV / 60 fm configuration."""
    rng = np.random.default_rng(seed)
    beams = []
    for _ in range(count - 1):
        delta_l = int(rng.integers(1, 4))
        beams.append(make_beam(
            m=delta_l + 1, spin=1, energy=DEUTERON_BINDING_EV,
            theta=float(rng.uniform(0.01, 0.3)),
            w0=float(10.0 ** rng.uniform(math.log10(2.0), 2.0)) * PM,
        ))
    beams.append(make_beam(m=2, spin=1, energy=1.0 * TEV, theta=5e-6, w0=60.0 * FM))
    return beams


def _same_bits(a, b):
    return np.array_equal(np.array(a, dtype=float).view("u8"), np.array(b, dtype=float).view("u8"))


@pytest.mark.parametrize("chunk, beams", [(4096, 30), (24, 30), (7, 10)])
def test_radial_intensity_integral_matches_per_pass_oracle(monkeypatch, chunk, beams):
    # shared amplitude tables give the bits of one table per chunk of each
    # pass; a small chunk makes every beam span several chunks and batches
    monkeypatch.setattr(beam_module, "_PANEL_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for beam in seeded_profile_beams(21 + chunk, beams):
        w0 = beam.envelope_w0
        for upper, lower in [(8.0 * w0, 0.0), (float(rng.uniform(0.05, 3.0)) * w0, 0.0),
                             (8.0 * w0, float(rng.uniform(0.05, 3.0)) * w0)]:
            assert _same_bits(radial_intensity_integral(beam, upper, lower),
                              per_pass_radial_intensity_integral(beam, upper, lower))


def test_radial_intensity_integral_matches_per_pass_oracle_beyond_one_chunk():
    # 3P > _PANEL_CHUNK at the package's own chunk: P from 1366 to 11600
    beam = make_beam(m=4, energy=500.0, theta=0.5, w0=1e4)
    kappa = transverse_wavenumber(beam)
    for panels in (1366, 1740, 2048, 4097, 11600):
        upper = panels * 2.0 * math.pi / kappa
        assert 3 * panels > beam_module._PANEL_CHUNK
        assert _same_bits(radial_intensity_integral(beam, upper),
                          per_pass_radial_intensity_integral(beam, upper))


@pytest.mark.parametrize("chunk", [4096, 16])
def test_focus_fraction_matches_per_pass_oracle(monkeypatch, chunk):
    monkeypatch.setattr(beam_module, "_PANEL_CHUNK", chunk)
    cuts = 10.0 ** np.random.default_rng(chunk).uniform(-4.0, 1.0, 4)

    def fractions():
        return [recoil_kinematics.focus_fraction(beam, beam.l_gamma, float(cut))
                for beam in seeded_profile_beams(2150 + chunk, 30) for cut in cuts]

    shared = fractions()
    with monkeypatch.context() as patch:
        patch.setattr(recoil_kinematics, "radial_intensity_integral",
                      per_pass_radial_intensity_integral)
        assert _same_bits(shared, fractions())
    # both branches ran: the inner integral alone, and the outer one as well
    assert min(shared) < 0.5 and any(0.5 < f < 1.0 for f in shared)


def test_bessel_gauss_amplitudes_are_the_array_amplitudes():
    # the float list against the array call, orders -64...64 and radii from
    # the axis past the envelope: the same sign and within 2 ulps (the
    # Bessel values are the same bits, the envelope's exp may round apart);
    # the same errors for a negative radius, a Bessel argument out of range
    # and a missing envelope
    rng = np.random.default_rng(2505)
    for _ in range(60):
        l_gamma = int(rng.integers(-64, 65))
        beam = make_beam(m=l_gamma + 1, spin=1, energy=DEUTERON_BINDING_EV,
                         theta=float(rng.uniform(0.01, 0.3)),
                         w0=float(10.0 ** rng.uniform(0.3, 2.0)) * PM)
        rhos = sorted(float(r) for r in rng.uniform(0.0, 3.0, 40) * beam.envelope_w0)
        values = beam_module.bessel_gauss_amplitudes(beam, [0.0] + rhos)
        expected = bessel_gauss_amplitude(beam, np.array([0.0] + rhos))
        assert {type(v) for v in values} == {float}
        assert np.array_equal(np.sign(values), np.sign(expected)), beam
        assert np.abs(np.array(values).view(np.int64) - expected.view(np.int64)).max() <= 2
    beam = make_beam(m=2, energy=DEUTERON_BINDING_EV, theta=0.1, w0=50.0 * PM)
    far = 2e6 / transverse_wavenumber(beam)
    for rhos, error in [([1e-3, -1e-3], DomainError), ([0.0, far], DomainError)]:
        with pytest.raises(error) as err:
            beam_module.bessel_gauss_amplitudes(beam, rhos)
        with pytest.raises(error) as array_err:
            bessel_gauss_amplitude(beam, np.array(rhos))
        assert str(err.value) == str(array_err.value)
    with pytest.raises(ConfigurationError):
        beam_module.bessel_gauss_amplitudes(beam._replace(envelope_w0=None), [1e-3])


def test_pairwise_sum_is_numpy_sum():
    # the float quadrature's sum against np.sum of the same values, flat and
    # as the (panels, 16) node table, bit for bit: lengths across numpy's
    # blocks of 8 and 128 and its halving, mixed signs and magnitudes
    rng = np.random.default_rng(2504)
    lengths = list(range(0, 300)) + [16 * int(k) for k in rng.integers(1, 200, 150)]
    for length in lengths:
        values = (rng.uniform(-1.0, 1.0, length) * 10.0 ** rng.uniform(-8, 8, length)).tolist()
        expected = float(np.sum(np.array(values)))
        assert beam_module._pairwise_sum(values).hex() == expected.hex(), length
        if length % 16 == 0:
            assert float(np.sum(np.array(values).reshape(-1, 16))).hex() == expected.hex()


def _ulps(a, b):
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def _float_node_draws(seed, count):
    # (beam, upper, lower) of at most FLOAT_NODES nodes: deuteron-threshold
    # photons of orders up to 64, inner and outer ends within 8 w0
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        l_gamma = int(rng.choice([int(rng.integers(-3, 4)), int(rng.integers(-64, 65))]))
        beam = make_beam(m=l_gamma + 1, spin=1, energy=DEUTERON_BINDING_EV,
                         theta=float(rng.uniform(0.01, 0.3)),
                         w0=float(10.0 ** rng.uniform(math.log10(2.0), 2.0)) * PM)
        upper = float(rng.uniform(0.05, 8.0)) * beam.envelope_w0
        lower = float(rng.choice([0.0, rng.uniform(0.0, upper)]))
        panels = max(8, math.ceil(transverse_wavenumber(beam) * (upper - lower) / (2 * math.pi)))
        if 48 * panels <= units.FLOAT_NODES:
            draws.append((beam, upper, lower))
    return draws


def test_float_quadrature_is_within_ulps_of_the_array_one(monkeypatch):
    # the profile integral and the focus fraction with the float-or-array
    # rule forced each way, on seeded draws below the node cap: the float
    # value and estimate lie within 4 ulps of the value of the array ones
    # (3 measured on 2642 draws), and most are the same bits; the nodes,
    # products and summation order are numpy's, and only math.exp and
    # numpy.exp round some envelopes apart
    def both(func):
        values = []
        for on_floats in (True, False):
            monkeypatch.setattr(beam_module, "on_floats", lambda count, most: on_floats)
            values.append(func())
        return values

    same = 0
    draws = _float_node_draws(2501, 150)
    for beam, upper, lower in draws:
        (value, error), (array_value, array_error) = both(
            lambda: radial_intensity_integral(beam, upper, lower))
        assert _ulps(value, array_value) <= 4, (beam, upper, lower)
        assert abs(error - array_error) <= 4 * math.ulp(array_value), (beam, upper, lower)
        same += (value, error) == (array_value, array_error)
    assert same > 0.8 * len(draws)
    cuts = 10.0 ** np.random.default_rng(2502).uniform(-4.0, 1.0, 3)
    fractions = []
    for beam in seeded_profile_beams(2503, 20):
        for cut in cuts:
            fraction, array_fraction = both(
                lambda: recoil_kinematics.focus_fraction(beam, beam.l_gamma, float(cut)))
            assert _ulps(fraction, array_fraction) <= 4, (beam, cut)
            fractions.append(fraction)
    # both branches ran: the inner integral alone, and the outer one as well
    assert min(fractions) < 0.5 and any(0.5 < f < 1.0 for f in fractions)


def test_float_quadrature_raises_the_array_quadrature_error(monkeypatch):
    # an amplitude that oscillates within a panel stalls the inner integral:
    # the float and the array path raise the same QuadratureError
    amplitude, amplitudes = beam_module.bessel_gauss_amplitude, beam_module.bessel_gauss_amplitudes
    monkeypatch.setattr(beam_module, "bessel_gauss_amplitude",
                        lambda beam, rho: amplitude(beam, rho) * np.cos(1e7 * rho))
    monkeypatch.setattr(beam_module, "bessel_gauss_amplitudes", lambda beam, rhos: [
        a * math.cos(1e7 * rho) for a, rho in zip(amplitudes(beam, rhos), rhos)])
    beam = make_beam(m=2, energy=DEUTERON_BINDING_EV, theta=0.1, w0=50.0 * PM)
    errors = []
    for on_floats in (True, False):
        monkeypatch.setattr(beam_module, "on_floats", lambda count, most: on_floats)
        with pytest.raises(QuadratureError) as err:
            recoil_kinematics.focus_fraction(beam, 1, 0.1)
        errors.append((err.value.code, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("inner profile integral stalled at error ")


def test_profile_integrals_build_one_table_per_batch(monkeypatch):
    # focus_fraction builds one amplitude table for the inner integral, and
    # one more where the outer integral runs; no table exceeds _PANEL_CHUNK
    # panels, and the tables hold the nodes of both passes, 3P panels
    sizes = []

    def counted(beam, rho):
        sizes.append(np.size(rho) // 16)
        return bessel_gauss_amplitude(beam, rho)

    monkeypatch.setattr(beam_module, "bessel_gauss_amplitude", counted)
    beam = make_beam(m=2, energy=2.5, theta=0.1, w0=5000.0)
    recoil_kinematics.focus_fraction(beam, 1, 1.0)
    assert sizes == [24]
    sizes.clear()
    assert 0.5 < recoil_kinematics.focus_fraction(beam, 1, 0.01) < 1.0
    assert len(sizes) == 2
    sizes.clear()
    kappa = transverse_wavenumber(beam)
    radial_intensity_integral(beam, 5000 * 2.0 * math.pi / kappa)
    assert sum(sizes) == 15000 and max(sizes) <= beam_module._PANEL_CHUNK
    assert sizes == [4096, 904, 4096, 4096, 1808]


def test_bessel_gauss_norm_matches_quad_oracle():
    for beam in seeded_profile_beams(31):
        oracle = 1.0 / math.sqrt(
            2.0 * math.pi * quad_intensity(beam, 8.0 * beam.envelope_w0)
        )
        assert bessel_gauss_norm(beam) == pytest.approx(oracle, rel=1e-10)


def test_radial_intensity_total_beyond_scipy_ive_range_matches_mpmath():
    # y = (kappa w0)^2/4 in [1e9, 3.9e9], where scipy.special.ive returns NaN;
    # 3.9e9 is about the Bessel domain limit kappa 8 w0 <= 1e6
    mpmath.mp.dps = 30
    rng = np.random.default_rng(59)
    cases = [(0, 1e9), (64, 1e9), (-64, 3.9e9), (1, 3.9e9)]
    cases += [(int(rng.integers(-64, 65)), float(rng.uniform(1e9, 3.9e9))) for _ in range(8)]
    for l_gamma, y in cases:
        spin = 1 if l_gamma >= 0 else -1
        beam = make_beam(m=l_gamma + spin, spin=spin, energy=DEUTERON_BINDING_EV, theta=0.1)
        kappa = transverse_wavenumber(beam)
        beam = make_beam(m=l_gamma + spin, spin=spin, energy=DEUTERON_BINDING_EV, theta=0.1,
                         w0=2.0 * math.sqrt(y) / kappa)
        w0 = beam.envelope_w0
        y = 0.25 * (kappa * w0) ** 2
        oracle = 0.25 * w0 * w0 * float(mpmath.besseli(abs(l_gamma), y) * mpmath.exp(-y))
        assert radial_intensity_total(beam) == pytest.approx(oracle, rel=1e-14)


def test_bessel_gauss_norm_not_normalizable():
    # kappa = 0 with l_gamma = 1: the amplitude vanishes identically
    with pytest.raises(QuadratureError):
        bessel_gauss_norm(make_beam(m=2, spin=1, theta=0.0, w0=10.0))


def test_profile_peak_large_kappa_w0_regime():
    # kappa*w0 >> 1: the envelope barely moves the first Bessel maximum
    beam = make_beam(m=2, spin=1, energy=3.12, theta=0.3, w0=1e4)
    kappa = transverse_wavenumber(beam)
    assert kappa * beam.envelope_w0 > 40.0
    assert profile_peak_radius(beam) == pytest.approx(1.8412 / kappa, rel=0.01)


def test_profile_peak_small_kappa_w0_regime():
    # kappa*w0 << 1: J_1 ~ rho, the peak is the Gaussian-weighted w0/sqrt(2)
    beam = make_beam(m=2, spin=1, energy=3.12, theta=1e-5, w0=10.0)
    assert transverse_wavenumber(beam) * beam.envelope_w0 < 1e-2
    assert profile_peak_radius(beam) == pytest.approx(
        beam.envelope_w0 / math.sqrt(2.0), rel=0.01
    )


def test_profile_peak_scaling_with_w0():
    b1 = profile_peak_radius(make_beam(m=2, spin=1, energy=3.12, theta=1e-5, w0=10.0))
    b2 = profile_peak_radius(make_beam(m=2, spin=1, energy=3.12, theta=1e-5, w0=20.0))
    assert b2 == pytest.approx(2.0 * b1, rel=0.01)


def test_profile_peak_quoted_tev_configuration():
    # pitch 5 urad, w0 = 60 fm, l_gamma = 1, photon near 1 TeV: the profile
    # peaks in the mid-30s fm (observed ~37 fm; the quoted target was 33 fm)
    beam = make_beam(m=2, spin=1, energy=1.0 * TEV, theta=5e-6, w0=60.0 * FM)
    peak = profile_peak_radius(beam)
    assert 30.0 * FM < peak < 45.0 * FM
    assert peak == pytest.approx(37.2 * FM, rel=0.01)


def test_profile_peak_matches_dense_grid_oracle():
    beam = make_beam(m=3, spin=1, energy=2.0 * MEV, theta=0.05, w0=2000.0 * FM)
    kappa = transverse_wavenumber(beam)
    rho = np.linspace(1e-9, 10.0 * beam.envelope_w0, 400_000)
    vals = np.abs(jv(beam.l_gamma, kappa * rho) * np.exp(-((rho / beam.envelope_w0) ** 2)))
    oracle = float(rho[np.argmax(vals)])
    assert profile_peak_radius(beam) == pytest.approx(oracle, rel=1e-4)


def test_profile_peak_matches_dense_grid_oracle_on_seeded_beams():
    # kappa w0 log-uniform over 1e-2..1e4, l_gamma 1..8 (either sign), 397 nm
    rng = np.random.default_rng(1017)
    beams = [make_beam(m=2, spin=1, w0=1e6)]  # 1 mm: first lobe far below w0
    while len(beams) < 200:
        l_gamma = int(rng.integers(1, 9)) * int(rng.choice([-1, 1]))
        theta = float(rng.uniform(0.01, 0.3))
        kappa = transverse_wavenumber(make_beam(theta=theta))
        w0 = float(10.0 ** rng.uniform(-2.0, 4.0)) / kappa
        beams.append(make_beam(m=l_gamma + 1, spin=1, theta=theta, w0=w0))
    for beam in beams:
        assert profile_peak_radius(beam) == pytest.approx(
            dense_grid_peak_radius(beam), rel=1e-6, abs=0.0)
    assert profile_peak_radius(beams[0]) == pytest.approx(1165.28, abs=0.005)


def test_profile_peak_beyond_bessel_domain_and_underflow_range():
    # 10 kappa w0 far beyond the Bessel argument limit: only the first lobe
    # is evaluated, which envelope and Bessel factor both put at j'_{1,1}
    beam = make_beam(m=2, spin=1, w0=1e300)
    assert profile_peak_radius(beam) == pytest.approx(
        1.8411837813406593 / transverse_wavenumber(beam), rel=1e-14)
    # kappa w0 ~ 1e-63: J_8 underflows to zero near the peak, which is the
    # small-kappa w0 limit w0 sqrt(l/2)
    beam = make_beam(m=9, spin=1, theta=1e-3, w0=1e-58)
    assert profile_peak_radius(beam) == pytest.approx(2e-58, rel=1e-14)


def test_profile_peak_degenerate_profiles():
    with pytest.raises(DomainError):
        profile_peak_radius(make_beam(m=1, spin=1, w0=10.0))  # l_gamma = 0
    with pytest.raises(DomainError):
        profile_peak_radius(make_beam(m=2, spin=1, theta=0.0, w0=10.0))  # kappa = 0
