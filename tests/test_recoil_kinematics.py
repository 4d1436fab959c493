import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from twistkick import recoil_kinematics
from twistkick.beam import TwistedPhotonBeam, bessel_gauss_amplitude, radial_intensity_integral, \
    radial_intensity_total
from twistkick.errors import ConfigurationError, DomainError, QuadratureError, SolverError
from twistkick.recoil_kinematics import (
    TargetParticle,
    absorption_energy,
    deuteron_threshold,
    focus_fraction,
    ratio_cut_radius,
    transverse_recoil_energy,
)
from twistkick.units import (
    CA40_ION_MASS_EV,
    DEUTERON_BINDING_EV,
    DEUTERON_MASS_EV,
    FM,
    HBARC_EV_NM,
    KEV,
    MEV,
    NEV,
    PM,
    TEV,
    frequency_to_energy,
    nonrel_recoil_energy,
    wavelength_to_energy,
)

E397 = wavelength_to_energy(397.0)


def test_target_validation():
    with pytest.raises(DomainError):
        TargetParticle(0.0)
    with pytest.raises(DomainError):
        TargetParticle(1.0, impact_parameter=-1.0)
    with pytest.raises(DomainError):
        TargetParticle(1.0, spread_rms=0.0)


def test_absorption_energy_longitudinal_only():
    target = TargetParticle(CA40_ION_MASS_EV)
    sol = absorption_energy(E397, target, 0)
    assert sol.p_T == 0.0
    assert sol.recoil_energy == pytest.approx(0.13 * NEV, rel=0.05)


def test_absorption_energy_infinite_mass():
    sol = absorption_energy(3.0, TargetParticle(math.inf), 0)
    assert sol.photon_energy == 3.0
    assert sol.recoil_energy == 0.0


def test_absorption_energy_transverse_term_matches_units_oracle():
    # dl=1, b=10 nm on 40Ca: the transverse term is (hbar c / b)^2 / (2 M c^2),
    # about 5.2 neV, within 20% of the 6.2 neV trap spacing
    target = TargetParticle(CA40_ION_MASS_EV, impact_parameter=10.0)
    oracle = (HBARC_EV_NM / 10.0) ** 2 / (2.0 * CA40_ION_MASS_EV)
    e_t = transverse_recoil_energy(target, 1)
    assert e_t == pytest.approx(oracle, rel=1e-12)
    assert abs(e_t - frequency_to_energy(1.5e6)) / frequency_to_energy(1.5e6) < 0.20
    sol = absorption_energy(E397, target, 1)
    assert sol.recoil_energy == pytest.approx(oracle + 0.131 * NEV, rel=0.01)


def test_absorption_energy_solution_residual():
    # the quadratic is solved exactly: Eq. residual below 1e-12 relative
    rng = np.random.default_rng(23)
    for _ in range(200):
        mass = float(10.0 ** rng.uniform(6, 12))
        omega0 = float(10.0 ** rng.uniform(-1, 6))
        b = float(10.0 ** rng.uniform(-6, 2))
        dl = int(rng.integers(0, 4))
        e_t = (dl * HBARC_EV_NM / b) ** 2 / (2.0 * mass) if dl else 0.0
        if mass < 1e3 * (omega0 + e_t):
            continue  # close to the unphysical-root boundary
        sol = absorption_energy(omega0, TargetParticle(mass, b), dl)
        residual = sol.photon_energy - omega0 - (
            sol.p_z**2 + sol.p_T**2
        ) / (2.0 * mass)
        assert abs(residual) <= 1e-12 * sol.photon_energy


def test_absorption_energy_no_root():
    with pytest.raises(SolverError):
        absorption_energy(10.0, TargetParticle(1.0), 0)


def test_transverse_recoil_deuteron_quotables():
    target = TargetParticle(DEUTERON_MASS_EV, impact_parameter=89.0 * FM)
    assert transverse_recoil_energy(target, 1) == pytest.approx(1.3 * KEV, rel=0.03)


def test_transverse_recoil_scalings():
    target = TargetParticle(DEUTERON_MASS_EV, impact_parameter=89.0 * FM)
    half = TargetParticle(DEUTERON_MASS_EV, impact_parameter=44.5 * FM)
    e1 = transverse_recoil_energy(target, 1)
    assert transverse_recoil_energy(target, 2) == pytest.approx(4.0 * e1, rel=1e-12)
    assert transverse_recoil_energy(half, 1) == pytest.approx(
        e1 * (89.0 / 44.5) ** 2, rel=1e-12
    )


def test_transverse_recoil_domain():
    with pytest.raises(DomainError):
        transverse_recoil_energy(TargetParticle(DEUTERON_MASS_EV), 1)


def test_int_mass_beyond_float_range_is_domain():
    # named for the mass at construction, not an OverflowError later
    for mass in (10**400, -(10**400)):
        with pytest.raises(DomainError, match="mass is beyond") as err:
            transverse_recoil_energy(TargetParticle(mass, 1.0), 1)
        assert err.value.code == "DOMAIN"
    assert TargetParticle(10**300, 1.0).mass == 10**300


@pytest.mark.filterwarnings("error")  # (1.97e302 eV)^2 is inf silently, as on floats
def test_transverse_recoil_array_matches_float_calls():
    # fig6's kernels on an array of b: each element equals the float call bit
    # for bit, through a kick that overflows to inf; an array holding a b that
    # the float call rejects raises for the whole array
    b = np.concatenate([[1e-300], np.geomspace(1e-6, 1e9, 40)])
    for delta_l in (0, 1, 3):
        energies = transverse_recoil_energy(TargetParticle(CA40_ION_MASS_EV, b), delta_l)
        assert energies.tolist() == [
            transverse_recoil_energy(TargetParticle(CA40_ION_MASS_EV, v), delta_l)
            for v in b.tolist()]
    momenta = b[1:] * 1e3
    assert nonrel_recoil_energy(momenta, CA40_ION_MASS_EV).tolist() == [
        nonrel_recoil_energy(p, CA40_ION_MASS_EV) for p in momenta.tolist()]
    for bad in ([1.0, 0.0], [1.0, -1.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(DomainError):
            transverse_recoil_energy(TargetParticle(CA40_ION_MASS_EV, bad[1]), 1)
        with pytest.raises(DomainError):
            transverse_recoil_energy(TargetParticle(CA40_ION_MASS_EV, np.array(bad)), 1)


def make_beam(m, energy=None, theta=0.1, w0=None):
    return TwistedPhotonBeam(
        m_gamma=m, lambda_spin=1,
        energy=energy if energy is not None else wavelength_to_energy(559.0 * FM),
        pitch_angle=theta, envelope_w0=w0,
    )


def test_deuteron_threshold_e2_channel_unchanged():
    # m_gamma = 2 absorbed entirely by the E2 internal excitation: the
    # threshold stays at the plane-wave value E_B + 1.3 keV
    sol = deuteron_threshold(make_beam(2), 2, 89.0 * FM)
    plane = deuteron_threshold(make_beam(1), 1, 89.0 * FM)
    assert sol == plane
    assert sol.recoil_energy == pytest.approx(1.3 * KEV, rel=0.03)
    assert sol.photon_energy == pytest.approx(DEUTERON_BINDING_EV + 1.3 * KEV, rel=1e-3)


def test_deuteron_threshold_dipole_channel_doubles():
    sol = deuteron_threshold(make_beam(2), 1, 89.0 * FM)
    assert sol.recoil_energy == pytest.approx(2.6 * KEV, rel=0.03)


def test_deuteron_threshold_depends_only_on_delta_l():
    a = deuteron_threshold(make_beam(2), 1, 89.0 * FM)
    b = deuteron_threshold(make_beam(3), 2, 89.0 * FM)
    assert a == b


def test_deuteron_threshold_negative_delta_l():
    with pytest.raises(DomainError):
        deuteron_threshold(make_beam(1), 2, 89.0 * FM)


def test_threshold_monotone_in_b():
    beam = make_beam(2)
    bs = np.geomspace(10.0 * FM, 1000.0 * FM, 40)
    thresholds = [deuteron_threshold(beam, 1, float(b)).photon_energy for b in bs]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    flat = [deuteron_threshold(beam, 2, float(b)).photon_energy for b in bs]
    assert len(set(flat)) == 1


def test_ratio_cut_radius_oracle():
    # dl=1, cut=0.1 at the deuteron threshold energy: b* = 10 hbar c / E
    beam = make_beam(2, energy=DEUTERON_BINDING_EV)
    oracle = 10.0 * HBARC_EV_NM / DEUTERON_BINDING_EV
    b_star = ratio_cut_radius(beam, 1, 0.1)
    assert b_star == pytest.approx(oracle, rel=1e-12)
    assert b_star == pytest.approx(887.0 * FM, rel=0.01)


def test_focus_fraction_riemann_oracle():
    beam = make_beam(2, energy=DEUTERON_BINDING_EV, w0=2.0 * PM)
    frac = focus_fraction(beam, 1, 0.1)

    b_star = ratio_cut_radius(beam, 1, 0.1)
    upper = 8.0 * beam.envelope_w0
    n = 800_000
    rho = (np.arange(n) + 0.5) * upper / n
    dens = np.abs(bessel_gauss_amplitude(beam, rho)) ** 2 * rho
    total = float(np.sum(dens))
    inner = float(np.sum(dens[rho < b_star]))
    assert frac == pytest.approx(inner / total, abs=1e-4)
    assert 0.0 < frac < 1.0


def test_focus_fraction_without_envelope_is_configuration_error():
    # the same CONFIG error every other profile operation raises
    beam = TwistedPhotonBeam(2, 1, DEUTERON_BINDING_EV, 0.1)
    with pytest.raises(ConfigurationError) as err:
        focus_fraction(beam, 1, 0.1)
    assert err.value.code == "CONFIG"
    assert "envelope_w0" in str(err.value)


def test_focus_fraction_monotone_in_cut():
    beam = make_beam(2, energy=DEUTERON_BINDING_EV, w0=50.0 * PM)
    cuts = [0.05, 0.1, 0.3, 1.0, 10.0]
    fracs = [focus_fraction(beam, 1, c) for c in cuts]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    assert focus_fraction(beam, 1, 1e6) < 1e-10


def test_focus_fraction_monotone_in_w0():
    tight = make_beam(2, energy=DEUTERON_BINDING_EV, w0=3.0 * PM)
    loose = make_beam(2, energy=DEUTERON_BINDING_EV, w0=50.0 * PM)
    assert focus_fraction(tight, 1, 0.1) > focus_fraction(loose, 1, 0.1)


def quad_density(beam, upper):
    """Test-only oracle: adaptive quadrature of |psi|^2 rho over [0, upper]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, err = quad(
            lambda rho: bessel_gauss_amplitude(beam, rho) ** 2 * rho,
            0.0, upper, epsabs=0.0, epsrel=1e-13, limit=5000,
        )
    assert err <= 1e-12 * value
    return value


def test_focus_fraction_matches_quad_oracle():
    rng = np.random.default_rng(47)
    cases = []
    for _ in range(19):
        delta_l = int(rng.integers(1, 4))
        beam = make_beam(
            delta_l + 1, energy=DEUTERON_BINDING_EV,
            theta=float(rng.uniform(0.01, 0.3)),
            w0=float(10.0 ** rng.uniform(math.log10(2.0), 2.0)) * PM,
        )
        cases.append((beam, delta_l, float(10.0 ** rng.uniform(-2.0, 0.0))))
    cases.append((make_beam(2, energy=1.0 * TEV, theta=5e-6, w0=60.0 * FM), 1, 0.1))
    for beam, delta_l, cut in cases:
        b_star = ratio_cut_radius(beam, delta_l, cut)
        upper = 8.0 * beam.envelope_w0
        assert b_star < upper
        oracle = quad_density(beam, b_star) / quad_density(beam, upper)
        assert focus_fraction(beam, delta_l, cut) == pytest.approx(oracle, rel=1e-10)


def test_focus_fraction_wide_cut_radius_is_one():
    beam = make_beam(2, energy=DEUTERON_BINDING_EV, w0=2.0 * PM)
    assert ratio_cut_radius(beam, 1, 1e-3) >= 8.0 * beam.envelope_w0
    assert focus_fraction(beam, 1, 1e-3) == 1.0


def test_focus_fraction_at_most_one_below_cut_off():
    # b* at 0.59 of the 8 w0 cut-off: [0, b*] holds all the mass, and the two
    # panel layouts used to round the ratio to 1.0000000000000004
    beam = TwistedPhotonBeam(4, 1, DEUTERON_BINDING_EV, 0.1,
                             envelope_w0=0.005116442060521341)
    cut = 0.010977828570905743
    assert ratio_cut_radius(beam, 3, cut) < 8.0 * beam.envelope_w0
    assert focus_fraction(beam, 3, cut) == 1.0


def test_focus_fraction_rejects_large_error_estimates(monkeypatch):
    beam = make_beam(2, energy=DEUTERON_BINDING_EV, w0=50.0 * PM)
    total = radial_intensity_total(beam)

    def fake(inner_err):
        return lambda beam, limit: (0.5 * total, inner_err * total)

    # the inner estimate is measured against the total, not the inner value
    monkeypatch.setattr(recoil_kinematics, "radial_intensity_integral", fake(4e-8))
    with pytest.raises(QuadratureError):
        focus_fraction(beam, 1, 0.1)
    monkeypatch.setattr(recoil_kinematics, "radial_intensity_integral", fake(1e-8))
    assert focus_fraction(beam, 1, 0.1) == 0.5


@pytest.mark.parametrize("inputs", [
    {"impact_parameter": math.inf}, {"impact_parameter": math.nan},
    {"spread_rms": math.inf}, {"spread_rms": math.nan},
    {"impact_parameter": -math.inf}, {"spread_rms": -math.inf},
    {"mass": math.nan}, {"mass": -math.inf},
    {"impact_parameter": np.array([1.0, math.nan])},
])
def test_target_rejects_non_finite_inputs(inputs):
    with pytest.raises(DomainError) as err:
        TargetParticle(**{"mass": CA40_ION_MASS_EV, **inputs})
    assert err.value.code == "DOMAIN"
    # the value is named, not spelled nan or inf
    assert not re.search(r"\b(nan|inf)\b", str(err.value), re.IGNORECASE), err.value


def test_target_of_infinite_mass_is_accepted():
    # an infinitely heavy target takes no recoil (absorption_energy tests it)
    assert TargetParticle(math.inf).mass == math.inf


@pytest.mark.parametrize("l_gamma", [56, 60, 64])
@pytest.mark.parametrize("kappa_w0", [0.1, 1.0, 3.0])
def test_profile_tail_beyond_8_w0_is_below_1e_9_of_the_total(l_gamma, kappa_w0):
    # focus_fraction answers exactly 1.0 for b* >= 8 w0.  J_l^2 grows like
    # rho^(2l) there, so the tail beyond 8 w0 is not the envelope's 1e-55:
    # it is largest at |l| = 64, where it reaches 2.9e-10 of the total.
    # Oracle: mpmath's quadrature of the tail over mpmath's closed-form total
    # (Weber's second exponential integral, w0 = 1); then the package's own
    # quadrature over [0, 8 w0] against its closed-form total
    import mpmath
    with mpmath.workdps(30):
        y = kappa_w0**2 / 4
        total = mpmath.exp(-y) * mpmath.besseli(l_gamma, y) / 4
        tail = mpmath.quad(lambda r: mpmath.besselj(l_gamma, kappa_w0 * r) ** 2
                           * mpmath.exp(-2 * r * r) * r, [8, 9, 10, 12, mpmath.inf])
        assert 0 < tail / total <= 1e-9
    w0 = 1.0
    pitch = 0.1
    beam = TwistedPhotonBeam(l_gamma + 1, 1, kappa_w0 / w0 * HBARC_EV_NM / math.sin(pitch),
                             pitch, envelope_w0=w0)
    inner, error = radial_intensity_integral(beam, 8.0 * w0)
    closed = radial_intensity_total(beam)
    assert abs(closed - inner) <= 1e-9 * closed and error <= 1e-8 * closed
