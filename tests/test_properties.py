"""Property tests of the AM-partition array kernel, the extended-packet
engine, the closed-form profile norm, pair crossover and beam fit, the pair
threshold, and the command line's answer to any numeric argv (hypothesis,
derandomized so that every run draws the same examples)."""

import argparse
import contextlib
import io
import math
import re
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from scipy.optimize import brentq  # noqa: E402

from oracles import dense_grid_peak_radius  # noqa: E402
from twistkick.beam import TwistedPhotonBeam, bessel_gauss_norm, \
    radial_intensity_integral, transverse_wavenumber  # noqa: E402
from twistkick.cli import build_parser, main  # noqa: E402
from twistkick.errors import TruncationWarning  # noqa: E402
from twistkick.pair_production import PairThresholdQuery, crossover_product, \
    fit_beam_for_threshold_factor, pair_threshold, plane_wave_threshold, \
    small_angle_threshold  # noqa: E402
from twistkick.special_functions import bessel_first_max  # noqa: E402
from twistkick.sweeps import _REGISTRY  # noqa: E402
from twistkick.transitions import TransitionChannel, am_partition  # noqa: E402
from twistkick.trap import TrapModel, jump_probability_extended, \
    sideband_spectrum  # noqa: E402
from twistkick.units import CA40_ION_MASS_EV, DEUTERON_BINDING_EV, ELECTRON_MASS_EV, \
    HBARC_EV_NM, PM, wavelength_to_energy  # noqa: E402

DETERMINISTIC = settings(derandomize=True, max_examples=300, deadline=None,
                         database=None)


@DETERMINISTIC
@given(
    j=st.integers(1, 3),
    m_gamma=st.integers(-3, 3),
    helicity=st.sampled_from([-1, 1]),
    theta=st.floats(0.0, 0.3),
    m_initial=st.sampled_from([0.0, -0.5, 0.5]),
    b_lambda=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8),
)
def test_am_partition_bookkeeping(j, m_gamma, helicity, theta, m_initial, b_lambda):
    beam = TwistedPhotonBeam(m_gamma, helicity, wavelength_to_energy(397.0), theta)
    partition = am_partition(beam, TransitionChannel(j, m_initial=m_initial),
                             np.array(b_lambda) * 397.0)
    for i, error in enumerate(partition.errors):
        if error:
            assert error == "UNDEFINED_DISTRIBUTION"
            continue
        weights = partition.weights[:, i]
        assert np.all(weights >= 0.0)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
        lz_internal, lz_cm = partition.lz_internal[i], partition.lz_cm[i]
        assert lz_internal + lz_cm == pytest.approx(m_gamma, abs=1e-12)
        assert m_gamma - j - 1e-12 <= lz_cm <= m_gamma + j + 1e-12


CA_TRAP = TrapModel(1.5e6, 1.5e6, CA40_ION_MASS_EV)

packet_beams = st.builds(
    lambda m_gamma, helicity, lam, theta: TwistedPhotonBeam(
        m_gamma, helicity, wavelength_to_energy(lam), theta),
    st.integers(-3, 3), st.sampled_from([-1, 1]), st.floats(350.0, 1000.0),
    st.floats(0.01, 0.3),
)


def spectrum_and_jump(beam, nu, b, sigma, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        spectrum = sideband_spectrum(beam, nu, b, CA_TRAP, sigma, n_max)
    return spectrum, jump_probability_extended(beam, nu, b, CA_TRAP, sigma)


@DETERMINISTIC
@given(
    beam=packet_beams,
    nu=st.integers(-3, 3),
    b=st.floats(0.0, 3000.0),
    kappa_sigma=st.floats(1e-3, 27.0),
    n_max=st.integers(2, 40),
)
def test_packet_engine_bookkeeping(beam, nu, b, kappa_sigma, n_max):
    sigma = kappa_sigma / transverse_wavenumber(beam)
    spectrum, p_jump = spectrum_and_jump(beam, nu, b, sigma, n_max)
    assert 0.0 <= p_jump <= 1.0
    weights = list(spectrum.weights.values())
    assert all(w >= 0.0 for w in weights)
    assert math.fsum(weights) + spectrum.truncation_residual == pytest.approx(1.0, abs=1e-12)
    assert spectrum.weights[0] == spectrum.carrier_weight
    assert spectrum.carrier_weight == pytest.approx(1.0 - p_jump, abs=1e-15)


@settings(DETERMINISTIC, max_examples=50)
@given(
    beam=packet_beams,
    nu=st.integers(-3, 3),
    b=st.floats(0.0, 3000.0),
    kappa_sigma=st.floats(27.3, 1e4),
    n_max=st.integers(2, 170),
)
def test_packet_engine_beyond_carrier_underflow(beam, nu, b, kappa_sigma, n_max):
    # x = (kappa sigma)^2 > 745
    sigma = kappa_sigma / transverse_wavenumber(beam)
    with pytest.warns(TruncationWarning):
        spectrum = sideband_spectrum(beam, nu, b, CA_TRAP, sigma, n_max)
    assert all(w == 0.0 for w in spectrum.weights.values())
    assert spectrum.truncation_residual == 1.0
    assert jump_probability_extended(beam, nu, b, CA_TRAP, sigma) == 1.0


@settings(DETERMINISTIC, max_examples=100)
@given(
    l_gamma=st.integers(-3, 3),
    theta=st.floats(0.01, 0.3),
    w0_pm=st.floats(2.0, 100.0),
)
def test_profile_norm_matches_gauss_legendre(l_gamma, theta, w0_pm):
    # Weber's closed form against the composite Gauss-Legendre rule to 8 w0
    beam = TwistedPhotonBeam(l_gamma + 1, 1, DEUTERON_BINDING_EV, theta,
                             envelope_w0=w0_pm * PM)
    integral, _ = radial_intensity_integral(beam, 8.0 * beam.envelope_w0)
    oracle = 1.0 / math.sqrt(2.0 * math.pi * integral)
    assert bessel_gauss_norm(beam) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def brentq_crossover(omega2, l_gamma, pitch_angles):
    """Test-only oracle: the product b*theta_k where pair_threshold meets the
    plane-wave threshold, root-bracketed at each pitch angle."""
    reference = plane_wave_threshold(omega2)
    guess = l_gamma * HBARC_EV_NM * omega2 / ELECTRON_MASS_EV**2
    products = []
    for theta in pitch_angles:
        def excess(product):
            query = PairThresholdQuery(omega2, theta, product / theta, l_gamma)
            return pair_threshold(query).photon_energy - reference
        products.append(brentq(excess, 1e-3 * guess, 1e3 * guess, xtol=1e-30, rtol=1e-14))
    return math.fsum(products) / len(products)


@settings(DETERMINISTIC, max_examples=100)
@given(omega2=st.floats(0.1, 10.0), l_gamma=st.integers(1, 3))
def test_crossover_matches_root_bracketing(omega2, l_gamma):
    result = crossover_product(omega2, l_gamma)
    oracle = brentq_crossover(omega2, l_gamma, result.pitch_angles)
    assert result.product == pytest.approx(oracle, rel=1e-12, abs=0.0)


def brentq_fit_theta(factor, omega2, l_gamma, w0_over_b):
    """Test-only oracle: the pitch angle that puts the dense-grid peak of the
    profile at b, root-bracketed over three decades around the first Bessel
    peak."""
    p_t = 2.0 * ELECTRON_MASS_EV * math.sqrt(factor - 1.0)
    b = l_gamma * HBARC_EV_NM / p_t
    omega1 = factor * plane_wave_threshold(omega2)

    def peak_minus_b(theta):
        beam = TwistedPhotonBeam(l_gamma + 1, 1, omega1, theta,
                                 envelope_w0=w0_over_b * b)
        return dense_grid_peak_radius(beam) - b

    x_peak = bessel_first_max(l_gamma)[0]
    theta_lo = 1e-3 * x_peak * HBARC_EV_NM / (b * omega1)
    theta_hi = min(1.0, 10.0 * x_peak * HBARC_EV_NM / (b * omega1))
    return brentq(peak_minus_b, theta_lo, theta_hi, xtol=1e-4 * theta_lo, rtol=1e-7)


@settings(DETERMINISTIC, max_examples=60)
@given(
    factor=st.floats(0.18, 30.0).map(lambda e: 10.0**e),
    omega2=st.floats(-1.0, 2.0).map(lambda e: 10.0**e),
    l_gamma=st.integers(1, 3),
    w0_over_b=st.floats(1.5, 3.0),
)
def test_beam_fit_matches_profile_scan_root(factor, omega2, l_gamma, w0_over_b):
    fit = fit_beam_for_threshold_factor(factor, omega2, l_gamma, w0_over_b)
    oracle = brentq_fit_theta(factor, omega2, l_gamma, w0_over_b)
    assert fit.pitch_angle == pytest.approx(oracle, rel=2e-7, abs=0.0)
    assert abs(fit.peak_radius - fit.impact_parameter) <= 1e-7 * fit.impact_parameter


@DETERMINISTIC
@given(
    omega2=st.floats(0.1, 100.0),
    b=st.floats(1e-6, 1e-3),
    l_gamma=st.integers(0, 3),
)
def test_pair_threshold_at_zero_pitch_is_small_angle_form(omega2, b, l_gamma):
    solution = pair_threshold(PairThresholdQuery(omega2, 0.0, b, l_gamma))
    assert solution.photon_energy == pytest.approx(
        small_angle_threshold(omega2, solution.p_T), rel=1e-15, abs=0.0)


@DETERMINISTIC
@given(
    omega2=st.floats(0.1, 100.0),
    b=st.floats(1e-6, 1e-3),
    l_gamma=st.integers(0, 3),
    thetas=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=8),
)
def test_pair_threshold_does_not_rise_with_pitch(omega2, b, l_gamma, thetas):
    thresholds = [pair_threshold(PairThresholdQuery(omega2, t, b, l_gamma)).photon_energy
                  for t in sorted(thetas)]
    assert all(a >= c for a, c in zip(thresholds, thresholds[1:]))


FUZZ_VALUES = ("0", "-1", "1e300", "1e-300", "7")


def _numeric_flags():
    """{subcommand: [(flag, required)]} for every flag that takes a number."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(a.option_strings[0], a.required) for a in parser._actions
               if a.option_strings and a.type is not None and a.dest != "set"]
        for name, parser in subparsers.choices.items()
    }


NUMERIC_FLAGS = _numeric_flags()


@st.composite
def numeric_argv(draw):
    """A subcommand with its required numeric flags and a subset of the
    optional ones, each set to one of FUZZ_VALUES; ``reproduce`` also sets
    up to three parameters of a figure."""
    value = st.sampled_from(FUZZ_VALUES)
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    argv = [command]
    if command == "reproduce":
        figure = draw(st.sampled_from(sorted(_REGISTRY)))
        argv += ["--figure", figure]
        keys = st.sampled_from(sorted(_REGISTRY[figure].defaults))
        for key in draw(st.lists(keys, unique=True, max_size=3)):
            argv += ["--set", f"{key}={draw(value)}"]
    for flag, required in NUMERIC_FLAGS[command]:
        if required or draw(st.booleans()):
            argv += [flag, draw(value)]
    return argv


@DETERMINISTIC
@given(argv=numeric_argv())
@example(argv=["crossover", "--omega2-ev", "1e-300"])
@example(argv=["pair-threshold", "--pitch-urad", "5", "--b-fm", "1", "--omega2-ev", "1e-300"])
@example(argv=["pair-threshold", "--pitch-urad", "5", "--pt-mev", "1e300"])
@example(argv=["pair-threshold", "--pitch-urad", "5", "--b-fm", "1e-300"])
@example(argv=["beam-fit", "--w0-over-b", "1e-300"])
@example(argv=["focus-fraction", "--w0-pm", "1e300", "--pitch-rad", "0"])
@example(argv=["ion-recoil", "--lambda-nm", "1e-300", "--b-nm", "7", "--mass-mev", "1e300"])
def test_every_numeric_argv_ends_in_finite_csv_or_coded_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            status = exc.code
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        header, *lines = out.rstrip("\n").split("\n")
        assert lines, out
        assert all(math.isfinite(float(v)) for line in lines for v in line.split(",")), out
    else:
        assert status in (1, 2), (status, err)
        assert out == ""
        assert len(re.findall(r"error \[[A-Z_]+\]: ", err)) == 1, err
        assert "Traceback" not in err
        assert not re.search(r"\b(nan|inf)\b", err, re.IGNORECASE), err
