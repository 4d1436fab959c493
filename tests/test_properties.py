"""Property tests of the AM-partition array kernel and the extended-packet
engine (hypothesis, derandomized so that every run draws the same
examples)."""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twistkick.beam import TwistedPhotonBeam, transverse_wavenumber  # noqa: E402
from twistkick.errors import TruncationWarning  # noqa: E402
from twistkick.transitions import TransitionChannel, am_partition  # noqa: E402
from twistkick.trap import TrapModel, jump_probability_extended, \
    sideband_spectrum  # noqa: E402
from twistkick.units import CA40_ION_MASS_EV, wavelength_to_energy  # noqa: E402

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
