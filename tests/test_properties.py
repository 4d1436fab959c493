"""Property tests of the AM-partition array kernel (hypothesis, derandomized
so that every run draws the same examples)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twistkick.beam import TwistedPhotonBeam  # noqa: E402
from twistkick.transitions import TransitionChannel, am_partition  # noqa: E402
from twistkick.units import wavelength_to_energy  # noqa: E402

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
