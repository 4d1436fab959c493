"""The record types: immutable named tuples that keep the dataclass repr,
check their fields on every construction path, and compare and hash by
value."""

import math

import pytest

from twistkick.beam import TwistedPhotonBeam
from twistkick.errors import TwistkickError
from twistkick.pair_production import BeamFitResult, CrossoverResult, PairThresholdQuery
from twistkick.recoil_kinematics import TargetParticle, ThresholdSolution
from twistkick.sweeps import GridSpec, SweepResult, SweepSpec
from twistkick.transitions import AmPartition, SublevelDistribution, TransitionChannel
from twistkick.trap import SidebandSpectrum, TrapModel

# (type, positional fields of a sample, its repr as the frozen dataclasses
# printed it)
RECORDS = [
    (TwistedPhotonBeam, (3, -1, 3.12, 0.1, 500.0),
     "TwistedPhotonBeam(m_gamma=3, lambda_spin=-1, energy=3.12, pitch_angle=0.1, "
     "envelope_w0=500.0)"),
    (PairThresholdQuery, (1.0, 5e-06, 10.0, 2),
     "PairThresholdQuery(omega2=1.0, pitch_angle=5e-06, impact_parameter=10.0, l_gamma=2)"),
    (CrossoverResult, (0.5, 0.01, (1e-06, 1e-05)),
     "CrossoverResult(product=0.5, relative_variation=0.01, pitch_angles=(1e-06, 1e-05))"),
    (BeamFitResult, (2.0, 1e6, 0.2, 0.05, 0.4, 1e12, 0.2),
     "BeamFitResult(threshold_factor=2.0, p_T=1000000.0, impact_parameter=0.2, "
     "pitch_angle=0.05, envelope_w0=0.4, photon_energy=1000000000000.0, peak_radius=0.2)"),
    (TargetParticle, (3.7e10, 20.0, 5.0),
     "TargetParticle(mass=37000000000.0, impact_parameter=20.0, spread_rms=5.0)"),
    (ThresholdSolution, (2.0e6, 2.0e6, 0.0, 55.5),
     "ThresholdSolution(photon_energy=2000000.0, p_z=2000000.0, p_T=0.0, "
     "recoil_energy=55.5)"),
    (GridSpec, (1.0, 100.0, 50, "log"),
     "GridSpec(start=1.0, stop=100.0, count=50, scale='log')"),
    (SweepSpec, ("fig6", {"theta_k": 0.2}, GridSpec(0.0, 1.0, 2)),
     "SweepSpec(figure_id='fig6', overrides={'theta_k': 0.2}, "
     "grid=GridSpec(start=0.0, stop=1.0, count=2, scale='lin'))"),
    (SweepResult, ([("b", "nm")], [[1.0]], {"rows": 1}),
     "SweepResult(columns=[('b', 'nm')], rows=[[1.0]], metadata={'rows': 1})"),
    (TransitionChannel, (2.0, -0.5, "E2"),
     "TransitionChannel(multipole_J=2.0, m_initial=-0.5, label='E2')"),
    (SublevelDistribution, ({0.5: 0.25}, {0.5: 1}, {0.5: 1.0}),
     "SublevelDistribution(amplitudes={0.5: 0.25}, winding={0.5: 1}, weights={0.5: 1.0})"),
    (AmPartition, ((0.5,), (1.0,), (0.0,), (1.0,), ("",)),
     "AmPartition(amplitudes=(0.5,), weights=(1.0,), lz_internal=(0.0,), lz_cm=(1.0,), "
     "errors=('',))"),
    (TrapModel, (1e6, 2e6, 3.7e10),
     "TrapModel(axial_frequency=1000000.0, transverse_frequency=2000000.0, "
     "ion_mass=37000000000.0)"),
    (SidebandSpectrum, ({0: 0.75, 1: 0.25}, 0.75, 0.0, 4.1e-09),
     "SidebandSpectrum(weights={0: 0.75, 1: 0.25}, carrier_weight=0.75, "
     "truncation_residual=0.0, quantum_energy=4.1e-09)"),
]

# (type, required fields only, the dataclass repr with the defaults filled in)
DEFAULTS = [
    (TwistedPhotonBeam, (1, 1, 1.0, 0.0),
     "TwistedPhotonBeam(m_gamma=1, lambda_spin=1, energy=1.0, pitch_angle=0.0, "
     "envelope_w0=None)"),
    (PairThresholdQuery, (1.0, 0.0),
     "PairThresholdQuery(omega2=1.0, pitch_angle=0.0, impact_parameter=0.0, l_gamma=0)"),
    (TargetParticle, (1.0,), "TargetParticle(mass=1.0, impact_parameter=0.0, spread_rms=None)"),
    (GridSpec, (1.0, 2.0, 3), "GridSpec(start=1.0, stop=2.0, count=3, scale='lin')"),
    (SweepSpec, ("fig6",), "SweepSpec(figure_id='fig6', overrides={}, grid=None)"),
    (TransitionChannel, (1,), "TransitionChannel(multipole_J=1, m_initial=0.0, label='')"),
]

# (type, a field and a value its checks reject, the coded error the
# dataclass raised for it)
REJECTED = [
    (TwistedPhotonBeam, "lambda_spin", 0, "DOMAIN", "lambda_spin must be +1 or -1, got 0"),
    (PairThresholdQuery, "impact_parameter", 0.0, "B_SINGULARITY",
     "l_gamma > 0 requires a positive impact parameter"),
    (TargetParticle, "impact_parameter", -20.0, "DOMAIN",
     "impact parameter must be non-negative and finite, got -20.0"),
    (GridSpec, "count", 1, "DOMAIN", "grid count must be an integer in [2, 1e6], got 1"),
    (TransitionChannel, "multipole_J", 2.5, "DOMAIN",
     "multipole_J must be an integer (photon multipolarity), got 2.5"),
    (TrapModel, "ion_mass", math.inf, "DOMAIN",
     "ion_mass must be positive and finite, got a non-finite value (an input overflows)"),
]

SAMPLES = {cls: args for cls, args, _ in RECORDS}


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, args, expected", RECORDS, ids=_ids(RECORDS))
def test_record_contract(cls, args, expected):
    record = cls(*args)
    assert repr(record) == expected
    assert tuple(record) == args
    assert cls(**dict(zip(cls._fields, args))) == record
    assert cls._make(args) == record and type(cls._make(args)) is cls
    assert record._replace() == record and type(record._replace()) is cls

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None  # no instance dict

    twin = cls(*args)
    assert twin == record and not twin != record
    try:
        expected_hash = hash(args)
    except TypeError:  # a field holds a dict or a list
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == expected_hash


@pytest.mark.parametrize("cls, required, expected", DEFAULTS, ids=_ids(DEFAULTS))
def test_record_defaults(cls, required, expected):
    assert repr(cls(*required)) == expected
    assert repr(cls(**dict(zip(cls._fields, required)))) == expected


@pytest.mark.parametrize("cls, name, bad, code, message", REJECTED, ids=_ids(REJECTED))
def test_record_checks_hold_on_every_construction_path(cls, name, bad, code, message):
    record = cls(*SAMPLES[cls])
    fields = record._asdict()
    fields[name] = bad
    for build in (lambda: cls(**fields), lambda: cls(*fields.values()),
                  lambda: cls._make(fields.values()), lambda: record._replace(**{name: bad})):
        with pytest.raises(TwistkickError) as err:
            build()
        assert (err.value.code, str(err.value)) == (code, message)


def test_sweep_spec_overrides_default_is_not_shared():
    first, second = SweepSpec("fig6"), SweepSpec("fig6")
    assert first.overrides == second.overrides == {}
    assert first.overrides is not second.overrides
    assert SweepSpec("fig6", None).overrides == {}
