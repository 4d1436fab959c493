"""Every exported callable and record constructor at edge values: one numeric
argument at a time (a field of a beam, target, trap or query argument counts
as an argument) is set to each of the values below, with numpy loaded and
warnings raised as errors.  Each call must end in a finite result of its
documented type, holding plain Python numbers, or in a coded TwistkickError
whose text spells no value as nan or inf.  The exceptions are documented in
``INF_ALLOWED`` and ``ROW_CODES`` below, each with its reason.  The inputs
are a fixed list, so the test is deterministic."""

import math
import re
import warnings

import numpy as np
import pytest

import twistkick
from twistkick import TruncationWarning, TwistkickError
from twistkick.units import CA40_ION_MASS_EV, DEUTERON_BINDING_EV, DEUTERON_MASS_EV

EDGES = (0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.nan, math.inf, -math.inf,
         10**400, -(10**400), -1.0, -3, 2, 7, np.float64(1.5), np.int64(2))

_SPELLED = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)

# base arguments of the records, by field; a call varies one field at a time
BEAM = dict(m_gamma=2, lambda_spin=1, energy=3.12, pitch_angle=0.1, envelope_w0=500.0)
TARGET = dict(mass=DEUTERON_MASS_EV, impact_parameter=89e-6, spread_rms=None)
TRAP = dict(axial_frequency=1.5e6, transverse_frequency=1.5e6, ion_mass=CA40_ION_MASS_EV)
QUERY = dict(omega2=2.5, pitch_angle=5e-6, impact_parameter=200e-6, l_gamma=1)
CHANNEL = dict(multipole_J=1, m_initial=0.0)

RECORDS = {"beam": (twistkick.TwistedPhotonBeam, BEAM),
           "target": (twistkick.TargetParticle, TARGET),
           "trap": (twistkick.TrapModel, TRAP),
           "query": (twistkick.PairThresholdQuery, QUERY),
           "channel": (twistkick.TransitionChannel, CHANNEL)}
RECORDS_BY_CLASS = {cls.__name__ for cls, _ in RECORDS.values()}

# each exported callable with its base arguments: a numeric argument is
# varied itself, a record argument (named by its RECORDS key) field by field
CALLS = {
    "TwistedPhotonBeam": BEAM,
    "TargetParticle": TARGET,
    "TrapModel": TRAP,
    "PairThresholdQuery": QUERY,
    "TransitionChannel": CHANNEL,
    "transverse_wavenumber": {"beam": "beam"},
    "longitudinal_momentum": {"beam": "beam"},
    "equal_kick_radius": {"beam": "beam"},
    "bessel_gauss_norm": {"beam": "beam"},
    "profile_peak_radius": {"beam": "beam"},
    "bessel_gauss_amplitude": {"beam": "beam", "rho": 100.0},
    "superkick": {"delta_l": 1, "b": 10.0},
    "plane_wave_threshold": {"omega2": 2.5},
    "small_angle_threshold": {"omega2": 2.5, "p_t": 1e6},
    "pair_threshold": {"query": "query"},
    "crossover_product": {"omega2": 2.5, "l_gamma": 1, "pitch_angles": (1e-6,)},
    "fit_beam_for_threshold_factor": {"factor": 10.0, "omega2": 2.5, "l_gamma": 1,
                                      "w0_over_b": 2.0},
    "absorption_energy": {"omega0": DEUTERON_BINDING_EV, "target": "target",
                           "delta_l_cm": 1},
    "transverse_recoil_energy": {"target": "target", "delta_l_cm": 1},
    "deuteron_threshold": {"beam": "beam", "internal_am_absorbed": 1, "b": 89e-6},
    "ratio_cut_radius": {"beam": "beam", "delta_l_cm": 1, "ratio_cut": 0.1},
    "focus_fraction": {"beam": "beam", "delta_l_cm": 1, "ratio_cut": 0.1},
    "bessel_j": {"n": 1, "x": 2.0},
    "wigner_small_d": {"j": 1, "m_f": 0, "m_i": 1, "theta": 0.3},
    "am_partition": {"beam": "beam", "channel": "channel", "b": 100.0},
    "excitation_probabilities": {"beam": "beam", "channel": "channel", "b": 100.0},
    "mean_internal_am": {"beam": "beam", "channel": "channel", "b": 100.0},
    "mean_cm_am": {"beam": "beam", "channel": "channel", "b": 100.0},
    "recoil_ratio": {"beam": "beam", "channel": "channel", "b": 100.0},
    "recoil_ratio_array": {"beam": "beam", "channel": "channel", "b": 100.0},
    "sublevel_profile": {"beam": "beam", "channel": "channel", "m_f": 0.0, "b": 100.0},
    "in_lamb_dicke_regime": {"eta": 0.5},
    "lamb_dicke": {"recoil_energy": 1e-9, "trap_frequency_hz": 1.5e6},
    "level_spacing": {"trap": "trap"},
    "jump_probability_point": {"p_t": 10.0, "trap": "trap"},
    "jump_probability_extended": {"beam": "beam", "nu": 1, "b": 20.0, "trap": "trap",
                                   "sigma": 10.0},
    "sideband_spectrum": {"beam": "beam", "nu": 1, "b": 20.0, "trap": "trap",
                           "sigma": 10.0, "n_max": 8},
    "nonrel_recoil_energy": {"p_ev": 10.0, "mass_ev": CA40_ION_MASS_EV},
    "energy_to_wavelength": {"energy_ev": 3.12},
    "frequency_to_energy": {"frequency_hz": 1.5e6},
    "wavelength_to_energy": {"wavelength_nm": 397.0},
}

# the arguments (or record fields) whose docstring admits a 1-D array: each
# edge value is also passed as the second element of an array
ARRAYS = {("superkick", "b"), ("bessel_gauss_amplitude", "rho"), ("sublevel_profile", "b"),
          ("am_partition", "b"), ("recoil_ratio_array", "b"), ("jump_probability_point", "p_t"),
          ("jump_probability_extended", "b"), ("nonrel_recoil_energy", "p_ev"),
          ("PairThresholdQuery", "pitch_angle"), ("PairThresholdQuery", "impact_parameter"),
          ("TargetParticle", "impact_parameter")}

# the documented exceptions to "a finite result", each with its reason
INF_ALLOWED = {
    "superkick": "p_T beyond the float range is inf, on an array as on a float",
    "nonrel_recoil_energy": "a recoil energy beyond the float range is inf",
    "transverse_recoil_energy": "a recoil energy beyond the float range is inf",
    "TargetParticle": "mass = inf is the recoil-free absorber (nonrel_recoil_energy)",
}
# the calls that code an undefined row instead of raising; a coded row
# holds NaN (AmPartition's docstring)
ROW_CODES = {"am_partition": lambda result: result.errors,
             "recoil_ratio_array": lambda result: result[1]}

# outputs that are results, not inputs: they hold what they are given
RESULTS = {"AmPartition", "SublevelDistribution", "ThresholdSolution", "BeamFitResult",
           "CrossoverResult", "SidebandSpectrum"}


def _exported():
    # the package's own callables and record types, but for its errors
    return {name for name, value in vars(twistkick).items()
            if callable(value) and not name.startswith("_") and name not in RESULTS
            and getattr(value, "__module__", "").startswith("twistkick")
            and not (isinstance(value, type) and issubclass(value, (Exception, Warning)))}


def test_every_export_is_covered():
    assert _exported() == set(CALLS)


def _plain(value, allow_inf, allow_nan) -> bool:
    """Whether ``value`` holds only plain Python numbers (or arrays, strings,
    None) that are finite, up to the allowed exception."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, np.ndarray):
        values = value.ravel().tolist() if value.dtype.kind in "fiu" else []
        return all(_plain(v, allow_inf, allow_nan) for v in values)
    if isinstance(value, dict):
        return all(_plain(k, allow_inf, allow_nan) and _plain(v, allow_inf, allow_nan)
                   for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return all(_plain(v, allow_inf, allow_nan) for v in value)
    if type(value) is int:
        return True
    if type(value) is float:
        return math.isfinite(value) or (allow_nan and math.isnan(value)) or \
            (allow_inf and math.isinf(value))
    return False  # a numpy scalar, or another type


def _forms(owner, key, base_value, edge):
    """The edge value as an argument: itself (but for recoil_ratio_array,
    which takes only arrays), in a tuple for crossover_product's pitch
    angles, and in an array after the base value where ``owner`` admits
    one (unless a float array cannot hold it)."""
    if key == "pitch_angles":
        return [(edge,)]
    forms = [] if owner == "recoil_ratio_array" else [edge]
    if (owner, key) in ARRAYS:
        try:
            forms.append(np.array([base_value, edge], dtype=float))
        except OverflowError:
            pass
    return forms


def _variants(name):
    """(label, call) of every call of ``name`` with one numeric argument, or
    one field of one record argument, set to an edge value.  A record field
    value that its constructor rejects, or fails on, is covered by the
    constructor's own calls, so that call is skipped here."""
    base = CALLS[name]
    function = getattr(twistkick, name)
    if name in RECORDS_BY_CLASS:  # a constructor: its fields are its arguments
        for field, value in base.items():
            for edge in EDGES:
                for form in _forms(name, field, value, edge):
                    yield f"{field}={form!r}", \
                        lambda field=field, form=form: function(**{**base, field: form})
        return

    def arguments(changed_record=None, field=None, form=None):
        args = {}
        for key, value in base.items():
            if value in RECORDS:
                cls, fields = RECORDS[value]
                args[key] = cls(**{**fields, **({field: form} if key == changed_record else {})})
            else:
                args[key] = value
        return args

    for key, value in base.items():
        for edge in EDGES:
            if value in RECORDS:
                cls, fields = RECORDS[value]
                for field, field_value in fields.items():
                    for form in _forms(cls.__name__, field, field_value, edge):
                        try:
                            args = arguments(key, field, form)
                        except Exception:  # noqa: BLE001 - the constructor's own fault
                            continue
                        yield f"{key}.{field}={form!r}", lambda args=args: function(**args)
            else:
                for form in _forms(name, key, value, edge):
                    args = {**arguments(), key: form}
                    yield f"{key}={form!r}", lambda args=args: function(**args)


def _outcome(name, call):
    """None where the call ends as documented, else what went wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", TruncationWarning)  # a documented warning
        try:
            result = call()
        except TwistkickError as exc:
            text = str(exc)
            if _SPELLED.search(text):
                return f"{type(exc).__name__} [{exc.code}] spells a value: {text}"
            return None
        except Exception as exc:  # noqa: BLE001 - the fault under test
            return f"uncoded {type(exc).__name__}: {exc}"
    # a float b has one code string, an array one code per row
    codes = np.atleast_1d(ROW_CODES[name](result)).tolist() if name in ROW_CODES else []
    if not _plain(result, allow_inf=name in INF_ALLOWED, allow_nan=any(codes)):
        return f"returned {result!r}"
    return None


@pytest.mark.parametrize("name", sorted(CALLS))
def test_edge_values_end_in_a_value_or_a_coded_error(name):
    faults = []
    for label, call in _variants(name):
        fault = _outcome(name, call)
        if fault:
            faults.append(f"{name}({label}): {fault}")
    assert not faults, "\n".join(faults)

