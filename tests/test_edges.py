"""Every exported callable and record constructor, the grid record, the
first-maximum and first-lobe roots of the Bessel functions, and every figure
parameter override, at edge values: one numeric argument at a time (a field
of a beam, target, trap or query argument counts as an argument) is set to
each of the values below, with numpy loaded and warnings raised as errors.
Each call must end in a finite result of its documented type, holding plain
Python numbers, or in a coded TwistkickError whose text spells no value as
nan or inf.  A value that is no number (a bool, a string, None, a list
holding a string) must end in a ``DOMAIN`` error that names its type, but
None where an argument takes it.  An empty array is one of the values: an
argument that takes arrays gives an empty result, any other a ``DOMAIN``
error.  The exceptions are documented in
``INF_ALLOWED`` and ``ROW_CODES`` below, each with its reason.  The inputs
are a fixed list, so the test is deterministic."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

import twistkick
from twistkick import TruncationWarning, TwistkickError, special_functions, sweeps
from twistkick.units import CA40_ION_MASS_EV, DEUTERON_BINDING_EV, DEUTERON_MASS_EV

# values that are no number, each named by its type in the error
NOT_NUMBERS = (True, "abc", None, [1.0, "x"])
EMPTY = np.empty(0)
EDGES = (0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.nan, math.inf, -math.inf,
         10**400, -(10**400), -1.0, -3, 2, 7, np.float64(1.5), np.int64(2), *NOT_NUMBERS, EMPTY)
# the arguments and record fields that take None
TAKES_NONE = {"envelope_w0", "spread_rms"}

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
# callables of the package's modules that it does not export, each with its
# base arguments; an argument that is no number (a scale, a function) is
# not varied
MODULE_CALLS = {
    "GridSpec": (lambda **kw: (lambda grid: (grid, grid.values()))(sweeps.GridSpec(**kw)),
                 {"start": 1.0, "stop": 100.0, "count": 5, "scale": "lin"}),
    "bessel_first_max": (special_functions.bessel_first_max, {"n": 3}),
    "first_lobe_peak_argument": (special_functions.first_lobe_peak_argument,
                                 {"l_gamma": 3, "envelope_slope": lambda x: 0.1 * x}),
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
    which takes only arrays, a number), in a tuple for crossover_product's
    pitch angles, and in an array after the base value where ``owner``
    admits one (unless a float array cannot hold it)."""
    if key == "pitch_angles":
        return [(edge,)]
    forms = [] if owner == "recoil_ratio_array" and edge is not EMPTY else [edge]
    if (owner, key) in ARRAYS:
        try:
            forms.append(np.array([base_value, edge], dtype=float))
        except (OverflowError, TypeError, ValueError):  # or a str, None, a list
            pass
    return forms


def _no_number(key, form, edge):
    """The type name a call's error must give where ``form`` passes ``edge``,
    a value that is no number, as ``key`` (which may take None); else None."""
    if isinstance(form, np.ndarray) or not any(edge is v for v in NOT_NUMBERS):
        return None
    return None if edge is None and key in TAKES_NONE else type(edge).__name__


def _variants(name):
    """(label, call, type name, form) of every call of ``name`` with one
    numeric argument, or one field of one record argument, set to an edge
    value in one of its forms, the type name that of a value that is no
    number (:func:`_no_number`).  A
    record field value that its constructor rejects, or fails on, is covered
    by the constructor's own calls, so that call is skipped here."""
    function, base = MODULE_CALLS[name] if name in MODULE_CALLS else \
        (getattr(twistkick, name), CALLS[name])
    if name in RECORDS_BY_CLASS:  # a constructor: its fields are its arguments
        for field, value in base.items():
            for edge in EDGES:
                for form in _forms(name, field, value, edge):
                    yield f"{field}={form!r}", \
                        lambda field=field, form=form: function(**{**base, field: form}), \
                        _no_number(field, form, edge), form
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
        if isinstance(value, str) and value not in RECORDS or callable(value):
            continue
        for edge in EDGES:
            if value in RECORDS:
                cls, fields = RECORDS[value]
                for field, field_value in fields.items():
                    for form in _forms(cls.__name__, field, field_value, edge):
                        try:
                            args = arguments(key, field, form)
                        except Exception:  # noqa: BLE001 - the constructor's own fault
                            continue
                        yield f"{key}.{field}={form!r}", lambda args=args: function(**args), \
                            _no_number(field, form, edge), form
            else:
                for form in _forms(name, key, value, edge):
                    args = {**arguments(), key: form}
                    yield f"{key}={form!r}", lambda args=args: function(**args), \
                        _no_number(key, form, edge), form


def _outcome(name, call, no_number=None):
    """None where the call ends as documented, else what went wrong; with
    ``no_number``, the type name of a value that is no number, the call
    must end in a DOMAIN error naming that type."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", TruncationWarning)  # a documented warning
        try:
            result = call()
        except TwistkickError as exc:
            text = str(exc)
            if _SPELLED.search(text):
                return f"{type(exc).__name__} [{exc.code}] spells a value: {text}"
            if no_number and (exc.code != "DOMAIN" or f"got {no_number}" not in text):
                return f"{type(exc).__name__} [{exc.code}] does not name {no_number}: {text}"
            return None
        except Exception as exc:  # noqa: BLE001 - the fault under test
            return f"uncoded {type(exc).__name__}: {exc}"
    if no_number:
        return f"took a {no_number}: returned {result!r}"
    # a float b has one code string, an array one code per row
    codes = np.atleast_1d(ROW_CODES[name](result)).tolist() if name in ROW_CODES else []
    if not _plain(result, allow_inf=name in INF_ALLOWED, allow_nan=any(codes)):
        return f"returned {result!r}"
    return None


@pytest.mark.parametrize("name", sorted(CALLS) + sorted(MODULE_CALLS))
def test_edge_values_end_in_a_value_or_a_coded_error(name):
    faults = []
    for label, call, no_number, _ in _variants(name):
        fault = _outcome(name, call, no_number)
        if fault:
            faults.append(f"{name}({label}): {fault}")
    assert not faults, "\n".join(faults)


def _holds_only_empty_arrays(value) -> bool:
    # a result whose arrays are all empty, and which holds one
    arrays = [v for v in (value if isinstance(value, tuple) else (value,))
              if isinstance(v, np.ndarray)]
    return bool(arrays) and all(v.size == 0 for v in arrays)


def test_empty_array_gives_an_empty_result():
    # the rule of units.check for an empty 1-D array: every argument (or
    # record field) that takes arrays gives a result of empty arrays; any
    # other argument rejects it with DOMAIN, and so does crossover_product,
    # which reduces over its pitch angles and has none
    accepted = set()
    for name in sorted(CALLS):
        for label, call, _, form in _variants(name):
            if form is not EMPTY:
                continue
            try:
                result = call()
            except TwistkickError as exc:
                assert exc.code == "DOMAIN", f"{name}({label}): [{exc.code}] {exc}"
                continue
            assert _holds_only_empty_arrays(result), f"{name}({label}) returned {result!r}"
            accepted.add(f"{name}({label.split('=')[0]})")
    assert accepted == {
        "PairThresholdQuery(impact_parameter)", "PairThresholdQuery(pitch_angle)",
        "TargetParticle(impact_parameter)", "am_partition(b)", "bessel_gauss_amplitude(rho)",
        "jump_probability_extended(b)", "jump_probability_point(p_t)",
        "nonrel_recoil_energy(p_ev)", "pair_threshold(query.impact_parameter)",
        "pair_threshold(query.pitch_angle)", "recoil_ratio_array(b)", "sublevel_profile(b)",
        "superkick(b)", "transverse_recoil_energy(target.impact_parameter)"}
    with pytest.raises(TwistkickError, match="pitch angles must be one or more") as err:
        twistkick.crossover_product(2.5, 1, EMPTY)
    assert err.value.code == "DOMAIN"


def _rejected_override(default, value) -> bool:
    """Whether an override is no number of its default's kind: an integer
    for an int default, a finite number for a float one, neither a bool nor
    an int beyond the floating-point range."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.number)):
        return True
    if isinstance(value, (int, np.integer)):
        return abs(int(value)) > sys.float_info.max
    return isinstance(default, int) or not math.isfinite(value)


@pytest.mark.parametrize("figure_id", sweeps.FIGURE_IDS)
def test_every_figure_parameter_override_ends_in_a_table_or_a_coded_error(figure_id):
    # each parameter of the figure set to each edge value, on a 3-point grid
    # (the fixed tables on their cases); an override that is no number of
    # its default's kind is PARAMETER_TYPE
    figure = sweeps._REGISTRY[figure_id]
    grid = None if figure.grid is None else sweeps.GridSpec(
        figure.grid.start, figure.grid.stop, 3, figure.grid.scale)
    faults = []
    for key, default in figure.defaults.items():
        for edge in EDGES:
            spec = sweeps.SweepSpec(figure_id, {key: edge}, grid)
            fault = _outcome("run_sweep", lambda: sweeps.run_sweep(spec))
            if not fault and _rejected_override(default, edge):
                try:
                    sweeps.run_sweep(spec)
                except TwistkickError as exc:
                    if exc.code != "PARAMETER_TYPE":
                        fault = f"[{exc.code}] {exc}"
                else:
                    fault = "took it"
            if fault:
                faults.append(f"{figure_id}({key}={edge!r}): {fault}")
    assert not faults, "\n".join(faults)

