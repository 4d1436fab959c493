"""Figure-reproduction engine: canned parameter sweeps composing the physics
modules into deterministic data tables with stable column schemas.

Every figure id carries default parameters (pitch angle, trap frequency,
wavelength, ...) for the quantities its source plot leaves unstated; all of
them are overridable.  Each user parameter, a figure's or a CLI flag's, is
declared once, in ``_PARAMETERS``: its unit and help words, its default,
the :data:`twistkick.units.RANGES` quantity it feeds and the factor that
takes it to library units.  A figure lists its parameters by name and
overrides a default only where it differs (fig7's 729 nm line,
``_ION_LINE``); ``twistkick.cli`` builds each subcommand's flags from the
same table.  :func:`run_sweep` checks each override before any row is
built: its type (``PARAMETER_TYPE``), then, through
:func:`_check_parameter`, its quantity's range on the value the library
would get, after the factor, with the quantity's code and a message naming
the figure, the parameter, its range and the value in the parameter's own
unit; the CLI checks its flags in other units than the library's the same
way.

A grid (:meth:`GridSpec.values`) is a list of Python floats.  A figure
builder takes it whole and returns ``(rows, codes)``: rows of Python floats
and one code per row ("" where the row is defined, NaN values where it is
not).  Every figure with a grid writes one row function of a float or an
array for :func:`_whole_grid`, the one sweep path: the AM panels (fig2-fig5)
the row of :func:`_am_row`, which ``am-transfer`` and ``recoil-ratio`` run
too, and fig6, fig7, fig8a and fig8b their own.  The package's
float-or-array rule, :func:`twistkick.units.on_floats`, picks: a grid of at
most ``FLOAT_ROWS`` = 1000 points in a process without numpy (a fresh CLI
call) runs per point on Python floats, any other as one array, with the
same values.  The fixed tables run per point; ``pair_table``'s beam fits
check their grids on floats by the same rule.  Where the array call raises,
the grid runs per point through :func:`_per_point`, the one source of
per-row error codes, as the two fixed tables do.  Rows that carry a code
(e.g. the vortex line b = 0) or a non-finite value are dropped and counted
in the metadata, in total and per error code (``NON_FINITE`` for a
non-finite value), never silently interpolated.  A sweep that drops every
row raises the first row's coded error instead of returning an empty
table.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from functools import partial
from itertools import chain

from . import __version__
from .beam import DEFAULT_PITCH_ANGLE, TwistedPhotonBeam, superkick
from .errors import DomainError, TwistkickError, shown
from .pair_production import PairThresholdQuery, crossover_product, pair_threshold, \
    fit_beam_for_threshold_factor, plane_wave_threshold
from .recoil_kinematics import TargetParticle, deuteron_threshold, \
    transverse_recoil_energy
from .transitions import TransitionChannel, _ratio_from_partition, am_partitions, \
    raise_first_row_error, raise_row_error, sublevel_profile
from .trap import TrapModel, jump_probability_extended, jump_probability_point
from .units import CA40_ION_MASS_EV, DEUTERON_BINDING_EV, DEUTERON_MASS_EV, FLOAT_ROWS, FM, \
    GEV, KEV, MEV, NEV, PM, RANGES, _linspace, _rule, check, constants_sha256, \
    nonrel_recoil_energy, on_floats, wavelength_to_energy


#: A user parameter: its help words and unit, its default (None where its
#: flag is required), the :data:`RANGES` quantity its value feeds, the
#: factor from its unit to the library's (1 by default, which keeps an int
#: an int), and its flag's argparse dest where that is not its name.
_Parameter = namedtuple("_Parameter", "words unit default quantity factor flag",
                        defaults=(1, None))


#: Every user parameter, once, by its figure key or flag dest.  A figure
#: parameter's quantity is that of the library call its figure makes.
_PARAMETERS = {
    # a beam, and the AM sweep of am-transfer and recoil-ratio
    "multipole_j": _Parameter("multipole order J", "1", 1, "multipole_J"),
    "lambda_nm": _Parameter("photon wavelength", "nm", 397.0, "wavelength"),
    "m_gamma": _Parameter("total AM projection m_gamma", "hbar", 2, "m_gamma"),
    "lambda_spin": _Parameter("paraxial helicity", "1", 1, "lambda_spin"),
    "theta_k": _Parameter("pitch angle", "rad", DEFAULT_PITCH_ANGLE, "pitch angle",
                          flag="pitch_rad"),
    "b_min_lambda": _Parameter("sweep start", "lambda", 1e-3, "b row"),
    "b_max_lambda": _Parameter("sweep stop", "lambda", 1.5, "b row"),
    "count": _Parameter("number of points", "1", 300, "count"),
    # a trapped ion, its packet and its sublevels
    "nu": _Parameter("AM units transferred to the c.m.", "hbar", 1, "nu"),
    "b_nm": _Parameter("impact parameter", "nm", None, "b target"),
    "sigma_nm": _Parameter("wavepacket rms spread per axis", "nm", 10.0, "sigma"),
    "trap_mhz": _Parameter("trap frequency", "MHz", 1.5, "axial_frequency", 1e6),
    "mass_mev": _Parameter("ion rest energy (40Ca+ by default)", "MeV", CA40_ION_MASS_EV / MEV,
                           "ion_mass", MEV),
    "n_max": _Parameter("highest trap level retained, 2-170", "1", 8, "n_max"),
    "m_initial": _Parameter("initial magnetic number", "hbar", -0.5, "m_initial"),
    "m_final": _Parameter("final magnetic number", "hbar", -1.5, "m_f"),
    # a deuteron, and the focus of a Bessel-Gauss beam on it
    "internal_am": _Parameter("AM absorbed internally (multipole J)", "hbar", 1, "internal AM"),
    "lambda_fm": _Parameter("photon wavelength", "fm", 559.0, "wavelength", FM),
    "w0_pm": _Parameter("Bessel-Gauss envelope scale", "pm", None, "envelope_w0", PM),
    "ratio_cut": _Parameter("p_T/p_z cut", "1", 0.1, "ratio_cut"),
    "delta_l": _Parameter("AM to the c.m.", "hbar", 1, "delta_l_cm > 0"),
    "energy_mev": _Parameter("photon energy (deuteron binding by default)", "MeV",
                             DEUTERON_BINDING_EV / MEV, "energy", MEV),
    # pair production on a background photon
    "omega2_ev": _Parameter("background photon energy", "eV", 2.5, "omega2"),
    "pitch_urad": _Parameter("pitch angle", "urad", 5.0, "pitch angle", 1e-6),
    "pt_mev": _Parameter("transverse kick", "MeV/c", None, "p_T kick", MEV),
    "b_fm": _Parameter("impact parameter", "fm", 200.0, "b finite", FM),
    "l_gamma": _Parameter("orbital index l_gamma", "1", 1, "l_gamma"),
    "factor": _Parameter("threshold multiplication factor", "1", 10.0, "threshold factor"),
    "w0_over_b": _Parameter("envelope scale over target radius", "1", 2.0, "w0/b"),
}


def _check_parameter(key: str, value, label: str):
    """``value``, a finite number, of the parameter ``key`` if the value the
    library gets, after the factor, lies in the range of its quantity; else
    a DomainError with the quantity's code (``DOMAIN`` where the factor
    overflows), naming the parameter as ``label`` and the range and the
    value in the parameter's own unit."""
    parameter = _PARAMETERS[key]
    library = value * parameter.factor
    if not math.isfinite(library):
        raise DomainError(f"{label} = {shown(value)} {parameter.unit} overflows the "
                          "floating-point range in library units")
    try:
        check(library, parameter.quantity)
    except DomainError as exc:
        q = RANGES[parameter.quantity]
        rule = q.rule if parameter.factor == 1 else _rule(
            q.integer, q.low / parameter.factor, q.high / parameter.factor, q.ends,
            f" {parameter.unit}")
        raise DomainError(f"{label} must {rule}, got {shown(value)}", code=exc.code) from None
    return value


#: the defaults of the 729 nm S1/2 -> D5/2 line of 40Ca+, where fig7,
#: trap-jump and sidebands differ from the table
_ION_LINE = {"lambda_nm": 729.0, "m_gamma": -2, "lambda_spin": -1}


class GridSpec(namedtuple("GridSpec", "start stop count scale")):
    """1-D sweep axis: floats [start, stop] with an integer ``count`` of
    points, spaced linearly ("lin"), geometrically ("log"), or geometrically
    up to min(100*start, stop/2) and linearly beyond ("loglin", resolving
    both the a -> 0 limit and structure at O(stop)).  Every grid starts at
    ``start`` and ends at ``stop``."""

    __slots__ = ()

    def __new__(cls, start, stop, count, scale="lin"):
        count = check(count, "grid count")
        start, stop = check(start, "grid start"), check(stop, "grid stop")
        if not stop > start:
            raise DomainError(f"grid needs stop > start, got [{start}, {stop}]")
        # the span of the floats: that of two ints is an int, which can
        # exceed the float range where each end does not
        if not math.isfinite(float(stop) - float(start)):
            raise DomainError(f"grid span [{start:g}, {stop:g}] is beyond the "
                              "floating-point range")
        if scale not in ("lin", "log", "loglin"):
            raise DomainError(f"grid scale must be lin/log/loglin, got {scale!r}")
        if scale in ("log", "loglin") and not start > 0.0:
            raise DomainError("log-spaced grids need start > 0")
        # what namedtuple's own __new__ does, one Python call fewer
        return tuple.__new__(cls, (start, stop, count, scale))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace

    def values(self) -> list[float]:
        """The grid points, a list of Python floats."""
        if self.scale == "lin":
            return _linspace(self.start, self.stop, self.count)
        if self.scale == "log":
            return _geomspace(self.start, self.stop, self.count)
        split = min(100.0 * self.start, 0.5 * self.stop)
        n_log = self.count // 2
        # a lin part of one point is the stop, so that every grid ends there
        lin = _linspace(split, self.stop, self.count - n_log) if self.count > 2 else [self.stop]
        return _geomspace(self.start, split, n_log, endpoint=False) + lin


_LOG10_MAX = math.log10(sys.float_info.max)  # 10.0 ** y overflows from here up


def _geomspace(start: float, stop: float, count: int, endpoint: bool = True) -> list[float]:
    """``numpy.geomspace`` of positive ends by numpy's steps, 10 ** y over
    the :func:`_linspace` of the ends' log10 with the ends exact, on
    Python's ``**``; a point beyond the float range is inf, as numpy's."""
    ys = _linspace(math.log10(start), math.log10(stop), count, endpoint)[1:count - endpoint]
    return [start, *(10.0 ** y if y < _LOG10_MAX else math.inf for y in ys)] + [stop] * endpoint


class SweepSpec(namedtuple("SweepSpec", "figure_id overrides grid")):
    """A figure id plus a mapping of parameter overrides (a new empty dict
    by default) and an optional replacement GridSpec."""

    __slots__ = ()

    def __new__(cls, figure_id, overrides=None, grid=None):
        return super().__new__(cls, figure_id, {} if overrides is None else overrides, grid)


class SweepResult(namedtuple("SweepResult", "columns rows metadata")):
    """A table: ``columns`` a list of (name, unit) pairs, ``rows`` a list of
    lists of floats, ``metadata`` a dict."""

    __slots__ = ()


class _Figure:
    def __init__(self, columns, defaults, grid, builder, description, cases):
        self.columns = columns
        self.defaults = defaults
        self.grid = grid
        self.builder = builder
        self.description = description
        self.cases = cases  # the fixed rows of a figure without a grid


# the m_gamma series of each panel is part of the figure identity (it is
# baked into the frozen column names), so it is a builder argument rather
# than an overridable parameter
_M_GAMMA_SERIES = (1, 2, 3)


def _per_point(build_row):
    """Lift ``build_row(params) -> row(point)`` to a numpy-free whole-grid
    builder of ``(rows, codes)``, each value through ``float()``: a point whose
    row raises a coded error gets that code and a NaN row, or with ``strict``
    raises it.  Points reach ``row`` as Python floats, as argparse gives them."""
    def build(params, points, strict=False):
        row = build_row(params)
        rows, codes = [], []
        for point in points:
            try:
                rows.append([float(v) for v in row(point)])
                codes.append("")
            except TwistkickError as exc:
                if strict:
                    raise
                rows.append(None)
                codes.append(exc.code)
        nan_row = [math.nan] * max((len(r) for r in rows if r is not None), default=0)
        return [nan_row if r is None else r for r in rows], codes
    return build


def _whole_grid(build_row):
    """Lift ``build_row(params) -> row(point)``, whose row takes a float or an
    array, to a whole-grid builder: where :func:`on_floats` picks floats,
    the grid runs through :func:`_per_point`; otherwise the row is called
    once on the array of every grid point, with ``strict`` as without.
    Where that call raises a coded error, the grid runs through
    :func:`_per_point`, which gives each point its code, or with ``strict``
    raises the error of the first failing point."""
    def build(params, points, strict=False):
        if not on_floats(len(points), FLOAT_ROWS):
            import numpy as np
            row = build_row(params)  # a build error propagates, as per point
            try:
                with np.errstate(over="ignore"):  # overflow is inf, as on floats
                    columns = row(np.asarray(points, dtype=float))
            except TwistkickError:
                pass
            else:
                table = np.empty((len(points), len(columns)))
                for i, column in enumerate(columns):
                    table[:, i] = column  # a float fills its column
                return table.tolist(), [""] * len(points)
        return _per_point(build_row)(params, points, strict)
    return build


def _am_row(beams, channel, wavelength, kernel):
    """The row of an AM sweep at x, a float or an array of b in wavelengths:
    x, then each of ``beams``' kernel columns at b = x * wavelength, all from
    one :func:`am_partitions` call.  A coded row raises its error: for an
    array, that of the first coded row of the first beam that codes one."""
    def row(x):
        b = x * wavelength
        scalar = isinstance(x, (float, int))
        columns = [x]
        for beam, partition in zip(beams, am_partitions(beams, channel, b)):
            values, errors = kernel(beam, b, partition, scalar)
            (raise_row_error if scalar else raise_first_row_error)(errors, beam, channel, b)
            columns.extend(values)
        return columns
    return row


# an AM kernel, as _ratio_from_partition: (beam, b, partition, scalar) ->
# (columns, row errors), scalar for a float b
def _lz_cm_column(beam, b, partition, scalar):
    return (partition.lz_cm,), partition.errors


def _am_panel(kernel, j: int, lambda_spin: int, params):
    # the row of the kernel's column per m_gamma, b in wavelengths
    energy = wavelength_to_energy(params["lambda_nm"])
    beams = [TwistedPhotonBeam(m, lambda_spin, energy, params["theta_k"])
             for m in _M_GAMMA_SERIES]
    return _am_row(beams, TransitionChannel(float(j)), params["lambda_nm"], kernel)


def _fig6_build(params):
    energy = wavelength_to_energy(params["lambda_nm"])
    e_long = nonrel_recoil_energy(energy, CA40_ION_MASS_EV)
    def row(b):  # b a float or an array
        target = TargetParticle(CA40_ION_MASS_EV, b)
        return [b, e_long / NEV] + [
            transverse_recoil_energy(target, m - 1) / NEV for m in (2, 3, 4)
        ]
    return row


def _fig7_build(params):
    energy = wavelength_to_energy(params["lambda_nm"])
    beam = TwistedPhotonBeam(
        params["m_gamma"], params["lambda_spin"], energy, params["theta_k"]
    )
    channel = TransitionChannel(2.0, params["m_initial"])
    trap = TrapModel(params["trap_mhz"] * 1e6, params["trap_mhz"] * 1e6, CA40_ION_MASS_EV)
    sigma = params["sigma_nm"]
    def row(b):  # b a float or an array
        excitation = sublevel_profile(beam, channel, params["m_final"], b)
        # a reachable m_final, so m_final - m_initial rounds
        nu = params["m_gamma"] - round(params["m_final"] - params["m_initial"])
        p_point = jump_probability_point(superkick(abs(nu), b), trap)
        p_ext = jump_probability_extended(beam, nu, b, trap, sigma)
        return [b, excitation, p_point, p_ext,
                excitation * p_point, excitation * p_ext]
    return row


def _fig8_build(swept):
    # fig8a sweeps b_fm at a fixed pitch_urad, fig8b pitch_urad at a fixed b_fm
    def build(params):
        reference = plane_wave_threshold(params["omega2_ev"])
        def row(point):  # a float or an array
            values = {**params, swept: point}
            q = PairThresholdQuery(
                omega2=params["omega2_ev"], pitch_angle=values["pitch_urad"] * 1e-6,
                impact_parameter=values["b_fm"] * FM, l_gamma=params["l_gamma"],
            )
            return [point, pair_threshold(q).photon_energy / GEV, reference / GEV]
        return row
    return build


_DEUTERON_CASES = (
    # (m_gamma, internal_am, b_fm): dipole/quadrupole channels near threshold
    (1, 1, 88.96761318836948),
    (2, 1, 88.96761318836948),
    (2, 2, 88.96761318836948),
    (3, 2, 88.96761318836948),
    (2, 1, 44.48380659418474),
)


def _deuteron_table_build(params):
    energy = wavelength_to_energy(params["lambda_fm"] * FM)
    def row(case):
        m_gamma, internal, b_fm = case
        beam = TwistedPhotonBeam(m_gamma, 1, energy, params["theta_k"])
        sol = deuteron_threshold(beam, internal, b_fm * FM)
        return [
            float(m_gamma), float(internal), b_fm,
            sol.photon_energy / MEV,
            sol.recoil_energy / KEV,
            nonrel_recoil_energy(sol.p_T, DEUTERON_MASS_EV) / KEV,
        ]
    return row


_PAIR_CASES = ((1, 10.0), (2, 10.0))


def _pair_table_build(params):
    omega2 = params["omega2_ev"]
    def row(case):
        l_gamma, factor = case
        fit = fit_beam_for_threshold_factor(factor, omega2, l_gamma)
        cross = crossover_product(omega2, l_gamma)
        return [
            omega2, float(l_gamma), factor,
            fit.p_T / MEV,
            fit.impact_parameter / FM,
            fit.envelope_w0 / FM,
            fit.pitch_angle * 1e6,
            fit.peak_radius / FM,
            plane_wave_threshold(omega2) / GEV,
            fit.photon_energy / GEV,
            cross.product / (1e-3 * 1e-6),  # nm*rad -> pm*urad
        ]
    return row


def _lz_columns():
    return [("b", "lambda")] + [(f"lz_cm(m_gamma={m})", "hbar") for m in _M_GAMMA_SERIES]


def _ratio_columns():
    return [("b", "lambda")] + [(f"pT_over_pz(m_gamma={m})", "1") for m in _M_GAMMA_SERIES]


_REGISTRY: dict[str, _Figure] = {}


def _register(figure_id, columns, names, grid, builder, description, cases=(), **defaults):
    # the figure's parameters by name, each with the table's default but
    # where ``defaults`` gives its own
    defaults = {name: defaults.get(name, _PARAMETERS[name].default) for name in names}
    _REGISTRY[figure_id] = _Figure(columns, defaults, grid, builder, description, cases)


_AM_PANELS = (
    ("fig2", _lz_columns, _lz_cm_column, 1, "c.m. angular momentum"),
    ("fig3", _lz_columns, _lz_cm_column, -1, "c.m. angular momentum"),
    ("fig4", _ratio_columns, _ratio_from_partition, 1, "recoil ratio p_T/p_z"),
    ("fig5", _ratio_columns, _ratio_from_partition, -1, "recoil ratio p_T/p_z"),
)
for _letter, _j in (("a", 1), ("b", 2), ("c", 3)):
    for _prefix, _columns, _kernel, _spin, _quantity in _AM_PANELS:
        _register(
            f"{_prefix}{_letter}", _columns(), ("theta_k", "lambda_nm"),
            GridSpec(1e-3, 1.5, 600, "loglin"),
            _whole_grid(partial(_am_panel, _kernel, _j, _spin)),
            f"{_quantity} vs b/lambda, multipole J={_j}, helicity {_spin:+d}",
        )

_register(
    "fig6",
    [("b", "nm"), ("E_long", "neV"), ("E_T(m_gamma=2)", "neV"),
     ("E_T(m_gamma=3)", "neV"), ("E_T(m_gamma=4)", "neV")],
    ("lambda_nm",),
    GridSpec(1.0, 100.0, 200, "log"), _whole_grid(_fig6_build),
    "trapped-ion recoil energies vs impact parameter (40Ca+, 397 nm)",
)
_register(
    "fig7",
    [("b", "nm"), ("excitation", "1"), ("jump_point", "1"),
     ("jump_extended", "1"), ("combined_point", "1"), ("combined_extended", "1")],
    ("lambda_nm", "theta_k", "m_gamma", "lambda_spin", "m_initial", "m_final", "sigma_nm",
     "trap_mhz"),
    GridSpec(10.0, 3000.0, 120, "lin"), _whole_grid(_fig7_build),
    "sublevel excitation profile and trap-jump probabilities vs b", **_ION_LINE,
)
_register(
    "fig8a",
    [("b", "fm"), ("threshold", "GeV"), ("plane_wave", "GeV")],
    ("omega2_ev", "l_gamma", "pitch_urad"),
    GridSpec(20.0, 2000.0, 200, "log"), _whole_grid(_fig8_build("b_fm")),
    "pair-production threshold vs impact parameter at fixed pitch angle",
)
_register(
    "fig8b",
    [("theta_k", "urad"), ("threshold", "GeV"), ("plane_wave", "GeV")],
    ("omega2_ev", "l_gamma", "b_fm"),
    GridSpec(0.5, 50.0, 200, "log"), _whole_grid(_fig8_build("pitch_urad")),
    "pair-production threshold vs pitch angle at fixed impact parameter",
)
_register(
    "deuteron_table",
    [("m_gamma", "hbar"), ("internal_am", "hbar"), ("b", "fm"),
     ("threshold", "MeV"), ("recoil", "keV"), ("transverse_recoil", "keV")],
    ("lambda_fm", "theta_k"),
    None, _per_point(_deuteron_table_build),
    "deuteron photodisintegration thresholds per multipole channel", _DEUTERON_CASES,
)
_register(
    "pair_table",
    [("omega2", "eV"), ("l_gamma", "1"), ("factor", "1"), ("p_T", "MeV"),
     ("b", "fm"), ("w0", "fm"), ("theta_k", "urad"), ("peak_radius", "fm"),
     ("plane_wave", "GeV"), ("threshold", "GeV"), ("crossover", "pm*urad")],
    ("omega2_ev",),
    None, _per_point(_pair_table_build),
    "beam parameters for ten-fold pair-threshold increase and crossover products",
    _PAIR_CASES,
)

FIGURE_IDS = tuple(sorted(_REGISTRY))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the requested figure; identical specs give identical results.
    The figure's builder returns ``(rows, codes)``: lists of float rows and codes."""
    figure = _REGISTRY.get(spec.figure_id)
    if figure is None:
        raise DomainError(f"unknown figure id {spec.figure_id!r}", code="UNKNOWN_FIGURE")

    params = dict(figure.defaults)
    for key, value in spec.overrides.items():
        if key not in params:
            raise DomainError(
                f"figure {spec.figure_id!r} has no parameter {key!r} "
                f"(available: {', '.join(sorted(params)) or 'none'})",
                code="UNKNOWN_PARAMETER",
            )
        # an int default takes an integer, a float default a finite number;
        # then the quantity's range holds what the library would get
        label = f"figure {spec.figure_id!r} parameter {key!r}"
        try:
            value = check(value, "integer parameter" if type(params[key]) is int
                          else "real parameter")
        except DomainError as exc:
            raise DomainError(f"{label}: {exc}", code="PARAMETER_TYPE") from None
        params[key] = _check_parameter(key, value, label)

    if figure.grid is None and spec.grid is not None:
        raise DomainError(
            f"figure {spec.figure_id!r} is a fixed table and accepts no grid",
            code="UNKNOWN_PARAMETER",
        )
    grid = spec.grid or figure.grid  # None for a fixed table
    points = figure.cases if grid is None else grid.values()

    rows, codes = figure.builder(params, points)
    # no code and a finite sum: every value is finite, and every row is kept
    if any(codes) or not math.isfinite(sum(chain.from_iterable(rows))):
        codes = [code or ("" if all(map(math.isfinite, row)) else "NON_FINITE")
                 for row, code in zip(rows, codes)]
        rows = [row for row, code in zip(rows, codes) if not code]
    if not rows:
        _raise_every_row_dropped(spec.figure_id, figure, params, points)
    dropped_codes = [code for code in codes if code]

    metadata = {
        "figure": spec.figure_id,
        "description": figure.description,
        "parameters": params,
        "grid": None if grid is None else grid._asdict(),
        "rows": len(rows),
        "dropped_rows": len(dropped_codes),
        "dropped_by_code": dict(sorted(Counter(dropped_codes).items())),
        "library_version": __version__,
        "constants_sha256": constants_sha256(),
    }
    return SweepResult(columns=list(figure.columns), rows=rows, metadata=metadata)


def _raise_every_row_dropped(figure_id, figure, params, points) -> None:
    """Raise the coded error of the first of ``points``, a sweep that dropped
    every row, with the figure and the point named; a row dropped for a
    non-finite value raises ``NON_FINITE``."""
    name, unit = figure.columns[0]
    point = f"{name}={points[0]:g} {unit}" if figure.grid is not None else f"case {points[0]}"
    prefix = f"figure {figure_id!r} dropped every row; at {point}: "
    try:
        (row,), _ = figure.builder(params, points[:1], strict=True)
    except TwistkickError as exc:
        raise type(exc)(prefix + str(exc), code=exc.code) from exc
    column = next(name for (name, _), v in zip(figure.columns, row) if not math.isfinite(v))
    raise DomainError(prefix + f"{column} is not finite", code="NON_FINITE")
