"""Figure-reproduction engine: canned parameter sweeps composing the physics
modules into deterministic data tables with stable column schemas.

Every figure id carries documented default parameters (pitch angle, trap
frequency, wavelength, ...) for the quantities its source plot leaves
unstated; all of them are overridable.

A figure builder takes the whole grid and returns ``(rows, codes)``: rows
of Python floats and one code per row ("" where the row is defined, NaN
values where it is not).  The AM panels (fig2-fig5) evaluate the grid at
once through :func:`_am_columns`, the one AM sweep, which ``am-transfer``
and ``recoil-ratio`` share (they run it point by point on Python floats up
to 1000 rows).  fig6, fig7, fig8a and fig8b write one row
function that takes a float or an array, and :func:`_whole_grid` calls it
once on the array of every grid point; where that call raises, the grid
runs per point through :func:`_per_point`, the one source of per-row error
codes, as the two fixed tables do, without numpy.  Rows that carry a code
(e.g. the vortex line b = 0) or a non-finite value are dropped and counted
in the metadata, in total and per error code (``NON_FINITE`` for a
non-finite value), never silently interpolated.  A sweep that drops every
row raises the first row's coded error instead of returning an empty table.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter, namedtuple
from itertools import chain

from . import __version__
from .beam import DEFAULT_PITCH_ANGLE, TwistedPhotonBeam, superkick
from .errors import DomainError, TwistkickError, shown
from .pair_production import PairThresholdQuery, crossover_product, pair_threshold, \
    fit_beam_for_threshold_factor, plane_wave_threshold
from .recoil_kinematics import TargetParticle, deuteron_threshold, \
    transverse_recoil_energy
from .transitions import TransitionChannel, _ratio_from_partition, am_partition, \
    am_partitions, raise_first_row_error, raise_row_error, sublevel_profile
from .trap import TrapModel, jump_probability_extended, jump_probability_point
from .units import CA40_ION_MASS_EV, DEUTERON_MASS_EV, FM, GEV, KEV, MEV, NEV, \
    constants_sha256, nonrel_recoil_energy, wavelength_to_energy


class GridSpec(namedtuple("GridSpec", "start stop count scale")):
    """1-D sweep axis: floats [start, stop] with an integer ``count`` of
    points, spaced linearly ("lin"), geometrically ("log"), or geometrically
    up to min(100*start, stop/2) and linearly beyond ("loglin", resolving
    both the a -> 0 limit and structure at O(stop))."""

    __slots__ = ()

    def __new__(cls, start, stop, count, scale="lin"):
        if not 2 <= count <= 10**6:
            raise DomainError(f"grid count must lie in [2, 1e6], got {count}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise DomainError(f"grid ends must be finite, got [{start}, {stop}]")
        if not stop > start:
            raise DomainError(f"grid needs stop > start, got [{start}, {stop}]")
        if not math.isfinite(stop - start):
            raise DomainError(f"grid span [{start:g}, {stop:g}] is beyond the "
                              "floating-point range")
        if scale not in ("lin", "log", "loglin"):
            raise DomainError(f"grid scale must be lin/log/loglin, got {scale!r}")
        if scale in ("log", "loglin") and not start > 0.0:
            raise DomainError("log-spaced grids need start > 0")
        return super().__new__(cls, start, stop, count, scale)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # checked, as is _replace

    def values(self) -> np.ndarray:
        import numpy as np
        if self.scale == "lin":
            return np.linspace(self.start, self.stop, self.count)
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        split = min(100.0 * self.start, 0.5 * self.stop)
        n_log = self.count // 2
        n_lin = self.count - n_log
        return np.concatenate([
            np.geomspace(self.start, split, n_log, endpoint=False),
            np.linspace(split, self.stop, n_lin),
        ])


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
        for point in points if isinstance(points, (list, tuple)) else points.tolist():
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
    array, to a whole-grid builder that calls the row once on the array of
    every grid point.  Where that call raises a coded error, and with
    ``strict``, the grid runs through :func:`_per_point` instead."""
    def build(params, points, strict=False):
        import numpy as np
        row = build_row(params)  # a build error propagates, as per point
        if not strict:
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


def _am_columns(beams, channel, xs, wavelength, kernel, strict=False):
    """The AM sweep of ``am-transfer``, ``recoil-ratio`` and fig2-fig5: the
    table [xs, kernel columns of each beam] at b = xs * wavelength, and the
    first error code of each row, or with ``strict`` the error of the first
    failing row of the first failing beam raised.  An array ``xs`` takes the
    partitions of all ``beams`` from one :func:`am_partitions` call; a list
    of floats, for one beam, runs point by point on Python floats.  Either
    way each value is the same float."""
    if isinstance(xs, list):
        (beam,) = beams
        rows, errors = [], []
        for x in xs:
            b = x * wavelength
            values, code = kernel(beam, b, am_partition(beam, channel, b), True)
            if strict:
                raise_row_error(code, beam, channel, b)
            rows.append([x, *values])
            errors.append(code)
        return rows, errors
    import numpy as np
    with np.errstate(over="ignore"):  # an overflowing b is a coded row error
        b = xs * wavelength
    columns = [xs]
    errors = np.full(len(xs), "", dtype=object)
    for beam, partition in zip(beams, am_partitions(beams, channel, b)):
        values, beam_errors = kernel(beam, b, partition, False)
        if strict:
            raise_first_row_error(beam_errors, beam, channel, b)
        columns.extend(values)
        errors = np.where(errors == "", beam_errors, errors)
    return np.column_stack(columns).tolist(), errors.tolist()


# an AM kernel, as _ratio_from_partition: (beam, b, partition, scalar) ->
# (columns, row errors), scalar for a float b
def _lz_cm_column(beam, b, partition, scalar):
    return (partition.lz_cm,), partition.errors


def _m_gamma_series_builder(kernel, j: int, lambda_spin: int):
    # the kernel's column per m_gamma, b in wavelengths
    def build(params, xs, strict=False):
        energy = wavelength_to_energy(params["lambda_nm"])
        beams = [
            TwistedPhotonBeam(m, lambda_spin, energy, params["theta_k"])
            for m in _M_GAMMA_SERIES
        ]
        return _am_columns(beams, TransitionChannel(float(j)), xs, params["lambda_nm"],
                           kernel, strict)
    return build


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


_AM_DEFAULTS = {
    "theta_k": DEFAULT_PITCH_ANGLE,
    "lambda_nm": 397.0,
}

_REGISTRY: dict[str, _Figure] = {}


def _register(figure_id, columns, defaults, grid, builder, description, cases=()):
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
            f"{_prefix}{_letter}", _columns(), dict(_AM_DEFAULTS),
            GridSpec(1e-3, 1.5, 600, "loglin"),
            _m_gamma_series_builder(_kernel, _j, _spin),
            f"{_quantity} vs b/lambda, multipole J={_j}, helicity {_spin:+d}",
        )

_register(
    "fig6",
    [("b", "nm"), ("E_long", "neV"), ("E_T(m_gamma=2)", "neV"),
     ("E_T(m_gamma=3)", "neV"), ("E_T(m_gamma=4)", "neV")],
    {"lambda_nm": 397.0},
    GridSpec(1.0, 100.0, 200, "log"), _whole_grid(_fig6_build),
    "trapped-ion recoil energies vs impact parameter (40Ca+, 397 nm)",
)
_register(
    "fig7",
    [("b", "nm"), ("excitation", "1"), ("jump_point", "1"),
     ("jump_extended", "1"), ("combined_point", "1"), ("combined_extended", "1")],
    {"lambda_nm": 729.0, "theta_k": DEFAULT_PITCH_ANGLE, "m_gamma": -2,
     "lambda_spin": -1, "m_initial": -0.5, "m_final": -1.5,
     "sigma_nm": 10.0, "trap_mhz": 1.5},
    GridSpec(10.0, 3000.0, 120, "lin"), _whole_grid(_fig7_build),
    "sublevel excitation profile and trap-jump probabilities vs b",
)
_register(
    "fig8a",
    [("b", "fm"), ("threshold", "GeV"), ("plane_wave", "GeV")],
    {"omega2_ev": 2.5, "l_gamma": 1, "pitch_urad": 5.0},
    GridSpec(20.0, 2000.0, 200, "log"), _whole_grid(_fig8_build("b_fm")),
    "pair-production threshold vs impact parameter at fixed pitch angle",
)
_register(
    "fig8b",
    [("theta_k", "urad"), ("threshold", "GeV"), ("plane_wave", "GeV")],
    {"omega2_ev": 2.5, "l_gamma": 1, "b_fm": 200.0},
    GridSpec(0.5, 50.0, 200, "log"), _whole_grid(_fig8_build("pitch_urad")),
    "pair-production threshold vs pitch angle at fixed impact parameter",
)
_register(
    "deuteron_table",
    [("m_gamma", "hbar"), ("internal_am", "hbar"), ("b", "fm"),
     ("threshold", "MeV"), ("recoil", "keV"), ("transverse_recoil", "keV")],
    {"lambda_fm": 559.0, "theta_k": DEFAULT_PITCH_ANGLE},
    None, _per_point(_deuteron_table_build),
    "deuteron photodisintegration thresholds per multipole channel", _DEUTERON_CASES,
)
_register(
    "pair_table",
    [("omega2", "eV"), ("l_gamma", "1"), ("factor", "1"), ("p_T", "MeV"),
     ("b", "fm"), ("w0", "fm"), ("theta_k", "urad"), ("peak_radius", "fm"),
     ("plane_wave", "GeV"), ("threshold", "GeV"), ("crossover", "pm*urad")],
    {"omega2_ev": 2.5},
    None, _per_point(_pair_table_build),
    "beam parameters for ten-fold pair-threshold increase and crossover products",
    _PAIR_CASES,
)

FIGURE_IDS = tuple(sorted(_REGISTRY))


def _check_override_type(figure_id: str, key: str, value, default) -> None:
    # an int default takes an int; a float default a finite int or float
    np = sys.modules.get("numpy")  # loaded wherever a numpy float exists
    is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if isinstance(default, int):
        ok, expected = is_int, "an integer"
    else:
        # finite, compared as a Python float (a numpy float32 would cast the
        # bound to its own type); isfinite raises on a huge int
        ok = abs(value) <= sys.float_info.max if is_int else \
            isinstance(value, (float, np.floating) if np else float) and math.isfinite(value)
        expected = "a finite number"
    if not ok:
        raise DomainError(
            f"figure {figure_id!r} parameter {key!r} expects {expected}, got {shown(value)}",
            code="PARAMETER_TYPE",
        )


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
        _check_override_type(spec.figure_id, key, value, params[key])
        params[key] = value

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

    np = sys.modules.get("numpy")  # a numpy scalar override needs numpy loaded
    metadata = {
        "figure": spec.figure_id,
        "description": figure.description,
        # numpy scalars (accepted as overrides) become the Python numbers JSON takes
        "parameters": {k: v.item() if np and isinstance(v, np.generic) else v
                       for k, v in params.items()},
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
