import json
import math
import random
import warnings

import numpy as np
import pytest

from twistkick import sweeps
from twistkick.errors import DomainError, TwistkickError
from twistkick.sweeps import FIGURE_IDS, GridSpec, SweepSpec, run_sweep
from twistkick.units import FM, PM

from oracles import mask_kept_rows

_LZ_COLUMNS = ["b [lambda]", "lz_cm(m_gamma=1) [hbar]", "lz_cm(m_gamma=2) [hbar]",
               "lz_cm(m_gamma=3) [hbar]"]
_RATIO_COLUMNS = ["b [lambda]", "pT_over_pz(m_gamma=1) [1]", "pT_over_pz(m_gamma=2) [1]",
                  "pT_over_pz(m_gamma=3) [1]"]

EXPECTED_SCHEMAS = {
    "fig2a": _LZ_COLUMNS, "fig2b": _LZ_COLUMNS, "fig2c": _LZ_COLUMNS,
    "fig3a": _LZ_COLUMNS, "fig3b": _LZ_COLUMNS, "fig3c": _LZ_COLUMNS,
    "fig4a": _RATIO_COLUMNS, "fig4b": _RATIO_COLUMNS, "fig4c": _RATIO_COLUMNS,
    "fig5a": _RATIO_COLUMNS, "fig5b": _RATIO_COLUMNS, "fig5c": _RATIO_COLUMNS,
    "fig6": ["b [nm]", "E_long [neV]", "E_T(m_gamma=2) [neV]",
             "E_T(m_gamma=3) [neV]", "E_T(m_gamma=4) [neV]"],
    "fig7": ["b [nm]", "excitation [1]", "jump_point [1]", "jump_extended [1]",
             "combined_point [1]", "combined_extended [1]"],
    "fig8a": ["b [fm]", "threshold [GeV]", "plane_wave [GeV]"],
    "fig8b": ["theta_k [urad]", "threshold [GeV]", "plane_wave [GeV]"],
    "deuteron_table": ["m_gamma [hbar]", "internal_am [hbar]", "b [fm]",
                       "threshold [MeV]", "recoil [keV]", "transverse_recoil [keV]"],
    "pair_table": ["omega2 [eV]", "l_gamma [1]", "factor [1]", "p_T [MeV]",
                   "b [fm]", "w0 [fm]", "theta_k [urad]", "peak_radius [fm]",
                   "plane_wave [GeV]", "threshold [GeV]", "crossover [pm*urad]"],
}


def header(result):
    return [f"{name} [{unit}]" for name, unit in result.columns]


def test_figure_registry_complete():
    expected = {
        "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
        "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
        "fig6", "fig7", "fig8a", "fig8b", "deuteron_table", "pair_table",
    }
    assert set(FIGURE_IDS) == expected


@pytest.mark.parametrize("figure_id", sorted(EXPECTED_SCHEMAS))
def test_frozen_schemas(figure_id):
    # coarse grids where full evaluation is expensive; the schema is fixed
    if figure_id == "fig7":
        spec = SweepSpec(figure_id, grid=GridSpec(20.0, 100.0, 2))
    elif figure_id.startswith(("fig2", "fig3", "fig4", "fig5")):
        spec = SweepSpec(figure_id, grid=GridSpec(0.1, 1.0, 4))
    else:
        spec = SweepSpec(figure_id)
    result = run_sweep(spec)
    assert header(result) == EXPECTED_SCHEMAS[figure_id]
    assert set(EXPECTED_SCHEMAS) == set(FIGURE_IDS)


def test_fig6_values():
    result = run_sweep(SweepSpec("fig6"))
    rows = np.array(result.rows)
    assert result.metadata["dropped_rows"] == 0
    assert result.metadata["dropped_by_code"] == {}
    assert len(rows) == 200
    # constant longitudinal recoil column at 0.13 neV (5%)
    assert np.all(rows[:, 1] == rows[0, 1])
    assert rows[0, 1] == pytest.approx(0.13, rel=0.05)
    # quadratic delta_l scaling and 1/b^2 law
    assert rows[:, 3] / rows[:, 2] == pytest.approx(4.0, rel=1e-9)
    assert rows[:, 4] / rows[:, 2] == pytest.approx(9.0, rel=1e-9)
    b, e_t = rows[:, 0], rows[:, 2]
    assert e_t * b**2 == pytest.approx(e_t[0] * b[0] ** 2, rel=1e-9)


def test_fig8a_crossing_location():
    result = run_sweep(SweepSpec("fig8a"))
    rows = np.array(result.rows)
    excess = rows[:, 1] - rows[:, 2]
    signs = np.sign(excess)
    flips = np.nonzero(signs[:-1] != signs[1:])[0]
    assert len(flips) == 1
    b_lo, b_hi = rows[flips[0], 0], rows[flips[0] + 1, 0]
    # crossover product / theta_k = 1.889 pm urad / 5 urad = 377.8 fm
    expected = 1.8892 * PM * 1e-6 / 5e-6 / FM
    assert b_lo < expected < b_hi
    assert b_hi - b_lo < 0.05 * expected


def test_fig2a_limits():
    result = run_sweep(SweepSpec("fig2a"))
    rows = np.array(result.rows)
    assert len(rows) == 600
    # small b: c.m. share approaches m_gamma - 1 for S->P (one unit absorbed)
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-3)   # m_gamma = 1
    assert rows[0, 2] == pytest.approx(1.0, abs=1e-2)   # m_gamma = 2
    assert rows[0, 3] == pytest.approx(2.0, abs=1e-2)   # m_gamma = 3


def test_fig2b_vortex_center_limit():
    # S->D: for m_gamma <= 2 everything goes internal as b -> 0
    result = run_sweep(SweepSpec("fig2b"))
    rows = np.array(result.rows)
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-3)
    assert rows[0, 2] == pytest.approx(0.0, abs=1e-3)
    assert rows[0, 3] == pytest.approx(1.0, abs=1e-2)


def test_fig3_uses_negative_helicity():
    from twistkick.beam import TwistedPhotonBeam
    from twistkick.transitions import TransitionChannel, mean_cm_am
    from twistkick.units import wavelength_to_energy

    result = run_sweep(SweepSpec("fig3a", grid=GridSpec(0.2, 1.0, 3)))
    rows = np.array(result.rows)
    beam = TwistedPhotonBeam(2, -1, wavelength_to_energy(397.0), 0.1)
    expected = mean_cm_am(beam, TransitionChannel(1), rows[1, 0] * 397.0)
    assert rows[1, 2] == expected


def test_fig4a_equal_kick_crossing():
    result = run_sweep(SweepSpec("fig4a", overrides={"theta_k": 0.01}))
    rows = np.array(result.rows)
    b, ratio2 = rows[:, 0], rows[:, 2]
    # m_gamma=2 ratio crosses 1 at b = lambda/(2 pi) = 0.1592 lambda
    i = int(np.argmin(np.abs(b - 1.0 / (2.0 * np.pi))))
    assert ratio2[i] == pytest.approx(1.0, abs=0.02)


def test_fig7_with_coarse_grid():
    result = run_sweep(SweepSpec("fig7", grid=GridSpec(10.0, 3000.0, 12)))
    rows = np.array(result.rows)
    assert len(rows) == 12
    assert np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0))
    # the combined extended curve has an interior maximum
    combined = rows[:, 5]
    assert combined.max() > combined[0]
    assert combined.max() > combined[-1]


def _fig7_seeded_specs(count):
    # overrides drawn log-uniformly over and beyond their usual ranges, and
    # grids through b = 0 and past the Bessel domain
    rng = np.random.default_rng(715)
    specs = []
    for _ in range(count):
        overrides = {}
        for key, (lo, hi) in (("lambda_nm", (100.0, 2000.0)), ("theta_k", (1e-4, 1.2)),
                              ("sigma_nm", (0.1, 500.0)), ("trap_mhz", (0.01, 50.0))):
            if rng.random() < 0.5:
                overrides[key] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        if rng.random() < 0.4:
            overrides["m_gamma"] = int(rng.integers(-66, 67))
        if rng.random() < 0.3:
            overrides["m_final"] = float(rng.choice([-3.5, -2.5, -1.5, -0.5, 0.5, 1.5]))
        grid = None
        if rng.random() < 0.6:
            start = float(rng.choice([0.0, -5.0, 1e-3, 10.0, 1e4]))
            stop = start + float(np.exp(rng.uniform(0.0, np.log(1e7))))
            grid = GridSpec(start, stop, int(rng.integers(2, 60)))
        specs.append(SweepSpec("fig7", overrides=overrides, grid=grid))
    return specs


_FIG7_SPECS = [
    SweepSpec("fig7"),
    SweepSpec("fig7", {"trap_mhz": 5e-324}),
    SweepSpec("fig7", {"m_final": 1.7e308, "m_initial": -8e307}),
    SweepSpec("fig7", {"m_gamma": 60, "theta_k": 1e-9}),  # NO_ABSORPTION
    SweepSpec("fig7", {"theta_k": 0.0}),
    SweepSpec("fig7", {"sigma_nm": 1e300}),
    SweepSpec("fig7", grid=GridSpec(1e8, 3e9, 40)),  # past kappa (b + 9 sigma) = 1e6
    SweepSpec("fig7", grid=GridSpec(1e-300, 1e-299, 3)),  # the point kick overflows
    SweepSpec("fig7", grid=GridSpec(-5.0, 0.0, 3)),
    # a wide packet crosses kappa (b + 9 sigma) = 1e6 inside the grid
    SweepSpec("fig7", {"sigma_nm": 1e7}, grid=GridSpec(1e9, 1.3e9, 7)),
    # no absorption at the small b of the grid only
    SweepSpec("fig7", {"m_gamma": 40, "theta_k": 1e-6, "sigma_nm": 1.0},
              grid=GridSpec(1.0, 1e9, 9, "log")),
] + _fig7_seeded_specs(30)


def _outcome(spec):
    try:
        result = run_sweep(spec)
    except TwistkickError as exc:
        return type(exc), exc.code, str(exc)
    # repr spells every double exactly, -0.0 included
    return repr(result.rows), result.metadata


# the per-point row of each figure that sweeps its grid with _whole_grid
_ROW_BUILDERS = {"fig6": sweeps._fig6_build, "fig7": sweeps._fig7_build,
                 "fig8a": sweeps._fig8_build("b_fm"), "fig8b": sweeps._fig8_build("pitch_urad")}


def _assert_whole_grid_matches_per_point_rows(monkeypatch, spec):
    # the whole-grid builder against its oracle, the per-point row: the same
    # bits, dropped_by_code and errors (type, code and message)
    outcome = _outcome(spec)
    monkeypatch.setattr(sweeps._REGISTRY[spec.figure_id], "builder",
                        sweeps._per_point(_ROW_BUILDERS[spec.figure_id]))
    assert outcome == _outcome(spec)


@pytest.mark.parametrize("spec", _FIG7_SPECS)
def test_fig7_grid_matches_per_point_rows(monkeypatch, spec):
    _assert_whole_grid_matches_per_point_rows(monkeypatch, spec)


def _closed_form_seeded_specs(figure_id, count):
    # overrides drawn log-uniformly over and beyond their usual ranges, and
    # grids through 0, below the float range of 1/b^2 and up to 1e9
    rng = np.random.default_rng(1806 + len(figure_id))
    ranges = {"fig6": {"lambda_nm": (1e-3, 1e6)},
              "fig8a": {"omega2_ev": (1e-6, 1e6), "pitch_urad": (1e-3, 2e6)},
              "fig8b": {"omega2_ev": (1e-6, 1e6), "b_fm": (1e-3, 1e6)}}[figure_id]
    specs = []
    for _ in range(count):
        overrides = {key: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                     for key, (lo, hi) in ranges.items() if rng.random() < 0.5}
        if figure_id != "fig6" and rng.random() < 0.4:
            overrides["l_gamma"] = int(rng.integers(-1, 5))
        grid = None
        if rng.random() < 0.7:
            start = float(rng.choice([0.0, -5.0, 1e-300, 1e-3, 10.0, 1e4, 1.5e6]))
            stop = start + float(np.exp(rng.uniform(0.0, np.log(1e9))))
            scale = "lin" if start <= 0.0 else str(rng.choice(["lin", "log", "loglin"]))
            grid = GridSpec(start, stop, int(rng.integers(2, 60)), scale)
        specs.append(SweepSpec(figure_id, overrides=overrides, grid=grid))
    return specs


_AROUND_ZERO = GridSpec(-5.0, 5.0, 5)
_TINY_START = GridSpec(1e-300, 5.0, 3)  # 1/b^2 overflows at the first point
_CLOSED_FORM_SPECS = [
    SweepSpec("fig6"), SweepSpec("fig8a"), SweepSpec("fig8b"),
    SweepSpec("fig6", grid=_AROUND_ZERO),
    SweepSpec("fig8a", grid=_AROUND_ZERO),
    SweepSpec("fig8b", grid=_AROUND_ZERO),
    SweepSpec("fig8a", {"l_gamma": 0}, grid=_AROUND_ZERO),  # every row kept
    SweepSpec("fig6", grid=_TINY_START),
    SweepSpec("fig8a", grid=_TINY_START),
    SweepSpec("fig8a", {"omega2_ev": 1e300}),
    SweepSpec("fig8b", {"omega2_ev": 1e300}),
    SweepSpec("fig6", {"lambda_nm": 1e-300}),
] + [spec for figure_id in ("fig6", "fig8a", "fig8b")
     for spec in _closed_form_seeded_specs(figure_id, 30)]


@pytest.mark.parametrize(
    "spec", _CLOSED_FORM_SPECS,
    ids=[f"{spec.figure_id}-{i}" for i, spec in enumerate(_CLOSED_FORM_SPECS)])
def test_closed_form_grid_matches_per_point_rows(monkeypatch, spec):
    _assert_whole_grid_matches_per_point_rows(monkeypatch, spec)


@pytest.mark.parametrize("figure_id, dropped_by_code", [
    ("fig6", {"B_SINGULARITY": 1, "DOMAIN": 2}),  # b < 0 fails the target first
    ("fig8a", {"B_SINGULARITY": 3}),
    ("fig8b", {"DOMAIN": 2}),  # a negative pitch angle
])
def test_closed_form_grid_drops_rows_around_zero(figure_id, dropped_by_code):
    result = run_sweep(SweepSpec(figure_id, grid=_AROUND_ZERO))
    assert result.metadata["dropped_by_code"] == dropped_by_code
    assert len(result.rows) == 5 - sum(dropped_by_code.values())


def test_fig7_grid_keeps_each_rows_error_code():
    # sigma < 0 fails every b > 0 with DOMAIN, and b = 0 first with B_SINGULARITY
    params = dict(sweeps._REGISTRY["fig7"].defaults, sigma_nm=-1.0)
    points = GridSpec(0.0, 100.0, 5).values()
    _, errors = sweeps._REGISTRY["fig7"].builder(params, points)
    _, oracle = sweeps._per_point(sweeps._fig7_build)(params, points)
    assert errors == oracle == ["B_SINGULARITY"] + ["DOMAIN"] * 4


def test_fig6_grid_keeps_each_rows_error_code():
    # b < 0 fails the target with DOMAIN, b = 0 the superkick with B_SINGULARITY
    params = dict(sweeps._REGISTRY["fig6"].defaults)
    points = _AROUND_ZERO.values()
    table, errors = sweeps._REGISTRY["fig6"].builder(params, points)
    oracle_table, oracle = sweeps._per_point(sweeps._fig6_build)(params, points)
    assert errors == oracle == ["DOMAIN", "DOMAIN", "B_SINGULARITY", "", ""]
    assert repr(table) == repr(oracle_table)


def test_every_grid_figure_sweeps_its_whole_grid():
    # a figure with a grid is built by the AM sweep or by _whole_grid, which
    # calls its row once on the grid array; only the fixed tables go per point
    for figure_id, figure in sweeps._REGISTRY.items():
        lifter = figure.builder.__qualname__.split(".<locals>")[0]
        if figure.grid is None:
            assert lifter == "_per_point", figure_id
        else:
            assert lifter in ("_m_gamma_series_builder", "_whole_grid"), figure_id
    assert {figure_id for figure_id, figure in sweeps._REGISTRY.items()
            if figure.builder.__qualname__.startswith("_whole_grid")} == set(_ROW_BUILDERS)


def test_error_rows_dropped_and_counted():
    # a grid reaching b = 0 hits the vortex-line singularity of the point
    # model; the row is dropped, not interpolated
    result = run_sweep(SweepSpec("fig7", grid=GridSpec(0.0, 100.0, 3)))
    assert result.metadata["dropped_rows"] == 1
    assert result.metadata["dropped_by_code"] == {"B_SINGULARITY": 1}
    assert len(result.rows) == 2
    # the sublevel profile answers b < 0 where its Wigner d is nonzero (J_nu^2
    # is even), so b < 0 rows fall to the point kick as well
    result = run_sweep(SweepSpec("fig7", grid=GridSpec(-5.0, 5.0, 3)))
    assert result.metadata["dropped_by_code"] == {"B_SINGULARITY": 2}
    assert [row[0] for row in result.rows] == [5.0]


def test_am_figure_drops_vortex_line_row():
    # p_T/p_z = lz_cm lambda / (2 pi b) is singular at b = 0 for every m_gamma
    result = run_sweep(SweepSpec("fig4a", grid=GridSpec(0.0, 1.0, 5)))
    assert result.metadata["dropped_rows"] == 1
    assert result.metadata["dropped_by_code"] == {"B_SINGULARITY": 1}
    assert [row[0] for row in result.rows] == [0.25, 0.5, 0.75, 1.0]


def test_am_figure_drops_vanishing_distribution_row():
    # at b = 0 only J_0 survives; with J = 1 the orders of m_gamma = 2 (1..3)
    # and m_gamma = 3 (2..4) all vanish, so their distributions are undefined
    result = run_sweep(SweepSpec("fig2a", grid=GridSpec(0.0, 1.0, 5)))
    assert result.metadata["dropped_rows"] == 1
    assert result.metadata["dropped_by_code"] == {"UNDEFINED_DISTRIBUTION": 1}
    assert len(result.rows) == 4
    assert result.rows[0][0] == 0.25


def test_am_figure_drops_only_rows_past_bessel_limit():
    # kappa b = 1e6 sits at b = 1.59e6 lambda for theta_k = 0.1; the four
    # grid points beyond it are dropped, the rest of the sweep is kept
    result = run_sweep(SweepSpec("fig2a", grid=GridSpec(1e-3, 1e7, 41, "log")))
    assert result.metadata["dropped_rows"] == 4
    assert result.metadata["dropped_by_code"] == {"DOMAIN": 4}
    assert len(result.rows) == 37
    assert result.rows[-1][0] == pytest.approx(1e6)


def test_dropped_rows_counted_per_code_in_code_order():
    # b = 0 leaves no distribution and b = 2e6 lambda is past the Bessel
    # limit; the counts are listed by code, not by the order rows met them
    result = run_sweep(SweepSpec("fig2a", grid=GridSpec(0.0, 2e6, 5)))
    assert result.metadata["dropped_rows"] == 2
    assert list(result.metadata["dropped_by_code"].items()) == [
        ("DOMAIN", 1), ("UNDEFINED_DISTRIBUTION", 1)]
    assert len(result.rows) == 3


def test_non_finite_row_counted_as_non_finite():
    # E_T ~ 1/b^2 overflows at b = 1e-300 nm; the row has no error code
    result = run_sweep(SweepSpec("fig6", grid=GridSpec(1e-300, 5.0, 3)))
    assert result.metadata["dropped_by_code"] == {"NON_FINITE": 1}
    assert len(result.rows) == 2


def _run_table(monkeypatch, rows, codes):
    # run_sweep on deuteron_table with its builder replaced by one returning
    # (rows, codes); with strict, it raises the first row's code or returns
    # that row, as a builder does
    def builder(params, points, strict=False):
        if strict and codes[0]:
            raise DomainError("seeded row error", code=codes[0])
        n = 1 if strict else len(rows)
        return [list(row) for row in rows[:n]], list(codes[:n])
    monkeypatch.setattr(sweeps._REGISTRY["deuteron_table"], "builder", builder)
    return run_sweep(SweepSpec("deuteron_table"))


_EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324)
_EDGE_TABLES = [
    ([[1e308, 1e308]], [""]),  # finite, but the sum overflows
    ([[-1e308, -1e308, 3.0], [1.0, -0.0, 2.0]], ["", ""]),
    ([[1e308, 1e308], [math.nan, 1.0]], ["", ""]),
    ([[math.inf, -math.inf], [1.0, 2.0]], ["", ""]),  # the sum is NaN
    ([[-0.0, 0.0]], [""]),
    ([[math.nan, math.nan], [1.0, 2.0]], ["DOMAIN", ""]),
    ([[1.0], [2.0]], ["B_SINGULARITY", "DOMAIN"]),  # every row coded
    ([[math.nan], [math.inf]], ["", ""]),  # every row non-finite
]


def _seeded_table(rng):
    n, width = rng.randint(1, 12), rng.randint(1, 6)
    p_edge, p_code = rng.choice((0.0, 0.05, 0.3, 1.0)), rng.choice((0.0, 0.1, 0.5, 1.0))
    rows = [[rng.choice(_EDGE_VALUES) if rng.random() < p_edge else rng.uniform(-1e3, 1e3)
             for _ in range(width)] for _ in range(n)]
    codes = [rng.choice(("DOMAIN", "B_SINGULARITY")) if rng.random() < p_code else ""
             for _ in range(n)]
    return rows, codes


def test_row_bookkeeping_matches_the_numpy_mask(monkeypatch):
    # the kept rows (by repr, so -0.0 stays -0.0) and the drop counts of the
    # list bookkeeping against the numpy mask it replaced, on edge tables and
    # seeded ones; a table that keeps no row raises its first row's code
    rng = random.Random(2204)
    tables = _EDGE_TABLES + [_seeded_table(rng) for _ in range(400)]
    outcomes = set()
    for rows, codes in tables:
        kept, dropped_by_code = mask_kept_rows(rows, codes)
        if kept:
            result = _run_table(monkeypatch, rows, codes)
            assert repr(result.rows) == repr(kept), (rows, codes)
            assert result.metadata["dropped_by_code"] == dropped_by_code, (rows, codes)
            assert result.metadata["dropped_rows"] == len(rows) - len(kept)
            outcomes.add("some dropped" if dropped_by_code else "all kept")
        else:
            with pytest.raises(TwistkickError, match="dropped every row") as info:
                _run_table(monkeypatch, rows, codes)
            assert info.value.code == (codes[0] or "NON_FINITE"), (rows, codes)
            outcomes.add("all dropped")
    assert outcomes == {"all kept", "some dropped", "all dropped"}


@pytest.mark.filterwarnings("error")
def test_numpy_float32_override_gives_python_floats():
    # a numpy float override is accepted, without a warning; rows and
    # metadata hold Python floats
    theta = np.float32(0.1)
    result = run_sweep(SweepSpec("deuteron_table", overrides={"theta_k": theta}))
    assert {type(v) for row in result.rows for v in row} == {float}
    assert type(result.metadata["parameters"]["theta_k"]) is float
    assert result.metadata["parameters"]["theta_k"] == float(theta)
    expected = run_sweep(SweepSpec("deuteron_table", overrides={"theta_k": float(theta)}))
    assert repr(result.rows) == repr(expected.rows)


def test_degenerate_grid():
    result = run_sweep(SweepSpec("fig8a", grid=GridSpec(20.0, 2000.0, 2, "log")))
    assert len(result.rows) == 2
    assert header(result) == EXPECTED_SCHEMAS["fig8a"]


def test_deuteron_table_values():
    rows = np.array(run_sweep(SweepSpec("deuteron_table")).rows)
    by_case = {(int(r[0]), int(r[1]), round(r[2], 3)): r for r in rows}
    base = by_case[(2, 2, 88.968)]
    dipole = by_case[(2, 1, 88.968)]
    assert base[4] == pytest.approx(1.3, rel=0.03)      # keV
    assert dipole[4] == pytest.approx(2.6, rel=0.03)
    assert by_case[(3, 2, 88.968)][4] == dipole[4]


def test_pair_table_values():
    rows = np.array(run_sweep(SweepSpec("pair_table")).rows)
    first = rows[0]
    assert first[3] == pytest.approx(6.0 * 0.51099895, rel=1e-9)   # p_T MeV
    assert first[4] == pytest.approx(64.36, rel=0.01)              # b fm
    assert first[10] == pytest.approx(1.889, rel=0.01)             # crossover


def test_determinism_bit_identical():
    for figure_id in ("fig2a", "fig6", "fig8a", "deuteron_table"):
        a = run_sweep(SweepSpec(figure_id))
        b = run_sweep(SweepSpec(figure_id))
        assert a.rows == b.rows
        assert a.metadata == b.metadata


def test_unknown_figure_and_override():
    with pytest.raises(DomainError) as err:
        run_sweep(SweepSpec("fig99"))
    assert err.value.code == "UNKNOWN_FIGURE"
    with pytest.raises(DomainError) as err:
        run_sweep(SweepSpec("fig6", overrides={"nonsense": 1.0}))
    assert err.value.code == "UNKNOWN_PARAMETER"
    with pytest.raises(DomainError):
        run_sweep(SweepSpec("deuteron_table", grid=GridSpec(0.0, 1.0, 5)))


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        GridSpec(1.0, 1.0, 5)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 5, "log")
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 5, "cubic")


@pytest.mark.parametrize("figure_id", ["fig2a", "fig6", "fig8a"])
@pytest.mark.parametrize("start, stop", [
    (1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
])
def test_grid_rejects_non_finite_ends(figure_id, start, stop):
    # an infinite end used to pass `stop > start` and sweep into an empty
    # table, every row dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            run_sweep(SweepSpec(figure_id, grid=GridSpec(start, stop, 5)))
    assert err.value.code == "DOMAIN"


def test_loglin_grid_structure():
    values = GridSpec(1e-3, 1.5, 600, "loglin").values()
    assert len(values) == 600
    assert values[0] == 1e-3
    assert values[-1] == 1.5
    assert np.all(np.diff(values) > 0)
    # linear spacing in the upper section
    upper = values[-300:]
    assert np.allclose(np.diff(upper), upper[1] - upper[0])


def test_override_types_checked_against_defaults():
    with pytest.raises(DomainError) as info:
        run_sweep(SweepSpec("fig7", overrides={"m_gamma": 1.0}))
    assert info.value.code == "PARAMETER_TYPE"
    for bad in ("0.1", True, float("nan"), None, 10**400):
        with pytest.raises(DomainError) as info:
            run_sweep(SweepSpec("fig2a", overrides={"theta_k": bad}))
        assert info.value.code == "PARAMETER_TYPE"
    grid = GridSpec(10.0, 20.0, 2)
    result = run_sweep(SweepSpec("fig7", overrides={"m_gamma": np.int64(-2), "sigma_nm": 8,
                                                    "trap_mhz": np.float64(2.5)}, grid=grid))
    assert len(result.rows) == 2
    # numpy overrides reach the metadata as the Python numbers JSON takes
    parameters = result.metadata["parameters"]
    assert json.loads(json.dumps(parameters)) == parameters
    assert (type(parameters["m_gamma"]), type(parameters["trap_mhz"])) == (int, float)


def test_numpy_integers_pass_every_integer_check():
    # the integer checks take numbers.Integral, where numpy registers its
    # integers; a bool stays no integer override
    from twistkick.beam import TwistedPhotonBeam
    from twistkick.special_functions import bessel_j, bessel_j_array
    grid = GridSpec(10.0, 20.0, 2)
    expected = run_sweep(SweepSpec("fig7", overrides={"m_gamma": -2}, grid=grid))
    for m_gamma in (np.int64(-2), np.int8(-2)):
        result = run_sweep(SweepSpec("fig7", overrides={"m_gamma": m_gamma}, grid=grid))
        assert (result.rows, result.metadata) == (expected.rows, expected.metadata)
    with pytest.raises(DomainError) as info:
        run_sweep(SweepSpec("fig7", overrides={"m_gamma": True}, grid=grid))
    assert info.value.code == "PARAMETER_TYPE"
    assert TwistedPhotonBeam(np.int64(2), 1, 1.0, 0.1).l_gamma == 1
    with pytest.raises(DomainError):
        TwistedPhotonBeam(np.float64(2.0), 1, 1.0, 0.1)
    for order in (np.int64(-3), np.uint8(3)):
        assert bessel_j(order, 7.5) == bessel_j(int(order), 7.5)
        assert bessel_j_array(order, [7.5]).tolist() == [bessel_j(int(order), 7.5)]
    with pytest.raises(DomainError):
        bessel_j(np.float64(3.0), 7.5)
