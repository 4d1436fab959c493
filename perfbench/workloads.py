"""Operation rounds, warm-up passes and output checks for the three workloads.

A round is a fixed mix of operation kinds whose parameters are drawn from
the workload's seeded generator.  A run executes whole rounds until its time
is up, so its mix is the same whatever its length; cost-driving parameters
(grid counts, envelope scales) are stratified so that a seed changes the
inputs but not the mix of cheap and expensive operations.

Parameter ranges follow the documented defaults, examples and acceptance
ranges of each flag or figure parameter (see README.md in this directory).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Iterator

from twistkick import beam, cli, pair_production, recoil_kinematics, sweeps, \
    transitions, trap, units
from twistkick.errors import TwistkickError

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("cli_calls", "figure_tables", "heavy_kernels")


class CheckFailed(Exception):
    pass


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


@dataclass
class Op:
    """One closed-loop operation: ``execute`` is timed, ``judge`` is not.

    ``judge`` gets the output and returns the number of table rows produced;
    it raises CheckFailed (or the output's own error) when the output is wrong.
    """

    kind: str
    execute: Callable[[], object]
    judge: Callable[[object], int]
    detail: str = ""


@dataclass
class Outcome:
    latency: float
    rows: int
    failure: str | None
    start: float = 0.0  # perf_counter value when the operation started


class Draw:
    """Seeded parameter draws; ``stratum``/``strata`` pick a sub-range."""

    def __init__(self, rng):
        self.rng = rng

    def uni(self, lo, hi):
        return lo + (hi - lo) * self.rng.random()

    def logu(self, lo, hi, stratum=0, strata=1):
        u = (stratum + self.rng.random()) / strata
        return lo * (hi / lo) ** u

    def int(self, lo, hi):
        return self.rng.randint(lo, hi)

    def choice(self, seq):
        return seq[self.rng.randrange(len(seq))]


def describe(exc: BaseException) -> str:
    if isinstance(exc, CheckFailed):
        return f"check: {exc}"
    if isinstance(exc, TwistkickError):
        return f"error [{exc.code}] {type(exc).__name__}: {exc}"
    return f"exception {type(exc).__name__}: {exc}"


def fmt(x: float) -> str:
    return repr(float(x))


# --- frozen reference tables ----------------------------------------------------

_REFERENCE = None


def reference() -> dict:
    global _REFERENCE
    if _REFERENCE is None:
        with open(REFERENCE_PATH, encoding="ascii") as fh:
            _REFERENCE = json.load(fh)
    return _REFERENCE


def matches_reference(value: float, expected: float, scale: float) -> bool:
    """|value - ref| <= rtol * (|ref| + scale), scale being the largest |ref|
    of the column; rtol is the loosest accuracy the code documents (1e-6:
    dblquad jump probability, profile-peak search)."""
    return abs(value - expected) <= reference()["rtol"] * (abs(expected) + scale)


def compare_table(figure_id: str, columns: list[str], rows: list[list[float]]) -> None:
    """Compare a default figure table with the frozen reference rows."""
    entry = reference()["figures"][figure_id]
    ensure(columns == entry["columns"], f"{figure_id}: columns {columns}")
    ensure(len(rows) == entry["rows"],
           f"{figure_id}: {len(rows)} rows, reference {entry['rows']}")
    sampled = entry["sampled"]
    scales = [max(abs(r[c]) for r in sampled.values()) for c in range(len(columns))]
    for index, ref_row in sampled.items():
        row = rows[int(index)]
        for c, (value, expected) in enumerate(zip(row, ref_row)):
            ensure(matches_reference(value, expected, scales[c]),
                   f"{figure_id} row {index} {columns[c]}: {value!r} vs "
                   f"reference {expected!r}")


# --- CLI output parsing ---------------------------------------------------------

@dataclass
class Table:
    columns: list[str]
    rows: list[list[float]]
    metadata: dict | None = None


def parse_output(text: str, fmt_: str) -> Table:
    if fmt_ == "json":
        payload = json.loads(text)
        return Table([c["name"] for c in payload["columns"]],
                     [[float(v) for v in row] for row in payload["rows"]],
                     payload["metadata"])
    lines = text.split("\n")
    ensure(lines[-1] == "", "CSV output does not end with LF")
    header = lines[0].split(",")
    columns = [h.rsplit(" [", 1)[0] for h in header]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    ensure(all(len(r) == len(columns) for r in rows), "ragged CSV rows")
    return Table(columns, rows)


def check_finite(rows) -> None:
    ensure(all(math.isfinite(v) for row in rows for v in row), "non-finite value")


@dataclass
class CliCall:
    """A CLI argv and what its documented answer is."""

    argv: list[str]
    check: Callable[[Table, dict], None] | None = None  # for exit 0
    expect_error: tuple[int, str] | None = None  # (exit code, error code)
    params: dict = field(default_factory=dict)

    @property
    def format(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "csv"


def judge_cli(call: CliCall, result) -> int:
    code, out, err = result
    ensure("Traceback" not in err,
           f"traceback: {err.strip().splitlines()[-1] if err.strip() else ''}")
    if call.expect_error is not None:
        exit_code, error_code = call.expect_error
        ensure(code == exit_code and f"error [{error_code}]" in err,
               f"expected exit {exit_code} with error [{error_code}], got exit "
               f"{code}: {err.strip()[-200:]}")
        ensure(out == "", "error call wrote to stdout")
        return 0
    ensure(code == 0, f"exit {code}: {err.strip()[-200:]}")
    table = parse_output(out, call.format)
    check_finite(table.rows)
    call.check(table, call.params)
    return len(table.rows)


def cli_subprocess(argv, python: str, env: dict, cwd: str):
    proc = subprocess.run([python, "-m", "twistkick", *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


# --- cli_calls --------------------------------------------------------------------

CHEAP_GRID_FIGURES = ("fig6", "fig8a", "fig8b")


def _col(table: Table, name: str) -> list[float]:
    return [row[table.columns.index(name)] for row in table.rows]


def _check_count(t: Table, p: dict) -> None:
    ensure(len(t.rows) == p["count"], f"{len(t.rows)} rows for --count {p['count']}")


def _check_am_transfer(t: Table, p: dict) -> None:
    _check_count(t, p)
    for internal, cm in zip(_col(t, "lz_internal"), _col(t, "lz_cm")):
        ensure(abs(internal + cm - p["m_gamma"]) <= 1e-9,
               f"lz_internal + lz_cm = {internal + cm}, m_gamma {p['m_gamma']}")
        ensure(abs(internal) <= p["j"] + 1e-9, f"|lz_internal| {internal} > J")


def _check_ion_recoil(t: Table, p: dict) -> None:
    (_, _, e_long, e_t, total), = t.rows
    ensure(e_long > 0.0 and e_t >= 0.0, "negative recoil energy")
    # the shift is solved as (photon energy - excitation energy), so it
    # carries a few ulp of the eV-scale photon energy as absolute error
    slack = 8.0 * math.ulp(units.wavelength_to_energy(p["lambda_nm"])) / units.NEV
    ensure(abs(total - (e_long + e_t)) <= slack + 1e-9 * total,
           f"shift {total} != E_long + E_T")


def _check_probabilities(*names):
    def check(t: Table, p: dict) -> None:
        ensure(len(t.rows) == 1, "expected one row")
        for name in names:
            v = _col(t, name)[0]
            ensure(0.0 <= v <= 1.0, f"{name} = {v} outside [0, 1]")
    return check


def _check_sidebands(t: Table, p: dict) -> None:
    ensure(_col(t, "n") == [float(n) for n in range(p["n_max"] + 1)], "levels not 0..n_max")
    weights = _col(t, "weight")
    ensure(min(weights) >= -1e-12, f"negative weight {min(weights)}")
    total = math.fsum(weights)
    ensure(total <= 1.0 + 1e-6, f"sum of weights {total} > 1")
    if t.metadata is not None:
        ensure(abs(total + t.metadata["truncation_residual"] - 1.0) <= 1e-9,
               "weights + residual != 1")
        ensure(close(weights[0], t.metadata["carrier_weight"], 1e-10, 1e-15),
               "carrier weight != weight[0]")


def _check_deuteron(t: Table, p: dict) -> None:
    threshold = _col(t, "threshold")[0]
    ensure(threshold >= units.DEUTERON_BINDING_EV / units.MEV * (1 - 1e-12),
           f"threshold {threshold} MeV below the binding energy")


def _check_pair_threshold(t: Table, p: dict) -> None:
    (_, _, _, threshold, plane, shift), = t.rows
    ensure(threshold > 0.0, "non-positive threshold")
    ensure(close(plane, units.ELECTRON_MASS_EV**2 / p["omega2"] / units.GEV, 1e-10),
           "plane-wave threshold")
    ensure(abs(shift - (threshold - plane)) <= 1e-9 * max(threshold, plane),
           "shift != threshold - plane_wave")


def _check_crossover(t: Table, p: dict) -> None:
    (_, _, product, variation), = t.rows
    ensure(product > 0.0 and 0.0 <= variation < 1e-3, f"product {product}, variation {variation}")


def _check_beam_fit(t: Table, p: dict) -> None:
    row = dict(zip(t.columns, t.rows[0]))
    ensure(close(row["peak_radius"], row["b"], 1e-5), "profile peak not at b")
    expected = p["factor"] * units.ELECTRON_MASS_EV**2 / p["omega2"] / units.GEV
    ensure(close(row["threshold"], expected, 1e-9), "threshold != factor * plane wave")


def _check_reference(t: Table, p: dict) -> None:
    compare_table(p["figure"], t.columns, t.rows)


def _beam_flags(d: Draw, p: dict) -> list[str]:
    p["m_gamma"] = d.int(-3, 3)
    p["lambda_nm"] = d.uni(350.0, 1000.0)
    spin = d.choice((-1, 1))
    return ["--lambda-nm", fmt(p["lambda_nm"]), "--m-gamma", str(p["m_gamma"]),
            "--lambda-spin", str(spin), "--pitch-rad", fmt(d.uni(0.01, 0.3))]


def _trap_flags(d: Draw, p: dict) -> list[str]:
    return ["--nu", str(d.int(-2, 2)), "--b-nm", fmt(d.uni(1.0, 40.0)),
            "--sigma-nm", fmt(d.uni(4.0, 20.0)), "--trap-mhz", fmt(d.uni(0.5, 5.0))]


# documented coded answers: (argv, exit code, error code)
CLI_ERRORS = (
    (["ion-recoil", "--b-nm", "0"], 2, "B_SINGULARITY"),
    (["pair-threshold", "--pitch-urad", "5", "--b-fm", "0"], 2, "B_SINGULARITY"),
    (["crossover", "--l-gamma", "0"], 2, "DOMAIN"),
    (["beam-fit", "--factor", "1"], 2, "DOMAIN"),
    (["sidebands", "--b-nm", "10", "--n-max", "1"], 2, "DOMAIN"),
    (["trap-jump", "--b-nm", "10", "--sigma-nm", "0"], 2, "DOMAIN"),
    (["deuteron-threshold", "--m-gamma", "1", "--internal-am", "2", "--b-fm", "89"],
     2, "DOMAIN"),
    (["focus-fraction", "--w0-pm", "50", "--ratio-cut", "0"], 2, "DOMAIN"),
    (["am-transfer", "--multipole-j", "4"], 1, "USAGE"),
    (["reproduce", "--figure", "fig6", "--grid-count", "10"], 1, "USAGE"),
    (["reproduce", "--figure", "fig6", "--set", "no_such_key=1"], 2, "UNKNOWN_PARAMETER"),
)


def cli_round(d: Draw) -> list[CliCall]:
    """16 calls (~20 s at ~1.2 s per call): every subcommand, pair-threshold
    with each kind of kick, all four cheap figures through reproduce, and one
    input whose documented answer is a coded error."""
    calls = []

    def add(argv, check, params):
        calls.append(CliCall(argv + ["--format", d.choice(("csv", "json"))], check,
                             params=params))

    for name in ("am-transfer", "recoil-ratio"):
        p = {"j": d.int(1, 3), "count": int(d.logu(1.0, 31.0))}
        argv = [name, "--multipole-j", str(p["j"]), *_beam_flags(d, p),
                "--b-min-lambda", fmt(d.logu(1e-3, 0.1)),
                "--b-max-lambda", fmt(d.uni(0.5, 3.0)), "--count", str(p["count"])]
        add(argv, _check_am_transfer if name == "am-transfer" else _check_count, p)
    p = {}
    add(["ion-recoil", *_beam_flags(d, p), "--b-nm", fmt(d.logu(1.0, 100.0))],
        _check_ion_recoil, p)
    p = {}
    add(["trap-jump", *_beam_flags(d, p), *_trap_flags(d, p)],
        _check_probabilities("jump_point", "jump_extended"), p)
    p = {"n_max": d.int(2, 16)}
    add(["sidebands", *_beam_flags(d, p), *_trap_flags(d, p), "--n-max", str(p["n_max"])],
        _check_sidebands, p)
    for kick in (["--b-fm", fmt(d.logu(20.0, 2000.0))], ["--pt-mev", fmt(d.logu(0.1, 10.0))]):
        p = {"omega2": d.logu(0.5, 10.0)}
        add(["pair-threshold", "--omega2-ev", fmt(p["omega2"]),
             "--pitch-urad", fmt(d.logu(0.5, 50.0)), *kick, "--l-gamma", str(d.int(1, 3))],
            _check_pair_threshold, p)
    m_gamma = d.int(1, 3)
    add(["deuteron-threshold", "--m-gamma", str(m_gamma),
         "--internal-am", str(d.int(1, m_gamma)), "--b-fm", fmt(d.logu(20.0, 500.0)),
         "--lambda-fm", fmt(d.uni(300.0, 1000.0)), "--pitch-rad", fmt(d.uni(0.01, 0.3))],
        _check_deuteron, {})
    add(["focus-fraction", "--w0-pm", fmt(d.logu(5.0, 100.0)),
         "--ratio-cut", fmt(d.logu(0.01, 1.0)), "--delta-l", str(d.int(1, 3)),
         "--pitch-rad", fmt(d.uni(0.05, 0.2))],
        _check_probabilities("fraction"), {})
    add(["crossover", "--omega2-ev", fmt(d.logu(0.5, 10.0)), "--l-gamma", str(d.int(1, 3))],
        _check_crossover, {})
    p = {"factor": d.logu(2.0, 100.0), "omega2": d.logu(0.5, 10.0)}
    add(["beam-fit", "--factor", fmt(p["factor"]), "--omega2-ev", fmt(p["omega2"]),
         "--l-gamma", str(d.int(1, 2)), "--w0-over-b", fmt(d.uni(1.5, 2.5))],
        _check_beam_fit, p)
    for figure in CHEAP_GRID_FIGURES + ("deuteron_table",):
        add(["reproduce", "--figure", figure], _check_reference, {"figure": figure})
    argv, exit_code, code = d.choice(CLI_ERRORS)
    calls.append(CliCall(list(argv), expect_error=(exit_code, code)))
    return calls


# --- figure_tables ------------------------------------------------------------

AM_FIGURES = tuple(f"fig{n}{c}" for n in (2, 3, 4, 5) for c in "abc")
# default grids (start, stop, scale) of the figures whose count is drawn
GRID_FIGURES = {**{f: (1e-3, 1.5, "loglin") for f in AM_FIGURES},
                "fig6": (1.0, 100.0, "log"), "fig8a": (20.0, 2000.0, "log"),
                "fig8b": (0.5, 50.0, "log")}
COUNT_RANGE = (20.0, 2000.0)
TABLE_FIGURES = tuple(GRID_FIGURES) + ("deuteron_table",)
STRATUM_STRIDE = 4  # coprime with the 15 strata


def figure_overrides(d: Draw, figure_id: str) -> dict:
    if figure_id in AM_FIGURES:
        return {"lambda_nm": d.uni(350.0, 1000.0), "theta_k": d.uni(0.01, 0.3)}
    if figure_id == "fig6":
        return {"lambda_nm": d.uni(350.0, 1000.0)}
    if figure_id == "fig8a":
        return {"omega2_ev": d.logu(0.5, 10.0), "pitch_urad": d.logu(0.5, 50.0)}
    if figure_id == "fig8b":
        return {"omega2_ev": d.logu(0.5, 10.0), "b_fm": d.logu(20.0, 2000.0)}
    return {"theta_k": d.uni(0.01, 0.3)}  # deuteron_table


def _am_figure_check(figure_id: str, result, params: dict, sample: int) -> None:
    """Bounds on every row, and one row recomputed from the sublevel weights:
    sum w = 1 and lz_internal + lz_cm = m_gamma."""
    panel, letter = int(figure_id[3]), figure_id[4]
    j = "abc".index(letter) + 1
    helicity = 1 if panel in (2, 4) else -1
    energy = units.wavelength_to_energy(params["lambda_nm"])
    for row in result.rows:
        for m, value in zip((1, 2, 3), row[1:]):
            if panel in (2, 3):
                ensure(m - j - 1e-12 <= value <= m + j + 1e-12,
                       f"lz_cm {value} outside [m_gamma - J, m_gamma + J]")
    row = result.rows[sample % len(result.rows)]
    b = row[0] * params["lambda_nm"]
    for m, value in zip((1, 2, 3), row[1:]):
        photon = beam.TwistedPhotonBeam(m, helicity, energy, params["theta_k"])
        dist = transitions.excitation_probabilities(
            photon, transitions.TransitionChannel(float(j)), b)
        ensure(abs(math.fsum(dist.weights.values()) - 1.0) <= 1e-12, "sum w != 1")
        internal = math.fsum(m_f * w for m_f, w in dist.weights.items())
        lz_cm = m - internal
        if panel in (2, 3):
            ensure(abs(internal + value - m) <= 1e-9, "lz_internal + lz_cm != m_gamma")
        else:
            expected = lz_cm * photon.wavelength / (2.0 * math.pi * b)
            ensure(close(value, expected, 1e-9, 1e-12), "recoil ratio != lz_cm lambda / 2 pi b")


def _figure_check(figure_id: str, result, params: dict, sample: int) -> None:
    rows = result.rows
    if figure_id in AM_FIGURES:
        _am_figure_check(figure_id, result, params, sample)
    elif figure_id == "fig6":
        for _, e_long, t2, t3, t4 in rows:
            ensure(e_long > 0.0 and close(t3, 4.0 * t2, 1e-12) and close(t4, 9.0 * t2, 1e-12),
                   "E_T does not scale as delta_l^2")
    elif figure_id in ("fig8a", "fig8b"):
        thresholds = [r[1] for r in rows]
        ensure(min(thresholds) > 0.0, "non-positive threshold")
        ensure(all(b <= a * (1 + 1e-12) for a, b in zip(thresholds, thresholds[1:])),
               "threshold increases along the grid")
    elif figure_id == "deuteron_table":
        binding = units.DEUTERON_BINDING_EV / units.MEV
        for row in rows:
            ensure(row[3] >= binding and row[4] >= row[5] >= 0.0, "deuteron threshold budget")
    elif figure_id == "fig7":
        _fig7_check(result)
    elif figure_id == "pair_table":
        _pair_table_check(result)


def sweep_op(spec, params: dict, sample: int, expect_rows: int, formats: bool = True,
             reference_table: bool = False) -> Op:
    """run_sweep (plus CSV and JSON formatting) on one figure spec; ``sample``
    picks the row that AM figures recompute from the sublevel weights.  With
    ``reference_table`` (default parameters and grid) the table is also
    compared with the frozen reference."""

    def execute():
        result = sweeps.run_sweep(spec)
        if not formats:
            return result, None, None
        return result, cli.result_to_csv(result), cli.result_to_json(result)

    def judge(output):
        result, csv, js = output
        ensure(result.metadata["dropped_rows"] == 0,
               f"{result.metadata['dropped_rows']} dropped rows")
        ensure(len(result.rows) == expect_rows, f"{len(result.rows)} rows")
        check_finite(result.rows)
        if csv is not None:
            ensure(csv.count("\n") == len(result.rows) + 1, "CSV line count")
            ensure(len(json.loads(js)["rows"]) == len(result.rows), "JSON row count")
        full = dict(params)
        for key, value in result.metadata["parameters"].items():
            full.setdefault(key, value)
        _figure_check(spec.figure_id, result, full, sample)
        if reference_table:
            compare_table(spec.figure_id, [name for name, _ in result.columns], result.rows)
        return len(result.rows)

    return Op(spec.figure_id, execute, judge, f"{params} grid={spec.grid}")


def figure_round(d: Draw, rotation: int) -> list[Op]:
    """The 16 figures once (~1.4 s).  Grid counts are log-stratified over
    COUNT_RANGE into 15 strata, one per grid figure, and the strata rotate
    with ``rotation``: every round holds one count from each stratum, and
    each figure meets every stratum once in 15 rounds.  Figure i takes
    stratum (STRATUM_STRIDE * i + rotation) mod 15, so that figures of like
    cost per row (the three J of an AM panel, the three cheap figures) hold
    strata far apart and every round costs about the same.  The seed draws
    the count inside its stratum and the overrides."""
    ops = []
    strata = len(GRID_FIGURES)
    for i, figure_id in enumerate(TABLE_FIGURES):
        params = figure_overrides(d, figure_id)
        grid, count = None, 5
        if figure_id in GRID_FIGURES:
            start, stop, scale = GRID_FIGURES[figure_id]
            stratum = (STRATUM_STRIDE * i + rotation) % strata
            count = int(round(d.logu(*COUNT_RANGE, stratum, strata)))
            grid = sweeps.GridSpec(start, stop, count, scale)
        spec = sweeps.SweepSpec(figure_id, overrides=params, grid=grid)
        ops.append(sweep_op(spec, params, d.int(0, 10**6), count))
    return ops


# --- heavy_kernels -------------------------------------------------------------

def _fig7_check(result) -> None:
    for b, excitation, point, extended, c_point, c_ext in result.rows:
        for v in (excitation, point, extended):
            ensure(0.0 <= v <= 1.0, f"fig7 probability {v} outside [0, 1]")
        ensure(c_point == excitation * point and c_ext == excitation * extended,
               "combined != excitation * jump")


def _pair_table_check(result) -> None:
    for row in result.rows:
        omega2, _, factor, _, b, _, _, peak, plane, threshold, cross = row
        ensure(close(threshold, factor * plane, 1e-9), "threshold != factor * plane wave")
        ensure(close(peak, b, 1e-5), "profile peak not at b")
        ensure(cross > 0.0, "non-positive crossover product")


def _trap_params(d: Draw) -> dict:
    """Criterion-9 parameter domain (tests/test_acceptance.py)."""
    photon = beam.TwistedPhotonBeam(
        d.int(-3, 3), d.choice((-1, 1)),
        units.wavelength_to_energy(d.uni(350.0, 1000.0)), d.uni(0.01, 0.3))
    model = trap.TrapModel(1.5e6, d.uni(0.5, 5.0) * 1e6, units.CA40_ION_MASS_EV)
    return {"beam": photon, "nu": d.int(-2, 2), "b": d.uni(0.0, 40.0), "trap": model,
            "sigma": d.uni(4.0, 20.0)}


def _profile_beam(d: Draw, k: int):
    """Bessel-Gauss beam at the default pitch angle.  The envelope scale sets
    the cost (Miller-regime integrands): k = 0, 1 draw 5-10 pm (a few ms) and
    k = 2, 3 draw 45-70 pm (60-110 ms), each range stratified in two."""
    delta_l = d.int(1, 3)
    w0 = d.logu(5.0, 10.0, k, 2) if k < 2 else d.logu(45.0, 70.0, k - 2, 2)
    photon = beam.TwistedPhotonBeam(delta_l + 1, 1, units.DEUTERON_BINDING_EV,
                                    beam.DEFAULT_PITCH_ANGLE, envelope_w0=w0 * units.PM)
    return photon, delta_l


def _profile_op(d: Draw, k: int) -> Op:
    """focus_fraction (even k) or bessel_gauss_norm (odd k) on _profile_beam(k)."""
    photon, delta_l = _profile_beam(d, k)
    if k % 2:
        return Op("bessel_gauss_norm", lambda: beam.bessel_gauss_norm(photon),
                  _judge_positive, f"{photon}")
    cut = d.logu(0.01, 1.0)
    return Op("focus_fraction",
              lambda: recoil_kinematics.focus_fraction(photon, delta_l, cut),
              _judge_fraction, f"{photon} delta_l={delta_l} cut={cut}")


def _trap_ops(d: Draw, n_max: int, with_jump: bool) -> list[Op]:
    """sideband_spectrum, preceded when ``with_jump`` by
    jump_probability_extended on the same inputs; criterion 9:
    P_jump = 1 - carrier weight within 1e-6."""
    p = _trap_params(d)
    shared = {}

    def jump():
        return trap.jump_probability_extended(p["beam"], p["nu"], p["b"], p["trap"], p["sigma"])

    def judge_jump(value):
        ensure(0.0 <= value <= 1.0, f"P_jump {value} outside [0, 1]")
        shared["jump"] = value
        return 1

    def sidebands():
        return trap.sideband_spectrum(p["beam"], p["nu"], p["b"], p["trap"], p["sigma"], n_max)

    def judge_sidebands(spectrum):
        weights = list(spectrum.weights.values())
        ensure(all(math.isfinite(w) and w >= -1e-12 for w in weights), "bad weight")
        ensure(spectrum.truncation_residual >= -1e-6, "weights sum above 1")
        if "jump" in shared:
            ensure(abs(shared["jump"] - (1.0 - spectrum.carrier_weight)) <= 1e-6,
                   f"P_jump {shared['jump']} != 1 - carrier {spectrum.carrier_weight}")
        return len(weights)

    detail = f"nu={p['nu']} b={p['b']} sigma={p['sigma']} beam={p['beam']}"
    ops = [Op("sideband_spectrum", sidebands, judge_sidebands, detail + f" n_max={n_max}")]
    if with_jump:
        ops.insert(0, Op("jump_probability_extended", jump, judge_jump, detail))
    return ops


def heavy_round(d: Draw, defaults: bool) -> list[Op]:
    """25 operations (~10 s):
    - nine dear operations: fig7, pair_table, five beam fits (l_gamma = 1,
      default w0/b), and one focus fraction and one profile norm on a
      45-70 pm envelope;
    - eight sideband spectra (~35 ms), n_max = 4 to 11;
    - eight cheap operations: four extended-packet jump probabilities, each
      paired with a spectrum on the same inputs, two crossovers, and one
      focus fraction and one profile norm on a 5-10 pm envelope.
    So the median latency is the middle of the block of spectra, not the
    step between two kinds of operation, and op_tail_s, the 11th-largest
    latency of a three-round run, falls in the upper half of its fifteen
    fits.  With ``defaults``, fig7 and pair_table run at their documented
    defaults and are compared with the frozen reference tables."""
    fig7 = {} if defaults else {"sigma_nm": d.uni(4.0, 20.0), "trap_mhz": d.uni(0.5, 5.0)}
    ops = [sweep_op(sweeps.SweepSpec("fig7", overrides=fig7), fig7, 0, 120, formats=False,
                    reference_table=defaults)]
    for k in range(4):
        ops.extend(_trap_ops(d, 4 + 2 * k, with_jump=True))
        ops.extend(_trap_ops(d, 5 + 2 * k, with_jump=False))
        ops.append(_fit_op(d, k))
        ops.append(_profile_op(d, k))
        if k % 2 == 0:
            omega2, l_gamma = d.logu(0.5, 10.0), d.int(1, 3)
            ops.append(Op("crossover_product",
                          lambda omega2=omega2, l_gamma=l_gamma:
                          pair_production.crossover_product(omega2, l_gamma),
                          _judge_crossover, f"omega2={omega2} l_gamma={l_gamma}"))
        if k == 1:
            pair = {} if defaults else {"omega2_ev": d.logu(0.5, 10.0)}
            ops.append(sweep_op(sweeps.SweepSpec("pair_table", overrides=pair), pair,
                                0, 2, formats=False, reference_table=defaults))
    ops.append(_fit_op(d, 4))
    return ops


FITS_PER_ROUND = 5


def _fit_op(d: Draw, k: int) -> Op:
    """The k-th fit of a round.  factor and omega2 are stratified over the
    round's fits (omega2 in another order), so that every round spans their
    ranges alike and the fits' latency order, which sets op_tail_s, does not
    hang on a few draws."""
    factor = d.logu(2.0, 100.0, k, FITS_PER_ROUND)
    omega2 = d.logu(0.5, 10.0, 2 * k % FITS_PER_ROUND, FITS_PER_ROUND)

    def judge(fit):
        ensure(close(fit.peak_radius, fit.impact_parameter, 1e-5), "profile peak not at b")
        ensure(close(fit.photon_energy,
                     factor * pair_production.plane_wave_threshold(omega2), 1e-12),
               "threshold != factor * plane wave")
        ensure(0.0 < fit.pitch_angle < 0.5 * math.pi, "pitch angle out of range")
        return 1

    return Op("fit_beam_for_threshold_factor",
              lambda: pair_production.fit_beam_for_threshold_factor(factor, omega2, 1),
              judge, f"factor={factor} omega2={omega2} l_gamma=1")


def _judge_fraction(value) -> int:
    ensure(0.0 <= value <= 1.0, f"fraction {value} outside [0, 1]")
    return 1


def _judge_positive(value) -> int:
    ensure(math.isfinite(value) and value > 0.0, f"norm {value}")
    return 1


def _judge_crossover(result) -> int:
    ensure(result.product > 0.0 and 0.0 <= result.relative_variation < 1e-3,
           f"product {result.product}, variation {result.relative_variation}")
    return 1


# --- reference points, warm-up ---------------------------------------------------

def reference_kernels() -> dict:
    """Kernel values at fixed documented defaults, frozen in reference.json."""
    photon = beam.TwistedPhotonBeam(-2, -1, units.wavelength_to_energy(729.0), 0.1)
    model = trap.TrapModel(1.5e6, 1.5e6, units.CA40_ION_MASS_EV)
    profile = beam.TwistedPhotonBeam(2, 1, units.DEUTERON_BINDING_EV, 0.1,
                                     envelope_w0=50.0 * units.PM)
    spectrum = trap.sideband_spectrum(photon, -1, 20.0, model, 10.0, 8)
    return {
        "jump_probability_extended":
            [trap.jump_probability_extended(photon, -1, 20.0, model, 10.0)],
        "sideband_weights": [spectrum.weights[n] for n in sorted(spectrum.weights)],
        "focus_fraction": [recoil_kinematics.focus_fraction(profile, 1, 0.1)],
        "bessel_gauss_norm": [beam.bessel_gauss_norm(profile)],
    }


def reference_ops(workload: str) -> list[Op]:
    """Default figure tables (and kernel points) compared with the frozen
    reference; run untimed after set-up.  heavy_kernels compares its default
    fig7 and pair_table in its first timed round instead."""
    if workload == "figure_tables":
        figures = TABLE_FIGURES
    elif workload == "heavy_kernels":
        figures = ()
    else:
        return []
    ops = []
    for figure_id in figures:
        def execute(figure_id=figure_id):
            return sweeps.run_sweep(sweeps.SweepSpec(figure_id))

        def judge(result, figure_id=figure_id):
            compare_table(figure_id, [name for name, _ in result.columns], result.rows)
            return len(result.rows)

        ops.append(Op(f"reference:{figure_id}", execute, judge))
    if workload == "heavy_kernels":
        def judge_kernels(values):
            for name, got in values.items():
                expected = reference()["kernels"][name]
                scale = max(map(abs, expected))
                ensure(len(got) == len(expected) and all(
                    matches_reference(a, b, scale) for a, b in zip(got, expected)),
                    f"{name}: {got} vs reference {expected}")
            return len(values)

        ops.append(Op("reference:kernels", reference_kernels, judge_kernels))
    return ops


def warm_up(workload: str) -> None:
    """Touch every operation kind once on a small fixed input, so lazy caches
    (e.g. special_functions._FIRST_MAX_CACHE) and first-call costs land in
    set-up, not in the first timed operation."""
    if workload == "figure_tables":
        for figure_id in TABLE_FIGURES:
            grid = None
            if figure_id in GRID_FIGURES:
                start, stop, scale = GRID_FIGURES[figure_id]
                grid = sweeps.GridSpec(start, stop, 2, scale)
            result = sweeps.run_sweep(sweeps.SweepSpec(figure_id, grid=grid))
            cli.result_to_csv(result)
            cli.result_to_json(result)
    elif workload == "heavy_kernels":
        sweeps.run_sweep(sweeps.SweepSpec("fig7", grid=sweeps.GridSpec(10.0, 3000.0, 2)))
        photon = beam.TwistedPhotonBeam(-2, -1, units.wavelength_to_energy(729.0), 0.1)
        model = trap.TrapModel(1.5e6, 1.5e6, units.CA40_ION_MASS_EV)
        trap.jump_probability_extended(photon, -1, 20.0, model, 10.0)
        trap.sideband_spectrum(photon, -1, 20.0, model, 10.0, 4)
        profile = beam.TwistedPhotonBeam(2, 1, units.DEUTERON_BINDING_EV, 0.1,
                                         envelope_w0=5.0 * units.PM)
        recoil_kinematics.focus_fraction(profile, 1, 0.1)
        beam.bessel_gauss_norm(profile)
        pair_production.crossover_product(2.5, 1)
        # the profile scan behind fit_beam_for_threshold_factor and pair_table,
        # whose full fits take a second each
        fitted = beam.TwistedPhotonBeam(2, 1, 1e12, 1e-5, envelope_w0=1e-4)
        beam.profile_peak_radius(fitted)


class Workload:
    """Generates rounds of operations for one workload and seed."""

    def __init__(self, name: str, seed: int, executor=None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.draw = Draw(random.Random(f"{name}:{seed}"))
        self.executor = executor  # runs a CLI argv, for cli_calls

    def rounds(self) -> Iterator[list[Op]]:
        """One round after another, without end."""
        for index in itertools.count():
            if self.name == "figure_tables":
                yield figure_round(self.draw, index % len(GRID_FIGURES))
            elif self.name == "heavy_kernels":
                yield heavy_round(self.draw, defaults=index == 0)
            else:
                executor = self.executor
                yield [Op(call.argv[0], lambda argv=call.argv: executor(argv),
                          lambda result, call=call: judge_cli(call, result),
                          " ".join(call.argv))
                       for call in cli_round(self.draw)]
