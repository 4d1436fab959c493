import argparse
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistkick
from twistkick import cli, sweeps
from twistkick.cli import build_parser, main, result_to_csv, result_to_json
from twistkick.sweeps import FIGURE_IDS, SweepResult, SweepSpec, run_sweep

from child import run_cli_in_child


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "twistkick", *args], capture_output=True, text=True
    )


SUBCOMMANDS = [
    "am-transfer", "recoil-ratio", "ion-recoil", "trap-jump", "sidebands",
    "deuteron-threshold", "focus-fraction", "pair-threshold", "crossover",
    "beam-fit", "reproduce",
]


def run_main(capsys, *args: str):
    """In-process CLI call: (exit code, stdout, stderr)."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_help_lists_all_subcommands():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for name in SUBCOMMANDS:
        assert name in cp.stdout


# each subcommand with its required flags
REQUIRED_ARGV = {
    "am-transfer": [], "recoil-ratio": [], "ion-recoil": ["--b-nm", "10"],
    "trap-jump": ["--b-nm", "20"], "sidebands": ["--b-nm", "20"],
    "deuteron-threshold": ["--b-fm", "89"], "focus-fraction": ["--w0-pm", "50"],
    "pair-threshold": ["--pitch-urad", "5", "--b-fm", "200"], "crossover": [], "beam-fit": [],
    "reproduce": ["--figure", "fig6"],
}


def _subcommands(parser) -> list[str]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_parser_of_one_command_holds_that_command_alone():
    assert _subcommands(build_parser()) == SUBCOMMANDS == list(REQUIRED_ARGV)
    for name in SUBCOMMANDS:
        assert _subcommands(build_parser(name)) == [name]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_command_parser_parses_as_the_full_parser(name):
    argv = [name, *REQUIRED_ARGV[name]]
    one, full = (vars(parser.parse_args(argv)) for parser in (build_parser(name), build_parser()))
    assert one.pop("handler") is full.pop("handler")
    assert one == full


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["bogus"], 1)])
def test_top_level_help_and_unknown_command_name_every_subcommand(capsys, argv, status):
    code, out, err = run_main(capsys, *argv)
    assert code == status
    assert all(name in out + err for name in SUBCOMMANDS)


def test_main_builds_the_parser_its_first_argument_names(capsys, monkeypatch):
    built = []

    def recording(command=None):
        built.append(command)
        return build_parser(command)
    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in (["crossover"], ["--version"], ["bogus"], [], ["crossove"], ["-h"],
                 ["--format", "json", "crossover"]):
        run_main(capsys, *argv)
    assert built == ["crossover"] + [None] * 6


def test_main_reads_sys_argv(capsys, monkeypatch):
    expected = run_main(capsys, "crossover", "--format", "json")
    monkeypatch.setattr(sys, "argv", ["twistkick", "crossover", "--format", "json"])
    assert (main(), *capsys.readouterr()) == expected


def test_subcommand_help_shows_units_and_defaults(capsys):
    for name in SUBCOMMANDS:
        code, out, err = run_main(capsys, name, "--help")
        assert code == 0, err
        assert "[" in out and "default" in out


def test_crossover_quotable():
    cp = run_cli("crossover", "--omega2-ev", "2.5", "--l-gamma", "1")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == ["omega2 [eV]", "l_gamma [1]", "product [pm*urad]", "variation [1]"]
    product = rows[0][2]
    assert abs(product - 2.0) / 2.0 < 0.15


def test_pair_threshold_plane_wave():
    cp = run_cli("pair-threshold", "--omega2-ev", "2.5", "--pitch-urad", "0",
                 "--pt-mev", "0")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    threshold = rows[0][header.index("threshold [GeV]")]
    assert abs(threshold - 104.4) < 0.1


def test_ion_recoil_singularity_exit_code():
    cp = run_cli("ion-recoil", "--b-nm", "0")
    assert cp.returncode == 2
    assert "B_SINGULARITY" in cp.stderr
    assert cp.stdout == ""


def test_usage_error_exit_code():
    cp = run_cli("ion-recoil", "--no-such-flag", "1")
    assert cp.returncode == 1
    assert "USAGE" in cp.stderr
    cp = run_cli("reproduce", "--figure", "fig99")
    assert cp.returncode == 1


def test_sweep_count_bounds(capsys):
    for command in ("am-transfer", "recoil-ratio"):
        for count in ("0", "-1", "1000001"):
            code, out, err = run_main(capsys, command, "--count", count)
            assert code == 1, (command, count)
            assert "error [USAGE]" in err
            assert out == ""
        code, out, err = run_main(capsys, command, "--count", "1")
        assert code == 0, err
        header, rows = parse_csv(out)
        assert len(rows) == 1


def test_csv_format_contract():
    cp = run_cli("ion-recoil", "--b-nm", "10")
    assert cp.returncode == 0
    lines = cp.stdout.split("\n")
    assert lines[-1] == ""  # trailing LF, LF endings throughout
    assert "\r" not in cp.stdout
    header, rows = parse_csv(cp.stdout)
    assert all("[" in col and "]" in col for col in header)
    for cell in cp.stdout.strip().split("\n")[1].split(","):
        mantissa, exponent = cell.split("e")
        assert len(mantissa.replace("-", "").replace(".", "")) == 12
        assert "." in mantissa


def test_json_matches_csv_numerically():
    csv_cp = run_cli("deuteron-threshold", "--b-fm", "89", "--m-gamma", "2",
                     "--internal-am", "1")
    json_cp = run_cli("deuteron-threshold", "--b-fm", "89", "--m-gamma", "2",
                      "--internal-am", "1", "--format", "json")
    assert csv_cp.returncode == 0 and json_cp.returncode == 0
    header, rows = parse_csv(csv_cp.stdout)
    payload = json.loads(json_cp.stdout)
    assert [f"{c['name']} [{c['unit']}]" for c in payload["columns"]] == header
    assert payload["rows"] == rows
    assert "metadata" in payload


def test_output_file(tmp_path):
    path = tmp_path / "out.csv"
    cp = run_cli("crossover", "--output", str(path))
    assert cp.returncode == 0
    assert cp.stdout == ""
    text = path.read_text()
    assert text.startswith("omega2 [eV]")
    assert text.endswith("\n")


def test_reproduce_deterministic_bytes():
    a = run_cli("reproduce", "--figure", "fig6")
    b = run_cli("reproduce", "--figure", "fig6")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


DEUTERON_TABLE_GOLDEN = """\
m_gamma [hbar],internal_am [hbar],b [fm],threshold [MeV],recoil [keV],transverse_recoil [keV]
1.00000000000e+00,1.00000000000e+00,8.89676131884e+01,2.22584073277e+00,1.32073277360e+00,0.00000000000e+00
2.00000000000e+00,1.00000000000e+00,8.89676131884e+01,2.22715369337e+00,2.63369336809e+00,1.31140200901e+00
2.00000000000e+00,2.00000000000e+00,8.89676131884e+01,2.22584073277e+00,1.32073277360e+00,0.00000000000e+00
3.00000000000e+00,2.00000000000e+00,8.89676131884e+01,2.22715369337e+00,2.63369336809e+00,1.31140200901e+00
2.00000000000e+00,1.00000000000e+00,4.44838065942e+01,2.23109258067e+00,6.57258067269e+00,5.24560803602e+00
"""


def test_deuteron_table_bit_exact_golden():
    # this table involves only rational arithmetic and sqrt (both correctly
    # rounded under IEEE-754), so its bytes are platform-stable
    cp = run_cli("reproduce", "--figure", "deuteron_table")
    assert cp.returncode == 0
    assert cp.stdout == DEUTERON_TABLE_GOLDEN


def test_reproduce_override_and_grid():
    cp = run_cli("reproduce", "--figure", "fig8a", "--set", "pitch_urad=10",
                 "--grid-start", "50", "--grid-stop", "500", "--grid-count", "5",
                 "--grid-scale", "log")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert len(rows) == 5
    assert rows[0][0] == 50.0
    assert rows[-1][0] == 500.0


def test_reproduce_unknown_override_is_usage_error():
    cp = run_cli("reproduce", "--figure", "fig6", "--set", "bogus=1")
    assert cp.returncode == 2
    assert "UNKNOWN_PARAMETER" in cp.stderr


def test_trap_jump_and_sidebands_run():
    cp = run_cli("trap-jump", "--nu", "-1", "--b-nm", "20")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    point = rows[0][header.index("jump_point [1]")]
    extended = rows[0][header.index("jump_extended [1]")]
    assert 0.0 <= point <= 1.0 and 0.0 <= extended <= 1.0

    cp = run_cli("sidebands", "--nu", "-1", "--b-nm", "20", "--n-max", "6",
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    weights = [row[1] for row in payload["rows"]]
    assert abs(sum(weights) - 1.0) < 1e-4
    assert payload["metadata"]["carrier_weight"] + extended == pytest.approx(
        1.0, abs=1e-6
    )


def test_focus_fraction_runs():
    cp = run_cli("focus-fraction", "--w0-pm", "50", "--ratio-cut", "0.1")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    b_star = rows[0][header.index("b_star [fm]")]
    fraction = rows[0][header.index("fraction [1]")]
    assert abs(b_star - 887.0) / 887.0 < 0.01
    assert 0.0 <= fraction <= 1.0


def test_focus_fraction_beyond_scipy_ive_range(capsys):
    # w0 = 62 nm puts y = (kappa w0)^2/4 at 3.1e9, where scipy.special.ive
    # returns NaN; oracle: quad over [0, b*] (kappa b* ~ 1) over mpmath's total
    import mpmath
    from scipy.integrate import quad
    from scipy.special import jv

    from twistkick.beam import TwistedPhotonBeam, transverse_wavenumber
    from twistkick.recoil_kinematics import ratio_cut_radius
    from twistkick.units import DEUTERON_BINDING_EV

    status, out, err = run_main(capsys, "focus-fraction", "--w0-pm", "6.2e4")
    assert status == 0, err
    header, rows = parse_csv(out)
    beam = TwistedPhotonBeam(2, 1, DEUTERON_BINDING_EV, 0.1, envelope_w0=62.0)
    kappa, w0 = transverse_wavenumber(beam), beam.envelope_w0
    inner, _ = quad(lambda rho: jv(1, kappa * rho) ** 2 * math.exp(-2.0 * (rho / w0) ** 2) * rho,
                    0.0, ratio_cut_radius(beam, 1, 0.1), epsabs=0.0, epsrel=1e-13)
    mpmath.mp.dps = 30
    y = 0.25 * (kappa * w0) ** 2
    total = 0.25 * w0 * w0 * float(mpmath.besseli(1, y) * mpmath.exp(-y))
    assert rows[0][header.index("fraction [1]")] == pytest.approx(inner / total, rel=1e-10)


def test_beam_fit_runs():
    cp = run_cli("beam-fit", "--factor", "10")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert rows[0][header.index("p_T [MeV/c]")] == pytest.approx(
        6.0 * 0.51099895, rel=1e-9
    )
    assert rows[0][header.index("b [fm]")] == pytest.approx(64.36, rel=0.01)


def test_beam_fit_wide_envelope_peaks_at_b(capsys):
    # the first lobe at b is narrower than a step of a 4000-point grid over
    # [0, 10 w0], so only the first-lobe stationary point finds it
    code, out, err = run_main(capsys, "beam-fit", "--l-gamma", "5", "--w0-over-b", "1000")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert rows[0][header.index("peak_radius [fm]")] == rows[0][header.index("b [fm]")]


def test_output_file_holds_what_stdout_would(capsys, tmp_path):
    argv = ["reproduce", "--figure", "fig8b", "--format", "json"]
    _, expected, _ = run_main(capsys, *argv)
    path = tmp_path / "fig8b.json"
    code, out, err = run_main(capsys, *argv, "--output", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == expected.encode("ascii")


def test_no_call_loads_scipy():
    # the Bessel functions are numpy recurrences: neither the threshold
    # commands nor the Bessel-using ones, nor usage errors, import scipy
    imported, runs, loaded = run_cli_in_child([
        ["ion-recoil", "--b-nm", "10"], ["deuteron-threshold", "--b-fm", "89"],
        ["pair-threshold", "--pitch-urad", "5", "--b-fm", "200"],
        ["pair-threshold", "--pitch-urad", "5", "--pt-mev", "1"],
        ["crossover"], ["reproduce", "--figure", "fig6"], ["reproduce", "--figure", "fig8a"],
        ["reproduce", "--figure", "fig8b"], ["reproduce", "--figure", "deuteron_table"],
        ["ion-recoil"], ["trap-jump", "--b-nm", "20"], ["focus-fraction", "--w0-pm", "50"],
        ["beam-fit"],
    ], report=["scipy"])
    assert imported == []
    assert [status for status, _, _ in runs] == [0] * 9 + [1, 0, 0, 0]
    assert loaded == []


def test_package_source_names_no_scipy_solvers():
    package = Path(twistkick.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        for name in ("scipy.optimize", "scipy.integrate", "brentq"):
            assert name not in text, f"{path.name} names {name}"


def test_package_source_names_no_scipy():
    # scipy is a test oracle, not a runtime dependency
    sources = sorted(Path(twistkick.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        assert "scipy" not in path.read_text(), f"{path.name} names scipy"


BESSEL_ARGV = [
    ["am-transfer", "--count", "3"], ["recoil-ratio", "--count", "3"],
    ["ion-recoil", "--b-nm", "10"], ["trap-jump", "--b-nm", "20"],
    ["sidebands", "--b-nm", "20"], ["deuteron-threshold", "--b-fm", "89"],
    ["focus-fraction", "--w0-pm", "50"], ["focus-fraction", "--w0-pm", "6.2e4"],
    ["pair-threshold", "--pitch-urad", "5", "--b-fm", "200"], ["crossover"], ["beam-fit"],
] + [["reproduce", "--figure", figure] for figure in FIGURE_IDS]


def test_every_call_runs_with_scipy_blocked(capsys):
    # an import of any scipy module fails in the child, which runs every
    # subcommand and every default figure; each prints what it prints here
    _, runs, _ = run_cli_in_child(BESSEL_ARGV, block=["scipy"])
    assert len(FIGURE_IDS) == 18
    for argv, (status, out, _) in zip(BESSEL_ARGV, runs):
        assert (status, out) == run_main(capsys, *argv)[:2], argv
        assert status == 0 and out, argv


# the calls that run on Python floats: the subcommands that answer one
# point, the AM sweeps, every figure grid up to 1000 points, the beam fits
# and the profile integrals up to the float nodes, and their coded errors
# (with a usage error)
GRID_FIGURES = [figure for figure in FIGURE_IDS if figure not in ("deuteron_table", "pair_table")]
SCALAR_ARGV = [
    ["ion-recoil", "--b-nm", "10"], ["trap-jump", "--b-nm", "20"],
    ["sidebands", "--b-nm", "20"], ["pair-threshold", "--pitch-urad", "5", "--b-fm", "200"],
    ["pair-threshold", "--pitch-urad", "5", "--pt-mev", "1"],
    ["deuteron-threshold", "--b-fm", "89"], ["crossover"],
    ["reproduce", "--figure", "deuteron_table"], ["reproduce", "--figure", "pair_table"],
    ["beam-fit"], ["beam-fit", "--l-gamma", "2", "--w0-over-b", "2.5"],
    # the inner integral alone, with the outer one, and b* >= 8 w0 (none)
    ["focus-fraction", "--w0-pm", "50"], ["focus-fraction", "--w0-pm", "0.5"],
    ["focus-fraction", "--w0-pm", "0.1"],
] + [[name, *count] for name in ("am-transfer", "recoil-ratio")
     for count in ([], ["--count", "1"], ["--count", "30"])] + [
    ["reproduce", "--figure", figure] for figure in GRID_FIGURES] + [
    ["reproduce", "--figure", "fig4b", "--grid-start", "1e-3", "--grid-stop", "1.5",
     "--grid-count", "1000", "--grid-scale", "loglin"],
    # rows at b <= 0 dropped and counted
    ["reproduce", "--figure", "fig6", "--grid-start", "-1", "--grid-stop", "100"],
    ["reproduce", "--figure", "fig3a", "--grid-start", "-0.5", "--grid-stop", "1",
     "--grid-count", "7"],
]
SCALAR_ERROR_ARGV = [
    ["ion-recoil", "--b-nm", "0"], ["pair-threshold", "--pitch-urad", "5", "--b-fm", "0"],
    ["crossover", "--l-gamma", "0"], ["sidebands", "--b-nm", "10", "--n-max", "1"],
    ["trap-jump", "--b-nm", "10", "--sigma-nm", "0"],
    ["deuteron-threshold", "--m-gamma", "1", "--internal-am", "2", "--b-fm", "89"],
    ["am-transfer", "--multipole-j", "4"],
    ["am-transfer", "--b-min-lambda", "-1"], ["recoil-ratio", "--b-min-lambda", "-1"],
    ["recoil-ratio", "--b-min-lambda", "0"],
    ["am-transfer", "--m-gamma", "0", "--pitch-rad", "0", "--b-min-lambda", "0.5"],
    ["am-transfer", "--m-gamma", "70"], ["recoil-ratio", "--m-gamma", "70"],
    ["am-transfer", "--lambda-nm", "1e300", "--b-min-lambda", "1e300"],
    ["recoil-ratio", "--lambda-nm", "1e300", "--b-min-lambda", "1e300"],
    ["beam-fit", "--factor", "1"], ["beam-fit", "--w0-over-b", "1"],
    ["focus-fraction", "--w0-pm", "50", "--ratio-cut", "0"],
    ["reproduce", "--figure", "fig6", "--set", "no_such_key=1"],
    ["reproduce", "--figure", "deuteron_table", "--set", "theta_k=abc"],
    # every row dropped
    ["reproduce", "--figure", "fig7", "--set", "sigma_nm=-1"],
    ["reproduce", "--figure", "fig2a", "--set", "theta_k=0"],
    ["reproduce", "--figure", "fig8a", "--grid-start", "-5", "--grid-stop", "0",
     "--grid-count", "4"],
]


def test_scalar_calls_run_with_numpy_blocked(capsys, tmp_path):
    # importing the CLI loads neither dataclasses nor json; with every numpy
    # import failing (so the import loads none either), the child runs each
    # scalar subcommand, AM sweep, fixed table, figure grid of up to 1000
    # points, beam fit, focus fraction and coded error in CSV and JSON, and
    # each gives the status, stdout and stderr it gives here; a table written
    # with --output holds what stdout would
    argvs = [argv + ["--format", fmt] for argv in SCALAR_ARGV + SCALAR_ERROR_ARGV
             for fmt in ("csv", "json")]
    path = tmp_path / "deuteron_table.json"
    to_file = ["reproduce", "--figure", "deuteron_table", "--format", "json"]
    imported, runs, _ = run_cli_in_child(argvs + [to_file + ["--output", str(path)]],
                                         block=["numpy"], report=["dataclasses", "json"])
    assert imported == []
    assert runs.pop() == (0, "", "")
    assert path.read_text(encoding="ascii") == run_main(capsys, *to_file)[1]
    for argv, run in zip(argvs, runs, strict=True):
        assert run == run_main(capsys, *argv), argv
        assert (run[0] == 0) == (argv[:-2] in SCALAR_ARGV), argv


def test_focus_fraction_loads_no_numpy_polynomial_or_linalg():
    # the quadrature's nodes are literals: beyond what importing numpy loads
    # itself, a focus-fraction call loads neither numpy.polynomial nor
    # numpy.linalg
    _, runs, loaded = run_cli_in_child([["focus-fraction", "--w0-pm", "50"]], preload=["numpy"],
                                       report=["numpy.polynomial", "numpy.linalg"])
    assert ([status for status, _, _ in runs], loaded) == ([0], [])


@pytest.mark.parametrize("argv", [
    ["am-transfer", "--count", str(sweeps.FLOAT_ROWS + 1)],
    # an inner integral of 159 panels, 7632 nodes
    ["focus-fraction", "--w0-pm", "500", "--ratio-cut", "1e-4"],
    ["reproduce", "--figure", "fig7", "--grid-start", "10", "--grid-stop", "3000",
     "--grid-count", str(sweeps.FLOAT_ROWS + 1)],
], ids=["am-transfer", "focus-fraction", "fig7"])
def test_array_bessel_tables_load_no_numpy_ma(argv):
    # the octave groups of an array Bessel table are found without
    # np.unique, which loads numpy.ma; an am-transfer table or a fig7 grid
    # beyond the float rows, or a profile integral beyond the float nodes,
    # builds one
    _, ((status, _, _),), loaded = run_cli_in_child([argv], report=["numpy"])
    assert (status, "numpy" in loaded, "numpy.ma" in loaded) == (0, True, False)


@pytest.mark.parametrize("argv, code", [
    (["sidebands", "--b-nm", "10", "--nu", "1" + "0" * 60], "DOMAIN"),
    (["deuteron-threshold", "--b-fm", "10", "--internal-am", "1" + "0" * 60], "DOMAIN"),
    (["reproduce", "--figure", "fig2a", "--set", "theta_k=1" + "0" * 400], "PARAMETER_TYPE"),
    (["ion-recoil", "--b-nm", "10", "--m-gamma=-1" + "0" * 400], "DOMAIN"),
    (["ion-recoil", "--b-nm", "10", "--m-gamma", "1" + "0" * 400], "DOMAIN"),
], ids=["sidebands-nu", "deuteron-internal-am", "reproduce-theta-k", "ion-recoil-negative-m-gamma",
        "ion-recoil-m-gamma"])
def test_huge_integer_is_named_by_its_length(capsys, argv, code):
    status, out, err = run_main(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith(f"twistkick: error [{code}]: ") and err.count("\n") == 1
    assert "an integer of" in err and "0" * 21 not in err
    assert len(err) < 200


def test_shown_counts_the_digits_of_huge_integers():
    from twistkick.errors import shown
    assert shown(10**20 - 1) == "99999999999999999999"
    assert shown(10**20) == "an integer of 21 digits"
    assert shown(-(10**21 - 1)) == "an integer of 21 digits"
    # beyond the 4300 digits int -> str converts
    assert shown(10**5000) == "an integer of 5001 digits"
    assert shown("a") == "'a'" and shown(1.5) == "1.5"


def test_truncation_warning_is_one_coded_line(capsys):
    argv = ["sidebands", "--b-nm", "60", "--nu", "3", "--sigma-nm", "25", "--n-max", "2",
            "--pitch-rad", "0.3", "--lambda-nm", "397"]
    code, out, err = run_main(capsys, *argv)
    assert code == 0
    assert err == ("twistkick: warning [TRUNCATION]: sideband truncation residual "
                   "3.748e-02 above 1e-3 at n_max=2\n")
    header, rows = parse_csv(out)
    assert header == ["n [1]", "weight [1]", "energy_shift [neV]"]
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0]
    code, out, err = run_main(capsys, *argv, "--format", "json")
    assert code == 0
    assert err.startswith("twistkick: warning [TRUNCATION]: ") and err.count("\n") == 1
    payload = json.loads(out)
    assert payload["metadata"]["truncation_residual"] == pytest.approx(3.748e-2, abs=1e-5)
    assert payload["metadata"]["carrier_weight"] == pytest.approx(payload["rows"][0][1],
                                                                  rel=1e-11)


@pytest.mark.parametrize("figure,override,expected", [
    ("fig2a", "theta_k=abc", "a finite number"),
    ("fig2a", "theta_k=inf", "a finite number"),
    ("fig8a", "pitch_urad=nan", "a finite number"),
    ("fig7", "m_gamma=1.5", "an integer"),
    ("fig8b", "l_gamma=two", "an integer"),
])
def test_reproduce_override_type_error(capsys, figure, override, expected):
    # ``expected`` is what the parameter takes; the message is the table's
    # for that kind of parameter, after the figure and the key
    code, out, err = run_main(capsys, "reproduce", "--figure", figure, "--set", override)
    assert code == 2
    assert out == ""
    key, value = override.split("=")
    rejection = {("a finite number", "abc"): "must be a real number, got str",
                 ("a finite number", "inf"):
                     "must be finite, got a non-finite value (an input overflows)",
                 ("a finite number", "nan"): "must be finite, got a value that is not a number",
                 ("an integer", "1.5"): "must be an integer, got 1.5",
                 ("an integer", "two"): "must be a real number, got str"}[expected, value]
    assert err == (f"twistkick: error [PARAMETER_TYPE]: figure {figure!r} parameter {key!r}: "
                   f"value {rejection}\n")


@pytest.mark.parametrize("n_max", ["171", "100000"])
def test_sidebands_n_max_cap(capsys, n_max):
    code, out, err = run_main(capsys, "sidebands", "--b-nm", "10", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert "error [DOMAIN]" in err and "170" in err


@pytest.mark.parametrize("argv", [
    ["crossover", "--omega2-ev", "inf"],
    ["ion-recoil", "--b-nm", "inf"],
    ["ion-recoil", "--b-nm", "nan"],
    ["trap-jump", "--b-nm", "10", "--sigma-nm=-inf"],
    ["focus-fraction", "--w0-pm", "NaN"],
    ["beam-fit", "--factor", "1e999"],
    ["reproduce", "--figure", "fig6", "--grid-start", "1", "--grid-stop", "inf",
     "--grid-count", "3"],
])
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error [USAGE]" in err and "must be finite" in err


def test_beam_fit_out_of_range_factor_has_no_nan(capsys):
    code, out, err = run_main(capsys, "beam-fit", "--factor", "1e300")
    assert code == 2
    assert out == ""
    assert "error [DOMAIN]" in err
    assert "nan" not in err.lower()


@pytest.mark.parametrize("argv,code,message", [
    (["am-transfer", "--m-gamma", "3", "--b-min-lambda", "0"], "UNDEFINED_DISTRIBUTION",
     "all sublevel amplitudes vanish at b=0.0; no absorption"),
    (["recoil-ratio", "--b-min-lambda", "0"], "B_SINGULARITY",
     "impact parameter must be positive, got 0.0"),
    (["am-transfer", "--b-min-lambda", "2", "--b-max-lambda", "-1", "--count", "9"],
     "DOMAIN", "impact parameter must be non-negative and finite, got -99.25"),
    (["recoil-ratio", "--b-max-lambda", "1e7", "--count", "50"], "DOMAIN",
     "Bessel argument |x| <= 1e+06 supported, got 1024117.3174895761"),
    (["am-transfer", "--m-gamma", "-63", "--multipole-j", "2"], "DOMAIN",
     "Bessel order must be an integer in [-64, 64], got -65"),
])
def test_am_sweep_first_failing_point_error(capsys, argv, code, message):
    status, out, err = run_main(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err == f"twistkick: error [{code}]: {message}\n"


def test_am_transfer_rows_match_sublevel_weights(capsys):
    from twistkick.beam import TwistedPhotonBeam
    from twistkick.transitions import TransitionChannel, excitation_probabilities
    from twistkick.units import wavelength_to_energy

    status, out, _ = run_main(capsys, "am-transfer", "--multipole-j", "3", "--m-gamma", "-2",
                              "--lambda-spin", "-1", "--pitch-rad", "0.3", "--count", "40",
                              "--format", "json")
    assert status == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 40
    beam = TwistedPhotonBeam(-2, -1, wavelength_to_energy(397.0), 0.3)
    for x, internal, cm in rows:
        weights = excitation_probabilities(beam, TransitionChannel(3), x * 397.0).weights
        expected = sum(m_f * w for m_f, w in weights.items())
        # the printed values carry 12 significant digits
        assert internal == pytest.approx(expected, abs=1e-11)
        assert cm == pytest.approx(-2.0 - expected, abs=1e-11)


def test_linspace_is_numpy_linspace():
    # the float grid of an AM sweep against np.linspace, its oracle, by repr:
    # seeded ends and counts, reversed, equal and subnormal spans included
    rng = random.Random(2302)
    ends = [(0.0, 5e-324), (-5e-324, 5e-324), (1e-310, 1.0000001e-310), (-0.0, 0.0),
            (2.5, 2.5), (1e308, -1e308 * 0.7), (-3.0, 7.0)]
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-320, 300)
        ends.append((rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale))
    for i, (start, stop) in enumerate(ends):
        count = [1, 2, 3, 300, sweeps.FLOAT_ROWS][i % 5] if i < 100 else rng.randint(1, 40)
        assert repr(sweeps._linspace(start, stop, count)) == \
            repr(np.linspace(start, stop, count).tolist()), (start, stop, count)


def _seeded_am_argv(rng):
    name = rng.choice(["am-transfer", "recoil-ratio"])
    return [name, "--multipole-j", str(rng.randint(1, 3)), "--m-gamma", str(rng.randint(-8, 8)),
            "--lambda-spin", rng.choice(["-1", "1"]), "--pitch-rad", f"{rng.uniform(0, 1.5):.6g}",
            "--lambda-nm", f"{rng.uniform(100, 1000):.6g}",
            "--b-min-lambda", f"{rng.choice([1e-3, 0.2, 0.5, 0.0]):g}",
            "--b-max-lambda", f"{rng.uniform(0.5, 40.0):.6g}",
            "--format", rng.choice(["csv", "json"])]


@pytest.mark.parametrize("count", [1, 30, 300, sweeps.FLOAT_ROWS, sweeps.FLOAT_ROWS + 1])
def test_am_tables_on_floats_equal_the_array_tables(capsys, monkeypatch, count):
    # each seeded am-transfer and recoil-ratio table, and its first-row
    # error, is the same text whether its rows run on Python floats or on
    # one array, on both sides of the row count where a process without
    # numpy switches (the float-or-array rule is forced, as numpy is loaded
    # here)
    rng = random.Random(2303 + count)
    statuses = set()
    for _ in range(8 if count < 300 else 3):
        argv = _seeded_am_argv(rng) + ["--count", str(count)]
        outcomes = []
        for float_rows in (10**7, sweeps.FLOAT_ROWS, 0):
            monkeypatch.setattr(sweeps, "on_floats", lambda n, most, rows=float_rows: n <= rows)
            outcomes.append(run_main(capsys, *argv))
        assert outcomes[0] == outcomes[1] == outcomes[2], argv
        statuses.add(outcomes[0][0])
    assert 0 in statuses


def test_am_columns_of_float_points_are_the_array_rows(monkeypatch):
    # the AM sweep of one to three beams on a list of floats against the
    # array: rows by repr, the first code of each row, and with strict the
    # error of the first failing row of the first failing beam (the
    # float-or-array rule forced each way)
    from twistkick.sweeps import _am_columns, _lz_cm_column
    from twistkick.transitions import TransitionChannel, _ratio_from_partition
    from twistkick.beam import TwistedPhotonBeam
    from twistkick.errors import TwistkickError
    rng = random.Random(2304)
    for _ in range(120):
        theta = rng.choice([0.0, rng.uniform(0.0, 1.5)])
        beams = [TwistedPhotonBeam(rng.choice([-3, 0, 1, 2, 3, 62, -64, 70]),
                                   rng.choice([-1, 1]), 3.1, theta)
                 for _ in range(rng.randint(1, 3))]
        channel = TransitionChannel(rng.randint(1, 3), rng.choice([0.0, 0.5]))
        xs = [rng.choice([-1.0, 0.0, math.nan, 1e300, rng.uniform(0.0, 3.0)])
              for _ in range(rng.randint(1, 12))]
        for kernel in (_lz_cm_column, _ratio_from_partition):
            monkeypatch.setattr(sweeps, "on_floats", lambda n, most: True)
            floats = _am_columns(beams, channel, xs, 400.0, kernel)
            monkeypatch.setattr(sweeps, "on_floats", lambda n, most: False)
            array = _am_columns(beams, channel, np.array(xs), 400.0, kernel)
            assert repr(floats) == repr(array), (beams, xs)
            errors = []
            for on_floats, points in ((True, xs), (False, np.array(xs))):
                monkeypatch.setattr(sweeps, "on_floats", lambda n, most, f=on_floats: f)
                try:
                    _am_columns(beams, channel, points, 400.0, kernel, strict=True)
                    errors.append(None)
                except TwistkickError as exc:
                    errors.append((type(exc), exc.code, str(exc)))
            assert errors[0] == errors[1], (beams, xs)


@pytest.mark.parametrize("argv", [
    ["am-transfer", "--count", "3", "--pitch-rad", "0.2"],
    ["recoil-ratio", "--count", "3", "--b-min-lambda", "0.5", "--multipole-j", "2"],
    ["ion-recoil", "--b-nm", "10", "--pitch-rad", "0.2"],
    ["trap-jump", "--b-nm", "20", "--nu", "-1"],
    ["sidebands", "--b-nm", "20", "--n-max", "4"],
    ["deuteron-threshold", "--b-fm", "89", "--pitch-rad", "0.2"],
    ["focus-fraction", "--w0-pm", "50"],
    ["pair-threshold", "--pitch-urad", "5", "--pt-mev", "1"],
    ["crossover", "--l-gamma", "2"],
    ["beam-fit", "--factor", "20"],
])
def test_json_parameters_record_every_parsed_option(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--format", "json")
    assert code == 0, err
    metadata = json.loads(out)["metadata"]
    parsed = vars(build_parser().parse_args(argv))
    assert metadata["command"] == parsed.pop("command") == argv[0]
    for key in ("handler", "format", "output"):
        del parsed[key]
    assert metadata["parameters"] == parsed


@pytest.mark.parametrize("figure,override,code,message", [
    ("fig7", "m_final=0", "DOMAIN",
     "figure 'fig7' dropped every row; at b=10 nm: "
     "m_f=0 is not reachable from m_i=-0.5 with multipole J=2.0"),
    ("pair_table", "omega2_ev=1e-300", "DOMAIN",
     "figure 'pair_table' dropped every row; at case (1, 10.0): omega2 = 1e-300 eV puts "
     "the plane-wave threshold m_e^2/omega2 beyond the floating-point range"),
    ("fig2a", "theta_k=0", "UNDEFINED_DISTRIBUTION",
     "figure 'fig2a' dropped every row; at b=0.001 lambda: "
     "all sublevel amplitudes vanish at b=0.397; no absorption"),
    ("fig8a", "omega2_ev=1e300", "NO_ROOT",
     "figure 'fig8a' dropped every row; at b=20 fm: no positive threshold root (got 0.0)"),
    ("fig6", "lambda_nm=1e-300", "NON_FINITE",
     "figure 'fig6' dropped every row; at b=1 nm: E_long is not finite"),
], ids=["fig7", "pair_table", "fig2a", "fig8a", "fig6"])
def test_sweep_dropping_every_row_is_coded_error(capsys, figure, override, code, message):
    # a fault in a figure parameter drops every row; that is an error, not
    # a header-only table
    status, out, err = run_main(capsys, "reproduce", "--figure", figure, "--set", override)
    assert status == 2
    assert out == ""
    assert err == f"twistkick: error [{code}]: {message}\n"


@pytest.mark.parametrize("override, message", [
    ("trap_mhz=0", "figure 'fig7' parameter 'trap_mhz' must be positive and finite, got 0"),
    ("sigma_nm=-1", "figure 'fig7' parameter 'sigma_nm' must be positive and finite, got -1"),
])
def test_figure_parameter_out_of_range_is_named(capsys, override, message):
    # the override is checked before any row is built, and the error names
    # it, not the library field it feeds (axial_frequency) or a dropped row
    status, out, err = run_main(capsys, "reproduce", "--figure", "fig7", "--set", override)
    assert (status, out) == (2, "")
    assert err == f"twistkick: error [DOMAIN]: {message}\n"


def test_pair_threshold_negative_kick_is_domain_error(capsys):
    status, out, err = run_main(capsys, "pair-threshold", "--pitch-urad", "5", "--pt-mev", "-1")
    assert status == 2
    assert out == ""
    assert err == "twistkick: error [DOMAIN]: p_T must be non-negative, got -1.0\n"


@pytest.mark.parametrize("argv,code,message", [
    (["crossover", "--omega2-ev", "1e-300"], "DOMAIN",
     "omega2 = 1e-300 eV puts the plane-wave threshold m_e^2/omega2 "
     "beyond the floating-point range"),
    (["pair-threshold", "--pitch-urad", "5", "--b-fm", "1", "--omega2-ev", "1e-300"], "DOMAIN",
     "omega2 = 1e-300 eV puts the plane-wave threshold m_e^2/omega2 "
     "beyond the floating-point range"),
    (["pair-threshold", "--pitch-urad", "5", "--pt-mev", "1e300"], "DOMAIN",
     "the superkick p_T = l_gamma hbar c / b at b = 1.97327e-304 nm "
     "is too large to square in floating point"),
    (["pair-threshold", "--pitch-urad", "5", "--b-fm", "1e-300"], "DOMAIN",
     "the superkick p_T = l_gamma hbar c / b at b = 1e-306 nm "
     "is too large to square in floating point"),
    (["pair-threshold", "--pitch-urad", "5", "--pt-mev", "1e308"], "DOMAIN",
     "p_T = 1e+308 MeV/c is beyond the floating-point range"),
    (["reproduce", "--figure", "fig2a", "--grid-start=-1.7e308", "--grid-stop=1.7e308",
      "--grid-count", "3"], "DOMAIN",
     "grid span [-1.7e+308, 1.7e+308] is beyond the floating-point range"),
    (["reproduce", "--figure", "fig6", "--grid-start=-1.7e308", "--grid-stop=1.7e308",
      "--grid-count", "3"], "DOMAIN",
     "grid span [-1.7e+308, 1.7e+308] is beyond the floating-point range"),
    (["am-transfer", "--b-min-lambda", "1e308", "--b-max-lambda=-1e308"], "DOMAIN",
     "sweep span [1e+308, -1e+308] lambda is beyond the floating-point range"),
    (["am-transfer", "--lambda-nm", "1e300", "--b-min-lambda", "1e300"], "DOMAIN",
     "the Bessel argument kappa b overflows the floating-point range"),
    (["focus-fraction", "--w0-pm", "1e300", "--energy-mev", "1e300"], "DOMAIN",
     "Bessel argument |x| <= 1e+06 supported, got a non-finite value (an input overflows)"),
    (["beam-fit", "--w0-over-b", "1e-300"], "FIT", "w0/b = 1e-300 gives no interior peak"),
    (["beam-fit", "--w0-over-b", "0"], "DOMAIN", "w0/b must be positive and finite, got 0.0"),
    (["focus-fraction", "--w0-pm", "1e300", "--pitch-rad", "0"], "QUADRATURE",
     "profile is not normalizable: its integral at w0 = 1e+297 nm is not finite"),
    (["focus-fraction", "--w0-pm", "1e300", "--ratio-cut", "1e-300", "--energy-mev", "1e-300"],
     "DOMAIN", "ratio_cut 1e-300 at p_z = 1e-294 eV/c puts b* beyond the floating-point range"),
    (["ion-recoil", "--lambda-nm", "1e-300", "--b-nm", "7", "--mass-mev", "1e300"],
     "NON_FINITE", "E_long is not finite"),
    (["deuteron-threshold", "--b-fm", "1", "--lambda-fm", "1e-300"], "DOMAIN",
     "wavelength 1e-306 nm is too short: its photon energy overflows"),
    (["reproduce", "--figure", "fig7", "--set", "m_initial=1e308"], "DOMAIN",
     "figure 'fig7' parameter 'm_initial' must lie in [-8.98847e+307, 8.98847e+307], "
     "got 1e+308"),
    (["reproduce", "--figure", "fig7", "--set", "m_final=1.7e308", "--set", "m_initial=-8e307"],
     "DOMAIN", "figure 'fig7' parameter 'm_final' must lie in [-8.98847e+307, 8.98847e+307], "
     "got 1.7e+308"),
    (["trap-jump", "--b-nm", "20", "--trap-mhz", "5e-324"], "DOMAIN",
     "frequency 4.94066e-318 Hz is too low: its quantum energy underflows to 0"),
    (["sidebands", "--b-nm", "20", "--trap-mhz", "5e-324"], "DOMAIN",
     "frequency 4.94066e-318 Hz is too low: its quantum energy underflows to 0"),
    (["reproduce", "--figure", "fig7", "--set", "trap_mhz=5e-324"], "DOMAIN",
     "figure 'fig7' dropped every row; at b=10 nm: "
     "frequency 4.94066e-318 Hz is too low: its quantum energy underflows to 0"),
    (["reproduce", "--figure", "fig6", "--grid-start", "1e-300", "--grid-stop", "2e-300",
      "--grid-count", "2"], "NON_FINITE",
     "figure 'fig6' dropped every row; at b=1e-300 nm: E_T(m_gamma=2) is not finite"),
    (["reproduce", "--figure", "fig8a", "--grid-start", "1e-300", "--grid-stop", "2e-300",
      "--grid-count", "2"], "DOMAIN",
     "figure 'fig8a' dropped every row; at b=1e-300 fm: the superkick p_T = l_gamma hbar c / b "
     "at b = 1e-306 nm is too large to square in floating point"),
    (["trap-jump", "--b-nm", "20", "--trap-mhz", "1e308"], "DOMAIN",
     "axial_frequency must be positive and finite, got a non-finite value (an input overflows)"),
    (["trap-jump", "--b-nm", "20", "--mass-mev", "1e308"], "DOMAIN",
     "ion_mass must be positive and finite, got a non-finite value (an input overflows)"),
    (["ion-recoil", "--b-nm", "10", "--mass-mev", "1e308"], "DOMAIN",
     "ion_mass must be positive and finite, got a non-finite value (an input overflows)"),
    (["focus-fraction", "--w0-pm", "50", "--energy-mev", "1e308"], "DOMAIN",
     "energy must be positive and finite, got a non-finite value (an input overflows)"),
    (["pair-threshold", "--pitch-urad", "5", "--pt-mev", "5e-324"], "DOMAIN",
     "impact parameter must be finite, got a non-finite value (an input overflows)"),
], ids=["crossover", "pair-plane-wave", "pair-pt", "pair-b", "pair-pt-overflow",
        "fig2a-span", "fig6-span", "am-transfer-span", "am-transfer-kappa-b", "focus-bessel",
        "fit-tiny-w0", "fit-zero-w0",
        "focus-norm", "focus-b-star", "ion-recoil", "deuteron-wavelength",
        "fig7-m-initial", "fig7-m-final", "trap-jump-spacing", "sidebands-spacing",
        "fig7-spacing", "fig6-tiny-b", "fig8a-tiny-b", "trap-frequency", "trap-mass",
        "ion-recoil-mass", "focus-energy", "pair-tiny-pt"])
def test_overflowing_inputs_are_coded_errors(capsys, argv, code, message):
    # each of these overflowed to inf or NaN inside the computation and ended
    # in a traceback, a NaN/inf or a numpy RuntimeWarning in the error text,
    # a non-finite table or an error naming the wrong input
    status, out, err = run_main(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err == f"twistkick: error [{code}]: {message}\n"
    assert not re.search(r"\b(nan|inf)\b", err, re.IGNORECASE)


@pytest.mark.parametrize("argv", [
    ["recoil-ratio", "--lambda-nm", "1e308", "--b-min-lambda", "1", "--b-max-lambda", "1.5",
     "--m-gamma", "3", "--count", "2"],
    ["reproduce", "--figure", "fig4a", "--set", "lambda_nm=1e308", "--grid-start", "0.1",
     "--grid-stop", "0.5", "--grid-count", "2"],
], ids=["recoil-ratio", "fig4a"])
def test_recoil_ratio_at_huge_wavelength_matches_long_wavelength(capsys, argv):
    # lz_cm lambda and 2 pi b overflow at lambda = 1e308 nm; the ratio does
    # not, and depends on b/lambda alone (theta_k fixed), as at 1e300 nm
    status, out, err = run_main(capsys, *argv)
    assert (status, err) == (0, "")
    reference = [a.replace("1e308", "1e300") for a in argv]
    assert run_main(capsys, *reference) == (0, out, "")
    if argv[0] == "recoil-ratio":
        assert out.split("\n")[1:3] == ["1.00000000000e+00,3.18318743274e-01",
                                         "1.50000000000e+00,2.12220159181e-01"]


def oracle_csv(result) -> str:
    """The per-value CSV formatter the fast path must reproduce."""
    lines = [",".join(f"{name} [{unit}]" for name, unit in result.columns)]
    lines += [",".join(f"{v:.11e}" for v in row) for row in result.rows]
    return "\n".join(lines) + "\n"


def oracle_json(result) -> str:
    """The per-value JSON formatter the fast path must reproduce: indent=2,
    rows rounded through their CSV text."""
    return json.dumps({
        "metadata": result.metadata,
        "columns": [{"name": name, "unit": unit} for name, unit in result.columns],
        "rows": [[float(f"{v:.11e}") for v in row] for row in result.rows],
    }, indent=2) + "\n"


_EDGE_VALUES = (-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan)

# the edges of each class whose shortest repr differs from its 12 CSV digits
# spelled by %g: values rounding to an integer, 1e12 <= |x| < 1e16 and
# subnormals, with the neighbours on either side
_SPELLING_EDGES = (
    0.5, 0.9999999999995, 2.9999999999995, 2.99999999999949, 123456789012.0,
    999999999999.4, 999999999999.5, 1e12, 9999999999999998.0, 1e16, 1.5e16,
    2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0), 1e-310,
    9.99999999999995e-05, 1e-4,
)


def _mixed_table(rng, rows, width):
    """Near-integers (within 1e-16..1e-9 relative) mixed with values
    log-uniform over [1e-320, 1e308], either sign."""
    def value():
        sign = rng.choice((-1.0, 1.0))
        if rng.random() < 0.3:
            n = rng.choice((0, 1, 2, 3, rng.randint(4, 10**15)))
            return sign * n * (1.0 + rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-16, -9))
        return sign * 10.0 ** rng.uniform(-320, 308)
    return [[value() for _ in range(width)] for _ in range(rows)]


def formatter_cases():
    """Every default reproduce table, seeded random tables with the float edge
    values, a 1-column and a 0-row table, the spelling edges with both signs,
    a 2000-row table of near-integers and log-uniform values, and cells that
    are a Python int or a numpy.float64."""
    cases = [run_sweep(SweepSpec(figure)) for figure in FIGURE_IDS]
    rng = random.Random(9)
    for draw in range(200):
        width = rng.randint(1, 8)
        count = rng.choice((0, 1, 2, rng.randint(3, 40)))
        rows = [[rng.choice(_EDGE_VALUES) if rng.random() < 0.3
                 else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
                 for _ in range(width)] for _ in range(count)]
        columns = [(f"c{i}", "1") for i in range(width)]
        cases.append(SweepResult(columns, rows, {"draw": draw}))
    edge = list(_EDGE_VALUES)
    cases.append(SweepResult([("x", "1")], [[v] for v in edge], {"note": '"rows": []'}))
    cases.append(SweepResult([(f"c{i}", "1") for i in range(len(edge))], [edge],
                             {"rows": [], "note": '"rows": []\n}'}))
    cases.append(SweepResult([("x", "nm"), ("y", "eV")], [], {"note": '"rows": []'}))
    edges = [sign * v for v in _SPELLING_EDGES for sign in (1.0, -1.0)]
    cases.append(SweepResult([("x", "1")], [[v] for v in edges], {}))
    cases.append(SweepResult([("x", "1"), ("y", "1")],
                             [edges[i:i + 2] for i in range(0, len(edges), 2)], {}))
    cases.append(SweepResult([(f"c{i}", "1") for i in range(6)], _mixed_table(rng, 2000, 6), {}))
    cases.append(SweepResult([("n", "1"), ("x", "1"), ("y", "1")],
                             [[0, np.float64(2.5), 10**17], [-3, np.float64(-0.0), 7],
                              [123456789012345, np.float64(1e-310), np.float64(3.0)]], {}))
    return cases


def test_formatters_match_per_value_oracle():
    for result in formatter_cases():
        assert result_to_csv(result) == oracle_csv(result)
        assert result_to_json(result) == oracle_json(result)


@pytest.mark.parametrize("numpy_loaded", [True, False], ids=["mask-only", "exact-only"])
def test_json_spellings_agree_across_the_small_table_cut(monkeypatch, numpy_loaded):
    # every table, small ones too, spelled through the numpy mask while numpy
    # is loaded, then through the exact spelling while it is seen as not
    # loaded: the one cut between the two spellings
    cases = formatter_cases()
    if not numpy_loaded:
        monkeypatch.setitem(sys.modules, "numpy", None)
    for result in cases:
        assert result_to_json(result) == oracle_json(result)
