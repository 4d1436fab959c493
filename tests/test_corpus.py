"""Output-parity corpus: a seeded list of CLI argv, each run through
``cli.main`` in process and compared with the exit status and the SHA-256 of
stdout and of stderr frozen for it in ``corpus.json``.

The list holds the documented error argv, seeded draws of every subcommand
across its flags' ranges in CSV and JSON, ``reproduce`` of every figure by
default and with seeded ``--set`` and ``--grid-*`` draws, and a fuzz of every
flag and every figure parameter: the ends of the range it feeds (and their
neighbours), non-finite and extreme floats, integers of 20-400 digits, text,
and log-uniform draws around the default.  A child with numpy blocked runs a
subsample and must match the same entries.  A mismatch names the argv.

Byte identity holds for one machine and numpy build: the file records the
machine it was frozen on, and on another one a hash mismatch is reported as
a warning, not as a failure.  An exit status other than the frozen one, and
an entry that ends in a traceback (a status reading ``uncaught ...``), fail
on every machine.  Re-freezing is a deliberate act; list the entries that
changed with the change that needs it:

    PYTHONPATH=src python tests/test_corpus.py --freeze
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from twistkick import cli, sweeps

CORPUS = Path(__file__).with_name("corpus.json")
INF = math.inf

# documented coded answers (the benchmark's CLI_ERRORS, restated)
ERRORS = (
    ["ion-recoil", "--b-nm", "0"],
    ["pair-threshold", "--pitch-urad", "5", "--b-fm", "0"],
    ["crossover", "--l-gamma", "0"],
    ["beam-fit", "--factor", "1"],
    ["sidebands", "--b-nm", "10", "--n-max", "1"],
    ["trap-jump", "--b-nm", "10", "--sigma-nm", "0"],
    ["deuteron-threshold", "--m-gamma", "1", "--internal-am", "2", "--b-fm", "89"],
    ["focus-fraction", "--w0-pm", "50", "--ratio-cut", "0"],
    ["am-transfer", "--multipole-j", "4"],
    ["reproduce", "--figure", "fig6", "--grid-count", "10"],
    ["reproduce", "--figure", "fig6", "--set", "no_such_key=1"],
)

# each flag: its kind, default text and the ends of the range of what it
# feeds (None where the range is unbounded there)
_BEAM = {"--lambda-nm": (float, "397", 0.0, None), "--m-gamma": (int, "2", None, None),
         "--lambda-spin": (int, "1", -1, 1), "--pitch-rad": (float, "0.1", 0.0, 0.5 * math.pi)}
_TRAP = {"--nu": (int, "1", None, None), "--b-nm": (float, "10", 0.0, None),
         "--sigma-nm": (float, "10", 0.0, None), "--trap-mhz": (float, "1.5", 0.0, None),
         "--mass-mev": (float, "37214.7", 0.0, None)}
_AM = {"--multipole-j": (int, "1", 1, 3), **_BEAM, "--b-min-lambda": (float, "0.001", 0.0, None),
       "--b-max-lambda": (float, "1.5", 0.0, None), "--count": (int, "30", 1, None)}
# each fuzzed command: its required argv and its flags
COMMANDS = {
    "am-transfer": ([], _AM),
    "recoil-ratio": ([], _AM),
    "ion-recoil": (["--b-nm", "10"], {**_BEAM, "--b-nm": (float, "10", 0.0, None),
                                       "--mass-mev": (float, "37214.7", 0.0, None)}),
    "trap-jump": (["--b-nm", "10"], {**_BEAM, **_TRAP}),
    "sidebands": (["--b-nm", "10"], {**_BEAM, **_TRAP, "--n-max": (int, "8", 2, 170)}),
    "deuteron-threshold": (["--b-fm", "89"], {
        "--m-gamma": (int, "2", None, None), "--internal-am": (int, "1", None, None),
        "--b-fm": (float, "89", 0.0, None), "--lambda-fm": (float, "559", 0.0, None),
        "--pitch-rad": (float, "0.1", 0.0, 0.5 * math.pi)}),
    "focus-fraction": (["--w0-pm", "50"], {
        "--w0-pm": (float, "50", 0.0, None), "--ratio-cut": (float, "0.1", 0.0, None),
        "--delta-l": (int, "1", 1, None), "--energy-mev": (float, "2.22452", 0.0, None),
        "--pitch-rad": (float, "0.1", 0.0, 0.5 * math.pi)}),
    "pair-threshold": (["--pitch-urad", "5", "--b-fm", "200"], {
        "--omega2-ev": (float, "2.5", 0.0, None),
        "--pitch-urad": (float, "5", 0.0, 0.5e6 * math.pi),
        "--b-fm": (float, "200", 0.0, None), "--l-gamma": (int, "1", 0, None)}),
    "pair-threshold --pt-mev": (["--pitch-urad", "5", "--pt-mev", "1"], {
        "--pt-mev": (float, "1", 0.0, None), "--l-gamma": (int, "1", 0, None)}),
    "crossover": ([], {"--omega2-ev": (float, "2.5", 0.0, None),
                       "--l-gamma": (int, "1", 1, None)}),
    "beam-fit": ([], {"--factor": (float, "10", 1.0, None), "--omega2-ev": (float, "2.5", 0.0, None),
                      "--l-gamma": (int, "1", 1, None), "--w0-over-b": (float, "2", 0.0, None)}),
    "reproduce": (["--figure", "fig6", "--grid-start", "1", "--grid-stop", "100",
                   "--grid-count", "5"], {
        "--grid-start": (float, "1", 0.0, None), "--grid-stop": (float, "100", 0.0, None),
        "--grid-count": (int, "5", 2, None)}),
}
_FLOAT_EDGES = ("nan", "inf", "-inf", "1.7e308", "-1.7e308", "1e300", "1e-300", "5e-324",
                "-0.0", "-1", "abc", "1e400")
_INT_EDGES = ("0", "-1", "7", "-65", "1.5", "abc", "1e3")


def _big_int(rng) -> str:
    digits = rng.randint(20, 400)
    return rng.choice(("", "-")) + str(rng.randint(10 ** (digits - 1), 10**digits - 1))


def _end_values(kind, low, high) -> list[str]:
    # each finite end and its neighbours
    values = []
    for end in (low, high):
        if end is None:
            continue
        if kind is int:
            values += [str(end - 1), str(end), str(end + 1)]
        else:
            values += [repr(math.nextafter(end, -INF)), repr(float(end)),
                       repr(math.nextafter(end, INF))]
    return values


def _fuzz(rng) -> list[list[str]]:
    argvs = []
    for name, (required, flags) in COMMANDS.items():
        command = name.split()[0]
        for flag, (kind, default, low, high) in flags.items():
            values = _end_values(kind, low, high) + [_big_int(rng) for _ in range(2)]
            if kind is float:
                values += list(_FLOAT_EDGES)
                values += [repr(float(default) * 10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(2)]
            else:
                values += list(_INT_EDGES)
            for value in values:
                # the flag's own value replaces a required one
                base = [a for i, a in enumerate(required)
                        if flag not in (a, required[i - 1] if i else None)]
                argvs.append([command, *base, f"{flag}={value}"])
    return argvs


def _figure_runs(rng) -> list[list[str]]:
    argvs = []
    for figure_id in sweeps.FIGURE_IDS:
        figure = sweeps._REGISTRY[figure_id]
        argvs += [["reproduce", "--figure", figure_id, "--format", form]
                  for form in ("csv", "json")]
        small = [] if figure.grid is None else [
            "--grid-start", repr(float(figure.grid.start)),
            "--grid-stop", repr(float(figure.grid.stop)), "--grid-count", "5",
            "--grid-scale", figure.grid.scale]
        # every parameter at edge values, on a small grid
        for key, default in figure.defaults.items():
            values = ["0", "-1", "2", "1.5", "nan", "inf", "-inf", "1e-300", "1e300",
                      "1.7e308", _big_int(rng), "abc", repr(default)]
            argvs += [["reproduce", "--figure", figure_id, *small, "--set", f"{key}={value}"]
                      for value in values]
        # seeded draws of every parameter and of the grid
        for _ in range(3):
            draw = [f"{key}={default * rng.uniform(0.5, 1.5)!r}" if type(default) is float
                    else f"{key}={default}" for key, default in figure.defaults.items()]
            argv = ["reproduce", "--figure", figure_id, "--format", rng.choice(("csv", "json"))]
            for item in draw:
                argv += ["--set", item]
            if figure.grid is not None:
                start, stop = figure.grid.start, figure.grid.stop
                argv += ["--grid-start", repr(start * rng.uniform(0.5, 2.0)),
                         "--grid-stop", repr(stop * rng.uniform(0.5, 2.0)),
                         "--grid-count", str(rng.randint(2, 60)),
                         "--grid-scale", rng.choice(("lin", "log", "loglin"))]
            argvs.append(argv)
    return argvs


def _decks(rng, count) -> list[list[str]]:
    # seeded draws of every subcommand over its flags' working ranges
    def beam():
        return ["--lambda-nm", repr(rng.uniform(350.0, 1000.0)),
                "--m-gamma", str(rng.randint(-3, 3)), "--lambda-spin", rng.choice(("-1", "1")),
                "--pitch-rad", repr(rng.uniform(0.01, 0.3))]

    def trap():
        return ["--nu", str(rng.randint(-2, 2)), "--b-nm", repr(rng.uniform(1.0, 40.0)),
                "--sigma-nm", repr(rng.uniform(4.0, 20.0)),
                "--trap-mhz", repr(rng.uniform(0.5, 5.0))]

    def logu(lo, hi):
        return repr(lo * (hi / lo) ** rng.random())

    argvs = []
    for _ in range(count):
        deck = [
            [name, "--multipole-j", str(rng.randint(1, 3)), *beam(),
             "--b-min-lambda", logu(1e-3, 0.1), "--b-max-lambda", repr(rng.uniform(0.5, 3.0)),
             "--count", str(rng.randint(1, 40))] for name in ("am-transfer", "recoil-ratio")]
        deck += [
            ["ion-recoil", *beam(), "--b-nm", logu(1.0, 100.0)],
            ["trap-jump", *beam(), *trap()],
            ["sidebands", *beam(), *trap(), "--n-max", str(rng.randint(2, 16))],
            ["pair-threshold", "--omega2-ev", logu(0.5, 10.0), "--pitch-urad", logu(0.5, 50.0),
             "--b-fm", logu(20.0, 2000.0), "--l-gamma", str(rng.randint(1, 3))],
            ["pair-threshold", "--omega2-ev", logu(0.5, 10.0), "--pitch-urad", logu(0.5, 50.0),
             "--pt-mev", logu(0.1, 10.0), "--l-gamma", str(rng.randint(1, 3))],
            ["deuteron-threshold", "--m-gamma", str(rng.randint(1, 3)),
             "--internal-am", str(rng.randint(1, 3)), "--b-fm", logu(20.0, 500.0),
             "--lambda-fm", repr(rng.uniform(300.0, 1000.0)),
             "--pitch-rad", repr(rng.uniform(0.01, 0.3))],
            ["focus-fraction", "--w0-pm", logu(5.0, 100.0), "--ratio-cut", logu(0.01, 1.0),
             "--delta-l", str(rng.randint(1, 3)), "--pitch-rad", repr(rng.uniform(0.05, 0.2))],
            ["crossover", "--omega2-ev", logu(0.5, 10.0), "--l-gamma", str(rng.randint(1, 3))],
            ["beam-fit", "--factor", logu(2.0, 100.0), "--omega2-ev", logu(0.5, 10.0),
             "--l-gamma", str(rng.randint(1, 2)), "--w0-over-b", repr(rng.uniform(1.5, 2.5))],
        ]
        argvs += [argv + ["--format", rng.choice(("csv", "json"))] for argv in deck]
    return argvs


def corpus_argvs() -> list[list[str]]:
    """The corpus, in a fixed order."""
    rng = random.Random(2710)
    return ([list(argv) for argv in ERRORS] + [argv + ["--format", "json"] for argv in ERRORS]
            + _decks(rng, 8) + _figure_runs(rng) + _fuzz(rng))


def _digest(text: str) -> str:
    # the first 16 hex digits of the SHA-256 of the text's UTF-8 bytes
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _parser(command=None, build=cli.build_parser):
    # one parser per command serves every call: parsing does not change it
    return build(command)


def run_in_process(argv) -> list:
    """``[status, stdout digest, stderr digest]`` of ``cli.main(argv)``, with
    the warning filters of a fresh interpreter and a terminal 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback, named by its type
            status = f"uncaught {type(exc).__name__}"
    return [status, _digest(out.getvalue()), _digest(err.getvalue())]


def machine() -> dict:
    """What byte identity depends on: the interpreter, numpy and the C library."""
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "numpy": np.__version__, "machine": platform.machine(),
            "libc": "-".join(platform.libc_ver())}


def _frozen():
    data = json.loads(CORPUS.read_text())
    return data["machine"], data["entries"]


def _report(entries, results, frozen_machine) -> None:
    # a traceback or another exit status fails on every machine; a hash
    # difference fails on the machine the corpus was frozen on and is a
    # warning elsewhere
    statuses = [f"{argv}: frozen status {status}, got {got[0]}"
                for (argv, status, *_), got in zip(entries, results)
                if got[0] != status or str(got[0]).startswith("uncaught")]
    if statuses:
        pytest.fail(f"{len(statuses)} corpus entries end in another exit status or a "
                    "traceback:\n" + "\n".join(statuses[:40]))
    faults = [f"{argv}: frozen {frozen}, got {got}"
              for (argv, *frozen), got in zip(entries, results) if frozen != got]
    if not faults:
        return
    text = f"{len(faults)} corpus entries differ:\n" + "\n".join(faults[:40])
    if frozen_machine == machine():
        pytest.fail(text)
    warnings.warn(f"frozen on {frozen_machine}, run on {machine()}; {text}")


@pytest.fixture
def terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "build_parser", _parser)


def test_corpus_argv_list_is_the_frozen_one():
    _, entries = _frozen()
    assert [entry[0] for entry in entries] == corpus_argvs()


def test_corpus_outputs_are_the_frozen_ones(terminal):
    frozen_machine, entries = _frozen()
    results = [run_in_process(argv) for argv, *_ in entries]
    _report(entries, results, frozen_machine)


# every SUBSAMPLE-th entry runs in the child; one whose run imports numpy
# (a grid or a quadrature beyond its float limit) is left out there
SUBSAMPLE = 9

_CHILD = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None
import twistkick.cli as cli
def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]
results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except ImportError as exc:
            if exc.name != "numpy":
                raise
            status = None
        except Exception as exc:
            status = f"uncaught {type(exc).__name__}"
    results.append(None if status is None else
                   [status, digest(out.getvalue()), digest(err.getvalue())])
print(json.dumps(results))
"""


def test_corpus_without_numpy_matches_the_same_entries():
    frozen_machine, entries = _frozen()
    sample = entries[::SUBSAMPLE]
    cp = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps([e[0] for e in sample]),
                        capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"})
    assert cp.returncode == 0, cp.stderr
    results = json.loads(cp.stdout)
    ran = [(entry, got) for entry, got in zip(sample, results) if got is not None]
    assert len(ran) >= 0.9 * len(sample)
    _report(*zip(*ran), frozen_machine)


def test_a_traceback_fails_on_every_machine():
    # off the frozen machine a hash mismatch warns, a traceback fails
    other = {**machine(), "python": "0.0"}
    entry = [["crossover"], 0, "0" * 16, "0" * 16]
    with pytest.warns(UserWarning, match="1 corpus entries differ"):
        _report([entry], [[0, "1" * 16, "0" * 16]], other)
    with pytest.raises(pytest.fail.Exception, match="uncaught TypeError"):
        _report([entry], [["uncaught TypeError", "0" * 16, "0" * 16]], other)


def test_an_exit_status_change_fails_on_every_machine():
    # off the frozen machine a hash change warns, a status change fails
    other = {**machine(), "python": "0.0"}
    entry = [["crossover"], 0, "0" * 16, "0" * 16]
    with pytest.warns(UserWarning, match="1 corpus entries differ"):
        _report([entry], [[0, "0" * 16, "1" * 16]], other)
    with pytest.raises(pytest.fail.Exception, match="frozen status 0, got 2"):
        _report([entry], [[2, "0" * 16, "0" * 16]], other)


def freeze() -> None:
    """Write ``corpus.json`` from this tree, one entry a line."""
    os.environ["COLUMNS"] = "80"
    cli.build_parser = _parser
    lines = [json.dumps([argv, *run_in_process(argv)]) for argv in corpus_argvs()]
    CORPUS.write_text('{"machine": ' + json.dumps(machine()) + ',\n "entries": [\n'
                      + ",\n".join(lines) + "\n]}\n")
    print(f"froze {len(lines)} entries into {CORPUS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_corpus.py --freeze")
    freeze()
