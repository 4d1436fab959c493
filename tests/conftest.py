"""Test-session set-up.  Several CLI tests start ``python -m twistkick`` in a
subprocess; prepending the tested package's ``src`` directory to PYTHONPATH
makes those subprocesses import the same package as the tests, also when it
is not installed."""

import os
from pathlib import Path

import twistkick

_SRC = str(Path(twistkick.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
