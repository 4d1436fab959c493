"""Run CLI calls in a fresh interpreter, to see what they import."""

import ast
import subprocess
import sys


def run_cli_in_child(argvs, block=(), report=(), preload=()):
    """Run ``twistkick.cli.main`` on each of ``argvs`` in a child interpreter
    and return ``(imported, runs, loaded)``.

    The child imports the modules of ``preload``, makes each module of
    ``block`` fail to import, imports ``twistkick.cli`` and runs each argv
    with stdout and stderr captured: ``runs`` holds ``(status, stdout,
    stderr)`` per argv.  ``imported`` lists the modules that importing the
    CLI loaded, and ``loaded`` those that the import and all runs loaded,
    each beyond ``preload`` and restricted to the modules named in
    ``report`` and their submodules.  The child prints its answer by
    ``repr``, so it loads no ``json`` of its own.
    """
    code = (
        "import contextlib, io, sys\n"
        f"for name in {list(preload)!r}:\n"
        "    __import__(name)\n"
        "before = {m for m, v in sys.modules.items() if v is not None}\n"
        f"sys.modules.update(dict.fromkeys({list(block)!r}))\n"
        "def new():\n"
        "    return sorted(m for m, v in sys.modules.items() if v is not None\n"
        "                  and m not in before and any(\n"
        f"                      m == r or m.startswith(r + '.') for r in {list(report)!r}))\n"
        "import twistkick.cli\n"
        "imported = new()\n"
        "def run(argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            status = twistkick.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            status = exc.code\n"
        "    return status, out.getvalue(), err.getvalue()\n"
        f"runs = [run(argv) for argv in {[list(argv) for argv in argvs]!r}]\n"
        "print(repr((imported, runs, new())))\n"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return ast.literal_eval(cp.stdout)
