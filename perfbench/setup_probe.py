"""One set-up, as a fresh interpreter pays it: import ``twistkick.cli`` and,
for the in-process workloads, run the warm-up pass.  run.py times this
script's whole process to measure ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import os
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(root, "src"))

import twistkick.cli  # noqa: E402,F401

if sys.argv[1] != "cli_calls":
    import workloads  # noqa: E402

    workloads.warm_up(sys.argv[1])
