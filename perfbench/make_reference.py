"""Freeze the default figure tables and kernel reference points into
reference.json (every STRIDE-th row and the last row of each table).

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from twistkick.sweeps import FIGURE_IDS, SweepSpec, run_sweep  # noqa: E402

import workloads  # noqa: E402

STRIDE = 10
# the loosest accuracy the code documents (dblquad jump probability,
# golden-section profile peak); see workloads.compare_table
RTOL = 1e-6


def main() -> None:
    figures = {}
    for figure_id in FIGURE_IDS:
        result = run_sweep(SweepSpec(figure_id))
        n = len(result.rows)
        keep = sorted(set(range(0, n, STRIDE)) | {n - 1})
        figures[figure_id] = {
            "columns": [name for name, _ in result.columns],
            "rows": n,
            "sampled": {str(i): result.rows[i] for i in keep},
        }
    payload = {"rtol": RTOL, "stride": STRIDE, "figures": figures,
               "kernels": workloads.reference_kernels()}
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
