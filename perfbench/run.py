"""twistkick benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload figure_tables --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, in reference seconds (see
speed.py); ``--trace 1`` runs the first rounds untraced and then twice
traced, and reports per-layer metrics in measured seconds.  ``--workload
all`` runs the three workloads one after another.  The last line of stdout
is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric with its unit and sample count, the machine, and each
failure.  Results and spans are also written to ``.perfbench_out/``.

The benchmark runs the checkout's ``src/`` (the package need not be
installed) and exits 2 without a result when there is none.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
# calibration kernel samples before each set-up and after the last
SETUP_KERNEL_SAMPLES = 4
IMPORT_REPEATS = 3
# rounds per traced run: the same rounds in every traced pass, so that counts
# repeat exactly between passes and runs
TRACE_ROUNDS = {"cli_calls": 1, "figure_tables": 5, "heavy_kernels": 1}
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TWISTKICK_MAX_WORKERS"] = "1"
    return env


def machine_info(twistkick_file: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "twistkick_file": twistkick_file}


def run_ops(ops, tracer, workloads, calibration=None):
    """Execute ops in a closed loop; only ``execute`` is inside the timing.
    With ``calibration`` (a speed.Speed), the calibration kernel is timed
    between operations."""
    outcomes = []
    for i, op in enumerate(ops):
        if calibration is not None:
            calibration.sample_if_due()
        tracer.op_id = i
        exc = output = None
        t0 = perf_counter()
        try:
            with tracer.span("op." + op.kind):
                output = op.execute()
        except Exception as e:  # every failure is counted and listed
            exc = e
        latency = perf_counter() - t0
        rows = 0
        with tracer.paused():
            if exc is None:
                try:
                    rows = op.judge(output)
                except Exception as e:
                    exc = e
        failure = None
        if exc is not None:
            failure = f"{op.kind}: {workloads.describe(exc)} [{op.detail}]"
        outcomes.append(workloads.Outcome(latency, rows, failure, t0))
    return outcomes


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


def setup_times(workload: str) -> list[tuple[float, float]]:
    """(measured, reference) seconds of each fresh set-up."""
    calibration = speed.Speed()
    intervals = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_KERNEL_SAMPLES):
            calibration.sample()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=170)
        intervals.append((t0, perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    for _ in range(SETUP_KERNEL_SAMPLES):
        calibration.sample()
    return [(t1 - t0, (t1 - t0) * calibration.scale(t0, t1)) for t0, t1 in intervals]


def measure(name, seed, seconds, workloads, tracing):
    """End-to-end run: whole rounds until ``seconds`` of wall time have passed."""
    setup = setup_times(name)
    workloads.warm_up(name)
    tracer = tracing.Tracer(workloads.TwistkickError)
    checks = run_ops(workloads.reference_ops(name), tracer, workloads)
    env = child_env()
    wl = workloads.Workload(name, seed, executor=lambda argv: workloads.cli_subprocess(
        argv, sys.executable, env, ROOT))
    calibration = speed.Speed()
    outcomes, rounds = [], 0
    stop_at = perf_counter() + seconds
    for ops in wl.rounds():
        outcomes += run_ops(ops, tracer, workloads, calibration)
        rounds += 1
        if perf_counter() >= stop_at:
            break
    calibration.sample()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli_calls"
                               else resource.RUSAGE_SELF)
    ok = sum(o.failure is None for o in outcomes)
    rows = sum(o.rows for o in outcomes)
    # each operation's time in reference seconds (see speed.py), and as measured
    latencies = [o.latency * calibration.scale(o.start, o.start + o.latency)
                 for o in outcomes]
    measured = [o.latency for o in outcomes]
    elapsed, measured_elapsed = sum(latencies), sum(measured)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "ops_per_s": ok / elapsed,
        "rows_per_s": rows / elapsed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups: "
                   + ", ".join(f"{ref:.3f}" for _, ref in setup) + "; measured "
                   + ", ".join(f"{raw:.3f}" for raw, _ in setup),
        "op_p50_s": f"n={len(latencies)}; {statistics.median(measured):.6g} measured",
        "op_tail_s": f"p{tail_pct:.1f}, n={len(latencies)}; {tail(measured)[0]:.6g} measured",
        "ops_per_s": f"{ok} ops in {elapsed:.3f} s of operation time ({measured_elapsed:.3f} "
                     f"measured), {rounds} rounds, {len(calibration.samples)} kernel samples",
        "rows_per_s": f"{rows} rows; {rows / measured_elapsed:.6g} measured",
        "peak_rss_mb": "largest child" if name == "cli_calls" else "benchmark process",
    }
    units = dict(END_TO_END_UNITS)
    return metrics, units, notes, checks + outcomes


def trace(name, seed, workloads, tracing):
    """Per-layer run: the first rounds untraced, then twice traced."""
    import_metrics = tracing.import_times(sys.executable, child_env(), ROOT, IMPORT_REPEATS)
    workloads.warm_up(name)
    tracer = tracing.Tracer(workloads.TwistkickError)
    checks = run_ops(workloads.reference_ops(name), tracer, workloads)
    wl = workloads.Workload(name, seed, executor=workloads.cli_in_process)
    ops = [op for ops in itertools.islice(wl.rounds(), TRACE_ROUNDS[name]) for op in ops]

    untraced = run_ops(ops, tracer, workloads)
    passes = []
    for k in range(2):
        tracer.reset()
        tracer.install()
        try:
            outcomes = run_ops(ops, tracer, workloads)
        finally:
            tracer.uninstall()
        passes.append((outcomes, tracer.stats, tracer.counts()))
        if k == 0:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.csv.gz"))
    (first, stats, counts), (second, _, counts2) = passes
    all_outcomes = checks + untraced + first + second
    if counts != counts2:
        differing = sorted(k for k in set(counts) | set(counts2)
                           if counts.get(k) != counts2.get(k))
        all_outcomes.append(workloads.Outcome(
            0.0, 0, "trace: call/eval counts differ between traced passes: "
            + ", ".join(differing)))
    plain = sum(o.latency for o in untraced)
    traced = sum(o.latency for o in first)
    metrics = dict(import_metrics)
    metrics.update(tracing.layer_metrics(stats))
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    units = {k: unit_of(k) for k in metrics}
    notes = {"trace.overhead_frac": f"traced {traced:.3f} s / untraced {plain:.3f} s - 1, "
                                    f"{len(ops)} ops"}
    return metrics, units, notes, all_outcomes


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".us_per_row"):
        return "us"
    if metric == "trace.overhead_frac":
        return "1"
    return "count"


def run_workload(name, seed, seconds, trace_flag, info, workloads, tracing):
    if trace_flag:
        metrics, units, notes, outcomes = trace(name, seed, workloads, tracing)
    else:
        metrics, units, notes, outcomes = measure(name, seed, seconds, workloads, tracing)
    failures = [o.failure for o in outcomes if o.failure]
    attempted = len(outcomes)
    print(f"# workload={name} seed={seed} seconds={seconds} trace={trace_flag}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    for key, value in metrics.items():
        note = notes.get(key, "")
        print(f"{key:48s} {value:>14.6g} {units[key]:6s} {note}")
    print(f"{'error_rate':48s} {len(failures) / attempted:>14.6g} {'1':6s} "
          f"{len(failures)} of {attempted} operations failed")
    for failure in failures:
        print(f"  failure: {failure}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace_flag}.json"), "w",
              encoding="ascii") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace_flag,
                   "machine": info, "notes": notes, "failures": failures, **result}, fh,
                  indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_calls", "figure_tables", "heavy_kernels", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twistkick", "__init__.py")):
        print(f"perfbench: no twistkick sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["TWISTKICK_MAX_WORKERS"] = "1"
    # compile .pyc files once so that compiling never lands in a timing
    compileall.compile_dir(os.path.join(SRC, "twistkick"), quiet=1)
    sys.path.insert(0, SRC)
    import twistkick

    twistkick_file = os.path.realpath(twistkick.__file__)
    if not twistkick_file.startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: imported twistkick from {twistkick_file}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    info = machine_info(twistkick_file)
    info["pinned_cpu"] = speed.pin_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace, info, workloads,
                            tracing) for name in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
