"""Span tracer that wraps twistkick's public functions from outside ``src/``.

Modules bind each other's functions with ``from .x import name``, so a
wrapper is installed under every ``twistkick.*`` module attribute that holds
the original object, not only in the defining module.  The scipy solvers
(``quad``, ``dblquad``, ``brentq``) are wrapped per importing module, and the
callable passed to them is wrapped again to count integrand/objective
evaluations.

Spans (name, start, end, parent span, operation id) are kept in flat arrays
while tracing and written out once a pass ends; per-name calls, self time
(duration minus the time covered by child spans) and ``TwistkickError``
raises are aggregated on the fly.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import subprocess
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# public functions whose calls become spans, by defining module
TRACED = {
    "special_functions": ("bessel_j", "bessel_j_array", "wigner_small_d",
                          "bessel_first_max"),
    "transitions": ("mean_cm_am", "recoil_ratio", "sublevel_profile",
                    "excitation_probabilities"),
    "beam": ("profile_peak_radius", "bessel_gauss_norm"),
    "trap": ("jump_probability_extended", "sideband_spectrum"),
    "recoil_kinematics": ("focus_fraction", "deuteron_threshold"),
    "pair_production": ("pair_threshold", "crossover_product",
                        "fit_beam_for_threshold_factor"),
    "sweeps": ("run_sweep",),
    "cli": ("build_parser", "main", "result_to_csv", "result_to_json"),
}
# bessel_j argument regimes as special_functions selects them
SERIES_MAX_X = 10.0
HANKEL_MIN_X = 12000.0

IMPORT_MODULES = {
    "twistkick_cli_s": "twistkick.cli",
    "scipy_integrate_s": "scipy.integrate",
    "scipy_optimize_s": "scipy.optimize",
    "scipy_special_s": "scipy.special",
    "numpy_s": "numpy",
}


class Stat:
    __slots__ = ("calls", "self_s", "errors", "evals", "items", "dropped")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.evals = 0  # solver callable evaluations
        self.items = 0  # array elements or table rows handled
        self.dropped = 0  # sweep rows dropped


def _bessel_regime(args, kwargs) -> str:
    x = args[1] if len(args) > 1 else kwargs.get("x", 0.0)
    try:
        ax = abs(float(x))
    except (TypeError, ValueError):
        ax = math.inf
    if ax <= SERIES_MAX_X:
        return "special_functions.bessel_j.series"
    if ax < HANKEL_MIN_X:
        return "special_functions.bessel_j.miller"
    return "special_functions.bessel_j.hankel"


def _array_size(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return int(getattr(x, "size", 1))


def _table_rows(args, kwargs):
    result = args[0] if args else kwargs.get("result")
    return len(result.rows)


class Tracer:
    def __init__(self, error_type):
        self.error_type = error_type
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, child time]

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str):
        idx = len(self.span_start)
        self.span_name.append(self._nid(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _exit(self, frame, error: bool, stat: Stat):
        t1 = perf_counter()
        idx = frame[0]
        self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        stat.calls += 1
        stat.self_s += dur - frame[1]
        stat.errors += error

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code, e.g. one whole operation."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        error = False
        try:
            yield
        except self.error_type:
            error = True
            raise
        finally:
            self._exit(frame, error, self.stats[name])

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording their library calls."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name, fn, label=None, items=None, result_items=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = label(args, kwargs) if label else name
            stat = tracer.stats[span_name]
            if items:
                stat.items += items(args, kwargs)
            frame = tracer._enter(span_name)
            error = False
            try:
                result = fn(*args, **kwargs)
            except tracer.error_type:
                error = True
                raise
            finally:
                tracer._exit(frame, error, stat)
            if result_items:
                result_items(stat, result)
            return result

        return traced

    def _wrap_solver(self, name, solver):
        tracer = self
        traced_solver = self._wrap(name, solver)

        @functools.wraps(solver)
        def counting(func, *args, **kwargs):
            if not tracer.active:
                return solver(func, *args, **kwargs)
            stat = tracer.stats[name]

            def counted(*fargs):
                stat.evals += 1
                return func(*fargs)

            return traced_solver(counted, *args, **kwargs)

        return counting

    def install(self):
        """Patch wrappers into every loaded twistkick module namespace."""
        import scipy.integrate
        import scipy.optimize

        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "twistkick" or name.startswith("twistkick.")}
        replacements: dict[int, object] = {}
        for home, names in TRACED.items():
            module = modules["twistkick." + home]
            for fname in names:
                original = getattr(module, fname)
                qual = f"{home}.{fname}"
                if qual == "special_functions.bessel_j":
                    wrapper = self._wrap(qual, original, label=_bessel_regime)
                elif qual == "special_functions.bessel_j_array":
                    wrapper = self._wrap(qual, original, items=_array_size)
                elif qual in ("cli.result_to_csv", "cli.result_to_json"):
                    wrapper = self._wrap(qual, original, items=_table_rows)
                elif qual == "sweeps.run_sweep":
                    wrapper = self._wrap(qual, original, result_items=_sweep_rows)
                else:
                    wrapper = self._wrap(qual, original)
                replacements[id(original)] = wrapper
        solvers = {id(scipy.integrate.quad), id(scipy.integrate.dblquad),
                   id(scipy.optimize.brentq)}
        for mod_name, module in modules.items():
            short = mod_name.split(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is None and id(value) in solvers:
                    wrapper = self._wrap_solver(f"{short}.{attr}", value)
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self):
        self.active = False
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def counts(self) -> dict[str, tuple[int, int, int, int]]:
        """Every deterministic count, for comparing two traced passes."""
        return {name: (s.calls, s.evals, s.items, s.dropped, s.errors)
                for name, s in sorted(self.stats.items())}

    def write_spans(self, path):
        """Write the recorded spans as gzipped CSV (times in ns from the first)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{i},{names[self.span_name[i]]},"
                         f"{round((self.span_start[i] - t0) * 1e9)},"
                         f"{round((self.span_end[i] - t0) * 1e9)},"
                         f"{self.span_parent[i]},{self.span_op[i]}\n")


def _sweep_rows(stat: Stat, result) -> None:
    stat.items += len(result.rows)
    stat.dropped += result.metadata["dropped_rows"]


def layer_metrics(stats: dict[str, Stat]) -> dict[str, float]:
    """Per-layer metrics named after the modules (zero where unused)."""
    def get(name):
        return stats.get(name) or Stat()

    out: dict[str, float] = {}
    for regime in ("series", "miller", "hankel"):
        s = get(f"special_functions.bessel_j.{regime}")
        out[f"special_functions.bessel_j.{regime}.calls"] = s.calls
        out[f"special_functions.bessel_j.{regime}.self_s"] = s.self_s
    out["special_functions.bessel_j.errors"] = sum(
        get(f"special_functions.bessel_j.{r}").errors
        for r in ("series", "miller", "hankel"))
    s = get("special_functions.bessel_j_array")
    out["special_functions.bessel_j_array.calls"] = s.calls
    out["special_functions.bessel_j_array.elements"] = s.items
    out["special_functions.bessel_j_array.self_s"] = s.self_s
    plain = [f"{home}.{f}" for home, names in TRACED.items()
             if home not in ("sweeps", "cli") for f in names
             if f not in ("bessel_j", "bessel_j_array")]
    for name in plain:
        s = get(name)
        out[f"{name}.calls"] = s.calls
        out[f"{name}.self_s"] = s.self_s
        out[f"{name}.errors"] = s.errors
    for name in ("beam.quad", "trap.dblquad", "recoil_kinematics.quad",
                 "pair_production.brentq"):
        s = get(name)
        out[f"{name}.calls"] = s.calls
        out[f"{name}.evals"] = s.evals
    s = get("sweeps.run_sweep")
    out["sweeps.run_sweep.calls"] = s.calls
    out["sweeps.run_sweep.rows"] = s.items
    out["sweeps.run_sweep.dropped_rows"] = s.dropped
    out["sweeps.run_sweep.self_s"] = s.self_s
    for name in ("cli.build_parser", "cli.main"):
        out[f"{name}.self_s"] = get(name).self_s
    for name in ("cli.result_to_csv", "cli.result_to_json"):
        s = get(name)
        out[f"{name}.us_per_row"] = 1e6 * s.self_s / s.items if s.items else 0.0
    return out


def import_times(python: str, env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Cumulative import time (s) per module from ``python -X importtime``,
    median over ``repeats`` fresh interpreters; 0 for a module not imported."""
    samples: dict[str, list[float]] = {key: [] for key in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import twistkick.cli"],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import of twistkick.cli failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {f"import.{key}": sorted(vals)[len(vals) // 2] for key, vals in samples.items()}
