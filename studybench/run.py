"""Benchmark of the ``nipg2d study`` supercloseness sweep.

    python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the unmodified ``cli.run_study`` pipeline of ``src/nipg2d`` on one
workload (see workloads.py and NOTES.md) in this process: one client in a
closed loop, each sweep starting when the previous one has finished, for
about S seconds.  Every cell of every sweep goes through the correctness
check in checks.py.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``sweep_s``: wall time of run_study + format_csv + format_markdown over
  the workload's study invocations, fastest of the run's sweeps (NOTES.md
  says why not the median);
* ``setup_s``: median time from starting a fresh interpreter to nipg2d
  imported and the workload's configs built;
* ``peak_rss_mb``: peak resident set of this process (the setup runs
  happen in child processes and do not count);
* ``ok_frac``: share of attempted cells that converged, raised nothing and
  passed the correctness check (1 - failed_frac).

``--trace 1`` alternates untraced sweeps with sweeps traced by tracer.py
and reports the per-layer metrics, medians over the traced sweeps, and the
tracing overhead (fastest traced over fastest untraced sweep).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
cells that raised or failed the check.  The lines before it print the
metrics by name with units, failed_frac and the environment.  The full
record (environment, sweep times, cells, spans) goes to
``.studybench-out/`` in the repository root.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from studybench import ROOT, SRC  # noqa: E402  (puts SRC on sys.path)

try:
    import nipg2d
    from studybench import checks, tracer, workloads
except ImportError as exc:
    sys.exit(f"studybench: cannot import nipg2d from {SRC}: {exc}")
if not Path(nipg2d.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"studybench: nipg2d was imported from {nipg2d.__file__}, "
             f"not from {SRC}")

import numpy as np  # noqa: E402  (after the path check above)
import scipy  # noqa: E402
from nipg2d import cli  # noqa: E402

OUT_DIR = ROOT / ".studybench-out"

#: at least this many untraced sweeps, even past the time budget
MIN_SWEEPS = 3
#: fresh-interpreter set-up runs per benchmark run (after one warm-up that
#: writes the bytecode caches)
SETUP_RUNS = 5

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}
PER_LAYER_UNITS = {
    **{name: "s" for name in tracer.LAYER_TIMES},
    "mesh.edges": "count", "assembly.nnz": "count", "assembly.dofs": "count",
    "solver.iterations": "count", "solver.not_converged": "count",
    "solver.residual_max": "ratio", "solver.backward_error_max": "ratio",
    "trace.overhead_frac": "fraction",
}

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, {root!r})
from studybench import workloads
workloads.build_configs(workloads.settings({name!r}, {seed!r}))
print(time.monotonic())
"""


def measure_setup(name, seed):
    """Seconds from spawning a fresh interpreter until it has imported
    nipg2d and built the workload's configs, one value per run."""
    code = _SETUP_CODE.format(root=str(ROOT), name=name, seed=seed)
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        if i:  # the first run writes the bytecode caches
            times.append(float(proc.stdout.split()[-1]) - start)
    return times


def _untraced(name):
    """Stands in for Tracer.span when tracing is off."""
    return contextlib.nullcontext()


def timed_sweep(configs, span=_untraced):
    """Run every study invocation of a workload as ``nipg2d study`` does;
    returns (seconds, [(report, csv_text)])."""
    outputs = []
    start = time.perf_counter()
    for config in configs:
        with span("cli.run_study"):
            report = cli.run_study(config)
        with span("cli.format_csv"):
            csv_text = cli.format_csv(report)
        with span("cli.format_markdown"):
            cli.format_markdown(report)
        outputs.append((report, csv_text))
    return time.perf_counter() - start, outputs


def _blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed):
    """What the figures depend on besides the code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nipg2d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, trace, n_max=None, references=None):
    """Run one benchmark run and return its full record; ``record
    ["result"]`` is the JSON object the command prints last."""
    references = (checks.load_references() if references is None
                  else references)
    raw_settings = workloads.settings(name, seed, n_max=n_max)
    configs = workloads.build_configs(raw_settings)
    expected_cells = workloads.cells(configs)

    setup_times = [] if trace else measure_setup(name, seed)
    sweeps = []          # {"traced", "seconds"}
    layer_runs = []      # per traced sweep: tracer.layer_metrics
    spans = []           # per traced sweep: list of span dicts
    problems = {}        # cell -> first problems found in any sweep
    attempted = failed = not_converged = 0
    untraced_e_in = None
    budget_start = time.perf_counter()

    def next_is_traced():
        return bool(trace) and len(sweeps) % 2 == 1

    def keep_going():
        untraced = [s["seconds"] for s in sweeps if not s["traced"]]
        if failed:
            return False
        if len(untraced) < (1 if trace else MIN_SWEEPS) or (
                trace and not layer_runs):
            return True
        typical = statistics.median(s["seconds"] for s in sweeps)
        return time.perf_counter() - budget_start + typical <= seconds

    while keep_going():
        traced = next_is_traced()
        attempted += len(expected_cells)
        run_tracer = tracer.Tracer(expected_cells) if traced else None
        try:
            if traced:
                with run_tracer.installed():
                    elapsed, outputs = timed_sweep(configs, run_tracer.span)
            else:
                elapsed, outputs = timed_sweep(configs)
        except tracer.TracerError:
            raise
        except Exception:  # a cell raised: the whole sweep counts as failed
            traceback.print_exc(file=sys.stderr)
            failed += len(expected_cells)
            for cell in expected_cells:
                problems.setdefault(cell, ["the sweep raised"])
            break
        sweeps.append({"traced": traced, "seconds": elapsed})

        found = checks.check_sweep(name, configs, outputs, references)
        rows = [row for report, _ in outputs for row in report.rows]
        missing = set(expected_cells) - set(found)
        failed += len(missing) + sum(1 for p in found.values() if p)
        not_converged += sum(1 for row in rows if not row.converged
                             and not found.get((row.k, row.eps, row.n)))
        for cell in missing:
            problems.setdefault(cell, ["cell missing from the report"])
        for cell, cell_problems in found.items():
            if cell_problems:
                problems.setdefault(cell, cell_problems)

        e_in = [row.e_in for row in rows]
        if traced:
            run_tracer.check_coverage()
            if untraced_e_in is not None and e_in != untraced_e_in:
                raise tracer.TracerError(
                    "traced e_IN differs from the untraced run")
            layer_runs.append(tracer.layer_metrics(run_tracer.spans))
            spans.append([dataclasses.asdict(span)
                          for span in run_tracer.spans])
        elif untraced_e_in is None:
            untraced_e_in = e_in

    ok_frac = (attempted - failed - not_converged) / attempted
    untraced = [s["seconds"] for s in sweeps if not s["traced"]]
    if trace:
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in layer_runs[0]} if layer_runs else {}
        if layer_runs:
            traced_s = min(s["seconds"] for s in sweeps if s["traced"])
            metrics["trace.overhead_frac"] = traced_s / min(untraced) - 1.0
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "sweep_s": min(untraced, default=None),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": ok_frac,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()
                    if metrics.get(key) is not None},
    }
    return {
        "result": result,
        "workload": name,
        "settings": raw_settings,
        "env": environment(seed),
        "failed_frac": 1.0 - ok_frac,
        "not_converged": not_converged,
        "sweeps": sweeps,
        "setup_s": setup_times,
        "problems": {repr(cell): found for cell, found in problems.items()},
        "spans": spans,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the nipg2d study pipeline on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except tracer.TracerError as exc:
        print(f"studybench: tracing is not trustworthy: {exc}",
              file=sys.stderr)
        return 3

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    result = record["result"]
    sweeps = record["sweeps"]
    print(f"workload {args.workload}, seed {args.seed}: {len(sweeps)} "
          f"sweeps ({sum(s['traced'] for s in sweeps)} traced), "
          f"{result['attempted']} cells attempted, {result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print(f"failed_frac = {record['failed_frac']!r} fraction "
          f"({record['not_converged']} cells not converged)")
    for cell, found in record["problems"].items():
        print(f"cell {cell}: {'; '.join(found)}")
    print(f"record written to {out_path.relative_to(ROOT)}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
