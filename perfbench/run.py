"""Benchmark entry point for kfpls.

    python3 perfbench/run.py --workload circles_fixed500 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``src`` and ``tests`` are put on
the import path, so nothing needs installing. Set-up runs first (imports,
inputs, for ``score_csv`` the model archive, and a short warm-up run; the
input step is repeated and its median taken), then operations run until
their summed time reaches ``--seconds``, each followed by its output
checks. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``setup_s``, ``run_s`` and ``peak_rss_mb``.
* ``--trace 1``: per-layer metrics from spans (see spans.py). Operations
  alternate untraced and traced, in pairs; layer metrics are medians over
  the traced ones and ``trace.overhead_ratio`` is median traced over
  median untraced operation time.

BLAS threads are set before numpy loads: ``PERFBENCH_BLAS_THREADS`` if
given, else ``nproc``, never more than ``nproc``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("circles_fixed500", "peaks_combo", "score_csv")
SETUP_REPEATS = 3
TMP_PARENT = ROOT / ".perfbench_tmp"


def _declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    nproc = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    wanted = int(os.environ.get("PERFBENCH_BLAS_THREADS", nproc))
    return max(1, min(wanted, nproc)), nproc


def _timed_op(wl, state, tracer):
    """One operation, traced when `tracer` is given: (output, seconds)."""
    if tracer is None:
        t0 = time.perf_counter()
        out = wl.op(state)
        return out, time.perf_counter() - t0
    with tracer.installed():
        t0 = time.perf_counter()
        out = wl.op(state)
        return out, time.perf_counter() - t0


def _run_ops(wl, state, seconds, tracer):
    """Operations until their summed time reaches `seconds`; checks after each.

    With a tracer, operations run in pairs, untraced then traced, so every
    run attempts whole rounds.
    """
    timings = {False: [], True: []}
    layers = []
    attempted = failed = wrong = 0
    elapsed = 0.0
    notes = []
    pattern = (None, tracer) if tracer is not None else (None,)
    while elapsed < seconds:
        for op_tracer in pattern:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out, dt = _timed_op(wl, state, op_tracer)
            except Exception as exc:  # an operation that raises counts as failed
                elapsed += time.perf_counter() - t0
                failed += 1
                notes.append(f"op {attempted}: {type(exc).__name__}: {exc}")
                if op_tracer is not None:
                    op_tracer.take()
                continue
            elapsed += dt
            timings[op_tracer is not None].append(dt)
            if op_tracer is not None:
                layers.append(op_tracer.take())
            try:
                problems = wl.check(state, out)
            except Exception as exc:  # a check that cannot run fails its operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                wrong += 1
                notes.append(f"op {attempted}: " + "; ".join(problems))
    return timings, layers, attempted, failed, wrong, notes


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "kfpls" / "__init__.py").is_file():
        print(f"error: no kfpls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _declared_units(args.trace)
    threads, nproc = _blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import numpy as np

    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload]()
    TMP_PARENT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            setup_times = []
            for k in range(SETUP_REPEATS):
                work = os.path.join(tmp, f"setup{k}")
                os.mkdir(work)
                t0 = time.perf_counter()
                state = wl.setup(args.seed, work)
                setup_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            wl.warm(state)
            warm_s = time.perf_counter() - t0
            setup_s = import_s + statistics.median(setup_times) + warm_s

            tracer = spans.Tracer() if args.trace else None
            timings, layers, attempted, failed, wrong, notes = _run_ops(
                wl, state, args.seconds, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()

    untraced = timings[False]
    if args.trace:
        per_op = [spans.layer_metrics(s) for s in layers]
        metrics = {name: statistics.median(m[name] for m in per_op) if per_op else 0.0
                   for name in spans.layer_metrics([])}
        metrics["kpls.archive_bytes"] = state.get("archive_bytes", 0)
        metrics["trace.overhead_ratio"] = (
            statistics.median(timings[True]) / statistics.median(untraced)
            if timings[True] and untraced else 0.0)
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(untraced) if untraced else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_untraced": len(untraced), "ops_traced": len(timings[True]),
        "op_s": [round(t, 6) for t in untraced],
        "setup_repeats_s": [round(t, 6) for t in setup_times],
        "import_s": round(import_s, 6), "warm_s": round(warm_s, 6),
        "blas_threads": threads, "nproc": nproc, "numpy": np.__version__,
        "python": platform.python_version(), "notes": notes,
    }
    print(json.dumps(info))
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
