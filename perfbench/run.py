"""survcontrast benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload ablate-desk [--seed 0] [--seconds S] [--trace 0] [--smoke]

Workloads are described in ``workloads.py``. The package is imported from
``src/`` beside this directory, never from an installed copy. Each run
builds its inputs from ``--seed`` five times, then repeats the workload's
operation until the next one would end past ``--seconds`` (default: the
``run_seconds`` of ``BENCHMARK.json``; under ``--smoke``, a single
operation), checking the outputs after every operation.

End-to-end metrics (``--trace 0``), medians over the run's operations:

* ``setup_s``: import of survcontrast (once) plus the median input build.
* ``wall_s``: one operation's timed calls.
* ``peak_rss_mb``: peak resident memory of the process.
* ``ok_frac``: share of attempted operations and checks that passed.
* ``ci_integrated``, ``ibs``: the quality report of the workload's
  nll+snce model (training workloads) or of the true hazards (oracle).

The line before the result also carries ``train_samples_per_s`` (training
rows x epochs per second of ``trainer.train``, or of the whole ablate
command), ``eval_rows_per_s`` (rows per second of single
``metrics.evaluate_hazards`` calls) and ``ddc``. They have no bound: the
rates are measured on only part of some workloads and not at all on others,
the evaluation work on the training workloads follows the split's distinct
event bins, and ddc's seed-to-seed spread is wider than any bound allowed.

Per-layer metrics (``--trace 1``) come from operations run with the tracer
of ``tracing.py`` installed, alternating with untraced ones; the median
ratio of each traced operation to the untraced one before it is
``trace.overhead_frac``. Names are ``<module>.<function>.<stat>``. On the
result line a layer's time is its share of the traced operation's wall time
(``self_frac``, ``wait_frac``, ``total_frac``), so that a layer a workload
bypasses reads 0 as a share rather than as a time; the only seconds there
are ``trace.wall_s`` and ``setup.*``. The line before it has the whole table,
in seconds too.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}`` with the metrics ``BENCHMARK.json`` lists for the mode; the
line before it holds every metric measured, and the one before that the
environment. ``perfbench/out/`` gets the same record and, when traced, every
span. Exit codes: 0 all checks passed, 1 a check failed (the result is
still printed), 2 the benchmark could not run (nothing is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# One BLAS thread: the workloads are single closed-loop callers, and a
# second thread on a shared two-core box adds more noise than speed.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_TRACED_OPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="synthetic-data seed (default 0)")
    parser.add_argument("--seconds", type=float, help="measure for this long (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, to check the harness quickly")
    return parser.parse_args(argv)


def blas_record() -> dict:
    """OpenBLAS builds loaded in this process and the threads each will use."""
    record = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return record
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("get_num_threads", "get_config"):
            for prefix, tail in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
                fn = getattr(lib, f"{prefix}{suffix}{tail}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int if suffix == "get_num_threads" else ctypes.c_char_p
                    value = fn()
                    entry[suffix.removeprefix("get_")] = value.decode() if isinstance(value, bytes) else value
                    break
        record[Path(path).name] = entry
    return record


def environment(load_avg) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "load_avg_at_start": list(load_avg),
        "platform": platform.platform(),
    }


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def run(args) -> tuple[dict, dict, int, int, list[str]]:
    load_avg = os.getloadavg()
    started = time.perf_counter()
    package = importlib.import_module("survcontrast")
    importlib.import_module("survcontrast.cli")
    import_s = time.perf_counter() - started
    if Path(package.__file__).resolve().parent != (ROOT / "src" / "survcontrast").resolve():
        raise RuntimeError(f"survcontrast imported from {package.__file__}, not from {ROOT / 'src'}")

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        return _measure(args, workload, tracer, import_s, load_avg, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, tracer, import_s, load_avg, tag):
    input_s, synth_s = [], []
    for _ in range(SETUP_REPEATS):
        if tracer:
            first = tracer.mark()
            tracer.install()
        started = time.perf_counter()
        try:
            workload.inputs = workload.build_inputs()
        finally:
            elapsed = time.perf_counter() - started
            if tracer:
                tracer.uninstall()
        input_s.append(elapsed)
        if tracer:
            self_s = tracer.self_times(first)[0]
            synth_s.append(sum(float(self_s[i]) for i, n in enumerate(tracer.names) if n.startswith("synth.")))

    results, plain, tables, overheads = [], [], [], []
    attempted = failed = 0
    errors: list[str] = []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        if traced:
            first = tracer.mark()
            tracer.install()
        try:
            result = workload.call()
        except Exception:  # an operation that raises counts as failed; stop the run
            attempted += 1
            failed += 1
            errors.append(traceback.format_exc())
            break
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tables.append(tracer.op_table(first, result.wall_s))
            # the untraced operation just before, run under the same machine load
            overheads.append(result.wall_s / plain[-1].wall_s - 1.0)
        else:
            plain.append(result)
        try:
            workload.check(result)
        except Exception:
            result.failed = result.attempted
            result.errors.append(traceback.format_exc())
        results.append(result)
        attempted += result.attempted
        failed += result.failed
        errors += result.errors
        if failed:
            break
        # stop before an operation that would run past the measuring time
        enough = len(tables) >= MIN_TRACED_OPS if tracer else True
        if enough and time.perf_counter() - loop_start + result.wall_s > args.seconds:
            break

    if not failed:
        final = workload.final_checks(results)
        attempted += final.attempted
        failed += final.failed
        errors += final.errors
    if len(results) > 1:
        attempted += 1
        if any(r.quality != results[0].quality for r in results[1:]):
            failed += 1
            errors.append(f"operations on the same inputs disagree: {[r.quality for r in results]}")

    layers = {}
    if tracer:
        layers, mismatches = tracer.combine(tables)
        attempted += 1
        failed += bool(mismatches)
        errors += mismatches
        layers["setup.import_s"] = import_s
        layers["setup.inputs_s"] = median(input_s)
        layers["setup.synth_s"] = median(synth_s)
        layers["trace.overhead_frac"] = median(overheads)
        layers["trace.operations"] = len(tables)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{tag}.npz")

    # end-to-end figures come from untraced operations only
    quality = results[0].quality if results else {}
    measured = {
        "setup_s": import_s + median(input_s),
        "wall_s": median([r.wall_s for r in plain]),
        "train_samples_per_s": median([r.train_samples / r.train_s for r in plain if r.train_s > 0]),
        "eval_rows_per_s": median([rate for r in plain for rate in r.eval_rates]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / max(attempted, 1),
        "ci_integrated": quality.get("ci_integrated", float("nan")),
        "ibs": quality.get("ibs", float("nan")),
        "ddc": quality.get("ddc", float("nan")),
        "operations": len(plain),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(load_avg),
        "end_to_end": measured,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record, (layers if tracer else measured), attempted, failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
        if not (ROOT / "src" / "survcontrast" / "__init__.py").is_file():
            raise FileNotFoundError(f"package source not found under {ROOT / 'src'}")
        sys.path.insert(0, str(ROOT / "src"))
        record, measured, attempted, failed, errors = run(args)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        # a run stopped by a failed check may have measured nothing for some names
        metrics = {m["name"]: {"value": measured.get(m["name"], float("nan")), "unit": m["unit"]} for m in wanted}
    except Exception:
        traceback.print_exc()
        return 2
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    print(json.dumps({"end_to_end": record["end_to_end"], "per_layer": record["per_layer"]}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
