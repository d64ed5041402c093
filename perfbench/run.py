"""Benchmark of mlevidence: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload sim-multilevel --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the package is imported from
``src/``).  Set-up is timed apart: importing the package (median of three
fresh interpreters) plus drawing the inputs and writing them (median of
three).  Then whole rounds of the workload run until the next one would
end past ``--seconds``; metrics are medians over rounds.  Outputs are
checked against references computed apart from the package (see
``reference.py``) after the timed part.

With ``--trace 1`` rounds alternate untraced and traced (wrappers from
``spans.py``), the traced outputs must equal the untraced ones byte for
byte, and the per-layer metrics are printed instead.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread, so that timings do not depend on how many cores other
# processes leave free.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_import():
    """Seconds for a fresh interpreter to import the whole package (CLI included)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mlevidence.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, **BLAS_ENV})
    return perf_counter() - t0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mlevidence" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import_s = statistics.median(time_import() for _ in range(SETUP_REPEATS))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run(args, workloads.WORKLOADS[args.workload](args.seed, workdir), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args, workload, import_s):
    """Set up, run the rounds, check, and print the JSON line."""
    from spans import Tracer, install_layers, layer_metrics
    from workloads import Ops

    make_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.make_inputs()
        make_s.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(make_s)

    tracer = Tracer()
    plain, traced, failures = [], [], []
    first_outputs = None
    start = perf_counter()
    while True:
        trace_this = args.trace == 1 and len(plain) > len(traced)
        if trace_this:
            install_layers(tracer)
        ops = Ops()
        try:
            outputs = workload.round(ops)
        finally:
            tracer.uninstall()
        (traced if trace_this else plain).append(ops)
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            differ = sorted(k for k in outputs if outputs[k] != first_outputs.get(k))
            failures.append(f"{'traced' if trace_this else 'repeated'} round outputs differ: {differ}")
        elapsed = perf_counter() - start
        per_round = elapsed / (len(plain) + len(traced))
        enough = args.trace == 0 or traced
        if enough and elapsed + per_round > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    attempted = sum(o.attempted for o in rounds)
    failed = sum(o.failed for o in rounds)
    for o in rounds:
        failures += o.errors
    if failed == 0:
        failures += workload.check()
    for line in failures:
        print("CHECK FAILED:", line, file=sys.stderr)
    for note in getattr(workload, "notes", []):
        print("NOTE", json.dumps(note), file=sys.stderr)

    def median(key, ops_list):
        return statistics.median(o.times[key] for o in ops_list)

    if args.trace == 0:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median("wall", plain), "unit": "s"},
            "evidence_s": {"value": median("evidence", plain), "unit": "s"},
            "posterior_s": {"value": median("posterior", plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = median("wall", traced) / median("wall", plain)
        metrics = layer_metrics(tracer, len(traced), overhead)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
