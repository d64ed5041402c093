"""Reference figures for the README: every workload over seeds 1-10, plus one traced run each.

    python3 perfbench/figures.py [workload ...] > figures.md

Run from the root of a source tree, with nothing else busy on the machine;
takes about 20 minutes.  Prints Markdown: per workload the median and
quartiles of each end-to-end metric, each model's log evidence with its
run spread and reference, and the per-layer metrics of a traced run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def run(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    notes = [json.loads(line[5:]) for line in proc.stderr.splitlines() if line.startswith("NOTE ")]
    return json.loads(proc.stdout.splitlines()[-1]), notes


def fmt(v):
    return f"{v:.4g}" if v is not None else ""


def main():
    bench = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = defaultdict(list)
        by_model = defaultdict(list)
        attempted = failed = 0
        correct = True
        for seed in SEEDS:
            result, notes = run(workload, seed, 0, seconds)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[(name, m["unit"])].append(m["value"])
            for note in notes:
                by_model[note["model"].split(" pair ")[0]].append(note)
        print(f"### {workload}\n")
        print(f"Seeds {SEEDS.start}-{SEEDS.stop - 1}, {len(SEEDS)} runs; all correct: {correct}; "
              f"operations attempted {attempted}, failed {failed}.\n")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |\n|---|---|---|---|---|---|")
        for (name, unit), v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"| {name} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")
        print("\n| model | runs noted | mean log evidence | mean run sd | mean (estimate - reference) "
              "| max abs (estimate - reference) |\n|---|---|---|---|---|---|")
        for model, notes in by_model.items():
            est = [n["log_evidence"] for n in notes]
            sds = [n["run_sd"] for n in notes if n["run_sd"] is not None]
            diffs = [n["log_evidence"] - n["reference"] for n in notes if n["reference"] is not None]
            print(f"| {model} | {len(notes)} | {statistics.mean(est):.2f} | "
                  f"{fmt(statistics.mean(sds)) if sds else 'n/a'} | "
                  f"{fmt(statistics.mean(diffs)) if diffs else ''} | "
                  f"{fmt(max(abs(d) for d in diffs)) if diffs else ''} |")
        traced, _ = run(workload, SEEDS.start, 1, seconds)
        print(f"\nTraced run, seed {SEEDS.start} (correct: {traced['correct']}), per round:\n")
        print("| metric | unit | value |\n|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| {name} | {m['unit']} | {m['value']:.4g} |")
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
