#!/usr/bin/env python3
"""Spread mode: run each workload N times with different seeds and print
the median and interquartile range of every metric.

Run from the repository root:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads codec_batch --sets 2
    python3 perfbench/spread.py --runs 3 --trace 1

The benchmark command, run length, workloads and bounds come from
BENCHMARK.json. `--bin` runs an already built perfbench binary instead of
the command (skips the cargo freshness check). For end-to-end metrics the
spread (IQR / median, quartiles as `statistics.quantiles(n=4)` gives
them) is checked against a third of the metric's bound, and with
`--sets 2` the second set's median against the first's.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin", default=None)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = [opts.bin] if opts.bin else bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")

    steady = True
    for w in workloads:
        sets = []
        for s in range(opts.sets):
            runs = [run_once(cmd, w, opts.seed_base + i, seconds, opts.trace)
                    for i in range(opts.runs)]
            sets.append({m: [r[m] for r in runs] for m in runs[0]})
        print(f"\n{w}: {opts.runs} runs x {opts.sets} set(s), {seconds} s each")
        print(f"  {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
        for m in sets[0]:
            med, q1, q3, spread = summarize(sets[0][m])
            bound = bounds.get(m)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag, steady = " SPREAD", False
            for later in sets[1:]:
                med2 = statistics.median(later[m])
                change = abs(med2 / med - 1) if med else float("inf")
                if bound is not None and change > bound:
                    flag, steady = f"{flag} MEDIAN{change:+.3f}", False
                else:
                    flag += f" (set2 {change:+.3f})"
            shown = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {m:<40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {shown}{flag}")
            if opts.verbose:
                print("      " + " ".join(f"{v:.5g}" for s in sets for v in s[m]))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
