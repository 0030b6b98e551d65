#!/usr/bin/env python3
"""A/A check: the same code measured as two interleaved sets of runs.

Each run gets another seed. Per workload and end-to-end metric this
prints both sets' medians and quartiles, each set's spread (distance
between the quartiles as a share of the median, the acceptance check's
definition) and the relative difference of the two medians, as a
markdown table. It fails if a difference exceeds half the metric's
bound in BENCHMARK.json or a spread (other than that of setup_s, a
small quantity the acceptance check exempts too) exceeds the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    started = time.monotonic()
    proc = subprocess.run(
        ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - started
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, "
                 f"{result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--raw", help="also write every run's values to this JSON file")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    workloads = args.workloads.split(",")

    # values[workload][set][metric] -> one value per run
    values = {w: [{}, {}] for w in workloads}
    walls = {w: [] for w in workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for w in workloads:
            for s in (0, 1):
                metrics, wall = run_once(w, seed, args.seconds)
                seed += 1
                walls[w].append(wall)
                for name, value in metrics.items():
                    values[w][s].setdefault(name, []).append(value)
        print(f"# pair {i + 1} of {args.runs} done", file=sys.stderr)
    if args.raw:
        pathlib.Path(args.raw).write_text(json.dumps({"values": values, "wall_s": walls}, indent=1))

    print(f"Two interleaved sets of {args.runs} runs, {args.seconds} s each, "
          f"seeds {args.first_seed}..{seed - 1}.\n")
    print("| workload | metric | set A median [q1, q3] | spread A | set B median [q1, q3] "
          "| spread B | B vs A | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    bad = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (summary(values[w][s][name]) for s in (0, 1))
            diff = (b[0] - a[0]) / a[0]
            spread = max(a[3], b[3])
            ok = abs(diff) <= bound / 2 and (name == "setup_s" or spread <= bound)
            bad += not ok
            cell = lambda s: f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] | {s[3]:.2%}"
            print(f"| {w} | {name} | {cell(a)} | {cell(b)} | {diff:+.2%} | {bound:.0%} "
                  f"| {'ok' if ok else 'FAIL'} |")
    print()
    for w in workloads:
        print(f"{w}: {statistics.median(walls[w]):.1f} s wall per run (median)")
    if bad:
        sys.exit(f"{bad} workload x metric pair(s) outside the bounds")


if __name__ == "__main__":
    main()
