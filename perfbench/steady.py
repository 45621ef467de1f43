#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs two sets, one after the other: each set runs every workload --runs
times, each run with another seed.  For every end-to-end metric it prints,
per set, the median and the spread: the distance between the first and
third quartile of the runs' values (Python's statistics.quantiles, n=4) as
a share of their median.  A spread is steady below a third of the metric's
bound, and too wide beyond the bound.  Then it prints the gap between the
two sets' medians: how much worse the second is than the first, as a share
of the first, judged against the bound.  The sets are a whole set apart in
time, so the gap shows how far host drift moves a median.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]
                                [--workloads a,b]

Run it from the repository root.  It exits 1 if a spread or a gap exceeds
its bound.  Seed 20031 is held back for checking claims on an unseen seed;
it is never used here.
"""

import argparse
import json
import statistics
import subprocess
import sys

HELD_BACK_SEED = 20031


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} calls failed")
    note = [line for line in out.stdout.splitlines() if " passes of " in line]
    return {name: m["value"] for name, m in result["metrics"].items()}, note


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = [s for s in range(args.first_seed,
                              args.first_seed + args.sets * args.runs + 1)
             if s != HELD_BACK_SEED]
    ok = True
    medians = {}  # (workload, metric) -> median per set
    for k in range(args.sets):
        set_seeds = seeds[k * args.runs:(k + 1) * args.runs]
        for workload in names:
            runs, notes = zip(*(run_once(bench, workload, s) for s in set_seeds))
            print(f"set {k + 1} {workload}: {len(runs)} runs, "
                  f"seeds {set_seeds[0]}..{set_seeds[-1]}")
            for seed, r, note in zip(set_seeds, runs, notes):
                print(f"  seed {seed}: "
                      + "  ".join(f"{m} {v:.6g}" for m, v in r.items()))
                for line in note:
                    print(f"    {line}")
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                med, s = statistics.median(values), spread(values)
                medians.setdefault((workload, name), []).append(med)
                if s < bound / 3:
                    verdict = "steady"
                elif s <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"  {name:14} median {med:14.6g} {metric['unit']:5} "
                      f"spread {s:7.4f}  bound {bound:5.3f}  {verdict}")
            sys.stdout.flush()
    if args.sets > 1:
        print("gap of each set's median from the first, as a share of it "
              "(positive = worse)")
        for workload in names:
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                first, *rest = medians[(workload, name)]
                sign = 1 if metric["better"] == "lower" else -1
                gaps = [sign * (m - first) / first for m in rest]
                worst = max(gaps)
                verdict = "ok" if worst <= bound else "TOO FAR"
                ok = ok and worst <= bound
                print(f"  {workload:16} {name:14} "
                      + " ".join(f"{g:+7.4f}" for g in gaps)
                      + f"  bound {bound:5.3f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
