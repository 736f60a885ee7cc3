#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

Usage (from the repository root):

    python3 qbench/spread.py [--runs 10] [--sets 2] [--workloads tpch-4w,...]

Each set runs every workload once per seed 1..runs (untraced), as the
`command` in BENCHMARK.json does. For every end-to-end metric it prints,
per set, the median and the spread (distance between the first and third
quartile as a share of the median, from `statistics.quantiles(n=4)`), and
how far the last set's median moved from the first's, next to the metric's
bound. A spread above the bound or a median that got
worse by more than the bound is marked FAIL. Raw results are kept in
qbench/target/spread/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, out_dir):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, p.returncode))
    with open(os.path.join(out_dir, "%s-%d.txt" % (workload, seed)), "w") as f:
        f.write(p.stdout)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect result: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(a.sets):
        out_dir = os.path.join(HERE, "target", "spread", "set%d" % (s + 1))
        os.makedirs(out_dir, exist_ok=True)
        sets.append({w: [run_once(bench, w, seed, out_dir) for seed in range(1, a.runs + 1)]
                     for w in workloads})
    ok = True
    print("%-13s %-16s %12s %7s %12s %7s %8s %6s" %
          ("workload", "metric", "median1", "spread1", "median%d" % a.sets,
           "spread%d" % a.sets, "drift", "bound"))
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, spreads, medians = [], [], []
            for runs in sets:
                values = [r[name] for r in runs[w]]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            bad = drift > bound or max(spreads) > bound
            ok &= not bad
            print("%-13s %-16s %12.4f %7.3f %12.4f %7.3f %+8.3f %6.2f %s" %
                  (w, name, medians[0], spreads[0], medians[-1], spreads[-1], drift, bound,
                   "FAIL" if bad else ("" if max(spreads) <= bound / 3 else "wide")))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
