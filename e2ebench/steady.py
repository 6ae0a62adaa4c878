#!/usr/bin/env python3
"""Steadiness mode: two interleaved sets of benchmark runs.

Runs every workload `--runs` times per set, alternating set A and set B
run by run (set A uses seeds 1..N, set B seeds 1001..1000+N), and reports
for each metric the median, the quartiles, the spread (interquartile range
over the median) of each set and the relative gap between the two sets'
medians. It also compares the share of failed operations between the
sets. These figures set the bounds in BENCHMARK.json.

A run of this script fails (exit code 1) if, for any workload, the two
sets' failed shares differ, or an end-to-end metric's gap between the set
medians reaches its bound, or its spread in either set reaches a third of
its bound (`setup_s` is exempt from the spread test, not from the gap).

    python3 e2ebench/steady.py --runs 10 --seconds 10
    python3 e2ebench/steady.py --runs 5 --workloads fleet-query

Run it from the root of the repository. The benchmark is built once
through e2ebench/run.sh; each run's JSON result line is parsed.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["train-paper", "fleet-ingest", "fleet-query"]
SEED_BASES = [1, 1001]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{out}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expected = sorted(m["name"] for m in spec["per_layer" if args.trace else "end_to_end"])

    breaches = []
    for workload in args.workloads:
        sets = [[] for _ in SEED_BASES]
        for i in range(args.runs):
            for rs, base in zip(sets, SEED_BASES):
                rs.append(run_once(workload, base + i, args.seconds, args.trace))
        print(f"== {workload}: {args.runs} runs x 2 sets")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"   failed share per set: {shares}")
        if shares[0] != shares[1]:
            breaches.append(f"{workload}: failed shares {shares} differ")
        for rs in sets:
            for r in rs:
                if sorted(r["metrics"]) != expected:
                    sys.exit(f"{workload}: metrics {sorted(r['metrics'])} differ from BENCHMARK.json")
        for name in sets[0][0]["metrics"]:
            unit = sets[0][0]["metrics"][name]["unit"]
            rows = [summarize([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            line = f"   {name:<28} {unit:<8}"
            for med, q1, q3, spread in rows:
                line += f" median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.4f} |"
            gap = (rows[1][0] - rows[0][0]) / abs(rows[0][0]) if rows[0][0] else float("inf")
            line += f" gap {gap:+.4f}"
            if name in bounds:
                bound = bounds[name]
                verdict = []
                if abs(gap) >= bound:
                    verdict.append("GAP")
                if name != "setup_s" and max(r[3] for r in rows) >= bound / 3:
                    verdict.append("WIDE")
                line += f" bound {bound} {' '.join(verdict) or 'ok'}"
                breaches += [f"{workload} {name}: {v}" for v in verdict]
            print(line)
    if breaches:
        print("breaches:\n  " + "\n  ".join(breaches))
        sys.exit(1)
    print("every metric within its bounds")


if __name__ == "__main__":
    main()
