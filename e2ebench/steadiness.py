#!/usr/bin/env python3
"""Steadiness check: run two sets of repetitions of the same code and report,
per workload and end-to-end metric, whether the benchmark agrees with itself
within the bounds BENCHMARK.json declares.

Each repetition runs the benchmark command for BENCHMARK.json's run_seconds
with another --seed: run i of set s uses seed 1 + 1000 * s + i. For every
metric the script reports, per set, the median and the spread (distance
between the first and third quartile, as statistics.quantiles(values, n=4)
gives them, as a share of the median), and checks that

  * each spread except that of setup_s stays within the metric's bound
    (and flags spreads above a third of the bound as not yet steady), and
  * each later set's median is not worse than the first's by more than
    the bound, in the metric's "better" direction.

setup_s is held to its bound through the median only, the way a change
between two commits is judged: a run reports the median of several set-up
passes over its own seed's data sets, so its spread across seeds says how
much set-up work the seeds differ by, not how steady the measurement is.
Its spread is still printed, marked "not gated" when above the bound.

Run from the root of the repository:

    python3 e2ebench/steadiness.py --runs 10
    python3 e2ebench/steadiness.py --runs 5 --workloads interactive-nba

Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="repetitions per set")
    parser.add_argument("--sets", type=int, default=2, help="sets of repetitions")
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = 1 + 1000 * s + i
                got = run_once(bench["command"], workload, seed, seconds)
                for m in metrics:
                    values[m["name"]].append(got[m["name"]])
            sets.append(values)
        print(f"\n{workload}  ({args.sets} sets x {args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<18} {'bound':>6} " +
              " ".join(f"{'median' + str(k + 1):>12} {'spread' + str(k + 1):>8}"
                       for k in range(args.sets)) + "  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, verdicts = [], []
            stats = [spread(v[name]) for v in sets]
            for sp, med in stats:
                cols.append(f"{med:>12.6g} {sp:>8.3f}")
                if name == "setup_s":
                    if sp > bound:
                        verdicts.append("spread>bound(not gated)")
                elif sp > bound:
                    verdicts.append("SPREAD>BOUND")
                elif sp > bound / 3:
                    verdicts.append("spread>bound/3")
            first = stats[0][1]
            for _, med in stats[1:]:
                worse = (med - first) / first if m["better"] == "lower" \
                    else (first - med) / first
                if worse > bound:
                    verdicts.append(f"MEDIAN-WORSE({worse:+.3f})")
            hard = [v for v in verdicts if not v.startswith("spread")]
            ok = ok and not hard
            print(f"  {name:<18} {bound:>6} " + " ".join(cols) + "  " +
                  (", ".join(verdicts) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
