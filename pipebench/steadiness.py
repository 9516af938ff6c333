#!/usr/bin/env python3
"""Steadiness check of the pipeline benchmark.

    python3 pipebench/steadiness.py [--seconds N]

Run from the root of a checkout. For every workload in BENCHMARK.json
it makes two interleaved sets of ten untraced runs (run i of both sets
uses seed 101 + i, so the sets differ only by run-to-run noise).
For each end-to-end metric it prints, per set, the median, the
quartiles and the IQR as a share of the median, then how much worse
the second set's median is than the first's (vs_set1) next to the
metric's bound. It exits non-zero when the set difference of any
metric, or the spread of any metric but setup_s, exceeds its bound.
setup_s is gated on its set difference only: its samples are short
(a 0.1-0.5 s engine start or store build) and wide (on plan-offline the
samples of one run ranged from 0.31 to 0.48 s), so its spread between
runs is reported but what must hold is that its median does not move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402

SETS = 2
RUNS = 10
FIRST_SEED = 101
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: output check failed" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[] for _ in range(SETS)]
        for i in range(RUNS):
            for s in range(SETS):
                sets[s].append(run_once(workload, FIRST_SEED + i,
                                        args.seconds))
                print("%s run %d set %d done" % (workload, i + 1, s + 1),
                      file=sys.stderr)
        print("\n%s: %d runs x %d sets, %d s each" %
              (workload, RUNS, SETS, args.seconds))
        print("%-24s %4s %12s %12s %12s %7s %8s %6s" % (
            "metric", "set", "median", "q1", "q3", "iqr/med", "vs_set1",
            "bound"))
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            columns = [[run[name] for run in runs] for runs in sets]
            print("%-24s runs: %s" % (name, " ".join(
                "%.4g" % v for values in columns for v in values)))
            for s, values in enumerate(columns):
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = pbstats.iqr_share(values)
                diff, within = pbstats.within_bound(
                    columns[0], values, entry["better"], bound)
                flag = ""
                if spread > bound:
                    flag = " SPREAD"
                    ok = ok and name == "setup_s"
                elif spread > bound / 3:
                    flag = " (spread > bound/3)"
                if not within:
                    flag, ok = flag + " DIFF", False
                print("%-24s %4d %12.6g %12.6g %12.6g %6.1f%% %+7.1f%% "
                      "%5.0f%%%s" % (name, s + 1, med, q1, q3, 100 * spread,
                                     100 * diff, 100 * bound, flag))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
