#!/usr/bin/env python3
"""Compare benchmark runs of two versions of the code.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the saved standard output of perfbench/run.py
runs, one file per run (any names). Runs are grouped by workload and
trace mode; every metric gets its median and quartiles on each side.
Refuses (exit 2) when the runs were not all built the same way, and
reports (exit 1) any workload whose simulated outputs differ between
the two sides for the same seed: a performance-only change must leave
every digest unchanged.
"""

import json
import os
import statistics
import sys


def load(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        lines = open(os.path.join(directory, name)).read().splitlines()
        context = next(json.loads(l[len("context "):]) for l in lines
                       if l.startswith("context "))
        digest = next((l.split()[2] for l in lines
                       if l.startswith("digest ")), None)
        runs.append({"context": context, "digest": digest,
                     "result": json.loads(lines[-1])})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    builds = {json.dumps(r["context"]["build"], sort_keys=True)
              for r in base + change}
    if len(builds) != 1:
        print("refusing to compare runs of different builds:")
        for b in sorted(builds):
            print("  " + b)
        sys.exit(2)

    def key(r):
        return r["context"]["workload"], r["context"]["trace"]

    status = 0
    for group in sorted({key(r) for r in base + change}):
        b = [r for r in base if key(r) == group]
        c = [r for r in change if key(r) == group]
        print("== %s, trace %d: %d base / %d change runs" %
              (group + (len(b), len(c))))
        b_dig = {r["context"]["seed"]: r["digest"] for r in b}
        for r in c:
            seed = r["context"]["seed"]
            if seed in b_dig and b_dig[seed] != r["digest"]:
                print("  OUTPUTS DIFFER at seed %d: %s -> %s" %
                      (seed, b_dig[seed], r["digest"]))
                status = 1
        if not b or not c:
            continue
        names = b[0]["result"]["metrics"]
        for name, m in names.items():
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            cv = [r["result"]["metrics"][name]["value"] for r in c
                  if name in r["result"]["metrics"]]
            if not cv:
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            delta = (cq[1] / bq[1] - 1.0) * 100 if bq[1] else float("nan")
            print("  %-30s %12.6g [%.6g, %.6g]  ->  %12.6g [%.6g, %.6g]"
                  "  %+6.1f%% %s" % (name, bq[1], bq[0], bq[2], cq[1],
                                     cq[0], cq[2], delta, m["unit"]))
    sys.exit(status)


if __name__ == "__main__":
    main()
