#!/usr/bin/env python3
"""Compare sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds runs recorded with `run.py --record FILE`, one JSON line
per run. For every (end-to-end metric, workload) pair the helper prints
each set's median, quartiles and spread (quartile distance / median). With
one set it checks that every spread except setup_s's stays within the
metric's bound; with two it also checks that the second set's median is
not worse than the first's by more than the bound. It exits 1 when a check
fails or a run was not correct.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values):
    """(median, q1, q3, spread) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, change):
    """Share by which `change` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    delta = (change - base) / base
    return delta if metric["better"] == "lower" else -delta


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load_runs(p) for p in argv[1:]]
    ok = True

    for i, runs in enumerate(sets):
        for workload, results in sorted(runs.items()):
            bad = [r for r in results if not r["correct"] or r["failed"]]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"set {i + 1} {workload}: {len(results)} runs, fail_ratio "
                  f"{failed / max(attempted, 1):.3g}"
                  + (f", {len(bad)} runs NOT CORRECT" if bad else ""))
            ok &= not bad

    print(f"\n{'workload':11} {'metric':12} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set().union(*sets)):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][name]["value"]
                          for r in runs.get(workload, [])
                          if name in r["metrics"]]
                if not values:
                    continue
                med, q1, q3, spread = summary(values)
                medians.append(med)
                verdict = "steady" if spread <= bound / 3 else "ok"
                if name != "setup_s" and spread > bound:
                    verdict = "TOO NOISY"
                    ok = False
                if name == "setup_s":
                    verdict = "(spread not bounded)"
                if i == 1 and len(medians) == 2:
                    w = worse_by(metric, medians[0], medians[1])
                    if w > bound:
                        verdict += f"; REGRESSED by {w:.1%}"
                        ok = False
                    else:
                        verdict += (f"; {'worse' if w > 0 else 'better'} "
                                    f"by {abs(w):.1%} than set 1")
                print(f"{workload:11} {name:12} {i + 1:>3} {med:12.5g} "
                      f"{q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.2f}  "
                      f"{verdict}")
    print("\nverdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
