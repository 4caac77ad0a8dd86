#!/usr/bin/env python3
"""Compare two sets of darco_bench runs, A (parent) and B (change).

Usage:

    python3 benchmark/compare.py A/*.json B/*.json

Each file is one run's record as written by `darco_bench --json=` (or
kept by benchmark/run.py under .bench_build/results/). Files are split
into A and B by directory, in the order the directories first appear.

For every workload and end-to-end metric it prints each side's median
and quartiles, B's win fraction over the A/B pairs (paired by seed,
ties count for neither) and a verdict:

  gain        B wins >= 9/10 of the pairs and the medians differ by more
              than A's interquartile range
  ok          B's median is within the metric's bound of A's
  regression  B's median is worse than A's by more than the bound
  unresolved  a side's spread (IQR / median) exceeds the bound, unless
              every B run beats every A run

Bounds come from BENCHMARK.json. Runs of one workload and seed must
agree on the digest of the simulated results; any difference is
flagged. Exit status 1 on a regression, an unresolved metric or a
digest difference.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def load_sides(paths):
    sides = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        side = sides.setdefault(os.path.dirname(os.path.abspath(path)), [])
        side.append(rec)
    if len(sides) != 2:
        sys.exit("compare.py: expected files from exactly two directories "
                 f"(A and B), got {len(sides)}")
    return list(sides.items())


def better(b, a, higher):
    return b > a if higher else b < a


def verdict(a, b, bound, higher):
    """The verdict for one metric and B's win fraction over the pairs."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse = (a_med - b_med) if higher else (b_med - a_med)
    all_better = all(better(x, y, higher) for x in b for y in a)
    pairs = list(zip(a, b))
    wins = sum(better(y, x, higher) for x, y in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    q1, _, q3 = quartiles(a)
    if pairs and win_frac >= 0.9 and abs(b_med - a_med) > q3 - q1:
        return "gain", win_frac
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", win_frac
    if worse > bound * abs(a_med):
        return "regression", win_frac
    return "ok", win_frac


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    (a_dir, a_runs), (b_dir, b_runs) = load_sides(argv)
    print(f"A = {a_dir} ({len(a_runs)} runs)")
    print(f"B = {b_dir} ({len(b_runs)} runs)")

    failed = False
    workloads = sorted({r["workload"] for r in a_runs + b_runs})
    for wl in workloads:
        # Pair runs by seed so both sides saw the same inputs.
        a = sorted((r for r in a_runs if r["workload"] == wl),
                   key=lambda r: r["seed"])
        b = sorted((r for r in b_runs if r["workload"] == wl),
                   key=lambda r: r["seed"])
        print(f"\n{wl}: {len(a)} A runs, {len(b)} B runs")
        if not a or not b:
            print("  missing runs on one side")
            failed = True
            continue
        digests = {}
        for r in a + b:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        for seed, ds in sorted(digests.items()):
            if len(ds) > 1:
                print(f"  DIGEST DIFFERS for seed {seed}: {sorted(ds)}")
                failed = True
        if any(not r["correct"] for r in a + b):
            print("  a run reported incorrect outputs")
            failed = True
        print(f"  {'metric':<14}{'A q1/med/q3':>34}{'B q1/med/q3':>34}"
              f"{'wins':>7}  verdict")
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            result, win_frac = verdict(av, bv, m["bound"], higher)
            failed |= result in ("regression", "unresolved")
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"  {name:<14}{fmt(av):>34}{fmt(bv):>34}"
                  f"{win_frac:>7.2f}  {result} (bound {m['bound']:.0%}, "
                  f"spread A {spread(av):.1%} B {spread(bv):.1%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
