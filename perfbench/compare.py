#!/usr/bin/env python3
"""Compares two sets of benchmark runs, for example a parent commit and a
change, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a file or a directory of files holding the saved
stdout of perfbench/run.py runs (one run per file, or several runs
concatenated). Each run is its provenance line followed by its result
line. For every workload and end-to-end metric the tool prints each
side's median and quartiles, the share of pairs the change won (pairs are
matched by seed, else by order; ties count for neither) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the base's quartile distance
  no worse    the change's median is within the metric's bound of the base
  worse       the change's median is worse than the base by more than the
              metric's bound
  unresolved  the base's own spread is wider than the bound, and not every
              change run reads better than every base run

Bounds and directions come from BENCHMARK.json. Traced runs (per-layer
metrics) are listed by median only: they have no bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_runs(path):
    """Returns [(provenance, result)] from a file or a directory."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        if not os.path.isfile(name):
            continue
        provenance = None
        with open(name) as f:
            for line in f:
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(obj, dict):
                    continue
                if "provenance" in obj:
                    provenance = obj["provenance"]
                elif set(obj) == RESULT_KEYS and provenance is not None:
                    runs.append((provenance, obj))
                    provenance = None
    return runs


def group(runs, trace):
    """{workload: [(seed, metrics, provenance)]} for runs of one mode."""
    out = {}
    for prov, result in runs:
        if int(prov.get("trace", 0)) != trace or not result["correct"]:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        out.setdefault(prov["workload"], []).append(
            (prov.get("seed"), values, prov))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """Pairs of (base value, change value) matched by seed, else order."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    matched = []
    for seed, value in change:
        if by_seed.get(seed):
            matched.append((by_seed[seed].pop(0), value))
    if matched:
        return matched
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(base, change, better, bound):
    """Applies the gain and no-regression rules to one metric."""
    b_vals = [v for _, v in base]
    c_vals = [v for _, v in change]
    b_q1, b_med, b_q3 = quartiles(b_vals)
    _, c_med, _ = quartiles(c_vals)
    sign = 1 if better == "higher" else -1
    ps = pairs(base, change)
    wins = sum(1 for b, c in ps if sign * (c - b) > 0)
    won = wins / len(ps) if ps else 0.0
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    worse_by = -sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if ps and won >= 0.9 and sign * (c_med - b_med) > b_q3 - b_q1:
        return won, "improved"
    if spread > bound:
        all_better = all(sign * (c - b) > 0 for c in c_vals for b in b_vals)
        return won, "no worse" if all_better else "unresolved"
    if worse_by > bound:
        return won, "worse"
    return won, "no worse"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_runs, change_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    if not base_runs or not change_runs:
        print("no runs found on one side", file=sys.stderr)
        return 1

    for key in ("host_cores", "build_type"):
        sides = [sorted({str(p.get(key)) for p, _ in runs})
                 for runs in (base_runs, change_runs)]
        if sides[0] != sides[1]:
            print("WARNING: %s differs: base %s, change %s" %
                  (key, sides[0], sides[1]))

    base, change = group(base_runs, 0), group(change_runs, 0)
    print("%-8s %-18s %-30s %-30s %6s  %s" %
          ("workload", "metric", "base median [q1, q3]",
           "change median [q1, q3]", "won", "verdict"))
    worse = 0
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in change:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [(s, v[name]) for s, v, _ in base[w] if name in v]
            c = [(s, v[name]) for s, v, _ in change[w] if name in v]
            if not b or not c:
                continue
            won, what = verdict(b, c, m["better"], m["bound"])
            worse += what == "worse"
            print("%-8s %-18s %-30s %-30s %5.0f%%  %s" %
                  (w, name, fmt([v for _, v in b]), fmt([v for _, v in c]),
                   100 * won, what))

    tbase, tchange = group(base_runs, 1), group(change_runs, 1)
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in tbase or w not in tchange:
            continue
        print("\nper-layer medians, %s (base -> change)" % w)
        for m in spec["per_layer"]:
            name = m["name"]
            b = [v[name] for _, v, _ in tbase[w] if name in v]
            c = [v[name] for _, v, _ in tchange[w] if name in v]
            if b and c:
                print("  %-36s %12.4g -> %-12.4g %s" %
                      (name, statistics.median(b), statistics.median(c),
                       m["unit"]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
