#!/usr/bin/env python3
"""Compare two sets of ccfbench runs (Python 3 standard library only).

    python3 bench/ccfbench/compare.py --base a1.jsonl a2.jsonl --new b1.jsonl

Each file holds ccfbench records (one JSON object per line, as written by
`ccfbench --out`); every untraced record is one run. For each workload and
end-to-end metric the script prints both sets' median and quartiles, each
set's spread (interquartile range / median) against the metric's bound in
BENCHMARK.json, and a verdict:

  better      over at least ten pairs, the new set wins at least 9 of 10
              (ties count for neither side) and the medians differ by more
              than the base set's interquartile range
  worse       the new median is worse than the base median by more than the
              bound
  unresolved  the base set's spread is wider than the bound, unless every new
              run reads better than every base run
  same        otherwise

Runs pair by seed where both sets ran the seed, else in file order. Traced
records print their per-layer medians without a verdict. Deterministic
outputs (simulated times, event counts) must agree to 1e-9 across every run
of a seed. Exits 1 when a metric is worse, an output changed or a run failed.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if record.get("ccfbench") == "record":
                    records.append(record)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """(base value, new value) pairs: by seed where both sets ran it."""
    base_by_seed = {}
    for seed, value in base:
        base_by_seed.setdefault(seed, []).append(value)
    paired, left_new = [], []
    for seed, value in new:
        if base_by_seed.get(seed):
            paired.append((base_by_seed[seed].pop(0), value))
        else:
            left_new.append(value)
    left_base = [v for vs in base_by_seed.values() for v in vs]
    paired.extend(zip(left_base, left_new))
    return paired


def verdict(metric, base, new):
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    b_values = [v for _, v in base]
    n_values = [v for _, v in new]
    b_q1, b_med, b_q3 = quartiles(b_values)
    _, n_med, _ = quartiles(n_values)
    def better(x, y):  # x reads better than y
        return x > y if higher else x < y
    worse_by = (b_med - n_med if higher else n_med - b_med) / b_med if b_med else 0.0
    if worse_by > bound:
        return "worse"
    runs = pairs(base, new)
    wins = sum(1 for b, n in runs if better(n, b))
    if (len(runs) >= 10 and wins >= 0.9 * len(runs) and better(n_med, b_med)
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "better"
    if b_med and (b_q3 - b_q1) / b_med > bound:
        if all(better(n, b) for n in n_values for b in b_values):
            return "better"
        return "unresolved"
    return "same"


def fmt(x):
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="run files of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="run files of the change")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    sets = {"base": load(args.base), "new": load(args.new)}
    status = 0

    for side, records in sets.items():
        for r in records:
            if not r["correct"] or r["failed"]:
                print("FAILED RUN (%s): %s seed %s: %s" % (side, r["workload"], r["seed"], r["errors"]))
                status = 1

    # Deterministic outputs: one value per (workload, seed, name) across all runs.
    seen = {}
    for r in sets["base"] + sets["new"]:
        for name, value in r.get("outputs", {}).items():
            key = (r["workload"], r["seed"], name)
            first = seen.setdefault(key, value)
            if value is None or first is None or abs(value - first) > 1e-9 * max(abs(value), abs(first)):
                print("OUTPUT CHANGED: %s seed %s %s: %r vs %r" % (key + (first, value)))
                status = 1

    workloads = [w["name"] for w in bench["workloads"]]
    print("%-12s %-12s %31s %31s %14s %14s  %s" % (
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3",
        "base spread", "new spread", "verdict"))
    for w in workloads:
        base = [r for r in sets["base"] if r["workload"] == w and not r["traced"]]
        new = [r for r in sets["new"] if r["workload"] == w and not r["traced"]]
        if not base or not new:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [(r["seed"], r["metrics"][name]["value"]) for r in base if name in r["metrics"]]
            n = [(r["seed"], r["metrics"][name]["value"]) for r in new if name in r["metrics"]]
            if not b or not n:
                continue
            bq, nq = quartiles([v for _, v in b]), quartiles([v for _, v in n])
            spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq)]
            v = verdict(metric, b, n)
            if v == "worse":
                status = 1
            print("%-12s %-12s %31s %31s %8.3f/%-5g %8.3f/%-5g  %s (%d vs %d runs)" % (
                w, name, " / ".join(map(fmt, bq)), " / ".join(map(fmt, nq)),
                spreads[0], metric["bound"], spreads[1], metric["bound"], v, len(b), len(n)))

    traced = [(side, r) for side, rs in sets.items() for r in rs if r["traced"]]
    if traced:
        print("\nper-layer medians of the traced runs")
        for w in workloads:
            for metric in bench["per_layer"]:
                row = []
                for side in ("base", "new"):
                    vs = [r["layers"][metric["name"]]["value"] for s, r in traced
                          if s == side and r["workload"] == w and metric["name"] in r["layers"]]
                    row.append(fmt(statistics.median(vs)) if vs else "-")
                if row != ["-", "-"] and any(x not in ("-", "0") for x in row):
                    print("%-12s %-34s %12s %12s %s" % (w, metric["name"], row[0], row[1], metric["unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
