#!/usr/bin/env python3
"""Summarizes the spans of a traced benchmark run.

    python3 perfbench/run.py --workload cold-uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cold-uniform --seed 1 --seconds 10 --trace 1
    python3 perfbench/trace_summary.py --workload cold-uniform

Reads .bench_out/<workload>.spans.jsonl (written by a --trace 1 run) and
prints, per layer and per span name, the span count, total time and self
time: a span's duration minus the part of it that its child spans cover.
A layer is the span name up to its first dot (quasii.execute -> quasii).

It then prints the tracing overhead: each end-to-end metric of the traced
run minus the same metric of the last untraced run of the workload
(.bench_out/<workload>.trace1.json and .trace0.json). Run both with the
same seed, as above, for the difference to mean anything.
"""
import argparse
import collections
import json
import os
import sys


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            if line.strip():
                spans.append(json.loads(line))
    return spans


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    children = collections.defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = []
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = children.get(s["id"], [])
        out.append((s, dur, dur - covered(kids, s["start_ns"], s["end_ns"])))
    return out


def print_table(title, rows):
    print(title)
    print(f"  {'name':38s} {'spans':>9s} {'total_ms':>12s} {'self_ms':>12s}")
    for name, (n, total, self_ns) in sorted(rows.items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"  {name:38s} {n:9d} {total / 1e6:12.3f} {self_ns / 1e6:12.3f}")


def overhead(out_dir, workload):
    paths = [os.path.join(out_dir, f"{workload}.trace{t}.json") for t in "01"]
    if not all(os.path.exists(p) for p in paths):
        print("tracing overhead: needs both a --trace 0 and a --trace 1 run")
        return
    untraced, traced = (json.load(open(p)) for p in paths)
    seeds = (untraced["stamp"]["seed"], traced["stamp"]["seed"])
    print(f"tracing overhead (traced minus untraced; seeds {seeds[1]} "
          f"and {seeds[0]}):")
    if seeds[0] != seeds[1]:
        print("  warning: the two runs used different seeds")
    for name, m in traced["end_to_end"].items():
        base = untraced["end_to_end"].get(name, {}).get("value", 0)
        diff = m["value"] - base
        share = f"{100 * diff / base:+.1f}%" if base else "n/a"
        print(f"  {name:20s} {m['value']:14.6g} - {base:14.6g} = "
              f"{diff:+12.6g} {m['unit']:10s} {share}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", default=".bench_out")
    args = ap.parse_args()
    path = os.path.join(args.dir, f"{args.workload}.spans.jsonl")
    if not os.path.exists(path):
        print(f"trace_summary: no spans at {path}; run the workload with "
              "--trace 1 first", file=sys.stderr)
        return 1
    by_layer = collections.defaultdict(lambda: [0, 0, 0])
    by_name = collections.defaultdict(lambda: [0, 0, 0])
    for s, dur, self_ns in self_times(load_spans(path)):
        for key, table in ((s["name"].split(".")[0], by_layer),
                           (s["name"], by_name)):
            row = table[key]
            row[0] += 1
            row[1] += dur
            row[2] += self_ns
    print_table(f"self time by layer ({args.workload})", by_layer)
    print()
    print_table("self time by span", by_name)
    print()
    overhead(args.dir, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
