"""Compare benchmark results of two commits, run in alternating pairs.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds one result per line (the last stdout line of bench/run.py),
the i-th lines of the two files being one pair.  For every metric this prints
both medians and quartiles, the relative change of the medians, and how many
pairs the change won.  A gain is claimed only when the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
own quartile spread.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    pairs = min(len(parent), len(change))
    if pairs == 0:
        print("no results to compare", file=sys.stderr)
        return 2
    for side, runs in (("parent", parent), ("change", change)):
        bad = [i for i, r in enumerate(runs[:pairs]) if not r["correct"]]
        if bad:
            print(f"{side}: runs {bad} failed the correctness gate")
    with open(SPEC) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{pairs} pairs")
    print(f"{'metric':40s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
          f"{'change':>8s} {'wins':>6s}  claim")
    for name, meta in parent[0]["metrics"].items():
        a = [r["metrics"][name]["value"] for r in parent[:pairs]]
        b = [r["metrics"][name]["value"] for r in change[:pairs]]
        qa, qb = quartiles(a), quartiles(b)
        higher = better.get(name) == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        rel = qb[1] / qa[1] - 1.0 if qa[1] else 0.0
        gain = (wins >= 0.9 * pairs and abs(qb[1] - qa[1]) > qa[2] - qa[0]
                and ((qb[1] > qa[1]) if higher else (qb[1] < qa[1])))
        print(f"{name:40s} {'%.4g/%.4g/%.4g' % qa:>30s} {'%.4g/%.4g/%.4g' % qb:>30s} "
              f"{rel:+8.1%} {wins:3d}/{pairs:<2d}  {'gain' if gain else '-'} "
              f"[{meta['unit']}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
