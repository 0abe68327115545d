#!/usr/bin/env python3
"""Compare two benchmark result sets, metric by metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Both files are result sets written by `run.py --record` or `repeat.py
--out`. For every workload and end-to-end metric both sets report, it
prints each side's median and quartiles and one verdict:

- `WORSE`: the after median is worse than the before median by more than
  the metric's bound (the regression gate);
- `better`: the after side wins at least nine tenths of the seed pairs
  both sets ran, and the medians differ by more than the before side's
  inter-quartile distance;
- `unresolved`: neither, and the before side's own spread exceeds the
  bound, so a change within the bound cannot be seen;
- `same`: otherwise.

Exits 1 when any metric is `WORSE`.
"""

import sys

sys.dont_write_bytecode = True

from benchlib import metrics, resultset, stats  # noqa: E402


def verdict(name, before, after):
    """`before`/`after`: {seed: value} of one metric on one workload."""
    b, a = list(before.values()), list(after.values())
    bq1, bmed, bq3 = stats.quartiles(b)
    amed = stats.median(a)
    sign = 1 if metrics.better(name) == "lower" else -1
    worse_by = sign * (amed - bmed)
    bound = metrics.bound(name)
    if worse_by > bound * abs(bmed):
        return "WORSE"
    pairs = [(before[s], after[s]) for s in before if s in after]
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > bq3 - bq1:
        return "better"
    if stats.spread(b) > bound:
        return "unresolved"
    return "same"


def cell(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = resultset.load(argv[0]), resultset.load(argv[1])
    print(f"{'workload':15} {'metric':26} {'before median [q1, q3]':>34} "
          f"{'after median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    worse = False
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        if trace:
            continue
        for name in resultset.end_to_end(workload):
            b = resultset.series(before[key], name)
            a = resultset.series(after[key], name)
            if not b or not a:
                continue
            bq = stats.quartiles(list(b.values()))
            aq = stats.quartiles(list(a.values()))
            change = (aq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            v = verdict(name, b, a)
            worse |= v == "WORSE"
            print(f"{workload:15} {name:26} {cell(bq):>34} {cell(aq):>34} "
                  f"{change:+8.1%} {metrics.bound(name):6.2f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
