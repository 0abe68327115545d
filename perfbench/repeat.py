#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads tsv_batch,serve_soak \\
        --seeds 1-10 --seconds 20 --out results.jsonl

Runs every seed with `--trace 0`, appends each run to `--out` (a result
set `compare.py` reads) and prints, per workload and end-to-end metric,
the median, the quartiles and the inter-quartile distance as a share of
the median next to the metric's bound. A benchmark is steady when every
spread is well below its bound.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True

from benchlib import metrics, resultset  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0", "--record", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                  file=sys.stderr, flush=True)
    print(resultset.spread_table(resultset.load(args.out)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
