#!/usr/bin/env python3
"""The certchain benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload tsv_batch|columnar_query|serve_soak \\
        --seed N --seconds S --trace 0|1 [--record results.jsonl]

Run from the root of a source checkout. It builds the release binaries
into $CARGO_TARGET_DIR (default `.bench_build`), generates a default
profile dataset from the seed under `.bench_work/`, sets up, measures
for `--seconds`, checks every output, and prints two JSON lines: the
detail (every metric of the run with its sample count, plus nproc,
profile and seed) and, last, the result: `correct`, `attempted`,
`failed` and `metrics` — the BENCHMARK.json `end_to_end` metrics with
`--trace 0`, the `per_layer` metrics with `--trace 1`. `--record`
appends both to a result set for `compare.py`. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True

from benchlib import metrics, program, stats, workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(ctx, names):
    """{name: (value, samples)} for `names`: peak figures are maxima,
    other sampled figures medians."""
    out = {}
    for name in names:
        if name in ctx.values:
            out[name] = ctx.values[name]
        elif name in ctx.samples:
            values = ctx.samples[name]
            value = max(values) if name == "peak_rss_mib" else stats.median(values)
            out[name] = (value, len(values))
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--record", help="append this run to a JSON-lines result set")
    args = ap.parse_args(argv)

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(ROOT, ".bench_results")
    try:
        binary, traced, heap, ref = program.build(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.makedirs(results, exist_ok=True)
        ctx = workloads.Ctx(binary, traced, heap, ref, work, args.seed, args.seconds)
        if args.trace:
            ctx.trace_out = os.path.join(
                results, f"trace-{args.workload}-seed{args.seed}.json")
            workloads.traced(ctx)
            reported = summarize(ctx, metrics.PER_LAYER)
            missing = set(metrics.PER_LAYER) - set(reported)
        else:
            workloads.RUNS[args.workload](ctx)
            ctx.values["error_rate"] = (len(ctx.errors) / max(ctx.attempted, 1), ctx.attempted)
            reported = summarize(ctx, metrics.GATED)
            detail = summarize(ctx, [
                n for n, spec in metrics.DETAIL.items() if args.workload in spec[3]])
            missing = set(metrics.GATED) - set(reported)
    except program.BenchError as e:
        program.log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if missing:
        program.log(f"error: run produced no value for {sorted(missing)}")
        return 2

    every = dict(reported) if args.trace else dict(reported, **detail)
    detail_doc = {
        "perfbench": "detail",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "profile": "default",
        "nproc": os.cpu_count(),
        "errors": ctx.errors[:20],
        "metrics": {
            name: {"value": v, "unit": metrics.unit(name), "samples": n}
            for name, (v, n) in every.items()
        },
    }
    if args.trace:
        detail_doc["trace_journal"] = os.path.relpath(ctx.trace_out, ROOT)
    result = {
        "correct": not ctx.errors,
        "attempted": ctx.attempted,
        "failed": len(ctx.errors),
        "metrics": {
            name: {"value": v, "unit": metrics.unit(name)}
            for name, (v, _) in reported.items()
        },
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"detail": detail_doc, "result": result}) + "\n")
    print(json.dumps(detail_doc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
