"""Result sets: the JSON lines `run.py --record` appends, one per run."""

import json

from . import metrics, stats


def load(path):
    """{(workload, trace): [record, ...]} from a result-set file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                d = rec["detail"]
                runs.setdefault((d["workload"], d["trace"]), []).append(rec)
    return runs


def series(records, name):
    """{seed: value} of metric `name` over the records that report it."""
    out = {}
    for rec in records:
        m = rec["detail"]["metrics"].get(name)
        if m is not None:
            out[rec["detail"]["seed"]] = m["value"]
    return out


def end_to_end(workload):
    """The end-to-end metric names a workload reports, gated first."""
    return list(metrics.GATED) + [
        n for n, spec in metrics.DETAIL.items() if workload in spec[3]
    ]


def spread_table(runs):
    lines = [f"{'workload':15} {'metric':26} {'n':>3} {'median':>12} {'q1':>12} "
             f"{'q3':>12} {'spread':>7} {'bound':>6}"]
    for (workload, trace), records in sorted(runs.items()):
        if trace:
            continue
        failed = sum(r["result"]["failed"] for r in records)
        lines.append(f"{workload}: {len(records)} runs, {failed} failed operations")
        for name in end_to_end(workload):
            values = list(series(records, name).values())
            if not values:
                continue
            q1, q2, q3 = stats.quartiles(values)
            lines.append(
                f"{workload:15} {name:26} {len(values):3} {q2:12.5g} {q1:12.5g} "
                f"{q3:12.5g} {stats.spread(values):7.3f} {metrics.bound(name):6.2f}")
    return "\n".join(lines)
