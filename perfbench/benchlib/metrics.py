"""The metric catalogue: names, units, which way is better, bounds.

`GATED` is the `end_to_end` list of BENCHMARK.json: every workload
reports every one of them, so a regression gate can compare any
workload's run with its parent. `DETAIL` holds the per-workload
end-to-end metrics; `run.py` prints them (with sample counts) on the
line before the result, and `compare.py` judges them with these
bounds. `PER_LAYER` is what a `--trace 1` run reports.
"""

WORKLOADS = ("tsv_batch", "columnar_query", "serve_soak")
ALL = WORKLOADS

# name -> (unit, better, bound, workloads)
GATED = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "report_p10_rel": ("ratio", "lower", 0.25, ALL),
    "peak_rss_mib": ("MiB", "lower", 0.10, ALL),
}

DETAIL = {
    "error_rate": ("ratio", "lower", 0.0, ALL),
    "report_p10_ms": ("ms", "lower", 0.25, ALL),
    "analyze_ms": ("ms", "lower", 0.25, ("tsv_batch", "columnar_query")),
    "filtered_analyze_ms": ("ms", "lower", 0.25, ("columnar_query",)),
    "convert_ms": ("ms", "lower", 0.25, ("columnar_query",)),
    "compact_ms": ("ms", "lower", 0.25, ("columnar_query",)),
    "store_bytes_per_log_byte": ("ratio", "lower", 0.02, ("columnar_query",)),
    "rotation_to_report_ms": ("ms", "lower", 0.25, ("serve_soak",)),
    "rotation_to_report_p95_ms": ("ms", "lower", 0.25, ("serve_soak",)),
    "http_get_ms": ("ms", "lower", 0.25, ("serve_soak",)),
    "http_get_p95_ms": ("ms", "lower", 0.25, ("serve_soak",)),
    "checkpoint_write_amp": ("ratio", "lower", 0.02, ("serve_soak",)),
}

ENCODINGS = ("plain", "packed", "delta", "rle", "for")
SERVE_STEPS = ("fold", "census", "checkpoint", "finalize", "render")
HTTP_PATHS = {
    "metrics_prom": "/metrics?format=prometheus",
    "metrics_json": "/metrics",
    "report": "/report",
    "report_json": "/report.json",
    "status": "/status",
    "healthz": "/healthz",
}
# Layers the traced binary spans, each reported as `<layer>.self_ms`.
LAYERS = ("workload", "cli", "netsim", "x509", "colstore", "chainlab", "serve", "obs")

# name -> (unit, better)
PER_LAYER = {
    "netsim.ssl_parse_ns_per_line": ("ns", "lower"),
    "netsim.x509_parse_ns_per_line": ("ns", "lower"),
    "netsim.malformed_lines": ("count", "lower"),
    "x509.decode_us_per_cert": ("us", "lower"),
    "x509.unparseable_certs": ("count", "lower"),
    "chainlab.fold_ssl_ns_per_row": ("ns", "lower"),
    "chainlab.fold_x509_ns_per_row": ("ns", "lower"),
    "chainlab.finalize_ms": ("ms", "lower"),
    "chainlab.colstore_analyze_ms": ("ms", "lower"),
    "chainlab.colstore_filtered_ms": ("ms", "lower"),
    "chainlab.state_live_mib": ("MiB", "lower"),
    "chainlab.ssl_rows": ("count", "higher"),
    "chainlab.distinct_chains": ("count", "higher"),
    "chainlab.distinct_certs": ("count", "higher"),
    "colstore.open_ms": ("ms", "lower"),
    **{f"colstore.decode_ns_per_row.{e}": ("ns", "lower") for e in ENCODINGS},
    "colstore.segments_skipped_ratio": ("ratio", "higher"),
    "colstore.write_ms": ("ms", "lower"),
    "colstore.store_bytes": ("bytes", "lower"),
    **{
        f"serve.cycle.{s}_ms.{d}": ("ms", "lower")
        for s in SERVE_STEPS
        for d in ("first", "last")
    },
    "serve.checkpoint_bytes_written.last": ("bytes", "lower"),
    "obs.prom_render_us": ("us", "lower"),
    "obs.metrics_json_us": ("us", "lower"),
    **{f"http.get_ms.{p}": ("ms", "lower") for p in HTTP_PATHS},
    "http.get_ms.trace_json": ("ms", "lower"),
    "workload.generate_s": ("s", "lower"),
    "cli.analyze_fixed_ms": ("ms", "lower"),
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    "traced.coverage": ("ratio", "higher"),
}


def unit(name):
    for table in (GATED, DETAIL, PER_LAYER):
        if name in table:
            return table[name][0]
    raise KeyError(name)


def better(name):
    for table in (GATED, DETAIL, PER_LAYER):
        if name in table:
            return table[name][1]
    raise KeyError(name)


def bound(name):
    """The regression bound of an end-to-end metric (None per layer)."""
    for table in (GATED, DETAIL):
        if name in table:
            return table[name][2]
    return None
