"""The three closed-loop workloads and the traced run.

One client drives the real `certchain` binary: as a subprocess for
`generate`/`analyze`/`convert`/`compact`, over HTTP for `serve`. Every
output goes through an oracle; an operation that exits non-zero,
answers non-200, times out or fails its oracle counts as failed.
"""

import json
import os
import shutil
import subprocess
import time

from . import ckpt, metrics, oracle, program, stats
from .program import BenchError

# Set-ups per run; `setup_s` is their median.
SETUP_REPS = 3
# Fewest loop iterations a run measures, however short `--seconds` is.
MIN_ITERATIONS = 3
# Rotation pairs the serve soak cuts the logs into.
SOAK_PAIRS = 100
# The soak times the reference task after every this many rotations.
SOAK_REF_EVERY = 10
# About how long one soak takes (2-core host); a run feeds one soak per
# this many seconds of `--seconds`.
SOAK_SECONDS = 10
# Rotations the traced run feeds a daemon for the per-path HTTP figures.
TRACE_HTTP_ROUNDS = 20
ROTATION_TIMEOUT_S = 60
STATUS_POLL_S = 0.002
FIXED_ANALYZE_REPS = 5
# Columnar loop: each write is followed by reads that must be unchanged;
# four read pairs per write keep the gated `analyze` samples many, and the
# reference task ("ref") runs once per two of them.
COLUMNAR_READS = ("ref", "analyze", "filtered", "analyze", "filtered") * 2
COLUMNAR_CYCLE = ("convert", *COLUMNAR_READS, "compact", *COLUMNAR_READS)


class Ctx:
    def __init__(self, binary, traced, heap, ref, work, seed, seconds):
        self.bin, self.traced, self.heap, self.ref = binary, traced, heap, ref
        self.ref_out = None
        self.work, self.seed, self.seconds = work, seed, seconds
        self.attempted = 0
        self.errors = []
        self.samples = {}
        # name -> (value, samples it summarizes) for figures not kept as
        # raw samples.
        self.values = {}

    def check(self, ok, what):
        """Count one operation; record it as failed unless `ok`."""
        self.attempted += 1
        if not ok:
            self.errors.append(what)
            program.log(f"FAILED: {what}")
        return ok

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def cli(self, *args):
        return program.run([self.bin, *args])

    def reference_task(self, data):
        """Time `perfbench-ref` over the dataset's `ssl.log` as a `ref_ms`
        sample. It is the benchmark's own code, so it is not counted as an
        operation; a failure or a changed output ends the run."""
        r = program.run([self.ref, os.path.join(data, "ssl.log")])
        if self.ref_out is None:
            self.ref_out = r.out
        if r.code != 0 or r.out != self.ref_out:
            raise BenchError(f"perfbench-ref exited {r.code} with {r.out.strip()!r}")
        self.sample("ref_ms", r.ms)

    def generate(self, out):
        r = self.cli("generate", "--out", out, "--seed", str(self.seed))
        if not self.check(r.code == 0, f"generate exited {r.code}"):
            raise BenchError("generate failed")
        return r.ms / 1e3


def set_up(ctx, once):
    """Run `once(i)` SETUP_REPS times, the kept one (i = 0) last, and
    record each wall time as a `setup_s` sample. `once` returns (seconds,
    product); set-ups other than the kept one are discarded by
    `once` itself. Returns the kept product."""
    kept = None
    for i in reversed(range(SETUP_REPS)):
        secs, kept = once(i)
        ctx.sample("setup_s", secs)
    return kept


def report_floor(ctx, base):
    """`report_p10_ms`, the 10th percentile of the run's `base` samples,
    and the gated `report_p10_rel`, that over the 10th percentile of the
    reference task's samples taken in the same loop. On a shared host,
    neighbours' bursts slow most samples of a run; the fast tail is what
    they leave alone. Their sustained load slows every sample, the
    reference task's too, and the ratio cancels it."""
    values = ctx.samples[base]
    p10 = stats.percentile(values, 10)
    ctx.values["report_p10_ms"] = (p10, len(values))
    ctx.values["report_p10_rel"] = (p10 / stats.percentile(ctx.samples["ref_ms"], 10),
                                    len(values))


def until_deadline(ctx):
    """Yield iteration numbers of the measured closed loop: at least
    MIN_ITERATIONS, then until `--seconds` have passed."""
    start = time.monotonic()
    i = 0
    while i < MIN_ITERATIONS or time.monotonic() - start < ctx.seconds:
        yield i
        i += 1


def tsv_batch(ctx):
    def once(i):
        data = ctx.path(f"data{i}")
        secs = ctx.generate(data)
        if i:
            shutil.rmtree(data)
        return secs, data

    data = set_up(ctx, once)
    ref = ctx.cli("analyze", "--dir", data, "--format", "tsv")
    ctx.check(ref.code == 0, "reference analyze")
    for _ in until_deadline(ctx):
        ctx.reference_task(data)
        r = ctx.cli("analyze", "--dir", data, "--format", "tsv")
        ctx.check(r.code == 0 and r.out == ref.out, "tsv analyze differs from reference")
        ctx.sample("analyze_ms", r.ms)
        ctx.sample("peak_rss_mib", r.rss_mib)
    report_floor(ctx, "analyze_ms")


def rarest_category(data):
    """The rarest structural category present in the store, as
    `pipeline_bench` picks it: fewest rows, ties to the lower index."""
    with open(os.path.join(data, "colstore", "dataset.json")) as f:
        manifest = json.load(f)
    totals = [sum(col) for col in zip(*manifest["category_digests"])]
    present = [(n, i) for i, n in enumerate(totals) if n > 0]
    return ("none", "incomplete", "self_signed", "public_only",
            "non_public_only", "hybrid")[min(present)[1]]


def columnar_query(ctx):
    def once(i):
        data = ctx.path(f"data{i}")
        secs = ctx.generate(data)
        r = ctx.cli("convert", "--dir", data)
        if not ctx.check(r.code == 0, f"convert exited {r.code}"):
            raise BenchError("convert failed")
        if i:
            shutil.rmtree(data)
        return secs + r.ms / 1e3, data

    data = set_up(ctx, once)
    log_bytes = sum(os.path.getsize(os.path.join(data, f"{k}.log")) for k in ("ssl", "x509"))
    ctx.values["store_bytes_per_log_byte"] = (
        program.dir_bytes(os.path.join(data, "colstore")) / log_bytes, 1)
    category = rarest_category(data)
    tsv = ctx.cli("analyze", "--dir", data, "--format", "tsv")
    ref = ctx.cli("analyze", "--dir", data)
    ctx.check(tsv.code == 0 and ref.code == 0 and oracle.same_tables(ref.out, tsv.out),
              "columnar tables differ from TSV tables")
    filt = ["analyze", "--dir", data, "--filter-category", category]
    tsv_filtered = ctx.cli(*filt, "--format", "tsv")
    ref_filtered = ctx.cli(*filt)
    ctx.check(tsv_filtered.code == 0 and ref_filtered.code == 0
              and oracle.same_tables(ref_filtered.out, tsv_filtered.out),
              "filtered columnar tables differ from TSV tables")

    ops = {
        "convert": (("convert", "--dir", data, "--force"), None, "convert_ms"),
        "compact": (("compact", "--dir", data), None, "compact_ms"),
        "analyze": (("analyze", "--dir", data), ref.out, "analyze_ms"),
        "filtered": (tuple(filt), ref_filtered.out, "filtered_analyze_ms"),
    }
    for _ in until_deadline(ctx):
        for op in COLUMNAR_CYCLE:
            if op == "ref":
                ctx.reference_task(data)
                continue
            args, want, metric = ops[op]
            r = ctx.cli(*args)
            ok = r.code == 0 and (want is None or r.out == want)
            ctx.check(ok, f"{op} failed or changed the report")
            ctx.sample(metric, r.ms)
            ctx.sample("peak_rss_mib", r.rss_mib)
    report_floor(ctx, "analyze_ms")


def get_checked(ctx, daemon, path):
    """One GET with its body oracle; returns the wall ms."""
    start = time.perf_counter()
    status, body = daemon.get(path)
    ms = (time.perf_counter() - start) * 1e3
    ok = status == 200
    if ok and path.startswith("/metrics?format=prometheus"):
        ok = b"# TYPE" in body
    elif ok and path == "/report":
        ok = body.startswith(b"== Chain census")
    elif ok:
        try:
            ok = isinstance(json.loads(body), dict)
        except ValueError:
            ok = False
    ctx.check(ok, f"GET {path} -> {status}")
    return ms


def rotate(ctx, daemon, stage, pair):
    """Feed one rotation pair; return ms from the first rename until
    `/status` lists both files, or None on timeout."""
    start = daemon.feed(stage, pair)
    while True:
        folded = daemon.folded()
        if folded is not None and set(pair) <= folded:
            return (time.perf_counter() - start) * 1e3
        if time.perf_counter() - start > ROTATION_TIMEOUT_S:
            return None
        time.sleep(STATUS_POLL_S)


def soak(ctx, daemon, data, stage, pairs, tables):
    """Feed every pair, one at a time, each followed by one round of the
    GET mix (and, every SOAK_REF_EVERY pairs, the reference task); then
    check the final report and read the daemon's peak RSS."""
    ledger = ckpt.WriteLedger()
    for i, pair in enumerate(pairs):
        ms = rotate(ctx, daemon, stage, pair)
        if not ctx.check(ms is not None, f"rotation {pair[1]} not reported"):
            break
        ctx.sample("rotation_to_report_ms", ms)
        ledger.scan(daemon.checkpoint)
        for path in metrics.HTTP_PATHS.values():
            ctx.sample("http_get_ms", get_checked(ctx, daemon, path))
        if i % SOAK_REF_EVERY == 0:
            ctx.reference_task(data)
    status, body = daemon.get("/report")
    ctx.check(status == 200 and body.decode() == tables,
              "final /report differs from the TSV analyze tables")
    ctx.sample("peak_rss_mib", daemon.vm_hwm_mib())
    ctx.sample("written_bytes", ledger.bytes_written)


def serve_soak(ctx):
    daemons = []

    def once(i):
        data, stage = ctx.path(f"data{i}"), ctx.path(f"stage{i}")
        start = time.perf_counter()
        ctx.generate(data)
        pairs = program.cut_rotations(data, stage, SOAK_PAIRS)
        daemon = program.Daemon(ctx.bin, data, ctx.path(f"soak{i}-0"))
        secs = time.perf_counter() - start
        if i:
            daemon.stop()
            shutil.rmtree(data)
            shutil.rmtree(stage)
        else:
            daemons.append(daemon)
        return secs, (data, stage, pairs)

    try:
        data, stage, pairs = set_up(ctx, once)
        fed = sum(os.path.getsize(os.path.join(stage, n)) for p in pairs for n in p)
        ref = ctx.cli("analyze", "--dir", data, "--format", "tsv")
        ctx.check(ref.code == 0, "reference analyze")
        tables = oracle.strip_loss_line(ref.out)
        # Whole soaks only, and a fixed number of them: each soak starts
        # from an empty state, so a cut-short soak would over-weight the
        # cheap early rotations, and a faster program must not earn extra
        # (later, costlier) rotations.
        for n in range(max(1, round(ctx.seconds / SOAK_SECONDS))):
            if n:
                daemons.append(program.Daemon(ctx.bin, data, ctx.path(f"soak0-{n}")))
            soak(ctx, daemons[-1], data, stage, pairs, tables)
            daemons[-1].stop()
    finally:
        for d in daemons:
            d.stop()
    written = ctx.samples.pop("written_bytes")
    ctx.values["checkpoint_write_amp"] = (sum(written) / (fed * len(written)), len(written))
    report_floor(ctx, "rotation_to_report_ms")
    for name, base in (("rotation_to_report_p95_ms", "rotation_to_report_ms"),
                       ("http_get_p95_ms", "http_get_ms")):
        ctx.values[name] = (stats.percentile(ctx.samples[base], 95), len(ctx.samples[base]))


def traced(ctx):
    """The per-layer run: the traced binary over the dataset, then the
    client-side figures (fixed analyze cost, per-path GET latency)."""
    data, rotations = ctx.path("data"), ctx.path("rotations")
    ctx.generate(data)
    r = ctx.cli("convert", "--dir", data)
    ctx.check(r.code == 0, "convert")
    category = rarest_category(data)
    pairs = program.cut_rotations(data, rotations, SOAK_PAIRS)
    refs = {}
    for name, extra in (("reference", ()), ("filtered-reference", ("--filter-category", category))):
        r = ctx.cli("analyze", "--dir", data, "--format", "tsv", "--json", *extra)
        ctx.check(r.code == 0, f"{name} analyze")
        refs[name] = ctx.path(f"{name}.json")
        with open(refs[name], "w") as f:
            f.write(r.out)

    traced_work = ctx.path("traced")
    os.makedirs(traced_work)
    trace_out = ctx.trace_out
    proc = subprocess.run(
        [ctx.traced, "--data", data, "--work", traced_work, "--rotations", rotations,
         "--seed", str(ctx.seed), "--category", category,
         "--reference", refs["reference"], "--filtered-reference", refs["filtered-reference"],
         "--trace-out", trace_out],
        stdout=subprocess.PIPE, check=False,
    )
    if not ctx.check(proc.returncode == 0, f"perfbench-traced exited {proc.returncode}"):
        raise BenchError("traced run failed")
    doc = json.loads(proc.stdout)
    ctx.check(doc["correct"], "traced oracles: " + "; ".join(doc["errors"]))
    ctx.values.update((k, (v, 1)) for k, v in doc["metrics"].items())
    heap = program.run([ctx.heap, "--data", data])
    if not ctx.check(heap.code == 0, f"perfbench-heap exited {heap.code}"):
        raise BenchError("heap run failed")
    ctx.values.update((k, (v, 1)) for k, v in json.loads(heap.out).items())

    fixed = ctx.path("fixed")
    program.header_only_copy(data, fixed)
    for _ in range(FIXED_ANALYZE_REPS):
        r = ctx.cli("analyze", "--dir", fixed, "--format", "tsv")
        ctx.check(r.code == 0, "header-only analyze")
        ctx.sample("cli.analyze_fixed_ms", r.ms)

    paths = dict(metrics.HTTP_PATHS, trace_json="/trace.json")
    daemon = program.Daemon(ctx.bin, data, ctx.path("http"))
    try:
        for pair in pairs[:TRACE_HTTP_ROUNDS]:
            ctx.check(rotate(ctx, daemon, rotations, pair) is not None, "rotation")
            for key, path in paths.items():
                ctx.sample(f"http.get_ms.{key}", get_checked(ctx, daemon, path))
    finally:
        daemon.stop()


RUNS = {"tsv_batch": tsv_batch, "columnar_query": columnar_query, "serve_soak": serve_soak}
