//! `perfbench-traced`: the per-layer half of the certchain benchmark.
//!
//! Calls each layer's public functions in-process over one generated
//! dataset and times every call with the benchmark's own spans. The
//! spans are `certchain_obs::trace::TraceJournal` spans — the span type
//! the daemon serves at `/trace.json` — named `<layer>.<step>` under one
//! `traced` root, so layer self time and coverage fall out of the
//! journal. Metric values come from a `Stopwatch` started with each span,
//! which keeps sub-microsecond precision for per-row figures.
//!
//! ```text
//! perfbench-traced --data <dataset> --work <scratch dir> --rotations <dir>
//!                  --seed N --category <name> --reference <analyze --json>
//!                  --filtered-reference <analyze --json --filter-category>
//!                  --trace-out <journal.json>
//! ```
//!
//! Prints one JSON document: `correct`, `errors` (oracle mismatches) and
//! `metrics` (name → number). `perfbench/run.py --trace 1` drives it and
//! adds the client-side metrics, and `chainlab.state_live_mib` from
//! `perfbench-heap`, whose counting allocator must not sit under these
//! timed spans.

use certchain_chainlab::{
    chain_category, AnalysisSummary, CertCat, CertRecord, CrossSignRegistry, Pipeline,
    PipelineOptions, PipelineState, RowFilter,
};
use certchain_cli::dataset::{load_crosssign, load_ct_index, load_trust};
use certchain_colstore::{CategorySet, DatasetReader, DatasetWriter, MapMode, SegmentedColumn};
use certchain_netsim::{order_spool, LogKind, SslLogStream, X509LogStream};
use certchain_obs::clock::Stopwatch;
use certchain_obs::json::JsonValue;
use certchain_obs::prom::to_prometheus;
use certchain_obs::trace::{Span, TraceJournal, TraceKind};
use certchain_obs::{MetricsSnapshot, Registry};
use certchain_trust::TrustDb;
use certchain_workload::{CampusProfile, CampusTrace};
use certchain_x509::Fingerprint;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Journal capacity: every span of a run fits, so nothing is evicted
/// before self time is computed.
const JOURNAL_CAPACITY: usize = 1 << 16;

/// Repetitions for the calls that take milliseconds; the metric is their
/// median.
const REPS: usize = 5;

struct Args {
    data: PathBuf,
    work: PathBuf,
    rotations: PathBuf,
    seed: u64,
    category: String,
    reference: String,
    filtered_reference: String,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let read = |flag: &str| -> Result<String, String> {
        let path = get(flag)?;
        std::fs::read_to_string(&path).map_err(|e| format!("{flag} {path}: {e}"))
    };
    Ok(Args {
        data: get("--data")?.into(),
        work: get("--work")?.into(),
        rotations: get("--rotations")?.into(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        category: get("--category")?,
        reference: read("--reference")?,
        filtered_reference: read("--filtered-reference")?,
        trace_out: get("--trace-out")?.into(),
    })
}

/// Run `f` under a child span of `parent`; return its result and its
/// wall time in seconds.
fn timed<T>(parent: &Span, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = parent.child(name);
    let clock = Stopwatch::start();
    let out = f();
    let secs = clock.elapsed_secs();
    drop(span);
    (out, secs)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// The report an `analyze --json` run prints for `analysis`.
fn summary_json(analysis: &certchain_chainlab::Analysis) -> String {
    AnalysisSummary::from_analysis(analysis).to_json() + "\n"
}

/// Bytes of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Bytes a checkpoint commit wrote: files of the new generation with one
/// link. Carried cert chunks are hard links shared with the previous
/// generation (which pruning keeps), so they have two.
fn written_bytes(gen_dir: &Path) -> std::io::Result<u64> {
    use std::os::unix::fs::MetadataExt;
    let mut total = 0;
    for entry in std::fs::read_dir(gen_dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() && meta.nlink() == 1 {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Per-layer self time (span duration minus its children's) and the
/// share of the root span the root's children cover, from the journal.
fn journal_figures(journal: &TraceJournal) -> (BTreeMap<String, f64>, f64) {
    let mut dur: HashMap<u64, (String, u64, f64)> = HashMap::new();
    for ev in journal.snapshot() {
        if ev.kind != TraceKind::SpanEnd {
            continue;
        }
        let us = ev
            .attrs
            .iter()
            .find(|(k, _)| k == "dur_us")
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        dur.insert(ev.span, (ev.name, ev.parent, us));
    }
    let mut children: HashMap<u64, f64> = HashMap::new();
    for (_, parent, us) in dur.values() {
        *children.entry(*parent).or_default() += us;
    }
    let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut root = (0u64, 0.0f64);
    for (id, (name, parent, us)) in &dur {
        if *parent == 0 {
            root = (*id, *us);
            continue;
        }
        let layer = name.split('.').next().unwrap_or(name).to_string();
        let own = us - children.get(id).copied().unwrap_or(0.0);
        *self_ms.entry(layer).or_default() += own.max(0.0) / 1e3;
    }
    let covered = children.get(&root.0).copied().unwrap_or(0.0);
    let coverage = if root.1 > 0.0 { covered / root.1 } else { 0.0 };
    (self_ms, coverage)
}

/// First- and last-decile medians of a per-cycle series.
fn deciles(series: &[f64]) -> (f64, f64) {
    let n = (series.len() / 10).max(1);
    (
        median(&series[..n.min(series.len())]),
        median(&series[series.len().saturating_sub(n)..]),
    )
}

struct Run {
    metrics: Vec<(String, f64)>,
    errors: Vec<String>,
}

impl Run {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn check(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.errors
                .push(format!("{what}: report differs from `analyze --json`"));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    let journal = Arc::new(TraceJournal::new(JOURNAL_CAPACITY));
    let mut run = Run {
        metrics: Vec::new(),
        errors: Vec::new(),
    };
    let root = journal.span("traced");
    root.attr("seed", args.seed.to_string());
    if let Err(e) = measure(&args, &root, &mut run) {
        eprintln!("perfbench-traced: {e}");
        return ExitCode::FAILURE;
    }
    drop(root);
    let (self_ms, coverage) = journal_figures(&journal);
    for (layer, ms) in self_ms {
        run.put(&format!("{layer}.self_ms"), ms);
    }
    run.put("traced.coverage", coverage);
    if let Err(e) = std::fs::write(&args.trace_out, journal.to_json().to_pretty() + "\n") {
        eprintln!("perfbench-traced: {}: {e}", args.trace_out.display());
        return ExitCode::FAILURE;
    }
    let doc = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(run.errors.is_empty())),
        (
            "errors".into(),
            JsonValue::Arr(run.errors.into_iter().map(JsonValue::Str).collect()),
        ),
        (
            "metrics".into(),
            JsonValue::Obj(
                run.metrics
                    .into_iter()
                    .map(|(k, v)| (k, JsonValue::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.to_pretty());
    ExitCode::SUCCESS
}

fn measure(args: &Args, root: &Span, run: &mut Run) -> Result<(), String> {
    // workload: in-process trace generation for the same seed.
    let profile = CampusProfile {
        seed: args.seed,
        ..CampusProfile::default()
    };
    let (trace, secs) = timed(root, "workload.generate", || CampusTrace::generate(profile));
    drop(black_box(trace));
    run.put("workload.generate_s", secs);

    // cli: the trust/CT/cross-sign corpus every analyze loads.
    let ((trust, ct, crosssign), _) = timed(root, "cli.load_corpus", || {
        (
            load_trust(&args.data),
            load_ct_index(&args.data),
            load_crosssign(&args.data),
        )
    });
    let trust = trust.map_err(|e| fail("trust", e))?;
    let ct = ct.map_err(|e| fail("ct", e))?;
    let crosssign =
        CrossSignRegistry::from_disclosures(&crosssign.map_err(|e| fail("crosssign", e))?);
    let pipeline = |filter: RowFilter| {
        Pipeline::with_options(
            &trust,
            &ct,
            crosssign.clone(),
            PipelineOptions {
                filter,
                ..PipelineOptions::default()
            },
        )
    };

    // netsim: Zeek line parse of both logs, from memory.
    let (bytes, _) = timed(root, "netsim.read", || {
        (
            std::fs::read(args.data.join("ssl.log")),
            std::fs::read(args.data.join("x509.log")),
        )
    });
    let ssl_bytes = bytes.0.map_err(|e| fail("ssl.log", e))?;
    let x509_bytes = bytes.1.map_err(|e| fail("x509.log", e))?;
    let ssl_stream = SslLogStream::permissive(&ssl_bytes[..]);
    let ssl_stats = ssl_stream.stats();
    let (ssl, secs) = timed(root, "netsim.ssl_parse", || {
        ssl_stream.collect::<Result<Vec<_>, _>>()
    });
    let mut ssl = ssl.map_err(|e| fail("ssl.log", e))?;
    run.put(
        "netsim.ssl_parse_ns_per_line",
        secs * 1e9 / ssl_stats.lines().max(1) as f64,
    );
    let x509_stream = X509LogStream::permissive(&x509_bytes[..]);
    let x509_stats = x509_stream.stats();
    let (x509, secs) = timed(root, "netsim.x509_parse", || {
        x509_stream.collect::<Result<Vec<_>, _>>()
    });
    let x509 = x509.map_err(|e| fail("x509.log", e))?;
    run.put(
        "netsim.x509_parse_ns_per_line",
        secs * 1e9 / x509_stats.lines().max(1) as f64,
    );
    run.put(
        "netsim.malformed_lines",
        (ssl_stats.malformed() + x509_stats.malformed()) as f64,
    );
    drop((ssl_bytes, x509_bytes));

    // x509: DER + DN decode of every logged certificate.
    let (certs, secs) = timed(root, "x509.decode", || {
        x509.iter().map(CertRecord::from_record).collect::<Vec<_>>()
    });
    run.put(
        "x509.decode_us_per_cert",
        secs * 1e6 / x509.len().max(1) as f64,
    );
    run.put(
        "x509.unparseable_certs",
        certs.iter().filter(|c| c.is_none()).count() as f64,
    );

    // colstore: write the store the way `convert` does (x509 table, then
    // a category provider, then the ssl table), open it, and decode every
    // segment per encoding.
    let store = args.work.join("colstore");
    let (written, secs) = timed(root, "colstore.write", || {
        let mut codes: HashMap<Fingerprint, CertCat> = HashMap::new();
        let mut writer = DatasetWriter::create(&store)?;
        for (rec, cert) in x509.iter().zip(&certs) {
            if let Some(cert) = cert {
                codes
                    .entry(rec.fingerprint)
                    .or_insert_with(|| CertCat::of(cert, &trust));
            }
            writer.append_x509(rec)?;
        }
        writer = writer.with_category_provider(Box::new(move |rec| {
            chain_category(
                rec.cert_chain_fps
                    .iter()
                    .map(|fp| codes.get(fp).copied().unwrap_or(CertCat::Unresolved)),
            )
        }));
        for rec in &ssl {
            writer.append_ssl(rec)?;
        }
        writer.finish()
    });
    written.map_err(|e| fail("colstore write", e))?;
    run.put("colstore.write_ms", secs * 1e3);
    run.put(
        "colstore.store_bytes",
        dir_bytes(&store).map_err(|e| fail("colstore size", e))? as f64,
    );
    drop(certs);

    let mut open_ms = Vec::new();
    let mut reader = None;
    for _ in 0..REPS {
        let (r, secs) = timed(root, "colstore.open", || {
            DatasetReader::open(&store, MapMode::Auto)
        });
        reader = Some(r.map_err(|e| fail("colstore open", e))?);
        open_ms.push(secs * 1e3);
    }
    let reader = reader.ok_or("colstore never opened")?;
    run.put("colstore.open_ms", median(&open_ms));

    let ssl_seg = reader.ssl_segments().map_err(|e| fail("ssl segments", e))?;
    let x509_seg = reader
        .x509_segments()
        .map_err(|e| fail("x509 segments", e))?;
    let columns: [(&str, SegmentedColumn<'_>); 21] = [
        ("ssl.ts", ssl_seg.ts),
        ("ssl.uid_idx", ssl_seg.uid_idx),
        ("ssl.orig_h", ssl_seg.orig_h),
        ("ssl.orig_p", ssl_seg.orig_p),
        ("ssl.resp_h", ssl_seg.resp_h),
        ("ssl.resp_p", ssl_seg.resp_p),
        ("ssl.version", ssl_seg.version),
        ("ssl.sni", ssl_seg.sni),
        ("ssl.established", ssl_seg.established),
        ("ssl.chain_idx", ssl_seg.chain_idx),
        ("x509.ts", x509_seg.ts),
        ("x509.fp", x509_seg.fp),
        ("x509.version", x509_seg.version),
        ("x509.serial", x509_seg.serial),
        ("x509.subject", x509_seg.subject),
        ("x509.issuer", x509_seg.issuer),
        ("x509.not_before", x509_seg.not_before),
        ("x509.not_after", x509_seg.not_after),
        ("x509.flags", x509_seg.flags),
        ("x509.path_len", x509_seg.path_len),
        ("x509.san_idx", x509_seg.san_idx),
    ];
    // (seconds, rows) per encoding name.
    let mut by_encoding: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut scratch = Vec::new();
    for _ in 0..REPS {
        for (name, col) in &columns {
            let span = root.child("colstore.decode");
            span.attr("column", *name);
            for seg in 0..col.segments() {
                let meta = col.meta(seg);
                let clock = Stopwatch::start();
                col.decode_into(seg, &mut scratch)
                    .map_err(|e| fail("segment decode", e))?;
                black_box(&scratch);
                let slot = by_encoding.entry(meta.encoding.name()).or_default();
                slot.0 += clock.elapsed_secs();
                slot.1 += meta.rows;
            }
        }
    }
    for enc in ["plain", "packed", "delta", "rle", "for"] {
        let (secs, rows) = by_encoding.get(enc).copied().unwrap_or((0.0, 0));
        run.put(
            &format!("colstore.decode_ns_per_row.{enc}"),
            if rows == 0 {
                0.0
            } else {
                secs * 1e9 / rows as f64
            },
        );
    }

    // chainlab over the store: the full columnar analyze and the
    // category-filtered one.
    let mut full_ms = Vec::new();
    for _ in 0..REPS {
        let (analysis, secs) = timed(root, "chainlab.colstore_analyze", || {
            pipeline(RowFilter::default()).analyze_colstore(&reader)
        });
        let analysis = analysis.map_err(|e| fail("columnar analyze", e))?;
        run.check(
            "columnar analyze",
            &summary_json(&analysis),
            &args.reference,
        );
        full_ms.push(secs * 1e3);
    }
    run.put("chainlab.colstore_analyze_ms", median(&full_ms));
    let categories = CategorySet::parse_list(&args.category).map_err(|e| fail("--category", e))?;
    let mut filtered_ms = Vec::new();
    let mut skipped_ratio = 0.0;
    for _ in 0..REPS {
        let registry = Arc::new(Registry::new());
        let filtered = pipeline(RowFilter {
            categories: Some(categories),
            ..RowFilter::default()
        })
        .with_metrics(Arc::clone(&registry));
        let (analysis, secs) = timed(root, "chainlab.colstore_filtered", || {
            filtered.analyze_colstore(&reader)
        });
        let analysis = analysis.map_err(|e| fail("filtered analyze", e))?;
        run.check(
            "filtered columnar analyze",
            &summary_json(&analysis),
            &args.filtered_reference,
        );
        filtered_ms.push(secs * 1e3);
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let (read, skipped) = (
            counter("colstore.segments_read"),
            counter("colstore.segments_skipped"),
        );
        skipped_ratio = skipped / (read + skipped).max(1.0);
    }
    run.put("chainlab.colstore_filtered_ms", median(&filtered_ms));
    run.put("colstore.segments_skipped_ratio", skipped_ratio);
    drop(reader);

    // chainlab over pre-parsed records: the resumable fold, then the
    // pure finalize.
    let batch = pipeline(RowFilter::default());
    let mut state = PipelineState::new();
    let x509_rows = x509.len();
    let (folded, secs) = timed(root, "chainlab.fold_x509", || {
        batch.fold_x509_stream(&mut state, x509.into_iter().map(Ok::<_, Infallible>))
    });
    folded.map_err(|e| fail("x509 fold", e))?;
    run.put(
        "chainlab.fold_x509_ns_per_row",
        secs * 1e9 / x509_rows.max(1) as f64,
    );
    let ssl_rows = ssl.len();
    let records = std::mem::take(&mut ssl);
    let (folded, secs) = timed(root, "chainlab.fold_ssl", || {
        batch.fold_ssl_stream(&mut state, records.into_iter().map(Ok::<_, Infallible>))
    });
    folded.map_err(|e| fail("ssl fold", e))?;
    run.put(
        "chainlab.fold_ssl_ns_per_row",
        secs * 1e9 / ssl_rows.max(1) as f64,
    );
    let (analysis, secs) = timed(root, "chainlab.finalize", || batch.finalize_state(&state));
    run.put("chainlab.finalize_ms", secs * 1e3);
    run.check("batch finalize", &summary_json(&analysis), &args.reference);
    drop(analysis);
    run.put("chainlab.ssl_rows", state.ssl_records() as f64);
    run.put("chainlab.distinct_chains", state.distinct_chains() as f64);
    run.put(
        "chainlab.distinct_certs",
        state.distinct_certificates() as f64,
    );
    drop(state);

    // serve cycle, replayed in `serve.rs`'s order over the rotations.
    let snapshot = replay_serve(args, root, run, &trust, &pipeline)?;

    // obs: the two `/metrics` renderings of the daemon-shaped snapshot.
    let mut prom_us = Vec::new();
    let mut json_us = Vec::new();
    for _ in 0..200 {
        let (text, secs) = timed(root, "obs.prom_render", || to_prometheus(&snapshot));
        black_box(text);
        prom_us.push(secs * 1e6);
        let (text, secs) = timed(root, "obs.metrics_json", || {
            snapshot.to_json().to_pretty() + "\n"
        });
        black_box(text);
        json_us.push(secs * 1e6);
    }
    run.put("obs.prom_render_us", median(&prom_us));
    run.put("obs.metrics_json_us", median(&json_us));
    Ok(())
}

/// Replay `certchain serve`'s per-cycle work in-process: fold the
/// cycle's files, category census, checkpoint, finalize on a fresh
/// registry, render. Returns the merged serve + finalize snapshot the
/// daemon's `/metrics` would serve after the last cycle.
fn replay_serve<'a>(
    args: &Args,
    root: &Span,
    run: &mut Run,
    trust: &TrustDb,
    pipeline: &dyn Fn(RowFilter) -> Pipeline<'a>,
) -> Result<MetricsSnapshot, String> {
    let names: Vec<String> = std::fs::read_dir(&args.rotations)
        .map_err(|e| format!("{}: {e}", args.rotations.display()))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    let (ordered, unrecognized) = order_spool(names.iter().map(String::as_str));
    if !unrecognized.is_empty() {
        return Err(format!("unrecognized rotation files: {unrecognized:?}"));
    }
    // One cycle per rotation stamp: its x509 file, then its ssl file.
    let mut cycles: Vec<Vec<(LogKind, &str)>> = Vec::new();
    let mut last_stamp = None;
    for (log, name) in &ordered {
        let stamp = log.timestamp.unix_secs();
        if last_stamp != Some(stamp) {
            cycles.push(Vec::new());
            last_stamp = Some(stamp);
        }
        if let Some(cycle) = cycles.last_mut() {
            cycle.push((log.kind, *name));
        }
    }

    let ckpt = args.work.join("checkpoint");
    let registry = Arc::new(Registry::new());
    let serve = pipeline(RowFilter::default()).with_metrics(Arc::clone(&registry));
    let mut state = PipelineState::new();
    let steps = ["fold", "census", "checkpoint", "finalize", "render"];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); steps.len()];
    let mut written = Vec::new();
    let mut finalize_snapshot = MetricsSnapshot::default();
    let mut report = String::new();
    for files in &cycles {
        let cycle = root.child("serve.cycle");
        let mut ms = [0.0f64; 5];
        let (folded, secs) = timed(&cycle, "serve.fold", || -> Result<(), String> {
            for (kind, name) in files {
                fold_file(&serve, &mut state, &args.rotations.join(name), *kind)?;
                state.note_folded(name);
            }
            Ok(())
        });
        folded?;
        ms[0] = secs * 1e3;
        let (_, secs) = timed(&cycle, "serve.census", || {
            let census = state.category_census(trust);
            state.note_category_census(census);
        });
        ms[1] = secs * 1e3;
        let (generation, secs) = timed(&cycle, "serve.checkpoint", || state.save_checkpoint(&ckpt));
        let generation = generation.map_err(|e| format!("checkpoint: {e}"))?;
        ms[2] = secs * 1e3;
        let gen_dir = ckpt.join(format!("gen-{generation:06}"));
        written.push(
            written_bytes(&gen_dir).map_err(|e| format!("{}: {e}", gen_dir.display()))? as f64,
        );
        let finalize_registry = Arc::new(Registry::new());
        let finalizer = pipeline(RowFilter::default()).with_metrics(Arc::clone(&finalize_registry));
        let (analysis, secs) = timed(&cycle, "serve.finalize", || {
            finalizer.finalize_state(&state)
        });
        ms[3] = secs * 1e3;
        let (text, secs) = timed(&cycle, "serve.render", || summary_json(&analysis));
        ms[4] = secs * 1e3;
        report = text;
        finalize_snapshot = finalize_registry.snapshot();
        for (s, v) in series.iter_mut().zip(ms) {
            s.push(v);
        }
    }
    run.check("serve replay", &report, &args.reference);
    for (step, s) in steps.iter().zip(&series) {
        let (first, last) = deciles(s);
        run.put(&format!("serve.cycle.{step}_ms.first"), first);
        run.put(&format!("serve.cycle.{step}_ms.last"), last);
    }
    run.put("serve.checkpoint_bytes_written.last", deciles(&written).1);

    let mut merged = registry.snapshot();
    merged.counters.extend(finalize_snapshot.counters);
    merged.gauges.extend(finalize_snapshot.gauges);
    merged.histograms.extend(finalize_snapshot.histograms);
    merged.stages.extend(finalize_snapshot.stages);
    Ok(merged)
}

/// Fold one rotated file as the daemon does: permissive stream, loss
/// tallies into the state.
fn fold_file(
    pipeline: &Pipeline<'_>,
    state: &mut PipelineState,
    path: &Path,
    kind: LogKind,
) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| fail(&path.display().to_string(), e))?;
    let reader = std::io::BufReader::new(file);
    let (prefix, stats) = match kind {
        LogKind::Ssl => {
            let stream = SslLogStream::permissive(reader);
            let stats = stream.stats();
            pipeline
                .fold_ssl_stream(state, stream)
                .map_err(|e| fail(&path.display().to_string(), e))?;
            ("ssl", stats)
        }
        LogKind::X509 => {
            let stream = X509LogStream::permissive(reader);
            let stats = stream.stats();
            pipeline
                .fold_x509_stream(state, stream)
                .map_err(|e| fail(&path.display().to_string(), e))?;
            ("x509", stats)
        }
    };
    state.add_loss(&format!("spool.{prefix}.lines"), stats.lines());
    state.add_loss(&format!("spool.{prefix}.malformed"), stats.malformed());
    Ok(())
}
