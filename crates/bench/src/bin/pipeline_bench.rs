//! Pipeline scaling + memory measurement: times the full analysis at
//! several thread counts, measures batch-vs-streaming peak heap, and
//! writes `BENCH_pipeline.json`.
//!
//! `CERTCHAIN_PROFILE=quick` selects the test-sized trace, `large` the
//! parallel-scaling size; the default is the paper-calibrated one.
//!
//! Peak memory comes from a counting global allocator (exact heap bytes,
//! not RSS): the batch figure covers whole-log parsing plus in-memory
//! analysis, the streaming figure covers `analyze_stream` over the same
//! serialized logs — the path `certchain analyze` runs.

use certchain_chainlab::json::JsonValue;
use certchain_chainlab::{
    Analysis, CategoryOracle, CertTable, CrossSignRegistry, Pipeline, PipelineOptions, RowFilter,
};
use certchain_colstore::codec::Encoding;
use certchain_colstore::{Category, CategorySet, DatasetReader, DatasetWriter, MapMode, COLUMNS};
use certchain_netsim::zeek::reader::{read_ssl_log, read_x509_log};
use certchain_netsim::zeek::tsv::{write_ssl_log, write_x509_log};
use certchain_netsim::{SimClock, SslLogStream, X509LogStream};
use certchain_obs::{MetricsSnapshot, Registry};
use certchain_workload::CampusTrace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Exact-count heap instrumentation: live bytes and a high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods delegate to the `System` allocator unchanged and
// only maintain atomic side counters, so `GlobalAlloc`'s contract is
// inherited from `System` wholesale.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from the trait; `layout` is forwarded
    // to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same non-zero-size `layout` the caller provided under
        // `GlobalAlloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    // SAFETY: contract inherited from the trait; the `ptr`/`layout` pair
    // is forwarded to `System.dealloc` untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `alloc` with this
        // `layout`, and `alloc` always returns `System` pointers.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return its result plus the peak heap growth (bytes above
/// the live heap at entry) observed while it ran.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(before))
}

/// Thread counts to sweep: `--threads 1,2,4` overrides the default, which
/// is the doubling series 1,2,4,8 capped at this host's core count (so a
/// 4-core CI runner doesn't spend half the sweep timing oversubscription).
/// 1 is always included — it is the speedup baseline.
fn thread_sweep(args: &[String], cores: usize) -> Vec<usize> {
    for (i, arg) in args.iter().enumerate() {
        if arg == "--threads" {
            let list = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("--threads requires a comma-separated list"));
            let mut counts: Vec<usize> = list
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad thread count {p:?} in --threads"))
                })
                .filter(|&n| n > 0)
                .collect();
            counts.sort_unstable();
            counts.dedup();
            if counts.is_empty() {
                panic!("--threads needs at least one positive count");
            }
            if counts[0] != 1 {
                counts.insert(0, 1);
            }
            return counts;
        }
    }
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&n| n == 1 || n <= cores)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile_name = std::env::var("CERTCHAIN_PROFILE").unwrap_or_else(|_| "default".into());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let trace = CampusTrace::generate(certchain_bench::profile_from_env());
    let weights: Vec<f64> = trace.conn_meta.iter().map(|m| m.weight).collect();

    let pipeline_with = |threads: usize| {
        Pipeline::with_options(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
            PipelineOptions {
                threads,
                ..PipelineOptions::default()
            },
        )
    };

    let analyze = |threads: usize| -> (Analysis, f64, MetricsSnapshot) {
        // Warm up once so page cache / allocator state is comparable, then
        // report the best of three timed runs. Each timed run gets a fresh
        // metrics registry so its stage timings describe exactly one run.
        pipeline_with(threads).analyze(&trace.ssl_records, &trace.x509_records, Some(&weights));
        let mut best = f64::INFINITY;
        let mut analysis = None;
        let mut snapshot = None;
        for _ in 0..3 {
            let registry = Arc::new(Registry::new());
            let pipeline = pipeline_with(threads).with_metrics(Arc::clone(&registry));
            let start = Instant::now();
            let a = pipeline.analyze(&trace.ssl_records, &trace.x509_records, Some(&weights));
            let secs = start.elapsed().as_secs_f64();
            if secs < best {
                best = secs;
                snapshot = Some(registry.snapshot());
            }
            analysis = Some(a);
        }
        (
            analysis.expect("ran at least once"),
            best,
            snapshot.expect("ran at least once"),
        )
    };

    let conns = trace.ssl_records.len() as f64;
    let mut results = Vec::new();
    let mut snapshots = Vec::new();
    let mut baseline_secs = None;
    for threads in thread_sweep(&args, cores) {
        let (analysis, secs, snapshot) = analyze(threads);
        let chains = analysis.chains.len() as f64;
        let baseline = *baseline_secs.get_or_insert(secs);
        let stage_ms = JsonValue::Obj(
            snapshot
                .stages
                .iter()
                .map(|(name, s)| (name.clone(), JsonValue::Num(s.wall_ms)))
                .collect(),
        );
        let breakdown: Vec<String> = snapshot
            .stages
            .iter()
            .map(|(name, s)| format!("{name} {:.1}ms", s.wall_ms))
            .collect();
        results.push(JsonValue::Obj(vec![
            ("threads".into(), JsonValue::Num(threads as f64)),
            ("wall_ms".into(), JsonValue::Num(secs * 1e3)),
            ("chains_per_sec".into(), JsonValue::Num(chains / secs)),
            ("conns_per_sec".into(), JsonValue::Num(conns / secs)),
            ("speedup_vs_1".into(), JsonValue::Num(baseline / secs)),
            ("stage_ms".into(), stage_ms),
        ]));
        snapshots.push((format!("threads-{threads}"), snapshot.to_json()));
        eprintln!(
            "threads={threads:<2} wall={:.1}ms  {:.0} chains/s  {:.0} conns/s  [{}]",
            secs * 1e3,
            chains / secs,
            conns / secs,
            breakdown.join(", ")
        );
    }

    // Batch vs streaming peak heap, over identical serialized logs and an
    // identical (sequential, unweighted) analysis configuration.
    let open = SimClock::campus_window_start().now();
    let mut ssl_buf = Vec::new();
    write_ssl_log(&mut ssl_buf, &trace.ssl_records, open).expect("serialize ssl.log");
    let mut x509_buf = Vec::new();
    write_x509_log(&mut x509_buf, &trace.x509_records, open).expect("serialize x509.log");

    let (_, batch_peak) = peak_during(|| {
        let ssl = read_ssl_log(std::str::from_utf8(&ssl_buf).unwrap()).expect("parse ssl.log");
        let x509 = read_x509_log(std::str::from_utf8(&x509_buf).unwrap()).expect("parse x509.log");
        pipeline_with(1).analyze(&ssl, &x509, None)
    });
    let (_, stream_peak) = peak_during(|| {
        pipeline_with(1)
            .analyze_stream(
                SslLogStream::new(&ssl_buf[..]),
                X509LogStream::new(&x509_buf[..]),
            )
            .expect("streams parse cleanly")
    });
    eprintln!(
        "peak heap: batch {:.1} MiB, streaming {:.1} MiB ({:.2}x)",
        batch_peak as f64 / (1 << 20) as f64,
        stream_peak as f64 / (1 << 20) as f64,
        batch_peak as f64 / stream_peak.max(1) as f64,
    );

    // TSV-vs-columnar single-thread ingest: the same records, once parsed
    // from the serialized Zeek logs and once mapped from the columnar
    // store, through an identical sequential analysis. This is the number
    // the columnar store exists for — analyze time with the parse stage
    // deleted. The category oracle over the trace's certificate table,
    // filled under the analysis' intern rule, both digests the store at
    // write time and picks the rarest category below.
    let oracle = {
        let mut table = CertTable::new();
        let mut fold = table.folding();
        for rec in &trace.x509_records {
            fold.fold(rec);
        }
        drop(fold);
        CategoryOracle::new(CategorySet::empty(), &table, &trace.eco.trust)
    };
    let category_of = |rec: &certchain_netsim::SslRecord| oracle.category(&rec.cert_chain_fps);
    let store =
        std::env::temp_dir().join(format!("certchain-pipeline-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    {
        let mut writer = DatasetWriter::create(&store).expect("create bench colstore");
        for rec in X509LogStream::new(&x509_buf[..]) {
            writer
                .append_x509(&rec.expect("x509 rows round-trip"))
                .expect("append x509 row");
        }
        writer = writer.with_category_provider(oracle.clone().into_provider());
        for rec in SslLogStream::new(&ssl_buf[..]) {
            writer
                .append_ssl(&rec.expect("ssl rows round-trip"))
                .expect("append ssl row");
        }
        writer.finish().expect("finish bench colstore");
    }
    let reader = DatasetReader::open(&store, MapMode::Auto).expect("open colstore");
    // Segment compression over the fixed-width columns: rows x width
    // (their size as raw little-endian arrays, i.e. the v1 layout) over
    // their encoded bytes, both read off the manifest. The var-length
    // data files and shared tables are stored raw either way.
    let (raw_bytes, encoded_bytes) = COLUMNS
        .iter()
        .filter_map(|(name, width)| Some((reader.manifest().segments.get(*name)?, (*width)?)))
        .flat_map(|(metas, width)| metas.iter().map(move |m| (m.rows * width, m.bytes)))
        .fold((0u64, 0u64), |(raw, enc), (r, e)| (raw + r, enc + e));
    let compression_ratio = raw_bytes as f64 / encoded_bytes.max(1) as f64;

    let tsv_run = || {
        pipeline_with(1)
            .analyze_stream(
                SslLogStream::new(&ssl_buf[..]),
                X509LogStream::new(&x509_buf[..]),
            )
            .expect("streams parse cleanly")
    };
    let col_run = || {
        pipeline_with(1)
            .analyze_colstore(&reader)
            .expect("columnar store reads cleanly")
    };
    // Peak heap from a dedicated run each, then best-of-three timing.
    let (_, tsv_ingest_peak) = peak_during(tsv_run);
    let (_, col_ingest_peak) = peak_during(col_run);
    let best_of = |f: &dyn Fn() -> Analysis| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let tsv_secs = best_of(&tsv_run);
    let col_secs = best_of(&col_run);
    let ingest_speedup = tsv_secs / col_secs;
    eprintln!(
        "ingest (1 thread): tsv {:.1}ms, columnar {:.1}ms ({:.0} conns/s) \
         — {:.2}x vs tsv; fixed-width columns {:.2}x smaller than raw",
        tsv_secs * 1e3,
        col_secs * 1e3,
        conns / col_secs,
        ingest_speedup,
        compression_ratio,
    );

    // Zone-map effectiveness: analyze the store filtered to its rarest
    // SNI (deterministic pick: lowest count, then lexicographically
    // smallest) and report what fraction of row bands the fold skipped.
    let mut sni_freq: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for rec in &trace.ssl_records {
        if let Some(sni) = &rec.server_name {
            *sni_freq.entry(sni.as_str()).or_default() += 1;
        }
    }
    let rare_sni = sni_freq
        .iter()
        .min_by_key(|(name, n)| (**n, **name))
        .map(|(name, _)| (*name).to_string());
    let (segments_read, segments_skipped) = {
        let registry = Arc::new(Registry::new());
        let pipeline = Pipeline::with_options(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
            PipelineOptions {
                threads: 1,
                filter: RowFilter {
                    sni: rare_sni,
                    ..RowFilter::default()
                },
                ..PipelineOptions::default()
            },
        )
        .with_metrics(Arc::clone(&registry));
        pipeline
            .analyze_colstore(&reader)
            .expect("filtered analysis reads cleanly");
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (
            counter("colstore.segments_read"),
            counter("colstore.segments_skipped"),
        )
    };
    let segments_skipped_pct =
        100.0 * segments_skipped as f64 / (segments_read + segments_skipped).max(1) as f64;
    eprintln!(
        "zone maps (rare-SNI filter): {segments_skipped}/{} segments skipped ({segments_skipped_pct:.1}%)",
        segments_read + segments_skipped,
    );

    // Category-digest effectiveness: analyze the store filtered to its
    // rarest structural chain category (deterministic pick: lowest row
    // count among the categories present, ties to the lower category
    // index) and record, per thread count, how many segments the
    // per-segment digests let the fold skip without decoding.
    let mut cat_rows = [0u64; certchain_colstore::CATEGORY_COUNT];
    for rec in &trace.ssl_records {
        cat_rows[category_of(rec).index()] += 1;
    }
    let rare_cat = Category::all()
        .iter()
        .copied()
        .filter(|c| cat_rows[c.index()] > 0)
        .min_by_key(|c| (cat_rows[c.index()], c.index()))
        .expect("trace is non-empty, so some category occurs");
    let mut cat_set = CategorySet::empty();
    cat_set.insert(rare_cat);
    let category_run = |threads: usize| -> (f64, MetricsSnapshot) {
        // Best-of-three, keeping the snapshot of the fastest run; the
        // deterministic counters are identical across the three anyway.
        let mut best = f64::INFINITY;
        let mut snapshot = None;
        for _ in 0..3 {
            let registry = Arc::new(Registry::new());
            let pipeline = Pipeline::with_options(
                &trace.eco.trust,
                &trace.ct_index,
                CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
                PipelineOptions {
                    threads,
                    filter: RowFilter {
                        categories: Some(cat_set),
                        ..RowFilter::default()
                    },
                    ..PipelineOptions::default()
                },
            )
            .with_metrics(Arc::clone(&registry));
            let start = Instant::now();
            pipeline
                .analyze_colstore(&reader)
                .expect("category-filtered analysis reads cleanly");
            let secs = start.elapsed().as_secs_f64();
            if secs < best {
                best = secs;
                snapshot = Some(registry.snapshot());
            }
        }
        (best, snapshot.expect("ran at least once"))
    };
    let mut category_results = Vec::new();
    let mut category_skipped_pct = 0.0;
    for threads in thread_sweep(&args, cores) {
        let (secs, snap) = category_run(threads);
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let read = counter("colstore.segments_read");
        let skipped = counter("colstore.segments_skipped");
        let skipped_cat = counter("colstore.segments_skipped_category");
        let pct = 100.0 * skipped_cat as f64 / (read + skipped).max(1) as f64;
        category_skipped_pct = pct;
        let stage_ms = JsonValue::Obj(
            snap.stages
                .iter()
                .map(|(name, s)| (name.clone(), JsonValue::Num(s.wall_ms)))
                .collect(),
        );
        category_results.push(JsonValue::Obj(vec![
            ("threads".into(), JsonValue::Num(threads as f64)),
            ("wall_ms".into(), JsonValue::Num(secs * 1e3)),
            ("segments_read".into(), JsonValue::Num(read as f64)),
            ("segments_skipped".into(), JsonValue::Num(skipped as f64)),
            (
                "segments_skipped_category".into(),
                JsonValue::Num(skipped_cat as f64),
            ),
            ("segments_skipped_pct".into(), JsonValue::Num(pct)),
            ("stage_ms".into(), stage_ms),
        ]));
        eprintln!(
            "category digests (--filter-category {}): threads={threads:<2} wall={:.1}ms \
             {skipped_cat}/{} segments skipped by digest ({pct:.1}%)",
            rare_cat.name(),
            secs * 1e3,
            read + skipped,
        );
    }

    // Frame-of-reference packing on `ssl.orig_h`: the manifest records
    // every segment's encoding and payload size, so the compression
    // delta against plain 4-byte rows is exact, not sampled.
    let orig_h_for = {
        let segs = reader
            .manifest()
            .segments
            .get("ssl.orig_h")
            .expect("manifest describes ssl.orig_h");
        let plain: u64 = segs.iter().map(|s| s.rows * 4).sum();
        let encoded: u64 = segs.iter().map(|s| s.bytes).sum();
        let for_segments = segs.iter().filter(|s| s.encoding == Encoding::For).count();
        eprintln!(
            "orig_h frame-of-reference: {for_segments}/{} segments FoR-encoded, \
             {plain} -> {encoded} bytes ({:.2}x)",
            segs.len(),
            plain as f64 / encoded.max(1) as f64,
        );
        JsonValue::Obj(vec![
            ("segments".into(), JsonValue::Num(segs.len() as f64)),
            ("for_segments".into(), JsonValue::Num(for_segments as f64)),
            ("plain_bytes".into(), JsonValue::Num(plain as f64)),
            ("encoded_bytes".into(), JsonValue::Num(encoded as f64)),
            (
                "compression_ratio".into(),
                JsonValue::Num(plain as f64 / encoded.max(1) as f64),
            ),
        ])
    };
    let _ = std::fs::remove_dir_all(&store);

    let note = if cores == 1 {
        format!(
            "observed {cores} core on this host: the default sweep is capped at \
             available_parallelism, so only the threads=1 row is measured here \
             (oversubscribed multi-thread rows would only record scheduler noise; \
             pass --threads 1,2,4,8 to force them). Run CERTCHAIN_PROFILE=large \
             on a multi-core host to observe scaling."
        )
    } else {
        format!(
            "observed {cores} cores; speedup measured against the single-thread run on this host"
        )
    };

    let doc = JsonValue::Obj(vec![
        ("profile".into(), JsonValue::Str(profile_name)),
        ("cores".into(), JsonValue::Num(cores as f64)),
        ("connections".into(), JsonValue::Num(conns)),
        (
            "distinct_chains".into(),
            JsonValue::Num(trace.truth.by_chain.len() as f64),
        ),
        ("results".into(), JsonValue::Arr(results)),
        (
            "memory".into(),
            JsonValue::Obj(vec![
                ("batch_peak_bytes".into(), JsonValue::Num(batch_peak as f64)),
                (
                    "streaming_peak_bytes".into(),
                    JsonValue::Num(stream_peak as f64),
                ),
            ]),
        ),
        (
            "ingest_comparison".into(),
            JsonValue::Obj(vec![
                ("threads".into(), JsonValue::Num(1.0)),
                ("tsv_wall_ms".into(), JsonValue::Num(tsv_secs * 1e3)),
                ("tsv_conns_per_sec".into(), JsonValue::Num(conns / tsv_secs)),
                (
                    "tsv_peak_bytes".into(),
                    JsonValue::Num(tsv_ingest_peak as f64),
                ),
                ("columnar_wall_ms".into(), JsonValue::Num(col_secs * 1e3)),
                (
                    "columnar_conns_per_sec".into(),
                    JsonValue::Num(conns / col_secs),
                ),
                (
                    "columnar_peak_bytes".into(),
                    JsonValue::Num(col_ingest_peak as f64),
                ),
                ("speedup".into(), JsonValue::Num(ingest_speedup)),
                (
                    "compression_ratio".into(),
                    JsonValue::Num(compression_ratio),
                ),
                (
                    "segments_skipped_pct".into(),
                    JsonValue::Num(segments_skipped_pct),
                ),
            ]),
        ),
        (
            "category_filter".into(),
            JsonValue::Obj(vec![
                (
                    "category".into(),
                    JsonValue::Str(rare_cat.name().to_string()),
                ),
                (
                    "segments_skipped_pct".into(),
                    JsonValue::Num(category_skipped_pct),
                ),
                ("results".into(), JsonValue::Arr(category_results)),
            ]),
        ),
        ("orig_h_for".into(), orig_h_for),
        ("note".into(), JsonValue::Str(note)),
    ]);
    std::fs::write("BENCH_pipeline.json", doc.to_pretty()).expect("write BENCH_pipeline.json");
    eprintln!("wrote BENCH_pipeline.json");

    // Full per-thread-count metrics snapshots: the `deterministic` section
    // must be identical across the four runs (only `timing` may differ).
    let metrics_doc = JsonValue::Obj(vec![("runs".into(), JsonValue::Obj(snapshots))]);
    std::fs::write("BENCH_pipeline_metrics.json", metrics_doc.to_pretty())
        .expect("write BENCH_pipeline_metrics.json");
    eprintln!("wrote BENCH_pipeline_metrics.json");
}
