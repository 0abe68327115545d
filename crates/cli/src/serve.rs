//! `certchain serve`: an incremental ingest daemon over a spool of
//! rotated Zeek logs.
//!
//! A campus monitor does not produce one giant `ssl.log`; it rotates
//! `ssl.<timestamp>.log` / `x509.<timestamp>.log` files into a spool
//! directory around the clock. `serve` watches such a spool, folds each
//! new file into a checkpointable [`PipelineState`] (ordered by the
//! name-embedded rotation timestamp), persists a checkpoint after every
//! cycle that ingested data, and exposes the live report tables plus a
//! `certchain-metrics/v1` snapshot over a tiny HTTP endpoint.
//!
//! In watch mode a cycle starts as soon as the spool changes. Between
//! cycles the loop probes the spool directory's modification time, at
//! once and then every `--interval-ms / 25`, and rescans once it differs
//! from the time read just before the previous scan listed the
//! directory, so a file renamed in during a cycle is folded without a
//! sleep, and one renamed in during a scan costs one more cheap scan,
//! never a missed file. A change the probe cannot see (a coarse
//! directory timestamp, a filesystem that does not update it) waits at
//! most `--interval-ms`, which is also how often an idle cycle
//! completes. `--drain` scans once.
//!
//! The spool contract: a rotated file appears complete, by rename, under
//! its recognized name. A writer that fills a recognized name in place
//! can have its file folded half-written, and with the wake that happens
//! within milliseconds rather than at the next interval.
//!
//! The defining invariant is inherited from the state layer: folding a
//! trace across any number of serve cycles — including process restarts
//! that resume from the checkpoint — publishes tables byte-identical
//! to one `certchain analyze` batch run over the concatenated logs, at
//! every thread count. A kill at any moment loses at most the files
//! folded since the last completed checkpoint; the ledger makes the
//! next run re-fold exactly those.
//!
//! Publishing is incremental. A [`Publisher`] lives as long as the
//! process and keeps each resolved chain's verdict, the unresolved
//! chains, pass 1's entity → forged-domain map and the report's
//! roll-up; the state logs which chains each fold merged into and
//! whether the certificate table grew. A publish resolves the chains
//! new to it and the unresolved ones a grown table now resolves, scans
//! only the SNIs pass 1 has not seen, and runs pass 2 on the newly
//! resolved chains, and again on the cached chains holding a
//! certificate of an entity it has just confirmed (they may become
//! interception chains). A chain whose verdict stands only adds its
//! usage to its category. A category that loses a chain gathers its
//! client addresses again from its members, since an address cannot be
//! taken out of a union. The text report and `/report.json` render from
//! the roll-up; no publish builds an `Analysis`. The first publish (at
//! start-up, also of a resumed state) covers every chain.
//!
//! Two metrics registries cooperate here. The serve-loop registry lives
//! as long as the process and accumulates fold-side counters
//! (`pipeline.ssl_records`, spool skip tallies, stage timings) across
//! cycles. Each publish gets a *fresh* registry: its counters are the
//! absolute values of the whole state, and reusing a registry would
//! double-add them. `/metrics` merges the two snapshots (finalize wins
//! on shared keys); the deterministic section of the result is
//! thread-count invariant like every other report surface in the
//! workspace.
//!
//! Observability (all strictly on the timing side of the snapshot
//! split — report tables and the deterministic metrics section are
//! byte-identical with or without it):
//!
//! - every scan/fold/checkpoint/publish cycle runs under a
//!   `serve.cycle` trace span (children: `serve.scan`, one `serve.fold`
//!   per file with the fold's `pipeline.enrich` or `pipeline.ingest`
//!   under it, `checkpoint.commit` (with `runs`, `merged` and
//!   `written_bytes` attributes, per-field fsync events and one event for
//!   all carried runs), `checkpoint.prune`, `serve.publish`
//!   with `serve.finalize`, over `pipeline.resolve`, `pipeline.categorize`
//!   and `pipeline.finalize` (each with a `chains` attribute: the chains
//!   the publish processed in it), and `serve.render` children) in a
//!   bounded ring journal served at `/trace.json`;
//! - `/metrics` negotiates JSON (default) or Prometheus text format via
//!   `?format=prometheus` / `Accept: text/plain`;
//! - `/report` negotiates text (default) or the `/report.json` body via
//!   `?format=json` / `Accept: application/json`; unknown formats get
//!   `406` with a plain-text hint;
//! - `/healthz` carries a stall watchdog: `503` once no cycle has
//!   completed within `--watchdog-cycles` × `--interval-ms`, back to
//!   `200` as soon as a cycle completes again;
//! - per-request accounting (path, status, latency) lands in the
//!   timing section's `http` block.

use crate::analyze::render;
use crate::dataset::Corpus;
use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::{AnalysisSummary, Pipeline, PipelineOptions, PipelineState, Publisher};
use certchain_netsim::{order_spool, LogKind, ReadError, SslLogStream, X509LogStream};
use certchain_obs::clock::Stopwatch;
use certchain_obs::json::JsonValue;
use certchain_obs::prom::{to_prometheus, PROMETHEUS_CONTENT_TYPE};
use certchain_obs::trace::{Span, TraceJournal};
use certchain_obs::{HttpRequest, HttpResponse, HttpServer, HttpStats, MetricsSnapshot, Registry};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Knobs for `certchain serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads (`0` = available parallelism). The report bytes
    /// are identical for every value.
    pub threads: usize,
    /// Bind an HTTP endpoint on this address (e.g. `127.0.0.1:8377`).
    pub listen: Option<String>,
    /// Drain mode: scan the spool once, fold everything new, checkpoint,
    /// print the report tables to stdout, exit. This is the batch-
    /// equivalent mode the CI smoke test compares against `analyze`.
    pub drain_once: bool,
    /// The longest watch mode waits between spool scans, in
    /// milliseconds (at least 50). A scan starts as soon as the spool
    /// directory's modification time changes, probed every
    /// `interval_ms / 25`; this bounds the wait for a change the probe
    /// cannot see, and is how often an idle cycle completes.
    pub interval_ms: u64,
    /// Write the bound HTTP address (e.g. `127.0.0.1:41873`) to this
    /// file once listening — how scripts and tests discover a `:0` bind.
    pub listen_addr_file: Option<std::path::PathBuf>,
    /// `/healthz` flips to 503 when no cycle has completed within
    /// `watchdog_cycles × interval_ms` milliseconds.
    pub watchdog_cycles: u64,
    /// Capacity of the trace journal ring (records; oldest evicted).
    pub trace_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 0,
            listen: None,
            drain_once: false,
            interval_ms: 1000,
            listen_addr_file: None,
            watchdog_cycles: 5,
            trace_capacity: 1024,
        }
    }
}

/// Stall watchdog state shared between the serve loop (writer) and the
/// `/healthz` handler (reader). All times are milliseconds on the
/// process-lifetime stopwatch — wall-clock data, never near an artifact.
struct ServeHealth {
    uptime: Stopwatch,
    window_ms: u64,
    last_cycle_end_ms: AtomicU64,
    cycles: AtomicU64,
    generation: AtomicU64,
}

impl ServeHealth {
    fn new(window_ms: u64) -> ServeHealth {
        ServeHealth {
            uptime: Stopwatch::start(),
            window_ms,
            last_cycle_end_ms: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Record a completed cycle (idle cycles count: the loop is alive).
    fn note_cycle(&self, generation: u64) {
        self.cycles.fetch_add(1, Relaxed);
        self.generation.store(generation, Relaxed);
        self.last_cycle_end_ms
            .store(self.uptime.elapsed_ms() as u64, Relaxed);
    }

    /// The `/healthz` response: `certchain-healthz/v1`, status 200 while
    /// cycles keep completing inside the watchdog window, 503 otherwise.
    fn response(&self) -> HttpResponse {
        let now = self.uptime.elapsed_ms() as u64;
        let since = now.saturating_sub(self.last_cycle_end_ms.load(Relaxed));
        let stalled = since > self.window_ms;
        let doc = JsonValue::Obj(vec![
            (
                "schema".into(),
                JsonValue::Str("certchain-healthz/v1".into()),
            ),
            (
                "status".into(),
                JsonValue::Str(if stalled { "stalled" } else { "ok" }.into()),
            ),
            (
                "cycles".into(),
                JsonValue::Num(self.cycles.load(Relaxed) as f64),
            ),
            ("since_last_cycle_ms".into(), JsonValue::Num(since as f64)),
            ("window_ms".into(), JsonValue::Num(self.window_ms as f64)),
            (
                "generation".into(),
                JsonValue::Num(self.generation.load(Relaxed) as f64),
            ),
        ]);
        let body = doc.to_pretty() + "\n";
        if stalled {
            HttpResponse::service_unavailable("application/json", body)
        } else {
            HttpResponse::ok("application/json", body)
        }
    }
}

/// What the HTTP endpoint serves. Report/status surfaces are
/// pre-rendered at publish time; `/metrics` is rendered per request by
/// merging the stored finalize snapshot with the live serve-loop
/// registry (whose stage timings and HTTP accounting move between
/// publishes).
#[derive(Debug, Clone, Default)]
struct Published {
    report: String,
    report_json: String,
    status_json: String,
    finalize: MetricsSnapshot,
}

/// Shared state captured by the HTTP handler.
#[derive(Clone)]
struct Endpoints {
    published: Arc<Mutex<Published>>,
    registry: Arc<Registry>,
    http_stats: Arc<HttpStats>,
    journal: Arc<TraceJournal>,
    health: Arc<ServeHealth>,
}

/// Run the serve loop. In drain mode returns the last published report
/// tables (exactly [`render`]'s output — `analyze` minus its
/// loss-accounting line): the start-up publish's when the one scan folds
/// nothing. In watch mode this blocks until the process is killed, which
/// is safe at any instant thanks to the checkpoint.
pub fn serve(
    dir: &Path,
    spool: &Path,
    checkpoint: &Path,
    opts: &ServeOptions,
) -> CliResult<String> {
    let corpus = Corpus::load(dir, opts.threads)?;
    let registry = Arc::new(Registry::new());
    let journal = Arc::new(TraceJournal::new(opts.trace_capacity.max(16)));
    let health = Arc::new(ServeHealth::new(
        opts.interval_ms
            .max(50)
            .saturating_mul(opts.watchdog_cycles.max(1)),
    ));
    let http_stats = Arc::new(HttpStats::new());
    let options = PipelineOptions {
        threads: opts.threads,
        ..PipelineOptions::default()
    };
    let pipeline = corpus
        .pipeline(options)
        .with_metrics(Arc::clone(&registry))
        .with_trace(Arc::clone(&journal));

    let mut state = match PipelineState::load_latest(checkpoint)
        .map_err(|e| CliError::Invalid(format!("checkpoint {}: {e}", checkpoint.display())))?
    {
        Some(s) => {
            eprintln!(
                "serve: resumed checkpoint gen {} ({} files folded, {} ssl records)",
                s.generation(),
                s.folded_files().len(),
                s.ssl_records()
            );
            s
        }
        None => {
            eprintln!(
                "serve: no checkpoint under {}, starting fresh",
                checkpoint.display()
            );
            PipelineState::new()
        }
    };

    let published = Arc::new(Mutex::new(Published::default()));
    // Publish the (possibly resumed, possibly empty) state before the
    // endpoint goes live, so no request ever sees an empty document. A
    // cycle publishes again only when it folded a file. The publisher's
    // first publish covers every chain; each later one only what the
    // cycle's folds changed.
    let mut publisher = Publisher::new();
    publish(
        &corpus,
        &mut state,
        &mut publisher,
        opts.threads,
        &published,
        None,
    );
    let endpoints = Endpoints {
        published: Arc::clone(&published),
        registry: Arc::clone(&registry),
        http_stats: Arc::clone(&http_stats),
        journal: Arc::clone(&journal),
        health: Arc::clone(&health),
    };
    let _server = match &opts.listen {
        Some(addr) => {
            let server = HttpServer::bind_with_stats(
                addr,
                http_handler(endpoints),
                Some(Arc::clone(&http_stats)),
            )
            .map_err(io_ctx(format!("binding {addr}")))?;
            eprintln!("serve: listening on http://{}/", server.local_addr());
            if let Some(path) = &opts.listen_addr_file {
                std::fs::write(path, format!("{}\n", server.local_addr()))
                    .map_err(io_ctx(format!("writing {}", path.display())))?;
            }
            Some(server)
        }
        None => None,
    };

    // Names already tallied as skipped (unrecognized or compressed), so
    // an idle spool does not re-count them every cycle. Process-local on
    // purpose: skip tallies are observability, not analysis state.
    let mut noted_skips: BTreeSet<String> = BTreeSet::new();
    loop {
        // Read before the scan lists the spool, so a file renamed in
        // during the scan moves it and wakes the wait below.
        let listed_at = spool_mtime(spool);
        // The per-cycle health timeline: one root span per scan cycle,
        // children for scan / fold / checkpoint / publish, summary attrs
        // on the cycle itself.
        let cycle = journal.span("serve.cycle");
        let folded = run_cycle(
            &pipeline,
            &mut state,
            spool,
            &registry,
            &mut noted_skips,
            &cycle,
        )?;
        if folded > 0 {
            let generation = state
                .save_checkpoint_traced(checkpoint, Some(&cycle))
                .map_err(|e| {
                    CliError::Invalid(format!("checkpoint {}: {e}", checkpoint.display()))
                })?;
            eprintln!(
                "serve: folded {folded} file{} -> checkpoint gen {generation}",
                if folded == 1 { "" } else { "s" }
            );
        }
        if folded > 0 {
            publish(
                &corpus,
                &mut state,
                &mut publisher,
                opts.threads,
                &published,
                Some(&cycle),
            );
        }
        cycle.attr("files_folded", folded.to_string());
        cycle.attr("ssl_records", state.ssl_records().to_string());
        cycle.attr("generation", state.generation().to_string());
        drop(cycle);
        health.note_cycle(state.generation());
        if opts.drain_once {
            return Ok(published
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .report
                .clone());
        }
        wait_for_spool(spool, listed_at, opts.interval_ms.max(50));
    }
}

/// The spool directory's modification time, `None` where it cannot be
/// read.
fn spool_mtime(spool: &Path) -> Option<SystemTime> {
    std::fs::metadata(spool).and_then(|m| m.modified()).ok()
}

/// Watch mode's wait between cycles: return once the spool's
/// modification time differs from `listed_at`, probing at once and then
/// every `interval_ms / 25`, or once `interval_ms` has passed. A file
/// renamed in while the cycle ran is seen by the first probe, before any
/// sleep.
fn wait_for_spool(spool: &Path, listed_at: Option<SystemTime>, interval_ms: u64) {
    let waited = Stopwatch::start();
    let budget_us = interval_ms.saturating_mul(1000);
    let probe_us = budget_us / 25;
    loop {
        if spool_mtime(spool) != listed_at {
            return;
        }
        let left_us = budget_us.saturating_sub(waited.elapsed_micros());
        if left_us == 0 {
            return;
        }
        std::thread::sleep(Duration::from_micros(probe_us.min(left_us)));
    }
}

/// One spool scan: order the recognizable rotated logs by rotation
/// timestamp, fold every file the ledger has not seen, tally the rest.
/// A file that does not frame is tallied as `spool.<kind>.unreadable`
/// and joins the ledger unfolded. Returns how many files joined it.
fn run_cycle(
    pipeline: &Pipeline<'_>,
    state: &mut PipelineState,
    spool: &Path,
    registry: &Registry,
    noted_skips: &mut BTreeSet<String>,
    cycle: &Span,
) -> CliResult<u64> {
    let scan = cycle.child("serve.scan");
    let mut names: Vec<String> = Vec::new();
    let entries =
        std::fs::read_dir(spool).map_err(io_ctx(format!("reading spool {}", spool.display())))?;
    for entry in entries {
        let entry = entry.map_err(io_ctx(format!("reading spool {}", spool.display())))?;
        // Anything but a directory is fair game: regular files are the
        // normal case, and named pipes let a feeder stream a rotation
        // straight into the fold.
        if !entry
            .file_type()
            .map_err(io_ctx(format!("stat {}", entry.path().display())))?
            .is_dir()
        {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    let (ordered, unrecognized) = order_spool(names.iter().map(String::as_str));
    scan.attr("files_seen", ordered.len().to_string());
    drop(scan);

    for name in unrecognized {
        if noted_skips.insert(name.to_string()) {
            registry.counter("spool.unrecognized").add(1);
            eprintln!("serve: skipping unrecognized spool file {name:?}");
        }
    }

    let mut folded = 0u64;
    for (log, name) in ordered {
        if state.has_folded(name) {
            continue;
        }
        if log.compressed {
            // The workspace is dependency-free: no gzip decoder. Skip
            // with a tally rather than failing the whole spool.
            if noted_skips.insert(name.to_string()) {
                registry.counter("spool.compressed_skipped").add(1);
                eprintln!("serve: skipping compressed spool file {name:?} (no gzip support)");
            }
            continue;
        }
        let fold_span = cycle.child("serve.fold");
        fold_span.attr("file", name);
        let rows_before = state.ssl_records() + state.x509_rows();
        match fold_file(
            &pipeline.under(&fold_span),
            state,
            &spool.join(name),
            log.kind,
        )? {
            Ok(()) => registry.counter("spool.files_folded").add(1),
            Err(e) => {
                // Skipped for good: tallied, and in the ledger below so a
                // restart does not retry it.
                eprintln!("serve: skipping unreadable spool file {name:?}: {e}");
                state.add_loss(&format!("spool.{}.unreadable", log.kind.prefix()), 1);
                fold_span.attr("unreadable", e.to_string());
            }
        }
        fold_span.attr(
            "rows",
            (state.ssl_records() + state.x509_rows() - rows_before).to_string(),
        );
        drop(fold_span);
        state.note_folded(name);
        folded += 1;
    }
    Ok(folded)
}

/// Fold one rotated log file into the state through a permissive stream:
/// x509 rows sequentially, ssl rows on the pipeline's workers. Malformed
/// rows are skipped and tallied into the state's persistent loss map
/// alongside the data they were lost from. The fold is all-or-nothing: a
/// file that does not frame (no `#fields` header, a line that is not
/// UTF-8, a failed read) leaves the state as it was, and its error comes
/// back as the inner `Err`.
fn fold_file(
    pipeline: &Pipeline<'_>,
    state: &mut PipelineState,
    path: &Path,
    kind: LogKind,
) -> CliResult<Result<(), ReadError>> {
    let file = std::fs::File::open(path).map_err(io_ctx(format!("reading {}", path.display())))?;
    let (stats, folded) = match kind {
        LogKind::Ssl => {
            let stream = SslLogStream::permissive(file);
            let stats = stream.stats();
            (stats, pipeline.fold_ssl_log(state, stream))
        }
        LogKind::X509 => {
            let stream = X509LogStream::permissive(file);
            let stats = stream.stats();
            // Every row is read before any is interned.
            let folded = stream
                .collect::<Result<Vec<_>, _>>()
                .and_then(|rows| pipeline.fold_x509_stream(state, rows.into_iter().map(Ok)));
            (stats, folded)
        }
    };
    if folded.is_ok() {
        let prefix = kind.prefix();
        state.add_loss(&format!("spool.{prefix}.lines"), stats.lines());
        state.add_loss(&format!("spool.{prefix}.malformed"), stats.malformed());
    }
    Ok(folded)
}

/// Bring the publisher's roll-up up to date with the state and publish
/// every HTTP surface from it. The publish runs on a fresh registry and
/// pipeline, so its counters are absolute per publish (see the module
/// doc); its snapshot is stored and merged with the live serve-loop
/// snapshot per `/metrics` request. Traced as `serve.publish`, with
/// `serve.finalize` (the publisher's stages under it) and `serve.render`
/// (report, JSON summary and status) children. Only the rendered
/// surfaces leave the publish.
fn publish(
    corpus: &Corpus,
    state: &mut PipelineState,
    publisher: &mut Publisher,
    threads: usize,
    published: &Mutex<Published>,
    trace: Option<&Span>,
) {
    let span = trace.map(|t| t.child("serve.publish"));
    let pass = |name: &str| span.as_ref().map(|s| s.child(name));
    let finalize_span = pass("serve.finalize");
    let finalize_registry = Arc::new(Registry::new());
    let options = PipelineOptions {
        threads,
        ..PipelineOptions::default()
    };
    let finalize_pipeline = corpus
        .pipeline(options)
        .with_metrics(Arc::clone(&finalize_registry));
    let rollup = match &finalize_span {
        Some(parent) => publisher.publish(&finalize_pipeline.under(parent), state),
        None => publisher.publish(&finalize_pipeline, state),
    };
    drop(finalize_span);
    if let Some(s) = &span {
        s.attr("distinct_chains", state.distinct_chains().to_string());
        s.attr("generation", state.generation().to_string());
    }
    let render_span = pass("serve.render");
    let next = Published {
        report: render(rollup),
        report_json: AnalysisSummary::from_rollup(rollup).to_json() + "\n",
        status_json: status_json(state).to_pretty() + "\n",
        finalize: finalize_registry.snapshot(),
    };
    drop(render_span);
    // A poisoned lock must not kill the daemon: `Published` is only ever
    // replaced wholesale with a fully-built value, so the data under a
    // poison flag is still the last complete publish. Recover and go on.
    *published
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = next;
}

/// Merge the long-lived serve-loop snapshot with the per-publish
/// finalize snapshot. Finalize wins on shared keys: its values are
/// absolute recomputations from state, which is exactly the current
/// truth; the serve side contributes the cumulative fold-path signals
/// the finalize pass never sees.
fn merge_snapshots(serve: MetricsSnapshot, finalize: MetricsSnapshot) -> MetricsSnapshot {
    let mut merged = serve;
    merged.counters.extend(finalize.counters);
    merged.gauges.extend(finalize.gauges);
    merged.histograms.extend(finalize.histograms);
    merged.stages.extend(finalize.stages);
    merged
}

/// The `/status` document (`certchain-serve/v1`): checkpoint position,
/// fold totals, and the persistent loss map.
fn status_json(state: &PipelineState) -> JsonValue {
    let loss = state
        .loss()
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
        .collect();
    let folded = state
        .folded_files()
        .iter()
        .map(|f| JsonValue::Str(f.clone()))
        .collect();
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::Str("certchain-serve/v1".into())),
        (
            "generation".into(),
            JsonValue::Num(state.generation() as f64),
        ),
        ("revision".into(), JsonValue::Num(state.revision() as f64)),
        (
            "ssl_records".into(),
            JsonValue::Num(state.ssl_records() as f64),
        ),
        (
            "no_chain_records".into(),
            JsonValue::Num(state.no_chain_records() as f64),
        ),
        ("x509_rows".into(), JsonValue::Num(state.x509_rows() as f64)),
        (
            "distinct_chains".into(),
            JsonValue::Num(state.distinct_chains() as f64),
        ),
        (
            "distinct_certificates".into(),
            JsonValue::Num(state.distinct_certificates() as f64),
        ),
        ("folded_files".into(), JsonValue::Arr(folded)),
        ("loss".into(), JsonValue::Obj(loss)),
    ])
}

/// The `/metrics` document for one request: the live serve-loop
/// snapshot (carrying fold counters, stage timings, and per-request
/// HTTP accounting) merged with the last publish's finalize snapshot.
fn live_metrics(ep: &Endpoints, p: &Published) -> MetricsSnapshot {
    let mut serve = ep.registry.snapshot();
    serve.http = Some(ep.http_stats.snapshot());
    merge_snapshots(serve, p.finalize.clone())
}

/// The HTTP routing table over the published surfaces, with content
/// negotiation on `/report` and `/metrics`: an explicit `?format=` wins,
/// then the `Accept` header, then the path's default. Unrecognized
/// formats get `406` plus a plain-text hint listing what is offered.
fn http_handler(ep: Endpoints) -> Arc<certchain_obs::http::Handler> {
    Arc::new(move |req: &HttpRequest| {
        // Keep serving the last complete publish even if a publisher
        // panicked while holding the lock (see `publish`).
        let p = ep
            .published
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        match req.path.as_str() {
            "/report" => match req.query_param("format") {
                Some("json") => HttpResponse::ok("application/json", p.report_json),
                Some("text") => HttpResponse::ok("text/plain; charset=utf-8", p.report),
                Some(_) => HttpResponse::not_acceptable(
                    "/report offers format=text (default) or format=json",
                ),
                None if req.accepts("application/json") => {
                    HttpResponse::ok("application/json", p.report_json)
                }
                None => HttpResponse::ok("text/plain; charset=utf-8", p.report),
            },
            "/report.json" => HttpResponse::ok("application/json", p.report_json),
            "/metrics" => match req.query_param("format") {
                Some("prometheus") => HttpResponse::ok(
                    PROMETHEUS_CONTENT_TYPE,
                    to_prometheus(&live_metrics(&ep, &p)),
                ),
                Some("json") => HttpResponse::ok(
                    "application/json",
                    live_metrics(&ep, &p).to_json().to_pretty() + "\n",
                ),
                Some(_) => HttpResponse::not_acceptable(
                    "/metrics offers format=json (default) or format=prometheus",
                ),
                None if req.accepts("text/plain") => HttpResponse::ok(
                    PROMETHEUS_CONTENT_TYPE,
                    to_prometheus(&live_metrics(&ep, &p)),
                ),
                None => HttpResponse::ok(
                    "application/json",
                    live_metrics(&ep, &p).to_json().to_pretty() + "\n",
                ),
            },
            "/trace.json" => {
                HttpResponse::ok("application/json", ep.journal.to_json().to_pretty() + "\n")
            }
            "/healthz" => ep.health.response(),
            "/status" | "/" => HttpResponse::ok("application/json", p.status_json),
            _ => HttpResponse::not_found(),
        }
    })
}

/// Split a dataset's batch logs into a spool of rotated files — the
/// inverse of what a Zeek deployment does, used by the CI smoke test
/// and for local experiments with `serve`.
///
/// `<dir>/ssl.log` and `<dir>/x509.log` are each split into `parts`
/// contiguous row ranges written as
/// `<out>/<kind>.2024-09-01-<HH>.log` (hour = part index), every part
/// carrying the original TSV header so the streams parse it standalone.
pub fn spool_split(dir: &Path, out: &Path, parts: u64) -> CliResult<String> {
    if parts == 0 || parts > 24 {
        return Err(CliError::Invalid(format!(
            "--parts must be between 1 and 24, got {parts}"
        )));
    }
    std::fs::create_dir_all(out).map_err(io_ctx(format!("creating {}", out.display())))?;
    let mut written = Vec::new();
    for kind in ["ssl", "x509"] {
        let src = dir.join(format!("{kind}.log"));
        let text =
            std::fs::read_to_string(&src).map_err(io_ctx(format!("reading {}", src.display())))?;
        let mut header = String::new();
        let mut data: Vec<&str> = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') {
                // Keep the preamble; drop the `#close` footer (each part
                // is an open-ended rotated file).
                if !line.starts_with("#close") {
                    header.push_str(line);
                    header.push('\n');
                }
            } else {
                data.push(line);
            }
        }
        let per = data.len().div_ceil(parts as usize).max(1);
        for (i, chunk) in data.chunks(per).enumerate() {
            let name = format!("{kind}.2024-09-01-{i:02}.log");
            let mut body = header.clone();
            for line in chunk {
                body.push_str(line);
                body.push('\n');
            }
            std::fs::write(out.join(&name), body)
                .map_err(io_ctx(format!("writing {}", out.join(&name).display())))?;
            written.push(name);
        }
    }
    written.sort();
    Ok(format!(
        "spooled {} file{} into {}:\n  {}\n",
        written.len(),
        if written.len() == 1 { "" } else { "s" },
        out.display(),
        written.join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How long `wait_for_spool` takes, in milliseconds.
    fn timed_wait(spool: &Path, listed_at: Option<SystemTime>, interval_ms: u64) -> u64 {
        let clock = Stopwatch::start();
        wait_for_spool(spool, listed_at, interval_ms);
        clock.elapsed_micros() / 1000
    }

    /// A spool whose time already differs from the listing's is rescanned
    /// without a sleep; the first probe at a 10 s interval would come
    /// only after 400 ms. An unchanged spool, and one whose time cannot
    /// be read, wait the whole interval.
    #[test]
    fn the_spool_wait_probes_before_it_sleeps() {
        let spool = std::env::temp_dir().join(format!("certchain-wait-{}", std::process::id()));
        std::fs::create_dir_all(&spool).unwrap();
        let now = spool_mtime(&spool).expect("a readable spool time");
        let before = now.checked_sub(Duration::from_secs(1));
        assert!(timed_wait(&spool, before, 10_000) < 200, "it slept first");
        assert!(timed_wait(&spool, Some(now), 100) >= 100, "unchanged spool");
        std::fs::remove_dir_all(&spool).unwrap();
        assert!(timed_wait(&spool, None, 100) >= 100, "unreadable time");
    }
}
