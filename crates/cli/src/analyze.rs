//! `certchain analyze`: run the full chain-analysis pipeline over an
//! on-disk dataset (synthetic or real Zeek logs with the same fields).

use crate::dataset::{colstore_dir, detect_format, Corpus, DatasetFormat};
use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::{Analysis, ChainCategoryLabel, Pipeline, ReportRollup};
use certchain_chainlab::{PipelineOptions, PipelineState, RowFilter};
use certchain_colstore::{DatasetReader, MapMode};
use certchain_netsim::{SslLogStream, StreamStats, X509LogStream};
use certchain_obs::{Progress, Registry};
use certchain_report::table::{num, pct};
use certchain_report::Table;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Knobs for `certchain analyze` beyond the dataset directory.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Worker threads (`0` = available parallelism).
    pub threads: usize,
    /// Emit the machine-readable JSON summary instead of tables.
    pub json: bool,
    /// Write a `certchain-metrics/v1` snapshot to this path.
    pub metrics_json: Option<PathBuf>,
    /// Report live progress (records/sec, queue depth) on stderr.
    pub progress: bool,
    /// Print the stage-timing and counter summary on stderr at the end.
    pub verbose: bool,
    /// Force a log representation instead of auto-detecting (`None`).
    /// The report tables and JSON are byte-identical either way; only
    /// the human report's loss-accounting line reflects the source.
    pub format: Option<DatasetFormat>,
    /// Keep only connections to this responder port. Filtered-out rows
    /// are invisible to the whole analysis; on a columnar store the
    /// filter also skips whole segments via zone maps. The report is
    /// byte-identical across formats and thread counts either way.
    pub filter_port: Option<u16>,
    /// Keep only connections that sent exactly this SNI.
    pub filter_sni: Option<String>,
    /// Keep only connections whose chain's structural category is in
    /// this set. On a columnar store carrying category digests, the
    /// filter skips whole segments whose digest proves no row matches.
    pub filter_category: Option<certchain_colstore::CategorySet>,
}

impl AnalyzeOptions {
    /// The pipeline-level row predicate these options describe.
    fn row_filter(&self) -> RowFilter {
        RowFilter {
            port: self.filter_port,
            sni: self.filter_sni.clone(),
            categories: self.filter_category,
        }
    }
}

/// Input-side loss accounting, per source format. The TSV path tallies
/// parse losses; the columnar path has no parse stage, so its row counts
/// come straight from the validated manifest.
enum LossStats {
    Tsv {
        ssl: Arc<StreamStats>,
        x509: Arc<StreamStats>,
    },
    Columnar {
        ssl_rows: u64,
        x509_rows: u64,
    },
}

/// Analyze `<dir>/ssl.log` + `<dir>/x509.log` against the trust material
/// and CT corpus in the same directory, using all available cores.
/// Returns the rendered report.
pub fn analyze(dir: &Path) -> CliResult<String> {
    analyze_with(dir, 0)
}

/// Like [`analyze`], on `threads` worker threads (`0` = available
/// parallelism). The report is identical for every thread count.
pub fn analyze_with(dir: &Path, threads: usize) -> CliResult<String> {
    analyze_opts(
        dir,
        &AnalyzeOptions {
            threads,
            ..AnalyzeOptions::default()
        },
    )
}

/// Like [`analyze`], but emit the machine-readable JSON summary.
pub fn analyze_json(dir: &Path) -> CliResult<String> {
    analyze_json_with(dir, 0)
}

/// Like [`analyze_json`], on `threads` worker threads.
pub fn analyze_json_with(dir: &Path, threads: usize) -> CliResult<String> {
    analyze_opts(
        dir,
        &AnalyzeOptions {
            threads,
            json: true,
            ..AnalyzeOptions::default()
        },
    )
}

/// The full `certchain analyze` implementation: streams the logs in
/// permissive (loss-accounting) mode, runs the instrumented pipeline, and
/// honors every [`AnalyzeOptions`] knob. The table/JSON report bytes are
/// identical whatever the observability settings — metrics ride alongside
/// the analysis, never inside it.
///
/// The finished analysis (and the TSV path's folded state) is freed on
/// a detached thread, so this returns without waiting for the frees.
pub fn analyze_opts(dir: &Path, opts: &AnalyzeOptions) -> CliResult<String> {
    let format = match opts.format {
        Some(f) => f,
        None => detect_format(dir)?,
    };
    let registry = Arc::new(Registry::new());
    let (analysis, loss, state) = {
        let _total = registry.stage("analyze_total");
        match format {
            DatasetFormat::Tsv => {
                let (analysis, loss, state) = run_observed(dir, opts, &registry)?;
                (analysis, loss, Some(state))
            }
            DatasetFormat::Columnar => {
                let (analysis, loss) = run_observed_colstore(dir, opts, &registry)?;
                (analysis, loss, None)
            }
        }
    };
    let dropped = match &loss {
        LossStats::Tsv { ssl, x509 } => {
            record_stream_stats(&registry, "zeek.ssl", ssl);
            record_stream_stats(&registry, "zeek.x509", x509);
            ssl.malformed() + x509.malformed()
        }
        // A columnar store is write-validated; there is nothing to drop.
        // Still touch the counter so snapshot keys are format-stable.
        LossStats::Columnar { .. } => 0,
    };
    registry.counter("records_dropped").add(dropped);

    let out = if opts.json {
        let mut json = certchain_chainlab::AnalysisSummary::from_analysis(&analysis).to_json();
        json.push('\n');
        json
    } else {
        let mut text = render(&ReportRollup::from_analysis(&analysis, false));
        text.push_str(&loss_line(&analysis, &loss));
        text
    };

    if let Some(path) = &opts.metrics_json {
        let text = registry.snapshot().to_json().to_pretty() + "\n";
        std::fs::write(path, text)
            .map_err(io_ctx(format!("writing metrics to {}", path.display())))?;
    }
    if opts.verbose {
        eprint!("{}", verbose_summary(&registry));
    }
    // Free the analysis on a detached thread: `certchain analyze` exits
    // after printing without waiting for the frees, and a library
    // caller's process finishes them in the background. Nobody joins it,
    // as a drop does not panic; a failed spawn drops the closure, and
    // the analysis with it, here.
    let _ = std::thread::Builder::new().spawn(move || drop((analysis, state)));
    Ok(out)
}

/// Run the pipeline and return the raw analysis (used by tests).
pub fn run_pipeline(dir: &Path) -> CliResult<(Analysis, certchain_trust::TrustDb)> {
    run_pipeline_with(dir, 0)
}

/// [`run_pipeline`] with an explicit worker-thread count, applied to both
/// the ssl.log parse and the analysis stages.
///
/// The logs are *streamed* off disk into the pipeline — neither file is
/// ever loaded into a single `String`, so peak memory is bounded by the
/// number of distinct chains and certificates, not by connection volume.
/// Strict: the first malformed row (the lowest-numbered one) fails the
/// run.
pub fn run_pipeline_with(
    dir: &Path,
    threads: usize,
) -> CliResult<(Analysis, certchain_trust::TrustDb)> {
    let ssl_file = std::fs::File::open(dir.join("ssl.log"))
        .map_err(io_ctx(format!("reading {}/ssl.log", dir.display())))?;
    let x509_file = std::fs::File::open(dir.join("x509.log"))
        .map_err(io_ctx(format!("reading {}/x509.log", dir.display())))?;
    let corpus = Corpus::load(dir, threads)?;
    let options = PipelineOptions {
        threads,
        ..PipelineOptions::default()
    };
    let (analysis, _state) = analyze_logs(
        &corpus.pipeline(options),
        SslLogStream::new(ssl_file),
        X509LogStream::new(x509_file),
    )?;
    Ok((analysis, corpus.trust))
}

/// Fold x509.log sequentially, then ssl.log on the pipeline's workers,
/// and finalize: the TSV path. Both logs are read in blocks of whole
/// lines, so they need no buffered reader. Returns the analysis and the
/// folded state it was finalized from, a one-shot state that keeps no
/// x509 rows.
fn analyze_logs<R: std::io::Read>(
    pipeline: &Pipeline<'_>,
    ssl: SslLogStream<R>,
    x509: X509LogStream<R>,
) -> CliResult<(Analysis, PipelineState)> {
    let mut state = PipelineState::one_shot();
    pipeline.fold_x509_stream(
        &mut state,
        x509.map(|r| r.map_err(|e| CliError::Invalid(format!("x509.log: {e}")))),
    )?;
    pipeline
        .fold_ssl_log(&mut state, ssl)
        .map_err(|e| CliError::Invalid(format!("ssl.log: {e}")))?;
    Ok((pipeline.finalize_state(&state), state))
}

/// Load the dataset's corpus on `opts.threads` workers, timed as the
/// `load_corpus` stage.
fn load_corpus(dir: &Path, opts: &AnalyzeOptions, registry: &Registry) -> CliResult<Corpus> {
    let _stage = registry.stage("load_corpus");
    Corpus::load(dir, opts.threads)
}

/// The observed pipeline over `corpus`: `opts`' threads and row filter,
/// the metrics registry, and progress reporting when asked for.
fn observed_pipeline<'a>(
    corpus: &'a Corpus,
    opts: &AnalyzeOptions,
    registry: &Arc<Registry>,
) -> Pipeline<'a> {
    let options = PipelineOptions {
        threads: opts.threads,
        filter: opts.row_filter(),
        ..PipelineOptions::default()
    };
    let pipeline = corpus.pipeline(options).with_metrics(Arc::clone(registry));
    if opts.progress {
        pipeline.with_progress(Arc::new(Progress::stderr("analyze")))
    } else {
        pipeline
    }
}

/// The observed pipeline run behind [`analyze_opts`]: permissive streams
/// (malformed rows skipped and tallied, header problems still fatal), the
/// metrics registry attached, and optional progress reporting. Returns
/// the folded state beside the analysis.
fn run_observed(
    dir: &Path,
    opts: &AnalyzeOptions,
    registry: &Arc<Registry>,
) -> CliResult<(Analysis, LossStats, PipelineState)> {
    let ssl_file = std::fs::File::open(dir.join("ssl.log"))
        .map_err(io_ctx(format!("reading {}/ssl.log", dir.display())))?;
    let x509_file = std::fs::File::open(dir.join("x509.log"))
        .map_err(io_ctx(format!("reading {}/x509.log", dir.display())))?;
    let corpus = load_corpus(dir, opts, registry)?;
    let ssl = SslLogStream::permissive(ssl_file);
    let ssl_stats = ssl.stats();
    let x509 = X509LogStream::permissive(x509_file);
    let x509_stats = x509.stats();
    let (analysis, state) = analyze_logs(&observed_pipeline(&corpus, opts, registry), ssl, x509)?;
    let loss = LossStats::Tsv {
        ssl: ssl_stats,
        x509: x509_stats,
    };
    Ok((analysis, loss, state))
}

/// The columnar counterpart of [`run_observed`]: map the store, fold
/// straight off the columns — no parse stage, no reading thread. The
/// report is byte-identical to the TSV path over the same records.
fn run_observed_colstore(
    dir: &Path,
    opts: &AnalyzeOptions,
    registry: &Arc<Registry>,
) -> CliResult<(Analysis, LossStats)> {
    let store = colstore_dir(dir);
    let reader = DatasetReader::open(&store, MapMode::Auto)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", store.display())))?;
    let corpus = load_corpus(dir, opts, registry)?;
    let analysis = observed_pipeline(&corpus, opts, registry)
        .analyze_colstore(&reader)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", store.display())))?;
    Ok((
        analysis,
        LossStats::Columnar {
            ssl_rows: reader.ssl_rows(),
            x509_rows: reader.x509_rows(),
        },
    ))
}

/// Transfer one stream's loss-accounting tallies into the registry under
/// `prefix` (`zeek.ssl` / `zeek.x509`): lines read, records yielded, a
/// malformed total, and one counter per parse-failure reason.
fn record_stream_stats(registry: &Registry, prefix: &str, stats: &StreamStats) {
    registry
        .counter(&format!("{prefix}.lines_read"))
        .add(stats.lines());
    registry
        .counter(&format!("{prefix}.records"))
        .add(stats.records());
    registry
        .counter(&format!("{prefix}.malformed"))
        .add(stats.malformed());
    for (reason, n) in stats.malformed_by_reason() {
        registry
            .counter(&format!("{prefix}.malformed.{reason}"))
            .add(n);
    }
}

/// The one-line loss-accounting summary appended to the human report:
/// every input line either became a record, was a header/comment, or is
/// tallied here as malformed; every record either reached a chain or is
/// tallied as no-chain/unresolvable. The columnar store has no parse
/// stage, so its line reports manifest row counts instead.
fn loss_line(analysis: &Analysis, loss: &LossStats) -> String {
    let source = match loss {
        LossStats::Tsv { ssl, x509 } => format!(
            "ssl.log {} lines -> {} records ({} malformed); \
             x509.log {} lines -> {} records ({} malformed)",
            ssl.lines(),
            ssl.records(),
            ssl.malformed(),
            x509.lines(),
            x509.records(),
            x509.malformed(),
        ),
        LossStats::Columnar {
            ssl_rows,
            x509_rows,
        } => format!("colstore {ssl_rows} ssl rows, {x509_rows} x509 rows"),
    };
    format!(
        "loss accounting: {source}; {} no-chain, {} unresolvable\n",
        analysis.no_chain_records, analysis.unresolvable_records,
    )
}

/// The `-v` stderr epilogue: stage wall times and deterministic counters.
fn verbose_summary(registry: &Registry) -> String {
    let snap = registry.snapshot();
    let mut out = String::from("stage timings:\n");
    for (name, stage) in &snap.stages {
        out.push_str(&format!(
            "  {name:<16} {:>10.1} ms  ({} invocation{})\n",
            stage.wall_ms,
            stage.invocations,
            if stage.invocations == 1 { "" } else { "s" }
        ));
    }
    out.push_str("counters:\n");
    for (name, value) in &snap.counters {
        out.push_str(&format!("  {name:<32} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!("  {name:<32} {value}\n"));
    }
    out
}

/// Render the human report tables from a roll-up (shared with `certchain
/// serve`, whose drain-mode stdout must stay byte-identical to `analyze`
/// minus the loss-accounting line). The tables show no client-address
/// count, so a roll-up built without addresses renders them whole.
pub(crate) fn render(rollup: &ReportRollup) -> String {
    let mut out = String::new();
    let mut census = Table::new(
        "Chain census",
        &[
            "Category",
            "#. Chains",
            "Connections",
            "Established",
            "No-SNI",
        ],
    );
    for (name, cat) in [
        ("Public-DB-only", ChainCategoryLabel::PublicOnly),
        ("Non-public-DB-only", ChainCategoryLabel::NonPublicOnly),
        ("Hybrid", ChainCategoryLabel::Hybrid),
        ("TLS interception", ChainCategoryLabel::Interception),
    ] {
        let group = rollup.category(cat);
        census.row(&[
            name.to_string(),
            num(group.chains as f64, 0),
            num(group.connections().to_f64(), 0),
            pct(group.established_rate()),
            pct(group.no_sni_rate()),
        ]);
    }
    out.push_str(&census.render());

    // Hybrid taxonomy.
    use certchain_chainlab::HybridCategory as H;
    let mut hybrid = Table::new("Hybrid chains", &["Category", "#. Chains"]);
    hybrid.row(&[
        "Complete: non-public leaf to public anchor".into(),
        rollup.hybrid(H::CompleteNonPubToPub).to_string(),
    ]);
    hybrid.row(&[
        "Complete: public chained to private".into(),
        rollup.hybrid(H::CompletePubToPrv).to_string(),
    ]);
    hybrid.row(&[
        "Contains a complete matched path".into(),
        rollup.hybrid(H::ContainsPath).to_string(),
    ]);
    hybrid.row(&[
        "No complete matched path".into(),
        rollup.hybrid_no_path().to_string(),
    ]);
    out.push('\n');
    out.push_str(&hybrid.render());

    out.push_str(&format!(
        "\ninterception entities: {}\nDGA-cluster chains: {}\nTLS 1.3 records (no chain): {}\nunresolvable records: {}\n",
        rollup.interception_entities.len(),
        rollup.dga_chains,
        rollup.no_chain_records,
        rollup.unresolvable_records,
    ));
    out
}
