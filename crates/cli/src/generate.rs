//! `certchain generate`: export a synthetic campus dataset to disk.
//!
//! The Zeek logs are written *while the trace is generated*: a
//! [`TraceSink`] feeds each record straight into the incremental log
//! writers, so the connection stream is never materialized in memory.
//! Only the compact sidecars (trust material, CT corpus, disclosures) go
//! through the in-memory trace context. The CT index table (`ct.idx`) is
//! then compiled from the PEM files just written, as `convert` compiles
//! it ([`compile_ct_table`]). `--format columnar` writes the logs beside
//! the store, then the store from them through the one store rewrite
//! `convert` and `compact` use, once the trust material it computes the
//! category digests with is in place; so its store is the one written by
//! `generate` and then `convert`.

use crate::compact::rewrite_store;
use crate::convert::ZeekLogs;
use crate::dataset::{colstore_dir, compile_ct_table, remove_ct_table, DatasetFormat};
use crate::{io_ctx, CliError, CliResult};
use certchain_netsim::zeek::tsv::{SslLogWriter, X509LogWriter};
use certchain_netsim::{SimClock, SslRecord, X509Record};
use certchain_obs::{Progress, Registry};
use certchain_workload::{CampusProfile, CampusTrace, ConnMeta, TraceSink};
use certchain_x509::pem;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Records between progress ticks from the file sink.
const PROGRESS_EVERY: u64 = 8192;

/// Knobs for `certchain generate` beyond profile and output directory.
#[derive(Debug, Clone)]
pub struct GenerateOptions {
    /// Worker threads (`0` = available parallelism).
    pub threads: usize,
    /// Report live progress (records/sec) on stderr.
    pub progress: bool,
    /// Write a `certchain-metrics/v1` snapshot to this path.
    pub metrics_json: Option<PathBuf>,
    /// Log representation to write: Zeek TSV (the default) or the
    /// columnar store. Sidecars are identical either way, and analyzing
    /// either representation yields byte-identical reports.
    pub format: DatasetFormat,
}

impl Default for GenerateOptions {
    fn default() -> GenerateOptions {
        GenerateOptions {
            threads: 0,
            progress: false,
            metrics_json: None,
            format: DatasetFormat::Tsv,
        }
    }
}

/// Generate a trace with `profile` and write the full dataset to `out`,
/// using all available cores.
///
/// Returns a short human-readable summary.
pub fn generate(out: &Path, profile: CampusProfile) -> CliResult<String> {
    generate_with(out, profile, 0)
}

/// Like [`generate`], on `threads` worker threads (`0` = available
/// parallelism). The dataset is identical for every thread count, and
/// identical to writing a fully materialized [`CampusTrace`].
pub fn generate_with(out: &Path, profile: CampusProfile, threads: usize) -> CliResult<String> {
    generate_opts(
        out,
        profile,
        &GenerateOptions {
            threads,
            ..GenerateOptions::default()
        },
    )
}

/// The full `certchain generate` implementation, honoring every
/// [`GenerateOptions`] knob. The dataset bytes are identical whatever the
/// observability settings.
pub fn generate_opts(
    out: &Path,
    profile: CampusProfile,
    opts: &GenerateOptions,
) -> CliResult<String> {
    for sub in ["trust/roots", "trust/ccadb", "ct"] {
        std::fs::create_dir_all(out.join(sub))
            .map_err(io_ctx(format!("creating {}", out.join(sub).display())))?;
    }
    // A table from an earlier run into `out` lists the PEM files this run
    // rewrites.
    remove_ct_table(out)?;
    let registry = Arc::new(Registry::new());
    let logs = match opts.format {
        DatasetFormat::Tsv => out.to_path_buf(),
        DatasetFormat::Columnar => columnar_logs_dir(out)?,
    };
    let (ctx, ssl_count, x509_count) = generate_tsv(&logs, profile, opts, &registry)?;
    {
        let _span = registry.stage("write_sidecars");
        write_sidecars(out, &ctx.servers, &ctx.eco, &ctx.cross_sign_disclosures)?;
    }
    let mut notices = {
        let _span = registry.stage("compile_ct_table");
        compile_ct_table(out, opts.threads)?
    };
    if opts.format == DatasetFormat::Columnar {
        let _span = registry.stage("write_store");
        // The logs' tallies are `convert`'s to report, not generate's.
        let tallies = Registry::new();
        let written = rewrite_store(out, None, &mut notices, || {
            Ok(ZeekLogs {
                dir: &logs,
                registry: &tallies,
            })
        });
        std::fs::remove_dir_all(&logs).map_err(io_ctx(format!("removing {}", logs.display())))?;
        written?;
    }
    if let Some(path) = &opts.metrics_json {
        let text = registry.snapshot().to_json().to_pretty() + "\n";
        std::fs::write(path, text)
            .map_err(io_ctx(format!("writing metrics to {}", path.display())))?;
    }
    Ok(format!(
        "{notices}wrote {} connection records, {} certificates, {} servers to {}",
        ssl_count,
        x509_count,
        ctx.servers.len(),
        out.display()
    ))
}

/// Where `generate --format columnar` writes its TSV logs: a directory
/// beside the store, which [`rewrite_store`] reads the store from and
/// which is removed after. A leftover from an interrupted run is removed
/// first.
fn columnar_logs_dir(out: &Path) -> CliResult<PathBuf> {
    let logs = colstore_dir(out).with_file_name("colstore.tmp-logs");
    if logs.exists() {
        std::fs::remove_dir_all(&logs)
            .map_err(io_ctx(format!("removing leftover {}", logs.display())))?;
    }
    std::fs::create_dir_all(&logs).map_err(io_ctx(format!("creating {}", logs.display())))?;
    Ok(logs)
}

/// The log-writing body of [`generate_opts`]: the Zeek TSV logs, into
/// `logs`.
fn generate_tsv(
    logs: &Path,
    profile: CampusProfile,
    opts: &GenerateOptions,
    registry: &Arc<Registry>,
) -> CliResult<(certchain_workload::trace::TraceContext, u64, u64)> {
    let open = SimClock::campus_window_start().now();
    let ssl = std::io::BufWriter::new(
        std::fs::File::create(logs.join("ssl.log")).map_err(io_ctx("creating ssl.log"))?,
    );
    let x509 = std::io::BufWriter::new(
        std::fs::File::create(logs.join("x509.log")).map_err(io_ctx("creating x509.log"))?,
    );
    let mut sink = FileSink {
        ssl: SslLogWriter::new(ssl, open).map_err(io_ctx("writing ssl.log"))?,
        x509: X509LogWriter::new(x509, open).map_err(io_ctx("writing x509.log"))?,
        ssl_count: 0,
        x509_count: 0,
        progress: opts.progress.then(|| Progress::stderr("generate")),
    };
    let ctx = {
        let _span = registry.stage("generate_total");
        CampusTrace::stream_observed(profile, opts.threads, &mut sink, Some(registry))?
    };
    if let Some(p) = &sink.progress {
        p.finish(sink.ssl_count);
    }
    sink.ssl
        .finish()
        .and_then(|mut w| w.flush())
        .map_err(io_ctx("closing ssl.log"))?;
    sink.x509
        .finish()
        .and_then(|mut w| w.flush())
        .map_err(io_ctx("closing x509.log"))?;
    Ok((ctx, sink.ssl_count, sink.x509_count))
}

/// The streaming sink: every record goes straight to its log writer.
struct FileSink<W1: Write, W2: Write> {
    ssl: SslLogWriter<W1>,
    x509: X509LogWriter<W2>,
    ssl_count: u64,
    x509_count: u64,
    progress: Option<Progress>,
}

impl<W1: Write, W2: Write> TraceSink for FileSink<W1, W2> {
    type Error = CliError;

    fn ssl(&mut self, record: SslRecord, _meta: ConnMeta) -> Result<(), CliError> {
        self.ssl_count += 1;
        if let Some(p) = &self.progress {
            if self.ssl_count % PROGRESS_EVERY == 0 {
                p.tick(self.ssl_count, 0, &[]);
            }
        }
        self.ssl.record(&record).map_err(io_ctx("writing ssl.log"))
    }

    fn x509(&mut self, record: X509Record) -> Result<(), CliError> {
        self.x509_count += 1;
        self.x509
            .record(&record)
            .map_err(io_ctx("writing x509.log"))
    }
}

/// The non-log dataset files, the same for either log format: trust
/// material, CT corpus, cross-signing disclosures, sample chain.
fn write_sidecars(
    out: &Path,
    servers: &[certchain_workload::servers::GeneratedServer],
    eco: &certchain_workload::Ecosystem,
    cross_sign_disclosures: &[(
        certchain_x509::DistinguishedName,
        certchain_x509::DistinguishedName,
    )],
) -> CliResult<()> {
    // Trust material: roots (deduplicated across programs) and CCADB,
    // each numbered in fingerprint order, so a seed always writes the
    // same files whatever order the stores hash them in.
    let roots: BTreeMap<_, _> = eco
        .trust
        .stores()
        .values()
        .flat_map(|store| store.iter())
        .map(|root| (root.fingerprint(), root))
        .collect();
    for (i, root) in roots.values().enumerate() {
        let path = out.join(format!("trust/roots/root-{i:03}.pem"));
        std::fs::write(&path, pem::encode("CERTIFICATE", root.der()))
            .map_err(io_ctx(format!("writing {}", path.display())))?;
    }
    let icas: BTreeMap<_, _> = eco
        .trust
        .ccadb()
        .iter()
        .map(|entry| (entry.cert.fingerprint(), &entry.cert))
        .collect();
    for (i, ica) in icas.values().enumerate() {
        let path = out.join(format!("trust/ccadb/ica-{i:03}.pem"));
        std::fs::write(&path, pem::encode("CERTIFICATE", ica.der()))
            .map_err(io_ctx(format!("writing {}", path.display())))?;
    }

    // CT corpus.
    for (i, entry) in eco.ct.entries().iter().enumerate() {
        let path = out.join(format!("ct/logged-{i:05}.pem"));
        std::fs::write(&path, pem::encode("CERTIFICATE", entry.cert.der()))
            .map_err(io_ctx(format!("writing {}", path.display())))?;
    }

    // Cross-signing disclosures.
    let mut tsv = String::from("# subject<TAB>alternate issuer\n");
    for (subject, issuer) in cross_sign_disclosures {
        tsv.push_str(&format!(
            "{}\t{}\n",
            subject.to_rfc4514(),
            issuer.to_rfc4514()
        ));
    }
    std::fs::write(out.join("crosssign.tsv"), tsv).map_err(io_ctx("writing crosssign.tsv"))?;

    // A sample delivered chain for `certchain validate`: the first hybrid
    // contains-path server (complete path + unnecessary certificate).
    if let Some(server) = servers.iter().find(|s| {
        matches!(
            s.category,
            certchain_workload::trace::ChainCategory::Hybrid(
                certchain_workload::trace::HybridKind::ContainsPath(_)
            )
        )
    }) {
        let mut text = String::new();
        for cert in &server.endpoint.chain {
            text.push_str(&pem::encode("CERTIFICATE", cert.der()));
        }
        std::fs::write(out.join("sample-chain.pem"), text)
            .map_err(io_ctx("writing sample-chain.pem"))?;
    }
    Ok(())
}
