//! `certchain convert`: re-encode a dataset's Zeek TSV logs as the
//! mmap-backed columnar store, so subsequent `certchain analyze` runs
//! skip the parse stage entirely.
//!
//! Conversion streams both logs in permissive mode (malformed rows are
//! skipped and tallied, exactly like `analyze` does) into a
//! [`DatasetWriter`] under `<dir>/colstore/`. The manifest is written
//! last, so an interrupted conversion never leaves a store that
//! `analyze` would auto-detect.

use crate::dataset::{colstore_dir, load_trust};
use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::{CategoryOracle, CertTable};
use certchain_colstore::{CategorySet, DatasetWriter, WriterOptions, MANIFEST_FILE};
use certchain_netsim::{SslLogStream, X509LogStream};
use certchain_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Knobs for `certchain convert` beyond the dataset directory.
#[derive(Debug, Clone, Default)]
pub struct ConvertOptions {
    /// Write a `certchain-metrics/v1` snapshot to this path.
    pub metrics_json: Option<PathBuf>,
    /// Overwrite an existing columnar store. Without this, conversion
    /// refuses to clobber a directory that already holds a manifest.
    pub force: bool,
    /// Rows per segment (`None` = the format default).
    pub segment_rows: Option<u64>,
}

/// Convert `<dir>/ssl.log` + `<dir>/x509.log` into `<dir>/colstore/`.
/// Returns a short human-readable summary.
pub fn convert(dir: &Path) -> CliResult<String> {
    convert_opts(dir, &ConvertOptions::default())
}

/// The full `certchain convert` implementation.
pub fn convert_opts(dir: &Path, opts: &ConvertOptions) -> CliResult<String> {
    let registry = Arc::new(Registry::new());
    let store = colstore_dir(dir);
    if store.join(MANIFEST_FILE).is_file() && !opts.force {
        return Err(CliError::Invalid(format!(
            "{} already holds a columnar store; pass --force to overwrite it",
            store.display()
        )));
    }
    let writer_opts = WriterOptions {
        segment_rows: opts
            .segment_rows
            .unwrap_or(WriterOptions::default().segment_rows),
    };
    let col_err = |e: certchain_colstore::ColError| CliError::Invalid(format!("colstore: {e}"));
    // Trust material drives the per-segment category digests. A dataset
    // without it still converts — the store is then digest-less and
    // `analyze --filter-category` simply cannot skip segments over it.
    let trust = load_trust(dir).ok();
    let mut notice = String::new();
    if trust.is_none() {
        notice.push_str("notice: trust material unavailable; category digests omitted\n");
    }
    let manifest = {
        let _span = registry.stage("convert_total");
        let mut writer = DatasetWriter::create_with(&store, writer_opts).map_err(col_err)?;

        let x509_file = std::fs::File::open(dir.join("x509.log"))
            .map_err(io_ctx(format!("reading {}/x509.log", dir.display())))?;
        let x509_stream = X509LogStream::permissive(std::io::BufReader::new(x509_file));
        let x509_stats = x509_stream.stats();
        let mut table = CertTable::new();
        for rec in x509_stream {
            let rec = rec.map_err(|e| CliError::Invalid(format!("x509.log: {e}")))?;
            if trust.is_some() {
                table.fold(&rec);
            }
            writer.append_x509(&rec).map_err(col_err)?;
        }
        // The certificate table is complete, so the category of any chain
        // is now decidable — attach the digest provider, the same
        // category fold `analyze --filter-category` runs per row, before
        // the first ssl row lands.
        if let Some(trust) = &trust {
            let oracle = CategoryOracle::new(CategorySet::empty(), &table, trust);
            writer = writer.with_category_provider(oracle.into_provider());
        }

        let ssl_file = std::fs::File::open(dir.join("ssl.log"))
            .map_err(io_ctx(format!("reading {}/ssl.log", dir.display())))?;
        let ssl_stream = SslLogStream::permissive(std::io::BufReader::new(ssl_file));
        let ssl_stats = ssl_stream.stats();
        for rec in ssl_stream {
            let rec = rec.map_err(|e| CliError::Invalid(format!("ssl.log: {e}")))?;
            writer.append_ssl(&rec).map_err(col_err)?;
        }

        for (prefix, stats) in [("zeek.ssl", &ssl_stats), ("zeek.x509", &x509_stats)] {
            registry
                .counter(&format!("{prefix}.lines_read"))
                .add(stats.lines());
            registry
                .counter(&format!("{prefix}.records"))
                .add(stats.records());
            registry
                .counter(&format!("{prefix}.malformed"))
                .add(stats.malformed());
        }
        registry
            .counter("records_dropped")
            .add(ssl_stats.malformed() + x509_stats.malformed());
        writer.finish().map_err(col_err)?
    };
    if let Some(path) = &opts.metrics_json {
        let text = registry.snapshot().to_json().to_pretty() + "\n";
        std::fs::write(path, text)
            .map_err(io_ctx(format!("writing metrics to {}", path.display())))?;
    }
    Ok(format!(
        "{notice}wrote v{} store: {} ssl rows, {} x509 rows, {} dictionary entries, {} fingerprints to {}\n",
        manifest.version,
        manifest.ssl_rows,
        manifest.x509_rows,
        manifest.dict_entries,
        manifest.fp_entries,
        store.display()
    ))
}
