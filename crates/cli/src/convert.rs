//! `certchain convert`: re-encode a dataset's Zeek TSV logs as the
//! mmap-backed columnar store, so subsequent `certchain analyze` runs
//! skip the parse stage entirely.
//!
//! Conversion streams both logs in permissive mode (malformed rows are
//! skipped and tallied, exactly like `analyze` does) through the one
//! store rewrite `compact` also uses ([`crate::compact`]): the new store
//! is written beside `<dir>/colstore/`, manifest last, and renamed in
//! only once it is complete. So a conversion that fails (say, on a log
//! that is not valid UTF-8) or is interrupted never leaves a half-written
//! store that `analyze` would auto-detect: the previous store, if any,
//! stays as it was.
//!
//! Once the store is in place, `convert` compiles the CT index table
//! (`ct.idx`) from `ct/` if it is missing or stale
//! ([`compile_ct_table`]); a fresh table is only checked, never decoded.

use crate::compact::{rewrite_store, StoreRows};
use crate::dataset::{colstore_dir, compile_ct_table};
use crate::{io_ctx, CliError, CliResult};
use certchain_colstore::MANIFEST_FILE;
use certchain_netsim::{SslLogStream, SslRecord, StreamStats, X509LogStream, X509Record};
use certchain_obs::Registry;
use std::io::BufReader;
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
    let mut notices = String::new();
    let manifest = {
        let _span = registry.stage("convert_total");
        rewrite_store(dir, opts.segment_rows, &mut notices, || {
            Ok(ZeekLogs {
                dir,
                registry: &registry,
            })
        })?
    };
    let ct_notices = {
        let _span = registry.stage("compile_ct_table");
        compile_ct_table(dir, 0)?
    };
    if let Some(path) = &opts.metrics_json {
        let text = registry.snapshot().to_json().to_pretty() + "\n";
        std::fs::write(path, text)
            .map_err(io_ctx(format!("writing metrics to {}", path.display())))?;
    }
    Ok(format!(
        "{notices}wrote v{} store: {} ssl rows, {} x509 rows, {} dictionary entries, {} fingerprints to {}\n{ct_notices}",
        manifest.version,
        manifest.ssl_rows,
        manifest.x509_rows,
        manifest.dict_entries,
        manifest.fp_entries,
        store.display()
    ))
}

/// A dataset's Zeek logs as store rows. Once a log is read, its line,
/// record and malformed-row tallies go into `registry`, and its
/// malformed rows into `records_dropped`, which so sums both logs.
pub(crate) struct ZeekLogs<'a> {
    pub(crate) dir: &'a Path,
    pub(crate) registry: &'a Registry,
}

impl ZeekLogs<'_> {
    fn open(&self, name: &str) -> CliResult<BufReader<std::fs::File>> {
        let file = std::fs::File::open(self.dir.join(name))
            .map_err(io_ctx(format!("reading {}/{name}", self.dir.display())))?;
        Ok(BufReader::new(file))
    }

    fn tally(&self, prefix: &str, stats: &StreamStats) {
        let counter = |name: &str| self.registry.counter(&format!("{prefix}.{name}"));
        counter("lines_read").add(stats.lines());
        counter("records").add(stats.records());
        counter("malformed").add(stats.malformed());
        self.registry
            .counter("records_dropped")
            .add(stats.malformed());
    }
}

impl StoreRows for ZeekLogs<'_> {
    fn x509(&mut self, each: &mut dyn FnMut(&X509Record) -> CliResult<()>) -> CliResult<()> {
        let stream = X509LogStream::permissive(self.open("x509.log")?);
        let stats = stream.stats();
        for rec in stream {
            each(&rec.map_err(|e| CliError::Invalid(format!("x509.log: {e}")))?)?;
        }
        self.tally("zeek.x509", &stats);
        Ok(())
    }

    fn ssl(&mut self, each: &mut dyn FnMut(&SslRecord) -> CliResult<()>) -> CliResult<()> {
        let stream = SslLogStream::permissive(self.open("ssl.log")?);
        let stats = stream.stats();
        for rec in stream {
            each(&rec.map_err(|e| CliError::Invalid(format!("ssl.log: {e}")))?)?;
        }
        self.tally("zeek.ssl", &stats);
        Ok(())
    }
}
