//! `certchain compact`: rewrite a dataset's columnar store in the
//! current (v2) segmented format — the live-migration path for stores
//! written by older builds, and a re-segmenter for tuning
//! `--segment-rows`. Recompacting a store that is already v2 is a
//! supported path too: every column re-encodes under the newest codec
//! set (picking up codecs added since the store was written, e.g. the
//! frame-of-reference packing for `ssl.orig_h`) and the per-segment
//! category digests are recomputed, upgrading digest-less stores in
//! place.
//!
//! [`rewrite_store`] is the one way a store is written over: `compact`
//! feeds it the rows of the open store, `convert` the rows of the Zeek
//! logs. It never edits the live store in place. Records stream into a
//! fresh writer in a sibling temporary directory; the new manifest is
//! written last, and only then does the new directory replace the old
//! one by rename. A rewrite that fails or is interrupted leaves the
//! previous store (or none) untouched and at worst a leftover
//! `colstore.tmp-compact/` (or, if the crash hit the swap window,
//! `colstore.pre-compact/`) — the next run of either command cleans
//! those up itself, printing a one-line notice, instead of demanding
//! operator surgery.

use crate::dataset::{colstore_dir, load_trust};
use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::{CategoryOracle, CertTable};
use certchain_colstore::{
    CategorySet, ColError, DatasetReader, DatasetWriter, Manifest, MapMode, WriterOptions,
};
use certchain_netsim::{SslRecord, X509Record};
use certchain_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Knobs for `certchain compact` beyond the dataset directory.
#[derive(Debug, Clone, Default)]
pub struct CompactOptions {
    /// Write a `certchain-metrics/v1` snapshot to this path.
    pub metrics_json: Option<PathBuf>,
    /// Rows per segment in the rewritten store (`None` = format default).
    pub segment_rows: Option<u64>,
}

/// Compact `<dir>/colstore/` into the current format. Returns a short
/// human-readable summary including the size change.
pub fn compact(dir: &Path) -> CliResult<String> {
    compact_opts(dir, &CompactOptions::default())
}

/// The full `certchain compact` implementation.
pub fn compact_opts(dir: &Path, opts: &CompactOptions) -> CliResult<String> {
    let registry = Arc::new(Registry::new());
    let store = colstore_dir(dir);
    let mut notices = String::new();
    let (from_version, before, after) = {
        let _span = registry.stage("compact_total");
        let (mut from_version, mut before) = (0, 0);
        rewrite_store(dir, opts.segment_rows, &mut notices, || {
            let reader = DatasetReader::open(&store, MapMode::Auto)
                .map_err(|e| CliError::Invalid(format!("{}: {e}", store.display())))?;
            from_version = reader.format_version();
            before = dir_size(&store)?;
            Ok(reader)
        })?;
        (from_version, before, dir_size(&store)?)
    };
    if from_version == certchain_colstore::VERSION {
        notices.push_str(
            "notice: store is already v2; re-encoding with current codecs and fresh category digests\n",
        );
    }
    registry.gauge("compact.bytes_before").set(before);
    registry.gauge("compact.bytes_after").set(after);
    if let Some(path) = &opts.metrics_json {
        let text = registry.snapshot().to_json().to_pretty() + "\n";
        std::fs::write(path, text)
            .map_err(io_ctx(format!("writing metrics to {}", path.display())))?;
    }
    let ratio = if after > 0 {
        before as f64 / after as f64
    } else {
        1.0
    };
    Ok(format!(
        "{notices}compacted {} from v{from_version} to v{}: {before} -> {after} bytes ({ratio:.2}x)\n",
        store.display(),
        certchain_colstore::VERSION,
    ))
}

/// The rows a [`rewrite_store`] writes: every x509 row, then every ssl
/// row, each handed to `each` in order.
pub(crate) trait StoreRows {
    /// Hand every x509 row to `each`.
    fn x509(&mut self, each: &mut dyn FnMut(&X509Record) -> CliResult<()>) -> CliResult<()>;
    /// Hand every ssl row to `each`.
    fn ssl(&mut self, each: &mut dyn FnMut(&SslRecord) -> CliResult<()>) -> CliResult<()>;
}

/// An open store's own rows: what `compact` rewrites.
impl StoreRows for DatasetReader {
    fn x509(&mut self, each: &mut dyn FnMut(&X509Record) -> CliResult<()>) -> CliResult<()> {
        for rec in self.x509_iter().map_err(col_err)? {
            each(&rec.map_err(col_err)?)?;
        }
        Ok(())
    }

    fn ssl(&mut self, each: &mut dyn FnMut(&SslRecord) -> CliResult<()>) -> CliResult<()> {
        for rec in self.ssl_iter().map_err(col_err)? {
            each(&rec.map_err(col_err)?)?;
        }
        Ok(())
    }
}

/// A store error as a CLI error.
fn col_err(e: ColError) -> CliError {
    CliError::Invalid(format!("colstore: {e}"))
}

/// Write `<dir>/colstore/` anew from the rows `open` returns. `open` runs
/// after leftovers of an earlier run are recovered, so `compact` reads
/// the store that recovery may have put back. Returns the new store's
/// manifest; one-line notices go to `notices`.
///
/// Three steps:
/// 1. recover: a leftover `colstore.tmp-compact/` is by construction
///    incomplete or never installed, so it is removed; a leftover
///    `colstore.pre-compact/` only outlives a crash in the swap window,
///    and is removed if the live store is present (the swap finished) or
///    restored as the live store if it is not;
/// 2. write the new store into `colstore.tmp-compact/`: every x509 row
///    into the writer and a [`CertTable`], then a [`CategoryOracle`] over
///    the complete table as the category provider, then every ssl row.
///    Without trust material the store is digest-less (and a digest-less
///    store is never segment-skipped), so a bare store still rewrites;
/// 3. swap it in: the live store (if any) moves to
///    `colstore.pre-compact/`, the new one is renamed in, and the old one
///    is removed.
///
/// A failure in step 2 removes the partial store and returns the error,
/// leaving the live store as it was.
pub(crate) fn rewrite_store<R: StoreRows>(
    dir: &Path,
    segment_rows: Option<u64>,
    notices: &mut String,
    open: impl FnOnce() -> CliResult<R>,
) -> CliResult<Manifest> {
    let store = colstore_dir(dir);
    let tmp = store.with_file_name("colstore.tmp-compact");
    let old = store.with_file_name("colstore.pre-compact");
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)
            .map_err(io_ctx(format!("removing leftover {}", tmp.display())))?;
        notices.push_str(&format!(
            "notice: removed leftover {} from an interrupted store rewrite\n",
            tmp.display()
        ));
    }
    if old.exists() {
        if store.exists() {
            std::fs::remove_dir_all(&old)
                .map_err(io_ctx(format!("removing leftover {}", old.display())))?;
            notices.push_str(&format!(
                "notice: removed superseded {} from an interrupted store rewrite\n",
                old.display()
            ));
        } else {
            std::fs::rename(&old, &store)
                .map_err(io_ctx(format!("restoring {}", store.display())))?;
            notices.push_str(&format!(
                "notice: restored {} from {} after an interrupted store rewrite\n",
                store.display(),
                old.display()
            ));
        }
    }
    let trust = load_trust(dir).ok();
    if trust.is_none() {
        notices.push_str("notice: trust material unavailable; category digests omitted\n");
    }
    let opts = WriterOptions {
        segment_rows: segment_rows.unwrap_or(WriterOptions::default().segment_rows),
    };
    let write = || {
        let mut rows = open()?;
        let mut writer = DatasetWriter::create_with(&tmp, opts).map_err(col_err)?;
        let mut table = CertTable::new();
        let mut fold = table.folding();
        rows.x509(&mut |rec| {
            if trust.is_some() {
                fold.fold(rec);
            }
            writer.append_x509(rec).map_err(col_err)
        })?;
        drop(fold);
        if let Some(trust) = &trust {
            let oracle = CategoryOracle::new(CategorySet::empty(), &table, trust);
            writer = writer.with_category_provider(oracle.into_provider());
        }
        rows.ssl(&mut |rec| writer.append_ssl(rec).map_err(col_err))?;
        drop(rows);
        writer.finish().map_err(col_err)
    };
    let manifest = match write() {
        Ok(manifest) => manifest,
        Err(e) => {
            // The write's error is the one to report; a partial store
            // that cannot be removed now is a leftover the next run
            // removes.
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(e);
        }
    };
    // Swap: old store aside, new store in, old store gone. The store
    // directory itself is replaced atomically by the second rename; a
    // crash between the renames leaves a recoverable
    // `colstore.pre-compact/`.
    let replaced = store.exists();
    if replaced {
        std::fs::rename(&store, &old)
            .map_err(io_ctx(format!("moving {} aside", store.display())))?;
    }
    std::fs::rename(&tmp, &store).map_err(io_ctx(format!("installing {}", store.display())))?;
    if replaced {
        std::fs::remove_dir_all(&old).map_err(io_ctx(format!("removing {}", old.display())))?;
    }
    Ok(manifest)
}

/// Total size in bytes of every regular file directly under `dir`.
fn dir_size(dir: &Path) -> CliResult<u64> {
    let mut total = 0u64;
    let entries = std::fs::read_dir(dir).map_err(io_ctx(format!("reading {}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(io_ctx(format!("reading {}", dir.display())))?;
        let meta = entry
            .metadata()
            .map_err(io_ctx(format!("stat {}", entry.path().display())))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
