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
//! The rewrite never edits the store in place. Records stream from the
//! open store (either version) into a fresh writer in a sibling
//! temporary directory; the new manifest is written last, and only then
//! does the new directory replace the old one by rename. An interrupted
//! compaction leaves the original store untouched and at worst a
//! leftover `colstore.tmp-compact/` (or, if the crash hit the swap
//! window, `colstore.pre-compact/`) — the next run cleans those up
//! itself, printing a one-line notice, instead of demanding operator
//! surgery.

use crate::dataset::{colstore_dir, load_trust};
use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::{CategoryOracle, CertTable};
use certchain_colstore::{CategorySet, DatasetReader, DatasetWriter, MapMode, WriterOptions};
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
    let col_err = |e: certchain_colstore::ColError| CliError::Invalid(format!("colstore: {e}"));
    let tmp = store.with_file_name("colstore.tmp-compact");
    let old = store.with_file_name("colstore.pre-compact");
    let mut notices = String::new();
    // An interrupted compaction can leave either directory behind; both
    // are recoverable without operator surgery. The temp store is by
    // construction incomplete (its manifest is written last) or
    // never-installed, so it is safe to discard. The pre-compact store
    // only outlives a crash in the swap window: if the live store is
    // present the swap finished and the leftover is the superseded
    // original; if not, the leftover IS the dataset and is restored.
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)
            .map_err(io_ctx(format!("removing leftover {}", tmp.display())))?;
        notices.push_str(&format!(
            "notice: removed leftover {} from an interrupted compaction\n",
            tmp.display()
        ));
    }
    if old.exists() {
        if store.exists() {
            std::fs::remove_dir_all(&old)
                .map_err(io_ctx(format!("removing leftover {}", old.display())))?;
            notices.push_str(&format!(
                "notice: removed superseded {} from an interrupted compaction\n",
                old.display()
            ));
        } else {
            std::fs::rename(&old, &store)
                .map_err(io_ctx(format!("restoring {}", store.display())))?;
            notices.push_str(&format!(
                "notice: restored {} from {} after an interrupted compaction\n",
                store.display(),
                old.display()
            ));
        }
    }
    // Trust material drives the recomputed category digests. A store
    // compacted without it comes out digest-less (and a digest-less
    // store is never segment-skipped), so compaction still works on a
    // bare colstore directory.
    let trust = load_trust(dir).ok();
    if trust.is_none() {
        notices.push_str("notice: trust material unavailable; category digests omitted\n");
    }
    let (from_version, before, after) = {
        let _span = registry.stage("compact_total");
        let reader = DatasetReader::open(&store, MapMode::Auto)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", store.display())))?;
        let from_version = reader.format_version();
        if from_version == certchain_colstore::VERSION {
            notices.push_str(
                "notice: store is already v2; re-encoding with current codecs and fresh category digests\n",
            );
        }
        let before = dir_size(&store)?;
        let writer_opts = WriterOptions {
            segment_rows: opts
                .segment_rows
                .unwrap_or(WriterOptions::default().segment_rows),
        };
        let mut writer = DatasetWriter::create_with(&tmp, writer_opts).map_err(col_err)?;
        // Same table order as `convert`: x509 first, so shared-table
        // interning assigns dictionary and fingerprint codes in the
        // identical sequence and the rewritten store is byte-stable.
        // Streaming x509 first is also what makes the digest backfill
        // possible: the certificate table is complete before any ssl row.
        let mut table = CertTable::new();
        for rec in reader.x509_iter().map_err(col_err)? {
            let rec = rec.map_err(col_err)?;
            if trust.is_some() {
                table.fold(&rec);
            }
            writer.append_x509(&rec).map_err(col_err)?;
        }
        if let Some(trust) = &trust {
            let oracle = CategoryOracle::new(CategorySet::empty(), &table, trust);
            writer = writer.with_category_provider(oracle.into_provider());
        }
        for rec in reader.ssl_iter().map_err(col_err)? {
            writer.append_ssl(&rec.map_err(col_err)?).map_err(col_err)?;
        }
        writer.finish().map_err(col_err)?;
        drop(reader);
        // Swap: old store aside, new store in, old store gone. The store
        // directory itself is replaced atomically by the second rename;
        // a crash between the renames leaves a recoverable
        // `colstore.pre-compact/`.
        std::fs::rename(&store, &old)
            .map_err(io_ctx(format!("moving {} aside", store.display())))?;
        std::fs::rename(&tmp, &store).map_err(io_ctx(format!("installing {}", store.display())))?;
        std::fs::remove_dir_all(&old).map_err(io_ctx(format!("removing {}", old.display())))?;
        (from_version, before, dir_size(&store)?)
    };
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
