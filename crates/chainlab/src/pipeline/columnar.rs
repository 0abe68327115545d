//! The columnar analyze path: fold straight off a mapped
//! [`DatasetReader`], no parse stage, workers sharded by row bands.
//!
//! The TSV path pays for reading and parsing the text of every row
//! ([`super::ingest`]); columnar input decodes fields with offset
//! arithmetic off the mapped columns instead. The workers here take
//! contiguous *segment ranges*, so one chain's connections can land in
//! several workers. The determinism rule of [`super::ingest`] makes that
//! sound: every aggregate is an integer sum (each row folds
//! [`Weight::ONE`]) or a set union, so merging the per-worker partials
//! (one shared `merge_into`) is bit-identical to the sequential fold.
//!
//! There is one fold for every store version (a v1 store reaches it as
//! `plain` bands, see `certchain_colstore::read`). The x509 table folds
//! first, in row order, into a [`CertTable`] under the same intern rule
//! as every other reader; a row of an already-interned fingerprint is
//! not even decoded into a record. The ssl workers then claim whole
//! *segments*, consult each segment's zone map to skip row bands that
//! cannot match the active [`super::RowFilter`] (filter predicates are
//! resolved to dictionary codes once, so the per-row test is two integer
//! compares), decode only the five columns the fold touches into reused
//! scratch buffers, and key the per-chain accumulators by
//! fingerprint-*code* sequences — fingerprints and SNI strings are
//! resolved once per distinct chain at the end, not once per row. The
//! fold does not check chains against the table: its chains move into the
//! same resolve and later stages as every other path's.
//! Zone-map skip decisions are per-segment properties of the data, so
//! they are identical for every thread count, which keeps the
//! `colstore.segments_*` metrics deterministic.

use super::enrich::CertTable;
use super::ingest::{merge_into, IngestCounts, Partial, SharedAccum};
use super::{par_map, resolve_threads, Analysis, Pipeline, RowFilter};
use crate::filtercat::{chain_category, CertCat};
use crate::model::ChainKey;
use crate::usage::{gather, SortedFold, UsageFold, Weight};
use certchain_colstore::read::var_slice;
use certchain_colstore::{
    CategoryDigest, CategorySet, ColError, ColResult, DatasetReader, SslSegments, X509Band,
    X509Segments, NONE_IDX,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

impl Pipeline<'_> {
    /// Run the full analysis over an open columnar store (either format
    /// version). For a store converted from (or generated alongside) a
    /// TSV dataset, the result is byte-identical to
    /// [`Pipeline::analyze_stream`] over the Zeek readers, for every
    /// thread count and for either store version: segment-at-a-time
    /// decode, zone-map skipping, and the code-keyed vectorized fold.
    ///
    /// The first corrupt-data error aborts the analysis and is returned
    /// as-is (truncation is already caught by [`DatasetReader::open`]).
    pub fn analyze_colstore(&self, reader: &DatasetReader) -> Result<Analysis, ColError> {
        self.rooted(|pipe| pipe.fold_colstore(reader))
    }

    /// The stages of [`Pipeline::analyze_colstore`].
    fn fold_colstore(&self, reader: &DatasetReader) -> Result<Analysis, ColError> {
        let threads = resolve_threads(self.options.threads);
        self.obs.set("colstore.bytes_mapped", reader.bytes_mapped());
        let filter = ColFilter::resolve(reader, &self.options.filter)?;
        let x509 = reader.x509_segments()?;
        let mut table = CertTable::new();
        let mut tally = {
            let stage = self.obs.stage("enrich");
            let tally = enrich_segments(&x509, &mut table)?;
            stage.attr("rows", table.rows());
            tally
        };
        let ssl = reader.ssl_segments()?;
        let (entries, counts) = {
            let _stage = self.obs.stage("ingest");
            ingest_segments(
                self,
                &ssl,
                &filter,
                reader.category_digests(),
                &table,
                threads,
                &mut tally,
            )?
        };
        // Scan accounting. Skip decisions are per-segment data
        // properties, so every value here is thread-count-invariant;
        // `rows_read` counts rows actually decoded (== the table totals
        // when no filter is active, since nothing is skipped then).
        self.obs.add("colstore.rows_read", tally.rows);
        self.obs.add("colstore.segments_read", tally.read);
        self.obs.add("colstore.segments_skipped", tally.skipped);
        self.obs
            .add("colstore.segments_skipped_category", tally.skipped_category);
        self.obs.add("colstore.bytes_decoded", tally.bytes);
        Ok(self.finish(&table, entries, counts))
    }
}

/// A [`RowFilter`] resolved against one store's dictionary, so the
/// per-row test compares integers, never strings.
struct ColFilter {
    port: Option<u16>,
    /// `None` — no SNI predicate. `Some(None)` — the predicate string is
    /// not in the store's dictionary, so no row can match. `Some(Some(c))`
    /// — match rows whose SNI dictionary code is exactly `c`.
    sni: Option<Option<u32>>,
    /// The structural-category predicate. Evaluated per row through a
    /// per-fingerprint-code [`CertCat`] table, and per segment through
    /// the manifest's category digests when the store carries them.
    categories: Option<CategorySet>,
}

impl ColFilter {
    fn resolve(reader: &DatasetReader, filter: &RowFilter) -> ColResult<ColFilter> {
        let sni = match &filter.sni {
            Some(s) => Some(reader.dict_lookup(s)?),
            None => None,
        };
        Ok(ColFilter {
            port: filter.port,
            sni,
            categories: filter.categories,
        })
    }

    /// The per-row test, on raw column values.
    fn admits(&self, resp_p: u16, sni_code: u32) -> bool {
        if let Some(p) = self.port {
            if resp_p != p {
                return false;
            }
        }
        match self.sni {
            None => true,
            Some(None) => false,
            Some(Some(code)) => sni_code == code,
        }
    }

    /// Whether any row of an ssl segment could pass, judged from zone
    /// maps alone. Conservative in exactly one direction: `true` may be
    /// wrong (rows are then tested individually), `false` never is.
    fn may_match_segment(&self, ssl: &SslSegments<'_>, seg: usize) -> bool {
        if let Some(p) = self.port {
            if !ssl.resp_p.meta(seg).zone.contains(u64::from(p)) {
                return false;
            }
        }
        match self.sni {
            None => true,
            Some(None) => false,
            Some(Some(code)) => ssl.sni.meta(seg).zone.may_contain_code(code),
        }
    }
}

/// Deterministic scan accounting for one segmented analysis.
#[derive(Debug, Default, Clone, Copy)]
struct SegTally {
    /// Segments whose columns were decoded.
    read: u64,
    /// Segments skipped entirely (zone maps or category digests);
    /// `read + skipped` always equals the segment total scanned.
    skipped: u64,
    /// The subset of `skipped` vetoed by a category digest.
    skipped_category: u64,
    /// Rows in the decoded segments.
    rows: u64,
    /// Encoded payload bytes decoded.
    bytes: u64,
}

impl SegTally {
    fn plus(self, other: SegTally) -> SegTally {
        SegTally {
            read: self.read + other.read,
            skipped: self.skipped + other.skipped,
            skipped_category: self.skipped_category + other.skipped_category,
            rows: self.rows + other.rows,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Enrich off the x509 segments: decode a segment's columns once, then
/// fold each row into `table` in row order. A row's record is built —
/// its strings resolved out of the dictionary — only while its
/// fingerprint is still open in the table, so a repeat costs one probe.
fn enrich_segments(cols: &X509Segments<'_>, table: &mut CertTable) -> ColResult<SegTally> {
    let mut tally = SegTally::default();
    let mut band = X509Band::new(*cols);
    let mut fold = table.folding();
    for seg in 0..cols.segment_count() {
        tally.bytes += band.decode(seg)?;
        tally.read += 1;
        tally.rows += band.rows() as u64;
        for i in 0..band.rows() {
            fold.fold_with(&band.fingerprint(i)?, || band.record(i))?;
        }
    }
    Ok(tally)
}

/// Per-chain accumulator keyed by fingerprint-*code* sequence. Identical
/// aggregates to the TSV fold's `ChainAccum`, but nothing is resolved to
/// strings or 32-byte fingerprints during the fold — codes are rekeyed
/// once per distinct chain afterwards.
#[derive(Default)]
struct CodeAccum {
    usage: UsageFold,
    sni_codes: SortedFold<u32>,
}

impl Partial for CodeAccum {
    type Cx = ();

    fn merge(&mut self, other: CodeAccum, _: &mut ()) {
        self.usage.merge(other.usage);
        self.sni_codes.merge(other.sni_codes);
    }

    fn first(part: CodeAccum, _: &mut ()) -> CodeAccum {
        part
    }
}

/// Fold segments `segs` of the ssl table. Category digests and zone maps
/// veto whole segments first; surviving segments decode only the five
/// columns the fold touches, into scratch buffers reused across
/// segments.
///
/// `cats` maps every fingerprint code to its [`CertCat`] when the filter
/// names categories (and is empty otherwise); `digests` is the
/// manifest's per-segment category digest array when the store carries
/// one. A digest veto is sound because the digest was computed by the
/// same [`chain_category`] fold over the same complete certificate
/// table at write time, and rejected rows are invisible to every
/// counter — skipping the segment is exactly equivalent to testing each
/// of its rows.
fn fold_segments(
    ssl: &SslSegments<'_>,
    segs: &[usize],
    filter: &ColFilter,
    digests: Option<&[CategoryDigest]>,
    cats: &[CertCat],
) -> ColResult<(HashMap<Vec<u32>, CodeAccum>, IngestCounts, SegTally)> {
    let mut accums: HashMap<Vec<u32>, CodeAccum> = HashMap::new();
    let mut counts = IngestCounts::default();
    let mut tally = SegTally::default();
    let (mut resp_p, mut established) = (Vec::new(), Vec::new());
    let (mut sni, mut orig_h, mut chain_idx) = (Vec::new(), Vec::new(), Vec::new());
    let mut codes: Vec<u32> = Vec::new();
    let fp_count = ssl.fp_count();
    for &seg in segs {
        if let (Some(set), Some(digests)) = (filter.categories, digests) {
            // Digest-less segments (None overall) are never skipped.
            if digests.get(seg).is_some_and(|d| !d.intersects(set)) {
                tally.skipped += 1;
                tally.skipped_category += 1;
                continue;
            }
        }
        if !filter.may_match_segment(ssl, seg) {
            tally.skipped += 1;
            continue;
        }
        let columns = [
            (&ssl.resp_p, &mut resp_p),
            (&ssl.established, &mut established),
            (&ssl.sni, &mut sni),
            (&ssl.orig_h, &mut orig_h),
            (&ssl.chain_idx, &mut chain_idx),
        ];
        for (col, buf) in columns {
            col.decode_into(seg, buf)?;
            tally.bytes += col.meta(seg).bytes;
        }
        let (row_start, rows) = ssl.ts.row_range(seg);
        tally.read += 1;
        tally.rows += rows;
        let chain_base = ssl.chain_start(seg);
        for i in 0..rows as usize {
            let sni_code = sni[i] as u32;
            if !filter.admits(resp_p[i] as u16, sni_code) {
                continue;
            }
            let row = row_start + i as u64;
            let from = if i == 0 { chain_base } else { chain_idx[i - 1] };
            let chain_bytes = var_slice(ssl.chain_dat, from, chain_idx[i], 4, "ssl.chain", row)?;
            codes.clear();
            for entry in chain_bytes.chunks_exact(4) {
                let code = u32::from_le_bytes(entry.try_into().expect("4-byte slice"));
                if code as usize >= fp_count {
                    return Err(ColError::Corrupt(format!(
                        "ssl.chain row {row}: fingerprint index {code} out of range"
                    )));
                }
                codes.push(code);
            }
            // Same invisibility rule as the streaming reference: a
            // category-rejected row moves no counter, not even `records`
            // (an empty chain folds to `none` here, matching the
            // oracle's view of a chainless record).
            if let Some(set) = filter.categories {
                let cat = chain_category(codes.iter().map(|&c| cats[c as usize]));
                if !set.contains(cat) {
                    continue;
                }
            }
            counts.records += 1;
            if codes.is_empty() {
                counts.no_chain += 1;
                continue;
            }
            // One probe for a chain already seen; the key is allocated
            // only the first time.
            let entry = match accums.get_mut(codes.as_slice()) {
                Some(entry) => entry,
                None => accums.entry(codes.clone()).or_default(),
            };
            entry.usage.add(
                established[i] != 0,
                sni_code != NONE_IDX,
                resp_p[i] as u16,
                Ipv4Addr::from(orig_h[i] as u32),
                Weight::ONE,
            );
            if sni_code != NONE_IDX {
                entry.sni_codes.insert(sni_code);
            }
        }
    }
    Ok((accums, counts, tally))
}

/// Ingest the ssl table: contiguous *segment* runs per worker, partials
/// merged in run order, code keys resolved once per distinct chain into
/// the resolve's entries, their accumulators wrapped in `Arc`s there. The
/// scan accounting adds to `tally`.
fn ingest_segments(
    pipe: &Pipeline<'_>,
    ssl: &SslSegments<'_>,
    filter: &ColFilter,
    digests: Option<&[CategoryDigest]>,
    table: &CertTable,
    threads: usize,
    tally: &mut SegTally,
) -> ColResult<(Vec<(ChainKey, SharedAccum)>, IngestCounts)> {
    // Under a category filter, the class of every fingerprint code,
    // precomputed once: the per-row test becomes vector loads instead of
    // hash probes and classifications.
    let mut cats = Vec::new();
    if filter.categories.is_some() {
        for code in 0..ssl.fp_count() {
            cats.push(match table.get(&ssl.fp(code as u32)?) {
                Some(cert) => CertCat::of(cert, pipe.trust),
                None => CertCat::Unresolved,
            });
        }
    }
    let parts = par_map((0..ssl.segment_count()).collect(), threads, |segs| {
        fold_segments(ssl, &segs, filter, digests, &cats)
    });
    let mut code_accums: HashMap<Vec<u32>, CodeAccum> = HashMap::new();
    let mut counts = IngestCounts::default();
    for part in parts {
        let (accums, c, t) = part?;
        counts.records += c.records;
        counts.no_chain += c.no_chain;
        *tally = tally.plus(t);
        if code_accums.is_empty() {
            code_accums = accums;
        } else {
            merge_into(&mut code_accums, accums, &mut (), |_| {});
        }
    }
    // Rekey code sequences to fingerprint chains and SNI codes to
    // strings — once per distinct chain, and one shared string per SNI
    // code: the only string work in the whole ingest.
    let mut entries = Vec::with_capacity(code_accums.len());
    let mut sni_of: HashMap<u32, Arc<str>> = HashMap::new();
    let none: Arc<[Arc<str>]> = Arc::new([]);
    // srclint: commutative -- map-to-list rekeying; the code->fingerprint mapping is injective, so each source entry lands in a distinct key, and the resolve's output is sorted
    for (code_key, code_accum) in code_accums {
        let mut fps = Vec::with_capacity(code_key.len());
        for code in &code_key {
            fps.push(ssl.fp(*code)?);
        }
        let codes = code_accum.sni_codes.finish();
        let snis = if codes.is_empty() {
            Arc::clone(&none)
        } else {
            let mut snis = Vec::with_capacity(codes.len());
            for code in codes {
                let sni = match sni_of.get(&code) {
                    Some(sni) => Arc::clone(sni),
                    None => {
                        let sni: Arc<str> = Arc::from(ssl.dict.get(code)?);
                        sni_of.insert(code, Arc::clone(&sni));
                        sni
                    }
                };
                snis.push(sni);
            }
            // Dictionary codes do not sort as their strings do.
            Arc::from(gather(snis))
        };
        entries.push((
            ChainKey(fps),
            SharedAccum {
                usage: Arc::new(code_accum.usage.finish()),
                snis,
            },
        ));
    }
    pipe.obs.finish_progress(counts.records);
    Ok((entries, counts))
}
