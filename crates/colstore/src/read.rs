//! The mmap-backed dataset reader.
//!
//! [`DatasetReader::open`] validates the manifest and then checks, for
//! every column file, that the on-disk byte length is exactly what the
//! manifest recorded (and consistent with the row counts for fixed-width
//! columns) — truncation is diagnosed up front, before any row is
//! decoded.
//!
//! Every store is served through one segmented API:
//! [`SslSegments`]/[`X509Segments`] (whole-segment decode into
//! caller-owned scratch buffers, zone maps for skipping), the x509 row
//! decoder [`X509Band`], and the record iterators built on them
//! ([`DatasetReader::ssl_iter`] / [`DatasetReader::x509_iter`]). A v1
//! store's raw fixed-width columns are byte-for-byte `plain` segments
//! placed end to end, so `open` splits them in memory into bands of
//! [`DEFAULT_SEGMENT_ROWS`] rows, each with a zone map computed from the
//! mapped bytes; from then on nothing downstream can tell the layouts
//! apart. Only *unknown* versions are an error, and that error comes
//! from the manifest check before any column is mapped.

use crate::codec::{self, Encoding};
use crate::dict::Dict;
use crate::manifest::{Manifest, VERSION_V1};
use crate::map::{MapMode, Mapping};
use crate::segment::{SegmentMeta, DEFAULT_SEGMENT_ROWS};
use crate::write::{decode_tls_version, FLAG_BC_CA, FLAG_BC_PRESENT, FLAG_PATH_LEN};
use crate::zonemap::ZoneMap;
use crate::{ColError, ColResult, COLUMNS};
use certchain_asn1::Asn1Time;
use certchain_netsim::zeek::record::{SslRecord, X509Record};
use certchain_x509::Fingerprint;
use std::net::Ipv4Addr;
use std::path::Path;

// Indices into `DatasetReader::maps`, in `COLUMNS` order.
const STRINGS_IDX: usize = 0;
const STRINGS_DAT: usize = 1;
const FPS_DAT: usize = 2;
const SSL_TS: usize = 3;
const SSL_UID_IDX: usize = 4;
const SSL_UID_DAT: usize = 5;
const SSL_ORIG_H: usize = 6;
const SSL_ORIG_P: usize = 7;
const SSL_RESP_H: usize = 8;
const SSL_RESP_P: usize = 9;
const SSL_VERSION: usize = 10;
const SSL_SNI: usize = 11;
const SSL_ESTABLISHED: usize = 12;
const SSL_CHAIN_IDX: usize = 13;
const SSL_CHAIN_DAT: usize = 14;
const X509_TS: usize = 15;
const X509_FP: usize = 16;
const X509_VERSION: usize = 17;
const X509_SERIAL: usize = 18;
const X509_SUBJECT: usize = 19;
const X509_ISSUER: usize = 20;
const X509_NOT_BEFORE: usize = 21;
const X509_NOT_AFTER: usize = 22;
const X509_FLAGS: usize = 23;
const X509_PATH_LEN: usize = 24;
const X509_SAN_IDX: usize = 25;
const X509_SAN_DAT: usize = 26;

/// Precomputed byte/row start of one segment within its column.
#[derive(Debug, Clone, Copy)]
struct SegStart {
    byte: u64,
    row: u64,
}

/// An open, validated columnar store.
pub struct DatasetReader {
    manifest: Manifest,
    maps: Vec<Mapping>,
    /// Per-column segment starts (parallel to `maps`); empty for
    /// var-length data files and shared tables.
    seg_starts: Vec<Vec<SegStart>>,
}

impl std::fmt::Debug for DatasetReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetReader")
            .field("version", &self.manifest.version)
            .field("ssl_rows", &self.manifest.ssl_rows)
            .field("x509_rows", &self.manifest.x509_rows)
            .field("bytes_mapped", &self.bytes_mapped())
            .finish_non_exhaustive()
    }
}

impl DatasetReader {
    /// Open `store_dir`, validating manifest and column lengths.
    pub fn open(store_dir: &Path, mode: MapMode) -> ColResult<DatasetReader> {
        let mut manifest = Manifest::load(store_dir)?;
        let mut maps = Vec::with_capacity(COLUMNS.len());
        for (name, _) in COLUMNS {
            let expected = *manifest
                .columns
                .get(*name)
                .expect("from_json checked every column is present");
            let map = Mapping::open(&store_dir.join(name), mode)?;
            let found = map.len() as u64;
            if found != expected {
                return Err(ColError::Truncated {
                    file: name.to_string(),
                    expected,
                    found,
                });
            }
            maps.push(map);
        }
        if manifest.version == VERSION_V1 {
            band_v1(&mut manifest, &maps)?;
        }
        // Segment byte/row sums match the file lengths (validated at
        // manifest parse, or by construction for v1 bands); record each
        // segment's start for O(1) addressing.
        let seg_starts = COLUMNS
            .iter()
            .map(|(name, _)| {
                let metas = manifest.segments.get(*name).map_or(&[][..], Vec::as_slice);
                let (mut byte, mut row) = (0u64, 0u64);
                metas
                    .iter()
                    .map(|meta| {
                        let start = SegStart { byte, row };
                        byte += meta.bytes;
                        row += meta.rows;
                        start
                    })
                    .collect()
            })
            .collect();
        let reader = DatasetReader {
            manifest,
            maps,
            seg_starts,
        };
        reader.validate_tables()?;
        Ok(reader)
    }

    /// Cross-file consistency checks that the per-file length check
    /// cannot see: shared-table sizes and var-length final offsets.
    fn validate_tables(&self) -> ColResult<()> {
        let m = &self.manifest;
        let checks: &[(&str, u64, u64)] = &[
            (
                "strings.idx",
                self.maps[STRINGS_IDX].len() as u64,
                m.dict_entries * 8,
            ),
            (
                "fps.dat",
                self.maps[FPS_DAT].len() as u64,
                m.fp_entries * 32,
            ),
        ];
        for (name, found, want) in checks {
            if found != want {
                return Err(ColError::Corrupt(format!(
                    "table {name}: {found} bytes, expected {want}"
                )));
            }
        }
        // Dictionary offsets must be monotonic and end at the data length;
        // `Dict::new` checks all of that, so a corrupted index is rejected
        // here instead of surfacing mid-scan from a row accessor.
        Dict::new(
            self.maps[STRINGS_IDX].bytes(),
            self.maps[STRINGS_DAT].bytes(),
        )?;
        // Each var-length pair: the last index entry must equal the data
        // length (and an empty table implies an empty data file). The
        // index column is segmented, so the final offset comes from the
        // last segment's zone max (end offsets are non-decreasing, so the
        // max is the last entry).
        for (idx, dat, unit) in [
            (SSL_UID_IDX, SSL_UID_DAT, 1u64),
            (SSL_CHAIN_IDX, SSL_CHAIN_DAT, 4),
            (X509_SAN_IDX, X509_SAN_DAT, 4),
        ] {
            let dat_len = self.maps[dat].len() as u64;
            let end = m
                .segments
                .get(COLUMNS[idx].0)
                .expect("every fixed-width column is segmented")
                .last()
                .map_or(0, |meta| meta.zone.max);
            if end != dat_len {
                return Err(ColError::Corrupt(format!(
                    "column {}: final offset {end} != data length {dat_len}",
                    COLUMNS[idx].0
                )));
            }
            if dat_len % unit != 0 {
                return Err(ColError::Corrupt(format!(
                    "column {}: length {dat_len} is not a multiple of {unit}",
                    COLUMNS[dat].0
                )));
            }
        }
        Ok(())
    }

    /// The validated manifest (for a v1 store, with the open-time
    /// banding's `segment_rows` and segment metadata filled in).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// On-disk format version (1 or 2).
    pub fn format_version(&self) -> u64 {
        self.manifest.version
    }

    /// Rows in the ssl table.
    pub fn ssl_rows(&self) -> u64 {
        self.manifest.ssl_rows
    }

    /// Rows in the x509 table.
    pub fn x509_rows(&self) -> u64 {
        self.manifest.x509_rows
    }

    /// Per-ssl-segment chain-category digests, when the store carries
    /// them (`None` on v1 stores and on v2 stores written without a
    /// category provider — those segments are simply never skipped by a
    /// category filter).
    pub fn category_digests(&self) -> Option<&[crate::category::CategoryDigest]> {
        self.manifest.category_digests.as_deref()
    }

    /// Total bytes brought into memory across all columns (mapped or
    /// loaded, depending on [`MapMode`]).
    pub fn bytes_mapped(&self) -> u64 {
        self.maps.iter().map(|m| m.len() as u64).sum()
    }

    /// Find a string's dictionary code, if the store interned it.
    /// Linear in dictionary size — meant for resolving a predicate once
    /// per analysis, not for per-row use.
    pub fn dict_lookup(&self, s: &str) -> ColResult<Option<u32>> {
        let dict = self.dict()?;
        for i in 0..dict.len() {
            let i = i as u32;
            if dict.get(i)? == s {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    fn seg_col(&self, at: usize) -> SegmentedColumn<'_> {
        let (name, width) = COLUMNS[at];
        SegmentedColumn {
            name,
            width: width.expect("segmented columns are fixed-width") as u8,
            data: self.maps[at].bytes(),
            metas: self
                .manifest
                .segments
                .get(name)
                .expect("every fixed-width column is segmented"),
            starts: &self.seg_starts[at],
        }
    }

    /// Segmented view over the ssl table.
    pub fn ssl_segments(&self) -> ColResult<SslSegments<'_>> {
        Ok(SslSegments {
            rows: self.manifest.ssl_rows,
            ts: self.seg_col(SSL_TS),
            uid_idx: self.seg_col(SSL_UID_IDX),
            orig_h: self.seg_col(SSL_ORIG_H),
            orig_p: self.seg_col(SSL_ORIG_P),
            resp_h: self.seg_col(SSL_RESP_H),
            resp_p: self.seg_col(SSL_RESP_P),
            version: self.seg_col(SSL_VERSION),
            sni: self.seg_col(SSL_SNI),
            established: self.seg_col(SSL_ESTABLISHED),
            chain_idx: self.seg_col(SSL_CHAIN_IDX),
            uid_dat: self.maps[SSL_UID_DAT].bytes(),
            chain_dat: self.maps[SSL_CHAIN_DAT].bytes(),
            dict: self.dict()?,
            fps: self.maps[FPS_DAT].bytes(),
        })
    }

    /// Segmented view over the x509 table.
    pub fn x509_segments(&self) -> ColResult<X509Segments<'_>> {
        Ok(X509Segments {
            rows: self.manifest.x509_rows,
            ts: self.seg_col(X509_TS),
            fp: self.seg_col(X509_FP),
            version: self.seg_col(X509_VERSION),
            serial: self.seg_col(X509_SERIAL),
            subject: self.seg_col(X509_SUBJECT),
            issuer: self.seg_col(X509_ISSUER),
            not_before: self.seg_col(X509_NOT_BEFORE),
            not_after: self.seg_col(X509_NOT_AFTER),
            flags: self.seg_col(X509_FLAGS),
            path_len: self.seg_col(X509_PATH_LEN),
            san_idx: self.seg_col(X509_SAN_IDX),
            san_dat: self.maps[X509_SAN_DAT].bytes(),
            dict: self.dict()?,
            fps: self.maps[FPS_DAT].bytes(),
        })
    }

    fn dict(&self) -> ColResult<Dict<'_>> {
        Dict::new(
            self.maps[STRINGS_IDX].bytes(),
            self.maps[STRINGS_DAT].bytes(),
        )
    }

    /// Iterate ssl rows as [`SslRecord`]s — the same item shape as
    /// `SslLogStream`, so stream-based consumers run unchanged on either
    /// format version.
    pub fn ssl_iter(&self) -> ColResult<Box<dyn Iterator<Item = ColResult<SslRecord>> + '_>> {
        Ok(Box::new(SslIter::new(self.ssl_segments()?)))
    }

    /// Iterate x509 rows as [`X509Record`]s, mirroring `X509LogStream`.
    pub fn x509_iter(&self) -> ColResult<Box<dyn Iterator<Item = ColResult<X509Record>> + '_>> {
        Ok(Box::new(X509Iter {
            band: X509Band::new(self.x509_segments()?),
            seg: 0,
            row: 0,
            failed: false,
        }))
    }
}

/// Describe a v1 store's raw fixed-width columns as `plain` segments of
/// [`DEFAULT_SEGMENT_ROWS`] rows, zone-mapped from the mapped bytes by
/// the writer's rule ([`ZoneMap::for_column`]). Every column length is
/// checked against rows × width before any band is decoded, so a
/// mis-sized column is an error, never a slice panic.
fn band_v1(manifest: &mut Manifest, maps: &[Mapping]) -> ColResult<()> {
    let fixed = || {
        COLUMNS
            .iter()
            .zip(maps)
            .filter_map(|((name, width), map)| Some((*name, (*width)?, map.bytes())))
    };
    for (name, width, bytes) in fixed() {
        let rows = crate::rows_for(name, manifest.ssl_rows, manifest.x509_rows)
            .expect("fixed-width columns are table columns");
        let found = bytes.len() as u64;
        if rows.checked_mul(width) != Some(found) {
            return Err(ColError::Corrupt(format!(
                "column {name}: {found} bytes is not {rows} rows x {width} bytes"
            )));
        }
    }
    let mut values = Vec::new();
    for (name, width, bytes) in fixed() {
        let mut metas = Vec::new();
        for band in bytes.chunks((DEFAULT_SEGMENT_ROWS * width) as usize) {
            let rows = band.len() / width as usize;
            values.clear();
            codec::decode_into(
                Encoding::Plain,
                width as u8,
                width as u8,
                rows,
                band,
                &mut values,
            )?;
            metas.push(SegmentMeta {
                rows: rows as u64,
                bytes: band.len() as u64,
                encoding: Encoding::Plain,
                param: width as u8,
                zone: ZoneMap::for_column(name, &values),
            });
        }
        manifest.segments.insert(name.to_string(), metas);
    }
    manifest.segment_rows = DEFAULT_SEGMENT_ROWS;
    Ok(())
}

/// Bounds-check a decoded `start..end` offset pair against `dat`, a
/// var-length data file of `unit`-byte entries, and return the slice:
/// row `row` of column `what`. Offsets out of bounds, or a slice that is
/// not a whole number of entries, are [`ColError::Corrupt`].
pub fn var_slice<'a>(
    dat: &'a [u8],
    start: u64,
    end: u64,
    unit: usize,
    what: &str,
    row: u64,
) -> ColResult<&'a [u8]> {
    if start > end || end > dat.len() as u64 {
        return Err(ColError::Corrupt(format!(
            "{what} row {row}: offsets {start}..{end} out of bounds (data length {})",
            dat.len()
        )));
    }
    let bytes = &dat[start as usize..end as usize];
    if bytes.len() % unit != 0 {
        return Err(ColError::Corrupt(format!(
            "{what} row {row}: {} bytes is not a whole number of entries",
            bytes.len()
        )));
    }
    Ok(bytes)
}

fn fp_at(fps: &[u8], idx: u32, what: &str) -> ColResult<Fingerprint> {
    let at = (idx as usize) * 32;
    let Some(bytes) = fps.get(at..at + 32) else {
        return Err(ColError::Corrupt(format!(
            "{what}: fingerprint index {idx} out of range ({} entries)",
            fps.len() / 32
        )));
    };
    Ok(Fingerprint(bytes.try_into().expect("32-byte slice")))
}

/// One encoded fixed-width column: segment metadata plus the
/// concatenated payload bytes, with O(1) segment addressing.
#[derive(Clone, Copy)]
pub struct SegmentedColumn<'a> {
    name: &'static str,
    width: u8,
    data: &'a [u8],
    metas: &'a [SegmentMeta],
    starts: &'a [SegStart],
}

impl<'a> SegmentedColumn<'a> {
    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.metas.len()
    }

    /// Metadata (rows, encoding, zone map) of segment `seg`.
    pub fn meta(&self, seg: usize) -> &'a SegmentMeta {
        &self.metas[seg]
    }

    /// `(first_row, rows)` of segment `seg`.
    pub fn row_range(&self, seg: usize) -> (u64, u64) {
        (self.starts[seg].row, self.metas[seg].rows)
    }

    /// Decode segment `seg` into `out` (cleared first). `out` ends up
    /// holding exactly `meta(seg).rows` widened values — the scratch
    /// buffer the caller reuses across segments.
    pub fn decode_into(&self, seg: usize, out: &mut Vec<u64>) -> ColResult<()> {
        let meta = &self.metas[seg];
        let start = self.starts[seg].byte as usize;
        let bytes = &self.data[start..start + meta.bytes as usize];
        out.clear();
        crate::codec::decode_into(
            meta.encoding,
            meta.param,
            self.width,
            meta.rows as usize,
            bytes,
            out,
        )
        .map_err(|e| ColError::Corrupt(format!("column {} segment {seg}: {e}", self.name)))
    }
}

/// Segmented view over the ssl table. Fixed-width columns decode
/// segment-at-a-time; the var-length data files and shared tables are
/// raw slices.
#[derive(Clone, Copy)]
pub struct SslSegments<'a> {
    /// Row count.
    pub rows: u64,
    /// Connection timestamps (epoch seconds).
    pub ts: SegmentedColumn<'a>,
    /// End offsets into `uid_dat`.
    pub uid_idx: SegmentedColumn<'a>,
    /// Originator addresses as packed u32s.
    pub orig_h: SegmentedColumn<'a>,
    /// Originator ports.
    pub orig_p: SegmentedColumn<'a>,
    /// Responder addresses as packed u32s.
    pub resp_h: SegmentedColumn<'a>,
    /// Responder ports.
    pub resp_p: SegmentedColumn<'a>,
    /// TLS version bytes.
    pub version: SegmentedColumn<'a>,
    /// SNI dictionary codes ([`crate::NONE_IDX`] = unset).
    pub sni: SegmentedColumn<'a>,
    /// Established flags (0/1).
    pub established: SegmentedColumn<'a>,
    /// End offsets into `chain_dat`.
    pub chain_idx: SegmentedColumn<'a>,
    /// Raw uid bytes.
    pub uid_dat: &'a [u8],
    /// u32 LE fingerprint-table indices per chain entry.
    pub chain_dat: &'a [u8],
    /// The shared string dictionary.
    pub dict: Dict<'a>,
    /// The raw fingerprint table (32 bytes per entry).
    pub fps: &'a [u8],
}

impl<'a> SslSegments<'a> {
    /// Number of row-band segments in the table.
    pub fn segment_count(&self) -> usize {
        self.ts.segments()
    }

    /// First chain-data byte offset of segment `seg`: the previous
    /// segment's final end offset (end offsets are non-decreasing, so
    /// that is its zone max), or 0 for the first segment.
    pub fn chain_start(&self, seg: usize) -> u64 {
        if seg == 0 {
            0
        } else {
            self.chain_idx.meta(seg - 1).zone.max
        }
    }

    /// Resolve a fingerprint-table code.
    pub fn fp(&self, code: u32) -> ColResult<Fingerprint> {
        fp_at(self.fps, code, "ssl.chain")
    }

    /// Fingerprint-table entries.
    pub fn fp_count(&self) -> usize {
        self.fps.len() / 32
    }
}

/// Segmented view over the x509 table.
#[derive(Clone, Copy)]
pub struct X509Segments<'a> {
    /// Row count.
    pub rows: u64,
    /// Log timestamps.
    pub ts: SegmentedColumn<'a>,
    /// Fingerprint-table codes.
    pub fp: SegmentedColumn<'a>,
    /// Certificate versions.
    pub version: SegmentedColumn<'a>,
    /// Serial dictionary codes.
    pub serial: SegmentedColumn<'a>,
    /// Subject dictionary codes.
    pub subject: SegmentedColumn<'a>,
    /// Issuer dictionary codes.
    pub issuer: SegmentedColumn<'a>,
    /// notBefore epoch seconds.
    pub not_before: SegmentedColumn<'a>,
    /// notAfter epoch seconds.
    pub not_after: SegmentedColumn<'a>,
    /// basicConstraints flag bytes.
    pub flags: SegmentedColumn<'a>,
    /// pathLen values (0 when absent).
    pub path_len: SegmentedColumn<'a>,
    /// End offsets into `san_dat`.
    pub san_idx: SegmentedColumn<'a>,
    /// u32 LE dictionary codes per SAN entry.
    pub san_dat: &'a [u8],
    /// The shared string dictionary.
    pub dict: Dict<'a>,
    /// The raw fingerprint table.
    pub fps: &'a [u8],
}

impl<'a> X509Segments<'a> {
    /// Number of row-band segments in the table.
    pub fn segment_count(&self) -> usize {
        self.ts.segments()
    }

    /// First SAN-data byte offset of segment `seg` (see
    /// [`SslSegments::chain_start`]).
    pub fn san_start(&self, seg: usize) -> u64 {
        if seg == 0 {
            0
        } else {
            self.san_idx.meta(seg - 1).zone.max
        }
    }

    /// Resolve a fingerprint-table code.
    pub fn fp(&self, code: u32) -> ColResult<Fingerprint> {
        fp_at(self.fps, code, "x509.fp")
    }
}

/// Record iterator over the ssl table: decodes one segment's columns at
/// a time, materialises its records, then moves on.
struct SslIter<'a> {
    cols: SslSegments<'a>,
    seg: usize,
    buf: std::vec::IntoIter<SslRecord>,
    uid_prev: u64,
    chain_prev: u64,
    failed: bool,
}

impl<'a> SslIter<'a> {
    fn new(cols: SslSegments<'a>) -> SslIter<'a> {
        SslIter {
            cols,
            seg: 0,
            buf: Vec::new().into_iter(),
            uid_prev: 0,
            chain_prev: 0,
            failed: false,
        }
    }

    fn decode_segment(&mut self) -> ColResult<Vec<SslRecord>> {
        let c = &self.cols;
        let seg = self.seg;
        let mut ts = Vec::new();
        let mut uid_idx = Vec::new();
        let mut orig_h = Vec::new();
        let mut orig_p = Vec::new();
        let mut resp_h = Vec::new();
        let mut resp_p = Vec::new();
        let mut version = Vec::new();
        let mut sni = Vec::new();
        let mut established = Vec::new();
        let mut chain_idx = Vec::new();
        c.ts.decode_into(seg, &mut ts)?;
        c.uid_idx.decode_into(seg, &mut uid_idx)?;
        c.orig_h.decode_into(seg, &mut orig_h)?;
        c.orig_p.decode_into(seg, &mut orig_p)?;
        c.resp_h.decode_into(seg, &mut resp_h)?;
        c.resp_p.decode_into(seg, &mut resp_p)?;
        c.version.decode_into(seg, &mut version)?;
        c.sni.decode_into(seg, &mut sni)?;
        c.established.decode_into(seg, &mut established)?;
        c.chain_idx.decode_into(seg, &mut chain_idx)?;
        let (row_start, rows) = c.ts.row_range(seg);
        let mut out = Vec::with_capacity(rows as usize);
        for i in 0..rows as usize {
            let row = row_start + i as u64;
            let uid_bytes = var_slice(c.uid_dat, self.uid_prev, uid_idx[i], 1, "ssl.uid", row)?;
            self.uid_prev = uid_idx[i];
            let uid = std::str::from_utf8(uid_bytes)
                .map_err(|_| ColError::Corrupt(format!("ssl.uid row {row} is not valid UTF-8")))?
                .to_string();
            let chain_bytes = var_slice(
                c.chain_dat,
                self.chain_prev,
                chain_idx[i],
                4,
                "ssl.chain",
                row,
            )?;
            self.chain_prev = chain_idx[i];
            let mut chain = Vec::with_capacity(chain_bytes.len() / 4);
            for entry in chain_bytes.chunks_exact(4) {
                let code = u32::from_le_bytes(entry.try_into().expect("4-byte slice"));
                chain.push(c.fp(code)?);
            }
            out.push(SslRecord {
                ts: Asn1Time::from_unix(ts[i]),
                uid,
                orig_h: Ipv4Addr::from(orig_h[i] as u32),
                orig_p: orig_p[i] as u16,
                resp_h: Ipv4Addr::from(resp_h[i] as u32),
                resp_p: resp_p[i] as u16,
                version: decode_tls_version(version[i] as u8)?,
                server_name: c.dict.get_opt(sni[i] as u32)?.map(str::to_string),
                established: established[i] != 0,
                cert_chain_fps: chain,
            });
        }
        Ok(out)
    }
}

impl Iterator for SslIter<'_> {
    type Item = ColResult<SslRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.failed {
                return None;
            }
            if let Some(rec) = self.buf.next() {
                return Some(Ok(rec));
            }
            if self.seg >= self.cols.segment_count() {
                return None;
            }
            match self.decode_segment() {
                Ok(records) => {
                    self.seg += 1;
                    self.buf = records.into_iter();
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// One decoded x509 segment: its 11 fixed-width columns, in scratch
/// buffers reused from segment to segment. A row's fingerprint and its
/// record are built only when asked for, so a reader that passes over a
/// row never resolves that row's strings. This is the one x509 row
/// decoder: [`DatasetReader::x509_iter`] reads through it, and so does
/// the columnar analysis, which builds a record only for a fingerprint it
/// has not interned yet.
pub struct X509Band<'a> {
    cols: X509Segments<'a>,
    /// Rows decoded: 0 before the first [`X509Band::decode`] and after a
    /// failed one.
    rows: usize,
    /// Table row of the band's first row.
    row_start: u64,
    /// First SAN-data byte offset of the band.
    san_start: u64,
    ts: Vec<u64>,
    fp: Vec<u64>,
    version: Vec<u64>,
    serial: Vec<u64>,
    subject: Vec<u64>,
    issuer: Vec<u64>,
    not_before: Vec<u64>,
    not_after: Vec<u64>,
    flags: Vec<u64>,
    path_len: Vec<u64>,
    san_idx: Vec<u64>,
}

impl<'a> X509Band<'a> {
    /// An empty band over `cols`.
    pub fn new(cols: X509Segments<'a>) -> X509Band<'a> {
        X509Band {
            cols,
            rows: 0,
            row_start: 0,
            san_start: 0,
            ts: Vec::new(),
            fp: Vec::new(),
            version: Vec::new(),
            serial: Vec::new(),
            subject: Vec::new(),
            issuer: Vec::new(),
            not_before: Vec::new(),
            not_after: Vec::new(),
            flags: Vec::new(),
            path_len: Vec::new(),
            san_idx: Vec::new(),
        }
    }

    /// Decode segment `seg` in place of the previous band. Returns the
    /// encoded payload bytes decoded.
    pub fn decode(&mut self, seg: usize) -> ColResult<u64> {
        self.rows = 0;
        let c = &self.cols;
        let columns = [
            (&c.ts, &mut self.ts),
            (&c.fp, &mut self.fp),
            (&c.version, &mut self.version),
            (&c.serial, &mut self.serial),
            (&c.subject, &mut self.subject),
            (&c.issuer, &mut self.issuer),
            (&c.not_before, &mut self.not_before),
            (&c.not_after, &mut self.not_after),
            (&c.flags, &mut self.flags),
            (&c.path_len, &mut self.path_len),
            (&c.san_idx, &mut self.san_idx),
        ];
        let mut bytes = 0;
        for (col, buf) in columns {
            col.decode_into(seg, buf)?;
            bytes += col.meta(seg).bytes;
        }
        // Every column of a table shares its banding (checked when the
        // manifest loads), so each buffer now holds exactly `rows` values.
        let (row_start, rows) = c.ts.row_range(seg);
        self.san_start = c.san_start(seg);
        self.row_start = row_start;
        self.rows = rows as usize;
        Ok(bytes)
    }

    /// Rows in the decoded band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `i`'s fingerprint; `i` must be below [`X509Band::rows`].
    pub fn fingerprint(&self, i: usize) -> ColResult<Fingerprint> {
        self.cols.fp(self.fp[i] as u32)
    }

    /// Row `i`'s record, its strings resolved out of the dictionary; `i`
    /// must be below [`X509Band::rows`].
    pub fn record(&self, i: usize) -> ColResult<X509Record> {
        let c = &self.cols;
        let row = self.row_start + i as u64;
        let san_from = if i == 0 {
            self.san_start
        } else {
            self.san_idx[i - 1]
        };
        let san_bytes = var_slice(c.san_dat, san_from, self.san_idx[i], 4, "x509.san", row)?;
        let mut san_dns = Vec::with_capacity(san_bytes.len() / 4);
        for entry in san_bytes.chunks_exact(4) {
            let code = u32::from_le_bytes(entry.try_into().expect("4-byte slice"));
            san_dns.push(c.dict.get(code)?.to_string());
        }
        let fl = self.flags[i] as u8;
        Ok(X509Record {
            ts: Asn1Time::from_unix(self.ts[i]),
            fingerprint: self.fingerprint(i)?,
            cert_version: self.version[i],
            serial: c.dict.get(self.serial[i] as u32)?.to_string(),
            subject: c.dict.get(self.subject[i] as u32)?.to_string(),
            issuer: c.dict.get(self.issuer[i] as u32)?.to_string(),
            not_before: Asn1Time::from_unix(self.not_before[i]),
            not_after: Asn1Time::from_unix(self.not_after[i]),
            basic_constraints_ca: (fl & FLAG_BC_PRESENT != 0).then_some(fl & FLAG_BC_CA != 0),
            path_len: (fl & FLAG_PATH_LEN != 0).then(|| self.path_len[i]),
            san_dns,
        })
    }
}

/// Record iterator over the x509 table, one [`X509Band`] at a time.
struct X509Iter<'a> {
    band: X509Band<'a>,
    /// Next segment to decode.
    seg: usize,
    /// Next row of the band to yield.
    row: usize,
    failed: bool,
}

impl Iterator for X509Iter<'_> {
    type Item = ColResult<X509Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        while self.row == self.band.rows() {
            if self.seg == self.band.cols.segment_count() {
                return None;
            }
            if let Err(e) = self.band.decode(self.seg) {
                self.failed = true;
                return Some(Err(e));
            }
            self.seg += 1;
            self.row = 0;
        }
        let rec = self.band.record(self.row);
        self.row += 1;
        self.failed = rec.is_err();
        Some(rec)
    }
}
