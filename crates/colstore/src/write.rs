//! Streaming columnar writer.
//!
//! Rows are appended one at a time. Fixed-width fields buffer logical
//! values until a whole row band of `segment_rows` rows is complete, then
//! the band is encoded ([`crate::codec`]), zone-mapped
//! ([`crate::zonemap`]), and flushed as one segment. Var-length data
//! files (`*.dat`) stream raw, so writer memory stays O(distinct strings,
//! distinct fingerprints and `segment_rows`) regardless of row count.
//! The writer only produces the current (v2) format; v1 stores are a
//! read-only input (see [`crate::read`]).
//!
//! The shared tables (`strings.*`, `fps.dat`) and the manifest are
//! written by [`DatasetWriter::finish`] — the manifest last, so a crashed
//! write never leaves a manifest pointing at incomplete columns.
//!
//! A writer only ever creates a store; nothing reopens one to extend it.
//! `certchain convert` and `certchain compact` both write a whole new
//! store into a sibling directory and swap it in by rename once
//! `finish` has returned.

use crate::category::{Category, CategoryDigest};
use crate::codec;
use crate::dict::DictBuilder;
use crate::manifest::Manifest;
use crate::segment::{SegmentMeta, DEFAULT_SEGMENT_ROWS};
use crate::zonemap::ZoneMap;
use crate::{io_ctx, ColError, ColResult, COLUMNS, VERSION};
use certchain_netsim::handshake::TlsVersion;
use certchain_netsim::zeek::record::{SslRecord, X509Record};
use certchain_x509::Fingerprint;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Wire encoding of [`TlsVersion`] in the `ssl.version` column.
pub fn encode_tls_version(v: TlsVersion) -> u8 {
    match v {
        TlsVersion::Tls12 => 0,
        TlsVersion::Tls13 => 1,
    }
}

/// Decode the `ssl.version` column byte.
pub fn decode_tls_version(b: u8) -> ColResult<TlsVersion> {
    match b {
        0 => Ok(TlsVersion::Tls12),
        1 => Ok(TlsVersion::Tls13),
        other => Err(ColError::Corrupt(format!(
            "unknown ssl.version byte {other}"
        ))),
    }
}

/// basicConstraints flag bits in the `x509.flags` column.
pub const FLAG_BC_PRESENT: u8 = 1 << 0;
/// CA bit (meaningful only when [`FLAG_BC_PRESENT`] is set).
pub const FLAG_BC_CA: u8 = 1 << 1;
/// pathLen-present bit.
pub const FLAG_PATH_LEN: u8 = 1 << 2;

/// Zone-map statistics ride in the JSON manifest, whose numbers are
/// IEEE f64 — values at or past 2^53 would round. Nothing the writer
/// stores gets near that (epoch seconds, byte offsets, u32 codes), but
/// the invariant is enforced, not assumed.
const JSON_SAFE_MAX: u64 = 1 << 53;

struct Col {
    name: &'static str,
    file: BufWriter<File>,
    bytes: u64,
}

impl Col {
    fn put(&mut self, bytes: &[u8]) -> ColResult<()> {
        self.file
            .write_all(bytes)
            .map_err(io_ctx(format!("writing column {}", self.name)))?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }
}

// Streamed-column indices into `DatasetWriter::cols`, in STREAMED order.
const SSL_TS: usize = 0;
const SSL_UID_IDX: usize = 1;
const SSL_UID_DAT: usize = 2;
const SSL_ORIG_H: usize = 3;
const SSL_ORIG_P: usize = 4;
const SSL_RESP_H: usize = 5;
const SSL_RESP_P: usize = 6;
const SSL_VERSION: usize = 7;
const SSL_SNI: usize = 8;
const SSL_ESTABLISHED: usize = 9;
const SSL_CHAIN_IDX: usize = 10;
const SSL_CHAIN_DAT: usize = 11;
const X509_TS: usize = 12;
const X509_FP: usize = 13;
const X509_VERSION: usize = 14;
const X509_SERIAL: usize = 15;
const X509_SUBJECT: usize = 16;
const X509_ISSUER: usize = 17;
const X509_NOT_BEFORE: usize = 18;
const X509_NOT_AFTER: usize = 19;
const X509_FLAGS: usize = 20;
const X509_PATH_LEN: usize = 21;
const X509_SAN_IDX: usize = 22;
const X509_SAN_DAT: usize = 23;

/// Every per-row column, streamed to disk as rows arrive. The shared
/// tables (`strings.*`, `fps.dat`) are not in this list — they are
/// buffered in memory and written at finish.
const STREAMED: &[&str] = &[
    "ssl.ts",
    "ssl.uid.idx",
    "ssl.uid.dat",
    "ssl.orig_h",
    "ssl.orig_p",
    "ssl.resp_h",
    "ssl.resp_p",
    "ssl.version",
    "ssl.sni",
    "ssl.established",
    "ssl.chain.idx",
    "ssl.chain.dat",
    "x509.ts",
    "x509.fp",
    "x509.version",
    "x509.serial",
    "x509.subject",
    "x509.issuer",
    "x509.not_before",
    "x509.not_after",
    "x509.flags",
    "x509.path_len",
    "x509.san.idx",
    "x509.san.dat",
];

/// Fixed-width members of the ssl table, flushed together as one segment
/// band so every ssl column shares identical row banding.
const SSL_FIXED: &[usize] = &[
    SSL_TS,
    SSL_UID_IDX,
    SSL_ORIG_H,
    SSL_ORIG_P,
    SSL_RESP_H,
    SSL_RESP_P,
    SSL_VERSION,
    SSL_SNI,
    SSL_ESTABLISHED,
    SSL_CHAIN_IDX,
];

/// Fixed-width members of the x509 table.
const X509_FIXED: &[usize] = &[
    X509_TS,
    X509_FP,
    X509_VERSION,
    X509_SERIAL,
    X509_SUBJECT,
    X509_ISSUER,
    X509_NOT_BEFORE,
    X509_NOT_AFTER,
    X509_FLAGS,
    X509_PATH_LEN,
    X509_SAN_IDX,
];

/// Format options for [`DatasetWriter::create_with`].
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Rows per segment.
    pub segment_rows: u64,
}

impl Default for WriterOptions {
    fn default() -> WriterOptions {
        WriterOptions {
            segment_rows: DEFAULT_SEGMENT_ROWS,
        }
    }
}

/// Computes one ssl row's structural chain [`Category`]. Classification
/// needs trust material colstore does not hold, so the closure comes
/// from the caller (see `certchain-chainlab`'s category oracle).
pub type CategoryProvider = Box<dyn FnMut(&SslRecord) -> Category>;

/// Streaming writer for one columnar store directory.
pub struct DatasetWriter {
    dir: PathBuf,
    segment_rows: u64,
    cols: Vec<Col>,
    widths: Vec<Option<u64>>,
    pending: Vec<Vec<u64>>,
    metas: Vec<Vec<SegmentMeta>>,
    dict: DictBuilder,
    fp_lookup: HashMap<Fingerprint, u32>,
    fp_order: Vec<Fingerprint>,
    ssl_rows: u64,
    x509_rows: u64,
    /// Per-row category hook; when attached, every flushed ssl band gets
    /// a [`CategoryDigest`] in the manifest. Digests are all-or-nothing
    /// per store, so a provider is only ever attached before the first
    /// ssl row (see [`DatasetWriter::with_category_provider`]).
    category_provider: Option<CategoryProvider>,
    /// Categories of the ssl rows buffered in the current band.
    cat_pending: Vec<Category>,
    /// Digests of the ssl bands flushed so far.
    cat_digests: Vec<CategoryDigest>,
}

fn width_of(name: &str) -> Option<u64> {
    COLUMNS
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, w)| *w)
}

impl DatasetWriter {
    /// Create `store_dir` (and parents) and open every column file,
    /// using the current default format ([`WriterOptions::default`]).
    pub fn create(store_dir: &Path) -> ColResult<DatasetWriter> {
        DatasetWriter::create_with(store_dir, WriterOptions::default())
    }

    /// Create a store with explicit format options (segment sizing).
    pub fn create_with(store_dir: &Path, opts: WriterOptions) -> ColResult<DatasetWriter> {
        if opts.segment_rows == 0 {
            return Err(ColError::Format("segment_rows must be at least 1".into()));
        }
        std::fs::create_dir_all(store_dir)
            .map_err(io_ctx(format!("creating {}", store_dir.display())))?;
        let mut cols = Vec::with_capacity(STREAMED.len());
        for name in STREAMED {
            let path = store_dir.join(name);
            let file = File::create(&path)
                .map_err(io_ctx(format!("creating column {}", path.display())))?;
            cols.push(Col {
                name,
                file: BufWriter::new(file),
                bytes: 0,
            });
        }
        Ok(DatasetWriter {
            dir: store_dir.to_path_buf(),
            segment_rows: opts.segment_rows,
            cols,
            widths: STREAMED.iter().map(|n| width_of(n)).collect(),
            pending: vec![Vec::new(); STREAMED.len()],
            metas: vec![Vec::new(); STREAMED.len()],
            dict: DictBuilder::new(),
            fp_lookup: HashMap::new(),
            fp_order: Vec::new(),
            ssl_rows: 0,
            x509_rows: 0,
            category_provider: None,
            cat_pending: Vec::new(),
            cat_digests: Vec::new(),
        })
    }

    /// Attach a per-row category provider: every ssl band this writer
    /// flushes gets a per-segment [`CategoryDigest`] in the manifest,
    /// which the analyze fold uses to skip whole segments under
    /// `--filter-category`. Coverage is all-or-nothing, so attach it
    /// before the first ssl row: attached after one, it turns digests off
    /// and `finish` writes a digest-less store.
    pub fn with_category_provider(mut self, provider: CategoryProvider) -> DatasetWriter {
        self.category_provider = (self.ssl_rows == 0).then_some(provider);
        self
    }

    fn fp_index(&mut self, fp: &Fingerprint) -> ColResult<u32> {
        if let Some(&idx) = self.fp_lookup.get(fp) {
            return Ok(idx);
        }
        let idx = u32::try_from(self.fp_order.len())
            .map_err(|_| ColError::Corrupt("fingerprint table exceeds u32 index space".into()))?;
        self.fp_lookup.insert(*fp, idx);
        self.fp_order.push(*fp);
        Ok(idx)
    }

    /// Buffer one fixed-width value for the current row band.
    fn put_fixed(&mut self, i: usize, v: u64) {
        self.pending[i].push(v);
    }

    /// Encode and flush one whole row band of `group`'s pending values.
    fn flush_band(&mut self, group: &[usize]) -> ColResult<()> {
        for &i in group {
            let values = std::mem::take(&mut self.pending[i]);
            let width = self.widths[i].expect("fixed-width column") as u8;
            let (encoding, param, payload) = codec::encode(&values, width);
            let zone = ZoneMap::for_column(self.cols[i].name, &values);
            if zone.max >= JSON_SAFE_MAX {
                return Err(ColError::Corrupt(format!(
                    "column {}: value {} exceeds the JSON-safe integer range",
                    self.cols[i].name, zone.max
                )));
            }
            self.cols[i].put(&payload)?;
            self.metas[i].push(SegmentMeta {
                rows: values.len() as u64,
                bytes: payload.len() as u64,
                encoding,
                param,
                zone,
            });
        }
        Ok(())
    }

    /// Flush one ssl row band and, when a provider is attached, its
    /// category digest.
    fn flush_ssl_band(&mut self) -> ColResult<()> {
        let rows = self.pending[SSL_TS].len();
        self.flush_band(SSL_FIXED)?;
        if self.category_provider.is_some() {
            debug_assert_eq!(self.cat_pending.len(), rows);
            let mut digest = CategoryDigest::default();
            for &cat in &self.cat_pending {
                digest.add(cat);
            }
            self.cat_pending.clear();
            self.cat_digests.push(digest);
        }
        Ok(())
    }

    /// Append one `ssl.log` row.
    pub fn append_ssl(&mut self, rec: &SslRecord) -> ColResult<()> {
        if let Some(provider) = self.category_provider.as_mut() {
            let cat = provider(rec);
            self.cat_pending.push(cat);
        }
        let sni = self.dict.intern_opt(rec.server_name.as_deref())?;
        let mut chain = Vec::with_capacity(rec.cert_chain_fps.len() * 4);
        for fp in &rec.cert_chain_fps {
            chain.extend_from_slice(&self.fp_index(fp)?.to_le_bytes());
        }
        self.put_fixed(SSL_TS, rec.ts.unix_secs());
        self.cols[SSL_UID_DAT].put(rec.uid.as_bytes())?;
        let uid_end = self.cols[SSL_UID_DAT].bytes;
        self.put_fixed(SSL_UID_IDX, uid_end);
        self.put_fixed(SSL_ORIG_H, u64::from(u32::from(rec.orig_h)));
        self.put_fixed(SSL_ORIG_P, u64::from(rec.orig_p));
        self.put_fixed(SSL_RESP_H, u64::from(u32::from(rec.resp_h)));
        self.put_fixed(SSL_RESP_P, u64::from(rec.resp_p));
        self.put_fixed(SSL_VERSION, u64::from(encode_tls_version(rec.version)));
        self.put_fixed(SSL_SNI, u64::from(sni));
        self.put_fixed(SSL_ESTABLISHED, u64::from(rec.established));
        self.cols[SSL_CHAIN_DAT].put(&chain)?;
        let chain_end = self.cols[SSL_CHAIN_DAT].bytes;
        self.put_fixed(SSL_CHAIN_IDX, chain_end);
        self.ssl_rows += 1;
        if self.pending[SSL_TS].len() as u64 == self.segment_rows {
            self.flush_ssl_band()?;
        }
        Ok(())
    }

    /// Append one `x509.log` row.
    pub fn append_x509(&mut self, rec: &X509Record) -> ColResult<()> {
        let fp = self.fp_index(&rec.fingerprint)?;
        let serial = self.dict.intern(&rec.serial)?;
        let subject = self.dict.intern(&rec.subject)?;
        let issuer = self.dict.intern(&rec.issuer)?;
        let mut san = Vec::with_capacity(rec.san_dns.len() * 4);
        for name in &rec.san_dns {
            san.extend_from_slice(&self.dict.intern(name)?.to_le_bytes());
        }
        let mut flags = 0u8;
        if let Some(ca) = rec.basic_constraints_ca {
            flags |= FLAG_BC_PRESENT;
            if ca {
                flags |= FLAG_BC_CA;
            }
        }
        if rec.path_len.is_some() {
            flags |= FLAG_PATH_LEN;
        }
        self.put_fixed(X509_TS, rec.ts.unix_secs());
        self.put_fixed(X509_FP, u64::from(fp));
        self.put_fixed(X509_VERSION, rec.cert_version);
        self.put_fixed(X509_SERIAL, u64::from(serial));
        self.put_fixed(X509_SUBJECT, u64::from(subject));
        self.put_fixed(X509_ISSUER, u64::from(issuer));
        self.put_fixed(X509_NOT_BEFORE, rec.not_before.unix_secs());
        self.put_fixed(X509_NOT_AFTER, rec.not_after.unix_secs());
        self.put_fixed(X509_FLAGS, u64::from(flags));
        self.put_fixed(X509_PATH_LEN, rec.path_len.unwrap_or(0));
        self.cols[X509_SAN_DAT].put(&san)?;
        let san_end = self.cols[X509_SAN_DAT].bytes;
        self.put_fixed(X509_SAN_IDX, san_end);
        self.x509_rows += 1;
        if self.pending[X509_TS].len() as u64 == self.segment_rows {
            self.flush_band(X509_FIXED)?;
        }
        Ok(())
    }

    /// Rows appended so far, `(ssl, x509)`.
    pub fn rows(&self) -> (u64, u64) {
        (self.ssl_rows, self.x509_rows)
    }

    /// Flush all columns, write the shared tables, then the manifest.
    pub fn finish(mut self) -> ColResult<Manifest> {
        if !self.pending[SSL_TS].is_empty() {
            self.flush_ssl_band()?;
        }
        if !self.pending[X509_TS].is_empty() {
            self.flush_band(X509_FIXED)?;
        }
        let mut columns = std::collections::BTreeMap::new();
        for col in &mut self.cols {
            col.file
                .flush()
                .map_err(io_ctx(format!("flushing column {}", col.name)))?;
            col.file
                .get_ref()
                .sync_all()
                .map_err(io_ctx(format!("syncing column {}", col.name)))?;
            columns.insert(col.name.to_string(), col.bytes);
        }
        let (idx, dat) = self.dict.to_files();
        let mut fps = Vec::with_capacity(self.fp_order.len() * 32);
        for fp in &self.fp_order {
            fps.extend_from_slice(&fp.0);
        }
        for (name, bytes) in [
            ("strings.idx", &idx),
            ("strings.dat", &dat),
            ("fps.dat", &fps),
        ] {
            let path = self.dir.join(name);
            write_durable(&path, bytes)?;
            columns.insert(name.to_string(), bytes.len() as u64);
        }
        debug_assert_eq!(columns.len(), COLUMNS.len());
        let mut segments = std::collections::BTreeMap::new();
        for (i, name) in STREAMED.iter().enumerate() {
            if self.widths[i].is_some() {
                segments.insert(name.to_string(), std::mem::take(&mut self.metas[i]));
            }
        }
        // A provider attached before the first ssl row digested every
        // band; without one the store is digest-less.
        let category_digests = self
            .category_provider
            .is_some()
            .then(|| std::mem::take(&mut self.cat_digests));
        let manifest = Manifest {
            version: VERSION,
            ssl_rows: self.ssl_rows,
            x509_rows: self.x509_rows,
            dict_entries: self.dict.len(),
            fp_entries: self.fp_order.len() as u64,
            columns,
            segment_rows: self.segment_rows,
            segments,
            category_digests,
        };
        manifest.store(&self.dir)?;
        Ok(manifest)
    }
}

/// Create `path` with `bytes` and fsync it before returning, so the data
/// is on disk before the manifest that references it is committed.
fn write_durable(path: &std::path::Path, bytes: &[u8]) -> ColResult<()> {
    let mut file = File::create(path).map_err(io_ctx(format!("creating {}", path.display())))?;
    file.write_all(bytes)
        .map_err(io_ctx(format!("writing {}", path.display())))?;
    file.sync_all()
        .map_err(io_ctx(format!("syncing {}", path.display())))?;
    Ok(())
}
