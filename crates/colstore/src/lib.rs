//! `certchain-colstore`: the versioned, mmap-backed columnar on-disk
//! dataset format — the binary representation `certchain analyze` reads
//! instead of re-parsing Zeek TSV on every run.
//!
//! # Layout
//!
//! A columnar store lives in a `colstore/` directory next to the dataset
//! sidecars. One file per field, fixed-width where the field is
//! fixed-width, plus three shared tables:
//!
//! ```text
//! colstore/
//!   dataset.json       manifest: schema/version, row counts, byte lengths
//!   strings.idx        u64 LE end offset per dictionary entry
//!   strings.dat        concatenated UTF-8 bytes of all dictionary entries
//!   fps.dat            32 bytes per distinct fingerprint
//!   ssl.ts             u64 LE epoch seconds per row
//!   ssl.uid.idx        u64 LE end offset per row into ssl.uid.dat
//!   ssl.uid.dat        raw UTF-8 uid bytes (uids never repeat: no dict)
//!   ssl.orig_h         u32 LE (IPv4, big-endian octets packed to u32)
//!   ssl.orig_p         u16 LE
//!   ssl.resp_h         u32 LE
//!   ssl.resp_p         u16 LE
//!   ssl.version        u8 (0 = TLSv12, 1 = TLSv13)
//!   ssl.sni            u32 LE dictionary index, u32::MAX = unset
//!   ssl.established    u8 (0/1)
//!   ssl.chain.idx      u64 LE end offset per row into ssl.chain.dat
//!   ssl.chain.dat      u32 LE fingerprint-table index per chain entry
//!   x509.ts            u64 LE
//!   x509.fp            u32 LE fingerprint-table index
//!   x509.version       u64 LE
//!   x509.serial        u32 LE dictionary index
//!   x509.subject       u32 LE dictionary index
//!   x509.issuer        u32 LE dictionary index
//!   x509.not_before    u64 LE
//!   x509.not_after     u64 LE
//!   x509.flags         u8 (bit0 bc present, bit1 bc value, bit2 pathLen present)
//!   x509.path_len      u64 LE (0 when absent)
//!   x509.san.idx       u64 LE end offset per row into x509.san.dat
//!   x509.san.dat       u32 LE dictionary index per SAN entry
//! ```
//!
//! Heavily repeated strings (SNI, issuer, subject, serial, SAN names) go
//! through one shared dictionary, so every data column is fixed-width and
//! `analyze` can shard workers by row ranges with plain offset arithmetic.
//! Connection uids never repeat, so they bypass the dictionary into a raw
//! var-length column — the writer's memory stays O(distinct strings +
//! distinct fingerprints), never O(rows).
//!
//! # Format versions
//!
//! The writer produces **v2**: each fixed-width column above is stored
//! as a sequence of encoded *segments* — row bands of `segment_rows`
//! rows (the last band of each table may be shorter), each independently
//! compressed ([`codec::Encoding`]: plain / packed / delta / RLE / FoR,
//! smallest wins deterministically) and summarised by a
//! [`zonemap::ZoneMap`] (min/max, plus a 256-bit dictionary-presence
//! bitmap for `ssl.sni`) recorded in the manifest. All columns of one
//! table share identical row banding, so a consumer that decodes a band
//! gets aligned scratch vectors. The var-length `*.dat` files and the
//! shared tables stay raw — segment encoding applies to the fixed-width
//! index/value columns only.
//!
//! Zone maps let `analyze` skip whole segments that cannot match an
//! active predicate.
//!
//! A store is written whole, never extended: [`DatasetWriter`] creates
//! it, and `certchain convert` and `certchain compact` both write a new
//! store into a sibling directory and swap it in by rename only once it
//! is complete.
//!
//! **v1**, the original layout, is a read-only input: every fixed-width
//! column is raw little-endian values at the widths listed above, which
//! are exactly `plain` segments placed end to end. The reader bands a v1
//! store in memory (see [`read`]) and `certchain compact` migrates it to
//! v2.
//!
//! # Reading
//!
//! [`DatasetReader`] validates the manifest (schema/version, and that
//! every column file has exactly the byte length the manifest recorded —
//! truncation is caught before any row is decoded) and then maps each
//! column. On 64-bit unix the default is a real `mmap` (this crate is the
//! only workspace member permitted `unsafe`; every block carries a
//! `SAFETY:` comment enforced by srclint); everywhere else, and on
//! request, a positioned-read fallback loads each column with `pread`.
//!
//! Both versions are read through one segmented API (only *unknown*
//! versions are a hard error): [`SslSegments`] / [`X509Segments`] let
//! the analyze hot path fold straight off the mapped bytes without
//! constructing records, and the record iterators
//! ([`DatasetReader::ssl_iter`] / [`DatasetReader::x509_iter`] yield
//! `Result<SslRecord, _>` / `Result<X509Record, _>`, like the streaming
//! Zeek readers) let `Pipeline::analyze_stream` run unchanged. An x509
//! row is decoded in one place, [`X509Band`]: the record iterator and
//! the columnar analysis both build x509 records through it.

pub mod category;
pub mod checkpoint;
pub mod codec;
pub mod dict;
pub mod manifest;
pub mod map;
pub mod read;
pub mod segment;
pub mod write;
pub mod zonemap;

pub use category::{Category, CategoryDigest, CategorySet, CATEGORY_COUNT, CATEGORY_NAMES};
pub use checkpoint::{
    Checkpoint, CheckpointWriter, FieldFile, FieldReader, FieldWriter, CHECKPOINT_MANIFEST_FILE,
    CHECKPOINT_SCHEMA,
};
pub use manifest::{Manifest, MANIFEST_FILE, SCHEMA, STORE_DIR, VERSION, VERSION_V1};
pub use map::{MapMode, Mapping};
pub use read::{DatasetReader, SegmentedColumn, SslSegments, X509Band, X509Segments};
pub use segment::{SegmentMeta, DEFAULT_SEGMENT_ROWS};
pub use write::{DatasetWriter, WriterOptions};
pub use zonemap::ZoneMap;

use std::fmt;

/// Sentinel dictionary index for an unset optional string field.
pub const NONE_IDX: u32 = u32::MAX;

/// Columnar-store errors.
#[derive(Debug)]
pub enum ColError {
    /// I/O failure with context.
    Io(String, std::io::Error),
    /// Manifest problems: missing, unparseable, or wrong schema/version
    /// (the message spells out expected vs found).
    Format(String),
    /// A column file's on-disk size disagrees with the manifest.
    Truncated {
        /// Column file name.
        file: String,
        /// Byte length the manifest promised.
        expected: u64,
        /// Byte length found on disk.
        found: u64,
    },
    /// Internally inconsistent column data (bad offsets, out-of-range
    /// table indices, invalid UTF-8, unknown enum bytes).
    Corrupt(String),
}

impl fmt::Display for ColError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColError::Io(what, e) => write!(f, "{what}: {e}"),
            ColError::Format(msg) => write!(f, "{msg}"),
            ColError::Truncated {
                file,
                expected,
                found,
            } => write!(
                f,
                "column {file} truncated: manifest records {expected} bytes, found {found}"
            ),
            ColError::Corrupt(msg) => write!(f, "corrupt column data: {msg}"),
        }
    }
}

impl std::error::Error for ColError {}

/// Shorthand result.
pub type ColResult<T> = Result<T, ColError>;

pub(crate) fn io_ctx(what: impl Into<String>) -> impl FnOnce(std::io::Error) -> ColError {
    move |e| ColError::Io(what.into(), e)
}

/// Every column file, in canonical order, with its fixed row width
/// (`None` for var-length data files whose length the manifest pins).
///
/// The shared tables (`strings.*`, `fps.dat`) are listed here too so the
/// manifest covers every byte the reader will map.
pub const COLUMNS: &[(&str, Option<u64>)] = &[
    ("strings.idx", None),
    ("strings.dat", None),
    ("fps.dat", None),
    ("ssl.ts", Some(8)),
    ("ssl.uid.idx", Some(8)),
    ("ssl.uid.dat", None),
    ("ssl.orig_h", Some(4)),
    ("ssl.orig_p", Some(2)),
    ("ssl.resp_h", Some(4)),
    ("ssl.resp_p", Some(2)),
    ("ssl.version", Some(1)),
    ("ssl.sni", Some(4)),
    ("ssl.established", Some(1)),
    ("ssl.chain.idx", Some(8)),
    ("ssl.chain.dat", None),
    ("x509.ts", Some(8)),
    ("x509.fp", Some(4)),
    ("x509.version", Some(8)),
    ("x509.serial", Some(4)),
    ("x509.subject", Some(4)),
    ("x509.issuer", Some(4)),
    ("x509.not_before", Some(8)),
    ("x509.not_after", Some(8)),
    ("x509.flags", Some(1)),
    ("x509.path_len", Some(8)),
    ("x509.san.idx", Some(8)),
    ("x509.san.dat", None),
];

/// Whether a column's row count follows the ssl table (`ssl.*` fixed
/// columns) or the x509 table (`x509.*` fixed columns); shared tables and
/// var-length data files return `None`.
pub(crate) fn rows_for(name: &str, ssl_rows: u64, x509_rows: u64) -> Option<u64> {
    COLUMNS
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, w)| *w)?;
    if name.starts_with("ssl.") {
        Some(ssl_rows)
    } else if name.starts_with("x509.") {
        Some(x509_rows)
    } else {
        None
    }
}
