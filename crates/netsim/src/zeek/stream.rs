//! Streaming Zeek TSV log readers: bounded-memory record iterators over
//! any [`Read`].
//!
//! This is the ingestion core the analysis pipeline consumes, in three
//! layers shared by both log types:
//!
//! - **Framing** ([`crate::zeek::block`]): the log is read in blocks of
//!   whole lines, cut before every `#fields` header, and a shared line
//!   walk counts each block's lines, checks UTF-8, strips newlines and
//!   skips comments and blank lines. An io or UTF-8 failure is a fatal
//!   error on its line. A data line before any `#fields` header, or a log
//!   with none at all, fails with `missing #fields header` on line 0. A
//!   mid-file `#fields` line applies to the lines after it.
//! - **The ssl row kernel**, [`SslColumns`]: each `#fields` header is
//!   resolved once into column indices, and a data line is parsed in
//!   place into a borrowed [`SslRow`]. There is no per-row `Vec`, no
//!   lookup by column name, no `String` for a field without a `\`
//!   escape, and fingerprints are hex-decoded straight from the bytes
//!   into a reused buffer. A bad row fails on the first bad field in
//!   [`SSL_FIELDS`] order. x509.log rows go through the same column
//!   resolution into owned [`X509Record`]s.
//! - **Record iterators**: [`SslLogStream`] / [`X509LogStream`] are the
//!   framer, one block, the walk and the kernel: they yield
//!   `Result<Record, ReadError>` per data row. The first bad row ends a
//!   strict stream with its line number and message. The chain
//!   analyzer's TSV path builds no records: it takes the stream's blocks
//!   ([`SslLogStream::into_blocks`]) and walks, parses and folds them on
//!   its workers with the same walk and kernel
//!   (`chainlab::pipeline::ingest`).
//!
//! Real-world logs are messier than the synthetic corpus, and a
//! measurement pipeline must account for every record it drops. Each
//! stream therefore keeps [`StreamStats`] — lines read, records yielded,
//! malformed rows tallied by parse-failure reason — shared behind an
//! `Arc` so callers can read the tallies after the stream is consumed.
//! The `permissive` constructors additionally *skip* malformed data rows
//! instead of fusing (header problems stay fatal either way): that is
//! the loss-accounting mode `certchain analyze` runs in, with the counts
//! surfaced in its summary line and metrics snapshot.

use crate::handshake::TlsVersion;
use crate::zeek::block::{Block, LineWalk, LogBlocks, Schema};
use crate::zeek::record::{SslRecord, X509Record};
use crate::zeek::tsv::{parse, parse_version, unescape_at, zeek_unescape, SSL_FIELDS, X509_FIELDS};
use certchain_asn1::Asn1Time;
use certchain_x509::Fingerprint;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Read;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A log-parsing failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// 1-based line number (0 for whole-file failures such as a missing
    /// `#fields` header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReadError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ReadError {
    ReadError {
        line,
        message: message.into(),
    }
}

/// Marks a header column no field of the schema reads.
const UNREAD: u8 = u8::MAX;

/// Where the fields of one log schema sit in a `#fields` header.
#[derive(Debug, Clone)]
struct Columns<const N: usize> {
    names: &'static [&'static str; N],
    /// Column of each field; `None` when the header lacks it. A repeated
    /// name resolves to its last column.
    index: [Option<usize>; N],
    /// Field of every header column up to the last one read.
    field_at: Vec<u8>,
}

impl<const N: usize> Columns<N> {
    fn resolve(names: &'static [&'static str; N], header: &str) -> Self {
        let mut index = [None; N];
        for (col, name) in header.split('\t').enumerate() {
            if let Some(field) = names.iter().position(|n| *n == name) {
                index[field] = Some(col);
            }
        }
        let read = index.iter().flatten().max().map_or(0, |&last| last + 1);
        let mut field_at = vec![UNREAD; read];
        for (field, col) in index.iter().enumerate() {
            if let Some(col) = *col {
                field_at[col] = field as u8;
            }
        }
        Columns {
            names,
            index,
            field_at,
        }
    }

    /// Split a data line at tabs, keeping the cells of this schema's
    /// fields and stopping after the last column any field reads.
    fn split<'a>(&self, line: usize, text: &'a str) -> Cells<'_, 'a, N> {
        let mut cells = [""; N];
        let mut width = 0;
        let mut start = 0;
        let mut tabs = Tabs::new(text.as_bytes());
        while let Some(&field) = self.field_at.get(width) {
            let tab = tabs.next();
            let end = tab.unwrap_or(text.len());
            if field != UNREAD {
                cells[usize::from(field)] = &text[start..end];
            }
            width += 1;
            match tab {
                Some(tab) => start = tab + 1,
                None => break,
            }
        }
        Cells {
            columns: self,
            cells,
            width,
            line,
            next: 0,
        }
    }
}

/// The offsets of the tab bytes in a line, in order, found eight bytes at
/// a time.
struct Tabs<'a> {
    bytes: &'a [u8],
    /// Offset of the word `found` describes.
    word: usize,
    /// The high bit of each tab byte in that word, not yet returned.
    found: u64,
}

impl<'a> Tabs<'a> {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const TAB: u64 = 0x0909_0909_0909_0909;

    fn new(bytes: &'a [u8]) -> Self {
        Tabs {
            bytes,
            word: 0,
            found: Tabs::scan(bytes),
        }
    }

    /// The high bit of every tab byte among the first eight of `bytes`
    /// (exact per byte: no carry crosses a byte boundary).
    fn scan(bytes: &[u8]) -> u64 {
        let word: [u8; 8] = match bytes.get(..8) {
            Some(word) => word.try_into().expect("eight bytes"),
            None => {
                let mut tail = [0u8; 8];
                tail[..bytes.len()].copy_from_slice(bytes);
                tail
            }
        };
        let x = u64::from_le_bytes(word) ^ Tabs::TAB;
        !(((x & Tabs::LOW7) + Tabs::LOW7) | x | Tabs::LOW7)
    }
}

impl Iterator for Tabs<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.found == 0 {
            self.word = self.word.checked_add(8)?;
            self.found = Tabs::scan(self.bytes.get(self.word..)?);
        }
        let bit = self.found.trailing_zeros() as usize;
        self.found &= self.found - 1;
        Some(self.word + bit / 8)
    }
}

/// The cells one schema reads from a data line.
struct Cells<'c, 'a, const N: usize> {
    columns: &'c Columns<N>,
    cells: [&'a str; N],
    /// Columns the line has, counted up to the last one read.
    width: usize,
    line: usize,
    /// The field [`Cells::take`] returns next.
    next: usize,
}

impl<'a, const N: usize> Cells<'_, 'a, N> {
    /// The next field's cell in schema order, or the error the row fails
    /// with at that field.
    fn take(&mut self) -> Result<&'a str, ReadError> {
        let field = self.next;
        self.next += 1;
        let name = self.columns.names[field];
        match self.columns.index[field] {
            None => Err(err(self.line, format!("missing field {name}"))),
            Some(col) if col >= self.width => {
                Err(err(self.line, format!("row too short for field {name}")))
            }
            Some(_) => Ok(self.cells[field]),
        }
    }
}

/// The ssl row kernel: where the ssl.log fields sit under one `#fields`
/// header, and the in-place parse of the data lines under it.
#[derive(Debug, Clone)]
pub struct SslColumns(Columns<10>);

impl Schema for SslColumns {
    type Record = SslRecord;

    fn resolve(names: &str) -> SslColumns {
        SslColumns(Columns::resolve(SSL_FIELDS, names))
    }

    fn record(&self, line: usize, text: &str) -> Result<SslRecord, ReadError> {
        let mut fps = Vec::new();
        let row = self.parse(line, text, &mut fps)?;
        let record = SslRecord {
            ts: row.ts,
            uid: row.uid().into_owned(),
            orig_h: row.orig_h,
            orig_p: row.orig_p,
            resp_h: row.resp_h,
            resp_p: row.resp_p,
            version: row.version,
            server_name: row.server_name().map(Cow::into_owned),
            established: row.established,
            cert_chain_fps: Vec::new(),
        };
        // The row borrows `fps` until here; the record takes it whole.
        Ok(SslRecord {
            cert_chain_fps: fps,
            ..record
        })
    }
}

impl SslColumns {
    /// Parse data line `line` in place. The chain is decoded into `fps`
    /// (cleared first), which the row then borrows. On a bad row, the
    /// error names the first bad field in [`SSL_FIELDS`] order.
    pub fn parse<'a>(
        &self,
        line: usize,
        text: &'a str,
        fps: &'a mut Vec<Fingerprint>,
    ) -> Result<SslRow<'a>, ReadError> {
        let mut cells = self.0.split(line, text);
        let bad = |what: &str| err(line, format!("bad {what}"));
        let ts = parse::ts(cells.take()?).ok_or_else(|| bad("ts"))?;
        let uid = cells.take()?;
        let orig_h = cells.take()?.parse().map_err(|_| bad("id.orig_h"))?;
        let orig_p = cells.take()?.parse().map_err(|_| bad("id.orig_p"))?;
        let resp_h = cells.take()?.parse().map_err(|_| bad("id.resp_h"))?;
        let resp_p = cells.take()?.parse().map_err(|_| bad("id.resp_p"))?;
        let version = parse_version(cells.take()?).ok_or_else(|| bad("version"))?;
        let server_name = Some(cells.take()?).filter(|s| *s != "-");
        let established = parse::boolean(cells.take()?).ok_or_else(|| bad("established"))?;
        if !decode_chain(cells.take()?, fps) {
            return Err(bad("fingerprint"));
        }
        Ok(SslRow {
            ts,
            orig_h,
            orig_p,
            resp_h,
            resp_p,
            version,
            established,
            cert_chain_fps: fps,
            uid,
            server_name,
        })
    }
}

/// One parsed ssl.log row, borrowed from its line and, for the chain,
/// from the caller's fingerprint buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SslRow<'a> {
    /// Connection timestamp.
    pub ts: Asn1Time,
    /// Originator address.
    pub orig_h: Ipv4Addr,
    /// Originator port.
    pub orig_p: u16,
    /// Responder address.
    pub resp_h: Ipv4Addr,
    /// Responder port.
    pub resp_p: u16,
    /// Negotiated TLS version.
    pub version: TlsVersion,
    /// Whether the handshake completed.
    pub established: bool,
    /// The delivered chain, decoded.
    pub cert_chain_fps: &'a [Fingerprint],
    /// The uid as written (Zeek escapes intact).
    uid: &'a str,
    /// The SNI as written, when set.
    server_name: Option<&'a str>,
}

impl<'a> SslRow<'a> {
    /// The connection uid, escapes undone (borrowed unless it had one).
    pub fn uid(&self) -> Cow<'a, str> {
        zeek_unescape(self.uid)
    }

    /// The SNI, when the client sent one, escapes undone (borrowed
    /// unless it had one).
    pub fn server_name(&self) -> Option<Cow<'a, str>> {
        self.server_name.map(zeek_unescape)
    }
}

/// Decode a `cert_chain_fps` cell into `fps` (cleared first); false when
/// an entry is not a fingerprint. Entries split at `,` before escapes are
/// undone, as in every vector field.
fn decode_chain(cell: &str, fps: &mut Vec<Fingerprint>) -> bool {
    fps.clear();
    for entry in parse::entries(cell) {
        match decode_fingerprint(entry) {
            Some(fp) => fps.push(fp),
            None => return false,
        }
    }
    true
}

/// One chain entry: `\xHH` escapes undone into a stack buffer, then the
/// hex decode. Rejects exactly what decoding the unescaped (lossy UTF-8)
/// string would: anything but 64 ASCII hex digits.
fn decode_fingerprint(entry: &str) -> Option<Fingerprint> {
    let bytes = entry.as_bytes();
    // A `\` is not a hex digit: only an entry that fails plain decoding
    // can hold an escape.
    if let Some(fp) = Fingerprint::from_hex_bytes(bytes) {
        return Some(fp);
    }
    if !bytes.contains(&b'\\') {
        return None;
    }
    let mut hex = [0u8; 64];
    let mut len = 0;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let (b, step) = match unescape_at(bytes, i) {
            Some(decoded) => (decoded, 4),
            None => (b, 1),
        };
        *hex.get_mut(len)? = b;
        len += 1;
        i += step;
    }
    Fingerprint::from_hex_bytes(hex.get(..len)?)
}

/// x509.log fields under one `#fields` header.
#[derive(Debug, Clone)]
struct X509Columns(Columns<11>);

impl Schema for X509Columns {
    type Record = X509Record;

    fn resolve(names: &str) -> X509Columns {
        X509Columns(Columns::resolve(X509_FIELDS, names))
    }

    fn record(&self, line: usize, text: &str) -> Result<X509Record, ReadError> {
        let mut cells = self.0.split(line, text);
        let bad = |what: &str| err(line, format!("bad {what}"));
        let ts = parse::ts(cells.take()?).ok_or_else(|| bad("ts"))?;
        let fingerprint = Fingerprint::from_hex(cells.take()?).ok_or_else(|| bad("fingerprint"))?;
        let cert_version: u64 = cells
            .take()?
            .parse()
            .map_err(|_| bad("certificate.version"))?;
        let serial = zeek_unescape(cells.take()?).into_owned();
        let subject = zeek_unescape(cells.take()?).into_owned();
        let issuer = zeek_unescape(cells.take()?).into_owned();
        let not_before = parse::ts(cells.take()?).ok_or_else(|| bad("not_valid_before"))?;
        let not_after = parse::ts(cells.take()?).ok_or_else(|| bad("not_valid_after"))?;
        let basic_constraints_ca = match parse::optional(cells.take()?) {
            None => None,
            Some(v) => Some(parse::boolean(&v).ok_or_else(|| bad("basic_constraints.ca"))?),
        };
        let path_len = match parse::optional(cells.take()?) {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| bad("basic_constraints.path_len"))?),
        };
        let san_dns = parse::vector(cells.take()?);
        Ok(X509Record {
            ts,
            fingerprint,
            cert_version,
            serial,
            subject,
            issuer,
            not_before,
            not_after,
            basic_constraints_ca,
            path_len,
            san_dns,
        })
    }
}

/// Shared, thread-safe tallies for one log stream: the loss-accounting
/// ledger. Counts are exact (every input line lands in exactly one of
/// comment/record/malformed), so `lines = comments + records + malformed`
/// once the stream is exhausted.
#[derive(Debug, Default)]
pub struct StreamStats {
    lines: AtomicU64,
    records: AtomicU64,
    malformed: AtomicU64,
    by_reason: Mutex<BTreeMap<String, u64>>,
}

impl StreamStats {
    /// Input lines consumed, including headers and comments.
    pub fn lines(&self) -> u64 {
        self.lines.load(Relaxed)
    }

    /// Well-formed data rows yielded as records.
    pub fn records(&self) -> u64 {
        self.records.load(Relaxed)
    }

    /// Malformed data rows (skipped in permissive mode, fatal otherwise).
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Relaxed)
    }

    /// Malformed-row tallies keyed by parse-failure reason (e.g.
    /// `bad ts`, `missing field server_name`), sorted by reason.
    pub fn malformed_by_reason(&self) -> BTreeMap<String, u64> {
        self.by_reason
            .lock()
            .expect("stream stats poisoned")
            .clone()
    }

    /// Settle one parsed data row under the loss-accounting policy: a
    /// good row counts as a record and comes back; a bad row is tallied
    /// under its reason, then skipped (`Ok(None)`) when `permissive` or
    /// returned as the error that ends a strict read.
    pub fn settle<T>(
        &self,
        parsed: Result<T, ReadError>,
        permissive: bool,
    ) -> Result<Option<T>, ReadError> {
        match parsed {
            Ok(row) => {
                self.records.fetch_add(1, Relaxed);
                Ok(Some(row))
            }
            Err(e) => {
                self.malformed.fetch_add(1, Relaxed);
                *self
                    .by_reason
                    .lock()
                    .expect("stream stats poisoned")
                    .entry(e.message.clone())
                    .or_default() += 1;
                if permissive {
                    Ok(None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Count `n` input lines.
    pub(crate) fn count_lines(&self, n: u64) {
        self.lines.fetch_add(n, Relaxed);
    }

    /// Add `other`'s tallies (lines, records, and malformed rows by
    /// reason) to these: how blocks walked on worker threads, each
    /// against tallies of its own, reach the stream's.
    pub fn absorb(&self, other: &StreamStats) {
        self.lines.fetch_add(other.lines(), Relaxed);
        self.records.fetch_add(other.records(), Relaxed);
        self.malformed.fetch_add(other.malformed(), Relaxed);
        let mut by_reason = self.by_reason.lock().expect("stream stats poisoned");
        for (reason, n) in other.malformed_by_reason() {
            *by_reason.entry(reason).or_default() += n;
        }
    }
}

/// A record iterator over one log schema: the framer, the one block it
/// holds, the walk over that block, and the schema's kernel.
struct Records<R, C> {
    blocks: LogBlocks<R, C>,
    block: Block<C>,
    walk: LineWalk,
    done: bool,
}

impl<R: Read, C: Schema> Records<R, C> {
    fn new(reader: R, permissive: bool) -> Self {
        Records::from_blocks(LogBlocks::new(reader, permissive))
    }

    fn from_blocks(blocks: LogBlocks<R, C>) -> Self {
        Records {
            blocks,
            block: Block::default(),
            walk: LineWalk::default(),
            done: false,
        }
    }
}

impl<R: Read, C: Schema> Iterator for Records<R, C> {
    type Item = Result<C::Record, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let stats = &self.blocks.stats;
            let item = match self.walk.next(&self.block, stats) {
                Some(Ok(l)) => {
                    let parsed = l.columns.record(l.line, l.text);
                    match stats.settle(parsed, self.blocks.is_permissive()) {
                        Ok(None) => continue,
                        settled => settled.transpose(),
                    }
                }
                Some(Err(e)) => Some(Err(e)),
                None => {
                    if self.blocks.next_block(&mut self.block) {
                        let first = self.blocks.stats.lines() as usize;
                        self.walk = LineWalk::start(&self.block, first);
                        continue;
                    }
                    None
                }
            };
            // An error, like the end of the log, fuses the stream.
            self.done = !matches!(item, Some(Ok(_)));
            return item;
        }
        None
    }
}

/// Streaming ssl.log reader: yields one [`SslRecord`] per data row,
/// holding one block of lines at a time.
///
/// ```no_run
/// use certchain_netsim::zeek::stream::SslLogStream;
/// let file = std::fs::File::open("ssl.log").unwrap();
/// for record in SslLogStream::new(file) {
///     let record = record.expect("well-formed row");
///     let _ = record.cert_chain_fps;
/// }
/// ```
pub struct SslLogStream<R>(Records<R, SslColumns>);

impl<R: Read> SslLogStream<R> {
    /// Stream records from `reader`.
    pub fn new(reader: R) -> Self {
        SslLogStream(Records::new(reader, false))
    }

    /// Stream records from `reader`, skipping (and tallying) malformed
    /// data rows instead of fusing. Header problems stay fatal.
    pub fn permissive(reader: R) -> Self {
        SslLogStream(Records::new(reader, true))
    }

    /// Stream records from a framer set up by the caller (a block size
    /// of its choosing, in tests).
    pub fn from_blocks(blocks: LogBlocks<R, SslColumns>) -> Self {
        SslLogStream(Records::from_blocks(blocks))
    }

    /// The stream's framer, for a consumer that walks and parses the
    /// blocks itself ([`LineWalk`], [`SslColumns::parse`]) and settles
    /// each row with [`StreamStats::settle`]. Take it before iterating:
    /// the lines of a block the stream holds go with the stream.
    pub fn into_blocks(self) -> LogBlocks<R, SslColumns> {
        self.0.blocks
    }

    /// Whether malformed rows are skipped rather than fatal.
    pub fn is_permissive(&self) -> bool {
        self.0.blocks.is_permissive()
    }

    /// The stream's loss-accounting tallies (shared; read them after the
    /// stream is consumed).
    pub fn stats(&self) -> Arc<StreamStats> {
        self.0.blocks.stats()
    }
}

impl<R: Read> Iterator for SslLogStream<R> {
    type Item = Result<SslRecord, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
}

/// Streaming x509.log reader: yields one [`X509Record`] per data row.
pub struct X509LogStream<R>(Records<R, X509Columns>);

impl<R: Read> X509LogStream<R> {
    /// Stream records from `reader`.
    pub fn new(reader: R) -> Self {
        X509LogStream(Records::new(reader, false))
    }

    /// Stream records from `reader`, skipping (and tallying) malformed
    /// data rows instead of fusing. Header problems stay fatal.
    pub fn permissive(reader: R) -> Self {
        X509LogStream(Records::new(reader, true))
    }

    /// The stream's loss-accounting tallies (shared; read them after the
    /// stream is consumed).
    pub fn stats(&self) -> Arc<StreamStats> {
        self.0.blocks.stats()
    }
}

impl<R: Read> Iterator for X509LogStream<R> {
    type Item = Result<X509Record, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zeek::tsv::{write_ssl_log, write_x509_log};
    use certchain_asn1::Asn1Time;

    fn t() -> Asn1Time {
        Asn1Time::from_ymd_hms(2020, 9, 1, 0, 0, 0).unwrap()
    }

    fn sample_ssl() -> SslRecord {
        SslRecord {
            ts: t(),
            uid: "Cabc".into(),
            orig_h: Ipv4Addr::new(128, 143, 1, 2),
            orig_p: 50000,
            resp_h: Ipv4Addr::new(203, 0, 113, 5),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("example.org".into()),
            established: true,
            cert_chain_fps: vec![Fingerprint([3; 32])],
        }
    }

    #[test]
    fn stream_round_trips_ssl() {
        let records = vec![sample_ssl(), {
            let mut r = sample_ssl();
            r.uid = "Cdef".into();
            r.server_name = None;
            r.cert_chain_fps.clear();
            r
        }];
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, t()).unwrap();
        let parsed: Vec<SslRecord> = SslLogStream::new(buf.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn stream_round_trips_x509() {
        let records = vec![X509Record {
            ts: t(),
            fingerprint: Fingerprint([9; 32]),
            cert_version: 3,
            serial: "BEEF".into(),
            subject: "CN=a, O=b\\, Inc., C=US".into(),
            issuer: "CN=ca".into(),
            not_before: t(),
            not_after: t().plus_days(397),
            basic_constraints_ca: Some(true),
            path_len: Some(0),
            san_dns: vec!["a.org".into()],
        }];
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &records, t()).unwrap();
        let parsed: Vec<X509Record> = X509LogStream::new(buf.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed, records);
    }

    fn ssl_line(chain: &str) -> String {
        format!("1598918400.000000\tC1\t1.2.3.4\t1\t5.6.7.8\t443\tTLSv12\t-\tT\t{chain}")
    }

    #[test]
    fn tabs_match_str_split() {
        let long = "x\t".repeat(37);
        // A tab followed by 0x08 trips the borrowing zero-byte trick.
        for text in [
            "",
            "a",
            "\t",
            "a\tb",
            "\t\x08\t\t",
            "abcdefgh\tijklmnop\t",
            "0123456\t\x08\x08\x08\x08\x08\x08\x08\t",
            "\u{e9}\t\u{4e2d}\t",
            &long,
        ] {
            let want: Vec<usize> = text.match_indices('\t').map(|(i, _)| i).collect();
            assert_eq!(
                Tabs::new(text.as_bytes()).collect::<Vec<_>>(),
                want,
                "{text:?}"
            );
        }
    }

    #[test]
    fn kernel_decodes_fingerprints_however_written() {
        let fp = Fingerprint([0xab; 32]);
        let hex = fp.to_hex();
        let escaped = format!("\\x{:02X}\\x62{}", b'a', &hex[2..]);
        let columns = SslColumns::resolve(&SSL_FIELDS.join("\t"));
        for chain in [
            hex.clone(),
            hex.to_uppercase(),
            escaped.clone(),
            format!("{escaped},{}", hex.to_uppercase()),
        ] {
            let line = ssl_line(&chain);
            let rec = columns.record(8, &line).unwrap();
            assert!(!rec.cert_chain_fps.is_empty());
            assert!(rec.cert_chain_fps.iter().all(|f| *f == fp), "{chain}");
        }
    }

    #[test]
    fn kernel_rejects_what_the_hex_decode_rejects() {
        let hex = Fingerprint([0xab; 32]).to_hex();
        let columns = SslColumns::resolve(&SSL_FIELDS.join("\t"));
        for chain in [
            format!("a{}b", "\u{e9}".repeat(31)),
            "+0".repeat(32),
            format!("\\x2b{}", &hex[1..]),
            hex[1..].to_string(),
            format!("{hex},"),
            format!("{hex}0"),
        ] {
            let line = ssl_line(&chain);
            let err = columns.parse(8, &line, &mut Vec::new()).unwrap_err();
            assert_eq!(err, super::err(8, "bad fingerprint"), "{chain}");
        }
    }

    #[test]
    fn kernel_fails_on_the_first_bad_field_in_schema_order() {
        let no_sni: Vec<&str> = SSL_FIELDS
            .iter()
            .copied()
            .filter(|f| *f != "server_name")
            .collect();
        let columns = SslColumns::resolve(&no_sni.join("\t"));
        let row = "1.0\tC1\t1.2.3.4\t1\t5.6.7.8\t443\tTLSv12\tT\t(empty)";
        let err = columns.parse(3, row, &mut Vec::new()).unwrap_err();
        assert_eq!(err.message, "missing field server_name");
        let err = columns
            .parse(3, &row.replacen("1.0", "NaN", 1), &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.message, "bad ts");
        let columns = SslColumns::resolve(&SSL_FIELDS.join("\t"));
        let err = columns
            .parse(4, "1.0\tC1\t1.2.3.4\t1", &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.message, "row too short for field id.resp_h");
    }

    #[test]
    fn mid_file_fields_header_applies_to_later_lines() {
        let records = vec![sample_ssl(), {
            let mut r = sample_ssl();
            r.uid = "C\t2".into();
            r
        }];
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, t()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let second = lines.iter().rposition(|l| !l.starts_with('#')).unwrap();
        let mut cols: Vec<&str> = lines[second].split('\t').collect();
        let mut names: Vec<&str> = SSL_FIELDS.to_vec();
        cols.reverse();
        names.reverse();
        lines[second] = cols.join("\t");
        lines.insert(second, format!("#fields\t{}", names.join("\t")));
        let text = lines.join("\n") + "\n";
        let parsed: Vec<SslRecord> = SslLogStream::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn stream_fuses_after_first_error() {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[sample_ssl(), sample_ssl()], t()).unwrap();
        // Corrupt both data rows' established column.
        let text = String::from_utf8(buf).unwrap().replace("\tT\t", "\tQ\t");
        let mut stream = SslLogStream::new(text.as_bytes());
        let first = stream.next().expect("one item");
        assert!(first.is_err());
        assert!(stream.next().is_none(), "stream is fused after an error");
    }

    #[test]
    fn permissive_stream_skips_and_tallies_malformed_rows() {
        let records = vec![sample_ssl(), sample_ssl(), sample_ssl()];
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, t()).unwrap();
        // Corrupt exactly the second data row's established column.
        let text = String::from_utf8(buf).unwrap();
        let mut seen = 0;
        let text: String = text
            .lines()
            .map(|l| {
                let mut l = l.to_string();
                if !l.starts_with('#') {
                    seen += 1;
                    if seen == 2 {
                        l = l.replace("\tT\t", "\tQ\t");
                    }
                }
                l + "\n"
            })
            .collect();
        let stream = SslLogStream::permissive(text.as_bytes());
        let stats = stream.stats();
        let parsed: Vec<SslRecord> = stream.collect::<Result<_, _>>().expect("no fatal errors");
        assert_eq!(parsed.len(), 2, "good rows still come through");
        assert_eq!(stats.records(), 2);
        assert_eq!(stats.malformed(), 1);
        let reasons = stats.malformed_by_reason();
        assert_eq!(reasons.get("bad established"), Some(&1));
        // Every line is accounted for: headers + 3 data rows.
        assert_eq!(
            stats.lines(),
            stats.records() + stats.malformed() + (stats.lines() - 3)
        );
    }

    #[test]
    fn permissive_stream_still_fails_on_missing_header() {
        let text = "no header here\n";
        let mut stream = SslLogStream::permissive(text.as_bytes());
        let first = stream.next().expect("one item");
        let e = first.expect_err("header problems stay fatal");
        assert_eq!(e.line, 0);
        assert!(e.message.contains("missing #fields header"));
    }

    #[test]
    fn strict_stream_tallies_the_fatal_row_too() {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[sample_ssl()], t()).unwrap();
        let text = String::from_utf8(buf).unwrap().replace("\tT\t", "\tQ\t");
        let stream = SslLogStream::new(text.as_bytes());
        let stats = stream.stats();
        let results: Vec<_> = stream.collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
        assert_eq!(stats.malformed(), 1);
        assert_eq!(stats.records(), 0);
    }

    #[test]
    fn permissive_x509_stream_skips_bad_fingerprints() {
        let records = vec![X509Record {
            ts: t(),
            fingerprint: Fingerprint([9; 32]),
            cert_version: 3,
            serial: "BEEF".into(),
            subject: "CN=a".into(),
            issuer: "CN=ca".into(),
            not_before: t(),
            not_after: t().plus_days(397),
            basic_constraints_ca: None,
            path_len: None,
            san_dns: vec![],
        }];
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &records, t()).unwrap();
        let good = String::from_utf8(buf).unwrap();
        // Append a data row with a truncated fingerprint.
        let bad_row = good
            .lines()
            .find(|l| !l.starts_with('#'))
            .unwrap()
            .replacen(&Fingerprint([9; 32]).to_hex(), "abcd", 1);
        let text = format!("{good}{bad_row}\n");
        let stream = X509LogStream::permissive(text.as_bytes());
        let stats = stream.stats();
        let parsed: Vec<X509Record> = stream.collect::<Result<_, _>>().expect("no fatal errors");
        assert_eq!(parsed, records);
        assert_eq!(stats.malformed(), 1);
        assert_eq!(stats.malformed_by_reason().get("bad fingerprint"), Some(&1));
    }
}
