//! Block framing for Zeek TSV logs: the reading side only reads, and a
//! shared line walk does the per-line work wherever the block lands.
//!
//! [`LogBlocks`] reads about [`BLOCK_BYTES`] into a buffer and hands out
//! the whole lines among them as a [`Block`]; a cut-off last line starts
//! the next block. It looks at the bytes only to find where the last line
//! ends and where a `#fields` line starts: a block is cut before every
//! `#fields` line, so all the lines of a block parse under one header.
//! The framer applies the lines it must read itself (everything before
//! the first `#fields` header, and every `#fields` line) and counts only
//! those, as the block's `lines_before`.
//!
//! [`LineWalk`] walks one block's lines: it counts them, checks each is
//! UTF-8 (a failure is the fatal `io error` on that line), strips the
//! newline and a trailing CR, skips comments and blank lines, and yields
//! each data line with its number and the header in effect. A block may
//! end in a fatal error the framer met (a read failure, a data line
//! before any header, no header at all); the walk yields it after the
//! block's last line.
//!
//! Each block is a *region* of the log: its framer-read lines, then its
//! text lines, then its fatal end, if any. Line numbers in a walk count
//! from the `first` it is given, so a walk can run on any thread without
//! knowing how many lines came before: the record iterators in
//! [`crate::zeek::stream`] walk blocks in order and pass the running line
//! count, and the chain analyzer's TSV workers pass 0 and rebase the
//! numbers once every earlier block has been walked.

use crate::zeek::stream::{err, ReadError, StreamStats};
use std::io::Read;
use std::sync::Arc;

/// Bytes the framer reads per block. A line longer than that makes a
/// longer block.
pub const BLOCK_BYTES: usize = 256 * 1024;

/// What `std` reports when a line is not UTF-8.
const INVALID_UTF8: &str = "stream did not contain valid UTF-8";

/// What the fatal error of a log with no `#fields` header says.
const MISSING_HEADER: &str = "missing #fields header";

/// How one log schema reads the lines under a `#fields` header.
pub trait Schema: Sized {
    /// The owned record a data line parses into.
    type Record;

    /// Resolve a header: the tab-separated column names after `#fields`.
    fn resolve(names: &str) -> Self;

    /// Parse data line `line` under this header.
    fn record(&self, line: usize, text: &str) -> Result<Self::Record, ReadError>;
}

/// The fatal error a block ends in, met by the framer.
#[derive(Debug)]
enum End {
    /// A data line before any `#fields` header, or none at all: line 0.
    MissingHeader,
    /// An io or UTF-8 failure on the line after the block's last.
    Io(String),
}

/// A run of whole log lines, all under one `#fields` header: one region
/// of the log (see the module docs). A default block is an empty buffer
/// for [`LogBlocks::next_block`] to fill.
#[derive(Debug)]
pub struct Block<C> {
    seq: usize,
    text: Vec<u8>,
    columns: Option<Arc<C>>,
    lines_before: usize,
    end: Option<End>,
}

impl<C> Default for Block<C> {
    fn default() -> Self {
        Block {
            seq: 0,
            text: Vec::new(),
            columns: None,
            lines_before: 0,
            end: None,
        }
    }
}

impl<C> Block<C> {
    /// The block's index in the log, from 0.
    pub fn seq(&self) -> usize {
        self.seq
    }
}

/// A log read as [`Block`]s, with the stream's loss-accounting policy
/// and tallies.
pub struct LogBlocks<R, C> {
    reader: R,
    block_bytes: usize,
    /// Bytes read past the last block: the start of the next one.
    carry: Vec<u8>,
    /// The header in effect.
    columns: Option<Arc<C>>,
    /// The next block's index.
    seq: usize,
    /// The input has no more bytes (or failed: see `failed`).
    eof: bool,
    /// The read failure the input ended with, not yet handed out.
    failed: Option<String>,
    /// The last block has been handed out.
    done: bool,
    permissive: bool,
    pub(crate) stats: Arc<StreamStats>,
}

impl<R: Read, C: Schema> LogBlocks<R, C> {
    /// Frame `reader` in blocks of about [`BLOCK_BYTES`]. A `permissive`
    /// consumer skips and tallies malformed data rows instead of failing
    /// on them.
    pub fn new(reader: R, permissive: bool) -> Self {
        LogBlocks::with_block_bytes(reader, permissive, BLOCK_BYTES)
    }

    /// [`LogBlocks::new`] with blocks of about `block_bytes` (at least 1):
    /// small blocks let tests cross block boundaries often.
    pub fn with_block_bytes(reader: R, permissive: bool, block_bytes: usize) -> Self {
        LogBlocks {
            reader,
            block_bytes: block_bytes.max(1),
            carry: Vec::new(),
            columns: None,
            seq: 0,
            eof: false,
            failed: None,
            done: false,
            permissive,
            stats: Arc::new(StreamStats::default()),
        }
    }

    /// Whether malformed data rows are skipped rather than fatal.
    pub fn is_permissive(&self) -> bool {
        self.permissive
    }

    /// The stream's loss-accounting tallies (shared; read them after the
    /// log is consumed).
    pub fn stats(&self) -> Arc<StreamStats> {
        Arc::clone(&self.stats)
    }

    /// Frame the next block into `block`, a buffer handed back by an
    /// earlier call or a default one. False once the log is exhausted;
    /// a block that ends in a fatal error is the last.
    pub fn next_block(&mut self, block: &mut Block<C>) -> bool {
        if self.done {
            return false;
        }
        block.seq = self.seq;
        self.seq += 1;
        block.lines_before = 0;
        block.end = None;
        let text = &mut block.text;
        text.clear();
        text.append(&mut self.carry);
        // The framer's own lines at the front, then the data lines.
        let mut start = 0;
        let mut want = self.block_bytes;
        let whole = loop {
            self.fill(text, want);
            let whole = self.whole_lines(text);
            while start < whole {
                let rest = &text[start..whole];
                if self.columns.is_some() && !rest.starts_with(b"#fields\t") {
                    break;
                }
                let len = find_byte(rest, b'\n').map_or(rest.len(), |i| i + 1);
                let Ok(line) = std::str::from_utf8(&rest[..len]) else {
                    return self.end_with(block, End::Io(INVALID_UTF8.into()));
                };
                block.lines_before += 1;
                match strip_newline(line).strip_prefix("#fields\t") {
                    Some(names) => self.columns = Some(Arc::new(C::resolve(names))),
                    None if self.columns.is_none() && !is_skipped(line) => {
                        return self.end_with(block, End::MissingHeader);
                    }
                    None => {}
                }
                start += len;
            }
            if start < whole {
                break whole;
            }
            if self.eof {
                // The last block: the framer's last lines, if any, and how
                // the log ends.
                self.done = true;
                block.text.clear();
                block.end = match self.failed.take() {
                    Some(e) => Some(End::Io(e)),
                    None => self.columns.is_none().then_some(End::MissingHeader),
                };
                return block.lines_before > 0 || block.end.is_some();
            }
            // Only framer lines so far, or a line longer than the buffer:
            // read on.
            text.drain(..start);
            start = 0;
            want = text.len().saturating_add(self.block_bytes);
        };
        let cut = start + next_fields_line(&text[start..whole]).unwrap_or(whole - start);
        self.carry.extend_from_slice(&text[cut..]);
        text.truncate(cut);
        text.drain(..start);
        block.columns = self.columns.clone();
        true
    }

    /// Hand out `block` as the last one: no data lines, then `end`.
    fn end_with(&mut self, block: &mut Block<C>, end: End) -> bool {
        block.text.clear();
        block.end = Some(end);
        self.done = true;
        true
    }

    /// Read into `text` until it holds `want` bytes or the input ends. A
    /// read failure ends the input after the last whole line read.
    fn fill(&mut self, text: &mut Vec<u8>, want: usize) {
        if self.eof || text.len() >= want {
            return;
        }
        let asked = want - text.len();
        // One allocation per buffer, not a doubling series.
        text.reserve(asked);
        match (&mut self.reader).take(asked as u64).read_to_end(text) {
            Ok(got) if got < asked => self.eof = true,
            Ok(_) => {}
            Err(e) => {
                // The error is on the line it cut short, which is dropped.
                let whole = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                text.truncate(whole);
                self.failed = Some(e.to_string());
                self.eof = true;
            }
        }
    }

    /// The end of the last whole line in `text`: at the end of the input
    /// the last line needs no newline.
    fn whole_lines(&self, text: &[u8]) -> usize {
        if self.eof {
            return text.len();
        }
        text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
    }
}

/// The offset of the first line of `text` (which starts a line) that is
/// a `#fields` header, found by its `#` bytes.
fn next_fields_line(text: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = find_byte(&text[from..], b'#') {
        let at = from + i;
        if (at == 0 || text[at - 1] == b'\n') && text[at..].starts_with(b"#fields\t") {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// A line without its newline and a trailing CR (`str::lines` semantics).
fn strip_newline(line: &str) -> &str {
    let line = line.strip_suffix('\n').unwrap_or(line);
    line.strip_suffix('\r').unwrap_or(line)
}

/// Comments and blank lines count as lines but hold no row.
fn is_skipped(line: &str) -> bool {
    let line = strip_newline(line);
    line.starts_with('#') || line.is_empty()
}

/// A data line as the walk yields it.
#[derive(Debug, Clone, Copy)]
pub struct DataLine<'a, C> {
    /// The line number, counted from the walk's `first`.
    pub line: usize,
    /// The line without its newline.
    pub text: &'a str,
    /// The header in effect.
    pub columns: &'a C,
}

/// A walk over one block's lines (see the module docs). It holds only
/// its position, so the block can live beside it.
#[derive(Debug, Default)]
pub struct LineWalk {
    pos: usize,
    /// The number of the last line passed.
    line: usize,
    /// Lines passed and not yet counted into the stats.
    uncounted: u64,
    done: bool,
}

impl LineWalk {
    /// Start walking `block`, numbering its lines from `first + 1`.
    pub fn start<C>(block: &Block<C>, first: usize) -> LineWalk {
        LineWalk {
            pos: 0,
            line: first + block.lines_before,
            uncounted: block.lines_before as u64,
            done: false,
        }
    }

    /// The block's next data line, its fatal error (after which the walk
    /// is done), or `None` at its end. The lines passed are counted into
    /// `stats` when the walk ends.
    pub fn next<'a, C>(
        &mut self,
        block: &'a Block<C>,
        stats: &StreamStats,
    ) -> Option<Result<DataLine<'a, C>, ReadError>> {
        if self.done {
            return None;
        }
        while let Some(rest) = block.text.get(self.pos..).filter(|r| !r.is_empty()) {
            let len = find_byte(rest, b'\n').map_or(rest.len(), |i| i + 1);
            let Ok(line) = std::str::from_utf8(&rest[..len]) else {
                self.finish(stats);
                return Some(Err(err(self.line + 1, format!("io error: {INVALID_UTF8}"))));
            };
            self.pos += len;
            self.line += 1;
            self.uncounted += 1;
            if is_skipped(line) {
                continue;
            }
            let Some(columns) = block.columns.as_deref() else {
                self.finish(stats);
                return Some(Err(err(0, MISSING_HEADER)));
            };
            return Some(Ok(DataLine {
                line: self.line,
                text: strip_newline(line),
                columns,
            }));
        }
        self.finish(stats);
        block.end.as_ref().map(|end| {
            Err(match end {
                End::MissingHeader => err(0, MISSING_HEADER),
                End::Io(e) => err(self.line + 1, format!("io error: {e}")),
            })
        })
    }

    /// End the walk, counting the lines passed.
    fn finish(&mut self, stats: &StreamStats) {
        self.done = true;
        stats.count_lines(std::mem::take(&mut self.uncounted));
    }
}

/// The offset of the first `byte` in `bytes`, sixteen bytes at a time.
fn find_byte(bytes: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let lanes = ONES * u64::from(byte);
    // The high bit of each zero byte of `x`, and maybe of bytes above the
    // lowest one: only the lowest is read.
    let zeros = |word: &[u8]| {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ lanes;
        x.wrapping_sub(ONES) & !x & HIGH
    };
    let mut chunks = bytes.chunks_exact(16);
    let mut at = 0;
    for chunk in &mut chunks {
        let (lo, hi) = (zeros(&chunk[..8]), zeros(&chunk[8..]));
        if lo != 0 {
            return Some(at + lo.trailing_zeros() as usize / 8);
        }
        if hi != 0 {
            return Some(at + 8 + hi.trailing_zeros() as usize / 8);
        }
        at += 16;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == byte)
        .map(|i| at + i)
}
