//! The block framer against an independent oracle: at block sizes from 1
//! to 512 bytes, over rough logs — CRLF lines, blank lines, comments and
//! `#close`, a mid-file permuted `#fields` line, a last line with no
//! newline, an invalid-UTF-8 line, a data line before any header — every
//! data line's number, text and header in effect, the fatal error and the
//! line count must equal what splitting the bytes at `\n` gives.
//!
//! Each block is walked on its own with line numbers from 0 and rebased
//! by the lines of the blocks before it, as the chain analyzer's TSV
//! workers do.

use certchain_netsim::zeek::block::{Block, LineWalk, LogBlocks, Schema};
use certchain_netsim::zeek::stream::{ReadError, StreamStats};
use proptest::prelude::*;

/// A schema that keeps the header's column names as written.
#[derive(Debug)]
struct Names(String);

impl Schema for Names {
    type Record = ();

    fn resolve(names: &str) -> Names {
        Names(names.to_string())
    }

    fn record(&self, _line: usize, _text: &str) -> Result<(), ReadError> {
        Ok(())
    }
}

/// What a framing yields: `(line, text, header)` per data line, the
/// fatal error, and the lines counted.
type Framed = (Vec<(usize, String, String)>, Option<ReadError>, u64);

fn error(line: usize, message: &str) -> Option<ReadError> {
    Some(ReadError {
        line,
        message: message.to_string(),
    })
}

/// The oracle: split at `\n`, then read each line as the stream
/// contract says.
fn oracle(bytes: &[u8]) -> Framed {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // The piece after a final newline (or of an empty log) is no line.
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    let mut header: Option<String> = None;
    let mut rows = Vec::new();
    let mut counted = 0;
    for (i, raw) in lines.into_iter().enumerate() {
        let Ok(text) = std::str::from_utf8(raw) else {
            let e = error(i + 1, "io error: stream did not contain valid UTF-8");
            return (rows, e, counted);
        };
        counted += 1;
        let text = text.strip_suffix('\r').unwrap_or(text);
        if let Some(names) = text.strip_prefix("#fields\t") {
            header = Some(names.to_string());
        } else if text.starts_with('#') || text.is_empty() {
        } else if let Some(names) = &header {
            rows.push((i + 1, text.to_string(), names.clone()));
        } else {
            return (rows, error(0, "missing #fields header"), counted);
        }
    }
    let e = header
        .is_none()
        .then(|| error(0, "missing #fields header"))
        .flatten();
    (rows, e, counted)
}

/// The framer at `block_bytes`, each block walked from line 0 against
/// tallies of its own, then rebased.
fn framed(bytes: &[u8], block_bytes: usize) -> Framed {
    let mut blocks = LogBlocks::<_, Names>::with_block_bytes(bytes, true, block_bytes);
    let mut block = Block::default();
    let mut rows = Vec::new();
    let mut before = 0;
    let mut seq = 0;
    while blocks.next_block(&mut block) {
        assert_eq!(block.seq(), seq, "blocks come in order");
        seq += 1;
        let stats = StreamStats::default();
        let mut walk = LineWalk::start(&block, 0);
        while let Some(next) = walk.next(&block, &stats) {
            match next {
                Ok(l) => rows.push((before + l.line, l.text.to_string(), l.columns.0.clone())),
                Err(mut e) => {
                    if e.line != 0 {
                        e.line += before;
                    }
                    return (rows, Some(e), before as u64 + stats.lines());
                }
            }
        }
        before += stats.lines() as usize;
    }
    (rows, None, before as u64)
}

/// SplitMix64.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A rough log from one seed (see the module docs).
fn rough_log(seed: u64) -> Vec<u8> {
    let mut rng = seed;
    let mut pick = |n: u64| mix(&mut rng) % n;
    let mut out: Vec<u8> = Vec::new();
    let eol =
        |out: &mut Vec<u8>, crlf: bool| out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
    let names = ["ts", "uid", "id.orig_h", "server_name", "cert_chain_fps"];
    let tokens = [
        "1.5",
        "C\\x41",
        "-",
        "a#b",
        "#",
        "(empty)",
        "\u{e9}t\u{e9}",
        "x",
    ];
    let before_header = pick(8) == 0;
    let rows = pick(40) as usize;
    let permuted_at = pick(rows as u64 + 1) as usize;
    let bad_at = (pick(4) == 0).then(|| pick(rows as u64 + 1) as usize);
    for line in ["#separator \\x09", "#path\tssl", ""] {
        out.extend_from_slice(line.as_bytes());
        eol(&mut out, pick(3) == 0);
    }
    if before_header {
        out.extend_from_slice(b"1.0\tC1");
        eol(&mut out, false);
    }
    out.extend_from_slice(format!("#fields\t{}", names.join("\t")).as_bytes());
    eol(&mut out, pick(3) == 0);
    out.extend_from_slice(b"#types\ttime\tstring");
    eol(&mut out, false);
    for row in 0..rows {
        if row == permuted_at {
            let shift = pick(names.len() as u64) as usize;
            let permuted: Vec<&str> = (0..names.len())
                .map(|i| names[(i + shift) % names.len()])
                .collect();
            out.extend_from_slice(format!("#fields\t{}", permuted.join("\t")).as_bytes());
            eol(&mut out, pick(3) == 0);
        }
        if bad_at == Some(row) {
            out.extend_from_slice(if pick(2) == 0 {
                b"1.0\t\xff\tx"
            } else {
                b"1.0\tC\xc3"
            });
            eol(&mut out, false);
        }
        match pick(8) {
            0 => out.extend_from_slice(b"#note a comment"),
            1 => {}
            2 => out.extend_from_slice(b"#fieldsX not a header"),
            _ => {
                let cells: Vec<&str> = (0..1 + pick(6))
                    .map(|_| tokens[pick(tokens.len() as u64) as usize])
                    .collect();
                out.extend_from_slice(cells.join("\t").as_bytes());
            }
        }
        eol(&mut out, pick(3) == 0);
    }
    if pick(2) == 0 {
        out.extend_from_slice(b"#close\t2024-09-01-00-00-00");
        eol(&mut out, false);
    }
    if pick(2) == 0 {
        // The last line has no newline.
        while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            out.pop();
        }
    }
    out
}

fn check(log: &[u8], block_bytes: usize) {
    let want = oracle(log);
    let got = framed(log, block_bytes);
    assert_eq!(
        got,
        want,
        "block_bytes = {block_bytes} over {:?}",
        String::from_utf8_lossy(log)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn framing_matches_the_split_oracle(seed in any::<u64>(), block_bytes in 1usize..=512) {
        check(&rough_log(seed), block_bytes);
    }
}

/// Every block size from 1 to 512 over a few fixed logs, so every
/// `#fields` line (the mid-file one included) is split across a block
/// boundary at some size.
#[test]
fn every_small_block_size_matches_the_oracle() {
    for seed in [1, 2, 3, 5, 8] {
        let log = rough_log(seed);
        for block_bytes in 1..=512 {
            check(&log, block_bytes);
        }
    }
}

#[test]
fn empty_and_header_only_logs() {
    for log in [
        &b""[..],
        b"\n",
        b"#fields\tts",
        b"#fields\tts\n",
        b"#fields\tts\r\n#close\n",
        b"1.0\n#fields\tts\n",
        b"\xff\n#fields\tts\n",
        b"#fields\tts\n\xff",
    ] {
        for block_bytes in 1..=8 {
            check(log, block_bytes);
        }
    }
}
