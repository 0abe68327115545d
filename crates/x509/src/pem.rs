//! PEM armor (RFC 7468) with a from-scratch base64 codec.
//!
//! Used by the scanner crate to mimic `openssl s_client -showcerts` output
//! in the retrospective experiment.

use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Errors from PEM parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PemError {
    /// No BEGIN line with the expected label.
    MissingBegin,
    /// No END line with the expected label.
    MissingEnd,
    /// A character outside the base64 alphabet.
    InvalidBase64,
}

impl fmt::Display for PemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PemError::MissingBegin => write!(f, "missing PEM BEGIN line"),
            PemError::MissingEnd => write!(f, "missing PEM END line"),
            PemError::InvalidBase64 => write!(f, "invalid base64 in PEM body"),
        }
    }
}

impl std::error::Error for PemError {}

/// Encode bytes as base64 (standard alphabet, padded).
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3).saturating_mul(4));
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (b[0] as u32) << 16 | (b[1] as u32) << 8 | b[2] as u32;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// [`DECODE`] marks for the bytes that are not base64 digits.
const PAD: u8 = 0x40;
const SKIP: u8 = 0x80;
const BAD: u8 = 0xc0;

/// Each byte's base64 digit value (0..=63), or [`PAD`] for `=`, [`SKIP`]
/// for ASCII whitespace and [`BAD`] for everything else.
const DECODE: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table[b'=' as usize] = PAD;
    let mut w = 0;
    while w < 5 {
        table[b" \t\n\x0c\r"[w] as usize] = SKIP;
        w += 1;
    }
    table
};

/// Decode base64 (whitespace tolerated, padding required where applicable).
///
/// Whitespace is skipped and the other bytes are taken four at a time.
/// A group may end in one or two `=`, also in the middle of the text,
/// and `=` may appear nowhere else; the text must hold whole groups.
pub fn base64_decode(text: &str) -> Result<Vec<u8>, PemError> {
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut quad = [0u8; 4];
    let mut filled = 0;
    for &b in text.as_bytes() {
        let v = DECODE[usize::from(b)];
        if v == SKIP {
            continue;
        }
        quad[filled] = v;
        filled += 1;
        if filled == 4 {
            decode_quad(quad, &mut out)?;
            filled = 0;
        }
    }
    if filled != 0 {
        return Err(PemError::InvalidBase64);
    }
    Ok(out)
}

/// Append the bytes of one group of four [`DECODE`] values.
fn decode_quad(quad: [u8; 4], out: &mut Vec<u8>) -> Result<(), PemError> {
    let pad = match quad {
        [_, _, PAD, PAD] => 2,
        [_, _, _, PAD] => 1,
        _ => 0,
    };
    let digits = &quad[..4 - pad];
    // A digit is below 0x40; `=`, whitespace and other bytes all set a
    // high bit.
    if digits.iter().fold(0, |acc, &v| acc | v) & BAD != 0 {
        return Err(PemError::InvalidBase64);
    }
    let n = digits.iter().fold(0u32, |n, &v| (n << 6) | u32::from(v)) << (6 * pad);
    let bytes = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
    out.extend_from_slice(&bytes[..3 - pad]);
    Ok(())
}

/// Wrap DER bytes in PEM armor with the given label (e.g. `CERTIFICATE`).
pub fn encode(label: &str, der: &[u8]) -> String {
    let b64 = base64_encode(der);
    let mut out = format!("-----BEGIN {label}-----\n");
    for line in b64.as_bytes().chunks(64) {
        out.push_str(std::str::from_utf8(line).expect("base64 is ASCII"));
        out.push('\n');
    }
    out.push_str(&format!("-----END {label}-----\n"));
    out
}

/// Extract every PEM block with the given label, in order.
pub fn decode_all(label: &str, text: &str) -> Result<Vec<Vec<u8>>, PemError> {
    let begin = format!("-----BEGIN {label}-----");
    let end = format!("-----END {label}-----");
    let mut blocks = Vec::new();
    let mut rest = text;
    while let Some(b) = rest.find(&begin) {
        let after_begin = &rest[b + begin.len()..];
        let e = after_begin.find(&end).ok_or(PemError::MissingEnd)?;
        blocks.push(base64_decode(&after_begin[..e])?);
        rest = &after_begin[e + end.len()..];
    }
    if blocks.is_empty() {
        return Err(PemError::MissingBegin);
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_known_vectors() {
        // RFC 4648 vectors.
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn base64_round_trip() {
        for len in 0..48 {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
        }
    }

    #[test]
    fn base64_rejects_garbage() {
        assert_eq!(base64_decode("!!!!"), Err(PemError::InvalidBase64));
        assert_eq!(base64_decode("abc"), Err(PemError::InvalidBase64));
        assert_eq!(base64_decode("a==="), Err(PemError::InvalidBase64));
        assert_eq!(base64_decode("=abc"), Err(PemError::InvalidBase64));
    }

    #[test]
    fn pem_round_trip() {
        let der = (0u16..300).map(|i| (i % 251) as u8).collect::<Vec<_>>();
        let pem = encode("CERTIFICATE", &der);
        assert!(pem.starts_with("-----BEGIN CERTIFICATE-----\n"));
        assert!(pem.ends_with("-----END CERTIFICATE-----\n"));
        // 64-char line wrapping.
        assert!(pem.lines().all(|l| l.len() <= 64 || l.starts_with("-----")));
        let blocks = decode_all("CERTIFICATE", &pem).unwrap();
        assert_eq!(blocks, vec![der]);
    }

    #[test]
    fn multiple_blocks_in_order() {
        let a = vec![1u8, 2, 3];
        let b = vec![4u8, 5];
        let text = format!("{}{}", encode("CERTIFICATE", &a), encode("CERTIFICATE", &b));
        assert_eq!(decode_all("CERTIFICATE", &text).unwrap(), vec![a, b]);
    }

    #[test]
    fn missing_blocks_reported() {
        assert_eq!(
            decode_all("CERTIFICATE", "no pem here"),
            Err(PemError::MissingBegin)
        );
        assert_eq!(
            decode_all("CERTIFICATE", "-----BEGIN CERTIFICATE-----\nZm9v"),
            Err(PemError::MissingEnd)
        );
    }

    #[test]
    fn label_mismatch_is_missing() {
        let pem = encode("PRIVATE KEY", &[1, 2, 3]);
        assert_eq!(decode_all("CERTIFICATE", &pem), Err(PemError::MissingBegin));
    }
}
