//! Per-segment zone maps: min/max bounds for every segmented column,
//! plus a 256-bit dictionary-presence bitmap for the `ssl.sni` column
//! ([`ZoneMap::for_column`] is the one rule that picks between them).
//!
//! The fold consults these before decoding a segment. The skip rule is
//! conservative in exactly one direction: a zone map may claim a value
//! *could* be present when it is not (bitmap collisions, min/max gaps),
//! but never the reverse — so skipping a segment whose zone map excludes
//! the predicate value is always exact.

use crate::{ColError, ColResult, NONE_IDX};

/// Bytes in the presence bitmap (256 bits).
pub const BITMAP_BYTES: usize = 32;

/// Min/max (and optional presence bitmap) summary of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest value in the segment (0 for an empty segment).
    pub min: u64,
    /// Largest value in the segment (0 for an empty segment).
    pub max: u64,
    /// Dictionary-presence bitmap: bit `hash(code) % 256` is set for
    /// every non-[`NONE_IDX`] code in the segment. Only recorded for
    /// `ssl.sni`.
    pub bitmap: Option<Box<[u8; BITMAP_BYTES]>>,
}

/// Bit position for a dictionary code. A multiplicative scramble spreads
/// consecutive first-seen-order codes across the 256 bits.
fn bit_of(code: u32) -> usize {
    (code.wrapping_mul(0x9E37_79B9) >> 24) as usize
}

impl ZoneMap {
    /// Min/max summary of `values`, no bitmap.
    pub fn of(values: &[u64]) -> ZoneMap {
        ZoneMap {
            min: values.iter().copied().min().unwrap_or(0),
            max: values.iter().copied().max().unwrap_or(0),
            bitmap: None,
        }
    }

    /// Min/max plus a presence bitmap over every value except
    /// [`NONE_IDX`] (the unset-SNI sentinel carries no information).
    pub fn with_presence(values: &[u64]) -> ZoneMap {
        let mut zone = ZoneMap::of(values);
        let mut bits = Box::new([0u8; BITMAP_BYTES]);
        for &v in values {
            if v != u64::from(NONE_IDX) {
                let bit = bit_of(v as u32);
                bits[bit / 8] |= 1 << (bit % 8);
            }
        }
        zone.bitmap = Some(bits);
        zone
    }

    /// The zone map a segment of column `name` records: min/max, plus
    /// the presence bitmap on `ssl.sni`. The writer and the reader's v1
    /// banding both summarise segments through this one rule.
    pub fn for_column(name: &str, values: &[u64]) -> ZoneMap {
        if name == "ssl.sni" {
            ZoneMap::with_presence(values)
        } else {
            ZoneMap::of(values)
        }
    }

    /// Whether `v` falls inside the min/max bounds.
    pub fn contains(&self, v: u64) -> bool {
        self.min <= v && v <= self.max
    }

    /// Whether dictionary code `code` may occur in the segment. Without
    /// a bitmap this is always true (no information, never skip).
    pub fn may_contain_code(&self, code: u32) -> bool {
        match &self.bitmap {
            None => true,
            Some(bits) => {
                let bit = bit_of(code);
                bits[bit / 8] & (1 << (bit % 8)) != 0
            }
        }
    }

    /// Hex form of the bitmap for the manifest, if present.
    pub fn bitmap_hex(&self) -> Option<String> {
        self.bitmap.as_ref().map(|bits| {
            let mut s = String::with_capacity(BITMAP_BYTES * 2);
            for b in bits.iter() {
                s.push_str(&format!("{b:02x}"));
            }
            s
        })
    }

    /// Parse the manifest hex form back into a bitmap.
    pub fn bitmap_from_hex(hex: &str) -> ColResult<Box<[u8; BITMAP_BYTES]>> {
        let bytes = hex.as_bytes();
        if bytes.len() != BITMAP_BYTES * 2 {
            return Err(ColError::Format(format!(
                "segment bitmap has {} hex digits, expected {}",
                bytes.len(),
                BITMAP_BYTES * 2
            )));
        }
        let mut bits = Box::new([0u8; BITMAP_BYTES]);
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let s = std::str::from_utf8(pair)
                .map_err(|_| ColError::Format("segment bitmap is not ASCII hex".into()))?;
            bits[i] = u8::from_str_radix(s, 16)
                .map_err(|_| ColError::Format(format!("segment bitmap has non-hex digit {s:?}")))?;
        }
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_and_containment() {
        let z = ZoneMap::of(&[5, 2, 9]);
        assert_eq!((z.min, z.max), (2, 9));
        assert!(z.contains(2) && z.contains(9) && z.contains(5));
        assert!(!z.contains(1) && !z.contains(10));
        assert!(z.may_contain_code(0), "no bitmap means never skip");
    }

    #[test]
    fn presence_bitmap_never_false_negative() {
        let codes: Vec<u64> = (0..40).map(|i| i * 13 + 1).collect();
        let z = ZoneMap::with_presence(&codes);
        for &c in &codes {
            assert!(z.may_contain_code(c as u32), "present code {c} must hit");
        }
    }

    #[test]
    fn none_idx_is_excluded_from_presence() {
        let z = ZoneMap::with_presence(&[u64::from(NONE_IDX)]);
        assert!(!z.may_contain_code(NONE_IDX));
    }

    #[test]
    fn bitmap_hex_round_trips() {
        let z = ZoneMap::with_presence(&[1, 77, 300]);
        let hex = z.bitmap_hex().expect("bitmap present");
        let back = ZoneMap::bitmap_from_hex(&hex).expect("parse");
        assert_eq!(back, *z.bitmap.as_ref().unwrap());
        assert!(ZoneMap::bitmap_from_hex("zz").is_err());
    }
}
