//! The shared string dictionary: heavily repeated strings (SNI, issuer,
//! subject, serial, SAN names) are stored once in `strings.dat` and
//! referenced everywhere else by a `u32` index.
//!
//! On disk the dictionary is two files: `strings.idx` holds one `u64`
//! little-endian *end* offset per entry (entry `i` spans
//! `idx[i-1]..idx[i]`, with an implicit 0 start), and `strings.dat` holds
//! the concatenated UTF-8 bytes. End offsets rather than (start, len)
//! pairs keep the index file at exactly 8 bytes per entry and make the
//! final offset double as the data-file length check.

use crate::{ColError, ColResult, NONE_IDX};
use std::collections::HashMap;
use std::sync::Arc;

/// Interns strings during a write, assigning dense `u32` indices in
/// first-seen order.
///
/// `Arc<str>` is shared between the lookup map and the ordered entry list
/// so each distinct string is stored once, keeping writer memory
/// O(distinct strings) rather than O(rows).
#[derive(Default)]
pub struct DictBuilder {
    lookup: HashMap<Arc<str>, u32>,
    entries: Vec<Arc<str>>,
}

impl DictBuilder {
    /// New, empty dictionary.
    pub fn new() -> DictBuilder {
        DictBuilder::default()
    }

    /// Intern `s`, returning its index.
    pub fn intern(&mut self, s: &str) -> ColResult<u32> {
        if let Some(&idx) = self.lookup.get(s) {
            return Ok(idx);
        }
        let idx = u32::try_from(self.entries.len())
            .map_err(|_| ColError::Corrupt("string dictionary exceeds u32 index space".into()))?;
        if idx == NONE_IDX {
            return Err(ColError::Corrupt(
                "string dictionary exceeds u32 index space".into(),
            ));
        }
        let entry: Arc<str> = Arc::from(s);
        self.lookup.insert(Arc::clone(&entry), idx);
        self.entries.push(entry);
        Ok(idx)
    }

    /// Intern an optional string; `None` becomes [`NONE_IDX`].
    pub fn intern_opt(&mut self, s: Option<&str>) -> ColResult<u32> {
        match s {
            Some(s) => self.intern(s),
            None => Ok(NONE_IDX),
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialise to `(strings.idx, strings.dat)` byte vectors.
    pub fn to_files(&self) -> (Vec<u8>, Vec<u8>) {
        let mut idx = Vec::with_capacity(self.entries.len() * 8);
        let mut dat = Vec::new();
        for entry in &self.entries {
            dat.extend_from_slice(entry.as_bytes());
            idx.extend_from_slice(&(dat.len() as u64).to_le_bytes());
        }
        (idx, dat)
    }
}

/// Read-side view over the mapped `strings.idx` / `strings.dat` pair.
///
/// Borrows the mapped bytes; resolution is two bounds-checked slice
/// reads, no allocation.
#[derive(Clone, Copy)]
pub struct Dict<'a> {
    idx: &'a [u8],
    dat: &'a [u8],
}

impl<'a> Dict<'a> {
    /// Wrap and structurally validate the two mapped files: the index
    /// must be a whole number of `u64`s, offsets must be monotonic, and
    /// the final offset must equal the data length.
    pub fn new(idx: &'a [u8], dat: &'a [u8]) -> ColResult<Dict<'a>> {
        if idx.len() % 8 != 0 {
            return Err(ColError::Corrupt(format!(
                "strings.idx length {} is not a multiple of 8",
                idx.len()
            )));
        }
        let dict = Dict { idx, dat };
        let mut prev = 0u64;
        for i in 0..dict.len() {
            let end = dict.end_offset(i);
            if end < prev {
                return Err(ColError::Corrupt(format!(
                    "strings.idx offsets not monotonic at entry {i}"
                )));
            }
            prev = end;
        }
        if prev != dat.len() as u64 {
            return Err(ColError::Corrupt(format!(
                "strings.idx final offset {prev} != strings.dat length {}",
                dat.len()
            )));
        }
        Ok(dict)
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        (self.idx.len() / 8) as u64
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    fn end_offset(&self, i: u64) -> u64 {
        let at = (i as usize) * 8;
        u64::from_le_bytes(self.idx[at..at + 8].try_into().expect("8-byte slice"))
    }

    /// Resolve index `i` to its string.
    pub fn get(&self, i: u32) -> ColResult<&'a str> {
        let i = u64::from(i);
        if i >= self.len() {
            return Err(ColError::Corrupt(format!(
                "string index {i} out of range (dictionary has {} entries)",
                self.len()
            )));
        }
        let start = if i == 0 { 0 } else { self.end_offset(i - 1) } as usize;
        let end = self.end_offset(i) as usize;
        std::str::from_utf8(&self.dat[start..end])
            .map_err(|_| ColError::Corrupt(format!("string entry {i} is not valid UTF-8")))
    }

    /// Resolve an optional index ([`NONE_IDX`] → `None`).
    pub fn get_opt(&self, i: u32) -> ColResult<Option<&'a str>> {
        if i == NONE_IDX {
            Ok(None)
        } else {
            self.get(i).map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_round_trips() {
        let mut b = DictBuilder::new();
        let a = b.intern("alpha").unwrap();
        let bee = b.intern("beta").unwrap();
        assert_eq!(b.intern("alpha").unwrap(), a);
        assert_eq!((a, bee), (0, 1));
        assert_eq!(b.intern_opt(None).unwrap(), NONE_IDX);
        assert_eq!(b.len(), 2);

        let (idx, dat) = b.to_files();
        let d = Dict::new(&idx, &dat).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(0).unwrap(), "alpha");
        assert_eq!(d.get(1).unwrap(), "beta");
        assert_eq!(d.get_opt(NONE_IDX).unwrap(), None);
        assert!(d.get(2).is_err());
    }

    #[test]
    fn empty_strings_are_representable() {
        let mut b = DictBuilder::new();
        b.intern("").unwrap();
        b.intern("x").unwrap();
        b.intern("").unwrap();
        let (idx, dat) = b.to_files();
        let d = Dict::new(&idx, &dat).unwrap();
        assert_eq!(d.get(0).unwrap(), "");
        assert_eq!(d.get(1).unwrap(), "x");
    }

    #[test]
    fn corrupt_index_is_rejected() {
        // Final offset exceeds data length.
        let idx = 5u64.to_le_bytes().to_vec();
        let dat = b"abc".to_vec();
        assert!(Dict::new(&idx, &dat).is_err());
        // Non-monotonic offsets.
        let mut idx = Vec::new();
        idx.extend_from_slice(&3u64.to_le_bytes());
        idx.extend_from_slice(&1u64.to_le_bytes());
        assert!(Dict::new(&idx, b"abc").is_err());
        // Ragged index length.
        assert!(Dict::new(&[0u8; 7], b"").is_err());
    }
}
