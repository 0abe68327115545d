//! The versioned `dataset.json` manifest: the store's self-description,
//! written last (so a crashed writer never leaves a manifest pointing at
//! incomplete columns) and validated first.
//!
//! Two format versions are readable. v2, the only one written, records
//! `segment_rows` and, for every fixed-width column, the per-segment
//! metadata (rows, encoded bytes, encoding, zone map) that the segmented
//! reader and the zone-map skip rule consume. A v1 manifest records only
//! per-file byte lengths; the reader derives its segment metadata at
//! open time. Unknown versions are a hard error — never a silent
//! fallback.

use crate::category::CategoryDigest;
use crate::codec;
use crate::segment::SegmentMeta;
use crate::{ColError, ColResult, COLUMNS};
use certchain_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Schema identifier stamped into every manifest.
pub const SCHEMA: &str = "certchain-colstore/v1";

/// Current format version. Bump on any layout change.
pub const VERSION: u64 = 2;

/// The legacy raw-column format: read-only, served as `plain` bands.
pub const VERSION_V1: u64 = 1;

/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "dataset.json";

/// Store directory name inside a dataset directory.
pub const STORE_DIR: &str = "colstore";

/// Parsed and schema-checked `dataset.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version ([`VERSION_V1`] or [`VERSION`]).
    pub version: u64,
    /// Rows in the ssl table.
    pub ssl_rows: u64,
    /// Rows in the x509 table.
    pub x509_rows: u64,
    /// Entries in the string dictionary.
    pub dict_entries: u64,
    /// Entries in the fingerprint table.
    pub fp_entries: u64,
    /// Byte length of every column file, keyed by file name.
    pub columns: BTreeMap<String, u64>,
    /// Nominal rows per segment (0 in a parsed v1 manifest; the reader's
    /// v1 banding fills it in).
    pub segment_rows: u64,
    /// Per-segment metadata for every fixed-width column (empty in a
    /// parsed v1 manifest; the reader's v1 banding fills it in).
    pub segments: BTreeMap<String, Vec<SegmentMeta>>,
    /// Optional per-ssl-segment chain-category digests (v2 only). When
    /// present, one digest per ssl row band, each covering exactly that
    /// band's rows — all-or-nothing: a store either digests every ssl
    /// segment or records none, so the skip rule never has to reason
    /// about partial coverage. `None` (old stores, or writers without a
    /// category provider) simply disables category segment-skipping.
    pub category_digests: Option<Vec<CategoryDigest>>,
}

impl Manifest {
    /// Serialise to the on-disk JSON document.
    pub fn to_json(&self) -> JsonValue {
        let columns = self
            .columns
            .iter()
            .map(|(name, bytes)| (name.clone(), JsonValue::Num(*bytes as f64)))
            .collect();
        let mut fields = vec![
            ("schema".into(), JsonValue::Str(SCHEMA.into())),
            ("version".into(), JsonValue::Num(self.version as f64)),
            ("ssl_rows".into(), JsonValue::Num(self.ssl_rows as f64)),
            ("x509_rows".into(), JsonValue::Num(self.x509_rows as f64)),
            (
                "dict_entries".into(),
                JsonValue::Num(self.dict_entries as f64),
            ),
            ("fp_entries".into(), JsonValue::Num(self.fp_entries as f64)),
            ("columns".into(), JsonValue::Obj(columns)),
        ];
        if self.version >= VERSION {
            fields.push((
                "segment_rows".into(),
                JsonValue::Num(self.segment_rows as f64),
            ));
            let segments = self
                .segments
                .iter()
                .map(|(name, metas)| {
                    (
                        name.clone(),
                        JsonValue::Arr(metas.iter().map(SegmentMeta::to_json).collect()),
                    )
                })
                .collect();
            fields.push(("segments".into(), JsonValue::Obj(segments)));
            if let Some(digests) = &self.category_digests {
                fields.push((
                    "category_digests".into(),
                    JsonValue::Arr(digests.iter().map(CategoryDigest::to_json).collect()),
                ));
            }
        }
        JsonValue::Obj(fields)
    }

    /// Parse and schema-check a manifest document. Version mismatches are
    /// reported with expected vs found so `certchain analyze` can fail
    /// before touching any column bytes.
    pub fn from_json(doc: &JsonValue) -> ColResult<Manifest> {
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(SCHEMA) {
            return Err(ColError::Format(format!(
                "columnar dataset schema mismatch: expected {SCHEMA:?}, found {:?}",
                schema.unwrap_or("<missing>")
            )));
        }
        let version = doc
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ColError::Format("manifest missing numeric \"version\"".into()))?;
        if version != VERSION_V1 && version != VERSION {
            return Err(ColError::Format(format!(
                "columnar dataset version mismatch: expected {VERSION_V1} or {VERSION}, \
                 found {version} (re-run `certchain convert` or regenerate the dataset)"
            )));
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ColError::Format(format!("manifest missing numeric {name:?}")))
        };
        let mut columns = BTreeMap::new();
        let cols = doc
            .get("columns")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| ColError::Format("manifest missing \"columns\" object".into()))?;
        for (name, bytes) in cols {
            let bytes = bytes.as_u64().ok_or_else(|| {
                ColError::Format(format!("manifest column {name:?} has a non-numeric length"))
            })?;
            columns.insert(name.clone(), bytes);
        }
        for (name, _) in COLUMNS {
            if !columns.contains_key(*name) {
                return Err(ColError::Format(format!(
                    "manifest is missing column {name:?}"
                )));
            }
        }
        let manifest = Manifest {
            version,
            ssl_rows: field("ssl_rows")?,
            x509_rows: field("x509_rows")?,
            dict_entries: field("dict_entries")?,
            fp_entries: field("fp_entries")?,
            columns,
            segment_rows: if version >= VERSION {
                field("segment_rows")?
            } else {
                0
            },
            segments: if version >= VERSION {
                parse_segments(doc)?
            } else {
                BTreeMap::new()
            },
            category_digests: if version >= VERSION {
                parse_category_digests(doc)?
            } else {
                None
            },
        };
        if manifest.version >= VERSION {
            manifest.validate_segments()?;
        }
        Ok(manifest)
    }

    /// Structural checks only a v2 manifest needs: every fixed-width
    /// column has a segment list whose rows and bytes sum to the table
    /// row count and the recorded file length, all columns of one table
    /// share identical row banding, and encodings are self-consistent.
    fn validate_segments(&self) -> ColResult<()> {
        if self.segment_rows == 0 {
            return Err(ColError::Format(
                "v2 manifest has segment_rows 0 (must be at least 1)".into(),
            ));
        }
        let mut ssl_bands: Option<Vec<u64>> = None;
        let mut x509_bands: Option<Vec<u64>> = None;
        for (name, width) in COLUMNS {
            let Some(width) = width else { continue };
            let metas = self.segments.get(*name).ok_or_else(|| {
                ColError::Format(format!(
                    "v2 manifest is missing segments for column {name:?}"
                ))
            })?;
            let rows = crate::rows_for(name, self.ssl_rows, self.x509_rows)
                .expect("fixed-width columns are table columns");
            let mut row_sum = 0u64;
            let mut byte_sum = 0u64;
            for meta in metas {
                if meta.rows == 0 || meta.rows > self.segment_rows {
                    return Err(ColError::Format(format!(
                        "column {name:?}: segment of {} rows outside 1..={}",
                        meta.rows, self.segment_rows
                    )));
                }
                codec::validate_param(meta.encoding, meta.param, *width as u8)
                    .map_err(|e| ColError::Format(format!("column {name:?}: {e}")))?;
                row_sum += meta.rows;
                byte_sum += meta.bytes;
            }
            if row_sum != rows {
                return Err(ColError::Format(format!(
                    "column {name:?}: segments cover {row_sum} rows, table has {rows}"
                )));
            }
            let file_len = *self.columns.get(*name).expect("checked above");
            if byte_sum != file_len {
                return Err(ColError::Format(format!(
                    "column {name:?}: segments cover {byte_sum} bytes, file has {file_len}"
                )));
            }
            let bands: Vec<u64> = metas.iter().map(|m| m.rows).collect();
            let slot = if name.starts_with("ssl.") {
                &mut ssl_bands
            } else {
                &mut x509_bands
            };
            match slot {
                None => *slot = Some(bands),
                Some(first) => {
                    if *first != bands {
                        return Err(ColError::Format(format!(
                            "column {name:?}: segment row banding disagrees with its table"
                        )));
                    }
                }
            }
        }
        if let Some(digests) = &self.category_digests {
            let bands = ssl_bands.as_deref().unwrap_or(&[]);
            if digests.len() != bands.len() {
                return Err(ColError::Format(format!(
                    "{} category digests for {} ssl segments",
                    digests.len(),
                    bands.len()
                )));
            }
            for (i, (digest, &rows)) in digests.iter().zip(bands).enumerate() {
                if digest.rows() != rows {
                    return Err(ColError::Format(format!(
                        "category digest {i} covers {} rows, ssl segment has {rows}",
                        digest.rows()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Read and check `<store_dir>/dataset.json`.
    pub fn load(store_dir: &Path) -> ColResult<Manifest> {
        let path = store_dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(crate::io_ctx(format!("reading {}", path.display())))?;
        let doc = json::parse(&text)
            .map_err(|e| ColError::Format(format!("{}: invalid JSON: {e}", path.display())))?;
        Manifest::from_json(&doc)
    }

    /// Write `<store_dir>/dataset.json`, fsynced before returning.
    ///
    /// The manifest is the commit point for a dataset: readers trust any
    /// files it names, so it must be durable itself before callers treat
    /// the store as published.
    pub fn store(&self, store_dir: &Path) -> ColResult<()> {
        let path = store_dir.join(MANIFEST_FILE);
        let text = self.to_json().to_pretty() + "\n";
        let mut file = std::fs::File::create(&path)
            .map_err(crate::io_ctx(format!("creating {}", path.display())))?;
        file.write_all(text.as_bytes())
            .map_err(crate::io_ctx(format!("writing {}", path.display())))?;
        file.sync_all()
            .map_err(crate::io_ctx(format!("syncing {}", path.display())))?;
        Ok(())
    }
}

fn parse_category_digests(doc: &JsonValue) -> ColResult<Option<Vec<CategoryDigest>>> {
    let Some(value) = doc.get("category_digests") else {
        return Ok(None);
    };
    let arr = value
        .as_arr()
        .ok_or_else(|| ColError::Format("manifest \"category_digests\" is not an array".into()))?;
    let mut digests = Vec::with_capacity(arr.len());
    for item in arr {
        digests.push(CategoryDigest::from_json(item)?);
    }
    Ok(Some(digests))
}

fn parse_segments(doc: &JsonValue) -> ColResult<BTreeMap<String, Vec<SegmentMeta>>> {
    let obj = doc
        .get("segments")
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| ColError::Format("v2 manifest missing \"segments\" object".into()))?;
    let mut out = BTreeMap::new();
    for (name, value) in obj {
        let arr = value.as_arr().ok_or_else(|| {
            ColError::Format(format!("manifest segments for {name:?} is not an array"))
        })?;
        let mut metas = Vec::with_capacity(arr.len());
        for item in arr {
            metas.push(SegmentMeta::from_json(name, item)?);
        }
        out.insert(name.clone(), metas);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoding;
    use crate::zonemap::ZoneMap;

    fn sample_v1() -> Manifest {
        Manifest {
            version: VERSION_V1,
            ssl_rows: 10,
            x509_rows: 4,
            dict_entries: 7,
            fp_entries: 3,
            columns: COLUMNS.iter().map(|(n, _)| (n.to_string(), 0)).collect(),
            segment_rows: 0,
            segments: BTreeMap::new(),
            category_digests: None,
        }
    }

    fn sample_v2() -> Manifest {
        let mut m = sample_v1();
        m.version = VERSION;
        m.segment_rows = 16;
        for (name, width) in COLUMNS {
            let Some(width) = width else { continue };
            let rows = crate::rows_for(name, m.ssl_rows, m.x509_rows).unwrap();
            let bytes = rows * width;
            m.columns.insert(name.to_string(), bytes);
            let zone = if *name == "ssl.sni" {
                ZoneMap::with_presence(&[1, 2])
            } else {
                ZoneMap::of(&[1, 2])
            };
            m.segments.insert(
                name.to_string(),
                vec![SegmentMeta {
                    rows,
                    bytes,
                    encoding: Encoding::Plain,
                    param: *width as u8,
                    zone,
                }],
            );
        }
        m
    }

    #[test]
    fn v1_round_trips_through_json() {
        let m = sample_v1();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        let text = m.to_json().to_pretty();
        assert!(
            !text.contains("segments"),
            "v1 manifests must not grow v2 fields: {text}"
        );
    }

    #[test]
    fn v2_round_trips_through_json() {
        let m = sample_v2();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn version_mismatch_names_expected_and_found() {
        let mut doc = sample_v1().to_json();
        if let JsonValue::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = JsonValue::Num(99.0);
                }
            }
        }
        let err = Manifest::from_json(&doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expected 1"), "{msg}");
        assert!(msg.contains("found 99"), "{msg}");
        assert!(msg.contains("certchain convert"), "{msg}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = JsonValue::Obj(vec![(
            "schema".into(),
            JsonValue::Str("something-else/v9".into()),
        )]);
        let msg = Manifest::from_json(&doc).unwrap_err().to_string();
        assert!(msg.contains(SCHEMA), "{msg}");
        assert!(msg.contains("something-else/v9"), "{msg}");
    }

    #[test]
    fn missing_column_is_rejected() {
        let mut m = sample_v1();
        m.columns.remove("ssl.ts");
        let msg = Manifest::from_json(&m.to_json()).unwrap_err().to_string();
        assert!(msg.contains("ssl.ts"), "{msg}");
    }

    #[test]
    fn v2_segment_row_sum_mismatch_is_rejected() {
        let mut m = sample_v2();
        m.segments.get_mut("ssl.ts").unwrap()[0].rows = 9;
        let msg = Manifest::from_json(&m.to_json()).unwrap_err().to_string();
        assert!(msg.contains("ssl.ts"), "{msg}");
        assert!(msg.contains("9 rows"), "{msg}");
    }

    #[test]
    fn v2_divergent_banding_is_rejected() {
        let mut m = sample_v2();
        let metas = m.segments.get_mut("ssl.sni").unwrap();
        let mut meta = metas[0].clone();
        metas[0].rows = 4;
        metas[0].bytes = 16;
        meta.rows = 6;
        meta.bytes = 24;
        metas.push(meta);
        let msg = Manifest::from_json(&m.to_json()).unwrap_err().to_string();
        assert!(msg.contains("banding"), "{msg}");
    }

    #[test]
    fn v2_missing_segments_object_is_rejected() {
        let mut doc = sample_v2().to_json();
        if let JsonValue::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "segments");
        }
        let msg = Manifest::from_json(&doc).unwrap_err().to_string();
        assert!(msg.contains("segments"), "{msg}");
    }

    #[test]
    fn v2_category_digests_round_trip() {
        let mut m = sample_v2();
        let mut digest = CategoryDigest::default();
        digest.counts[crate::category::Category::PublicOnly.index()] = m.ssl_rows;
        m.category_digests = Some(vec![digest]);
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // A digest-less manifest stays digest-less (optional field).
        m.category_digests = None;
        let text = m.to_json().to_pretty();
        assert!(!text.contains("category_digests"), "{text}");
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn v2_category_digest_mismatches_are_rejected() {
        // Wrong digest count vs ssl segment count.
        let mut m = sample_v2();
        m.category_digests = Some(vec![]);
        let msg = Manifest::from_json(&m.to_json()).unwrap_err().to_string();
        assert!(msg.contains("category digests"), "{msg}");
        // Digest whose row total disagrees with its segment.
        let mut m = sample_v2();
        let mut digest = CategoryDigest::default();
        digest.counts[0] = m.ssl_rows + 1;
        m.category_digests = Some(vec![digest]);
        let msg = Manifest::from_json(&m.to_json()).unwrap_err().to_string();
        assert!(msg.contains("category digest 0"), "{msg}");
    }
}
