//! v1 store fixtures without a v1 writer: the writer only produces v2,
//! and v1 is a read-only input, so tests that need a v1 store derive one
//! from a v2 store. Shared by the colstore tests and, through `#[path]`,
//! the CLI tests.

use certchain_colstore::{Manifest, COLUMNS, VERSION_V1};
use std::collections::BTreeMap;
use std::path::Path;

/// Rewrite the v2 store at `v2_store` as a v1 store at `v1_store`
/// (created if missing): every fixed-width column's segments are decoded
/// and written back as raw little-endian values at the column width, the
/// var-length `*.dat` files and the shared tables are copied unchanged,
/// and a `version: 1` manifest is stored last. Returns that manifest.
pub fn write_v1(v2_store: &Path, v1_store: &Path) -> Manifest {
    let v2 = Manifest::load(v2_store).expect("load v2 manifest");
    assert_eq!(v2.version, 2, "write_v1 converts a v2 store");
    std::fs::create_dir_all(v1_store).expect("create v1 store dir");
    let mut columns = BTreeMap::new();
    for (name, width) in COLUMNS {
        let src = v2_store.join(name);
        let dst = v1_store.join(name);
        let Some(width) = width else {
            std::fs::copy(&src, &dst).expect("copy raw column");
            columns.insert(name.to_string(), v2.columns[*name]);
            continue;
        };
        let encoded = std::fs::read(&src).expect("read segmented column");
        let mut raw = Vec::new();
        let mut values = Vec::new();
        let mut at = 0usize;
        for meta in &v2.segments[*name] {
            let end = at + meta.bytes as usize;
            values.clear();
            certchain_colstore::codec::decode_into(
                meta.encoding,
                meta.param,
                *width as u8,
                meta.rows as usize,
                &encoded[at..end],
                &mut values,
            )
            .expect("decode segment");
            for v in &values {
                raw.extend_from_slice(&v.to_le_bytes()[..*width as usize]);
            }
            at = end;
        }
        std::fs::write(&dst, &raw).expect("write raw column");
        columns.insert(name.to_string(), raw.len() as u64);
    }
    let v1 = Manifest {
        version: VERSION_V1,
        ssl_rows: v2.ssl_rows,
        x509_rows: v2.x509_rows,
        dict_entries: v2.dict_entries,
        fp_entries: v2.fp_entries,
        columns,
        segment_rows: 0,
        segments: BTreeMap::new(),
        category_digests: None,
    };
    v1.store(v1_store).expect("store v1 manifest");
    v1
}
