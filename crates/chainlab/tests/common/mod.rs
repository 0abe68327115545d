//! Helpers the checkpoint tests share.

use std::path::Path;

/// Write `bytes` over the field file at `path` and record their size and
/// SHA-256 in its generation's manifest, so that `load_latest` decodes
/// the changed file rather than failing its digest check.
pub fn reseal(path: &Path, bytes: &[u8]) {
    use certchain_cryptosim::{sha256, Sha256};
    use certchain_obs::json::{self, JsonValue};
    std::fs::write(path, bytes).unwrap();
    let manifest = path.with_file_name(certchain_colstore::CHECKPOINT_MANIFEST_FILE);
    let mut doc = json::parse(&std::fs::read_to_string(&manifest).unwrap()).expect("manifest JSON");
    let JsonValue::Obj(fields) = &mut doc else {
        panic!("manifest is not an object")
    };
    let Some((_, JsonValue::Obj(files))) = fields.iter_mut().find(|(k, _)| k == "files") else {
        panic!("manifest has no files object")
    };
    let name = path.file_name().and_then(|n| n.to_str()).unwrap();
    let Some((_, recorded)) = files.iter_mut().find(|(k, _)| k == name) else {
        panic!("manifest lists no {name}")
    };
    *recorded = JsonValue::Obj(vec![
        ("bytes".into(), JsonValue::Num(bytes.len() as f64)),
        (
            "sha256".into(),
            JsonValue::Str(sha256::hex(&Sha256::digest(bytes))),
        ),
    ]);
    std::fs::write(&manifest, doc.to_pretty() + "\n").unwrap();
}
