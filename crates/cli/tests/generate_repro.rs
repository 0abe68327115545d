//! `certchain generate` is byte-reproducible: one seed writes one
//! dataset, down to the file names of the trust material.

use certchain_cli::generate;
use certchain_workload::CampusProfile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every file under `root`, by its path relative to `root`, with its bytes.
fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

#[test]
fn two_generates_of_one_seed_write_identical_trees() {
    let base = std::env::temp_dir().join(format!("certchain-gen-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let profile = CampusProfile {
        seed: 7,
        ..CampusProfile::quick()
    };
    let (a, b) = (base.join("a"), base.join("b"));
    generate::generate(&a, profile.clone()).unwrap();
    generate::generate(&b, profile).unwrap();
    let (first, second) = (tree(&a), tree(&b));
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>()
    );
    let differ: Vec<&PathBuf> = first
        .iter()
        .filter(|(path, bytes)| second[*path] != **bytes)
        .map(|(path, _)| path)
        .collect();
    assert!(
        differ.is_empty(),
        "files differ between two runs: {differ:?}"
    );
    for dir in ["trust/roots", "trust/ccadb", "ct"] {
        assert!(first.keys().any(|p| p.starts_with(dir)), "{dir} is empty");
    }
    std::fs::remove_dir_all(&base).unwrap();
}
