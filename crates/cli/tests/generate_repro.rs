//! `certchain generate` is byte-reproducible: one seed writes one
//! dataset, down to the file names of the trust material, at every
//! thread count, and its logs are pinned to known digests.

use certchain_cli::generate;
use certchain_cryptosim::{sha256, Sha256};
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

/// SHA-256 of the quick profile's seed-7 logs. A change to the generated
/// bytes, even one every run repeats, must update these on purpose.
const QUICK_SEED7_SSL_SHA256: &str =
    "51ac8716a8c42691ca804451567f217293f8e6475743f4c43436c9fd480c0796";
const QUICK_SEED7_X509_SHA256: &str =
    "ca64edca2963930067814d6a9b86feb1402a820438bbdae3425a68d29b7f3d51";

#[test]
fn two_generates_of_one_seed_write_identical_trees() {
    let base = std::env::temp_dir().join(format!("certchain-gen-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let profile = CampusProfile {
        seed: 7,
        ..CampusProfile::quick()
    };
    let (a, b) = (base.join("a"), base.join("b"));
    generate::generate_with(&a, profile.clone(), 1).unwrap();
    generate::generate_with(&b, profile, 8).unwrap();
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
        "files differ between threads 1 and 8: {differ:?}"
    );
    for dir in ["trust/roots", "trust/ccadb", "ct"] {
        assert!(first.keys().any(|p| p.starts_with(dir)), "{dir} is empty");
    }
    for (log, want) in [
        ("ssl.log", QUICK_SEED7_SSL_SHA256),
        ("x509.log", QUICK_SEED7_X509_SHA256),
    ] {
        let digest = sha256::hex(&Sha256::digest(&first[Path::new(log)]));
        assert_eq!(digest, want, "{log} changed bytes");
    }
    std::fs::remove_dir_all(&base).unwrap();
}
