//! The checkpoint bytes are pinned. A quick-profile seed-7 dataset,
//! split into four spool parts and drained by `serve` in two sessions
//! with a restart between them (as the CI "Serve smoke" step does),
//! leaves a final generation whose every file has a known SHA-256: one
//! run, which absorbed the first session's, and the manifest. The
//! in-memory form of the state may change; the bytes it encodes to may
//! not without a new pin, since a generation written before the change
//! must still resume (chainlab's `tests/fixtures/parent-v1` keeps one of
//! the layout before runs).

use certchain_cli::{generate, serve};
use certchain_cryptosim::{sha256, Sha256};
use certchain_workload::CampusProfile;

/// The final generation's files and their SHA-256 digests.
const FINAL_GENERATION: [(&str, &str); 2] = [
    (
        "checkpoint.json",
        "923fbaf5b479aed6b4becdbd75f382b6268d1532d5c248732a4a7d85c39efdd8",
    ),
    (
        "run-000002.dat",
        "1899805c69d38056910b5e29b5326c470e6ab8055d3f5116f4eb4114c7cc77a1",
    ),
];

#[test]
fn a_drain_with_a_restart_writes_the_pinned_generation() {
    let base = std::env::temp_dir().join(format!("certchain-ckpt-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (dataset, spool, held, checkpoint) = (
        base.join("dataset"),
        base.join("spool"),
        base.join("held"),
        base.join("checkpoint"),
    );
    let profile = CampusProfile {
        seed: 7,
        ..CampusProfile::quick()
    };
    generate::generate(&dataset, profile).expect("generate");
    serve::spool_split(&dataset, &spool, 4).expect("spool-split");
    let drain = || {
        serve::serve(
            &dataset,
            &spool,
            &checkpoint,
            &serve::ServeOptions {
                threads: 2,
                drain_once: true,
                ..serve::ServeOptions::default()
            },
        )
        .expect("serve drain")
    };
    // Session 1 sees the spool without its last two ssl rotations;
    // session 2 resumes from its checkpoint once they arrive.
    let late = ["ssl.2024-09-01-02.log", "ssl.2024-09-01-03.log"];
    std::fs::create_dir_all(&held).unwrap();
    for name in late {
        std::fs::rename(spool.join(name), held.join(name)).unwrap();
    }
    drain();
    for name in late {
        std::fs::rename(held.join(name), spool.join(name)).unwrap();
    }
    drain();

    let generation = checkpoint.join("gen-000002");
    let mut files: Vec<String> = std::fs::read_dir(&generation)
        .expect("a second generation")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(
        files,
        FINAL_GENERATION.map(|(name, _)| name.to_string()),
        "the final generation's files"
    );
    for (name, want) in FINAL_GENERATION {
        let bytes = std::fs::read(generation.join(name)).unwrap();
        let digest = sha256::hex(&Sha256::digest(&bytes));
        assert_eq!(digest, want, "{name} changed bytes");
    }
    std::fs::remove_dir_all(&base).unwrap();
}
