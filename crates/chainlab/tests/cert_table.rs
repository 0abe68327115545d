//! The one x509 intern rule, held to a reference model: `CertTable`
//! directly, and `PipelineState` folding the same rows across a
//! checkpoint save and reload. A reloaded checkpoint whose stored rows
//! break the rule — a repeated fingerprint, a row that no longer
//! parses — is corrupt.

mod common;

use certchain_asn1::Asn1Time;
use certchain_chainlab::{
    CertRecord, CertTable, CrossSignRegistry, Pipeline, PipelineState, StateError,
};
use certchain_ctlog::DomainIndex;
use certchain_netsim::X509Record;
use certchain_trust::TrustDb;
use certchain_x509::Fingerprint;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Row `i` of a log: fingerprint `[fp; 32]`, with a subject that names
/// the row when it parses and `not a dn` when it does not.
fn row(i: usize, fp: u8, parses: bool) -> X509Record {
    let ts = Asn1Time::from_unix(1_725_148_800);
    X509Record {
        ts,
        fingerprint: Fingerprint([fp; 32]),
        cert_version: 3,
        serial: format!("{fp:02X}"),
        subject: if parses {
            format!("CN=row{i}.example.org")
        } else {
            "not a dn".to_string()
        },
        issuer: "CN=Pool Root CA".to_string(),
        not_before: ts,
        not_after: Asn1Time::from_unix(1_725_148_800 + 86_400 * 365),
        basic_constraints_ca: None,
        path_len: None,
        san_dns: Vec::new(),
    }
}

/// What a table holds: the interned fingerprints in order, each with the
/// common name of the row that defined it, and the two tallies.
#[derive(Debug, Default, Clone, PartialEq)]
struct Seen {
    interned: Vec<(Fingerprint, String)>,
    rows: u64,
    unparseable: u64,
}

impl Seen {
    /// The rule, stated directly.
    fn fold(&mut self, rec: &X509Record) {
        self.rows += 1;
        if self.interned.iter().any(|(fp, _)| *fp == rec.fingerprint) {
            return;
        }
        match rec.subject.strip_prefix("CN=") {
            Some(cn) => self.interned.push((rec.fingerprint, cn.to_string())),
            None => self.unparseable += 1,
        }
    }

    fn of(table: &CertTable) -> Seen {
        Seen {
            interned: table
                .certs()
                .iter()
                .map(|c| {
                    let cn = c.subject.common_name().unwrap_or_default();
                    (c.fingerprint, cn.to_string())
                })
                .collect(),
            rows: table.rows(),
            unparseable: table.unparseable(),
        }
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "certchain-certtable-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random rows over a few fingerprints, each parseable or not: the
    /// table matches the model, and so does a state that folds a prefix,
    /// checkpoints, reloads and folds the rest.
    #[test]
    fn table_follows_the_intern_rule(
        picks in proptest::collection::vec((0u8..4, any::<bool>()), 0..40),
        split in any::<proptest::sample::Index>(),
    ) {
        let rows: Vec<X509Record> = picks
            .iter()
            .enumerate()
            .map(|(i, &(fp, parses))| row(i, fp, parses))
            .collect();
        let mut model = Seen::default();
        let mut table = CertTable::new();
        for rec in &rows {
            model.fold(rec);
            table.fold(rec);
        }
        prop_assert_eq!(Seen::of(&table), model.clone());

        let at = split.index(rows.len() + 1);
        let mut prefix = Seen::default();
        rows[..at].iter().for_each(|rec| prefix.fold(rec));
        let (trust, ct) = (TrustDb::new(), DomainIndex::new());
        let pipe = Pipeline::new(&trust, &ct, CrossSignRegistry::new());
        let root = tmp_root("prop");
        let mut state = PipelineState::new();
        pipe.fold_x509_stream(&mut state, rows[..at].iter().map(Ok::<_, ()>)).unwrap();
        state.save_checkpoint(&root).unwrap();
        let mut state = PipelineState::load_latest(&root).unwrap().expect("a checkpoint");
        prop_assert_eq!(Seen::of(state.cert_table()), prefix);
        pipe.fold_x509_stream(&mut state, rows[at..].iter().map(Ok::<_, ()>)).unwrap();
        prop_assert_eq!(Seen::of(state.cert_table()), model);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Checkpoint rows 1 and 2 (fingerprints `[1; 32]` and `[2; 32]`),
/// replace `from` with `to` (same length) in the stored run, record the
/// patched run's digest in the manifest, and reload: the corrupt-state
/// message.
fn reload_patched(tag: &str, from: &[u8], to: &[u8]) -> String {
    assert_eq!(
        from.len(),
        to.len(),
        "a same-size patch keeps the manifest valid"
    );
    let root = tmp_root(tag);
    let (trust, ct) = (TrustDb::new(), DomainIndex::new());
    let pipe = Pipeline::new(&trust, &ct, CrossSignRegistry::new());
    let mut state = PipelineState::new();
    let rows = [row(1, 1, true), row(2, 2, true)];
    pipe.fold_x509_stream(&mut state, rows.iter().map(Ok::<_, ()>))
        .unwrap();
    let gen = state.save_checkpoint(&root).unwrap();
    let run = root
        .join(format!("gen-{gen:06}"))
        .join(format!("run-{gen:06}.dat"));
    let bytes = std::fs::read(&run).unwrap();
    let at = bytes
        .windows(from.len())
        .position(|w| w == from)
        .expect("the run holds the patched bytes");
    let mut patched = bytes.clone();
    patched[at..at + from.len()].copy_from_slice(to);
    common::reseal(&run, &patched);
    let loaded = PipelineState::load_latest(&root);
    std::fs::remove_dir_all(&root).unwrap();
    match loaded {
        Err(StateError::Corrupt(msg)) => msg,
        Err(e) => panic!("expected a corrupt-state error, got {e}"),
        Ok(_) => panic!("the patched checkpoint loaded"),
    }
}

#[test]
fn reloaded_duplicate_stored_row_is_corrupt() {
    let err = reload_patched("dup", &[2; 32], &[1; 32]);
    assert!(err.contains("duplicate stored certificate"), "{err}");
}

#[test]
fn reloaded_unparseable_stored_row_is_corrupt() {
    let mut rec = row(2, 2, true);
    let good = rec.subject.clone();
    let bad = format!("{:x<width$}", "not a dn ", width = good.len());
    rec.subject = bad.clone();
    assert!(
        CertRecord::from_record(&rec).is_none(),
        "{bad:?} must not parse"
    );
    let err = reload_patched("unparseable", good.as_bytes(), bad.as_bytes());
    assert!(err.contains("no longer parses"), "{err}");
}
