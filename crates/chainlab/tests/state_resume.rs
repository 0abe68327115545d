//! The tentpole invariant of the checkpointable pipeline: folding a
//! record stream across N sessions — with checkpoint saves, process
//! "restarts" (state reloads), and arbitrary rotated-file interleaving
//! between them — produces an analysis bit-identical to one uninterrupted
//! batch run, at every thread count.

use certchain_asn1::Asn1Time;
use certchain_chainlab::{
    Analysis, CrossSignRegistry, Pipeline, PipelineOptions, PipelineState, Publisher, StateError,
};
use certchain_ctlog::DomainIndex;
use certchain_netsim::{SslRecord, TlsVersion, X509Record};
use certchain_trust::TrustDb;
use certchain_x509::Fingerprint;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A small certificate pool: root, intermediate, three leaves, one
/// self-signed stray.
fn cert_pool() -> Vec<X509Record> {
    let ts = Asn1Time::from_unix(1_725_148_800); // 2024-09-01 00:00
    let cert = |n: u8, subject: &str, issuer: &str, ca: Option<bool>, san: &[&str]| X509Record {
        ts,
        fingerprint: Fingerprint([n; 32]),
        cert_version: 3,
        serial: format!("{n:02X}"),
        subject: subject.to_string(),
        issuer: issuer.to_string(),
        not_before: ts,
        not_after: Asn1Time::from_unix(1_725_148_800 + 86_400 * 365),
        basic_constraints_ca: ca,
        path_len: if ca == Some(true) { Some(1) } else { None },
        san_dns: san.iter().map(|s| s.to_string()).collect(),
    };
    vec![
        cert(1, "CN=Pool Root CA", "CN=Pool Root CA", Some(true), &[]),
        cert(2, "CN=Pool Mid CA", "CN=Pool Root CA", Some(true), &[]),
        cert(
            3,
            "CN=svc0.example.org",
            "CN=Pool Mid CA",
            Some(false),
            &["svc0.example.org"],
        ),
        cert(
            4,
            "CN=svc1.example.org",
            "CN=Pool Mid CA",
            None,
            &["svc1.example.org"],
        ),
        cert(
            5,
            "CN=svc2.example.org",
            "CN=Pool Mid CA",
            Some(false),
            &["svc2.example.org"],
        ),
        cert(6, "CN=self.local", "CN=self.local", None, &["self.local"]),
    ]
}

/// Deterministic pseudo-random connection stream: chains drawn from the
/// pool (some empty = TLS 1.3, some referencing a fingerprint absent
/// from every x509 file = unresolvable).
fn conn_stream(n: usize) -> Vec<SslRecord> {
    let mut seed = 0x5eed_cafe_u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    let chains: Vec<Vec<Fingerprint>> = vec![
        vec![], // TLS 1.3
        vec![
            Fingerprint([3; 32]),
            Fingerprint([2; 32]),
            Fingerprint([1; 32]),
        ],
        vec![Fingerprint([4; 32]), Fingerprint([2; 32])],
        vec![Fingerprint([5; 32])],
        vec![Fingerprint([6; 32])],
        vec![Fingerprint([0xEE; 32])], // unresolvable
        vec![Fingerprint([3; 32]), Fingerprint([0xEE; 32])], // partially logged
    ];
    let snis = [
        None,
        Some("svc0.example.org"),
        Some("svc1.example.org"),
        Some("svc2.example.org"),
    ];
    (0..n)
        .map(|i| {
            let r = next();
            let chain = chains[(r % chains.len() as u32) as usize].clone();
            SslRecord {
                ts: Asn1Time::from_unix(1_725_148_800 + i as u64),
                uid: format!("C{i:08x}"),
                orig_h: Ipv4Addr::new(10, 0, (next() % 4) as u8, (next() % 32) as u8),
                orig_p: 32_000 + (next() % 1000) as u16,
                resp_h: Ipv4Addr::new(192, 168, 1, (next() % 8) as u8),
                resp_p: [443u16, 8443, 9000][(next() % 3) as usize],
                version: if chain.is_empty() {
                    TlsVersion::Tls13
                } else {
                    TlsVersion::Tls12
                },
                server_name: snis[(next() % snis.len() as u32) as usize].map(str::to_string),
                established: next() % 4 != 0,
                cert_chain_fps: chain,
            }
        })
        .collect()
}

fn pipeline<'a>(trust: &'a TrustDb, ct: &'a DomainIndex, threads: usize) -> Pipeline<'a> {
    Pipeline::with_options(
        trust,
        ct,
        CrossSignRegistry::new(),
        PipelineOptions {
            threads,
            ..PipelineOptions::default()
        },
    )
}

/// Canonical, fully ordered rendering; weight sums as their fixed-point
/// units, so identical means exact.
fn canon(a: &Analysis) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "no_chain={} unresolvable={} distinct={} entities={:?}",
        a.no_chain_records,
        a.unresolvable_records,
        a.distinct_certificates,
        a.interception_entities
    )
    .unwrap();
    for c in &a.chains {
        let ips = &c.usage.client_ips;
        let ports: Vec<(u16, u64)> = c.usage.ports.iter().map(|&(p, w)| (p, w.0)).collect();
        writeln!(
            out,
            "chain key={:?} cat={:?} hybrid={:?} snis={:?} conn={} est={} sni_w={} \
             ports={ports:?} ips={ips:?} recs={}",
            c.key,
            c.category,
            c.hybrid_category,
            c.snis,
            c.usage.connections.0,
            c.usage.established.0,
            c.usage.with_sni.0,
            c.usage.records,
        )
        .unwrap();
    }
    out
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certchain-state-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resumed_fold_with_restarts_matches_one_shot_batch() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(4000);

    // Reference: one uninterrupted batch run.
    let reference = canon(&pipeline(&trust, &ct, 1).analyze(&ssl, &x509, None));

    for threads in [1usize, 2, 8] {
        let root = tmp_root(&format!("resume-{threads}"));
        // Session 1: first x509 "file", first third of the connections.
        {
            let pipe = pipeline(&trust, &ct, threads);
            let mut state = PipelineState::new();
            pipe.fold_x509_stream(&mut state, x509[..3].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            pipe.fold_ssl_stream(&mut state, ssl[..1500].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            state.save_checkpoint(&root).unwrap();
        }
        // Session 2 (fresh process): ssl rows arrive *before* the rest of
        // the x509 rows — deferred resolution must absorb that.
        {
            let pipe = pipeline(&trust, &ct, threads);
            let mut state = PipelineState::load_latest(&root)
                .unwrap()
                .expect("checkpoint");
            pipe.fold_ssl_stream(&mut state, ssl[1500..2900].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            pipe.fold_x509_stream(&mut state, x509[3..].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            state.save_checkpoint(&root).unwrap();
        }
        // Session 3: the tail, then finalize.
        {
            let pipe = pipeline(&trust, &ct, threads);
            let mut state = PipelineState::load_latest(&root)
                .unwrap()
                .expect("checkpoint");
            pipe.fold_ssl_stream(&mut state, ssl[2900..].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            let resumed = canon(&pipe.finalize_state(&state));
            assert_eq!(
                resumed, reference,
                "threads={threads}: resumed fold diverged from one-shot batch"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn finalize_is_pure_and_repeatable() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(800);
    let pipe = pipeline(&trust, &ct, 2);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, x509.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, ssl.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let first = canon(&pipe.finalize_state(&state));
    let second = canon(&pipe.finalize_state(&state));
    assert_eq!(first, second, "finalize must not consume or mutate state");
    // And folding after a finalize still works (mid-stream reports).
    pipe.fold_ssl_stream(&mut state, ssl[..100].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let third = pipe.finalize_state(&state);
    assert_eq!(third.chains.len(), pipe.finalize_state(&state).chains.len());
}

#[test]
fn unresolvable_chains_are_excluded_with_record_tally() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(1000);
    let analysis = pipeline(&trust, &ct, 1).analyze(&ssl, &x509, None);
    let expect_unresolvable = ssl
        .iter()
        .filter(|r| {
            !r.cert_chain_fps.is_empty() && r.cert_chain_fps.iter().any(|fp| fp.0 == [0xEE; 32])
        })
        .count() as u64;
    assert!(
        expect_unresolvable > 0,
        "stream must exercise unresolvable chains"
    );
    assert_eq!(analysis.unresolvable_records, expect_unresolvable);
    assert!(analysis
        .chains
        .iter()
        .all(|c| c.key.0.iter().all(|fp| fp.0 != [0xEE; 32])));
}

#[test]
fn interrupted_checkpoint_falls_back_and_refold_recovers() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(1200);
    let root = tmp_root("fallback");
    let pipe = pipeline(&trust, &ct, 2);

    let reference = canon(&pipe.finalize_state(&{
        let mut s = PipelineState::new();
        pipe.fold_x509_stream(&mut s, x509.iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        pipe.fold_ssl_stream(&mut s, ssl.iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        s
    }));

    // Session 1: complete checkpoint covering the first two "files".
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, x509.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, ssl[..600].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.note_folded("ssl.2024-09-01-00.log");
    state.save_checkpoint(&root).unwrap();

    // Session continues: folds a third file and checkpoints — but the
    // write is "interrupted" between the field files and the manifest.
    pipe.fold_ssl_stream(&mut state, ssl[600..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.note_folded("ssl.2024-09-01-01.log");
    let gen = state.save_checkpoint(&root).unwrap();
    let manifest = root
        .join(format!("gen-{gen:06}"))
        .join(certchain_colstore::CHECKPOINT_MANIFEST_FILE);
    std::fs::remove_file(&manifest).unwrap();

    // Restart: the partial generation is rejected, resume lands on the
    // last complete checkpoint, and the ledger says which file was lost.
    let mut resumed = PipelineState::load_latest(&root)
        .unwrap()
        .expect("fallback checkpoint");
    assert!(resumed.has_folded("ssl.2024-09-01-00.log"));
    assert!(
        !resumed.has_folded("ssl.2024-09-01-01.log"),
        "the interrupted session's file must not appear folded"
    );
    // Re-folding the lost file reproduces the uninterrupted analysis
    // exactly.
    pipe.fold_ssl_stream(&mut resumed, ssl[600..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    resumed.note_folded("ssl.2024-09-01-01.log");
    assert_eq!(canon(&pipe.finalize_state(&resumed)), reference);
    std::fs::remove_dir_all(&root).unwrap();
}

/// The folded-file ledger resumes whole: a state loaded from a
/// generation answers `has_folded` for every name its ledger lists, in
/// fold order, and for no other name, also after it folds more.
#[test]
fn a_resumed_ledger_answers_for_exactly_its_names() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let root = tmp_root("ledger");
    let pipe = pipeline(&trust, &ct, 1);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, cert_pool().into_iter().map(Ok::<_, ()>))
        .unwrap();
    let names: Vec<String> = (0..40)
        .map(|i| {
            let kind = if i % 2 == 0 { "x509" } else { "ssl" };
            format!("{kind}.2024-09-{:02}-{:02}.log", 1 + i / 48, (i / 2) % 24)
        })
        .collect();
    for name in &names {
        state.note_folded(name);
    }
    state.save_checkpoint(&root).unwrap();

    let mut resumed = PipelineState::load_latest(&root)
        .unwrap()
        .expect("a generation");
    assert_eq!(resumed.folded_files(), names.as_slice());
    for name in &names {
        assert!(resumed.has_folded(name), "{name} missing from the ledger");
    }
    let others = [
        "ssl.2024-09-01-20.log",
        "x509.2024-09-02-00.log",
        "ssl.2024-09-01-00.log.gz",
        "conn.2024-09-01-00.log",
        "",
    ];
    for name in others {
        assert!(!resumed.has_folded(name), "{name:?} is not in the ledger");
    }
    resumed.note_folded(others[0]);
    assert!(resumed.has_folded(others[0]));
    assert!(others[1..].iter().all(|name| !resumed.has_folded(name)));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn checkpoint_growth_is_incremental_for_certs() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let root = tmp_root("chunks");
    let pipe = pipeline(&trust, &ct, 1);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, x509[..3].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    pipe.fold_x509_stream(&mut state, x509[3..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let gen = state.save_checkpoint(&root).unwrap();
    // The second generation must carry the first cert chunk and add one.
    let dir = root.join(format!("gen-{gen:06}"));
    let chunks: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("certs-"))
        .collect();
    assert_eq!(
        chunks.len(),
        2,
        "expected carried + fresh chunk: {chunks:?}"
    );
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(reloaded.distinct_certificates(), x509.len());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn finalizes_share_the_state_accumulators() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(1200);
    let pipe = pipeline(&trust, &ct, 2);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, x509.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, ssl[..600].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let (first, second) = (pipe.finalize_state(&state), pipe.finalize_state(&state));
    assert!(!first.chains.is_empty());
    assert_eq!(first.chains.len(), second.chains.len());
    for (a, b) in first.chains.iter().zip(&second.chains) {
        assert!(Arc::ptr_eq(&a.usage, &b.usage), "{:?}: usage copied", a.key);
        assert!(Arc::ptr_eq(&a.snis, &b.snis), "{:?}: SNI set copied", a.key);
    }
    // With no analysis alive, a fold merges in place: the next finalize
    // hands out the same allocations, now holding the merged values.
    let before: Vec<(*const _, u64)> = first
        .chains
        .iter()
        .map(|c| (Arc::as_ptr(&c.usage), c.usage.records))
        .collect();
    drop((first, second));
    pipe.fold_ssl_stream(&mut state, ssl[600..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let after = pipe.finalize_state(&state);
    assert_eq!(after.chains.len(), before.len());
    for (chain, (ptr, records)) in after.chains.iter().zip(before) {
        assert_eq!(Arc::as_ptr(&chain.usage), ptr, "{:?}: copied", chain.key);
        assert!(chain.usage.records > records, "{:?}: not folded", chain.key);
    }
}

#[test]
fn an_analysis_is_unchanged_by_later_folds() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(3000);
    let reference = canon(&pipeline(&trust, &ct, 1).analyze(&ssl, &x509, None));
    for threads in [1usize, 2, 8] {
        let pipe = pipeline(&trust, &ct, threads);
        let mut state = PipelineState::new();
        pipe.fold_x509_stream(&mut state, x509[..4].iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        pipe.fold_ssl_stream(&mut state, ssl[..1000].iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        let early = pipe.finalize_state(&state);
        let rendered = canon(&early);
        // More rows for the chains the early analysis holds, and the
        // certificates that resolve more chains.
        pipe.fold_ssl_stream(&mut state, ssl[1000..].iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        pipe.fold_x509_stream(&mut state, x509[4..].iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        assert_eq!(
            canon(&early),
            rendered,
            "threads={threads}: a fold changed an analysis taken before it"
        );
        let late = pipe.finalize_state(&state);
        assert_ne!(
            canon(&late),
            rendered,
            "the later folds must change the state"
        );
        assert_eq!(
            canon(&late),
            reference,
            "threads={threads}: finalize after copy-on-write folds diverged from batch"
        );
    }
}

/// The raw bytes of every cert chunk of the newest generation under
/// `root`, and the manifest's certificate count.
fn newest_cert_chunks(root: &std::path::Path) -> (Vec<u8>, u64) {
    let ckpt = certchain_colstore::Checkpoint::load_latest(root)
        .unwrap()
        .expect("checkpoint");
    let mut names: Vec<&String> = ckpt
        .files
        .keys()
        .filter(|n| n.starts_with("certs-"))
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for name in names {
        bytes.extend(ckpt.read_field(name).unwrap());
    }
    let certs = ckpt
        .meta
        .get("certs")
        .and_then(certchain_obs::json::JsonValue::as_u64)
        .expect("meta certs");
    (bytes, certs)
}

#[test]
fn checkpoints_free_persisted_rows_and_lose_none() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(2000);
    let pipe = pipeline(&trust, &ct, 2);

    // Reference: one uninterrupted fold, checkpointed once.
    let reference_root = tmp_root("rows-reference");
    let mut whole = PipelineState::new();
    pipe.fold_x509_stream(&mut whole, x509.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut whole, ssl.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    whole.save_checkpoint(&reference_root).unwrap();
    let reference = canon(&pipe.finalize_state(&whole));
    let (_, reference_certs) = newest_cert_chunks(&reference_root);
    assert_eq!(reference_certs, x509.len() as u64);

    let root = tmp_root("rows-resumed");
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, x509[..3].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, ssl[..700].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    assert_eq!(state.distinct_certificates(), 3);
    // Two new certificates, and repeats of rows a chunk already holds.
    pipe.fold_x509_stream(&mut state, x509[..5].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    assert_eq!(state.distinct_certificates(), 5);
    let (_, certs) = newest_cert_chunks(&root);
    assert_eq!(certs, 5);
    // Restart, then fold the rest, repeats included.
    let mut state = PipelineState::load_latest(&root)
        .unwrap()
        .expect("checkpoint");
    assert_eq!(state.distinct_certificates(), 5);
    pipe.fold_x509_stream(&mut state, x509.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, ssl[700..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    assert_eq!(state.distinct_certificates(), whole.distinct_certificates());
    assert_eq!(state.x509_rows(), 3 + 5 + x509.len() as u64);
    assert_eq!(canon(&pipe.finalize_state(&state)), reference);
    let (chunks, certs) = newest_cert_chunks(&root);
    assert_eq!(certs, reference_certs);
    // Every pool certificate's fingerprint (32 equal bytes) is in the
    // chunk series exactly once: none lost, none written twice.
    for rec in &x509 {
        let hits = chunks
            .windows(32)
            .filter(|w| *w == rec.fingerprint.0.as_slice())
            .count();
        assert_eq!(hits, 1, "{}", rec.fingerprint);
    }
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(canon(&pipe.finalize_state(&reloaded)), reference);
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&reference_root).unwrap();
}

#[test]
fn a_one_shot_state_finalizes_the_same_and_refuses_a_checkpoint() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(1200);
    let pipe = pipeline(&trust, &ct, 2);
    let fold = |mut state: PipelineState| {
        pipe.fold_x509_stream(&mut state, x509.iter().map(Ok::<_, ()>))
            .unwrap();
        pipe.fold_x509_stream(&mut state, x509.iter().map(Ok::<_, ()>))
            .unwrap();
        pipe.fold_ssl_stream(&mut state, ssl.iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        state
    };
    let kept = fold(PipelineState::new());
    let mut one_shot = fold(PipelineState::one_shot());
    assert_eq!(
        canon(&pipe.finalize_state(&one_shot)),
        canon(&pipe.finalize_state(&kept))
    );
    assert_eq!(one_shot.x509_rows(), kept.x509_rows());
    assert_eq!(
        one_shot.distinct_certificates(),
        kept.distinct_certificates()
    );
    let root = tmp_root("one-shot");
    match one_shot.save_checkpoint(&root) {
        Err(StateError::NoRows) => {}
        Err(e) => panic!("expected a no-rows error, got {e}"),
        Ok(gen) => panic!("a one-shot state wrote generation {gen}"),
    }
    assert!(!root.exists(), "the refused checkpoint left a directory");
}

/// `chains.dat` stores each weight sum as an `f64`, and reload takes it
/// back into fixed-point units only when it is a whole number of them in
/// `[0, 2^36)`. Each bad value is written in place over the first
/// chain's `connections`, so every size the manifest records still holds.
#[test]
fn stored_sums_that_are_not_whole_units_are_corrupt() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let root = tmp_root("bad-sums");
    let pipe = pipeline(&trust, &ct, 2);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, cert_pool().into_iter().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, conn_stream(500).into_iter().map(Ok::<_, ()>))
        .unwrap();
    let gen = state.save_checkpoint(&root).unwrap();
    let path = root.join(format!("gen-{gen:06}")).join("chains.dat");
    let good = std::fs::read(&path).unwrap();
    // A chain starts with its fingerprint count n, its n fingerprints and
    // its record count; `connections` follows.
    let word = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
    let n = u32::from_le_bytes(good[..4].try_into().unwrap()) as usize;
    let at = 4 + 32 * n + 8;
    assert_eq!(
        f64::from_bits(word(at)),
        word(at - 8) as f64,
        "a unit-weight chain's connections are its record count"
    );
    assert!(PipelineState::load_latest(&root).unwrap().is_some());
    for bad in [f64::NAN, -1.0, 0.1] {
        let mut bytes = good.clone();
        bytes[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match PipelineState::load_latest(&root) {
            Err(StateError::Corrupt(msg)) => {
                assert!(msg.contains("weight sum"), "{bad}: {msg}")
            }
            other => panic!(
                "{bad}: expected Corrupt, got {:?}",
                other.map(|s| s.is_some())
            ),
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A checkpoint generation of a real fold, and the path of its
/// `chains.dat`.
fn saved_chains(tag: &str) -> (PathBuf, PathBuf) {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let root = tmp_root(tag);
    let pipe = pipeline(&trust, &ct, 2);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, cert_pool().into_iter().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, conn_stream(500).into_iter().map(Ok::<_, ()>))
        .unwrap();
    let gen = state.save_checkpoint(&root).unwrap();
    let path = root.join(format!("gen-{gen:06}")).join("chains.dat");
    assert!(PipelineState::load_latest(&root).unwrap().is_some());
    (root, path)
}

/// `load_latest` of a generation whose `chains.dat` was changed in place
/// must fail as `Corrupt`, naming what `expect` names.
fn assert_corrupt(root: &Path, expect: &str) {
    match PipelineState::load_latest(root) {
        Err(StateError::Corrupt(msg)) => assert!(msg.contains(expect), "{msg}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|s| s.is_some())),
    }
}

/// The encoder writes every chain's port, client-address and SNI lists
/// strictly increasing, and reload accepts nothing else: a repeated entry
/// would otherwise replace an earlier port's weight or collapse two
/// addresses or SNIs into one without a word. The first client address of
/// the first chain with two is copied over the second, in place, so every
/// size the manifest records still holds.
#[test]
fn a_repeated_client_address_is_corrupt() {
    let (root, path) = saved_chains("repeated-ip");
    let mut bytes = std::fs::read(&path).unwrap();
    // Walk the chains: fingerprint count n and n fingerprints, the record
    // count and three sums, the ports (u16 + f64 each), then the client
    // addresses (u32 each) and the SNIs (length-prefixed).
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut at = 0;
    let ips = loop {
        assert!(at < bytes.len(), "no chain has two client addresses");
        at += 4 + 32 * u32_at(&bytes, at) as usize + 8 + 3 * 8;
        at += 4 + 10 * u32_at(&bytes, at) as usize;
        let count = u32_at(&bytes, at) as usize;
        if count >= 2 {
            break at + 4;
        }
        at += 4 + 4 * count;
        let snis = u32_at(&bytes, at);
        at += 4;
        for _ in 0..snis {
            at += 4 + u32_at(&bytes, at) as usize;
        }
    };
    assert!(u32_at(&bytes, ips) < u32_at(&bytes, ips + 4));
    bytes.copy_within(ips..ips + 4, ips + 4);
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(&root, "client address list is not strictly increasing");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A fingerprint count the rest of `chains.dat` cannot hold is
/// `Corrupt`, not an allocation for 2^32 fingerprints (128 GiB), which
/// aborts the process.
#[test]
fn a_fingerprint_count_the_file_cannot_hold_is_corrupt() {
    let (root, path) = saved_chains("overlong-count");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(&root, "overruns the field");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Record `size` as the byte length of the field file at `path` in its
/// generation's manifest, so that `load_latest` decodes the changed file
/// rather than skipping the generation for a size mismatch.
fn set_manifest_size(path: &Path, size: u64) {
    use certchain_obs::json::{self, JsonValue};
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
    *recorded = JsonValue::Num(size as f64);
    std::fs::write(&manifest, doc.to_pretty() + "\n").unwrap();
}

/// No fold keeps a chain without fingerprints: a chainless row counts as
/// `no_chain`. Such a chain in `chains.dat` would resolve to no
/// certificates and count as public-only, so reload rejects it. The
/// first chain's count is set to 0 and its fingerprints cut out.
#[test]
fn a_chain_with_no_fingerprints_is_corrupt() {
    let (root, path) = saved_chains("no-fingerprints");
    let mut bytes = std::fs::read(&path).unwrap();
    let n = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    assert!(n > 0, "the first chain has fingerprints");
    bytes[..4].copy_from_slice(&0u32.to_le_bytes());
    bytes.drain(4..4 + 32 * n);
    std::fs::write(&path, &bytes).unwrap();
    set_manifest_size(&path, bytes.len() as u64);
    assert_corrupt(&root, "has no fingerprints");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A flipped byte anywhere in a generation never panics a resume. Each
/// byte of `chains.dat`, the cert chunk and `checkpoint.json` in turn is
/// XORed with 0xFF; `load_latest` must return `Ok` or `Err`, and a state
/// it returns must finalize and publish through a fresh publisher.
#[test]
fn a_flipped_byte_never_panics_a_resume() {
    let (root, chains) = saved_chains("byte-flips");
    let dir = chains.parent().unwrap();
    let chunk = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .find(|name| name.starts_with("certs-"))
        .map(|name| dir.join(name))
        .expect("a cert chunk");
    let manifest = dir.join(certchain_colstore::CHECKPOINT_MANIFEST_FILE);
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let pipe = pipeline(&trust, &ct, 2);
    let mut panicked = Vec::new();
    for file in [&chains, &chunk, &manifest] {
        let good = std::fs::read(file).unwrap();
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(file, &bytes).unwrap();
            let resume = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Ok(Some(mut state)) = PipelineState::load_latest(&root) {
                    pipe.finalize_state(&state);
                    Publisher::new().publish(&pipe, &mut state);
                }
            }));
            if resume.is_err() {
                panicked.push(format!("{} byte {at}", file.display()));
            }
        }
        std::fs::write(file, &good).unwrap();
    }
    assert!(panicked.is_empty(), "a flip panicked: {panicked:?}");
    std::fs::remove_dir_all(&root).unwrap();
}
