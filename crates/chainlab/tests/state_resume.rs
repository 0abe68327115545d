//! The tentpole invariant of the checkpointable pipeline: folding a
//! record stream across N sessions — with checkpoint saves, process
//! "restarts" (state reloads), and arbitrary rotated-file interleaving
//! between them — produces an analysis bit-identical to one uninterrupted
//! batch run, at every thread count.

mod common;

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

/// Where a commit can stop before its manifest lands, as the
/// directory of the generation it was writing is left.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// The generation directory is made, nothing is in it.
    Created,
    /// The runs before the new one are linked in.
    Carried,
    /// Half of the new run is written.
    HalfRun,
    /// The new run is written; only the manifest is missing.
    RunWritten,
}

/// Turn the complete generation `gen` under `root` into what a commit
/// stopped at `stop` leaves.
fn stop_commit(root: &Path, gen: u64, stop: Stop) {
    let dir = root.join(format!("gen-{gen:06}"));
    std::fs::remove_file(dir.join(certchain_colstore::CHECKPOINT_MANIFEST_FILE)).unwrap();
    let new_run = dir.join(format!("run-{gen:06}.dat"));
    match stop {
        Stop::Created => {
            for entry in std::fs::read_dir(&dir).unwrap() {
                std::fs::remove_file(entry.unwrap().path()).unwrap();
            }
        }
        Stop::Carried => std::fs::remove_file(&new_run).unwrap(),
        Stop::HalfRun => {
            let bytes = std::fs::read(&new_run).unwrap();
            std::fs::write(&new_run, &bytes[..bytes.len() / 2]).unwrap();
        }
        Stop::RunWritten => {}
    }
}

/// A commit stopped at any step before its manifest — before or after a
/// run that absorbs the one before it — leaves the previous generation
/// as the one that loads, and re-folding the lost file from there
/// reproduces the uninterrupted analysis.
#[test]
fn interrupted_checkpoint_falls_back_and_refold_recovers() {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(1200);
    let pipe = pipeline(&trust, &ct, 2);
    // The later file: every remaining row, whose run absorbs the first
    // one, or the rows of one chain, whose run does not.
    let one_chain: Vec<SslRecord> = ssl[600..]
        .iter()
        .filter(|r| r.cert_chain_fps == [Fingerprint([6; 32])])
        .cloned()
        .collect();
    for (later, absorbs) in [(&ssl[600..], true), (&one_chain[..], false)] {
        let reference = canon(&pipe.finalize_state(&{
            let mut s = PipelineState::new();
            pipe.fold_x509_stream(&mut s, x509.iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            pipe.fold_ssl_stream(&mut s, ssl[..600].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            pipe.fold_ssl_stream(&mut s, later.iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            s
        }));
        for stop in [
            Stop::Created,
            Stop::Carried,
            Stop::HalfRun,
            Stop::RunWritten,
        ] {
            let root = tmp_root(&format!("fallback-{absorbs}-{stop:?}"));
            // Session 1: complete checkpoint covering the first file.
            let mut state = PipelineState::new();
            pipe.fold_x509_stream(&mut state, x509.iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            pipe.fold_ssl_stream(&mut state, ssl[..600].iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            state.note_folded("ssl.2024-09-01-00.log");
            state.save_checkpoint(&root).unwrap();

            // Session continues: folds the later file and checkpoints —
            // but the commit stops before its manifest.
            pipe.fold_ssl_stream(&mut state, later.iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            state.note_folded("ssl.2024-09-01-01.log");
            let gen = state.save_checkpoint(&root).unwrap();
            let runs = newest_runs(&root);
            assert_eq!(runs.len(), if absorbs { 1 } else { 2 }, "{runs:?}");
            stop_commit(&root, gen, stop);

            // Restart: the partial generation is rejected, resume lands
            // on the last complete checkpoint, and the ledger says which
            // file was lost.
            let mut resumed = PipelineState::load_latest(&root)
                .unwrap()
                .expect("fallback checkpoint");
            assert_eq!(resumed.generation(), gen - 1, "{stop:?}");
            assert!(resumed.has_folded("ssl.2024-09-01-00.log"));
            assert!(
                !resumed.has_folded("ssl.2024-09-01-01.log"),
                "the interrupted session's file must not appear folded"
            );
            // Re-folding the lost file reproduces the uninterrupted
            // analysis exactly, and so does the generation it commits.
            pipe.fold_ssl_stream(&mut resumed, later.iter().cloned().map(Ok::<_, ()>))
                .unwrap();
            resumed.note_folded("ssl.2024-09-01-01.log");
            assert_eq!(canon(&pipe.finalize_state(&resumed)), reference, "{stop:?}");
            resumed.save_checkpoint(&root).unwrap();
            let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
            assert_eq!(
                canon(&pipe.finalize_state(&reloaded)),
                reference,
                "{stop:?}"
            );
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
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

/// A later generation writes only what is new: while the run before the
/// new one is more than twice its size, the new run holds just the
/// certificates interned since, and the earlier run is carried by hard
/// link. Once the new run is large enough, it absorbs the earlier one,
/// and each certificate is still stored once.
#[test]
fn checkpoint_growth_is_incremental_for_certs() {
    use std::os::unix::fs::MetadataExt;
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let x509 = cert_pool();
    let ssl = conn_stream(600);
    let root = tmp_root("chunks");
    let pipe = pipeline(&trust, &ct, 1);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, x509[..5].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    pipe.fold_ssl_stream(&mut state, ssl.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let first = state.save_checkpoint(&root).unwrap();
    pipe.fold_x509_stream(&mut state, x509[5..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    let second = state.save_checkpoint(&root).unwrap();
    let runs = newest_runs(&root);
    assert_eq!(runs.len(), 2, "expected carried + fresh run: {runs:?}");
    let (carried, fresh) = (&runs[0], &runs[1]);
    let inode = |gen: u64, name: &str| {
        std::fs::metadata(root.join(format!("gen-{gen:06}")).join(name))
            .unwrap()
            .ino()
    };
    assert_eq!(
        inode(first, &carried.0),
        inode(second, &carried.0),
        "the first run is carried, not rewritten"
    );
    // The fresh run is the one new certificate and nothing else.
    assert_eq!(fresh.1, 1);
    assert_eq!(fresh.3, 0, "no chain changed");
    let bytes = read_run(&root, &fresh.0);
    assert_eq!(bytes.len() as u64, fresh.2);
    assert_eq!(&bytes[..32], &x509[5].fingerprint.0);
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(reloaded.distinct_certificates(), x509.len());

    // A delta as large as the last run absorbs it.
    let mut state = reloaded;
    pipe.fold_ssl_stream(&mut state, ssl.iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    let runs = newest_runs(&root);
    assert_eq!(runs.len(), 1, "the new run absorbs both: {runs:?}");
    let (certs, _) = newest_cert_sections(&root);
    for rec in &x509 {
        let hits = certs
            .windows(32)
            .filter(|w| *w == rec.fingerprint.0.as_slice())
            .count();
        assert_eq!(hits, 1, "{}", rec.fingerprint);
    }
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(
        canon(&pipe.finalize_state(&reloaded)),
        canon(&pipe.finalize_state(&state))
    );
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

/// The runs of the newest generation under `root`, oldest first, as the
/// manifest lists them: name, certificates, cert-section bytes, chains.
fn newest_runs(root: &Path) -> Vec<(String, u64, u64, u64)> {
    use certchain_obs::json::JsonValue;
    let ckpt = certchain_colstore::Checkpoint::load_latest(root)
        .unwrap()
        .expect("checkpoint");
    let num = |run: &JsonValue, key: &str| run.get(key).and_then(JsonValue::as_u64).unwrap();
    ckpt.meta
        .get("runs")
        .and_then(JsonValue::as_arr)
        .expect("meta runs")
        .iter()
        .map(|run| {
            let name = run.get("name").and_then(JsonValue::as_str).unwrap();
            let (certs, bytes, chains) = (
                num(run, "certs"),
                num(run, "cert_bytes"),
                num(run, "chains"),
            );
            (name.to_string(), certs, bytes, chains)
        })
        .collect()
}

/// The bytes of run `name` of the newest generation under `root`.
fn read_run(root: &Path, name: &str) -> Vec<u8> {
    certchain_colstore::Checkpoint::load_latest(root)
        .unwrap()
        .expect("checkpoint")
        .read_field(name)
        .unwrap()
}

/// The cert sections of every run of the newest generation under
/// `root`, in order, and the manifest's certificate count.
fn newest_cert_sections(root: &Path) -> (Vec<u8>, u64) {
    let mut bytes = Vec::new();
    for (name, _, cert_bytes, _) in newest_runs(root) {
        bytes.extend_from_slice(&read_run(root, &name)[..cert_bytes as usize]);
    }
    let certs = certchain_colstore::Checkpoint::load_latest(root)
        .unwrap()
        .expect("checkpoint")
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
    let (_, reference_certs) = newest_cert_sections(&reference_root);
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
    let (_, certs) = newest_cert_sections(&root);
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
    let (chunks, certs) = newest_cert_sections(&root);
    assert_eq!(certs, reference_certs);
    // Every pool certificate's fingerprint (32 equal bytes) is in the
    // cert sections exactly once: none lost, none written twice.
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

/// A one-run checkpoint generation of a real fold: its root, the path of
/// its run, and where the run's chain section starts (after its cert
/// section).
fn saved_run(tag: &str) -> (PathBuf, PathBuf, usize) {
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
    let runs = newest_runs(&root);
    assert_eq!(runs.len(), 1, "one fold, one run");
    let path = root.join(format!("gen-{gen:06}")).join(&runs[0].0);
    assert!(PipelineState::load_latest(&root).unwrap().is_some());
    (root, path, runs[0].2 as usize)
}

/// `load_latest` of a generation whose run was changed in place must fail
/// as `Corrupt`, naming what `expect` names.
fn assert_corrupt(root: &Path, expect: &str) {
    match PipelineState::load_latest(root) {
        Err(StateError::Corrupt(msg)) => assert!(msg.contains(expect), "{msg}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|s| s.is_some())),
    }
}

/// A run stores each weight sum as an `f64`, and reload takes it back
/// into fixed-point units only when it is a whole number of them in
/// `[0, 2^36)`. Each bad value is written in place over the first chain's
/// `connections`; unsealed, the decoder or the digest check fails, and
/// resealed, the decoder's own check does.
#[test]
fn stored_sums_that_are_not_whole_units_are_corrupt() {
    let (root, path, chains_at) = saved_run("bad-sums");
    let good = std::fs::read(&path).unwrap();
    // A chain starts with its fingerprint count n, its n fingerprints and
    // its record count; `connections` follows.
    let word = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
    let n = u32::from_le_bytes(good[chains_at..chains_at + 4].try_into().unwrap()) as usize;
    let at = chains_at + 4 + 32 * n + 8;
    assert_eq!(
        f64::from_bits(word(at)),
        word(at - 8) as f64,
        "a unit-weight chain's connections are its record count"
    );
    for bad in [f64::NAN, -1.0, 0.1] {
        let mut bytes = good.clone();
        bytes[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_corrupt(&root, "");
        common::reseal(&path, &bytes);
        assert_corrupt(&root, "weight sum");
        common::reseal(&path, &good);
    }
    assert!(PipelineState::load_latest(&root).unwrap().is_some());
    std::fs::remove_dir_all(&root).unwrap();
}

/// The encoder writes every chain's port, client-address and SNI lists
/// strictly increasing, and reload accepts nothing else: a repeated entry
/// would otherwise replace an earlier port's weight or collapse two
/// addresses or SNIs into one without a word. The first client address of
/// the first chain with two is copied over the second, in place.
#[test]
fn a_repeated_client_address_is_corrupt() {
    let (root, path, chains_at) = saved_run("repeated-ip");
    let mut bytes = std::fs::read(&path).unwrap();
    // Walk the chains: fingerprint count n and n fingerprints, the record
    // count and three sums, the ports (u16 + f64 each), then the client
    // addresses (u32 each) and the SNIs (length-prefixed).
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut at = chains_at;
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
    common::reseal(&path, &bytes);
    assert_corrupt(&root, "client address list is not strictly increasing");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A fingerprint count the rest of a run cannot hold is `Corrupt`, not
/// an allocation for 2^32 fingerprints (128 GiB), which aborts the
/// process.
#[test]
fn a_fingerprint_count_the_file_cannot_hold_is_corrupt() {
    let (root, path, chains_at) = saved_run("overlong-count");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[chains_at..chains_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    common::reseal(&path, &bytes);
    assert_corrupt(&root, "overruns the field");
    std::fs::remove_dir_all(&root).unwrap();
}

/// No fold keeps a chain without fingerprints: a chainless row counts as
/// `no_chain`. Such a chain in a run would resolve to no certificates and
/// count as public-only, so reload rejects it. The first chain's count is
/// set to 0 and its fingerprints cut out.
#[test]
fn a_chain_with_no_fingerprints_is_corrupt() {
    let (root, path, chains_at) = saved_run("no-fingerprints");
    let mut bytes = std::fs::read(&path).unwrap();
    let n = u32::from_le_bytes(bytes[chains_at..chains_at + 4].try_into().unwrap()) as usize;
    assert!(n > 0, "the first chain has fingerprints");
    bytes[chains_at..chains_at + 4].copy_from_slice(&0u32.to_le_bytes());
    bytes.drain(chains_at + 4..chains_at + 4 + 32 * n);
    common::reseal(&path, &bytes);
    assert_corrupt(&root, "has no fingerprints");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Within a run, chains are stored in key order, each once; a run whose
/// second chain repeats its first is `Corrupt`, as a repeated chain would
/// otherwise replace the first silently.
#[test]
fn a_run_with_a_repeated_chain_is_corrupt() {
    let (root, path, chains_at) = saved_run("repeated-chain");
    let mut bytes = std::fs::read(&path).unwrap();
    let n = u32::from_le_bytes(bytes[chains_at..chains_at + 4].try_into().unwrap()) as usize;
    let second = chains_at + 4 + 32 * n;
    let first_key = bytes[chains_at + 4..second].to_vec();
    // The second chain's fingerprints follow its count; give it the
    // first chain's count and fingerprints.
    let chain_len = |bytes: &[u8], at: usize| {
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut end = at + 4 + 32 * u32_at(at) as usize + 8 + 3 * 8;
        end += 4 + 10 * u32_at(end) as usize;
        end += 4 + 4 * u32_at(end) as usize;
        let snis = u32_at(end);
        end += 4;
        for _ in 0..snis {
            end += 4 + u32_at(end) as usize;
        }
        end - at
    };
    let second = chains_at + chain_len(&bytes, chains_at);
    let m = u32::from_le_bytes(bytes[second..second + 4].try_into().unwrap()) as usize;
    bytes.splice(
        second..second + 4 + 32 * m,
        (n as u32).to_le_bytes().into_iter().chain(first_key),
    );
    common::reseal(&path, &bytes);
    assert_corrupt(&root, "chain keys are not strictly increasing");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A generation of three runs over a generation of two: the root, and
/// the canonical renderings of the state each generation saved. The
/// first run holds the pool and 500 connections, the second the next
/// rows of two chains, the third a new certificate and the one row of a
/// new chain, so each run is less than half the one before it and none
/// absorbs another.
fn several_runs(tag: &str) -> (PathBuf, String, String) {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let root = tmp_root(tag);
    let pipe = pipeline(&trust, &ct, 2);
    let mut state = PipelineState::new();
    pipe.fold_x509_stream(&mut state, cert_pool().into_iter().map(Ok::<_, ()>))
        .unwrap();
    let ssl = conn_stream(600);
    pipe.fold_ssl_stream(&mut state, ssl[..500].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    let two_chains = ssl[500..].iter().filter(|r| {
        r.cert_chain_fps == [Fingerprint([5; 32])] || r.cert_chain_fps == [Fingerprint([6; 32])]
    });
    pipe.fold_ssl_stream(&mut state, two_chains.cloned().map(Ok::<_, ()>))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    let previous = canon(&pipe.finalize_state(&state));
    let mut cert = cert_pool()[5].clone();
    cert.fingerprint = Fingerprint([7; 32]);
    cert.subject = "CN=seven.local".into();
    cert.issuer = cert.subject.clone();
    pipe.fold_x509_stream(&mut state, std::iter::once(Ok::<_, ()>(cert)))
        .unwrap();
    let mut row = ssl[0].clone();
    row.cert_chain_fps = vec![Fingerprint([7; 32])];
    row.version = TlsVersion::Tls12;
    pipe.fold_ssl_stream(&mut state, std::iter::once(Ok::<_, ()>(row)))
        .unwrap();
    state.save_checkpoint(&root).unwrap();
    let runs = newest_runs(&root);
    assert_eq!(runs.len(), 3, "three runs: {runs:?}");
    (root, previous, canon(&pipe.finalize_state(&state)))
}

/// A flipped byte anywhere in a generation never panics a resume, and
/// never resumes a state other than one a generation saved. Each byte of
/// every file of a three-run generation in turn (its runs, two of them
/// hard links into the generation before it, and `checkpoint.json`) is
/// XORed with 0xFF; `load_latest` must fail, or fall back to the
/// previous generation and finalize to what that generation saved. A
/// state it returns must also publish through a fresh publisher.
#[test]
fn a_flipped_byte_never_panics_a_resume() {
    let (root, previous, saved) = several_runs("byte-flips");
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let pipe = pipeline(&trust, &ct, 2);
    assert_eq!(canon(&pipe.finalize_state(&reloaded)), saved);
    let newest = reloaded.generation();
    let dir = root.join(format!("gen-{newest:06}"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "three runs and the manifest: {files:?}");
    let (mut panicked, mut wrong) = (Vec::new(), Vec::new());
    let mut fell_back = 0;
    for file in &files {
        let good = std::fs::read(file).unwrap();
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(file, &bytes).unwrap();
            let resume = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match PipelineState::load_latest(&root) {
                    Ok(Some(mut state)) => {
                        let resumed = canon(&pipe.finalize_state(&state));
                        Publisher::new().publish(&pipe, &mut state);
                        Some((state.generation(), resumed))
                    }
                    _ => None,
                }
            }));
            match resume {
                Err(_) => panicked.push(format!("{} byte {at}", file.display())),
                Ok(Some((gen, resumed))) => {
                    if gen == newest - 1 && resumed == previous {
                        fell_back += 1;
                    } else {
                        wrong.push(format!("{} byte {at}: generation {gen}", file.display()));
                    }
                }
                Ok(None) => {}
            }
        }
        std::fs::write(file, &good).unwrap();
    }
    assert!(panicked.is_empty(), "a flip panicked: {panicked:?}");
    assert!(wrong.is_empty(), "a flip resumed another state: {wrong:?}");
    assert!(fell_back > 0, "no flip of the manifest fell back");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A manifest nested deeper than the JSON parser's bound is an invalid
/// generation like any other: `load_latest` skips it and resumes the
/// generation before, where the unbounded parser overflowed its stack.
#[test]
fn a_deeply_nested_manifest_skips_the_generation() {
    let (root, previous, _) = several_runs("deep-manifest");
    let newest = PipelineState::load_latest(&root)
        .unwrap()
        .unwrap()
        .generation();
    let manifest = root
        .join(format!("gen-{newest:06}"))
        .join(certchain_colstore::CHECKPOINT_MANIFEST_FILE);
    std::fs::write(&manifest, "{\"a\":".repeat(200_000)).unwrap();
    let state = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(state.generation(), newest - 1);
    let (trust, ct) = (TrustDb::new(), DomainIndex::new());
    assert_eq!(
        canon(&pipeline(&trust, &ct, 2).finalize_state(&state)),
        previous
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// The generation a build before runs wrote for [`saved_run`]'s fold
/// (`chains.dat`, one cert chunk and a manifest without digests), kept
/// under `tests/fixtures`. It loads and finalizes as a fresh fold of the
/// same streams; a generation committed on top carries its files as
/// runs, with digests, and reloads unchanged.
#[test]
fn a_parent_generation_resumes_and_carries_into_runs() {
    use certchain_obs::json::JsonValue;
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-v1");
    let root = tmp_root("parent-v1");
    let parent = root.join("gen-000001");
    std::fs::create_dir_all(&parent).unwrap();
    for entry in std::fs::read_dir(fixture.join("gen-000001")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), parent.join(entry.file_name())).unwrap();
    }
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let pipe = pipeline(&trust, &ct, 2);
    let x509 = cert_pool();
    let ssl = conn_stream(800);
    let fresh = |rows: &[SslRecord]| {
        let mut state = PipelineState::new();
        pipe.fold_x509_stream(&mut state, x509.iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        pipe.fold_ssl_stream(&mut state, rows.iter().cloned().map(Ok::<_, ()>))
            .unwrap();
        canon(&pipe.finalize_state(&state))
    };

    let mut state = PipelineState::load_latest(&root)
        .unwrap()
        .expect("the parent generation");
    assert_eq!(state.generation(), 1);
    assert_eq!(canon(&pipe.finalize_state(&state)), fresh(&ssl[..500]));
    // A small delta: the parent's files are carried under it.
    let mut rows = ssl[..500].to_vec();
    rows.extend(
        ssl[500..]
            .iter()
            .filter(|r| r.cert_chain_fps == [Fingerprint([6; 32])])
            .cloned(),
    );
    pipe.fold_ssl_stream(&mut state, rows[500..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    assert_eq!(state.save_checkpoint(&root).unwrap(), 2);
    let ckpt = certchain_colstore::Checkpoint::load_latest(&root)
        .unwrap()
        .unwrap();
    assert!(ckpt.files.values().all(|file| file.sha256.is_some()));
    let names: Vec<String> = newest_runs(&root).into_iter().map(|run| run.0).collect();
    assert_eq!(names, ["certs-000001.dat", "chains.dat", "run-000002.dat"]);
    assert_eq!(
        ckpt.meta.get("chains").and_then(JsonValue::as_u64),
        Some(state.distinct_chains() as u64)
    );
    let mut reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(reloaded.generation(), 2);
    assert_eq!(canon(&pipe.finalize_state(&reloaded)), fresh(&rows));
    // A large one absorbs them, copying the parent's certificates.
    pipe.fold_ssl_stream(&mut reloaded, ssl[500..].iter().cloned().map(Ok::<_, ()>))
        .unwrap();
    rows.extend_from_slice(&ssl[500..]);
    reloaded.save_checkpoint(&root).unwrap();
    let names: Vec<String> = newest_runs(&root).into_iter().map(|run| run.0).collect();
    assert_eq!(names, ["run-000003.dat"]);
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(canon(&pipe.finalize_state(&reloaded)), fresh(&rows));
    std::fs::remove_dir_all(&root).unwrap();
}

/// The smallest power of two at least `n`, as its exponent.
fn ceil_log2(n: u64) -> u64 {
    u64::from(64 - (n - 1).leading_zeros())
}

/// 200 commits, each after a small fold that interns a new certificate,
/// adds a new chain and touches old ones: no generation holds more than
/// 2·⌈log2 200⌉ + 2 files, and the runs all commits write come to no
/// more than ⌈log2 200⌉ + 1 times what unmerged delta runs would.
#[test]
fn two_hundred_commits_keep_few_files_and_rewrite_little() {
    use certchain_obs::{TraceJournal, TraceKind};
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let pipe = pipeline(&trust, &ct, 1);
    let root = tmp_root("two-hundred");
    let commits = 200u64;
    let journal = Arc::new(TraceJournal::new(1 << 16));
    let ssl = conn_stream(commits as usize * 5);
    let base = cert_pool()[5].clone();
    let mut state = PipelineState::new();
    let (mut max_files, mut run_bytes) = (0usize, 0u64);
    for i in 0..commits {
        let mut fp = [0x40u8; 32];
        fp[..8].copy_from_slice(&i.to_be_bytes());
        let mut cert = base.clone();
        cert.fingerprint = Fingerprint(fp);
        cert.subject = format!("CN=host{i}.local");
        cert.issuer = cert.subject.clone();
        pipe.fold_x509_stream(&mut state, std::iter::once(Ok::<_, ()>(cert)))
            .unwrap();
        let mut rows: Vec<SslRecord> = ssl[i as usize * 5..][..5].to_vec();
        rows[0].cert_chain_fps = vec![Fingerprint(fp)];
        rows[0].version = TlsVersion::Tls12;
        pipe.fold_ssl_stream(&mut state, rows.into_iter().map(Ok::<_, ()>))
            .unwrap();
        let span = journal.span("cycle");
        let gen = state.save_checkpoint_traced(&root, Some(&span)).unwrap();
        drop(span);
        let dir = root.join(format!("gen-{gen:06}"));
        max_files = max_files.max(std::fs::read_dir(&dir).unwrap().count());
        if let Ok(meta) = std::fs::metadata(dir.join(format!("run-{gen:06}.dat"))) {
            run_bytes += meta.len();
        }
    }
    let attr_sum = |key: &str| -> u64 {
        journal
            .snapshot()
            .iter()
            .filter(|e| e.kind == TraceKind::SpanEnd && e.name == "checkpoint.commit")
            .map(|e| {
                e.attrs
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .expect("a numeric commit attribute")
            })
            .sum()
    };
    let delta_bytes = attr_sum("delta_bytes");
    assert!(attr_sum("merged") > 0, "no commit merged runs");
    let log = ceil_log2(commits);
    assert!(
        max_files as u64 <= 2 * log + 2,
        "a generation held {max_files} files"
    );
    assert!(
        run_bytes <= (log + 1) * delta_bytes,
        "runs wrote {run_bytes} bytes for {delta_bytes} bytes of deltas"
    );
    let reloaded = PipelineState::load_latest(&root).unwrap().unwrap();
    assert_eq!(
        canon(&pipe.finalize_state(&reloaded)),
        canon(&pipe.finalize_state(&state))
    );
    assert_eq!(
        reloaded.distinct_certificates(),
        state.distinct_certificates()
    );
    std::fs::remove_dir_all(&root).unwrap();
}
