//! Columnar store integrity: arbitrary records must round-trip through
//! the on-disk format exactly (under both the mmap and the plain-read
//! mapping mode), and a damaged store — wrong manifest version, truncated
//! column file, corrupted dictionary — must fail `open` with a structured
//! error, never a panic and never silently wrong rows.

mod common;

use certchain_asn1::Asn1Time;
use certchain_colstore::{
    ColError, DatasetReader, DatasetWriter, Manifest, MapMode, WriterOptions, MANIFEST_FILE,
    VERSION, VERSION_V1,
};
use certchain_netsim::{SslRecord, TlsVersion, X509Record};
use certchain_x509::Fingerprint;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per call; callers clean up on success so
/// proptest shrink iterations don't collide or accumulate.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "certchain-colstore-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn arb_ssl_record() -> impl Strategy<Value = SslRecord> {
    (
        0u64..2_000_000_000,
        "[A-Za-z0-9]{1,12}",
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<bool>(),
        proptest::option::of("[a-z0-9.-]{1,32}"),
        any::<bool>(),
        proptest::collection::vec(any::<[u8; 32]>(), 0..4),
    )
        .prop_map(
            |(ts, uid, orig, orig_p, resp, resp_p, v13, sni, established, fps)| SslRecord {
                ts: Asn1Time::from_unix(ts),
                uid: format!("C{uid}"),
                orig_h: Ipv4Addr::from(orig),
                orig_p,
                resp_h: Ipv4Addr::from(resp),
                resp_p,
                version: if v13 {
                    TlsVersion::Tls13
                } else {
                    TlsVersion::Tls12
                },
                server_name: sni,
                established,
                cert_chain_fps: fps.into_iter().map(Fingerprint).collect(),
            },
        )
}

fn arb_x509_record() -> impl Strategy<Value = X509Record> {
    (
        0u64..2_000_000_000,
        any::<[u8; 32]>(),
        1u64..4,
        "[0-9A-F]{2,16}",
        "CN=[a-zA-Z0-9 .\\-\u{e0}-\u{ff}]{1,24}",
        "CN=[a-zA-Z0-9 .\\-\u{e0}-\u{ff}]{1,24}",
        proptest::option::of(any::<bool>()),
        proptest::option::of(0u64..8),
        proptest::collection::vec("[a-z0-9.-]{1,24}", 0..3),
    )
        .prop_map(
            |(ts, fp, version, serial, subject, issuer, bc, path_len, san)| X509Record {
                ts: Asn1Time::from_unix(ts),
                fingerprint: Fingerprint(fp),
                cert_version: version,
                serial,
                subject,
                issuer,
                not_before: Asn1Time::from_unix(ts),
                not_after: Asn1Time::from_unix(ts + 86_400),
                basic_constraints_ca: bc,
                // pathLen only makes sense alongside basicConstraints.
                path_len: bc.and(path_len),
                san_dns: san,
            },
        )
}

/// Write both record kinds with the default (v2) format.
fn write_store(dir: &Path, ssl: &[SslRecord], x509: &[X509Record]) -> Manifest {
    write_store_with(dir, ssl, x509, WriterOptions::default())
}

/// Write both record kinds with explicit format options.
fn write_store_with(
    dir: &Path,
    ssl: &[SslRecord],
    x509: &[X509Record],
    opts: WriterOptions,
) -> Manifest {
    let mut writer = DatasetWriter::create_with(dir, opts).expect("create store");
    for rec in x509 {
        writer.append_x509(rec).expect("append x509");
    }
    for rec in ssl {
        writer.append_ssl(rec).expect("append ssl");
    }
    writer.finish().expect("finish store")
}

/// Write both record kinds as a v1 store: a default v2 store rewritten
/// by the shared fixture helper.
fn write_v1_store(dir: &Path, ssl: &[SslRecord], x509: &[X509Record]) -> Manifest {
    let v2 = scratch("v2-src");
    write_store(&v2, ssl, x509);
    let manifest = common::write_v1(&v2, dir);
    let _ = std::fs::remove_dir_all(&v2);
    manifest
}

fn read_back(dir: &Path, mode: MapMode) -> (Vec<SslRecord>, Vec<X509Record>) {
    let reader = DatasetReader::open(dir, mode).expect("open store");
    let ssl = reader
        .ssl_iter()
        .expect("ssl columns")
        .collect::<Result<Vec<_>, _>>()
        .expect("ssl rows decode");
    let x509 = reader
        .x509_iter()
        .expect("x509 columns")
        .collect::<Result<Vec<_>, _>>()
        .expect("x509 rows decode");
    (ssl, x509)
}

proptest! {
    /// Arbitrary records survive the store byte-for-byte, whichever
    /// mapping mode serves the reads.
    #[test]
    fn records_round_trip(
        ssl in proptest::collection::vec(arb_ssl_record(), 0..16),
        x509 in proptest::collection::vec(arb_x509_record(), 0..16),
    ) {
        // Default v2, v2 with row bands small enough to force multiple
        // ragged segments, and legacy v1 all round-trip identically.
        for (version, opts) in [
            (VERSION, WriterOptions::default()),
            (VERSION, WriterOptions { segment_rows: 3 }),
            (VERSION_V1, WriterOptions::default()),
        ] {
            let dir = scratch("rt");
            let manifest = if version == VERSION_V1 {
                write_v1_store(&dir, &ssl, &x509)
            } else {
                write_store_with(&dir, &ssl, &x509, opts)
            };
            prop_assert_eq!(manifest.version, version);
            prop_assert_eq!(manifest.ssl_rows, ssl.len() as u64);
            prop_assert_eq!(manifest.x509_rows, x509.len() as u64);
            for mode in [MapMode::Auto, MapMode::Read] {
                let (got_ssl, got_x509) = read_back(&dir, mode);
                prop_assert_eq!(&got_ssl, &ssl);
                prop_assert_eq!(&got_x509, &x509);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Truncating any column file to any shorter length is caught at
    /// `open` — no decode path ever sees a short buffer.
    #[test]
    fn any_truncated_column_fails_open(
        ssl in proptest::collection::vec(arb_ssl_record(), 1..6),
        x509 in proptest::collection::vec(arb_x509_record(), 1..6),
        pick in any::<proptest::sample::Index>(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let dir = scratch("trunc");
        write_store(&dir, &ssl, &x509);
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name().is_some_and(|n| n != MANIFEST_FILE)
                    && std::fs::metadata(p).unwrap().len() > 0
            })
            .collect();
        files.sort();
        if !files.is_empty() {
            let victim = &files[pick.index(files.len())];
            let len = std::fs::metadata(victim).unwrap().len();
            let keep = cut.index(len as usize) as u64;
            let f = std::fs::OpenOptions::new().write(true).open(victim).unwrap();
            f.set_len(keep).unwrap();
            drop(f);
            let err = DatasetReader::open(&dir, MapMode::Auto).unwrap_err();
            let name = victim.file_name().unwrap().to_str().unwrap();
            prop_assert!(
                err.to_string().contains(name),
                "error should name {name}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn version_mismatch_is_a_clear_error() {
    let dir = scratch("version");
    write_store(&dir, &[], &[]);
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let bumped = text.replace("\"version\": 2", "\"version\": 99");
    assert_ne!(text, bumped, "manifest must contain the version field");
    std::fs::write(&manifest_path, bumped).unwrap();
    let err = DatasetReader::open(&dir, MapMode::Auto).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("expected 1"), "{msg}");
    assert!(msg.contains("found 99"), "{msg}");
    assert!(msg.contains("certchain convert"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_fixed_width_column_reports_expected_and_found() {
    let dir = scratch("trunc-fixed");
    let ssl: Vec<SslRecord> = (0..4)
        .map(|i| SslRecord {
            ts: Asn1Time::from_unix(1_700_000_000 + i),
            uid: format!("Cuid{i}"),
            orig_h: Ipv4Addr::new(10, 0, 0, i as u8),
            orig_p: 40000 + i as u16,
            resp_h: Ipv4Addr::new(93, 184, 216, 34),
            resp_p: 443,
            version: TlsVersion::Tls13,
            server_name: Some("example.edu".into()),
            established: true,
            cert_chain_fps: vec![Fingerprint([i as u8; 32])],
        })
        .collect();
    // v1 stores raw fixed-width columns, so the truncation arithmetic
    // below (rows x width) only holds there; v2 length mismatches are
    // caught by the same manifest length check under `Truncated` too,
    // which `any_truncated_column_fails_open` exercises.
    write_v1_store(&dir, &ssl, &[]);
    // 4 rows x 8 bytes; keep only 3 rows' worth.
    let ts = dir.join("ssl.ts");
    let f = std::fs::OpenOptions::new().write(true).open(&ts).unwrap();
    f.set_len(24).unwrap();
    drop(f);
    match DatasetReader::open(&dir, MapMode::Auto).unwrap_err() {
        ColError::Truncated {
            file,
            expected,
            found,
        } => {
            assert!(file.contains("ssl.ts"), "{file}");
            assert_eq!(expected, 32);
            assert_eq!(found, 24);
        }
        other => panic!("expected Truncated, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_dictionary_offsets_fail_validation() {
    let dir = scratch("dict");
    let x509: Vec<X509Record> = (0..3)
        .map(|i| X509Record {
            ts: Asn1Time::from_unix(1_700_000_000),
            fingerprint: Fingerprint([i; 32]),
            cert_version: 3,
            serial: format!("{i:02X}"),
            subject: format!("CN=leaf {i}"),
            issuer: "CN=Issuer".into(),
            not_before: Asn1Time::from_unix(1_690_000_000),
            not_after: Asn1Time::from_unix(1_790_000_000),
            basic_constraints_ca: Some(false),
            path_len: None,
            san_dns: vec![format!("host{i}.example.edu")],
        })
        .collect();
    write_store(&dir, &[], &x509);
    // Make the first end-offset larger than the last: offsets must be
    // monotonically non-decreasing, so validation has to reject this.
    let idx_path = dir.join("strings.idx");
    let mut idx = std::fs::read(&idx_path).unwrap();
    assert!(idx.len() >= 16, "dictionary has at least two entries");
    idx[..8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&idx_path, idx).unwrap();
    let err = DatasetReader::open(&dir, MapMode::Auto).unwrap_err();
    assert!(
        matches!(err, ColError::Corrupt(_) | ColError::Format(_)),
        "expected structured corruption error, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_manifest_is_not_a_store() {
    let dir = scratch("missing");
    std::fs::create_dir_all(&dir).unwrap();
    let err = DatasetReader::open(&dir, MapMode::Auto).unwrap_err();
    assert!(err.to_string().contains(MANIFEST_FILE), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
