//! v2 segmented-format integrity: codec round-trips under arbitrary
//! values (empty, single-row, and full max-row segments included), zone
//! maps that never exclude a present value, the writer's all-or-nothing
//! category digests, and the error suite mirroring the v1 reader tests —
//! truncation, manifest corruption, and unknown versions all fail `open`
//! or decode with a structured error.

mod common;

use certchain_asn1::Asn1Time;
use certchain_colstore::codec::{self, Encoding};
use certchain_colstore::zonemap::ZoneMap;
use certchain_colstore::{
    Category, CategoryDigest, ColError, DatasetReader, DatasetWriter, Manifest, MapMode,
    WriterOptions, COLUMNS, DEFAULT_SEGMENT_ROWS, MANIFEST_FILE, NONE_IDX, VERSION_V1,
};
use certchain_netsim::{SslRecord, TlsVersion, X509Record};
use certchain_x509::Fingerprint;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "certchain-segments-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ssl_row(i: u64) -> SslRecord {
    SslRecord {
        ts: Asn1Time::from_unix(1_700_000_000 + i),
        uid: format!("Cseg{i}"),
        orig_h: Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8),
        orig_p: 40_000 + (i % 1000) as u16,
        resp_h: Ipv4Addr::new(93, 184, 216, 34),
        resp_p: if i % 5 == 0 { 8443 } else { 443 },
        version: TlsVersion::Tls13,
        server_name: (i % 3 != 0).then(|| format!("host{}.example.edu", i % 7)),
        established: i % 4 != 0,
        cert_chain_fps: vec![Fingerprint([(i % 11) as u8; 32])],
    }
}

fn x509_row(i: u64) -> X509Record {
    X509Record {
        ts: Asn1Time::from_unix(1_700_000_000 + i),
        fingerprint: Fingerprint([(i % 11) as u8; 32]),
        cert_version: 3,
        serial: format!("{i:04X}"),
        subject: format!("CN=leaf {}", i % 11),
        issuer: "CN=Campus Issuing CA".into(),
        not_before: Asn1Time::from_unix(1_690_000_000),
        not_after: Asn1Time::from_unix(1_790_000_000),
        basic_constraints_ca: Some(false),
        path_len: None,
        san_dns: vec![format!("host{}.example.edu", i % 7)],
    }
}

fn write_v2(dir: &Path, ssl_rows: u64, x509_rows: u64, segment_rows: u64) {
    let mut writer =
        DatasetWriter::create_with(dir, WriterOptions { segment_rows }).expect("create v2 store");
    for i in 0..x509_rows {
        writer.append_x509(&x509_row(i)).expect("append x509");
    }
    for i in 0..ssl_rows {
        writer.append_ssl(&ssl_row(i)).expect("append ssl");
    }
    writer.finish().expect("finish store");
}

proptest! {
    /// Arbitrary u64 segments round-trip through whatever encoding the
    /// deterministic selector picks, at every column width.
    #[test]
    fn codec_round_trips_arbitrary_segments(
        raw in proptest::collection::vec(any::<u64>(), 0..300),
        width_pick in 0usize..4,
    ) {
        let width = [1u8, 2, 4, 8][width_pick];
        let mask = if width == 8 { u64::MAX } else { (1u64 << (8 * width as u32)) - 1 };
        let values: Vec<u64> = raw.iter().map(|v| v & mask).collect();
        let (enc, param, bytes) = codec::encode(&values, width);
        let mut out = Vec::new();
        codec::decode_into(enc, param, width, values.len(), &bytes, &mut out).expect("decode");
        prop_assert_eq!(out, values);
    }

    /// Sorted segments (the delta candidate) and low-cardinality
    /// segments (the RLE candidate) round-trip and never beat plain by
    /// accident — encoded size is at most the plain size.
    #[test]
    fn codec_round_trips_sorted_and_repetitive_segments(
        deltas in proptest::collection::vec(0u64..1000, 1..200),
        runs in proptest::collection::vec((0u64..4, 1usize..20), 1..20),
    ) {
        let mut sorted = Vec::with_capacity(deltas.len());
        let mut cur = 1_700_000_000u64;
        for d in &deltas {
            cur += d;
            sorted.push(cur);
        }
        let (enc, param, bytes) = codec::encode(&sorted, 8);
        prop_assert!(bytes.len() <= sorted.len() * 8);
        let mut out = Vec::new();
        codec::decode_into(enc, param, 8, sorted.len(), &bytes, &mut out).expect("decode sorted");
        prop_assert_eq!(&out, &sorted);

        let mut repetitive = Vec::new();
        for (v, n) in &runs {
            repetitive.extend(std::iter::repeat_n(*v, *n));
        }
        let (enc, param, bytes) = codec::encode(&repetitive, 4);
        prop_assert!(bytes.len() <= repetitive.len() * 4);
        out.clear();
        codec::decode_into(enc, param, 4, repetitive.len(), &bytes, &mut out)
            .expect("decode repetitive");
        prop_assert_eq!(&out, &repetitive);
    }

    /// Dictionary-code segments (u32 codes with the NONE sentinel mixed
    /// in) round-trip and their presence bitmap never reports a present
    /// code as absent — the zone-map skip rule's one-sided guarantee.
    #[test]
    fn dictionary_code_segments_and_presence_bitmaps(
        raw in proptest::collection::vec(0u32..625, 0..300),
    ) {
        // Roughly one in five codes is the NONE sentinel.
        let codes: Vec<u32> = raw
            .iter()
            .map(|&c| if c >= 500 { NONE_IDX } else { c })
            .collect();
        let values: Vec<u64> = codes.iter().map(|&c| u64::from(c)).collect();
        let (enc, param, bytes) = codec::encode(&values, 4);
        let mut out = Vec::new();
        codec::decode_into(enc, param, 4, values.len(), &bytes, &mut out).expect("decode");
        prop_assert_eq!(&out, &values);
        let zone = ZoneMap::with_presence(&values);
        for &code in &codes {
            if code != NONE_IDX {
                prop_assert!(zone.may_contain_code(code), "present code {code} excluded");
            }
        }
    }
}

#[test]
fn single_and_max_row_segments_round_trip() {
    // segment_rows = 4: row counts straddling the band boundary exercise
    // empty tails, exactly-full bands, and single-row ragged tails.
    for rows in [1u64, 3, 4, 5, 8, 9] {
        let dir = scratch("bands");
        write_v2(&dir, rows, rows.min(5), 4);
        let reader = DatasetReader::open(&dir, MapMode::Auto).expect("open");
        assert_eq!(reader.format_version(), 2);
        let ssl: Vec<SslRecord> = reader
            .ssl_iter()
            .expect("iter")
            .collect::<Result<_, _>>()
            .expect("decode");
        assert_eq!(ssl.len(), rows as usize);
        for (i, rec) in ssl.iter().enumerate() {
            assert_eq!(rec, &ssl_row(i as u64), "row {i}");
        }
        let segs = reader.ssl_segments().expect("segments");
        assert_eq!(segs.segment_count() as u64, rows.div_ceil(4));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn zone_maps_match_segment_contents() {
    let dir = scratch("zones");
    write_v2(&dir, 40, 10, 8);
    let reader = DatasetReader::open(&dir, MapMode::Auto).expect("open");
    let segs = reader.ssl_segments().expect("segments");
    let mut scratch_buf = Vec::new();
    for seg in 0..segs.segment_count() {
        segs.resp_p
            .decode_into(seg, &mut scratch_buf)
            .expect("decode resp_p");
        let zone = &segs.resp_p.meta(seg).zone;
        assert_eq!(zone.min, *scratch_buf.iter().min().unwrap());
        assert_eq!(zone.max, *scratch_buf.iter().max().unwrap());
        segs.sni
            .decode_into(seg, &mut scratch_buf)
            .expect("decode sni");
        let zone = &segs.sni.meta(seg).zone;
        assert!(zone.bitmap.is_some(), "ssl.sni segments carry a bitmap");
        for &code in scratch_buf.iter().filter(|&&c| c != u64::from(NONE_IDX)) {
            assert!(zone.may_contain_code(code as u32));
        }
        // Timestamps are sorted and the band is wide: delta must win.
        assert_eq!(segs.ts.meta(seg).encoding, Encoding::Delta);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_stores_are_served_as_plain_bands() {
    let src = scratch("v1-bands-src");
    let dir = scratch("v1-bands");
    write_v2(&src, 10_000, 10_000, DEFAULT_SEGMENT_ROWS);
    common::write_v1(&src, &dir);
    let _ = std::fs::remove_dir_all(&src);
    let reader = DatasetReader::open(&dir, MapMode::Auto).expect("open v1 store");
    assert_eq!(reader.format_version(), VERSION_V1);
    // Every fixed column splits into 4096 + 4096 + 1808 rows of plain
    // payload, zone-mapped exactly as the writer would over those rows.
    for (name, width) in COLUMNS {
        let Some(width) = width else { continue };
        let width = *width as usize;
        let metas = &reader.manifest().segments[*name];
        let bands: Vec<u64> = metas.iter().map(|m| m.rows).collect();
        assert_eq!(bands, [4096, 4096, 1808], "{name}");
        let raw = std::fs::read(dir.join(name)).unwrap();
        for (meta, band) in metas.iter().zip(raw.chunks(4096 * width)) {
            assert_eq!(meta.encoding, Encoding::Plain, "{name}");
            assert_eq!(meta.param as usize, width, "{name}");
            assert_eq!(meta.bytes, band.len() as u64, "{name}");
            let values: Vec<u64> = band
                .chunks(width)
                .map(|le| {
                    let mut buf = [0u8; 8];
                    buf[..width].copy_from_slice(le);
                    u64::from_le_bytes(buf)
                })
                .collect();
            let want = if *name == "ssl.sni" {
                ZoneMap::with_presence(&values)
            } else {
                ZoneMap::of(&values)
            };
            assert_eq!(meta.zone, want, "{name}");
        }
    }
    assert_eq!(reader.ssl_segments().unwrap().segment_count(), 3);
    assert_eq!(reader.x509_segments().unwrap().segment_count(), 3);
    let ssl: Vec<SslRecord> = reader
        .ssl_iter()
        .expect("iter")
        .collect::<Result<_, _>>()
        .expect("decode");
    assert_eq!(ssl, (0..10_000).map(ssl_row).collect::<Vec<_>>());
    let x509: Vec<X509Record> = reader
        .x509_iter()
        .expect("iter")
        .collect::<Result<_, _>>()
        .expect("decode");
    assert_eq!(x509, (0..10_000).map(x509_row).collect::<Vec<_>>());
    drop(reader);

    // A fixed column one row short, with a manifest that agrees with the
    // file: no longer rows x width, so `open` must refuse it before any
    // band is decoded.
    let victim = dir.join("ssl.resp_p");
    let len = std::fs::metadata(&victim).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap();
    f.set_len(len - 2).unwrap();
    drop(f);
    let mut manifest = Manifest::load(&dir).unwrap();
    manifest.columns.insert("ssl.resp_p".into(), len - 2);
    manifest.store(&dir).unwrap();
    match DatasetReader::open(&dir, MapMode::Auto).unwrap_err() {
        ColError::Corrupt(msg) => assert!(msg.contains("ssl.resp_p"), "{msg}"),
        other => panic!("expected Corrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_version_is_a_hard_error() {
    let dir = scratch("unknown");
    write_v2(&dir, 4, 2, 8);
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replace("\"version\": 2", "\"version\": 7");
    assert_ne!(text, bumped);
    std::fs::write(&path, bumped).unwrap();
    let msg = DatasetReader::open(&dir, MapMode::Auto)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("expected 1 or 2"), "{msg}");
    assert!(msg.contains("found 7"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_encoded_column_fails_open() {
    let dir = scratch("trunc");
    write_v2(&dir, 20, 5, 8);
    let victim = dir.join("ssl.sni");
    let len = std::fs::metadata(&victim).unwrap().len();
    assert!(len > 1);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap();
    f.set_len(len - 1).unwrap();
    drop(f);
    match DatasetReader::open(&dir, MapMode::Auto).unwrap_err() {
        ColError::Truncated {
            file,
            expected,
            found,
        } => {
            assert_eq!(file, "ssl.sni");
            assert_eq!(expected, len);
            assert_eq!(found, len - 1);
        }
        other => panic!("expected Truncated, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_segment_metadata_is_rejected() {
    // An unknown encoding name in any segment entry fails manifest parse.
    let dir = scratch("bad-enc");
    write_v2(&dir, 20, 5, 8);
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let bad = text.replacen("\"enc\": \"delta\"", "\"enc\": \"bogus\"", 1);
    assert_ne!(
        text, bad,
        "a v2 store of sorted timestamps has a delta segment"
    );
    std::fs::write(&path, bad).unwrap();
    let msg = DatasetReader::open(&dir, MapMode::Auto)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("bogus"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_segment_payload_fails_decode_not_panics() {
    let dir = scratch("bad-payload");
    write_v2(&dir, 20, 5, 8);
    // Flip bytes inside ssl.chain.idx: decoded end offsets go wild, and
    // either the final-offset validation at open or the bounds-checked
    // slicing at decode must reject them — never a panic, never silently
    // wrong rows.
    let victim = dir.join("ssl.chain.idx");
    let mut bytes = std::fs::read(&victim).unwrap();
    for b in bytes.iter_mut() {
        *b ^= 0xA5;
    }
    std::fs::write(&victim, bytes).unwrap();
    let outcome = DatasetReader::open(&dir, MapMode::Auto)
        .and_then(|r| r.ssl_iter()?.collect::<Result<Vec<_>, _>>());
    assert!(outcome.is_err(), "corrupted offsets must surface an error");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic per-record category: a pure function of the chain's
/// first fingerprint byte, so the same row always lands in the same
/// category regardless of which writer digested it.
fn cat_provider() -> certchain_colstore::write::CategoryProvider {
    Box::new(|rec: &SslRecord| {
        let idx = rec
            .cert_chain_fps
            .first()
            .map(|fp| fp.0[0] as usize % Category::all().len())
            .unwrap_or(0);
        Category::all()[idx]
    })
}

/// Digest the same rows the way a manifest digest would, for comparing
/// against what the store actually recorded.
fn digest_rows(rows: impl Iterator<Item = u64>) -> CategoryDigest {
    let provider = cat_provider();
    let mut f = provider;
    let mut digest = CategoryDigest::default();
    for i in rows {
        digest.add(f(&ssl_row(i)));
    }
    digest
}

#[test]
fn a_provider_attached_before_the_first_ssl_row_digests_every_band() {
    let dir = scratch("digest");
    // x509 rows first, then the provider, then 25 ssl rows at band 8: the
    // order `convert` and `compact` write in.
    let mut writer =
        DatasetWriter::create_with(&dir, WriterOptions { segment_rows: 8 }).expect("create store");
    for i in 0..6 {
        writer.append_x509(&x509_row(i)).expect("append x509");
    }
    writer = writer.with_category_provider(cat_provider());
    for i in 0..25 {
        writer.append_ssl(&ssl_row(i)).expect("append ssl");
    }
    writer.finish().expect("finish store");
    let reader = DatasetReader::open(&dir, MapMode::Auto).expect("open store");
    let digests = reader.category_digests().expect("store is digested");
    let want = [
        digest_rows(0..8),
        digest_rows(8..16),
        digest_rows(16..24),
        digest_rows(24..25),
    ];
    assert_eq!(digests, &want[..], "one digest per ssl band");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_provider_attached_after_an_ssl_row_leaves_the_store_digestless() {
    let dir = scratch("late-digest");
    // 3 of 8 rows of the one band land before the provider: that band
    // cannot be digested, so coverage is off and the store opens
    // digest-less rather than with a digest short of its band.
    let mut writer =
        DatasetWriter::create_with(&dir, WriterOptions { segment_rows: 8 }).expect("create store");
    for i in 0..3 {
        writer.append_ssl(&ssl_row(i)).expect("append ssl");
    }
    writer = writer.with_category_provider(cat_provider());
    for i in 3..8 {
        writer.append_ssl(&ssl_row(i)).expect("append ssl");
    }
    writer.finish().expect("finish store");
    let reader = DatasetReader::open(&dir, MapMode::Auto).expect("open store");
    assert!(reader.category_digests().is_none());
    assert_eq!(reader.ssl_rows(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}
