//! Robustness properties for the Zeek log readers: arbitrary corruption of
//! a valid log must produce either a parse or a structured error — never a
//! panic — and valid logs must round-trip exactly.

use certchain_asn1::Asn1Time;
use certchain_netsim::zeek::reader::{read_ssl_log, read_x509_log};
use certchain_netsim::zeek::tsv::{write_ssl_log, write_x509_log};
use certchain_netsim::{SslRecord, TlsVersion, X509Record};
use certchain_x509::Fingerprint;
use proptest::prelude::*;
use std::net::Ipv4Addr;

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
        "CN=[a-zA-Z0-9 .\\-\u{e0}-\u{ff}\u{4e00}-\u{4e20}]{1,24}",
        "CN=[a-zA-Z0-9 .\\-\u{e0}-\u{ff}\u{4e00}-\u{4e20}]{1,24}",
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

proptest! {
    #[test]
    fn ssl_round_trips(records in proptest::collection::vec(arb_ssl_record(), 0..20)) {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, Asn1Time::from_unix(0)).unwrap();
        let parsed = read_ssl_log(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn x509_round_trips(records in proptest::collection::vec(arb_x509_record(), 0..20)) {
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &records, Asn1Time::from_unix(0)).unwrap();
        let parsed = read_x509_log(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(parsed, records);
    }

    /// Overwriting bytes of a valid log with one character never panics
    /// the reader: it either still parses (the mutation hit a value that
    /// stays valid) or returns a structured error with a line number. A
    /// multi-byte character overwrites as many bytes as it encodes to, so
    /// a 64-byte fingerprint stays 64 bytes but stops being ASCII.
    #[test]
    fn corrupted_ssl_log_never_panics(
        records in proptest::collection::vec(arb_ssl_record(), 1..8),
        at in any::<proptest::sample::Index>(),
        new_char in prop_oneof![
            (0x20u8..0x7f).prop_map(char::from),
            Just('\u{e9}'),
            Just('\u{4e2d}'),
            Just('\u{1f512}'),
        ],
    ) {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, Asn1Time::from_unix(0)).unwrap();
        let mut utf8 = [0u8; 4];
        let encoded = new_char.encode_utf8(&mut utf8).as_bytes();
        let idx = at.index(buf.len() - encoded.len() + 1);
        buf[idx..idx + encoded.len()].copy_from_slice(encoded);
        if let Ok(text) = std::str::from_utf8(&buf) {
            match read_ssl_log(text) {
                Ok(_) => {}
                Err(e) => prop_assert!(!e.message.is_empty()),
            }
        }
    }

    /// Truncating a valid log at any point never panics the reader.
    #[test]
    fn truncated_x509_log_never_panics(
        records in proptest::collection::vec(arb_x509_record(), 1..8),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &records, Asn1Time::from_unix(0)).unwrap();
        let idx = cut.index(buf.len());
        if let Ok(text) = std::str::from_utf8(&buf[..idx]) {
            let _ = read_x509_log(text);
        }
    }
}
