//! The Zeek log writers against a reference: rows assembled in the
//! writers' reused byte buffer must equal, byte for byte, the rows the
//! straightforward `format!`-based writers produce, and must read back
//! through the stream readers to the records written.
//!
//! The reference below renders every field on its own (escaping and
//! fingerprint hex included), so it shares no formatting code with the
//! writers under test.

use certchain_asn1::Asn1Time;
use certchain_netsim::zeek::tsv::{write_ssl_log, write_x509_log};
use certchain_netsim::{SslLogStream, SslRecord, TlsVersion, X509LogStream, X509Record};
use certchain_x509::Fingerprint;
use proptest::prelude::*;
use std::net::Ipv4Addr;

// --- The reference writers -------------------------------------------------

fn ref_escape(field: &str, in_vector: bool) -> String {
    let token = field == "-" || field == "(empty)";
    let mut out = Vec::new();
    for (i, b) in field.bytes().enumerate() {
        if matches!(b, b'\t' | b'\n' | b'\r' | b'\\')
            || (in_vector && b == b',')
            || (i == 0 && token)
        {
            out.extend_from_slice(format!("\\x{b:02x}").as_bytes());
        } else {
            out.push(b);
        }
    }
    String::from_utf8(out).unwrap()
}

fn ref_hex(fp: &Fingerprint) -> String {
    fp.0.iter().map(|b| format!("{b:02x}")).collect()
}

fn ts_str(t: Asn1Time) -> String {
    format!("{}.000000", t.unix_secs())
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "T"
    } else {
        "F"
    }
}

fn opt_str(v: Option<&str>) -> &str {
    v.unwrap_or("-")
}

fn vec_str(items: &[String]) -> String {
    if items.is_empty() {
        "(empty)".to_string()
    } else {
        items
            .iter()
            .map(|i| ref_escape(i, true))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn ref_ssl_row(r: &SslRecord) -> String {
    let fps: Vec<String> = r.cert_chain_fps.iter().map(ref_hex).collect();
    let sni = r.server_name.as_deref().map(|s| ref_escape(s, false));
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        ts_str(r.ts),
        ref_escape(&r.uid, false),
        r.orig_h,
        r.orig_p,
        r.resp_h,
        r.resp_p,
        r.version.as_str(),
        opt_str(sni.as_deref()),
        bool_str(r.established),
        vec_str(&fps),
    )
}

fn ref_x509_row(r: &X509Record) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        ts_str(r.ts),
        ref_hex(&r.fingerprint),
        r.cert_version,
        ref_escape(&r.serial, false),
        ref_escape(&r.subject, false),
        ref_escape(&r.issuer, false),
        ts_str(r.not_before),
        ts_str(r.not_after),
        r.basic_constraints_ca.map(bool_str).unwrap_or("-"),
        r.path_len
            .map(|n| n.to_string())
            .unwrap_or_else(|| "-".to_string()),
        vec_str(&r.san_dns),
    )
}

/// The data rows of a written log: every line but the `#` header and
/// footer lines (a data row starts with its timestamp's digits).
fn data_rows(log: &[u8]) -> String {
    std::str::from_utf8(log)
        .unwrap()
        .split_inclusive('\n')
        .filter(|line| !line.starts_with('#'))
        .collect()
}

// --- Record strategies -----------------------------------------------------

/// Strings that hit every escape: tab, newline, CR, backslash, the set
/// separator, non-ASCII text, a leading `-`, and the two reserved tokens.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9.\t\n\r\\\\,(\u{e9}\u{4e2d}-]{1,12}",
        "[a-z0-9.-]{1,16}",
        Just("-".to_string()),
        Just("(empty)".to_string()),
    ]
}

fn arb_time() -> impl Strategy<Value = Asn1Time> {
    prop_oneof![Just(0u64), Just(u64::from(u32::MAX)), 0u64..4_000_000_000]
        .prop_map(Asn1Time::from_unix)
}

fn arb_port() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), Just(u16::MAX), any::<u16>()]
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    prop_oneof![Just([0u8; 4]), Just([255u8; 4]), any::<[u8; 4]>()].prop_map(Ipv4Addr::from)
}

fn arb_ssl_record() -> impl Strategy<Value = SslRecord> {
    (
        arb_time(),
        arb_text(),
        (arb_addr(), arb_port()),
        (arb_addr(), arb_port()),
        any::<bool>(),
        proptest::option::of(arb_text()),
        any::<bool>(),
        proptest::collection::vec(any::<[u8; 32]>(), 0..4),
    )
        .prop_map(
            |(ts, uid, (orig_h, orig_p), (resp_h, resp_p), v13, sni, established, fps)| SslRecord {
                ts,
                uid,
                orig_h,
                orig_p,
                resp_h,
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
        (arb_time(), arb_time(), arb_time()),
        any::<[u8; 32]>(),
        prop_oneof![1u64..4, any::<u64>()],
        (arb_text(), arb_text(), arb_text()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(prop_oneof![0u64..16, any::<u64>()]),
        proptest::collection::vec(arb_text(), 0..4),
    )
        .prop_map(
            |(
                (ts, not_before, not_after),
                fp,
                cert_version,
                (serial, subject, issuer),
                basic_constraints_ca,
                path_len,
                san_dns,
            )| X509Record {
                ts,
                fingerprint: Fingerprint(fp),
                cert_version,
                serial,
                subject,
                issuer,
                not_before,
                not_after,
                basic_constraints_ca,
                path_len,
                san_dns,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ssl_rows_match_the_reference_and_read_back(
        records in proptest::collection::vec(arb_ssl_record(), 0..16),
    ) {
        let mut log = Vec::new();
        write_ssl_log(&mut log, &records, Asn1Time::from_unix(0)).unwrap();
        let expected: String = records.iter().map(ref_ssl_row).collect();
        prop_assert_eq!(data_rows(&log), expected);
        let read: Vec<SslRecord> = SslLogStream::new(&log[..])
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(read, records);
    }

    #[test]
    fn x509_rows_match_the_reference_and_read_back(
        records in proptest::collection::vec(arb_x509_record(), 0..16),
    ) {
        let mut log = Vec::new();
        write_x509_log(&mut log, &records, Asn1Time::from_unix(0)).unwrap();
        let expected: String = records.iter().map(ref_x509_row).collect();
        prop_assert_eq!(data_rows(&log), expected);
        let read: Vec<X509Record> = X509LogStream::new(&log[..])
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(read, records);
    }
}
