//! Whole-log Zeek TSV reading: thin collect-adapters over the streaming
//! readers in [`crate::zeek::stream`].
//!
//! New code should prefer the streams (bounded memory); these entry points
//! exist so batch callers migrate incrementally and keep working.

use crate::zeek::record::{SslRecord, X509Record};
use crate::zeek::stream::{SslLogStream, X509LogStream};

pub use crate::zeek::stream::ReadError;

/// Parse a complete ssl.log: a thin collect-adapter over [`SslLogStream`].
pub fn read_ssl_log(text: &str) -> Result<Vec<SslRecord>, ReadError> {
    SslLogStream::new(text.as_bytes()).collect()
}

/// Parse a complete x509.log: a thin collect-adapter over
/// [`X509LogStream`].
pub fn read_x509_log(text: &str) -> Result<Vec<X509Record>, ReadError> {
    X509LogStream::new(text.as_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::TlsVersion;
    use crate::zeek::tsv::{write_ssl_log, write_x509_log};
    use certchain_asn1::Asn1Time;
    use certchain_x509::Fingerprint;
    use std::net::Ipv4Addr;

    fn t() -> Asn1Time {
        Asn1Time::from_ymd_hms(2020, 9, 1, 0, 0, 0).unwrap()
    }

    fn ssl_samples() -> Vec<SslRecord> {
        vec![
            SslRecord {
                ts: t(),
                uid: "Cabc".into(),
                orig_h: Ipv4Addr::new(128, 143, 1, 2),
                orig_p: 50000,
                resp_h: Ipv4Addr::new(203, 0, 113, 5),
                resp_p: 443,
                version: TlsVersion::Tls12,
                server_name: Some("example.org".into()),
                established: true,
                cert_chain_fps: vec![Fingerprint([3; 32]), Fingerprint([4; 32])],
            },
            SslRecord {
                ts: t().plus_secs(30),
                uid: "Cdef".into(),
                orig_h: Ipv4Addr::new(128, 143, 1, 3),
                orig_p: 50001,
                resp_h: Ipv4Addr::new(203, 0, 113, 6),
                resp_p: 8013,
                version: TlsVersion::Tls13,
                server_name: None,
                established: false,
                cert_chain_fps: vec![],
            },
        ]
    }

    #[test]
    fn ssl_round_trip() {
        let records = ssl_samples();
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, t()).unwrap();
        let parsed = read_ssl_log(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn x509_round_trip() {
        let records = vec![X509Record {
            ts: t(),
            fingerprint: Fingerprint([9; 32]),
            cert_version: 3,
            serial: "BEEF".into(),
            subject: "CN=a, O=b\\, Inc., C=US".into(),
            issuer: "CN=ca".into(),
            not_before: t(),
            not_after: t().plus_days(397),
            basic_constraints_ca: Some(true),
            path_len: Some(0),
            san_dns: vec!["a.org".into()],
        }];
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &records, t()).unwrap();
        let parsed = read_x509_log(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn missing_fields_header_is_error() {
        assert!(read_ssl_log("no header\n").is_err());
    }

    #[test]
    fn bad_row_reports_line_number() {
        let records = ssl_samples();
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records, t()).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Corrupt the established column of the first data row.
        text = text.replace("\tT\t", "\tQ\t");
        let e = read_ssl_log(&text).unwrap_err();
        assert!(e.message.contains("established"), "{e}");
        assert!(
            e.line >= 8,
            "line numbers should skip headers, got {}",
            e.line
        );
    }

    #[test]
    fn unordered_fields_are_handled() {
        // A log with fields in a different order (real Zeek deployments
        // customize field sets).
        let text = "#fields\tuid\tts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tversion\tserver_name\testablished\tcert_chain_fps\n\
            Cx\t1598918400.0\t1.2.3.4\t1\t5.6.7.8\t443\tTLSv12\t-\tT\t(empty)\n";
        let parsed = read_ssl_log(text).unwrap();
        assert_eq!(parsed[0].uid, "Cx");
        assert_eq!(parsed[0].ts.unix_secs(), 1_598_918_400);
    }
}
