//! Malformed-input parity between the Zeek readers: the stream, the batch
//! collect, and the chain analyzer's workers (which walk and parse the
//! stream's blocks of ssl.log lines) must report the *same* error — line
//! number and message — for every corruption, at every thread count.

use certchain_asn1::Asn1Time;
use certchain_chainlab::{CrossSignRegistry, Pipeline, PipelineOptions, PipelineState};
use certchain_ctlog::DomainIndex;
use certchain_netsim::handshake::TlsVersion;
use certchain_netsim::zeek::reader::{read_ssl_log, read_x509_log};
use certchain_netsim::zeek::stream::ReadError;
use certchain_netsim::zeek::tsv::write_ssl_log;
use certchain_netsim::{SslLogStream, SslRecord, X509LogStream};
use certchain_trust::TrustDb;
use certchain_x509::Fingerprint;
use std::net::Ipv4Addr;

fn t() -> Asn1Time {
    Asn1Time::from_ymd_hms(2020, 9, 1, 0, 0, 0).unwrap()
}

fn sample_log(records: usize) -> String {
    let records: Vec<SslRecord> = (0..records)
        .map(|i| SslRecord {
            ts: t().plus_secs(i as u64),
            uid: format!("C{i:04}"),
            orig_h: Ipv4Addr::new(128, 143, 1, 2),
            orig_p: 50_000 + i as u16,
            resp_h: Ipv4Addr::new(203, 0, 113, 5),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("example.org".into()),
            established: true,
            cert_chain_fps: vec![Fingerprint([3; 32])],
        })
        .collect();
    let mut buf = Vec::new();
    write_ssl_log(&mut buf, &records, t()).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Stream-parse `text` and return the outcome in batch-reader shape:
/// records up to the first error, or the first error.
fn stream_ssl(text: &str) -> Result<Vec<SslRecord>, ReadError> {
    SslLogStream::new(text.as_bytes()).collect()
}

/// The error the shard workers return folding `text` in strict mode.
fn worker_error(text: &str, threads: usize) -> ReadError {
    let (trust, ct) = (TrustDb::new(), DomainIndex::new());
    let options = PipelineOptions {
        threads,
        ..PipelineOptions::default()
    };
    let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options);
    pipeline
        .fold_ssl_log(
            &mut PipelineState::new(),
            SslLogStream::new(text.as_bytes()),
        )
        .expect_err("caller passes malformed input")
}

/// Assert stream, batch, and the shard workers agree exactly.
fn assert_parity(text: &str) -> ReadError {
    let stream = stream_ssl(text);
    let batch = read_ssl_log(text);
    assert_eq!(stream, batch, "stream vs batch disagree on:\n{text}");
    let err = batch.expect_err("caller passes malformed input");
    for threads in [2, 8] {
        assert_eq!(
            worker_error(text, threads),
            err,
            "shard workers ({threads} threads) disagree on:\n{text}"
        );
    }
    err
}

#[test]
fn truncated_final_line_same_error() {
    let text = sample_log(3);
    // Drop the #close footer and cut the last data row mid-field: the
    // file ends without a newline, as after a crashed logger.
    let no_close = text.rsplit_once("#close").unwrap().0;
    let truncated = &no_close[..no_close.len() - 25];
    assert!(!truncated.ends_with('\n'));
    let err = assert_parity(truncated);
    // 7 header lines, then data rows at lines 8–10; the cut row is last.
    assert_eq!(err.line, 10, "{err}");
}

#[test]
fn missing_fields_header_same_error() {
    let text = sample_log(2);
    // Strip the #fields header line entirely.
    let broken: String = text
        .lines()
        .filter(|l| !l.starts_with("#fields"))
        .map(|l| format!("{l}\n"))
        .collect();
    let err = assert_parity(&broken);
    assert_eq!(err.line, 0);
    assert!(err.message.contains("missing #fields"), "{err}");
}

#[test]
fn field_count_mismatch_mid_file_same_error() {
    let text = sample_log(4);
    // Chop trailing fields off the second data row only; later rows stay
    // valid, so fail-fast behavior (and the reported line) matters.
    let broken: String = text
        .lines()
        .map(|l| {
            if l.contains("C0001") {
                let cut: Vec<&str> = l.split('\t').take(4).collect();
                format!("{}\n", cut.join("\t"))
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let err = assert_parity(&broken);
    assert_eq!(err.line, 9, "second data row after 7 header lines: {err}");
}

#[test]
fn empty_file_same_error() {
    let err = assert_parity("");
    assert_eq!(err.line, 0);
    assert!(err.message.contains("missing #fields"), "{err}");
}

#[test]
fn x509_stream_matches_batch_on_garbage() {
    let garbage = "#fields\tts\tfingerprint\nnot-a-real-row\n";
    let stream: Result<Vec<_>, _> = X509LogStream::new(garbage.as_bytes()).collect();
    let batch = read_x509_log(garbage);
    assert_eq!(stream.unwrap_err(), batch.unwrap_err());
}

#[test]
fn well_formed_log_round_trips_through_both() {
    let text = sample_log(16);
    let stream = stream_ssl(&text).unwrap();
    let batch = read_ssl_log(&text).unwrap();
    assert_eq!(stream, batch);
    assert_eq!(stream.len(), 16);
}
