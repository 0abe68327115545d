//! Property tests for the ingestion invariant.
//!
//! `Pipeline::analyze` hands batches of `(record, weight)` pairs to
//! whichever worker is least loaded and merges the workers' partial
//! maps. That is exact because every weight is quantized to fixed-point
//! units and every sum is an integer sum. These tests feed random
//! batches — chains drawn from a small certificate pool, empty chains
//! (TLS 1.3), unresolvable fingerprints, duplicated chains with distinct
//! connection metadata, the generator's non-dyadic weights — through the
//! pipeline at thread counts 2..=8 and require the full `Analysis` to be
//! identical (weight sums unit for unit) to the sequential fold, also
//! when the records arrive in another order. A fixed deterministic case
//! many ingest batches long exercises the multi-batch dispatch path.
//!
//! Every run also attaches a fresh metrics registry and requires the
//! snapshot's *deterministic* section (counters, gauges, histograms —
//! not timing) to be byte-identical across thread counts: observability
//! must never observe the scheduler.
//!
//! The TSV path (`Pipeline::fold_ssl_log`, whose workers walk and parse
//! blocks of ssl.log lines themselves) is held to the record-iterator
//! path (`fold_ssl_stream` over the same permissive stream) on rough
//! logs: escaped uids and SNIs, uppercase and `\x`-escaped fingerprint
//! hex, CRLF lines, a second `#fields` header with permuted columns, and
//! corrupted bytes, in default-sized and in small blocks. Analysis,
//! deterministic metrics and the stream's tallies must match at threads
//! 1/2/8, and in strict mode the workers must return the stream's first
//! error.

use certchain_asn1::Asn1Time;
use certchain_chainlab::{Analysis, CrossSignRegistry, Pipeline, PipelineOptions};
use certchain_chainlab::{PipelineState, RowFilter};
use certchain_ctlog::DomainIndex;
use certchain_netsim::zeek::block::{LogBlocks, BLOCK_BYTES};
use certchain_netsim::zeek::tsv::{write_ssl_log, SSL_FIELDS};
use certchain_netsim::{SslLogStream, SslRecord, TlsVersion, X509Record};
use certchain_trust::TrustDb;
use certchain_x509::Fingerprint;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// The fixed certificate pool chains draw from: a root, an intermediate,
/// three leaves below the intermediate, and a self-signed odd one out.
fn cert_pool() -> Vec<X509Record> {
    let ts = Asn1Time::from_unix(1_600_000_000);
    let cert = |n: u8, subject: &str, issuer: &str, ca: Option<bool>, san: &[&str]| X509Record {
        ts,
        fingerprint: Fingerprint([n; 32]),
        cert_version: 3,
        serial: format!("{n:02X}"),
        subject: subject.to_string(),
        issuer: issuer.to_string(),
        not_before: ts,
        not_after: Asn1Time::from_unix(1_600_000_000 + 86_400 * 365),
        basic_constraints_ca: ca,
        path_len: None,
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

/// Map a generated index to a fingerprint: indexes past the pool refer to
/// certificates absent from x509.log (unresolvable chains).
fn fp_of(index: u8) -> Fingerprint {
    let pool = cert_pool();
    if (index as usize) < pool.len() {
        pool[index as usize].fingerprint
    } else {
        Fingerprint([0xE0 + index; 32])
    }
}

/// One random connection: chain drawn from the pool (possibly empty or
/// unresolvable), metadata from small sets so chains repeat across
/// records with different usage contributions.
fn arb_conn() -> impl Strategy<Value = SslRecord> {
    (
        0u64..86_400,
        "[a-z0-9]{6,6}",
        0u8..16,
        any::<u16>(),
        0u8..4,
        0usize..3,
        any::<bool>(),
        proptest::option::of(prop_oneof![
            Just("svc0.example.org".to_string()),
            Just("svc1.example.org".to_string()),
            Just("proxy.internal".to_string()),
        ]),
        any::<bool>(),
        proptest::collection::vec(0u8..8, 0..4),
    )
        .prop_map(
            |(ts, uid, client, orig_p, resp, port_pick, v13, sni, established, chain)| SslRecord {
                ts: Asn1Time::from_unix(1_600_000_000 + ts),
                uid: format!("C{uid}"),
                orig_h: Ipv4Addr::new(10, 0, 0, client),
                orig_p,
                resp_h: Ipv4Addr::new(192, 168, 1, resp),
                resp_p: [443, 8443, 9000][port_pick],
                version: if v13 {
                    TlsVersion::Tls13
                } else {
                    TlsVersion::Tls12
                },
                server_name: sni,
                established,
                cert_chain_fps: chain.into_iter().map(fp_of).collect(),
            },
        )
}

/// Run the instrumented pipeline; the second value is the metrics
/// snapshot's deterministic fingerprint (pretty-printed counters, gauges,
/// and histograms — timing excluded).
fn run(
    ssl: &[SslRecord],
    x509: &[X509Record],
    weights: &[f64],
    threads: usize,
) -> (Analysis, String) {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let registry = std::sync::Arc::new(certchain_obs::Registry::new());
    let pipeline = Pipeline::with_options(
        &trust,
        &ct,
        CrossSignRegistry::new(),
        PipelineOptions {
            threads,
            ..PipelineOptions::default()
        },
    )
    .with_metrics(std::sync::Arc::clone(&registry));
    let analysis = pipeline.analyze(ssl, x509, Some(weights));
    (analysis, registry.snapshot().deterministic_fingerprint())
}

/// Canonical, fully ordered rendering of an `Analysis`. Weight sums are
/// rendered as their fixed-point units, so "identical" means exact, not
/// approximately equal. Chains, ports, client addresses and SNIs print in
/// the analysis' own order, which pins that each is sorted.
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
            "chain key={:?} certs={:?} classes={:?} cat={:?} path={:?} hybrid={:?} \
             nolink56={} dga={} ct={:?} entity={:?} snis={:?} \
             conn={} est={} sni_w={} ports={ports:?} ips={ips:?} recs={}",
            c.key,
            c.certs.iter().map(|r| r.fingerprint).collect::<Vec<_>>(),
            c.classes,
            c.category,
            c.path,
            c.hybrid_category,
            c.pub_leaf_no_intermediate,
            c.is_dga,
            c.leaf_ct_logged,
            c.interception_entity,
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

/// Deterministic per-record weights from the generator's own values
/// (2000/81, 200/7, 250/7 and 51500/73). None is dyadic, so as `f64`s
/// their sums would depend on the order they are added in, and a fold
/// that let merge order leak into a sum would show.
fn weights_for(n: usize) -> Vec<f64> {
    const WEIGHTS: [f64; 4] = [
        24.691358024691358,
        28.571428571428573,
        35.714285714285715,
        705.4794520547945,
    ];
    (0..n)
        .map(|i| WEIGHTS[(i + i / 3) % WEIGHTS.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn analysis_is_thread_count_invariant(
        records in proptest::collection::vec(arb_conn(), 0..160),
        threads in 2usize..9,
    ) {
        let x509 = cert_pool();
        let weights = weights_for(records.len());
        let (seq_analysis, seq_metrics) = run(&records, &x509, &weights, 1);
        let (par_analysis, par_metrics) = run(&records, &x509, &weights, threads);
        prop_assert_eq!(
            canon(&seq_analysis),
            canon(&par_analysis),
            "threads = {} diverged",
            threads
        );
        prop_assert_eq!(
            seq_metrics,
            par_metrics,
            "metrics snapshot diverged at threads = {}",
            threads
        );
    }
}

/// The dispatch path hands workers batches of `CHUNK = 1024` rows; a
/// stream spanning many batches, each chain's rows spread over every
/// worker, must still fold to the sequential sums. 20k records make many
/// batches per worker, with a partial tail.
#[test]
fn multi_chunk_batches_stay_invariant() {
    let x509 = cert_pool();
    let pool_chains: [&[u8]; 6] = [&[3, 2, 1], &[4, 2], &[5, 2, 1], &[6], &[9, 2], &[]];
    let records: Vec<SslRecord> = (0..20_000u32)
        .map(|i| {
            let chain = pool_chains[i as usize % pool_chains.len()];
            SslRecord {
                ts: Asn1Time::from_unix(1_600_000_000 + u64::from(i)),
                uid: format!("C{i:06}"),
                orig_h: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                orig_p: 40_000 + (i % 20_000) as u16,
                resp_h: Ipv4Addr::new(192, 168, 1, (i % 7) as u8),
                resp_p: if i % 3 == 0 { 443 } else { 8443 },
                version: if chain.is_empty() {
                    TlsVersion::Tls13
                } else {
                    TlsVersion::Tls12
                },
                server_name: (i % 5 != 0).then(|| format!("svc{}.example.org", i % 3)),
                established: i % 11 != 0,
                cert_chain_fps: chain.iter().copied().map(fp_of).collect(),
            }
        })
        .collect();
    let weights = weights_for(records.len());
    let (seq_analysis, seq_metrics) = run(&records, &x509, &weights, 1);
    let sequential = canon(&seq_analysis);
    for threads in [2, 5, 8] {
        let (par_analysis, par_metrics) = run(&records, &x509, &weights, threads);
        assert_eq!(
            sequential,
            canon(&par_analysis),
            "threads = {threads} diverged"
        );
        assert_eq!(
            seq_metrics, par_metrics,
            "metrics snapshot diverged at threads = {threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weight sums are exact, so the order the records arrive in is
    /// invisible: a random permutation of the same weighted records folds
    /// to the same analysis at every thread count.
    #[test]
    fn a_permutation_of_the_weighted_records_folds_the_same(
        records in proptest::collection::vec(arb_conn(), 0..160),
        seed in any::<u64>(),
        threads in 1usize..9,
    ) {
        let x509 = cert_pool();
        let weights = weights_for(records.len());
        let (want, _) = run(&records, &x509, &weights, 1);
        // Fisher-Yates over the (record, weight) pairs.
        let mut pairs: Vec<(SslRecord, f64)> = records.into_iter().zip(weights).collect();
        let mut state = seed;
        for i in (1..pairs.len()).rev() {
            let j = (mix(&mut state) % (i as u64 + 1)) as usize;
            pairs.swap(i, j);
        }
        let (shuffled, shuffled_weights): (Vec<SslRecord>, Vec<f64>) = pairs.into_iter().unzip();
        let (got, _) = run(&shuffled, &x509, &shuffled_weights, threads);
        prop_assert_eq!(canon(&want), canon(&got), "threads = {} diverged", threads);
    }
}

/// Run the pipeline with a category filter attached, returning the
/// analysis and the deterministic metrics fingerprint.
fn run_filtered(
    ssl: &[SslRecord],
    x509: &[X509Record],
    weights: &[f64],
    threads: usize,
    set: certchain_colstore::CategorySet,
) -> (Analysis, String) {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let registry = std::sync::Arc::new(certchain_obs::Registry::new());
    let pipeline = Pipeline::with_options(
        &trust,
        &ct,
        CrossSignRegistry::new(),
        PipelineOptions {
            threads,
            filter: certchain_chainlab::RowFilter {
                categories: Some(set),
                ..certchain_chainlab::RowFilter::default()
            },
            ..PipelineOptions::default()
        },
    )
    .with_metrics(std::sync::Arc::clone(&registry));
    let analysis = pipeline.analyze(ssl, x509, Some(weights));
    (analysis, registry.snapshot().deterministic_fingerprint())
}

/// The oracle the filter must agree with: classify each record's chain
/// with the same `chain_category` fold the store digests use, computed
/// here directly from the certificate pool.
fn manual_category(rec: &SslRecord) -> certchain_colstore::Category {
    use certchain_chainlab::{chain_category, CertCat, CertRecord};
    let trust = TrustDb::new();
    let pool: std::collections::BTreeMap<Fingerprint, CertRecord> = cert_pool()
        .iter()
        .filter_map(|r| CertRecord::from_record(r).map(|c| (r.fingerprint, c)))
        .collect();
    chain_category(rec.cert_chain_fps.iter().map(|fp| {
        pool.get(fp)
            .map(|c| CertCat::of(c, &trust))
            .unwrap_or(CertCat::Unresolved)
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A `--filter-category` analysis must equal analyzing the manually
    /// pre-filtered record subset — the TSV post-filter oracle — at
    /// every thread count, with thread-invariant deterministic metrics.
    #[test]
    fn category_filter_matches_postfilter_oracle(
        records in proptest::collection::vec(arb_conn(), 0..160),
        mask in 1u8..63,
    ) {
        let x509 = cert_pool();
        let weights = weights_for(records.len());
        let mut set = certchain_colstore::CategorySet::empty();
        for cat in certchain_colstore::Category::all() {
            if mask & (1 << cat.index()) != 0 {
                set.insert(cat);
            }
        }
        // The TSV post-filter path: drop non-matching records (and their
        // weights) before the pipeline ever sees them.
        let (kept, kept_weights): (Vec<SslRecord>, Vec<f64>) = records
            .iter()
            .zip(&weights)
            .filter(|(rec, _)| set.contains(manual_category(rec)))
            .map(|(rec, w)| (rec.clone(), *w))
            .unzip();
        let (oracle_analysis, _) = run(&kept, &x509, &kept_weights, 1);
        let want = canon(&oracle_analysis);
        let (seq_analysis, seq_metrics) = run_filtered(&records, &x509, &weights, 1, set);
        prop_assert_eq!(&canon(&seq_analysis), &want, "sequential filter diverged");
        for threads in [2usize, 8] {
            let (par_analysis, par_metrics) =
                run_filtered(&records, &x509, &weights, threads, set);
            prop_assert_eq!(&canon(&par_analysis), &want, "threads = {} diverged", threads);
            prop_assert_eq!(
                &seq_metrics,
                &par_metrics,
                "metrics snapshot diverged at threads = {}",
                threads
            );
        }
    }
}

/// SplitMix64: the per-row choices of [`rough_log`], from one seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Write `records` as an ssl.log, then roughen it as real logs are:
/// fingerprint hex in upper case or partly `\x`-escaped, CRLF line ends,
/// and a second `#fields` header with permuted columns before a random
/// data row. Then overwrite one ASCII byte per corruption with its
/// character (`'\0'` stands for a raw 0xff byte: invalid UTF-8).
fn rough_log(
    records: &[SslRecord],
    seed: u64,
    corrupt: &[(proptest::sample::Index, char)],
) -> Vec<u8> {
    let mut buf = Vec::new();
    write_ssl_log(&mut buf, records, Asn1Time::from_unix(0)).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut rng = seed;
    let n = SSL_FIELDS.len();
    // i -> 3i + r (mod 10) is a permutation: gcd(3, 10) = 1.
    let shift = mix(&mut rng) as usize % n;
    let perm: Vec<usize> = (0..n).map(|i| (3 * i + shift) % n).collect();
    let second_header = mix(&mut rng) as usize % (records.len() + 1);
    let mut out = String::new();
    let mut row = 0;
    for line in text.lines() {
        let eol = if mix(&mut rng) % 4 == 0 { "\r\n" } else { "\n" };
        if line.starts_with('#') {
            out.push_str(line);
            out.push_str(eol);
            continue;
        }
        if row == second_header {
            let names: Vec<&str> = perm.iter().map(|&i| SSL_FIELDS[i]).collect();
            out.push_str(&format!("#fields\t{}\n", names.join("\t")));
        }
        let mut cols: Vec<String> = line.split('\t').map(str::to_string).collect();
        if cols[9] != "(empty)" {
            let entries: Vec<String> = cols[9]
                .split(',')
                .map(|hex| match mix(&mut rng) % 3 {
                    0 => hex.to_string(),
                    1 => hex.to_uppercase(),
                    _ => {
                        let k = 1 + mix(&mut rng) as usize % 4;
                        let escaped: String =
                            hex[..k].bytes().map(|b| format!("\\x{b:02X}")).collect();
                        escaped + &hex[k..]
                    }
                })
                .collect();
            cols[9] = entries.join(",");
        }
        if row >= second_header {
            cols = perm.iter().map(|&i| cols[i].clone()).collect();
        }
        out.push_str(&cols.join("\t"));
        out.push_str(eol);
        row += 1;
    }
    let mut bytes = out.into_bytes();
    for (at, c) in corrupt {
        let i = at.index(bytes.len());
        if !bytes[i].is_ascii() {
            continue;
        }
        if *c == '\0' {
            bytes[i] = 0xff;
        } else {
            let mut utf8 = [0u8; 4];
            bytes.splice(i..=i, c.encode_utf8(&mut utf8).bytes());
        }
    }
    bytes
}

/// The stream over `log` the TSV path folds, in blocks of about
/// `block_bytes`.
fn tsv_stream(log: &[u8], permissive: bool, block_bytes: usize) -> SslLogStream<&[u8]> {
    SslLogStream::from_blocks(LogBlocks::with_block_bytes(log, permissive, block_bytes))
}

/// Fold `log` in permissive mode — on the shard workers or through the
/// record iterator — and render the analysis, the deterministic metrics
/// and the stream's tallies (or the error).
fn tsv_outcome(log: &[u8], threads: usize, filter: &RowFilter, workers: bool) -> String {
    tsv_outcome_at(log, threads, filter, workers, BLOCK_BYTES)
}

/// [`tsv_outcome`] with the log framed in blocks of about `block_bytes`.
fn tsv_outcome_at(
    log: &[u8],
    threads: usize,
    filter: &RowFilter,
    workers: bool,
    block_bytes: usize,
) -> String {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let registry = std::sync::Arc::new(certchain_obs::Registry::new());
    let options = PipelineOptions {
        threads,
        filter: filter.clone(),
        ..PipelineOptions::default()
    };
    let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options)
        .with_metrics(std::sync::Arc::clone(&registry));
    let mut state = PipelineState::new();
    pipeline
        .fold_x509_stream(&mut state, cert_pool().into_iter().map(Ok::<_, ()>))
        .unwrap();
    let stream = tsv_stream(log, true, block_bytes);
    let stats = stream.stats();
    let folded = if workers {
        pipeline.fold_ssl_log(&mut state, stream)
    } else {
        pipeline.fold_ssl_stream(&mut state, stream)
    };
    let outcome = match folded {
        Ok(()) => {
            let analysis = pipeline.finalize_state(&state);
            canon(&analysis) + &registry.snapshot().deterministic_fingerprint()
        }
        Err(e) => format!("error: {e}"),
    };
    format!(
        "{outcome}\nlines={} records={} malformed={} by_reason={:?}",
        stats.lines(),
        stats.records(),
        stats.malformed(),
        stats.malformed_by_reason()
    )
}

/// The strict-mode error of the shard workers folding `log` in blocks of
/// about `block_bytes`.
fn strict_worker_error(log: &[u8], threads: usize, block_bytes: usize) -> Option<String> {
    let trust = TrustDb::new();
    let ct = DomainIndex::new();
    let options = PipelineOptions {
        threads,
        ..PipelineOptions::default()
    };
    let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options);
    pipeline
        .fold_ssl_log(
            &mut PipelineState::new(),
            tsv_stream(log, false, block_bytes),
        )
        .err()
        .map(|e| e.to_string())
}

/// The TSV-path contract on one log: see the module docs.
fn check_tsv_paths(log: &[u8], filter: &RowFilter) {
    check_tsv_paths_at(log, filter, BLOCK_BYTES);
}

/// [`check_tsv_paths`] with the workers' log framed in blocks of about
/// `block_bytes` (the record iterator keeps the default).
fn check_tsv_paths_at(log: &[u8], filter: &RowFilter, block_bytes: usize) {
    let want = tsv_outcome(log, 1, filter, false);
    let want_strict = SslLogStream::new(log)
        .find_map(Result::err)
        .map(|e| e.to_string());
    for threads in [1, 2, 8] {
        assert_eq!(
            tsv_outcome_at(log, threads, filter, true, block_bytes),
            want,
            "shard workers diverged at threads = {threads}"
        );
        assert_eq!(
            strict_worker_error(log, threads, block_bytes),
            want_strict,
            "strict error diverged at threads = {threads}"
        );
    }
}

/// Connections with escape-worthy uids and SNIs.
fn arb_rough_conn() -> impl Strategy<Value = SslRecord> {
    (
        arb_conn(),
        0usize..4,
        prop_oneof![
            Just(None),
            Just(Some("svc0.example.org".to_string())),
            Just(Some("tab\tsni.example".to_string())),
            Just(Some("-".to_string())),
            Just(Some("back\\slash,comma.example".to_string())),
        ],
    )
        .prop_map(|(mut rec, uid, sni)| {
            rec.uid = ["Cplain", "C\ttab", "-", "C\\x41"][uid].to_string();
            rec.server_name = sni;
            rec
        })
}

/// Row filters the TSV property runs under, escaped SNIs included.
fn filter_of(pick: usize) -> RowFilter {
    match pick {
        0 => RowFilter::default(),
        1 => RowFilter {
            port: Some(443),
            ..RowFilter::default()
        },
        2 => RowFilter {
            sni: Some("tab\tsni.example".to_string()),
            ..RowFilter::default()
        },
        _ => RowFilter {
            sni: Some("-".to_string()),
            ..RowFilter::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tsv_workers_match_the_record_stream(
        records in proptest::collection::vec(arb_rough_conn(), 0..80),
        seed in any::<u64>(),
        corrupt in proptest::collection::vec(
            (
                any::<proptest::sample::Index>(),
                prop_oneof![
                    Just('\t'),
                    Just('x'),
                    Just('#'),
                    Just('7'),
                    Just(','),
                    Just('\\'),
                    Just('\u{e9}'),
                    Just('\u{4e2d}'),
                    Just('\0'),
                ],
            ),
            0..4,
        ),
        filter in 0usize..4,
    ) {
        let log = rough_log(&records, seed, &corrupt);
        check_tsv_paths(&log, &filter_of(filter));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same contract with the workers' log cut into many small
    /// blocks, which finish out of order and a header line can fall
    /// between.
    #[test]
    fn tsv_workers_match_the_record_stream_in_small_blocks(
        records in proptest::collection::vec(arb_rough_conn(), 0..80),
        seed in any::<u64>(),
        corrupt in proptest::collection::vec(
            (
                any::<proptest::sample::Index>(),
                prop_oneof![Just('\t'), Just('x'), Just('#'), Just('\u{e9}'), Just('\0')],
            ),
            0..4,
        ),
        block_bytes in 1usize..2048,
    ) {
        let log = rough_log(&records, seed, &corrupt);
        check_tsv_paths_at(&log, &RowFilter::default(), block_bytes);
    }
}

/// A traced threads-2 TSV fold emits the `pipeline.dispatch` span, whose
/// `rows` counts every data row framed: the stream's records plus its
/// malformed rows.
#[test]
fn traced_tsv_fold_reports_the_rows_it_dispatched() {
    let records: Vec<SslRecord> = (0..4_000u32)
        .map(|i| SslRecord {
            ts: Asn1Time::from_unix(1_600_000_000 + u64::from(i)),
            uid: format!("C{i:06}"),
            orig_h: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
            orig_p: 40_000,
            resp_h: Ipv4Addr::new(192, 168, 1, 1),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: (i % 5 != 0).then(|| "svc0.example.org".to_string()),
            established: true,
            cert_chain_fps: vec![fp_of((i % 6) as u8)],
        })
        .collect();
    let mut rng = TestRng::new(3);
    let corrupt: Vec<(proptest::sample::Index, char)> = (0..20)
        .map(|_| (any::<proptest::sample::Index>().generate(&mut rng), 'x'))
        .collect();
    let log = rough_log(&records, 5, &corrupt);
    let (trust, ct) = (TrustDb::new(), DomainIndex::new());
    let journal = std::sync::Arc::new(certchain_obs::TraceJournal::new(64));
    let options = PipelineOptions {
        threads: 2,
        ..PipelineOptions::default()
    };
    let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options)
        .with_trace(std::sync::Arc::clone(&journal));
    let stream = SslLogStream::permissive(&log[..]);
    let stats = stream.stats();
    pipeline
        .fold_ssl_log(&mut PipelineState::new(), stream)
        .expect("no framing errors");
    let ends: Vec<_> = journal
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == certchain_obs::trace::TraceKind::SpanEnd)
        .collect();
    let span = ends
        .iter()
        .find(|e| e.name == "pipeline.dispatch")
        .expect("a pipeline.dispatch span");
    let ingest = ends
        .iter()
        .find(|e| e.name == "pipeline.ingest")
        .expect("a pipeline.ingest span");
    assert_eq!(span.parent, ingest.span, "dispatch runs under ingest");
    assert_eq!(ingest.parent, 0, "a fold's stage is a root span");
    let attr = |key: &str| {
        span.attrs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<u64>().ok())
    };
    assert!(stats.malformed() > 0, "the log has malformed rows");
    assert_eq!(attr("shards"), Some(2));
    assert!(attr("blocks").is_some_and(|n| n > 1), "{:?}", span.attrs);
    assert_eq!(attr("rows"), Some(stats.records() + stats.malformed()));
}

/// A rough log several worker batches long: every shard sees many
/// batches, and the second header lands mid-stream.
#[test]
fn long_rough_log_matches_the_record_stream() {
    let pool_chains: [&[u8]; 6] = [&[3, 2, 1], &[4, 2], &[5, 2, 1], &[6], &[9, 2], &[]];
    let records: Vec<SslRecord> = (0..12_000u32)
        .map(|i| {
            let chain = pool_chains[i as usize % pool_chains.len()];
            SslRecord {
                ts: Asn1Time::from_unix(1_600_000_000 + u64::from(i)),
                uid: format!("C{i:06}\t{}", i % 3),
                orig_h: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                orig_p: 40_000 + (i % 20_000) as u16,
                resp_h: Ipv4Addr::new(192, 168, 1, (i % 7) as u8),
                resp_p: if i % 3 == 0 { 443 } else { 8443 },
                version: if chain.is_empty() {
                    TlsVersion::Tls13
                } else {
                    TlsVersion::Tls12
                },
                server_name: (i % 5 != 0).then(|| format!("svc{}\t.example.org", i % 3)),
                established: i % 11 != 0,
                cert_chain_fps: chain.iter().copied().map(fp_of).collect(),
            }
        })
        .collect();
    let mut rng = TestRng::new(7);
    let corrupt: Vec<(proptest::sample::Index, char)> = (0..40)
        .map(|i| {
            (
                any::<proptest::sample::Index>().generate(&mut rng),
                ['x', '\t', '7', '\u{e9}'][i % 4],
            )
        })
        .collect();
    let log = rough_log(&records, 11, &corrupt);
    check_tsv_paths(&log, &RowFilter::default());
}

/// A traced columnar analysis opens the same `pipeline.<stage>` spans as
/// the other paths, one per stage and in stage order, all under one
/// `pipeline.analyze` root.
#[test]
fn traced_columnar_analysis_spans_every_stage() {
    let dir = std::env::temp_dir().join(format!("certchain-stage-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = certchain_colstore::DatasetWriter::create(&dir).unwrap();
    for rec in cert_pool() {
        writer.append_x509(&rec).unwrap();
    }
    for i in 0..500u32 {
        writer
            .append_ssl(&SslRecord {
                ts: Asn1Time::from_unix(1_600_000_000 + u64::from(i)),
                uid: format!("C{i:06}"),
                orig_h: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                orig_p: 40_000,
                resp_h: Ipv4Addr::new(192, 168, 1, 1),
                resp_p: 443,
                version: TlsVersion::Tls12,
                server_name: (i % 5 != 0).then(|| "svc0.example.org".to_string()),
                established: true,
                cert_chain_fps: vec![fp_of((i % 8) as u8), fp_of(1)],
            })
            .unwrap();
    }
    writer.finish().unwrap();
    let reader =
        certchain_colstore::DatasetReader::open(&dir, certchain_colstore::MapMode::Auto).unwrap();
    let (trust, ct) = (TrustDb::new(), DomainIndex::new());
    let journal = std::sync::Arc::new(certchain_obs::TraceJournal::new(64));
    let options = PipelineOptions {
        threads: 2,
        ..PipelineOptions::default()
    };
    let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options)
        .with_trace(std::sync::Arc::clone(&journal));
    let analysis = pipeline.analyze_colstore(&reader).unwrap();
    assert!(
        analysis.unresolvable_records > 0,
        "some chains do not resolve"
    );
    let ends: Vec<_> = journal
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == certchain_obs::trace::TraceKind::SpanEnd)
        .collect();
    let names: Vec<&str> = ends.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "pipeline.enrich",
            "pipeline.ingest",
            "pipeline.resolve",
            "pipeline.categorize",
            "pipeline.finalize",
            "pipeline.analyze"
        ]
    );
    // One root: the analysis, with every stage under it.
    let root = &ends[ends.len() - 1];
    assert_eq!(root.parent, 0);
    for stage in &ends[..ends.len() - 1] {
        assert_eq!(
            stage.parent, root.span,
            "{} is not under the root",
            stage.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
