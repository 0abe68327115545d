//! End-to-end integration: trace generation → Zeek TSV serialization →
//! re-parse → analysis, asserting the pipeline behaves identically over
//! serialized logs and in-memory records.

use certchain_chainlab::{ChainCategoryLabel, CrossSignRegistry, Pipeline};
use certchain_integration::shared_lab;
use certchain_netsim::zeek::reader::{read_ssl_log, read_x509_log};
use certchain_netsim::zeek::tsv::{write_ssl_log, write_x509_log};
use certchain_netsim::SimClock;

#[test]
fn zeek_serialization_round_trips_exactly() {
    let (trace, _) = shared_lab();
    let open = SimClock::campus_window_start().now();

    let mut ssl_buf = Vec::new();
    write_ssl_log(&mut ssl_buf, &trace.ssl_records, open).unwrap();
    let parsed = read_ssl_log(std::str::from_utf8(&ssl_buf).unwrap()).unwrap();
    assert_eq!(parsed, trace.ssl_records);

    let mut x509_buf = Vec::new();
    write_x509_log(&mut x509_buf, &trace.x509_records, open).unwrap();
    let parsed = read_x509_log(std::str::from_utf8(&x509_buf).unwrap()).unwrap();
    assert_eq!(parsed, trace.x509_records);
}

#[test]
fn analysis_identical_over_serialized_logs() {
    let (trace, direct) = shared_lab();
    let open = SimClock::campus_window_start().now();

    let mut ssl_buf = Vec::new();
    write_ssl_log(&mut ssl_buf, &trace.ssl_records, open).unwrap();
    let ssl = read_ssl_log(std::str::from_utf8(&ssl_buf).unwrap()).unwrap();
    let mut x509_buf = Vec::new();
    write_x509_log(&mut x509_buf, &trace.x509_records, open).unwrap();
    let x509 = read_x509_log(std::str::from_utf8(&x509_buf).unwrap()).unwrap();

    let weights: Vec<f64> = trace.conn_meta.iter().map(|m| m.weight).collect();
    let pipeline = Pipeline::new(
        &trace.eco.trust,
        &trace.ct_index,
        CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
    );
    let reparsed = pipeline.analyze(&ssl, &x509, Some(&weights));

    assert_eq!(reparsed.chains.len(), direct.chains.len());
    assert_eq!(reparsed.interception_entities, direct.interception_entities);
    for cat in [
        ChainCategoryLabel::PublicOnly,
        ChainCategoryLabel::NonPublicOnly,
        ChainCategoryLabel::Hybrid,
        ChainCategoryLabel::Interception,
    ] {
        assert_eq!(
            reparsed.chains_in(cat).count(),
            direct.chains_in(cat).count(),
            "category {cat:?}"
        );
    }
    // Per-chain categorization agrees chain by chain.
    for chain in &direct.chains {
        let got = reparsed.chain(&chain.key).expect("chain in both analyses");
        assert_eq!(got.category, chain.category);
        assert_eq!(got.hybrid_category, chain.hybrid_category);
    }
}

#[test]
fn headline_numbers_survive_the_whole_stack() {
    let (trace, analysis) = shared_lab();
    // Table 2 / §3.2.2 shape.
    assert_eq!(analysis.chains_in(ChainCategoryLabel::Hybrid).count(), 321);
    // §4.2 CT compliance.
    let logged: Vec<bool> = analysis
        .chains
        .iter()
        .filter_map(|c| c.leaf_ct_logged)
        .collect();
    assert_eq!(logged.len(), 26);
    assert!(logged.iter().all(|&l| l));
    // Figure 6: 56.74% of no-path chains at ratio ≥ 0.5.
    let no_path: Vec<f64> = analysis
        .chains
        .iter()
        .filter(|c| {
            matches!(
                c.hybrid_category,
                Some(certchain_chainlab::HybridCategory::NoPath(_))
            )
        })
        .map(|c| c.path.mismatch_ratio)
        .collect();
    assert_eq!(no_path.len(), 215);
    let ge_half = no_path.iter().filter(|&&r| r >= 0.5).count();
    assert_eq!(ge_half, 122, "= 56.74% of 215");
    // Weighted connection totals track Table 2.
    let hybrid_conns: f64 = analysis
        .usage_of(|c| c.category == ChainCategoryLabel::Hybrid)
        .connections
        .to_f64();
    assert!((hybrid_conns - trace.targets.hybrid_connections as f64).abs() < 100.0);
}

#[test]
fn distinct_certificate_count_is_consistent() {
    let (trace, analysis) = shared_lab();
    // Every distinct certificate the analysis saw is in x509.log, and the
    // trace never logs a certificate twice.
    assert!(analysis.distinct_certificates <= trace.x509_records.len());
    let mut fps: Vec<_> = trace.x509_records.iter().map(|r| r.fingerprint).collect();
    fps.sort();
    fps.dedup();
    assert_eq!(fps.len(), trace.x509_records.len());
}
