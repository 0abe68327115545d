//! Campus census: generate a synthetic campus trace, run the full analysis
//! pipeline over its Zeek-style logs, and print the §3.2.2 chain census
//! with establishment rates — the reproduction's core loop end-to-end.
//!
//! ```sh
//! cargo run -p certchain-examples --example campus_census
//! ```

use certchain_chainlab::ChainCategoryLabel;
use certchain_report::table::{num, pct};
use certchain_report::Table;

fn main() {
    println!("generating synthetic campus trace (quick profile)…");
    let (trace, analysis) = certchain_examples::quick_lab();
    println!(
        "  {} ssl.log records, {} distinct certificates, {} distinct chains\n",
        trace.ssl_records.len(),
        trace.x509_records.len(),
        analysis.chains.len()
    );

    let mut table = Table::new(
        "Chain census (per §3.2.2 categories)",
        &[
            "Category",
            "#. Chains",
            "Weighted conns",
            "Established",
            "No-SNI",
        ],
    );
    for (name, cat) in [
        ("Public-DB-only", ChainCategoryLabel::PublicOnly),
        ("Non-public-DB-only", ChainCategoryLabel::NonPublicOnly),
        ("Hybrid", ChainCategoryLabel::Hybrid),
        ("TLS interception", ChainCategoryLabel::Interception),
    ] {
        let chains = analysis.chains_in(cat).count();
        let usage = analysis.usage_of(|c| c.category == cat);
        table.row(&[
            name.to_string(),
            num(chains as f64, 0),
            num(usage.connections.to_f64(), 0),
            pct(usage.established_rate()),
            pct(usage.no_sni_rate()),
        ]);
    }
    println!("{}", table.render());

    println!(
        "interception entities identified via CT cross-reference: {}",
        analysis.interception_entities.len()
    );
    println!(
        "DGA cluster chains detected: {}",
        analysis.chains.iter().filter(|c| c.is_dga).count()
    );
    println!(
        "TLS 1.3 records skipped (no visible chain): {}",
        analysis.no_chain_records
    );
}
