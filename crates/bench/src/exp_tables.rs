//! Table experiments: Tables 1, 2, 3 (+ establishment rates), 4, 6, 7, 8.

use crate::lab::{chain_weight_of, Lab};
use crate::ExperimentOutput;
use certchain_chainlab::hybrid::NoPathCategory;
use certchain_chainlab::pipeline::issuer_entity;
use certchain_chainlab::usage::UsageStats;
use certchain_chainlab::{ChainCategoryLabel, HybridCategory};
use certchain_report::table::{num, pct};
use certchain_report::{ComparisonTable, Table};
use certchain_workload::issuers::{interception_vendors, InterceptionCategory};
use std::collections::HashMap;

/// Table 1: categories of issuers conducting TLS interception.
pub fn table1(lab: &Lab) -> ExperimentOutput {
    // The paper's "manual investigation through web search" step: map
    // detected entities to vendor categories via the public vendor
    // catalog. Unattributable entities fall into "Other".
    let catalog: HashMap<String, InterceptionCategory> = interception_vendors()
        .into_iter()
        .map(|v| (v.name, v.category))
        .collect();

    #[derive(Default)]
    struct Row<'a> {
        issuers: std::collections::BTreeSet<String>,
        chains: Vec<&'a UsageStats>,
    }
    let mut rows: HashMap<InterceptionCategory, Row<'_>> = HashMap::new();
    let mut chains = Vec::new();
    for chain in lab.analysis.chains_in(ChainCategoryLabel::Interception) {
        let entity = chain
            .interception_entity
            .clone()
            .unwrap_or_else(|| issuer_entity(&chain.certs[0].issuer));
        let category = catalog
            .get(&entity)
            .copied()
            .unwrap_or(InterceptionCategory::Other);
        let row = rows.entry(category).or_default();
        row.issuers.insert(entity);
        row.chains.push(&chain.usage);
        chains.push(&*chain.usage);
    }
    let total = UsageStats::gather(chains);

    let mut table = Table::new(
        "Table 1: Categories of issuers conducting TLS interception",
        &[
            "Category",
            "#. Issuers",
            "% Connections",
            "#. Client IPs (weighted)",
        ],
    );
    let mut comparison = ComparisonTable::new();
    let conn_weight = lab.trace.profile.conn_weight();
    for (cat, issuers_paper, conns_paper, _ips_paper) in lab.trace.targets.interception_categories {
        let category = InterceptionCategory::all()
            .into_iter()
            .find(|c| c.name() == cat)
            .expect("category names match");
        let row = rows.remove(&category).unwrap_or_default();
        let usage = UsageStats::gather(row.chains);
        let conn_share =
            100.0 * usage.connections.to_f64() / total.connections.to_f64().max(f64::MIN_POSITIVE);
        let weighted_ips = usage.client_ips.len() as f64 * conn_weight;
        table.row(&[
            cat.to_string(),
            num(row.issuers.len() as f64, 0),
            format!("{conn_share:.2}"),
            num(weighted_ips, 0),
        ]);
        comparison.add(
            &format!("{cat}: issuers"),
            issuers_paper as f64,
            row.issuers.len() as f64,
            0.15,
        );
        if conns_paper >= 0.1 {
            comparison.add(
                &format!("{cat}: % connections"),
                conns_paper,
                conn_share,
                0.05,
            );
        }
    }
    comparison.add(
        "identified interception issuers",
        80.0,
        lab.analysis.interception_entities.len() as f64,
        0.02,
    );

    ExperimentOutput {
        id: "table1",
        rendered: table.render(),
        comparison,
    }
}

/// Table 2: statistics of certificate chains (weighted to paper scale).
pub fn table2(lab: &Lab) -> ExperimentOutput {
    struct Bucket {
        chains: f64,
        usage: UsageStats,
    }
    let mut buckets: HashMap<ChainCategoryLabel, Bucket> = HashMap::new();
    for category in [
        ChainCategoryLabel::NonPublicOnly,
        ChainCategoryLabel::Hybrid,
        ChainCategoryLabel::Interception,
    ] {
        let chains: f64 = lab
            .analysis
            .chains_in(category)
            .map(|chain| chain_weight_of(lab, chain))
            .sum();
        let usage = lab.analysis.usage_of(|c| c.category == category);
        buckets.insert(category, Bucket { chains, usage });
    }
    let conn_weight = lab.trace.profile.conn_weight();
    let mut table = Table::new(
        "Table 2: Statistics of certificate chains (weighted)",
        &["", "Non-public-DB-only", "Hybrid", "TLS int."],
    );
    let get = |cat: ChainCategoryLabel| -> (f64, f64, f64) {
        buckets
            .get(&cat)
            .map(|b| {
                (
                    b.chains,
                    b.usage.connections.to_f64(),
                    // Hybrid/DGA groups are full fidelity (weight 1);
                    // scaled groups multiply their observed IPs back up.
                    if cat == ChainCategoryLabel::Hybrid {
                        b.usage.client_ips.len() as f64
                    } else {
                        b.usage.client_ips.len() as f64 * conn_weight
                    },
                )
            })
            .unwrap_or((0.0, 0.0, 0.0))
    };
    let np = get(ChainCategoryLabel::NonPublicOnly);
    let hy = get(ChainCategoryLabel::Hybrid);
    let ic = get(ChainCategoryLabel::Interception);
    table.row(&[
        "#. Cert chains".into(),
        num(np.0, 0),
        num(hy.0, 0),
        num(ic.0, 0),
    ]);
    table.row(&[
        "#. TLS connections".into(),
        num(np.1, 0),
        num(hy.1, 0),
        num(ic.1, 0),
    ]);
    table.row(&[
        "#. Client IPs".into(),
        num(np.2, 0),
        num(hy.2, 0),
        num(ic.2, 0),
    ]);

    let t = &lab.trace.targets;
    let mut comparison = ComparisonTable::new();
    comparison
        .add(
            "non-public-DB-only chains",
            t.nonpub_chains as f64,
            np.0,
            0.10,
        )
        .add("hybrid chains", t.hybrid_chains as f64, hy.0, 0.0)
        .add(
            "interception chains",
            t.interception_chains as f64,
            ic.0,
            0.10,
        )
        .add(
            "non-public connections",
            t.nonpub_connections as f64,
            np.1,
            0.05,
        )
        .add(
            "hybrid connections",
            t.hybrid_connections as f64,
            hy.1,
            0.01,
        )
        .add(
            "interception connections",
            t.interception_connections as f64,
            ic.1,
            0.05,
        )
        .add("hybrid client IPs", t.hybrid_client_ips as f64, hy.2, 0.05);

    ExperimentOutput {
        id: "table2",
        rendered: table.render(),
        comparison,
    }
}

/// Table 3 (+ §4.2 establishment rates): hybrid chain categories.
pub fn table3(lab: &Lab) -> ExperimentOutput {
    let mut complete_np = 0u64;
    let mut complete_prv = 0u64;
    let mut contains = 0u64;
    let mut no_path = 0u64;
    let (mut in_complete, mut in_contains, mut in_no_path, mut in_group_56) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut in_56 = 0u64;
    for chain in lab.analysis.chains_in(ChainCategoryLabel::Hybrid) {
        let usage = &*chain.usage;
        match chain.hybrid_category.expect("hybrid is categorized") {
            HybridCategory::CompleteNonPubToPub => {
                complete_np += 1;
                in_complete.push(usage);
            }
            HybridCategory::CompletePubToPrv => {
                complete_prv += 1;
                in_complete.push(usage);
            }
            HybridCategory::ContainsPath => {
                contains += 1;
                in_contains.push(usage);
            }
            HybridCategory::NoPath(_) => {
                no_path += 1;
                in_no_path.push(usage);
                if chain.pub_leaf_no_intermediate {
                    in_56 += 1;
                    in_group_56.push(usage);
                }
            }
        }
    }
    let usage_complete = UsageStats::gather(in_complete);
    let usage_contains = UsageStats::gather(in_contains);
    let usage_no_path = UsageStats::gather(in_no_path);
    let usage_56 = UsageStats::gather(in_group_56);
    let mut table = Table::new(
        "Table 3: Statistics of hybrid certificate chains",
        &["Hybrid chain category", "#. Chains", "Established"],
    );
    table.row(&[
        "(1) Complete: Non-pub chained to Pub".into(),
        num(complete_np as f64, 0),
        pct(usage_complete.established_rate()),
    ]);
    table.row(&[
        "(1) Complete: Pub chained to Prv".into(),
        num(complete_prv as f64, 0),
        String::new(),
    ]);
    table.row(&[
        "(2) Contains a complete matched path".into(),
        num(contains as f64, 0),
        pct(usage_contains.established_rate()),
    ]);
    table.row(&[
        "(3) No complete matched path".into(),
        num(no_path as f64, 0),
        pct(usage_no_path.established_rate()),
    ]);
    table.row(&[
        "    of which: pub leaf w/o intermediate".into(),
        num(in_56 as f64, 0),
        pct(usage_56.established_rate()),
    ]);
    table.row(&[
        "Total".into(),
        num((complete_np + complete_prv + contains + no_path) as f64, 0),
        String::new(),
    ]);

    let t = &lab.trace.targets;
    let mut comparison = ComparisonTable::new();
    comparison
        .add(
            "complete: non-pub→pub",
            t.hybrid_complete_nonpub_to_pub as f64,
            complete_np as f64,
            0.0,
        )
        .add(
            "complete: pub→prv",
            t.hybrid_complete_pub_to_prv as f64,
            complete_prv as f64,
            0.0,
        )
        .add(
            "contains path",
            t.hybrid_contains_path as f64,
            contains as f64,
            0.0,
        )
        .add("no path", t.hybrid_no_path as f64, no_path as f64, 0.0)
        .add(
            "established: complete",
            t.established_rate_complete,
            usage_complete.established_rate(),
            0.01,
        )
        .add(
            "established: contains",
            t.established_rate_contains,
            usage_contains.established_rate(),
            0.01,
        )
        .add(
            "established: no path",
            t.established_rate_no_path,
            usage_no_path.established_rate(),
            0.02,
        )
        .add(
            "56-group chains",
            t.pub_leaf_no_intermediate_chains as f64,
            in_56 as f64,
            0.0,
        )
        .add(
            "56-group connections",
            t.pub_leaf_no_intermediate_connections as f64,
            usage_56.connections.to_f64(),
            0.01,
        )
        .add(
            "56-group established",
            t.pub_leaf_no_intermediate_established,
            usage_56.established_rate(),
            0.01,
        )
        .add(
            "no-path connections",
            t.no_path_connections as f64,
            usage_no_path.connections.to_f64(),
            0.01,
        );

    ExperimentOutput {
        id: "table3",
        rendered: table.render(),
        comparison,
    }
}

/// Table 4: port distributions per category.
pub fn table4(lab: &Lab) -> ExperimentOutput {
    let hybrid = lab
        .analysis
        .usage_of(|c| c.category == ChainCategoryLabel::Hybrid);
    let single = lab
        .analysis
        .usage_of(|c| c.category == ChainCategoryLabel::NonPublicOnly && c.key.len() == 1);
    let multi = lab
        .analysis
        .usage_of(|c| c.category == ChainCategoryLabel::NonPublicOnly && c.key.len() > 1);
    let interception = lab
        .analysis
        .usage_of(|c| c.category == ChainCategoryLabel::Interception);

    let mut table = Table::new(
        "Table 4: Port distribution of connections (top-5 per category)",
        &["Category", "Port", "%"],
    );
    let mut comparison = ComparisonTable::new();
    let mut render = |name: &str, stats: &UsageStats, paper: &[(u16, f64)]| {
        let dist = stats.port_distribution();
        for (port, share) in dist.iter().take(5) {
            table.row(&[name.to_string(), port.to_string(), format!("{share:.2}")]);
        }
        for (port, paper_share) in paper {
            if *paper_share < 0.05 {
                // Sub-0.05% rows (e.g. hybrid port 9191 at 0.01%) cannot be
                // resolved at simulation scale; shown in the table only.
                continue;
            }
            let measured = dist
                .iter()
                .find(|(p, _)| p == port)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            // Small shares carry proportionally more sampling noise at
            // reduced scale; widen their tolerance.
            let tolerance = if *paper_share < 3.0 { 0.60 } else { 0.20 };
            comparison.add(
                &format!("{name} port {port} %"),
                *paper_share,
                measured,
                tolerance,
            );
        }
    };
    let t = &lab.trace.targets;
    render("Hybrid", &hybrid, &t.ports_hybrid);
    render("Non-pub single", &single, &t.ports_nonpub_single);
    render("Non-pub multi", &multi, &t.ports_nonpub_multi);
    render("Interception", &interception, &t.ports_interception);

    ExperimentOutput {
        id: "table4",
        rendered: table.render(),
        comparison,
    }
}

/// Table 6: anchored non-public issuers by entity category, plus the §4.2
/// CT-compliance check.
pub fn table6(lab: &Lab) -> ExperimentOutput {
    use certchain_workload::issuers::{anchored_issuers, AnchoredCategory};
    // The "manual" entity categorization: organization → category.
    let org_category: HashMap<String, AnchoredCategory> = anchored_issuers()
        .into_iter()
        .map(|s| (s.org.to_string(), s.category))
        .collect();

    let mut corp = 0u64;
    let mut gov = 0u64;
    let mut uncategorized = 0u64;
    let mut ct_logged = 0u64;
    let mut ct_total = 0u64;
    for chain in lab.analysis.chains_in(ChainCategoryLabel::Hybrid) {
        if chain.hybrid_category != Some(HybridCategory::CompleteNonPubToPub) {
            continue;
        }
        let org = chain.certs[0]
            .issuer
            .get(&certchain_x509::dn::AttrType::Organization)
            .unwrap_or_default()
            .to_string();
        match org_category.get(&org) {
            Some(AnchoredCategory::Corporate) => corp += 1,
            Some(AnchoredCategory::Government) => gov += 1,
            None => uncategorized += 1,
        }
        ct_total += 1;
        if chain.leaf_ct_logged == Some(true) {
            ct_logged += 1;
        }
    }
    let mut table = Table::new(
        "Table 6: Non-public-DB issuers chained to public trust anchors",
        &["Category", "#. Chains"],
    );
    table.row(&["Corporate".into(), num(corp as f64, 0)]);
    table.row(&["Government".into(), num(gov as f64, 0)]);
    if uncategorized > 0 {
        table.row(&["(uncategorized)".into(), num(uncategorized as f64, 0)]);
    }
    table.row(&["CT-logged leaves".into(), format!("{ct_logged}/{ct_total}")]);

    let t = &lab.trace.targets;
    let mut comparison = ComparisonTable::new();
    comparison
        .add(
            "corporate chains",
            t.anchored_corporate as f64,
            corp as f64,
            0.0,
        )
        .add(
            "government chains",
            t.anchored_government as f64,
            gov as f64,
            0.0,
        )
        .add(
            "CT-logged share",
            1.0,
            ct_logged as f64 / ct_total.max(1) as f64,
            0.0,
        );

    ExperimentOutput {
        id: "table6",
        rendered: table.render(),
        comparison,
    }
}

/// Table 7: categorization of hybrid chains without a complete path.
pub fn table7(lab: &Lab) -> ExperimentOutput {
    let mut counts: HashMap<NoPathCategory, u64> = HashMap::new();
    let mut identical_leaf = 0u64;
    for chain in lab.analysis.chains_in(ChainCategoryLabel::Hybrid) {
        if let Some(HybridCategory::NoPath(cat)) = chain.hybrid_category {
            *counts.entry(cat).or_default() += 1;
            if cat == NoPathCategory::SelfSignedLeafMismatches
                && chain.certs[0].subject.common_name() == Some("localhost")
            {
                identical_leaf += 1;
            }
        }
    }
    let rows: [(&str, NoPathCategory, u64); 6] = [
        (
            "Non-pub-DB self-signed leaf + mismatched pairs",
            NoPathCategory::SelfSignedLeafMismatches,
            lab.trace.targets.t7_selfsigned_leaf_mismatches,
        ),
        (
            "Non-pub-DB self-signed leaf + valid sub-chain",
            NoPathCategory::SelfSignedLeafValidSubchain,
            lab.trace.targets.t7_selfsigned_leaf_valid_subchain,
        ),
        (
            "All pairs mismatched",
            NoPathCategory::AllMismatched,
            lab.trace.targets.t7_all_mismatched,
        ),
        (
            "Partial pairs mismatched",
            NoPathCategory::PartialMismatched,
            lab.trace.targets.t7_partial_mismatched,
        ),
        (
            "Non-pub root appended to valid sub-chain",
            NoPathCategory::RootAppendedToValidSubchain,
            lab.trace.targets.t7_root_appended_to_valid_subchain,
        ),
        (
            "Non-pub root + mismatched pairs",
            NoPathCategory::RootAndMismatches,
            lab.trace.targets.t7_root_and_mismatches,
        ),
    ];
    let mut table = Table::new(
        "Table 7: Hybrid chains without a complete matched path",
        &["Category", "#. Chains"],
    );
    let mut comparison = ComparisonTable::new();
    for (name, cat, paper) in rows {
        let measured = counts.get(&cat).copied().unwrap_or(0);
        table.row(&[name.to_string(), num(measured as f64, 0)]);
        comparison.add(name, paper as f64, measured as f64, 0.0);
    }
    comparison.add(
        "localhost-DN leaves (of 108)",
        lab.trace.targets.t7_identical_leaf_fields as f64,
        identical_leaf as f64,
        0.0,
    );

    ExperimentOutput {
        id: "table7",
        rendered: table.render(),
        comparison,
    }
}

/// Table 8 + §4.3: non-public-only and interception path statistics.
pub fn table8(lab: &Lab) -> ExperimentOutput {
    use certchain_chainlab::matchpath::{path_verdict_leaf_agnostic, PathVerdict};
    struct Acc {
        is_path: f64,
        contains: u64,
        no_path: u64,
        multi: f64,
        single: f64,
        single_self_signed: f64,
    }
    let acc = |cat: ChainCategoryLabel| -> Acc {
        let mut a = Acc {
            is_path: 0.0,
            contains: 0,
            no_path: 0,
            multi: 0.0,
            single: 0.0,
            single_self_signed: 0.0,
        };
        for chain in lab.analysis.chains_in(cat) {
            let w = chain_weight_of(lab, chain);
            if chain.key.len() == 1 {
                a.single += w;
                if chain.certs[0].is_self_signed() {
                    a.single_self_signed += w;
                }
                continue;
            }
            a.multi += w;
            match path_verdict_leaf_agnostic(&chain.path) {
                PathVerdict::IsComplete => a.is_path += w,
                PathVerdict::ContainsComplete => a.contains += 1,
                PathVerdict::NoComplete => a.no_path += 1,
            }
        }
        a
    };
    let np = acc(ChainCategoryLabel::NonPublicOnly);
    let ic = acc(ChainCategoryLabel::Interception);

    // The DGA cluster (weighted sums are weight-1 for this group).
    let dga = lab.analysis.usage_of(|c| c.is_dga);
    let dga_chains = lab.analysis.chains.iter().filter(|c| c.is_dga).count();

    let mut table = Table::new(
        "Table 8: Non-public-DB-only and interception chains (> 1 cert)",
        &["", "Non-public-DB-only", "TLS int."],
    );
    table.row(&[
        "Is a matched path (%)".into(),
        pct(np.is_path / np.multi.max(1.0)),
        pct(ic.is_path / ic.multi.max(1.0)),
    ]);
    table.row(&[
        "Contains a matched path (#)".into(),
        num(np.contains as f64, 0),
        num(ic.contains as f64, 0),
    ]);
    table.row(&[
        "No matched path (#)".into(),
        num(np.no_path as f64, 0),
        num(ic.no_path as f64, 0),
    ]);
    table.row(&[
        "Single-cert share".into(),
        pct(np.single / (np.single + np.multi)),
        pct(ic.single / (ic.single + ic.multi)),
    ]);
    table.row(&[
        "Self-signed share of singles".into(),
        pct(np.single_self_signed / np.single.max(1.0)),
        pct(ic.single_self_signed / ic.single.max(1.0)),
    ]);
    table.row(&[
        "DGA cluster: chains/conns/IPs".into(),
        format!(
            "{dga_chains} / {} / {}",
            num(dga.connections.to_f64(), 0),
            num(dga.client_ips.len() as f64, 0)
        ),
        String::new(),
    ]);

    let t = &lab.trace.targets;
    let mut comparison = ComparisonTable::new();
    comparison
        .add(
            "non-pub: is matched path",
            t.nonpub_multi_matched_share,
            np.is_path / np.multi.max(1.0),
            0.01,
        )
        .add(
            "interception: is matched path",
            t.interception_multi_matched_share,
            ic.is_path / ic.multi.max(1.0),
            0.06,
        )
        .add(
            "non-pub contains",
            t.nonpub_multi_contains as f64,
            np.contains as f64,
            0.02,
        )
        .add(
            "non-pub no path",
            t.nonpub_multi_no_path as f64,
            np.no_path as f64,
            0.05,
        )
        .add(
            "interception contains",
            t.interception_multi_contains as f64,
            ic.contains as f64,
            0.02,
        )
        .add(
            "interception no path",
            t.interception_multi_no_path as f64,
            ic.no_path as f64,
            0.05,
        )
        .add(
            "non-pub single share",
            t.nonpub_single_share,
            np.single / (np.single + np.multi),
            0.02,
        )
        .add(
            "non-pub self-signed singles",
            t.nonpub_single_selfsigned_share,
            np.single_self_signed / np.single.max(1.0),
            0.01,
        )
        .add(
            "interception single share",
            t.interception_single_share,
            ic.single / (ic.single + ic.multi),
            0.06,
        )
        .add(
            "DGA connections",
            t.dga_connections as f64,
            dga.connections.to_f64(),
            0.01,
        )
        .add(
            "DGA client IPs",
            t.dga_client_ips as f64,
            dga.client_ips.len() as f64,
            0.02,
        );

    ExperimentOutput {
        id: "table8",
        rendered: table.render(),
        comparison,
    }
}
