//! The report's roll-up of an [`Analysis`], and its serializable form —
//! the machine-readable output surface (`certchain analyze --json`).
//!
//! A [`ReportRollup`] holds what the text tables and the JSON summary
//! read: per category, the chain count, the usage sums and the distinct
//! client addresses, and the counts of what pass 2 decided per chain.
//! Batch analyses build it from their [`Analysis`]
//! ([`ReportRollup::from_analysis`]); `serve`'s publisher
//! ([`crate::pipeline::publish::Publisher`]) keeps one current, chain by
//! chain, with the same [`ReportRollup::tally`]. Every count is an
//! integer, every sum a sum of [`Weight`] units and every address set a
//! sorted set, so the order chains enter in never shows.

use crate::hybrid::{HybridCategory, NoPathCategory};
use crate::matchpath::{path_verdict_leaf_agnostic, PathVerdict};
use crate::pipeline::{Analysis, ChainAnalysis, ChainCategoryLabel};
use crate::usage::{gather, Sums, UsageStats, Weight};
use certchain_obs::json::{self, JsonError, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Usage numbers for one group of chains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSummary {
    /// Distinct chains.
    pub chains: u64,
    /// (Weighted) connections.
    pub connections: f64,
    /// Establishment rate.
    pub established_rate: f64,
    /// Share of connections without SNI.
    pub no_sni_rate: f64,
    /// Distinct client addresses observed.
    pub client_ips: u64,
}

/// Path statistics for multi-certificate chains of one category
/// (the Table 8 shape).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathSummary {
    /// Multi-certificate chains that are one matched path.
    pub is_matched: u64,
    /// Chains containing a matched path plus extras.
    pub contains_matched: u64,
    /// Chains with no matching pair at all.
    pub no_match: u64,
    /// Single-certificate chains.
    pub single: u64,
    /// Self-signed single-certificate chains.
    pub single_self_signed: u64,
}

/// The complete machine-readable summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisSummary {
    /// Per-category usage (`public`, `non_public`, `hybrid`,
    /// `interception`).
    pub categories: BTreeMap<String, GroupSummary>,
    /// Hybrid taxonomy counts keyed by Table 3/7 row names.
    pub hybrid_taxonomy: BTreeMap<String, u64>,
    /// §4.2's public-leaf-without-intermediate subgroup size.
    pub pub_leaf_no_intermediate: u64,
    /// Path statistics for non-public-only chains.
    pub non_public_paths: PathSummary,
    /// Path statistics for interception chains.
    pub interception_paths: PathSummary,
    /// Identified interception entities.
    pub interception_entities: Vec<String>,
    /// DGA-cluster chain count.
    pub dga_chains: u64,
    /// CT-logged / total anchored non-public leaves.
    pub ct_logged: (u64, u64),
    /// Records skipped because they carried no chain (TLS 1.3).
    pub no_chain_records: u64,
    /// Records with unresolvable fingerprints.
    pub unresolvable_records: u64,
}

/// The §3.2.2 categories, in report order.
pub const CATEGORIES: [ChainCategoryLabel; 4] = [
    ChainCategoryLabel::PublicOnly,
    ChainCategoryLabel::NonPublicOnly,
    ChainCategoryLabel::Hybrid,
    ChainCategoryLabel::Interception,
];

/// A category's place in [`CATEGORIES`].
pub(crate) fn category_slot(cat: ChainCategoryLabel) -> usize {
    match cat {
        ChainCategoryLabel::PublicOnly => 0,
        ChainCategoryLabel::NonPublicOnly => 1,
        ChainCategoryLabel::Hybrid => 2,
        ChainCategoryLabel::Interception => 3,
    }
}

/// The hybrid taxonomy's rows (Tables 3 and 7), in summary order.
const HYBRID_KINDS: [HybridCategory; 9] = [
    HybridCategory::CompleteNonPubToPub,
    HybridCategory::CompletePubToPrv,
    HybridCategory::ContainsPath,
    HybridCategory::NoPath(NoPathCategory::SelfSignedLeafMismatches),
    HybridCategory::NoPath(NoPathCategory::SelfSignedLeafValidSubchain),
    HybridCategory::NoPath(NoPathCategory::AllMismatched),
    HybridCategory::NoPath(NoPathCategory::PartialMismatched),
    HybridCategory::NoPath(NoPathCategory::RootAppendedToValidSubchain),
    HybridCategory::NoPath(NoPathCategory::RootAndMismatches),
];

/// A hybrid row's place in [`HYBRID_KINDS`].
fn hybrid_slot(cat: HybridCategory) -> usize {
    match cat {
        HybridCategory::CompleteNonPubToPub => 0,
        HybridCategory::CompletePubToPrv => 1,
        HybridCategory::ContainsPath => 2,
        HybridCategory::NoPath(NoPathCategory::SelfSignedLeafMismatches) => 3,
        HybridCategory::NoPath(NoPathCategory::SelfSignedLeafValidSubchain) => 4,
        HybridCategory::NoPath(NoPathCategory::AllMismatched) => 5,
        HybridCategory::NoPath(NoPathCategory::PartialMismatched) => 6,
        HybridCategory::NoPath(NoPathCategory::RootAppendedToValidSubchain) => 7,
        HybridCategory::NoPath(NoPathCategory::RootAndMismatches) => 8,
    }
}

/// How a chain counts in the Table 8 path statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PathClass {
    /// A single-certificate chain.
    Single {
        /// Whether its certificate is self-signed.
        self_signed: bool,
    },
    /// A multi-certificate chain, by its leaf-agnostic verdict.
    Chain(PathVerdict),
}

/// What the roll-up counts of one chain: everything pass 2 decides about
/// it, nothing of its usage. It changes only when pass 2 runs again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    pub(crate) category: ChainCategoryLabel,
    hybrid: Option<HybridCategory>,
    path: PathClass,
    pub_leaf_no_intermediate: bool,
    is_dga: bool,
    leaf_ct_logged: Option<bool>,
}

impl Verdict {
    /// The verdict of an analyzed chain.
    pub(crate) fn of(chain: &ChainAnalysis) -> Verdict {
        let path = if chain.key.len() == 1 {
            PathClass::Single {
                self_signed: chain.certs[0].is_self_signed(),
            }
        } else {
            PathClass::Chain(path_verdict_leaf_agnostic(&chain.path))
        };
        Verdict {
            category: chain.category,
            hybrid: chain.hybrid_category,
            path,
            pub_leaf_no_intermediate: chain.pub_leaf_no_intermediate,
            is_dga: chain.is_dga,
            leaf_ct_logged: chain.leaf_ct_logged,
        }
    }
}

/// One category's aggregate in a [`ReportRollup`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoryRollup {
    /// Distinct chains.
    pub chains: u64,
    /// The usage sums of those chains.
    pub(crate) sums: Sums,
    /// Their distinct client addresses, sorted; `None` in a roll-up
    /// built for the tables alone, which show no address count.
    pub client_ips: Option<Vec<Ipv4Addr>>,
}

impl CategoryRollup {
    /// The sums as usage statistics without ports or addresses.
    fn usage(&self) -> UsageStats {
        UsageStats {
            connections: self.sums.connections,
            established: self.sums.established,
            with_sni: self.sums.with_sni,
            ..UsageStats::default()
        }
    }

    /// (Weighted) connections.
    pub fn connections(&self) -> Weight {
        self.sums.connections
    }

    /// Establishment rate.
    pub fn established_rate(&self) -> f64 {
        self.usage().established_rate()
    }

    /// Share of connections without SNI.
    pub fn no_sni_rate(&self) -> f64 {
        self.usage().no_sni_rate()
    }
}

/// What the text report and the JSON summary render from (see the
/// module doc).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportRollup {
    categories: [CategoryRollup; 4],
    hybrid: [u64; 9],
    pub_leaf_no_intermediate: u64,
    non_public_paths: PathSummary,
    interception_paths: PathSummary,
    /// DGA-cluster chain count.
    pub dga_chains: u64,
    ct_logged: (u64, u64),
    /// The confirmed interception entities.
    pub interception_entities: BTreeSet<String>,
    /// Records skipped because they carried no chain (TLS 1.3).
    pub no_chain_records: u64,
    /// Records with unresolvable fingerprints.
    pub unresolvable_records: u64,
}

/// Count one up, or back down.
///
/// # Panics
///
/// When counting down from 0: the count never held what it gives back.
fn step(n: &mut u64, up: bool) {
    *n = if up {
        *n + 1
    } else {
        n.checked_sub(1).expect("a count taken back it never held")
    };
}

impl ReportRollup {
    /// Roll up an analysis. `client_ips` asks for each category's
    /// distinct client addresses, which the JSON summary counts and the
    /// text tables do not show: gathering them sorts every (chain,
    /// address) pair once.
    pub fn from_analysis(analysis: &Analysis, client_ips: bool) -> ReportRollup {
        let mut rollup = ReportRollup {
            interception_entities: analysis.interception_entities.clone(),
            no_chain_records: analysis.no_chain_records,
            unresolvable_records: analysis.unresolvable_records,
            ..ReportRollup::default()
        };
        for chain in &analysis.chains {
            let verdict = Verdict::of(chain);
            rollup.tally(&verdict, true);
            rollup
                .category_mut(verdict.category)
                .sums
                .add(&Sums::of(&chain.usage));
        }
        if client_ips {
            for cat in CATEGORIES {
                let ips = analysis
                    .chains_in(cat)
                    .flat_map(|c| c.usage.client_ips.iter().copied())
                    .collect();
                rollup.category_mut(cat).client_ips = Some(gather(ips));
            }
        }
        rollup
    }

    /// One category's aggregate.
    pub fn category(&self, cat: ChainCategoryLabel) -> &CategoryRollup {
        &self.categories[category_slot(cat)]
    }

    pub(crate) fn category_mut(&mut self, cat: ChainCategoryLabel) -> &mut CategoryRollup {
        &mut self.categories[category_slot(cat)]
    }

    /// Hybrid chains of one taxonomy row.
    pub fn hybrid(&self, cat: HybridCategory) -> u64 {
        self.hybrid[hybrid_slot(cat)]
    }

    /// Hybrid chains with no complete matched path, over every
    /// [`NoPathCategory`].
    pub fn hybrid_no_path(&self) -> u64 {
        HYBRID_KINDS
            .iter()
            .filter(|h| matches!(h, HybridCategory::NoPath(_)))
            .map(|&h| self.hybrid(h))
            .sum()
    }

    /// Count a chain's verdict in (`up`) or back out: its category's
    /// chain count and every count the verdict feeds. Usage sums and
    /// addresses are the caller's to move.
    pub(crate) fn tally(&mut self, v: &Verdict, up: bool) {
        step(&mut self.category_mut(v.category).chains, up);
        if let Some(h) = v.hybrid {
            step(&mut self.hybrid[hybrid_slot(h)], up);
        }
        if v.pub_leaf_no_intermediate {
            step(&mut self.pub_leaf_no_intermediate, up);
        }
        if v.is_dga {
            step(&mut self.dga_chains, up);
        }
        if let Some(logged) = v.leaf_ct_logged {
            step(&mut self.ct_logged.1, up);
            if logged {
                step(&mut self.ct_logged.0, up);
            }
        }
        let paths = match v.category {
            ChainCategoryLabel::NonPublicOnly => &mut self.non_public_paths,
            ChainCategoryLabel::Interception => &mut self.interception_paths,
            _ => return,
        };
        match v.path {
            PathClass::Single { self_signed } => {
                step(&mut paths.single, up);
                if self_signed {
                    step(&mut paths.single_self_signed, up);
                }
            }
            PathClass::Chain(PathVerdict::IsComplete) => step(&mut paths.is_matched, up),
            PathClass::Chain(PathVerdict::ContainsComplete) => {
                step(&mut paths.contains_matched, up)
            }
            PathClass::Chain(PathVerdict::NoComplete) => step(&mut paths.no_match, up),
        }
    }
}

fn category_key(cat: ChainCategoryLabel) -> &'static str {
    match cat {
        ChainCategoryLabel::PublicOnly => "public",
        ChainCategoryLabel::NonPublicOnly => "non_public",
        ChainCategoryLabel::Hybrid => "hybrid",
        ChainCategoryLabel::Interception => "interception",
    }
}

fn hybrid_key(cat: HybridCategory) -> &'static str {
    match cat {
        HybridCategory::CompleteNonPubToPub => "complete_nonpub_to_pub",
        HybridCategory::CompletePubToPrv => "complete_pub_to_prv",
        HybridCategory::ContainsPath => "contains_path",
        HybridCategory::NoPath(NoPathCategory::SelfSignedLeafMismatches) => {
            "no_path_selfsigned_leaf_mismatches"
        }
        HybridCategory::NoPath(NoPathCategory::SelfSignedLeafValidSubchain) => {
            "no_path_selfsigned_leaf_valid_subchain"
        }
        HybridCategory::NoPath(NoPathCategory::AllMismatched) => "no_path_all_mismatched",
        HybridCategory::NoPath(NoPathCategory::PartialMismatched) => "no_path_partial_mismatched",
        HybridCategory::NoPath(NoPathCategory::RootAppendedToValidSubchain) => {
            "no_path_root_appended"
        }
        HybridCategory::NoPath(NoPathCategory::RootAndMismatches) => "no_path_root_and_mismatches",
    }
}

impl AnalysisSummary {
    /// Roll up an analysis.
    pub fn from_analysis(analysis: &Analysis) -> AnalysisSummary {
        AnalysisSummary::from_rollup(&ReportRollup::from_analysis(analysis, true))
    }

    /// The summary of a roll-up. A roll-up built without client
    /// addresses counts none.
    pub fn from_rollup(rollup: &ReportRollup) -> AnalysisSummary {
        let categories = CATEGORIES
            .iter()
            .map(|&cat| {
                let group = rollup.category(cat);
                let summary = GroupSummary {
                    chains: group.chains,
                    connections: group.connections().to_f64(),
                    established_rate: group.established_rate(),
                    no_sni_rate: group.no_sni_rate(),
                    client_ips: group.client_ips.as_ref().map_or(0, |ips| ips.len() as u64),
                };
                (category_key(cat).to_string(), summary)
            })
            .collect();
        let hybrid_taxonomy = HYBRID_KINDS
            .iter()
            .map(|&h| (hybrid_key(h).to_string(), rollup.hybrid(h)))
            .filter(|&(_, n)| n > 0)
            .collect();
        AnalysisSummary {
            categories,
            hybrid_taxonomy,
            pub_leaf_no_intermediate: rollup.pub_leaf_no_intermediate,
            non_public_paths: rollup.non_public_paths.clone(),
            interception_paths: rollup.interception_paths.clone(),
            interception_entities: rollup.interception_entities.iter().cloned().collect(),
            dga_chains: rollup.dga_chains,
            ct_logged: rollup.ct_logged,
            no_chain_records: rollup.no_chain_records,
            unresolvable_records: rollup.unresolvable_records,
        }
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parse back from JSON.
    pub fn from_json(text: &str) -> Result<AnalysisSummary, JsonError> {
        AnalysisSummary::from_value(&json::parse(text)?)
    }

    fn to_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            (
                "categories".into(),
                JsonValue::Obj(
                    self.categories
                        .iter()
                        .map(|(k, g)| (k.clone(), g.to_value()))
                        .collect(),
                ),
            ),
            (
                "hybrid_taxonomy".into(),
                JsonValue::Obj(
                    self.hybrid_taxonomy
                        .iter()
                        .map(|(k, &n)| (k.clone(), JsonValue::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "pub_leaf_no_intermediate".into(),
                JsonValue::Num(self.pub_leaf_no_intermediate as f64),
            ),
            ("non_public_paths".into(), self.non_public_paths.to_value()),
            (
                "interception_paths".into(),
                self.interception_paths.to_value(),
            ),
            (
                "interception_entities".into(),
                JsonValue::Arr(
                    self.interception_entities
                        .iter()
                        .map(|e| JsonValue::Str(e.clone()))
                        .collect(),
                ),
            ),
            ("dga_chains".into(), JsonValue::Num(self.dga_chains as f64)),
            (
                "ct_logged".into(),
                JsonValue::Arr(vec![
                    JsonValue::Num(self.ct_logged.0 as f64),
                    JsonValue::Num(self.ct_logged.1 as f64),
                ]),
            ),
            (
                "no_chain_records".into(),
                JsonValue::Num(self.no_chain_records as f64),
            ),
            (
                "unresolvable_records".into(),
                JsonValue::Num(self.unresolvable_records as f64),
            ),
        ])
    }

    fn from_value(v: &JsonValue) -> Result<AnalysisSummary, JsonError> {
        let ct = req(v, "ct_logged")?
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| shape("`ct_logged` must be a two-element array"))?;
        Ok(AnalysisSummary {
            categories: req(v, "categories")?
                .as_obj()
                .ok_or_else(|| shape("`categories` must be an object"))?
                .iter()
                .map(|(k, g)| Ok((k.clone(), GroupSummary::from_value(g)?)))
                .collect::<Result<_, JsonError>>()?,
            hybrid_taxonomy: req(v, "hybrid_taxonomy")?
                .as_obj()
                .ok_or_else(|| shape("`hybrid_taxonomy` must be an object"))?
                .iter()
                .map(|(k, n)| Ok((k.clone(), as_count(n, k)?)))
                .collect::<Result<_, JsonError>>()?,
            pub_leaf_no_intermediate: count_field(v, "pub_leaf_no_intermediate")?,
            non_public_paths: PathSummary::from_value(req(v, "non_public_paths")?)?,
            interception_paths: PathSummary::from_value(req(v, "interception_paths")?)?,
            interception_entities: req(v, "interception_entities")?
                .as_arr()
                .ok_or_else(|| shape("`interception_entities` must be an array"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(String::from)
                        .ok_or_else(|| shape("entity must be a string"))
                })
                .collect::<Result<_, JsonError>>()?,
            dga_chains: count_field(v, "dga_chains")?,
            ct_logged: (
                as_count(&ct[0], "ct_logged")?,
                as_count(&ct[1], "ct_logged")?,
            ),
            no_chain_records: count_field(v, "no_chain_records")?,
            unresolvable_records: count_field(v, "unresolvable_records")?,
        })
    }
}

impl GroupSummary {
    fn to_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("chains".into(), JsonValue::Num(self.chains as f64)),
            ("connections".into(), JsonValue::Num(self.connections)),
            (
                "established_rate".into(),
                JsonValue::Num(self.established_rate),
            ),
            ("no_sni_rate".into(), JsonValue::Num(self.no_sni_rate)),
            ("client_ips".into(), JsonValue::Num(self.client_ips as f64)),
        ])
    }

    fn from_value(v: &JsonValue) -> Result<GroupSummary, JsonError> {
        Ok(GroupSummary {
            chains: count_field(v, "chains")?,
            connections: num_field(v, "connections")?,
            established_rate: num_field(v, "established_rate")?,
            no_sni_rate: num_field(v, "no_sni_rate")?,
            client_ips: count_field(v, "client_ips")?,
        })
    }
}

impl PathSummary {
    fn to_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("is_matched".into(), JsonValue::Num(self.is_matched as f64)),
            (
                "contains_matched".into(),
                JsonValue::Num(self.contains_matched as f64),
            ),
            ("no_match".into(), JsonValue::Num(self.no_match as f64)),
            ("single".into(), JsonValue::Num(self.single as f64)),
            (
                "single_self_signed".into(),
                JsonValue::Num(self.single_self_signed as f64),
            ),
        ])
    }

    fn from_value(v: &JsonValue) -> Result<PathSummary, JsonError> {
        Ok(PathSummary {
            is_matched: count_field(v, "is_matched")?,
            contains_matched: count_field(v, "contains_matched")?,
            no_match: count_field(v, "no_match")?,
            single: count_field(v, "single")?,
            single_self_signed: count_field(v, "single_self_signed")?,
        })
    }
}

/// Structural (non-syntax) decode error; offset 0 because the value tree
/// no longer tracks source positions.
fn shape(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

fn req<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, JsonError> {
    v.get(key)
        .ok_or_else(|| shape(format!("missing field `{key}`")))
}

fn as_count(v: &JsonValue, key: &str) -> Result<u64, JsonError> {
    v.as_u64()
        .ok_or_else(|| shape(format!("`{key}` must be a non-negative integer")))
}

fn count_field(v: &JsonValue, key: &str) -> Result<u64, JsonError> {
    as_count(req(v, key)?, key)
}

fn num_field(v: &JsonValue, key: &str) -> Result<f64, JsonError> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| shape(format!("`{key}` must be a number")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossSignRegistry;
    use certchain_workload::{CampusProfile, CampusTrace};

    #[test]
    fn summary_round_trips_and_matches_tables() {
        let trace = CampusTrace::generate(CampusProfile::quick());
        let pipeline = crate::Pipeline::new(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
        );
        let analysis = pipeline.analyze(&trace.ssl_records, &trace.x509_records, None);
        let summary = AnalysisSummary::from_analysis(&analysis);

        assert_eq!(summary.categories["hybrid"].chains, 321);
        assert_eq!(summary.pub_leaf_no_intermediate, 56);
        assert_eq!(summary.dga_chains, 30);
        assert_eq!(summary.ct_logged, (26, 26));
        assert_eq!(
            summary.hybrid_taxonomy["no_path_all_mismatched"], 61,
            "Table 7 row 3 via the JSON surface"
        );
        assert_eq!(summary.interception_entities.len(), 80);

        // Round trip: floats may shift by an ULP through the textual
        // form, so compare counts exactly and rates with a tolerance.
        let json = summary.to_json();
        let parsed = AnalysisSummary::from_json(&json).unwrap();
        assert_eq!(parsed.hybrid_taxonomy, summary.hybrid_taxonomy);
        assert_eq!(parsed.interception_entities, summary.interception_entities);
        assert_eq!(parsed.non_public_paths, summary.non_public_paths);
        assert_eq!(parsed.interception_paths, summary.interception_paths);
        for (key, group) in &summary.categories {
            let p = &parsed.categories[key];
            assert_eq!(p.chains, group.chains);
            assert_eq!(p.client_ips, group.client_ips);
            assert!((p.established_rate - group.established_rate).abs() < 1e-9);
            assert!((p.no_sni_rate - group.no_sni_rate).abs() < 1e-9);
        }
    }
}
