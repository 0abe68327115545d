//! Stages 3 and 4 — resolve and categorize: resolve every folded chain
//! against the certificate table and classify its certificates, discover
//! interception entities (pass 1), and run the per-chain categorization +
//! structure analysis body (pass 2).

use super::enrich::CertTable;
use super::ingest::SharedAccum;
use super::{concat, par_map, ChainAnalysis, ChainCategoryLabel, Pipeline};
use crate::classify::{classify, CertClass};
use crate::crosssign::CrossSignRegistry;
use crate::dga::is_dga_chain;
use crate::hybrid::{self, HybridCategory};
use crate::interception::{detect, InterceptionVerdict};
use crate::matchpath;
use crate::model::{CertRecord, ChainKey};
use crate::usage::UsageStats;
use certchain_x509::DistinguishedName;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A chain with resolved certificates and classes, before pass 2.
pub(crate) struct Prepared {
    pub(crate) key: ChainKey,
    pub(crate) certs: Vec<Arc<CertRecord>>,
    pub(crate) classes: Vec<CertClass>,
    pub(crate) snis: Arc<[Arc<str>]>,
    pub(crate) usage: Arc<UsageStats>,
}

/// Entity key for an issuer DN: the organization when present, otherwise
/// the common name, otherwise the whole DN string. This is the unit at
/// which the paper's manual investigation grouped interception issuers.
pub fn issuer_entity(dn: &DistinguishedName) -> String {
    dn.get(&certchain_x509::dn::AttrType::Organization)
        .or_else(|| dn.common_name())
        .map(str::to_string)
        .unwrap_or_else(|| dn.to_rfc4514())
}

/// A chain's certificates from the table, `None` while the table lacks
/// one of its fingerprints. Certificates never change, so a chain this
/// resolves stays resolved.
pub(crate) fn certs_of(table: &CertTable, key: &ChainKey) -> Option<Vec<Arc<CertRecord>>> {
    key.0.iter().map(|fp| table.get(fp).cloned()).collect()
}

/// Resolve one chain and classify its certificates; the entry comes back
/// as `Err` while the table lacks one of its fingerprints.
pub(crate) fn resolve_one(
    pipe: &Pipeline<'_>,
    table: &CertTable,
    (key, accum): (ChainKey, SharedAccum),
) -> Result<Prepared, (ChainKey, SharedAccum)> {
    let Some(certs) = certs_of(table, &key) else {
        return Err((key, accum));
    };
    let classes: Vec<CertClass> = certs.iter().map(|c| classify(c, pipe.trust)).collect();
    Ok(Prepared {
        key,
        certs,
        classes,
        snis: accum.snis,
        usage: accum.usage,
    })
}

/// Resolve each chain's fingerprints against the certificate table and
/// classify its certificates, on `threads` workers over arbitrary
/// (unsorted) runs — safe because per-chain work is pure and the caller
/// sorts. The chains the table cannot resolve come back beside the
/// resolved ones, for the caller to tally their records as unresolvable
/// (an integer sum, thread-count invariant). Every path hands its chains
/// over as `(key, accumulators)` pairs whose accumulators a resolved
/// chain keeps as they are: shared with the [`super::PipelineState`] a
/// finalize reads, never copied.
pub(crate) fn resolve(
    pipe: &Pipeline<'_>,
    table: &CertTable,
    entries: Vec<(ChainKey, SharedAccum)>,
    threads: usize,
) -> (Vec<Prepared>, Vec<(ChainKey, SharedAccum)>) {
    let parts = par_map(entries, threads, |part| {
        let mut prepared = Vec::with_capacity(part.len());
        let mut unresolved = Vec::new();
        for entry in part {
            match resolve_one(pipe, table, entry) {
                Ok(p) => prepared.push(p),
                Err(entry) => unresolved.push(entry),
            }
        }
        (prepared, unresolved)
    });
    let (runs, unresolved): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    (concat(runs), concat(unresolved))
}

/// Pass-1 kernel over one chain: the SNIs among `snis` on which the
/// chain was likely intercepted, with the candidate entity they count
/// for, its leaf's issuer; `None` when there are none.
pub(crate) fn forged<'s>(
    pipe: &Pipeline<'_>,
    certs: &[Arc<CertRecord>],
    snis: impl IntoIterator<Item = &'s Arc<str>>,
) -> Option<(String, Vec<&'s Arc<str>>)> {
    let hits: Vec<&Arc<str>> = snis
        .into_iter()
        .filter(|sni| {
            detect(certs, Some(sni), pipe.trust, pipe.ct) == InterceptionVerdict::LikelyIntercepted
        })
        .collect();
    (!hits.is_empty()).then(|| (issuer_entity(&certs[0].issuer), hits))
}

/// Pass-1 kernel: candidate entity → forged-domain set over `part`.
fn scan_entities<'p>(
    pipe: &Pipeline<'_>,
    part: &[&'p Prepared],
) -> HashMap<String, BTreeSet<&'p str>> {
    let mut candidates: HashMap<String, BTreeSet<&'p str>> = HashMap::new();
    for p in part {
        if let Some((entity, hits)) = forged(pipe, &p.certs, p.snis.iter()) {
            candidates
                .entry(entity)
                .or_default()
                .extend(hits.into_iter().map(|sni| &**sni));
        }
    }
    candidates
}

/// Pass 1 over the sorted chains: confirmed interception entities.
pub(crate) fn find_entities(
    pipe: &Pipeline<'_>,
    prepared: &[Prepared],
    threads: usize,
) -> BTreeSet<String> {
    let maps = par_map(prepared.iter().collect(), threads, |part| {
        scan_entities(pipe, &part)
    });
    // Entity → domain-set union is order-insensitive.
    let mut candidate_domains: HashMap<String, BTreeSet<&str>> = HashMap::new();
    for map in maps {
        for (entity, domains) in map {
            candidate_domains.entry(entity).or_default().extend(domains);
        }
    }
    candidate_domains
        .into_iter()
        .filter_map(|(entity, domains)| {
            (domains.len() >= pipe.options.confirmation_min_domains).then_some(entity)
        })
        .collect()
}

/// The per-chain body of pass 2.
pub(crate) fn analyze_one(
    pipe: &Pipeline<'_>,
    p: Prepared,
    entities: &BTreeSet<String>,
    registry: &CrossSignRegistry,
) -> ChainAnalysis {
    let any_public = p.classes.contains(&CertClass::PublicDbIssued);
    let all_public = p.classes.iter().all(|&c| c == CertClass::PublicDbIssued);
    let entity_hit = p
        .certs
        .iter()
        .map(|c| issuer_entity(&c.issuer))
        .find(|e| entities.contains(e));
    let category = if entity_hit.is_some() {
        ChainCategoryLabel::Interception
    } else if all_public {
        ChainCategoryLabel::PublicOnly
    } else if any_public {
        ChainCategoryLabel::Hybrid
    } else {
        ChainCategoryLabel::NonPublicOnly
    };
    let path = matchpath::analyze(&p.certs, registry);
    let hybrid_category = (category == ChainCategoryLabel::Hybrid)
        .then(|| hybrid::categorize(&p.certs, &p.classes, &path));
    let pub_leaf_no_intermediate = category == ChainCategoryLabel::Hybrid
        && matches!(hybrid_category, Some(HybridCategory::NoPath(_)))
        && hybrid::has_public_leaf_without_intermediate(&p.certs, &p.classes);
    let leaf_ct_logged = match hybrid_category {
        Some(HybridCategory::CompleteNonPubToPub) => {
            Some(pipe.ct.contains_fingerprint(&p.certs[0].fingerprint))
        }
        _ => None,
    };
    let is_dga = category == ChainCategoryLabel::NonPublicOnly && is_dga_chain(&p.certs);
    ChainAnalysis {
        key: p.key,
        certs: p.certs,
        classes: p.classes,
        category,
        path,
        hybrid_category,
        pub_leaf_no_intermediate,
        is_dga,
        leaf_ct_logged,
        interception_entity: entity_hit,
        snis: p.snis,
        usage: p.usage,
    }
}
