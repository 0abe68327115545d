//! Hybrid-chain structure taxonomy (§4.2, Tables 3/6/7, Figures 4/6).

use crate::classify::CertClass;
use crate::matchpath::{PathReport, PathVerdict};
use crate::model::CertRecord;
use std::borrow::Borrow;

/// Table 3 top-level categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HybridCategory {
    /// Chain is a complete matched path; the leaf is non-public-issued and
    /// the path anchors to a public issuer ("Non-pub chained to Pub").
    CompleteNonPubToPub,
    /// Chain is a complete matched path; a public prefix is continued by a
    /// private certificate ("Pub chained to Prv").
    CompletePubToPrv,
    /// Chain contains a complete matched path plus unnecessary certs.
    ContainsPath,
    /// No complete matched path (see [`NoPathCategory`]).
    NoPath(NoPathCategory),
}

/// Table 7 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoPathCategory {
    /// Non-public self-signed leaf followed by mismatched pairs.
    SelfSignedLeafMismatches,
    /// Non-public self-signed leaf followed by a valid sub-chain.
    SelfSignedLeafValidSubchain,
    /// Every issuer–subject pair mismatched.
    AllMismatched,
    /// Some pairs match, no complete path.
    PartialMismatched,
    /// Non-public root appended to a valid public-issued sub-chain.
    RootAppendedToValidSubchain,
    /// Non-public root present plus mismatched pairs.
    RootAndMismatches,
}

/// Categorize a hybrid chain given its per-cert classes and path report.
pub fn categorize<C: Borrow<CertRecord>>(
    chain: &[C],
    classes: &[CertClass],
    report: &PathReport,
) -> HybridCategory {
    debug_assert_eq!(chain.len(), classes.len());
    match report.verdict {
        PathVerdict::IsComplete => {
            // Leaf class decides the Table 3 sub-row.
            if classes[0] == CertClass::NonPublicDbIssued {
                HybridCategory::CompleteNonPubToPub
            } else {
                HybridCategory::CompletePubToPrv
            }
        }
        PathVerdict::ContainsComplete => HybridCategory::ContainsPath,
        PathVerdict::NoComplete => HybridCategory::NoPath(no_path_category(chain, classes, report)),
    }
}

fn no_path_category<C: Borrow<CertRecord>>(
    chain: &[C],
    classes: &[CertClass],
    report: &PathReport,
) -> NoPathCategory {
    let leaf_self_signed =
        chain[0].borrow().is_self_signed() && classes[0] == CertClass::NonPublicDbIssued;
    if leaf_self_signed {
        // Valid sub-chain: everything after the leaf forms one matched run.
        let rest_fully_matched =
            report.pair_matches.len() >= 2 && report.pair_matches[1..].iter().all(|&m| m);
        return if rest_fully_matched {
            NoPathCategory::SelfSignedLeafValidSubchain
        } else {
            NoPathCategory::SelfSignedLeafMismatches
        };
    }
    // A non-public *root* here means a self-signed non-public certificate
    // somewhere past the leaf position.
    let non_pub_root_at = chain
        .iter()
        .enumerate()
        .skip(1)
        .find(|(i, c)| {
            let cert: &CertRecord = (*c).borrow();
            cert.is_self_signed() && classes[*i] == CertClass::NonPublicDbIssued
        })
        .map(|(i, _)| i);
    if let Some(root_idx) = non_pub_root_at {
        // "Appended to a valid sub-chain": the root sits at the end, the
        // certificates between the leaf and the root form one matched
        // sequence (the leaf's own pair is broken — otherwise the chain
        // would contain a complete path), and that sub-chain involves a
        // public-DB issuer.
        let sub_chain_ok = root_idx >= 2 && report.pair_matches[1..root_idx - 1].iter().all(|&m| m);
        let prefix_has_public = classes[..root_idx].contains(&CertClass::PublicDbIssued);
        if root_idx == chain.len() - 1 && sub_chain_ok && prefix_has_public {
            return NoPathCategory::RootAppendedToValidSubchain;
        }
        return NoPathCategory::RootAndMismatches;
    }
    if report.mismatch_positions.len() == report.pair_matches.len() {
        NoPathCategory::AllMismatched
    } else {
        NoPathCategory::PartialMismatched
    }
}

/// §4.2's 56-chain subgroup: the chain includes a public-DB-issued leaf
/// but no certificate that issues it.
pub fn has_public_leaf_without_intermediate<C: Borrow<CertRecord>>(
    chain: &[C],
    classes: &[CertClass],
) -> bool {
    if chain.is_empty() || classes[0] != CertClass::PublicDbIssued {
        return false;
    }
    let leaf = chain[0].borrow();
    if leaf.is_self_signed() || !leaf.is_leaf_candidate() {
        return false;
    }
    !chain[1..].iter().any(|c| c.borrow().subject == leaf.issuer)
}

/// One cell of the Figure 4 structure matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig4Cell {
    /// Certificate belongs to the complete matched path; class of the cert.
    Complete(CertClass),
    /// Certificate belongs to a partial matched run.
    Partial(CertClass),
    /// Certificate matched nothing (single).
    Single(CertClass),
}

/// Figure 4: per-position cell classification for one chain.
pub fn structure_matrix_column<C: Borrow<CertRecord>>(
    chain: &[C],
    classes: &[CertClass],
    report: &PathReport,
) -> Vec<Fig4Cell> {
    let mut roles: Vec<Option<bool /* complete? */>> = vec![None; chain.len()];
    let mut complete_seen = false;
    for run in &report.runs {
        let complete = run.starts_at_leaf && !complete_seen;
        if complete {
            complete_seen = true;
        }
        for slot in roles.iter_mut().take(run.end + 1).skip(run.start) {
            *slot = Some(complete);
        }
    }
    roles
        .iter()
        .zip(classes)
        .map(|(role, &class)| match role {
            Some(true) => Fig4Cell::Complete(class),
            Some(false) => Fig4Cell::Partial(class),
            None => Fig4Cell::Single(class),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosssign::CrossSignRegistry;
    use crate::matchpath::analyze;
    use certchain_asn1::Asn1Time;
    use certchain_x509::{DistinguishedName, Fingerprint, Validity};

    fn cert(n: u8, issuer: &str, subject: &str, ca: Option<bool>) -> CertRecord {
        CertRecord {
            fingerprint: Fingerprint([n; 32]),
            issuer: DistinguishedName::cn(issuer).into(),
            subject: DistinguishedName::cn(subject).into(),
            validity: Validity::days_from(Asn1Time::from_unix(0), 10),
            bc_ca: ca,
            san_dns: vec![],
        }
    }

    use CertClass::{NonPublicDbIssued as NP, PublicDbIssued as P};

    fn cat(chain: &[CertRecord], classes: &[CertClass]) -> HybridCategory {
        let report = analyze(chain, &CrossSignRegistry::new());
        categorize(chain, classes, &report)
    }

    #[test]
    fn complete_nonpub_to_pub() {
        // [leaf(np-issued), signing CA (pub-issued), public ICA (pub)].
        let chain = [
            cert(1, "VA CA B3", "va.gov", Some(false)),
            cert(2, "Verizon SSP", "VA CA B3", Some(true)),
            cert(3, "Entrust Root", "Verizon SSP", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, P, P]),
            HybridCategory::CompleteNonPubToPub
        );
    }

    #[test]
    fn complete_pub_to_prv() {
        // The Scalyr shape: public leaf, matched all the way, trailing
        // private cert continuing the sequence.
        let chain = [
            cert(1, "DV ICA", "app.scalyr.com", Some(false)),
            cert(2, "USERTrust", "DV ICA", Some(true)),
            cert(3, "AAA Root", "USERTrust", Some(true)),
            cert(4, "Scalyr", "AAA Root", None),
        ];
        assert_eq!(
            cat(&chain, &[P, P, P, NP]),
            HybridCategory::CompletePubToPrv
        );
    }

    #[test]
    fn contains_path() {
        let chain = [
            cert(1, "ICA", "site.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
            cert(3, "tester", "tester", None), // appended junk
        ];
        assert_eq!(cat(&chain, &[P, P, NP]), HybridCategory::ContainsPath);
    }

    #[test]
    fn no_path_self_signed_mismatches() {
        let chain = [
            cert(1, "localhost", "localhost", None),
            cert(2, "X", "Y", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, P]),
            HybridCategory::NoPath(NoPathCategory::SelfSignedLeafMismatches)
        );
    }

    #[test]
    fn no_path_self_signed_valid_subchain() {
        let chain = [
            cert(1, "localhost", "localhost", None),
            cert(2, "Mid", "Inner", Some(true)),
            cert(3, "Root", "Mid", Some(true)),
            cert(4, "Root", "Root", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, P, P, P]),
            HybridCategory::NoPath(NoPathCategory::SelfSignedLeafValidSubchain)
        );
    }

    #[test]
    fn no_path_all_mismatched() {
        let chain = [
            cert(1, "GhostCA", "x.org", None),
            cert(2, "A", "B", Some(true)),
            cert(3, "C", "D", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, P, P]),
            HybridCategory::NoPath(NoPathCategory::AllMismatched)
        );
    }

    #[test]
    fn no_path_partial() {
        // X ✓ ✓ with a CA-starting run.
        let chain = [
            cert(1, "Phantom", "y.org", None),
            cert(2, "C2", "C1", Some(true)),
            cert(3, "C3", "C2", Some(true)),
            cert(4, "C4", "C3", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, NP, NP, P]),
            HybridCategory::NoPath(NoPathCategory::PartialMismatched)
        );
    }

    #[test]
    fn no_path_root_appended() {
        // The workload's row-5 shape: the leaf's issuing intermediate is
        // missing (pair 0 mismatches), the remaining sub-chain matches
        // (I1 ← I2), and a private root is appended: X ✓ X.
        let chain = [
            cert(1, "Missing I1", "site.org", Some(false)),
            cert(2, "I2", "I1", Some(true)),
            cert(3, "Public ICA", "I2", Some(true)),
            cert(4, "Shadow Root", "Shadow Root", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, NP, P, NP]),
            HybridCategory::NoPath(NoPathCategory::RootAppendedToValidSubchain)
        );
    }

    #[test]
    fn no_path_root_and_mismatches() {
        let chain = [
            cert(1, "Lost", "z.org", None),
            cert(2, "Rogue Root", "Rogue Root", Some(true)),
            cert(3, "Pub Root", "Pub Root", Some(true)),
        ];
        assert_eq!(
            cat(&chain, &[NP, NP, P]),
            HybridCategory::NoPath(NoPathCategory::RootAndMismatches)
        );
    }

    #[test]
    fn fifty_six_group_detection() {
        // Public leaf, nothing issues it.
        let chain = [
            cert(1, "Public ICA", "site.org", Some(false)),
            cert(2, "A", "B", None),
        ];
        assert!(has_public_leaf_without_intermediate(&chain, &[P, NP]));

        // Issuing intermediate present → not in the group.
        let chain = [
            cert(1, "Public ICA", "site.org", Some(false)),
            cert(2, "Root", "Public ICA", Some(true)),
        ];
        assert!(!has_public_leaf_without_intermediate(&chain, &[P, P]));

        // Non-public leaf → not in the group.
        let chain = [cert(1, "Ghost", "site.org", None), cert(2, "A", "B", None)];
        assert!(!has_public_leaf_without_intermediate(&chain, &[NP, NP]));
    }

    #[test]
    fn fig4_matrix_cells() {
        let chain = [
            cert(1, "ICA", "site.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
            cert(3, "tester", "tester", None),
        ];
        let classes = [P, P, NP];
        let report = analyze(&chain, &CrossSignRegistry::new());
        let cells = structure_matrix_column(&chain, &classes, &report);
        assert_eq!(
            cells,
            vec![
                Fig4Cell::Complete(P),
                Fig4Cell::Complete(P),
                Fig4Cell::Single(NP),
            ]
        );
    }
}
