//! Issuer–subject path analysis (§4.2, Figure 3, Appendix D.1).
//!
//! Definitions, following the paper:
//!
//! - A **pair** is an adjacent `(chain[i], chain[i+1])`; it *matches* when
//!   `chain[i].issuer == chain[i+1].subject` (with cross-signing
//!   disclosures honoured).
//! - The **mismatch ratio** is mismatched pairs / total pairs.
//! - A **matched run** is a maximal sequence of consecutive matching pairs.
//! - A **complete matched path** is a matched run whose first certificate
//!   is a *valid leaf* — an end-entity certificate (not explicitly a CA).
//!   A run starting at a CA certificate is only a **partial** path (the
//!   Figure 3 bottom chain).
//! - A chain **is** a complete matched path when one complete path covers
//!   the entire chain; it **contains** one when a complete path exists but
//!   does not cover the chain; otherwise it has **no complete path**.
//!
//! §4.3 applies a leaf-agnostic variant to non-public-only and
//! interception chains ("we do not evaluate the presence of a leaf
//! certificate"): there a chain *is* a matched path when all pairs match,
//! *contains* one when some but not all pairs match, and has none when no
//! pair matches. That variant is [`path_verdict_leaf_agnostic`].

use crate::crosssign::CrossSignRegistry;
use crate::model::CertRecord;
use std::borrow::Borrow;

/// One maximal matched run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedRun {
    /// Index of the first certificate of the run.
    pub start: usize,
    /// Index of the last certificate of the run (inclusive).
    pub end: usize,
    /// Whether the run starts at a leaf candidate.
    pub starts_at_leaf: bool,
}

impl MatchedRun {
    /// Number of certificates in the run.
    pub fn cert_count(&self) -> usize {
        self.end - self.start + 1
    }
}

/// Leaf-aware verdict for hybrid analysis (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathVerdict {
    /// The whole chain is one complete matched path.
    IsComplete,
    /// A complete matched path exists plus unnecessary certificates.
    ContainsComplete,
    /// No complete matched path.
    NoComplete,
}

/// Full per-chain path report.
#[derive(Debug, Clone, PartialEq)]
pub struct PathReport {
    /// Match flag per adjacent pair (`len = chain_len - 1`).
    pub pair_matches: Vec<bool>,
    /// All maximal matched runs (length ≥ 2 certificates).
    pub runs: Vec<MatchedRun>,
    /// Mismatched-pair positions (indices into `pair_matches`).
    pub mismatch_positions: Vec<usize>,
    /// Mismatch ratio (0 for single-certificate chains).
    pub mismatch_ratio: f64,
    /// Leaf-aware verdict.
    pub verdict: PathVerdict,
}

/// Analyze one chain.
///
/// ```
/// use certchain_asn1::Asn1Time;
/// use certchain_chainlab::matchpath::{analyze, PathVerdict};
/// use certchain_chainlab::{CertRecord, CrossSignRegistry};
/// use certchain_x509::{DistinguishedName, Fingerprint, Validity};
///
/// let cert = |n: u8, issuer: &str, subject: &str| CertRecord {
///     fingerprint: Fingerprint([n; 32]),
///     issuer: DistinguishedName::cn(issuer).into(),
///     subject: DistinguishedName::cn(subject).into(),
///     validity: Validity::days_from(Asn1Time::from_unix(0), 30),
///     bc_ca: Some(n > 1),
///     san_dns: vec![],
/// };
/// let chain = [cert(1, "ICA", "leaf.org"), cert(2, "Root", "ICA")];
/// let report = analyze(&chain, &CrossSignRegistry::new());
/// assert_eq!(report.verdict, PathVerdict::IsComplete);
/// assert_eq!(report.mismatch_ratio, 0.0);
/// ```
pub fn analyze<C: Borrow<CertRecord>>(chain: &[C], crosssign: &CrossSignRegistry) -> PathReport {
    let n = chain.len();
    if n <= 1 {
        return PathReport {
            pair_matches: Vec::new(),
            runs: Vec::new(),
            mismatch_positions: Vec::new(),
            mismatch_ratio: 0.0,
            verdict: PathVerdict::NoComplete,
        };
    }
    let pair_matches: Vec<bool> = (0..n - 1)
        .map(|i| crosssign.pair_matches(&chain[i].borrow().issuer, &chain[i + 1].borrow().subject))
        .collect();
    let mismatch_positions: Vec<usize> = pair_matches
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| (!m).then_some(i))
        .collect();
    let mismatch_ratio = mismatch_positions.len() as f64 / pair_matches.len() as f64;

    // Maximal runs of consecutive matching pairs.
    let mut runs = Vec::new();
    let mut i = 0;
    while i < pair_matches.len() {
        if pair_matches[i] {
            let start = i;
            while i < pair_matches.len() && pair_matches[i] {
                i += 1;
            }
            runs.push(MatchedRun {
                start,
                end: i, // pair indices start..i-1 cover certs start..=i
                starts_at_leaf: chain[start].borrow().is_leaf_candidate(),
            });
        } else {
            i += 1;
        }
    }

    let complete = runs.iter().find(|r| r.starts_at_leaf);
    let verdict = match complete {
        Some(run) if run.start == 0 && run.end == n - 1 => PathVerdict::IsComplete,
        Some(_) => PathVerdict::ContainsComplete,
        None => PathVerdict::NoComplete,
    };

    PathReport {
        pair_matches,
        runs,
        mismatch_positions,
        mismatch_ratio,
        verdict,
    }
}

/// Leaf-agnostic verdict used for non-public-only and interception chains
/// (§4.3). Only meaningful for chains with more than one certificate.
pub fn path_verdict_leaf_agnostic(report: &PathReport) -> PathVerdict {
    if report.pair_matches.is_empty() {
        return PathVerdict::NoComplete;
    }
    let matched = report.pair_matches.iter().filter(|&&m| m).count();
    if matched == report.pair_matches.len() {
        PathVerdict::IsComplete
    } else if matched > 0 {
        PathVerdict::ContainsComplete
    } else {
        PathVerdict::NoComplete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_x509::{DistinguishedName, Fingerprint, Validity};

    /// Build a CertRecord directly (issuer CN, subject CN, is-CA flag).
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

    fn reg() -> CrossSignRegistry {
        CrossSignRegistry::new()
    }

    #[test]
    fn single_cert_has_no_pairs() {
        let chain = [cert(1, "x", "x", None)];
        let r = analyze(&chain, &reg());
        assert!(r.pair_matches.is_empty());
        assert_eq!(r.verdict, PathVerdict::NoComplete);
        assert_eq!(r.mismatch_ratio, 0.0);
    }

    #[test]
    fn full_chain_is_complete() {
        // leaf ← ica ← root: every pair matches, leaf at position 0.
        let chain = [
            cert(1, "ICA", "leaf.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
            cert(3, "Root", "Root", Some(true)),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(r.pair_matches, vec![true, true]);
        assert_eq!(r.verdict, PathVerdict::IsComplete);
        assert_eq!(r.mismatch_ratio, 0.0);
        assert_eq!(r.runs.len(), 1);
        assert!(r.runs[0].starts_at_leaf);
        assert_eq!(r.runs[0].cert_count(), 3);
    }

    /// The Figure 3 bottom chain: partial path (no valid leaf), complete
    /// path, plus an extra leaf → mismatch ratio 0.4 and a contains
    /// verdict. Layout (6 certs, 5 pairs):
    ///   [CA-b, CA-a] matched (partial: starts at CA)
    ///   mismatch
    ///   [leaf2, CA-d, CA-c] matched (complete: starts at leaf)
    ///   mismatch to trailing extra leaf... — the paper draws the extra
    /// leaf at the end; we model leaf-first ordering within runs.
    #[test]
    fn figure3_bottom_chain() {
        let chain = [
            cert(1, "CA-a", "CA-b", Some(true)),   // partial run start (CA)
            cert(2, "CA-zzz", "CA-a", Some(true)), // run ends: next pair mismatch
            cert(3, "CA-d", "leaf2.org", Some(false)), // complete run start (leaf)
            cert(4, "CA-c", "CA-d", Some(true)),
            cert(5, "CA-c", "CA-c", Some(true)),
            cert(6, "CA-x", "extra-leaf.org", Some(false)), // trailing extra
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(r.pair_matches, vec![true, false, true, true, false]);
        assert!((r.mismatch_ratio - 0.4).abs() < 1e-9);
        assert_eq!(r.verdict, PathVerdict::ContainsComplete);
        assert_eq!(r.runs.len(), 2);
        assert!(!r.runs[0].starts_at_leaf, "first run starts at a CA");
        assert!(r.runs[1].starts_at_leaf);
        assert_eq!(r.mismatch_positions, vec![1, 4]);
    }

    #[test]
    fn matched_run_of_cas_only_is_not_complete() {
        // Self-signed leaf followed by a valid CA sub-chain (Table 7 row 2).
        let chain = [
            cert(1, "dev.local", "dev.local", None),
            cert(2, "Mid", "Inner", Some(true)),
            cert(3, "Root", "Mid", Some(true)),
            cert(4, "Root", "Root", Some(true)),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(r.verdict, PathVerdict::NoComplete);
        assert_eq!(r.runs.len(), 1);
        assert!(!r.runs[0].starts_at_leaf);
        assert!((r.mismatch_ratio - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_mismatched() {
        let chain = [
            cert(1, "A", "leaf.org", Some(false)),
            cert(2, "B", "C", None),
            cert(3, "D", "E", None),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(r.verdict, PathVerdict::NoComplete);
        assert!(r.runs.is_empty());
        assert_eq!(r.mismatch_ratio, 1.0);
    }

    #[test]
    fn cross_signing_rescues_a_pair() {
        let mut registry = CrossSignRegistry::new();
        registry.disclose(
            DistinguishedName::cn("ICA"),
            DistinguishedName::cn("AltRoot"),
        );
        // The leaf names "AltRoot" as issuer, but the presented parent is
        // the cross-signed twin with subject "ICA".
        let chain = [
            cert(1, "AltRoot", "leaf.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
            cert(3, "Root", "Root", Some(true)),
        ];
        // Without disclosure: mismatch at pair 0.
        let r = analyze(&chain, &reg());
        assert_eq!(r.verdict, PathVerdict::NoComplete);
        // With disclosure: complete.
        let r = analyze(&chain, &registry);
        assert_eq!(r.verdict, PathVerdict::IsComplete);
    }

    #[test]
    fn leaf_agnostic_variant() {
        // All pairs match → Is.
        let chain = [
            cert(1, "B", "A", None),
            cert(2, "C", "B", None),
            cert(3, "C", "C", None),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(path_verdict_leaf_agnostic(&r), PathVerdict::IsComplete);

        // Some pairs → Contains (even though no leaf candidate starts it).
        let chain = [
            cert(1, "X", "A", Some(true)),
            cert(2, "C", "B", Some(true)),
            cert(3, "C", "C", Some(true)),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(
            path_verdict_leaf_agnostic(&r),
            PathVerdict::ContainsComplete
        );

        // None → No.
        let chain = [cert(1, "X", "A", None), cert(2, "Y", "B", None)];
        let r = analyze(&chain, &reg());
        assert_eq!(path_verdict_leaf_agnostic(&r), PathVerdict::NoComplete);
    }

    #[test]
    fn expired_leaf_is_still_a_complete_path() {
        // §4.2 counts 3 chains with expired leaves among the 36 complete
        // chains, so expiry must not disqualify the leaf.
        let chain = [
            cert(1, "ICA", "old-leaf.org", Some(false)),
            cert(2, "ICA", "ICA", Some(true)),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(r.verdict, PathVerdict::IsComplete);
    }

    #[test]
    fn mismatch_positions_align_with_keysig_positions() {
        // Appendix D: the issuer–subject mismatch positions equal the
        // positions where key-signature validation fails.
        let chain = [
            cert(1, "ICA", "leaf.org", Some(false)),
            cert(2, "WRONG", "ICA", Some(true)),
            cert(3, "Root", "Root2", Some(true)),
        ];
        let r = analyze(&chain, &reg());
        assert_eq!(r.mismatch_positions, vec![1]);
    }
}
