//! Cross-crate property tests: invariants that must hold for arbitrary
//! chains, not just generated populations.

use certchain_asn1::Asn1Time;
use certchain_chainlab::matchpath::{analyze, path_verdict_leaf_agnostic, PathVerdict};
use certchain_chainlab::{CertRecord, CrossSignRegistry};
use certchain_x509::{DistinguishedName, Fingerprint, Validity};
use proptest::prelude::*;

/// Arbitrary chains over a small DN alphabet so matches actually occur.
fn arb_chain() -> impl Strategy<Value = Vec<CertRecord>> {
    let name = prop_oneof![
        Just("A"),
        Just("B"),
        Just("C"),
        Just("D"),
        Just("E"),
        Just("leaf.org")
    ];
    proptest::collection::vec(
        (
            name.clone(),
            name,
            proptest::option::of(any::<bool>()),
            any::<u8>(),
        ),
        1..8,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (issuer, subject, ca, fp))| CertRecord {
                fingerprint: Fingerprint([fp.wrapping_add(i as u8); 32]),
                issuer: DistinguishedName::cn(issuer).into(),
                subject: DistinguishedName::cn(subject).into(),
                validity: Validity::days_from(Asn1Time::from_unix(0), 30),
                bc_ca: ca,
                san_dns: vec![],
            })
            .collect()
    })
}

proptest! {
    /// Mismatch ratio is always in [0, 1] and equals
    /// mismatches / (len - 1).
    #[test]
    fn mismatch_ratio_bounds(chain in arb_chain()) {
        let report = analyze(&chain, &CrossSignRegistry::new());
        prop_assert!(report.mismatch_ratio >= 0.0 && report.mismatch_ratio <= 1.0);
        if chain.len() > 1 {
            let expected =
                report.mismatch_positions.len() as f64 / (chain.len() - 1) as f64;
            prop_assert!((report.mismatch_ratio - expected).abs() < 1e-12);
        } else {
            prop_assert_eq!(report.mismatch_ratio, 0.0);
        }
    }

    /// Runs never overlap, are sorted, and cover exactly the matching pairs.
    #[test]
    fn runs_partition_matching_pairs(chain in arb_chain()) {
        let report = analyze(&chain, &CrossSignRegistry::new());
        let mut covered = vec![false; report.pair_matches.len()];
        let mut last_end = 0usize;
        for run in &report.runs {
            prop_assert!(run.start <= run.end);
            prop_assert!(run.end < chain.len());
            prop_assert!(run.start >= last_end, "runs are ordered and disjoint");
            last_end = run.end;
            for slot in &mut covered[run.start..run.end] {
                *slot = true;
            }
        }
        for (i, (&m, &c)) in report.pair_matches.iter().zip(&covered).enumerate() {
            prop_assert_eq!(m, c, "pair {} coverage", i);
        }
    }

    /// IsComplete implies every pair matches; NoComplete implies no run
    /// starts at a leaf candidate.
    #[test]
    fn verdict_consistency(chain in arb_chain()) {
        let report = analyze(&chain, &CrossSignRegistry::new());
        match report.verdict {
            PathVerdict::IsComplete => {
                prop_assert!(report.pair_matches.iter().all(|&m| m));
                prop_assert!(chain[0].is_leaf_candidate());
            }
            PathVerdict::NoComplete => {
                prop_assert!(report.runs.iter().all(|r| !r.starts_at_leaf));
            }
            PathVerdict::ContainsComplete => {
                prop_assert!(report.runs.iter().any(|r| r.starts_at_leaf));
            }
        }
        // The leaf-agnostic verdict is never *stricter* than the leaf-aware
        // one about the existence of matching structure.
        let agnostic = path_verdict_leaf_agnostic(&report);
        if report.verdict != PathVerdict::NoComplete {
            prop_assert_ne!(agnostic, PathVerdict::NoComplete);
        }
    }

    /// Reversing a fully-matched chain cannot create mismatches out of
    /// thin air: the pair count is stable under reversal.
    #[test]
    fn pair_count_stable_under_reversal(chain in arb_chain()) {
        let report = analyze(&chain, &CrossSignRegistry::new());
        let mut reversed = chain.clone();
        reversed.reverse();
        let rev_report = analyze(&reversed, &CrossSignRegistry::new());
        prop_assert_eq!(report.pair_matches.len(), rev_report.pair_matches.len());
    }
}
