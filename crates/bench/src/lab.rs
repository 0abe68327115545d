//! Shared experiment state: one generated trace + one pipeline run.

use certchain_chainlab::{Analysis, CrossSignRegistry, Pipeline};
use certchain_workload::{CampusProfile, CampusTrace};

/// The lab: a generated campus trace plus its analysis.
pub struct Lab {
    /// The synthetic campus trace.
    pub trace: CampusTrace,
    /// The pipeline's output over that trace.
    pub analysis: Analysis,
}

/// Profile selection: `CERTCHAIN_PROFILE=quick` for the test-sized run,
/// anything else (or unset) for the default calibration.
pub fn profile_from_env() -> CampusProfile {
    match std::env::var("CERTCHAIN_PROFILE").as_deref() {
        Ok("quick") => CampusProfile::quick(),
        _ => CampusProfile::default(),
    }
}

impl Lab {
    /// Generate the trace and run the full analysis.
    pub fn new(profile: CampusProfile) -> Lab {
        let trace = CampusTrace::generate(profile);
        let weights: Vec<f64> = trace.conn_meta.iter().map(|m| m.weight).collect();
        let pipeline = Pipeline::new(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
        );
        let analysis = pipeline.analyze(&trace.ssl_records, &trace.x509_records, Some(&weights));
        Lab { trace, analysis }
    }

    /// A lab using the env-selected profile.
    pub fn from_env() -> Lab {
        Lab::new(profile_from_env())
    }
}

/// Statistical weight of one analyzed chain: looked up from the
/// generator's ground truth (full-fidelity populations weigh 1).
pub fn chain_weight_of(lab: &Lab, chain: &certchain_chainlab::ChainAnalysis) -> f64 {
    lab.trace
        .truth
        .by_chain
        .get(&chain.key.0)
        .map(|&idx| lab.trace.servers[idx].weight)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_with_quick_profile() {
        let lab = Lab::new(CampusProfile::quick());
        assert!(!lab.analysis.chains.is_empty());
        assert_eq!(
            lab.analysis
                .chains_in(certchain_chainlab::ChainCategoryLabel::Hybrid)
                .count(),
            321
        );
    }
}
