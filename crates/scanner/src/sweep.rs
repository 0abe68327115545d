//! The §6.3 future-work experiment: an active sweep of the (simulated) IP
//! address space, combined with the passive trace.
//!
//! The paper's closing suggestion: "Future studies may generalize and
//! broaden the certificate chain analysis by performing active scanning of
//! the entire IP address space, combined with network traffic logs from
//! operators." This module implements that combination over the simulated
//! campus: dial every server by IP (no SNI — the scanner does not know
//! hostnames), retrieve the delivered chain, and diff against what passive
//! monitoring saw.
//!
//! Two passive blind spots become measurable:
//! - **TLS 1.3-only servers**: their chains never cross the wire in clear,
//!   so the passive logs have no certificates for them at all.
//! - **SNI-less reachability**: the sweep obtains chains without SNI,
//!   which is exactly how most single-certificate non-public servers are
//!   reached anyway.

use certchain_chainlab::{Analysis, ChainKey};
use certchain_workload::servers::GeneratedServer;
use certchain_x509::Fingerprint;
use std::collections::HashSet;

/// Result of sweeping the simulated address space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Servers dialed.
    pub servers_scanned: u64,
    /// Servers that presented at least one certificate.
    pub chains_obtained: u64,
    /// Distinct chains seen by the sweep.
    pub distinct_chains: u64,
    /// Chains the sweep found that the passive analysis never saw
    /// (TLS 1.3-only servers and servers with zero captured connections).
    pub chains_missed_by_passive: u64,
    /// Distinct certificates recovered that passive monitoring missed.
    pub certs_missed_by_passive: u64,
}

/// Sweep every server and diff against the passive analysis.
pub fn ip_space_sweep(servers: &[GeneratedServer], passive: &Analysis) -> SweepReport {
    let mut report = SweepReport::default();
    let mut seen_chains: HashSet<ChainKey> = HashSet::new();
    let passive_certs: HashSet<Fingerprint> = passive
        .chains
        .iter()
        .flat_map(|c| c.key.0.iter().copied())
        .collect();
    let mut missed_certs: HashSet<Fingerprint> = HashSet::new();

    for server in servers {
        report.servers_scanned += 1;
        if server.endpoint.chain.is_empty() {
            continue;
        }
        report.chains_obtained += 1;
        let key = ChainKey(
            server
                .endpoint
                .chain
                .iter()
                .map(|c| c.fingerprint())
                .collect(),
        );
        if !seen_chains.insert(key.clone()) {
            continue;
        }
        report.distinct_chains += 1;
        if passive.chain(&key).is_none() {
            report.chains_missed_by_passive += 1;
            for fp in &key.0 {
                if !passive_certs.contains(fp) {
                    missed_certs.insert(*fp);
                }
            }
        }
    }
    report.certs_missed_by_passive = missed_certs.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_chainlab::{CrossSignRegistry, Pipeline};
    use certchain_workload::{CampusProfile, CampusTrace};

    fn setup() -> (CampusTrace, Analysis) {
        let trace = CampusTrace::generate(CampusProfile::quick());
        let pipeline = Pipeline::new(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
        );
        let analysis = pipeline.analyze(&trace.ssl_records, &trace.x509_records, None);
        (trace, analysis)
    }

    #[test]
    fn sweep_covers_every_server_and_finds_the_passive_blind_spot() {
        let (trace, analysis) = setup();
        let report = ip_space_sweep(&trace.servers, &analysis);
        assert_eq!(report.servers_scanned, trace.servers.len() as u64);
        assert_eq!(report.chains_obtained, report.servers_scanned);
        // Passive monitoring cannot see the TLS 1.3-only public servers:
        // roughly a quarter of the public population.
        let expected_blind = trace.profile.public_chains / 4;
        let diff = report.chains_missed_by_passive as i64 - expected_blind as i64;
        assert!(
            diff.abs() <= 2,
            "blind spot {} vs expected ~{}",
            report.chains_missed_by_passive,
            expected_blind
        );
        assert!(report.certs_missed_by_passive > 0);
        // Everything passive saw, the sweep sees too.
        assert!(report.distinct_chains as usize >= analysis.chains.len());
    }

    #[test]
    fn sweep_against_empty_passive_counts_everything_as_missed() {
        let (trace, _) = setup();
        let empty = Pipeline::new(&trace.eco.trust, &trace.ct_index, CrossSignRegistry::new())
            .analyze(&[], &[], None);
        let report = ip_space_sweep(&trace.servers, &empty);
        assert_eq!(report.chains_missed_by_passive, report.distinct_chains);
    }
}
