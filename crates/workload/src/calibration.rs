//! Every number from the paper, in one place.
//!
//! `CalibrationTargets` records the published values; `CampusProfile`
//! derives the generator parameters (scales, population sizes) from them.
//! The experiment binaries print paper-vs-measured against these constants.

/// Published values from Dong et al., IMC 2025.
///
/// Field names reference the table/section they come from.
#[derive(Debug, Clone)]
pub struct CalibrationTargets {
    // ---- §1 / §3.2.2 / Table 2 ----
    /// Total unique certificate chains in the dataset.
    pub total_chains: u64,
    /// Distinct certificates across those chains.
    pub total_certs: u64,
    /// TLS connections involving chains associated with non-public-DB issuers.
    pub nonpub_associated_connections: u64,
    /// Share of chains that are non-public-DB-only (§3.2.2: 16.24%).
    pub share_nonpub_only: f64,
    /// Share of chains that are hybrid (0.02%).
    pub share_hybrid: f64,
    /// Share of chains that are TLS interception (11.19%).
    pub share_interception: f64,
    /// Non-public-DB-only: chains / connections / client IPs (Table 2).
    pub nonpub_chains: u64,
    pub nonpub_connections: u64,
    pub nonpub_client_ips: u64,
    /// Hybrid: chains / connections / client IPs (Table 2).
    pub hybrid_chains: u64,
    pub hybrid_connections: u64,
    pub hybrid_client_ips: u64,
    /// Interception: chains / connections / client IPs (Table 2).
    pub interception_chains: u64,
    pub interception_connections: u64,
    pub interception_client_ips: u64,

    // ---- Table 1 (interception issuers) ----
    /// (category name, issuer count, % of interception connections, client IPs).
    pub interception_categories: [(&'static str, u64, f64, u64); 6],

    // ---- Figure 1 (chain lengths) ----
    /// Public-DB-only chains advertised with length 2 (>60%).
    pub public_share_len2: f64,
    /// Non-public-DB-only single-certificate share (≈80% in Fig. 1; §4.3
    /// gives the precise 78.10%).
    pub nonpub_share_len1: f64,
    /// Interception chains with exactly 3 certificates (>80%).
    pub interception_share_len3: f64,

    // ---- Table 3 (hybrid categories) ----
    /// Complete path, non-public leaf chained to public anchor.
    pub hybrid_complete_nonpub_to_pub: u64,
    /// Complete path, public chain followed by private certificate
    /// (the Scalyr/Canal+ pattern).
    pub hybrid_complete_pub_to_prv: u64,
    /// Contains a complete matched path plus unnecessary certificates.
    pub hybrid_contains_path: u64,
    /// No complete matched path.
    pub hybrid_no_path: u64,

    // ---- §4.2 establishment rates ----
    /// Chains that ARE a complete matched path.
    pub established_rate_complete: f64,
    /// Chains that CONTAIN a complete matched path.
    pub established_rate_contains: f64,
    /// Chains with no complete matched path.
    pub established_rate_no_path: f64,
    /// Connections/IPs for the no-path group.
    pub no_path_connections: u64,
    pub no_path_client_ips: u64,
    /// The 56-chain public-leaf-without-intermediate subgroup.
    pub pub_leaf_no_intermediate_chains: u64,
    pub pub_leaf_no_intermediate_connections: u64,
    pub pub_leaf_no_intermediate_client_ips: u64,
    pub pub_leaf_no_intermediate_established: f64,
    /// Expired-leaf chains among the 36 complete hybrid chains.
    pub hybrid_complete_expired: u64,

    // ---- Table 6 ----
    /// Corporate / Government chain counts among the 26 anchored chains.
    pub anchored_corporate: u64,
    pub anchored_government: u64,

    // ---- Table 7 (no-complete-path categorization) ----
    pub t7_selfsigned_leaf_mismatches: u64,
    pub t7_selfsigned_leaf_valid_subchain: u64,
    pub t7_all_mismatched: u64,
    pub t7_partial_mismatched: u64,
    pub t7_root_appended_to_valid_subchain: u64,
    pub t7_root_and_mismatches: u64,
    /// Of the 108 self-signed-leaf chains, how many have identical
    /// issuer and subject on the leaf (Appendix F.3: 100).
    pub t7_identical_leaf_fields: u64,

    // ---- Figure 6 ----
    /// Share of no-path hybrid chains with mismatch ratio ≥ 0.5 (56.74%).
    pub mismatch_ratio_ge_half: f64,

    // ---- §4.3 / Table 8 ----
    /// Single-certificate share of non-public-DB-only chains (78.10%).
    pub nonpub_single_share: f64,
    /// Self-signed share of those singles (94.19%).
    pub nonpub_single_selfsigned_share: f64,
    /// Share of single-cert connections lacking SNI (86.70%).
    pub nonpub_single_no_sni_share: f64,
    /// Interception single-cert share (13.24%) and its self-signed share
    /// (93.43%).
    pub interception_single_share: f64,
    pub interception_single_selfsigned_share: f64,
    /// Matched-path share of multi-cert chains (Table 8).
    pub nonpub_multi_matched_share: f64,
    pub interception_multi_matched_share: f64,
    /// Contains-a-matched-path counts (Table 8).
    pub nonpub_multi_contains: u64,
    pub interception_multi_contains: u64,
    /// No-matched-path counts (Table 8).
    pub nonpub_multi_no_path: u64,
    pub interception_multi_no_path: u64,
    /// basicConstraints omission: first-presented / subsequently-presented
    /// (§4.3: 55.31% and 78.32%).
    pub bc_omitted_first: f64,
    pub bc_omitted_subsequent: f64,

    // ---- DGA cluster (§4.3) ----
    pub dga_connections: u64,
    pub dga_client_ips: u64,
    /// Validity range in days (4..=365).
    pub dga_validity_min_days: u64,
    pub dga_validity_max_days: u64,

    // ---- Table 4 (port distribution, % of connections) ----
    pub ports_hybrid: [(u16, f64); 5],
    pub ports_nonpub_single: [(u16, f64); 5],
    pub ports_nonpub_multi: [(u16, f64); 5],
    pub ports_interception: [(u16, f64); 5],

    // ---- §5 revisit ----
    pub revisit_hybrid_reachable: u64,
    pub revisit_hybrid_now_public: u64,
    pub revisit_hybrid_now_nonpub: u64,
    pub revisit_hybrid_still_hybrid: u64,
    pub revisit_hybrid_complete_clean: u64,
    pub revisit_hybrid_complete_unnecessary: u64,
    /// Non-public-DB-only revisit.
    pub revisit_nonpub_no_sni_share: f64,
    pub revisit_nonpub_servers: u64,
    pub revisit_nonpub_now_multi: u64,
    pub revisit_nonpub_prev_multi_share: f64,
    pub revisit_nonpub_prev_single_selfsigned_share: f64,
    pub revisit_nonpub_prev_single_distinct_share: f64,
    pub revisit_nonpub_complete_share: f64,

    // ---- Table 5 (Appendix D validation comparison) ----
    pub t5_total_chains: u64,
    pub t5_single: u64,
    pub t5_issuer_subject_valid: u64,
    pub t5_issuer_subject_broken: u64,
    pub t5_keysig_valid: u64,
    pub t5_keysig_broken: u64,
    pub t5_unrecognized_keys: u64,
}

impl CalibrationTargets {
    /// The paper's numbers.
    pub fn paper() -> CalibrationTargets {
        CalibrationTargets {
            total_chains: 731_175,
            total_certs: 743_993,
            nonpub_associated_connections: 259_300_000,
            share_nonpub_only: 0.1624,
            share_hybrid: 0.0002,
            share_interception: 0.1119,
            nonpub_chains: 118_743,
            nonpub_connections: 216_470_000,
            nonpub_client_ips: 231_228,
            hybrid_chains: 321,
            hybrid_connections: 78_260,
            hybrid_client_ips: 11_933,
            interception_chains: 81_818,
            interception_connections: 42_750_000,
            interception_client_ips: 19_149,
            interception_categories: [
                ("Security & Network", 31, 94.74, 17_915),
                ("Business & Corporate", 27, 4.99, 4_787),
                ("Health & Education", 10, 0.02, 35),
                ("Government & Public Service", 6, 0.24, 25),
                ("Bank & Finance", 3, 0.00, 14),
                ("Other", 3, 0.00, 73),
            ],
            public_share_len2: 0.62,
            nonpub_share_len1: 0.7810,
            interception_share_len3: 0.82,
            hybrid_complete_nonpub_to_pub: 26,
            hybrid_complete_pub_to_prv: 10,
            hybrid_contains_path: 70,
            hybrid_no_path: 215,
            established_rate_complete: 0.9756,
            established_rate_contains: 0.9204,
            established_rate_no_path: 0.5742,
            no_path_connections: 38_085,
            no_path_client_ips: 4_987,
            pub_leaf_no_intermediate_chains: 56,
            pub_leaf_no_intermediate_connections: 19_366,
            pub_leaf_no_intermediate_client_ips: 4_444,
            pub_leaf_no_intermediate_established: 0.5608,
            hybrid_complete_expired: 3,
            anchored_corporate: 10,
            anchored_government: 16,
            t7_selfsigned_leaf_mismatches: 108,
            t7_selfsigned_leaf_valid_subchain: 13,
            t7_all_mismatched: 61,
            t7_partial_mismatched: 27,
            t7_root_appended_to_valid_subchain: 5,
            t7_root_and_mismatches: 1,
            t7_identical_leaf_fields: 100,
            mismatch_ratio_ge_half: 0.5674,
            nonpub_single_share: 0.7810,
            nonpub_single_selfsigned_share: 0.9419,
            nonpub_single_no_sni_share: 0.8670,
            interception_single_share: 0.1324,
            interception_single_selfsigned_share: 0.9343,
            nonpub_multi_matched_share: 0.9976,
            interception_multi_matched_share: 0.9894,
            nonpub_multi_contains: 142,
            interception_multi_contains: 56,
            nonpub_multi_no_path: 87,
            interception_multi_no_path: 2_764,
            bc_omitted_first: 0.5531,
            bc_omitted_subsequent: 0.7832,
            dga_connections: 21_880,
            dga_client_ips: 761,
            dga_validity_min_days: 4,
            dga_validity_max_days: 365,
            ports_hybrid: [
                (443, 97.21),
                (8443, 1.36),
                (8088, 1.22),
                (25, 0.18),
                (9191, 0.01),
            ],
            ports_nonpub_single: [
                (443, 46.29),
                (8888, 21.52),
                (33854, 19.08),
                (13000, 4.22),
                (25, 1.30),
            ],
            ports_nonpub_multi: [
                (443, 83.51),
                (8531, 4.18),
                (9093, 2.85),
                (38881, 1.81),
                (6443, 1.45),
            ],
            ports_interception: [
                (8013, 35.40),
                (4437, 25.14),
                (14430, 16.34),
                (443, 13.36),
                (514, 3.53),
            ],
            revisit_hybrid_reachable: 270,
            revisit_hybrid_now_public: 231,
            revisit_hybrid_now_nonpub: 4,
            revisit_hybrid_still_hybrid: 35,
            revisit_hybrid_complete_clean: 9,
            revisit_hybrid_complete_unnecessary: 3,
            revisit_nonpub_no_sni_share: 0.7949,
            revisit_nonpub_servers: 12_404,
            revisit_nonpub_now_multi: 9_849,
            revisit_nonpub_prev_multi_share: 0.3900,
            revisit_nonpub_prev_single_selfsigned_share: 0.5344,
            revisit_nonpub_prev_single_distinct_share: 0.0756,
            revisit_nonpub_complete_share: 0.9761,
            t5_total_chains: 12_676,
            t5_single: 2_568,
            t5_issuer_subject_valid: 9_825,
            t5_issuer_subject_broken: 283,
            t5_keysig_valid: 9_821,
            t5_keysig_broken: 284,
            t5_unrecognized_keys: 3,
        }
    }
}

/// Generator parameters: how much of the paper-scale trace to actually
/// materialize. Weighted statistics multiply back to paper scale.
#[derive(Debug, Clone)]
pub struct CampusProfile {
    /// RNG seed for the whole ecosystem.
    pub seed: u64,
    /// Scale for bulk chain populations (non-public-DB-only, interception,
    /// public-DB-only). 0.01 ⇒ one generated chain represents 100.
    pub chain_scale: f64,
    /// Scale for bulk connection volumes. 0.001 ⇒ one generated record
    /// represents 1000 connections.
    pub conn_scale: f64,
    /// Number of public-DB-only chains to generate (shape-only population
    /// for Figure 1; the paper reports only its length distribution).
    pub public_chains: usize,
    /// Connections per public-DB-only chain (flat; public traffic volume is
    /// not reported by the paper).
    pub public_conns_per_chain: u64,
}

impl Default for CampusProfile {
    fn default() -> CampusProfile {
        CampusProfile {
            seed: 20250901,
            chain_scale: 0.01,
            conn_scale: 0.001,
            public_chains: 2_000,
            public_conns_per_chain: 5,
        }
    }
}

impl CampusProfile {
    /// A much smaller profile for unit tests.
    pub fn quick() -> CampusProfile {
        CampusProfile {
            seed: 42,
            chain_scale: 0.002,
            conn_scale: 0.0002,
            public_chains: 200,
            public_conns_per_chain: 2,
        }
    }

    /// Weight of one scaled chain.
    pub fn chain_weight(&self) -> f64 {
        1.0 / self.chain_scale
    }

    /// Weight of one scaled connection.
    pub fn conn_weight(&self) -> f64 {
        1.0 / self.conn_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shares_are_consistent() {
        let t = CalibrationTargets::paper();
        // 16.24% + 0.02% + 11.19% = 27.45%, which the paper rounds to 28%.
        let sum = t.share_nonpub_only + t.share_hybrid + t.share_interception;
        assert!((sum - 0.2745).abs() < 0.002, "sum = {sum}");
        // Chain counts derive from the shares.
        assert!(
            (t.nonpub_chains as f64 - t.total_chains as f64 * t.share_nonpub_only).abs() < 500.0
        );
        assert_eq!(
            t.hybrid_complete_nonpub_to_pub
                + t.hybrid_complete_pub_to_prv
                + t.hybrid_contains_path
                + t.hybrid_no_path,
            t.hybrid_chains
        );
        assert_eq!(
            t.anchored_corporate + t.anchored_government,
            t.hybrid_complete_nonpub_to_pub
        );
        // Table 7 rows sum to the 215 no-path chains.
        assert_eq!(
            t.t7_selfsigned_leaf_mismatches
                + t.t7_selfsigned_leaf_valid_subchain
                + t.t7_all_mismatched
                + t.t7_partial_mismatched
                + t.t7_root_appended_to_valid_subchain
                + t.t7_root_and_mismatches,
            t.hybrid_no_path
        );
        // Table 1 issuer counts sum to the 80 identified issuers.
        let issuers: u64 = t.interception_categories.iter().map(|c| c.1).sum();
        assert_eq!(issuers, 80);
        // Table 5 columns are internally consistent.
        assert_eq!(
            t.t5_single + t.t5_issuer_subject_valid + t.t5_issuer_subject_broken,
            t.t5_total_chains
        );
        assert_eq!(
            t.t5_single + t.t5_keysig_valid + t.t5_keysig_broken + t.t5_unrecognized_keys,
            t.t5_total_chains
        );
    }

    #[test]
    fn profile_weights() {
        let p = CampusProfile::default();
        assert!((p.chain_weight() - 100.0).abs() < 1e-9);
        assert!((p.conn_weight() - 1000.0).abs() < 1e-9);
        let q = CampusProfile::quick();
        assert!(q.chain_scale < p.chain_scale);
    }
}
