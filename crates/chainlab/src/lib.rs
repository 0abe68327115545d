#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The paper's analysis pipeline: certificate-chain structure and usage
//! analysis over Zeek-style logs.
//!
//! This crate is the primary contribution of the reproduction. It consumes
//! exactly what the original study had — `ssl.log` and `x509.log` records
//! (no raw keys or signatures), the public trust databases, a CT domain
//! index, and CA cross-signing disclosures — and produces every structural
//! and usage statistic the paper reports:
//!
//! 1. certificate classification (public-DB vs non-public-DB issuers, §3.2.1),
//! 2. TLS-interception detection via CT cross-referencing (§3.2.1, Table 1),
//! 3. chain categorization (§3.2.2, Table 2),
//! 4. issuer–subject path analysis: complete/partial matched paths and
//!    mismatch ratios with cross-signing reconciliation (§4.2, Fig. 3/6),
//! 5. hybrid-chain structure taxonomy (Tables 3/6/7, Fig. 4/5),
//! 6. non-public-only and interception path statistics (§4.3, Table 8),
//! 7. the DGA single-certificate cluster (§4.3),
//! 8. CT-logging compliance for anchored non-public leaves (§4.2),
//! 9. chain-length and port/SNI/establishment usage statistics
//!    (Fig. 1, Table 4, §4.2).
//!
//! The pipeline is deliberately *log-typed*: nothing here touches
//! `Certificate` objects or cryptographic material, so it runs unchanged
//! over real Zeek output with the same field subset.

pub mod classify;
pub mod crosssign;
pub mod dga;
pub mod filtercat;
pub mod graph;
pub mod hybrid;
pub mod interception;
pub mod lengths;
pub mod lint;
pub mod matchpath;
pub mod model;
pub mod pipeline;
pub mod summary;
pub mod usage;

pub use classify::CertClass;
pub use crosssign::CrossSignRegistry;
pub use filtercat::{chain_category, CategoryOracle, CertCat};
pub use hybrid::{HybridCategory, NoPathCategory};
pub use lint::{lint_chain, Finding, Severity};
pub use matchpath::{MatchedRun, PathReport, PathVerdict};
pub use model::{CertRecord, ChainKey};
pub use pipeline::{
    Analysis, CertTable, ChainAnalysis, ChainCategoryLabel, Pipeline, PipelineOptions,
    PipelineState, Publisher, RowFilter, StateError,
};
pub use summary::{AnalysisSummary, CategoryRollup, ReportRollup};
