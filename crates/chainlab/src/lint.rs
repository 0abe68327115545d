//! A compact certificate/chain linter in the spirit of zlint, covering the
//! compliance observations the paper makes along the way.
//!
//! Checks implemented (each maps to a paper observation or the RFC it
//! cites):
//!
//! - `basic-constraints-missing` — §4.3: most non-public certificates omit
//!   basicConstraints entirely "rather than explicitly setting it to a
//!   boolean value (TRUE or FALSE) as required by the specification"
//!   (RFC 5280 §4.2.1.9 for CAs).
//! - `leaf-expired` / `leaf-expired-5y` — §4.2: chains served with expired
//!   leaves, the worst over five years past notAfter.
//! - `unnecessary-certificate` — §4.2/§6.1: certificates that contribute
//!   to no matched path.
//! - `root-included` — RFC 5246 §7.4.2: "the root may be omitted"; sending
//!   it costs bandwidth (§6.1).
//! - `staging-certificate` — Appendix F.2: `Fake LE` staging artifacts in
//!   production chains.
//! - `self-signed-leaf-with-tail` — Table 7 rows 1/2: a self-signed leaf
//!   in front of other certificates.
//! - `localhost-subject` — Appendix F.3: default `CN=localhost` material
//!   served publicly.

use crate::matchpath::PathReport;
use crate::model::CertRecord;
use certchain_asn1::Asn1Time;
use std::borrow::Borrow;
use std::fmt;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: interoperability or bandwidth cost.
    Info,
    /// Warning: likely misconfiguration.
    Warning,
    /// Error: standards violation or trust-breaking condition.
    Error,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable check identifier (kebab-case).
    pub check: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Index of the certificate the finding is about.
    pub cert_index: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] cert {}: {} ({})",
            self.severity, self.cert_index, self.message, self.check
        )
    }
}

/// Lint a delivered chain at observation time `at`.
///
/// `report` must be the chain's [`PathReport`] (so unnecessary-certificate
/// detection agrees with the structure analysis).
pub fn lint_chain<C: Borrow<CertRecord>>(
    chain: &[C],
    report: &PathReport,
    at: Asn1Time,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Certificates covered by some matched run.
    let mut in_run = vec![false; chain.len()];
    for run in &report.runs {
        for slot in in_run.iter_mut().take(run.end + 1).skip(run.start) {
            *slot = true;
        }
    }

    for (i, cert) in chain.iter().enumerate() {
        let cert = cert.borrow();
        if cert.bc_ca.is_none() {
            findings.push(Finding {
                check: "basic-constraints-missing",
                severity: Severity::Warning,
                cert_index: i,
                message: format!(
                    "basicConstraints absent on {} (RFC 5280 requires an explicit boolean)",
                    cert.subject
                ),
            });
        }
        if i == 0 && cert.validity.is_expired_at(at) {
            let days = cert.validity.days_expired_at(at);
            findings.push(Finding {
                check: if days > 5 * 365 {
                    "leaf-expired-5y"
                } else {
                    "leaf-expired"
                },
                severity: Severity::Error,
                cert_index: 0,
                message: format!("leaf expired {days} day(s) before observation"),
            });
        }
        if chain.len() > 1 && !in_run[i] {
            findings.push(Finding {
                check: "unnecessary-certificate",
                severity: Severity::Warning,
                cert_index: i,
                message: format!(
                    "{} matches no issuer-subject pair in the chain",
                    cert.subject
                ),
            });
        }
        if i > 0 && i == chain.len() - 1 && cert.is_self_signed() && in_run[i] {
            findings.push(Finding {
                check: "root-included",
                severity: Severity::Info,
                cert_index: i,
                message: "self-signed root included in the delivered chain".into(),
            });
        }
        let names = [
            cert.subject.common_name().unwrap_or_default(),
            cert.issuer.common_name().unwrap_or_default(),
        ];
        if names.iter().any(|n| n.starts_with("Fake LE ")) {
            findings.push(Finding {
                check: "staging-certificate",
                severity: Severity::Error,
                cert_index: i,
                message: "Let's Encrypt staging-environment certificate in production".into(),
            });
        }
        if i == 0 && cert.subject.common_name() == Some("localhost") {
            findings.push(Finding {
                check: "localhost-subject",
                severity: Severity::Warning,
                cert_index: 0,
                message: "default localhost certificate served to the network".into(),
            });
        }
    }
    if chain.len() > 1 && chain[0].borrow().is_self_signed() {
        findings.push(Finding {
            check: "self-signed-leaf-with-tail",
            severity: Severity::Warning,
            cert_index: 0,
            message: "self-signed first certificate followed by further certificates".into(),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosssign::CrossSignRegistry;
    use crate::matchpath::analyze;
    use certchain_x509::{DistinguishedName, Fingerprint, Validity};

    fn cert(n: u8, issuer: &str, subject: &str, ca: Option<bool>) -> CertRecord {
        CertRecord {
            fingerprint: Fingerprint([n; 32]),
            issuer: DistinguishedName::cn(issuer).into(),
            subject: DistinguishedName::cn(subject).into(),
            validity: Validity::days_from(Asn1Time::from_unix(0), 90),
            bc_ca: ca,
            san_dns: vec![],
        }
    }

    fn at_day(d: u64) -> Asn1Time {
        Asn1Time::from_unix(d * 86_400)
    }

    fn lint(chain: &[CertRecord], at: Asn1Time) -> Vec<&'static str> {
        let report = analyze(chain, &CrossSignRegistry::new());
        lint_chain(chain, &report, at)
            .into_iter()
            .map(|f| f.check)
            .collect()
    }

    #[test]
    fn clean_chain_yields_nothing() {
        let chain = [
            cert(1, "ICA", "site.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
        ];
        assert!(lint(&chain, at_day(10)).is_empty());
    }

    #[test]
    fn missing_basic_constraints_flagged() {
        let chain = [cert(1, "ICA", "site.org", None)];
        assert_eq!(lint(&chain, at_day(10)), vec!["basic-constraints-missing"]);
    }

    #[test]
    fn expired_leaf_severity_bands() {
        let chain = [
            cert(1, "ICA", "old.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
        ];
        assert!(lint(&chain, at_day(120)).contains(&"leaf-expired"));
        assert!(lint(&chain, at_day(91 + 6 * 365)).contains(&"leaf-expired-5y"));
    }

    #[test]
    fn unnecessary_and_staging_flagged() {
        let chain = [
            cert(1, "ICA", "site.org", Some(false)),
            cert(2, "Root", "ICA", Some(true)),
            cert(3, "Fake LE Root X1", "Fake LE Intermediate X1", Some(true)),
        ];
        let checks = lint(&chain, at_day(10));
        assert!(checks.contains(&"unnecessary-certificate"));
        assert!(checks.contains(&"staging-certificate"));
    }

    #[test]
    fn root_included_is_informational() {
        let chain = [
            cert(1, "Root", "site.org", Some(false)),
            cert(2, "Root", "Root", Some(true)),
        ];
        let report = analyze(&chain, &CrossSignRegistry::new());
        let findings = lint_chain(&chain, &report, at_day(10));
        let root = findings
            .iter()
            .find(|f| f.check == "root-included")
            .unwrap();
        assert_eq!(root.severity, Severity::Info);
    }

    #[test]
    fn localhost_and_self_signed_tail() {
        let mut leaf = cert(1, "localhost", "localhost", None);
        leaf.validity = Validity::days_from(Asn1Time::from_unix(0), 3650);
        let chain = [leaf, cert(2, "Root", "ICA", Some(true))];
        let checks = lint(&chain, at_day(10));
        assert!(checks.contains(&"localhost-subject"));
        assert!(checks.contains(&"self-signed-leaf-with-tail"));
    }
}
