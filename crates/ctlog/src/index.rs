//! A crt.sh-style query index over CT logs.
//!
//! The interception-detection step of the paper (§3.2.1) asks: *for this
//! domain and this validity period, which issuers has CT recorded?* If the
//! issuer a client observed is not among them, the connection was possibly
//! intercepted.

use crate::log::CtLog;
use certchain_x509::{Certificate, DistinguishedName, Fingerprint, Validity};
use std::collections::{HashMap, HashSet};

/// One indexed record: the issuer and validity of a certificate CT
/// recorded for some domain.
#[derive(Debug, Clone)]
pub struct IndexedCert {
    /// Issuer DN.
    pub issuer: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
}

/// Index from DNS name to what CT recorded for it.
///
/// Names come from subjectAltName dNSName entries plus the subject CN
/// (crt.sh indexes both). The index holds no certificate: per domain it
/// keeps the issuer DN and validity of each certificate naming it, the
/// two fields interception detection compares, and beside that the set
/// of indexed fingerprints, which the CT-logging check of §4.2 and the
/// add-once rule read. A certificate can be freed once it is indexed.
#[derive(Debug, Default)]
pub struct DomainIndex {
    by_domain: HashMap<String, Vec<IndexedCert>>,
    fingerprints: HashSet<Fingerprint>,
}

impl DomainIndex {
    /// Empty index.
    pub fn new() -> DomainIndex {
        DomainIndex::default()
    }

    /// Build from a set of logs.
    pub fn build(logs: &[&CtLog]) -> DomainIndex {
        let mut index = DomainIndex::new();
        for log in logs {
            for entry in log.entries() {
                index.add(&entry.cert);
            }
        }
        index
    }

    /// Index one certificate (idempotent by fingerprint).
    pub fn add(&mut self, cert: &Certificate) {
        if !self.fingerprints.insert(cert.fingerprint()) {
            return;
        }
        let dns_names = cert.dns_names();
        let cn = cert
            .subject
            .common_name()
            .filter(|cn| !dns_names.contains(cn));
        let record = IndexedCert {
            issuer: cert.issuer.clone(),
            validity: cert.validity,
        };
        for name in dns_names.into_iter().chain(cn) {
            self.by_domain
                .entry(name.to_string())
                .or_default()
                .push(record.clone());
        }
    }

    /// All records for a domain.
    pub fn records(&self, domain: &str) -> &[IndexedCert] {
        self.by_domain.get(domain).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Issuers CT has recorded for `domain` whose validity overlaps
    /// `observed` — the comparison set for interception detection.
    pub fn recorded_issuers_overlapping(
        &self,
        domain: &str,
        observed: Validity,
    ) -> Vec<&DistinguishedName> {
        self.records(domain)
            .iter()
            .filter(|r| overlaps(r.validity, observed))
            .map(|r| &r.issuer)
            .collect()
    }

    /// Whether CT knows this domain at all.
    pub fn knows_domain(&self, domain: &str) -> bool {
        self.by_domain.contains_key(domain)
    }

    /// Whether a certificate (by fingerprint) is indexed — the
    /// CT-compliance lookup for anchored non-public leaves (§4.2).
    pub fn contains_fingerprint(&self, fingerprint: &Fingerprint) -> bool {
        self.fingerprints.contains(fingerprint)
    }

    /// Number of distinct indexed certificates.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }
}

fn overlaps(a: Validity, b: Validity) -> bool {
    a.not_before <= b.not_after && b.not_before <= a.not_after
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_cryptosim::KeyPair;
    use certchain_x509::CertificateBuilder;
    use std::sync::Arc;

    fn t(y: u64, m: u64, d: u64) -> Asn1Time {
        Asn1Time::from_ymd_hms(y, m, d, 0, 0, 0).unwrap()
    }

    fn leaf(issuer: &str, domain: &str, start: Asn1Time, days: u64) -> Arc<Certificate> {
        let kp = KeyPair::derive(1, issuer);
        CertificateBuilder::new()
            .issuer(DistinguishedName::cn_o(issuer, issuer))
            .subject(DistinguishedName::cn(domain))
            .validity(Validity::days_from(start, days))
            .leaf_for(domain)
            .sign(&kp)
            .into_arc()
    }

    #[test]
    fn indexes_san_and_cn() {
        let mut index = DomainIndex::new();
        let kp = KeyPair::derive(2, "ca");
        let cert = CertificateBuilder::new()
            .issuer(DistinguishedName::cn("CA"))
            .subject(DistinguishedName::cn("cn.example.org"))
            .validity(Validity::days_from(t(2020, 9, 1), 90))
            .extension(certchain_x509::Extension::SubjectAltName(vec![
                "san1.example.org".into(),
                "san2.example.org".into(),
            ]))
            .sign(&kp);
        index.add(&cert);
        assert!(index.knows_domain("cn.example.org"));
        assert!(index.knows_domain("san1.example.org"));
        assert!(index.knows_domain("san2.example.org"));
        assert!(!index.knows_domain("other.example.org"));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn add_is_idempotent() {
        let mut index = DomainIndex::new();
        let c = leaf("CA X", "dup.example.org", t(2020, 9, 1), 90);
        index.add(&c);
        index.add(&c);
        assert_eq!(index.records("dup.example.org").len(), 1);
    }

    #[test]
    fn issuer_overlap_query() {
        let mut index = DomainIndex::new();
        index.add(&leaf("Real CA", "site.org", t(2020, 9, 1), 90));
        index.add(&leaf("Old CA", "site.org", t(2019, 1, 1), 90));

        // Observed validity overlapping the Real CA window.
        let observed = Validity::days_from(t(2020, 10, 1), 30);
        let issuers = index.recorded_issuers_overlapping("site.org", observed);
        assert_eq!(issuers.len(), 1);
        assert_eq!(issuers[0].common_name(), Some("Real CA"));

        // An interception issuer would not appear in this set.
        let middlebox = DistinguishedName::cn_o("Zscaler Intermediate CA", "Zscaler");
        assert!(!issuers.contains(&&middlebox));
    }

    #[test]
    fn no_overlap_no_issuers() {
        let mut index = DomainIndex::new();
        index.add(&leaf("CA", "gone.org", t(2018, 1, 1), 30));
        let observed = Validity::days_from(t(2021, 1, 1), 30);
        assert!(index
            .recorded_issuers_overlapping("gone.org", observed)
            .is_empty());
    }

    #[test]
    fn build_from_logs() {
        let mut log_a = CtLog::new(1, "log-a");
        let mut log_b = CtLog::new(2, "log-b");
        let c1 = leaf("CA", "a.org", t(2020, 9, 1), 90);
        let c2 = leaf("CA", "b.org", t(2020, 9, 1), 90);
        log_a.submit(Arc::clone(&c1), t(2020, 9, 1));
        log_b.submit(Arc::clone(&c2), t(2020, 9, 1));
        // Same cert in both logs: index deduplicates.
        log_b.submit(Arc::clone(&c1), t(2020, 9, 2));
        let index = DomainIndex::build(&[&log_a, &log_b]);
        assert_eq!(index.len(), 2);
        assert!(index.knows_domain("a.org"));
        assert!(index.knows_domain("b.org"));
    }

    #[test]
    fn overlap_is_inclusive() {
        let a = Validity::days_from(t(2020, 1, 1), 10);
        let b = Validity::days_from(t(2020, 1, 11), 10); // b starts the day a ends
        assert!(overlaps(a, b));
        let c = Validity::days_from(t(2020, 1, 12), 10);
        assert!(!overlaps(a, c));
    }
}
