//! TLS-interception detection (§3.2.1, Appendix B).
//!
//! Method, exactly as the paper describes it: filter connections whose
//! first-presented certificate's issuer appears in no trust store, then
//! cross-reference CT for the SNI domain — if CT has recorded certificates
//! for the domain in an overlapping validity period and the observed
//! issuer is not among the recorded issuers, the connection was possibly
//! intercepted. (Interception of origins whose certificates never reached
//! CT is invisible to this method; the generator plants such chains and
//! integration tests confirm they evade detection.)

use crate::model::CertRecord;
use certchain_ctlog::DomainIndex;
use certchain_trust::TrustDb;
use certchain_x509::DistinguishedName;
use std::borrow::Borrow;

/// Verdict for one (chain, SNI) observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterceptionVerdict {
    /// The observed issuer conflicts with CT's records for the domain.
    LikelyIntercepted,
    /// CT agrees with the observed issuer (or the issuer is public).
    NotIntercepted,
    /// No evidence either way (no SNI, or CT does not know the domain).
    Unknown,
}

/// Detect interception for one chain observation.
pub fn detect<C: Borrow<CertRecord>>(
    chain: &[C],
    sni: Option<&str>,
    trust: &TrustDb,
    ct: &DomainIndex,
) -> InterceptionVerdict {
    let Some(leaf) = chain.first().map(Borrow::borrow) else {
        return InterceptionVerdict::Unknown;
    };
    // Step 1: the leaf's issuer must be outside the public databases.
    if trust.is_listed_subject(&leaf.issuer) {
        return InterceptionVerdict::NotIntercepted;
    }
    // Step 2: CT cross-reference needs a domain.
    let Some(domain) = sni else {
        return InterceptionVerdict::Unknown;
    };
    if !ct.knows_domain(domain) {
        return InterceptionVerdict::Unknown;
    }
    let recorded = ct.recorded_issuers_overlapping(domain, leaf.validity);
    if recorded.is_empty() {
        return InterceptionVerdict::Unknown;
    }
    if recorded.iter().any(|dn| **dn == *leaf.issuer) {
        InterceptionVerdict::NotIntercepted
    } else {
        InterceptionVerdict::LikelyIntercepted
    }
}

/// The issuer identity an interception verdict attributes the middlebox
/// to: the leaf's issuer DN.
pub fn intercepting_issuer<C: Borrow<CertRecord>>(chain: &[C]) -> Option<&DistinguishedName> {
    chain.first().map(|leaf| &*leaf.borrow().issuer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_cryptosim::KeyPair;
    use certchain_x509::{CertificateBuilder, Fingerprint, Validity};
    use std::sync::Arc;

    struct Fixture {
        trust: TrustDb,
        ct: DomainIndex,
    }

    fn window() -> Validity {
        Validity::days_from(Asn1Time::from_ymd_hms(2020, 1, 1, 0, 0, 0).unwrap(), 3650)
    }

    fn fixture() -> Fixture {
        let kp = KeyPair::derive(1, "int:root");
        let root_dn = DistinguishedName::cn_o("Real Root", "Real CA");
        let root = CertificateBuilder::new()
            .issuer(root_dn.clone())
            .subject(root_dn.clone())
            .validity(window())
            .ca(None)
            .sign(&kp)
            .into_arc();
        let mut trust = TrustDb::new();
        trust.add_root_everywhere(Arc::clone(&root));
        // CT knows bank.example with its real issuer.
        let mut ct = DomainIndex::new();
        let leaf = CertificateBuilder::new()
            .issuer(root_dn)
            .subject(DistinguishedName::cn("bank.example"))
            .validity(window())
            .leaf_for("bank.example")
            .sign(&kp);
        ct.add(&leaf);
        Fixture { trust, ct }
    }

    fn record(issuer: &DistinguishedName, subject: &str) -> CertRecord {
        CertRecord {
            fingerprint: Fingerprint([7; 32]),
            issuer: issuer.clone().into(),
            subject: DistinguishedName::cn(subject).into(),
            validity: window(),
            bc_ca: Some(false),
            san_dns: vec![subject.to_string()],
        }
    }

    #[test]
    fn middlebox_forgery_is_detected() {
        let f = fixture();
        let mb = DistinguishedName::cn_o("Zscaler Intermediate CA", "Zscaler");
        let chain = [record(&mb, "bank.example")];
        assert_eq!(
            detect(&chain, Some("bank.example"), &f.trust, &f.ct),
            InterceptionVerdict::LikelyIntercepted
        );
        assert_eq!(intercepting_issuer(&chain), Some(&mb));
    }

    #[test]
    fn real_issuer_is_not_flagged() {
        let f = fixture();
        let real = DistinguishedName::cn_o("Real Root", "Real CA");
        let chain = [record(&real, "bank.example")];
        assert_eq!(
            detect(&chain, Some("bank.example"), &f.trust, &f.ct),
            InterceptionVerdict::NotIntercepted
        );
    }

    #[test]
    fn private_issuer_for_same_domain_recorded_in_ct_is_clean() {
        let f = fixture();
        // A non-public issuer that CT itself recorded for the domain — not
        // a mismatch (e.g. an anchored non-public issuer that CT-logs).
        let mb = DistinguishedName::cn("Ghost CA");
        let chain = [record(&mb, "unknown.example")];
        // CT does not know unknown.example at all → Unknown.
        assert_eq!(
            detect(&chain, Some("unknown.example"), &f.trust, &f.ct),
            InterceptionVerdict::Unknown
        );
    }

    #[test]
    fn no_sni_is_unknown() {
        let f = fixture();
        let mb = DistinguishedName::cn("AnyBox CA");
        let chain = [record(&mb, "bank.example")];
        assert_eq!(
            detect(&chain, None, &f.trust, &f.ct),
            InterceptionVerdict::Unknown
        );
    }

    #[test]
    fn non_overlapping_validity_is_unknown() {
        let f = fixture();
        let mb = DistinguishedName::cn("TimeShift CA");
        let mut rec = record(&mb, "bank.example");
        rec.validity =
            Validity::days_from(Asn1Time::from_ymd_hms(2035, 1, 1, 0, 0, 0).unwrap(), 10);
        assert_eq!(
            detect(&[rec], Some("bank.example"), &f.trust, &f.ct),
            InterceptionVerdict::Unknown
        );
    }

    #[test]
    fn empty_chain_is_unknown() {
        let f = fixture();
        assert_eq!(
            detect::<CertRecord>(&[], Some("bank.example"), &f.trust, &f.ct),
            InterceptionVerdict::Unknown
        );
        assert!(intercepting_issuer::<CertRecord>(&[]).is_none());
    }
}
