//! Log-level certificate model: what the pipeline knows about a
//! certificate, reconstructed from an `x509.log` row.

use certchain_netsim::X509Record;
use certchain_x509::{DistinguishedName, Fingerprint, Validity};
use std::sync::Arc;

/// A certificate as the analysis sees it. No keys, no signatures — only
/// the fields Zeek logged (§4.2: "the X509 logs did not capture public
/// keys and signatures").
///
/// The DNs are shared: a [`crate::CertTable`] interns them, so every
/// certificate of one issuer holds the same issuer DN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// SHA-256 fingerprint (join key).
    pub fingerprint: Fingerprint,
    /// Issuer DN, parsed from the logged RFC 4514 string.
    pub issuer: Arc<DistinguishedName>,
    /// Subject DN.
    pub subject: Arc<DistinguishedName>,
    /// Validity window.
    pub validity: Validity,
    /// basicConstraints CA flag; `None` when the extension is absent.
    pub bc_ca: Option<bool>,
    /// subjectAltName dNSNames.
    pub san_dns: Vec<String>,
}

impl CertRecord {
    /// Parse a log record into the model. Returns `None` when a DN string
    /// does not parse (malformed log row).
    pub fn from_record(rec: &X509Record) -> Option<CertRecord> {
        let issuer = Arc::new(DistinguishedName::parse_rfc4514(&rec.issuer)?);
        let subject = Arc::new(DistinguishedName::parse_rfc4514(&rec.subject)?);
        Some(CertRecord::with_dns(rec, issuer, subject))
    }

    /// The model of a log record whose DN strings parsed into `issuer`
    /// and `subject`: what a [`crate::CertTable`] fold builds from the
    /// DNs it has already parsed.
    pub(crate) fn with_dns(
        rec: &X509Record,
        issuer: Arc<DistinguishedName>,
        subject: Arc<DistinguishedName>,
    ) -> CertRecord {
        CertRecord {
            fingerprint: rec.fingerprint,
            issuer,
            subject,
            validity: Validity {
                not_before: rec.not_before,
                not_after: rec.not_after,
            },
            bc_ca: rec.basic_constraints_ca,
            san_dns: rec.san_dns.clone(),
        }
    }

    /// Log-level self-signed test: issuer and subject strings identical.
    pub fn is_self_signed(&self) -> bool {
        self.issuer == self.subject
    }

    /// Whether this certificate could be an end-entity certificate: it is
    /// one unless basicConstraints explicitly marks it a CA. (Most
    /// non-public certificates omit the extension entirely, §4.3.)
    pub fn is_leaf_candidate(&self) -> bool {
        self.bc_ca != Some(true)
    }
}

/// A delivered chain's identity: the ordered fingerprint sequence from the
/// ssl.log `cert_chain_fps` field.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainKey(pub Vec<Fingerprint>);

/// Lets a `HashMap<ChainKey, _>` be probed with the borrowed fingerprint
/// slice from an ssl.log record, so the hot accumulation loop only
/// allocates a `ChainKey` for chains it has not seen before. Sound because
/// `Vec<T>` and `[T]` hash and compare identically.
impl std::borrow::Borrow<[Fingerprint]> for ChainKey {
    fn borrow(&self) -> &[Fingerprint] {
        &self.0
    }
}

impl ChainKey {
    /// Chain length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the chain is empty (a TLS 1.3 record).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;

    fn record(issuer: &str, subject: &str, bc: Option<bool>) -> X509Record {
        X509Record {
            ts: Asn1Time::from_unix(0),
            fingerprint: Fingerprint([1; 32]),
            cert_version: 3,
            serial: "01".into(),
            subject: subject.into(),
            issuer: issuer.into(),
            not_before: Asn1Time::from_unix(0),
            not_after: Asn1Time::from_unix(86_400),
            basic_constraints_ca: bc,
            path_len: None,
            san_dns: vec!["a.example.org".into()],
        }
    }

    #[test]
    fn parses_dn_strings() {
        let rec = record("CN=CA, O=Org", "CN=leaf.example.org", Some(false));
        let cert = CertRecord::from_record(&rec).unwrap();
        assert_eq!(cert.issuer.common_name(), Some("CA"));
        assert_eq!(cert.subject.common_name(), Some("leaf.example.org"));
        assert!(!cert.is_self_signed());
        assert!(cert.is_leaf_candidate());
    }

    #[test]
    fn self_signed_and_leaf_rules() {
        let rec = record("CN=x", "CN=x", None);
        let cert = CertRecord::from_record(&rec).unwrap();
        assert!(cert.is_self_signed());
        // Absent basicConstraints → still a leaf candidate.
        assert!(cert.is_leaf_candidate());

        let rec = record("CN=root", "CN=ica", Some(true));
        let cert = CertRecord::from_record(&rec).unwrap();
        assert!(!cert.is_leaf_candidate());
    }

    #[test]
    fn malformed_dn_returns_none() {
        let rec = record("NOTAKEY!=zzz", "CN=ok", None);
        assert!(CertRecord::from_record(&rec).is_none());
    }

    #[test]
    fn chain_key_basics() {
        let key = ChainKey(vec![Fingerprint([0; 32]), Fingerprint([1; 32])]);
        assert_eq!(key.len(), 2);
        assert!(!key.is_empty());
        assert!(ChainKey(vec![]).is_empty());
    }
}
