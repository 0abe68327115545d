//! The DGA single-certificate cluster detector (§4.3).
//!
//! The paper identified a cluster of single-certificate chains whose
//! issuer and subject both carry randomly generated domain names following
//! one pattern (`www[dot]randomstring[dot]com`), distinct from each other,
//! with validity periods between 4 and 365 days. This detector keys on the
//! same observable properties: a generated-looking label (fixed affixes,
//! pronounceable-random body, no dictionary hit) in *both* DN fields of a
//! single-certificate chain.

use crate::model::CertRecord;
use std::borrow::Borrow;

/// Tiny deny-list of common real-word labels so obviously human domains
/// never cluster (the real pipeline used manual inspection; this keeps the
/// detector honest on the public population's names).
const DICTIONARY: &[&str] = &[
    "news", "video", "cloud", "shop", "mail", "search", "social", "bank", "stream", "game",
    "learn", "travel", "forum", "music", "docs", "photo", "example", "google", "test",
];

fn is_vowel(b: u8) -> bool {
    matches!(b, b'a' | b'e' | b'i' | b'o' | b'u')
}

/// Whether a CN looks like a generated `www.<label>.com` domain.
pub fn looks_generated(cn: &str) -> bool {
    let Some(rest) = cn.strip_prefix("www.") else {
        return false;
    };
    let Some(label) = rest.strip_suffix(".com") else {
        return false;
    };
    if !(8..=16).contains(&label.len()) || label.contains('.') {
        return false;
    }
    if !label.bytes().all(|b| b.is_ascii_lowercase()) {
        return false;
    }
    if DICTIONARY.iter().any(|w| label.contains(w)) {
        return false;
    }
    // Pronounceable-random shape: strict consonant/vowel alternation —
    // the signature of the cluster's generator.
    label
        .bytes()
        .enumerate()
        .all(|(i, b)| is_vowel(b) == (i % 2 == 1))
}

/// Whether a single-certificate chain belongs to the DGA cluster.
pub fn is_dga_chain<C: Borrow<CertRecord>>(chain: &[C]) -> bool {
    if chain.len() != 1 {
        return false;
    }
    let cert = chain[0].borrow();
    if cert.is_self_signed() {
        return false; // cluster members have distinct issuer and subject
    }
    let (Some(issuer_cn), Some(subject_cn)) =
        (cert.issuer.common_name(), cert.subject.common_name())
    else {
        return false;
    };
    looks_generated(issuer_cn) && looks_generated(subject_cn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_x509::{DistinguishedName, Fingerprint, Validity};

    fn single(issuer: &str, subject: &str) -> Vec<CertRecord> {
        vec![CertRecord {
            fingerprint: Fingerprint([1; 32]),
            issuer: DistinguishedName::cn(issuer).into(),
            subject: DistinguishedName::cn(subject).into(),
            validity: Validity::days_from(Asn1Time::from_unix(0), 100),
            bc_ca: None,
            san_dns: vec![],
        }]
    }

    #[test]
    fn cluster_members_detected() {
        assert!(is_dga_chain(&single(
            "www.bakelotifu.com",
            "www.rimatodesa.com"
        )));
    }

    #[test]
    fn self_signed_is_excluded() {
        assert!(!is_dga_chain(&single(
            "www.bakelotifu.com",
            "www.bakelotifu.com"
        )));
    }

    #[test]
    fn human_domains_are_excluded() {
        assert!(!is_dga_chain(&single(
            "www.mynewssite.com",
            "www.bakelotifu.com"
        )));
        assert!(!is_dga_chain(&single(
            "www.bakelotifu.com",
            "printer.local"
        )));
        assert!(!is_dga_chain(&single("Corp CA", "host.corp")));
    }

    #[test]
    fn multi_cert_chains_are_excluded() {
        let mut chain = single("www.bakelotifu.com", "www.rimatodesa.com");
        chain.push(chain[0].clone());
        assert!(!is_dga_chain(&chain));
    }

    #[test]
    fn label_shape_rules() {
        assert!(looks_generated("www.bakelotifu.com"));
        assert!(!looks_generated("www.ab.com")); // too short
        assert!(!looks_generated("www.bbkelotifu.com")); // alternation broken
        assert!(!looks_generated("www.bakelotifu.org")); // wrong suffix
        assert!(!looks_generated("bakelotifu.com")); // no www.
        assert!(!looks_generated("www.BAKELOTIFU.com")); // case
        assert!(!looks_generated("www.cloudyvideo.com")); // dictionary words
    }
}
