//! A crt.sh-style query index over CT logs.
//!
//! The interception-detection step of the paper (§3.2.1) asks: *for this
//! domain and this validity period, which issuers has CT recorded?* If the
//! issuer a client observed is not among them, the connection was possibly
//! intercepted.

use crate::log::CtLog;
use certchain_asn1::{Asn1Time, Decoder, Encoder};
use certchain_x509::{Certificate, DistinguishedName, Fingerprint, Validity};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One indexed record: the issuer and validity of a certificate CT
/// recorded for some domain.
#[derive(Debug, Clone)]
pub struct IndexedCert {
    /// Issuer DN, shared by every record of the certificate (and, in a
    /// decoded index, by every record of the issuer).
    pub issuer: Arc<DistinguishedName>,
    /// Validity window.
    pub validity: Validity,
}

/// Why [`DomainIndex::decode`] rejected its input: the bytes end early,
/// hold more than the layout, or break the layout rule named here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt index: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

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
            issuer: Arc::new(cert.issuer.clone()),
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
            .map(|r| &*r.issuer)
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

    /// The index as bytes that depend only on what it answers, never on
    /// hash order. Little-endian throughout:
    ///
    /// ```text
    /// u32 issuers, then each:         u32 length, the DN's DER
    /// u32 domains, ascending, each:   u32 length, the name's UTF-8,
    ///                                 u32 records (at least one), each:
    ///                                 u32 issuer code, u64 notBefore,
    ///                                 u64 notAfter (Unix seconds)
    /// u32 fingerprints, then each:    32 bytes, strictly ascending
    /// ```
    ///
    /// Each distinct issuer DN is stored once, numbered in the order the
    /// domain walk first meets it, and a domain's records keep their
    /// index order, which [`DomainIndex::recorded_issuers_overlapping`]
    /// answers in. The bytes carry no version: a file that stores them
    /// carries its own and changes it with this layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut domains: Vec<(&String, &Vec<IndexedCert>)> = self.by_domain.iter().collect();
        domains.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut codes: HashMap<&DistinguishedName, u32> = HashMap::new();
        let mut issuers: Vec<&DistinguishedName> = Vec::new();
        let mut body = Vec::new();
        put_len(&mut body, domains.len());
        for (name, records) in &domains {
            put_bytes(&mut body, name.as_bytes());
            put_len(&mut body, records.len());
            for record in records.iter() {
                let code = *codes.entry(&record.issuer).or_insert_with(|| {
                    issuers.push(&record.issuer);
                    len_u32(issuers.len() - 1)
                });
                body.extend_from_slice(&code.to_le_bytes());
                body.extend_from_slice(&record.validity.not_before.unix_secs().to_le_bytes());
                body.extend_from_slice(&record.validity.not_after.unix_secs().to_le_bytes());
            }
        }
        let mut fingerprints: Vec<&Fingerprint> = self.fingerprints.iter().collect();
        fingerprints.sort_unstable();
        put_len(&mut body, fingerprints.len());
        for fingerprint in fingerprints {
            body.extend_from_slice(&fingerprint.0);
        }

        let mut out = Vec::new();
        put_len(&mut out, issuers.len());
        for issuer in issuers {
            let mut der = Encoder::new();
            issuer.encode(&mut der);
            put_bytes(&mut out, &der.finish());
        }
        out.extend_from_slice(&body);
        out
    }

    /// Decode what [`DomainIndex::encode`] wrote. Any input, however
    /// malformed, yields an index or an error, never a panic: every
    /// count is checked against the bytes left before anything is
    /// allocated for it.
    pub fn decode(bytes: &[u8]) -> Result<DomainIndex, DecodeError> {
        let mut cur = Cur { buf: bytes };
        let issuer_count = cur.count(4)?;
        let mut issuers = Vec::with_capacity(issuer_count);
        for _ in 0..issuer_count {
            let der = cur.bytes()?;
            let mut dec = Decoder::new(der);
            let dn = DistinguishedName::decode(&mut dec)
                .ok()
                .filter(|_| dec.is_at_end())
                .ok_or(DecodeError("an issuer is not one DER name"))?;
            issuers.push(Arc::new(dn));
        }
        let domain_count = cur.count(8)?;
        let mut by_domain = HashMap::with_capacity(domain_count);
        let mut previous: Option<&[u8]> = None;
        for _ in 0..domain_count {
            let name = cur.bytes()?;
            if previous.is_some_and(|p| p >= name) {
                return Err(DecodeError("domains are not strictly ascending"));
            }
            previous = Some(name);
            let name =
                std::str::from_utf8(name).map_err(|_| DecodeError("a domain is not UTF-8"))?;
            let record_count = cur.count(20)?;
            if record_count == 0 {
                return Err(DecodeError("a domain has no records"));
            }
            let mut records = Vec::with_capacity(record_count);
            for _ in 0..record_count {
                let issuer = issuers
                    .get(cur.u32()? as usize)
                    .ok_or(DecodeError("an issuer code is out of range"))?;
                records.push(IndexedCert {
                    issuer: Arc::clone(issuer),
                    validity: Validity {
                        not_before: Asn1Time::from_unix(cur.u64()?),
                        not_after: Asn1Time::from_unix(cur.u64()?),
                    },
                });
            }
            by_domain.insert(name.to_string(), records);
        }
        let fingerprint_count = cur.count(32)?;
        let mut fingerprints = HashSet::with_capacity(fingerprint_count);
        let mut previous: Option<[u8; 32]> = None;
        for _ in 0..fingerprint_count {
            let mut fingerprint = [0u8; 32];
            fingerprint.copy_from_slice(cur.take(32)?);
            if previous.is_some_and(|p| p >= fingerprint) {
                return Err(DecodeError("fingerprints are not strictly ascending"));
            }
            previous = Some(fingerprint);
            fingerprints.insert(Fingerprint(fingerprint));
        }
        if !cur.buf.is_empty() {
            return Err(DecodeError("bytes follow the fingerprints"));
        }
        Ok(DomainIndex {
            by_domain,
            fingerprints,
        })
    }
}

/// A length or count as the encoding's `u32`. An index holds far fewer
/// than 2^32 of anything: each entry costs memory first.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).expect("an index holds fewer than 2^32 entries")
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&len_u32(n).to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Bounds-checked little-endian reader over an encoded index.
struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() {
            return Err(DecodeError("the bytes end early"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// A count of entries of at least `entry_bytes` each, which the
    /// bytes left must be able to hold.
    fn count(&mut self, entry_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(entry_bytes) > self.buf.len() {
            return Err(DecodeError("a count overruns the bytes left"));
        }
        Ok(count)
    }

    /// A `u32`-length-prefixed byte string.
    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
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

    /// An index over two issuers, a certificate naming two domains and a
    /// domain with records from both issuers.
    fn sample() -> DomainIndex {
        let mut index = DomainIndex::new();
        index.add(&leaf("Real CA", "site.org", t(2020, 9, 1), 90));
        index.add(&leaf("Old CA", "site.org", t(2019, 1, 1), 90));
        index.add(&leaf("Real CA", "other.org", t(2021, 2, 3), 30));
        let kp = KeyPair::derive(3, "san");
        index.add(
            &CertificateBuilder::new()
                .issuer(DistinguishedName::cn_o("SAN CA", "SAN Org"))
                .subject(DistinguishedName::cn("cn.example.org"))
                .validity(Validity::days_from(t(2020, 1, 1), 365))
                .extension(certchain_x509::Extension::SubjectAltName(vec![
                    "san.example.org".into(),
                    "site.org".into(),
                ]))
                .sign(&kp),
        );
        index
    }

    /// Every answer of `index` for `domains`, in query order.
    fn answers(index: &DomainIndex, domains: &[&str]) -> String {
        let mut out = format!("{} certs\n", index.len());
        for domain in domains {
            for r in index.records(domain) {
                out += &format!(
                    "{domain} {} {} {}\n",
                    r.issuer,
                    r.validity.not_before.unix_secs(),
                    r.validity.not_after.unix_secs()
                );
            }
        }
        out
    }

    const DOMAINS: [&str; 5] = [
        "site.org",
        "other.org",
        "cn.example.org",
        "san.example.org",
        "nowhere.org",
    ];

    #[test]
    fn encode_round_trips_every_answer() {
        let index = sample();
        let bytes = index.encode();
        let decoded = DomainIndex::decode(&bytes).unwrap();
        assert_eq!(answers(&decoded, &DOMAINS), answers(&index, &DOMAINS));
        assert_eq!(decoded.encode(), bytes);
        let leaf = leaf("Real CA", "site.org", t(2020, 9, 1), 90);
        assert!(decoded.contains_fingerprint(&leaf.fingerprint()));
        assert!(!decoded.knows_domain("nowhere.org"));
        // Two certificates of one issuer share its decoded DN.
        let real: Vec<_> = ["site.org", "other.org"]
            .iter()
            .flat_map(|d| decoded.records(d))
            .filter(|r| r.issuer.common_name() == Some("Real CA"))
            .collect();
        assert_eq!(real.len(), 2);
        assert!(Arc::ptr_eq(&real[0].issuer, &real[1].issuer));
    }

    #[test]
    fn encoding_ignores_hash_order() {
        // Separately built maps hash in different orders.
        let bytes = sample().encode();
        for _ in 0..8 {
            assert_eq!(sample().encode(), bytes);
        }
        let empty = DomainIndex::new().encode();
        assert!(DomainIndex::decode(&empty).unwrap().is_empty());
    }

    #[test]
    fn no_flip_or_truncation_panics_a_decode() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(DomainIndex::decode(&bytes[..len]).is_err(), "length {len}");
        }
        let mut appended = bytes.clone();
        appended.push(0);
        assert!(DomainIndex::decode(&appended).is_err());
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let _ = DomainIndex::decode(&flipped);
            }
        }
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
