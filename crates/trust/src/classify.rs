//! The paper's §3.2.1 certificate classification.

use crate::ccadb::Ccadb;
use crate::store::{RootProgram, RootStore};
use certchain_x509::{Certificate, DistinguishedName, Fingerprint};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Classification of who issued a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssuerClass {
    /// The issuer (as an intermediate or root certificate) is listed in at
    /// least one major Web PKI root store or CCADB.
    PublicDb,
    /// The issuer appears in none of the public databases. Includes
    /// self-signed certificates absent from all databases.
    NonPublicDb,
}

/// Aggregated trust databases: the major root stores plus CCADB.
#[derive(Debug, Default)]
pub struct TrustDb {
    stores: BTreeMap<RootProgram, RootStore>,
    ccadb: Ccadb,
    /// Everything listed in any store or CCADB, built on the first
    /// listing query and dropped by every mutation.
    listed: OnceLock<Listed>,
}

/// The union of the stores' and CCADB's listings, so each listing query
/// is one lookup however many databases there are.
#[derive(Debug, Default)]
struct Listed {
    fingerprints: HashSet<Fingerprint>,
    subjects: HashSet<DistinguishedName>,
}

impl TrustDb {
    /// Empty database set.
    pub fn new() -> TrustDb {
        TrustDb::default()
    }

    /// Mutable access to one program's store (created on demand).
    pub fn store_mut(&mut self, program: RootProgram) -> &mut RootStore {
        self.listed.take();
        self.stores.entry(program).or_default()
    }

    /// One program's store, if populated.
    pub fn store(&self, program: RootProgram) -> Option<&RootStore> {
        self.stores.get(&program)
    }

    /// All populated stores.
    pub fn stores(&self) -> &BTreeMap<RootProgram, RootStore> {
        &self.stores
    }

    /// The CCADB repository.
    pub fn ccadb(&self) -> &Ccadb {
        &self.ccadb
    }

    /// Add a root to every major Web PKI store at once (the common case for
    /// broadly trusted roots).
    pub fn add_root_everywhere(&mut self, root: Arc<Certificate>) {
        self.listed.take();
        for program in RootProgram::major_web_pki() {
            self.store_mut(program).add(Arc::clone(&root));
        }
    }

    /// Register an audited intermediate in CCADB (panics if the inclusion
    /// rules reject it — generation code must only feed valid entries; the
    /// fallible path is [`Ccadb::add_intermediate`]).
    pub fn add_ccadb_intermediate(&mut self, cert: Arc<Certificate>) {
        self.listed.take();
        self.ccadb
            .add_intermediate(cert, &self.stores, false, true)
            .expect("generated CCADB intermediate must satisfy inclusion rules");
    }

    /// Fallible CCADB insertion for callers exercising the rules.
    pub fn try_add_ccadb_intermediate(
        &mut self,
        cert: Arc<Certificate>,
        technically_constrained: bool,
        audited: bool,
    ) -> Result<(), crate::ccadb::CcadbRejection> {
        self.listed.take();
        self.ccadb
            .add_intermediate(cert, &self.stores, technically_constrained, audited)
    }

    /// Whether a subject DN is listed anywhere (store root or CCADB
    /// intermediate) — the "issuer is in a public database" test.
    pub fn is_listed_subject(&self, dn: &DistinguishedName) -> bool {
        self.listed().subjects.contains(dn)
    }

    /// Whether this exact certificate is listed anywhere.
    pub fn is_listed_certificate(&self, fingerprint: &Fingerprint) -> bool {
        self.listed().fingerprints.contains(fingerprint)
    }

    /// The listing union, built on first use after a mutation.
    fn listed(&self) -> &Listed {
        self.listed.get_or_init(|| {
            let mut listed = Listed::default();
            for root in self.stores.values().flat_map(RootStore::iter) {
                listed.fingerprints.insert(root.fingerprint());
                listed.subjects.insert(root.subject.clone());
            }
            for entry in self.ccadb.iter() {
                listed.fingerprints.insert(entry.cert.fingerprint());
                listed.subjects.insert(entry.cert.subject.clone());
            }
            listed
        })
    }

    /// Trusted roots matching a subject DN across all stores (deduplicated
    /// by fingerprint).
    pub fn roots_for_subject(&self, dn: &DistinguishedName) -> Vec<Arc<Certificate>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for store in self.stores.values() {
            for root in store.roots_for_subject(dn) {
                if seen.insert(root.fingerprint()) {
                    out.push(Arc::clone(root));
                }
            }
        }
        out
    }

    /// Classify a certificate per §3.2.1: public-DB when the *issuer* is
    /// listed in any store or CCADB.
    ///
    /// A trusted root itself (listed by its own fingerprint) is public-DB
    /// even though it is self-signed.
    pub fn classify(&self, cert: &Certificate) -> IssuerClass {
        if self.is_listed_certificate(&cert.fingerprint()) {
            return IssuerClass::PublicDb;
        }
        if self.is_listed_subject(&cert.issuer) {
            IssuerClass::PublicDb
        } else {
            IssuerClass::NonPublicDb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_cryptosim::KeyPair;
    use certchain_x509::{CertificateBuilder, Validity};

    fn long() -> Validity {
        Validity::days_from(Asn1Time::from_ymd_hms(2015, 1, 1, 0, 0, 0).unwrap(), 7300)
    }

    struct World {
        db: TrustDb,
        root_kp: KeyPair,
        root_dn: DistinguishedName,
        ica_kp: KeyPair,
        ica_dn: DistinguishedName,
    }

    fn world() -> World {
        let root_kp = KeyPair::derive(1, "world:root");
        let root_dn = DistinguishedName::cn_o("Public Root R1", "Public CA LLC");
        let root = CertificateBuilder::new()
            .issuer(root_dn.clone())
            .subject(root_dn.clone())
            .validity(long())
            .ca(None)
            .sign(&root_kp)
            .into_arc();
        let mut db = TrustDb::new();
        db.add_root_everywhere(Arc::clone(&root));

        let ica_kp = KeyPair::derive(1, "world:ica");
        let ica_dn = DistinguishedName::cn_o("Public ICA I1", "Public CA LLC");
        let ica = CertificateBuilder::new()
            .issuer(root_dn.clone())
            .subject(ica_dn.clone())
            .validity(long())
            .public_key(ica_kp.public().clone())
            .ca(Some(0))
            .sign(&root_kp)
            .into_arc();
        db.add_ccadb_intermediate(ica);

        World {
            db,
            root_kp,
            root_dn,
            ica_kp,
            ica_dn,
        }
    }

    #[test]
    fn leaf_from_ccadb_intermediate_is_public() {
        let w = world();
        let leaf = CertificateBuilder::new()
            .issuer(w.ica_dn.clone())
            .subject(DistinguishedName::cn("site.example.org"))
            .validity(long())
            .public_key(KeyPair::derive(2, "leaf").public().clone())
            .leaf_for("site.example.org")
            .sign(&w.ica_kp);
        assert_eq!(w.db.classify(&leaf), IssuerClass::PublicDb);
    }

    #[test]
    fn leaf_from_root_directly_is_public() {
        let w = world();
        let leaf = CertificateBuilder::new()
            .issuer(w.root_dn.clone())
            .subject(DistinguishedName::cn("direct.example.org"))
            .validity(long())
            .public_key(KeyPair::derive(3, "leaf2").public().clone())
            .leaf_for("direct.example.org")
            .sign(&w.root_kp);
        assert_eq!(w.db.classify(&leaf), IssuerClass::PublicDb);
    }

    #[test]
    fn private_issuer_is_non_public() {
        let w = world();
        let priv_kp = KeyPair::derive(4, "corp-ca");
        let leaf = CertificateBuilder::new()
            .issuer(DistinguishedName::cn_o("Corp Internal CA", "Corp"))
            .subject(DistinguishedName::cn("intranet.corp"))
            .validity(long())
            .public_key(KeyPair::derive(5, "leaf3").public().clone())
            .sign(&priv_kp);
        assert_eq!(w.db.classify(&leaf), IssuerClass::NonPublicDb);
    }

    #[test]
    fn self_signed_unlisted_is_non_public() {
        let w = world();
        let kp = KeyPair::derive(6, "self");
        let dn = DistinguishedName::cn("standalone.device");
        let cert = CertificateBuilder::new()
            .issuer(dn.clone())
            .subject(dn)
            .validity(long())
            .sign(&kp);
        assert!(cert.is_self_signed());
        assert_eq!(w.db.classify(&cert), IssuerClass::NonPublicDb);
    }

    #[test]
    fn trusted_root_itself_is_public() {
        let w = world();
        let root =
            w.db.store(RootProgram::Mozilla)
                .unwrap()
                .roots_for_subject(&w.root_dn)[0]
                .clone();
        assert!(root.is_self_signed());
        assert_eq!(w.db.classify(&root), IssuerClass::PublicDb);
    }

    /// An impersonating certificate claiming a public issuer DN still
    /// classifies as public-DB — classification is by DN listing, exactly
    /// as the paper's log-based method (which cannot verify keys) behaves.
    #[test]
    fn dn_impersonation_classifies_public() {
        let w = world();
        let rogue = KeyPair::derive(66, "rogue");
        let fake = CertificateBuilder::new()
            .issuer(w.root_dn.clone())
            .subject(DistinguishedName::cn("fake.example.org"))
            .validity(long())
            .public_key(KeyPair::derive(7, "x").public().clone())
            .sign(&rogue);
        assert_eq!(w.db.classify(&fake), IssuerClass::PublicDb);
    }

    #[test]
    fn roots_for_subject_deduplicates_across_stores() {
        let w = world();
        // The root was added to all 3 major stores; dedup yields one.
        assert_eq!(w.db.roots_for_subject(&w.root_dn).len(), 1);
    }

    fn root(name: &str, kp: &KeyPair) -> Arc<Certificate> {
        let dn = DistinguishedName::cn_o(name, "Public CA LLC");
        CertificateBuilder::new()
            .issuer(dn.clone())
            .subject(dn)
            .validity(long())
            .ca(None)
            .sign(kp)
            .into_arc()
    }

    fn ica(name: &str, w: &World) -> Arc<Certificate> {
        CertificateBuilder::new()
            .issuer(w.root_dn.clone())
            .subject(DistinguishedName::cn_o(name, "Public CA LLC"))
            .validity(long())
            .public_key(KeyPair::derive(8, name).public().clone())
            .ca(Some(0))
            .sign(&w.root_kp)
            .into_arc()
    }

    /// The listing queries answer as a probe of every store and CCADB
    /// does, for each DN as built and as re-parsed from its log string,
    /// and for each fingerprint.
    fn assert_listing_matches_probe(db: &TrustDb, certs: &[Arc<Certificate>]) {
        let mut dns = vec![DistinguishedName::cn("Nobody CA")];
        for cert in certs {
            dns.push(cert.subject.clone());
            dns.push(cert.issuer.clone());
        }
        for dn in &dns {
            let reparsed = DistinguishedName::parse_rfc4514(&dn.to_rfc4514()).unwrap();
            for dn in [dn, &reparsed] {
                let probe =
                    db.stores().values().any(|s| s.has_subject(dn)) || db.ccadb().has_subject(dn);
                assert_eq!(db.is_listed_subject(dn), probe, "{}", dn.to_rfc4514());
            }
        }
        for cert in certs {
            let fp = cert.fingerprint();
            let probe = db.stores().values().any(|s| s.contains(&fp)) || db.ccadb().contains(&fp);
            assert_eq!(db.is_listed_certificate(&fp), probe, "{fp}");
        }
    }

    #[test]
    fn listing_queries_follow_every_mutation() {
        let mut w = world();
        let apple_only = root("Apple Only Root", &KeyPair::derive(9, "apple-only"));
        let everywhere = root("Second Root", &KeyPair::derive(10, "second"));
        let audited = ica("Audited ICA", &w);
        let constrained = ica("Constrained ICA", &w);
        let rejected = ica("Rejected ICA", &w);
        let certs = [
            Arc::clone(&apple_only),
            Arc::clone(&everywhere),
            Arc::clone(&audited),
            Arc::clone(&constrained),
            Arc::clone(&rejected),
        ];
        // Each check before a mutation fills the union the mutation must
        // drop.
        assert_listing_matches_probe(&w.db, &certs);
        w.db.store_mut(RootProgram::Apple).add(apple_only);
        assert_listing_matches_probe(&w.db, &certs);
        assert!(w.db.is_listed_subject(&certs[0].subject));
        w.db.add_root_everywhere(everywhere);
        assert_listing_matches_probe(&w.db, &certs);
        assert!(w.db.is_listed_certificate(&certs[1].fingerprint()));
        w.db.add_ccadb_intermediate(audited);
        assert_listing_matches_probe(&w.db, &certs);
        assert!(w.db.is_listed_subject(&certs[2].subject));
        w.db.try_add_ccadb_intermediate(constrained, true, false)
            .unwrap();
        assert_listing_matches_probe(&w.db, &certs);
        assert!(w.db.is_listed_certificate(&certs[3].fingerprint()));
        assert!(w
            .db
            .try_add_ccadb_intermediate(rejected, false, false)
            .is_err());
        assert_listing_matches_probe(&w.db, &certs);
        assert!(!w.db.is_listed_subject(&certs[4].subject));
    }

    #[test]
    fn ccadb_subject_listing() {
        let w = world();
        assert!(w.db.is_listed_subject(&w.ica_dn));
        assert!(!w.db.is_listed_subject(&DistinguishedName::cn("nobody")));
    }
}
