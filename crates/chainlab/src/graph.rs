//! Certificate-relationship graphs (Figures 5, 7, 8).
//!
//! Figure 5 draws every certificate appearing in hybrid chains as a node
//! (colored by issuer class, sized by role) with an edge between two
//! certificates that co-occur in at least one chain. Figures 7/8 highlight
//! the complex PKI structures where an intermediate is adjacent to three
//! or more distinct intermediates across chains.

use crate::classify::CertClass;
use crate::model::CertRecord;
use certchain_x509::Fingerprint;
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Node role by position and self-signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertRole {
    /// First-presented / end-entity certificates.
    Leaf,
    /// Mid-chain certificates.
    Intermediate,
    /// Self-signed certificates presented above position 0.
    Root,
}

/// One node in the chain-structure graph.
#[derive(Debug, Clone)]
pub struct CertNode {
    /// The certificate.
    pub fingerprint: Fingerprint,
    /// Issuer class (Figure 5 node color).
    pub class: CertClass,
    /// Role (Figure 5 node size). A certificate observed in several roles
    /// keeps the "largest" (root > intermediate > leaf).
    pub role: CertRole,
    /// In how many chains the certificate appears.
    pub chain_count: u64,
}

/// The co-occurrence / adjacency graph.
#[derive(Debug, Default)]
pub struct ChainGraph {
    /// Nodes by fingerprint.
    pub nodes: HashMap<Fingerprint, CertNode>,
    /// Co-occurrence edges (both endpoints in one chain), deduplicated.
    pub cooccur_edges: BTreeSet<(Fingerprint, Fingerprint)>,
    /// Adjacency edges (endpoints adjacent in one chain), deduplicated.
    pub adjacency_edges: BTreeSet<(Fingerprint, Fingerprint)>,
}

fn role_of(position: usize, cert: &CertRecord) -> CertRole {
    if position == 0 {
        CertRole::Leaf
    } else if cert.is_self_signed() {
        CertRole::Root
    } else {
        CertRole::Intermediate
    }
}

fn ordered(a: Fingerprint, b: Fingerprint) -> (Fingerprint, Fingerprint) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl ChainGraph {
    /// Empty graph.
    pub fn new() -> ChainGraph {
        ChainGraph::default()
    }

    /// Fold one chain (with per-cert classes) into the graph.
    pub fn add_chain<C: Borrow<CertRecord>>(&mut self, chain: &[C], classes: &[CertClass]) {
        for (i, (cert, &class)) in chain.iter().zip(classes).enumerate() {
            let cert = cert.borrow();
            let role = role_of(i, cert);
            self.nodes
                .entry(cert.fingerprint)
                .and_modify(|node| {
                    node.chain_count += 1;
                    node.role = stronger_role(node.role, role);
                })
                .or_insert(CertNode {
                    fingerprint: cert.fingerprint,
                    class,
                    role,
                    chain_count: 1,
                });
        }
        for i in 0..chain.len() {
            for j in i + 1..chain.len() {
                self.cooccur_edges.insert(ordered(
                    chain[i].borrow().fingerprint,
                    chain[j].borrow().fingerprint,
                ));
            }
            if i + 1 < chain.len() {
                self.adjacency_edges.insert(ordered(
                    chain[i].borrow().fingerprint,
                    chain[i + 1].borrow().fingerprint,
                ));
            }
        }
    }

    /// Node count by (class, role). Callers that render the census must
    /// order the returned map themselves (the figure code sorts rows).
    pub fn census(&self) -> HashMap<(CertClass, CertRole), u64> {
        let mut out = HashMap::new();
        // srclint: commutative -- counting fold; +1 per node in any order
        for node in self.nodes.values() {
            *out.entry((node.class, node.role)).or_default() += 1;
        }
        out
    }

    /// Figures 7/8: intermediates adjacent to at least `k` distinct other
    /// intermediates across chains.
    pub fn hub_intermediates(&self, k: usize) -> Vec<Fingerprint> {
        let is_intermediate = |fp: &Fingerprint| {
            self.nodes
                .get(fp)
                .map(|n| n.role == CertRole::Intermediate)
                .unwrap_or(false)
        };
        let mut neighbors: HashMap<Fingerprint, HashSet<Fingerprint>> = HashMap::new();
        for &(a, b) in &self.adjacency_edges {
            if is_intermediate(&a) && is_intermediate(&b) {
                neighbors.entry(a).or_default().insert(b);
                neighbors.entry(b).or_default().insert(a);
            }
        }
        let mut hubs: Vec<Fingerprint> = neighbors
            .into_iter()
            .filter_map(|(fp, n)| (n.len() >= k).then_some(fp))
            .collect();
        hubs.sort();
        hubs
    }
}

fn stronger_role(a: CertRole, b: CertRole) -> CertRole {
    use CertRole::*;
    match (a, b) {
        (Root, _) | (_, Root) => Root,
        (Intermediate, _) | (_, Intermediate) => Intermediate,
        _ => Leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_x509::{DistinguishedName, Validity};

    fn cert(n: u8, issuer: &str, subject: &str) -> CertRecord {
        CertRecord {
            fingerprint: Fingerprint([n; 32]),
            issuer: DistinguishedName::cn(issuer).into(),
            subject: DistinguishedName::cn(subject).into(),
            validity: Validity::days_from(Asn1Time::from_unix(0), 1),
            bc_ca: None,
            san_dns: vec![],
        }
    }

    use CertClass::{NonPublicDbIssued as NP, PublicDbIssued as P};

    #[test]
    fn roles_and_census() {
        let mut g = ChainGraph::new();
        let chain = [
            cert(1, "I", "leaf.org"),
            cert(2, "R", "I"),
            cert(3, "R", "R"),
        ];
        g.add_chain(&chain, &[NP, P, P]);
        let census = g.census();
        assert_eq!(census[&(NP, CertRole::Leaf)], 1);
        assert_eq!(census[&(P, CertRole::Intermediate)], 1);
        assert_eq!(census[&(P, CertRole::Root)], 1);
        assert_eq!(g.cooccur_edges.len(), 3);
        assert_eq!(g.adjacency_edges.len(), 2);
    }

    #[test]
    fn shared_certs_merge_across_chains() {
        let mut g = ChainGraph::new();
        let ica = cert(2, "R", "I");
        g.add_chain(&[cert(1, "I", "a.org"), ica.clone()], &[NP, P]);
        g.add_chain(&[cert(3, "I", "b.org"), ica.clone()], &[NP, P]);
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.nodes[&ica.fingerprint].chain_count, 2);
    }

    #[test]
    fn hub_detection() {
        let mut g = ChainGraph::new();
        // Hub H adjacent to M1, M2, M3 across three chains.
        let hub = cert(10, "Root", "H");
        for (i, m) in ["M1", "M2", "M3"].iter().enumerate() {
            let leaf = cert(20 + i as u8, m, &format!("svc{i}.org"));
            let mid = cert(30 + i as u8, "H", m);
            g.add_chain(
                &[leaf, mid, hub.clone(), cert(40, "Root", "Root")],
                &[NP, NP, NP, NP],
            );
        }
        let hubs = g.hub_intermediates(3);
        assert_eq!(hubs, vec![hub.fingerprint]);
        assert!(g.hub_intermediates(4).is_empty());
    }

    #[test]
    fn role_upgrades_to_root() {
        // The same certificate appearing first as an intermediate and
        // later self-signed at a non-leaf slot keeps the stronger role.
        let mut g = ChainGraph::new();
        let ss = cert(5, "S", "S");
        g.add_chain(&[cert(1, "S", "x.org"), ss.clone()], &[NP, NP]);
        assert_eq!(g.nodes[&ss.fingerprint].role, CertRole::Root);
        g.add_chain(&[ss.clone(), cert(6, "Q", "Qx")], &[NP, NP]);
        // Still root, even though it appeared at position 0 afterwards.
        assert_eq!(g.nodes[&ss.fingerprint].role, CertRole::Root);
    }
}
