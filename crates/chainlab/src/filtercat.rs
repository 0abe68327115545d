//! Structural chain-category computation — the `--filter-category`
//! predicate.
//!
//! The vocabulary ([`Category`], [`CategorySet`]) lives in
//! `certchain-colstore`, because per-segment digests of it ride in the
//! columnar manifest; *computing* a row's category needs the trust
//! databases, so the computation lives here. The category is structural
//! on purpose: a function of one row's chain fingerprints, the
//! certificate table, and the trust DBs alone — never of other rows —
//! so filtering by it commutes with any record order, sharding, or
//! whole-segment skip, and filtered reports stay byte-identical across
//! every path. (The report-level interception label needs a global
//! entity-discovery pass and therefore cannot be a row predicate;
//! interception chains are structurally `non_public_only`.)
//!
//! Every path computes a category from a [`CertTable`], filled under its
//! one intern rule, and the one fold [`chain_category`]: the TSV and
//! record folds through a [`CategoryOracle`] over the state's table, the
//! store writers through an oracle over the table of the x509 rows they
//! wrote ([`CategoryOracle::into_provider`]), and the columnar fold
//! through a per-fingerprint-code [`CertCat`] vector built from its
//! table.

use crate::classify::{classify, CertClass};
use crate::model::CertRecord;
use crate::pipeline::CertTable;
use certchain_colstore::write::CategoryProvider;
use certchain_colstore::{Category, CategorySet};
use certchain_trust::TrustDb;
use certchain_x509::Fingerprint;
use std::collections::HashMap;

/// What one certificate contributes to its chain's category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertCat {
    /// The fingerprint has no parseable x509 row (yet).
    Unresolved,
    /// Public-DB issued.
    Public,
    /// Non-public, not self-signed.
    NonPublic,
    /// Non-public with issuer == subject.
    NonPublicSelfSigned,
}

impl CertCat {
    /// Classify one resolved certificate.
    pub fn of(cert: &CertRecord, trust: &TrustDb) -> CertCat {
        match classify(cert, trust) {
            CertClass::PublicDbIssued => CertCat::Public,
            CertClass::NonPublicDbIssued if cert.is_self_signed() => CertCat::NonPublicSelfSigned,
            CertClass::NonPublicDbIssued => CertCat::NonPublic,
        }
    }
}

/// Fold a chain's per-certificate classes into its structural category.
/// The one category fold in the workspace — every path (TSV, columnar,
/// store writers) routes through here.
pub fn chain_category(codes: impl IntoIterator<Item = CertCat>) -> Category {
    let mut len = 0usize;
    let mut publics = 0usize;
    let mut self_signed = 0usize;
    let mut unresolved = false;
    // srclint: commutative — pure per-class tallies, order-independent
    for code in codes {
        len += 1;
        match code {
            CertCat::Unresolved => unresolved = true,
            CertCat::Public => publics += 1,
            CertCat::NonPublic => {}
            CertCat::NonPublicSelfSigned => self_signed += 1,
        }
    }
    if len == 0 {
        Category::NoChain
    } else if unresolved {
        Category::Incomplete
    } else if len == 1 && self_signed == 1 {
        Category::SelfSigned
    } else if publics == len {
        Category::PublicOnly
    } else if publics == 0 {
        Category::NonPublicOnly
    } else {
        Category::Hybrid
    }
}

/// Resolved category predicate: a fingerprint → [`CertCat`] map over a
/// certificate table, plus the admitted [`CategorySet`]. Build it only
/// after every x509 row has been folded — the structural category of a
/// row depends on which fingerprints resolve, so an oracle built from a
/// partial certificate table would disagree with the batch pipeline.
#[derive(Debug, Clone)]
pub struct CategoryOracle {
    set: CategorySet,
    codes: HashMap<Fingerprint, CertCat>,
}

impl CategoryOracle {
    /// Classify every certificate in `table`.
    pub fn new(set: CategorySet, table: &CertTable, trust: &TrustDb) -> CategoryOracle {
        let codes = table
            .certs()
            .iter()
            .map(|cert| (cert.fingerprint, CertCat::of(cert, trust)))
            .collect();
        CategoryOracle { set, codes }
    }

    /// The oracle as a store writer's per-row category digest provider
    /// (`certchain_colstore::DatasetWriter::with_category_provider`).
    pub fn into_provider(self) -> CategoryProvider {
        Box::new(move |rec| self.category(&rec.cert_chain_fps))
    }

    /// The admitted categories.
    pub fn set(&self) -> CategorySet {
        self.set
    }

    /// The structural category of a chain, by fingerprints.
    pub fn category(&self, fps: &[Fingerprint]) -> Category {
        chain_category(
            fps.iter()
                .map(|fp| self.codes.get(fp).copied().unwrap_or(CertCat::Unresolved)),
        )
    }

    /// Whether a row with this chain passes the filter.
    pub fn admits(&self, fps: &[Fingerprint]) -> bool {
        self.set.contains(self.category(fps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_fold_covers_all_classes() {
        use CertCat::*;
        assert_eq!(chain_category([]), Category::NoChain);
        assert_eq!(chain_category([Public, Unresolved]), Category::Incomplete);
        assert_eq!(chain_category([NonPublicSelfSigned]), Category::SelfSigned);
        assert_eq!(chain_category([Public, Public]), Category::PublicOnly);
        assert_eq!(chain_category([NonPublic]), Category::NonPublicOnly);
        // Self-signed certs inside a longer chain are just non-public.
        assert_eq!(
            chain_category([NonPublic, NonPublicSelfSigned]),
            Category::NonPublicOnly
        );
        assert_eq!(chain_category([Public, NonPublic]), Category::Hybrid);
        assert_eq!(
            chain_category([NonPublicSelfSigned, Public]),
            Category::Hybrid
        );
    }
}
