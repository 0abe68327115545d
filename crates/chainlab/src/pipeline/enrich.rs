//! Stage 2 — enrich: the certificate table, one shared record per
//! distinct fingerprint.
//!
//! Real campus logs repeat certificates enormously (every connection
//! re-logs the chain it saw), so the table is the compact side of the
//! dataset: O(distinct certificates) regardless of connection volume.
//!
//! [`CertTable`] owns the one rule that decides which x509 row defines a
//! fingerprint, and every x509 reader fills one: the TSV, record and
//! `serve` folds and checkpoint reload (through
//! [`super::state::PipelineState`]), the columnar enrich, and the
//! category digests the store writers compute. Every later stage reads
//! certificates from it: the category predicate
//! ([`crate::filtercat::CategoryOracle`]) and the resolve that turns
//! each chain's fingerprints into records.

use crate::model::CertRecord;
use certchain_netsim::X509Record;
use certchain_x509::{DistinguishedName, Fingerprint};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::Arc;

/// The interned certificate table: fingerprint → shared record, in
/// intern order, with the tallies of the rows folded into it.
///
/// The intern rule, the same for every reader:
/// - the first row of a fingerprint that parses into a [`CertRecord`]
///   defines it;
/// - a later row of a fingerprint already interned counts toward
///   [`CertTable::rows`] and is not parsed;
/// - a row that fails to parse counts toward [`CertTable::unparseable`]
///   and leaves its fingerprint open for a later row.
///
/// So `rows` is every x509 row folded, and `unparseable` the rows that
/// were parsed, because their fingerprint was still open, and failed.
///
/// The table also interns DNs: every record it holds shares one
/// `Arc<DistinguishedName>` per distinct DN, so the issuer DN that a CA's
/// certificates all repeat is held once.
#[derive(Debug, Default, Clone)]
pub struct CertTable {
    /// Interned records, in intern order.
    certs: Vec<Arc<CertRecord>>,
    /// Fingerprint → index into `certs`.
    lookup: HashMap<Fingerprint, usize>,
    /// Every distinct DN of the interned records, once.
    dns: HashSet<Arc<DistinguishedName>>,
    rows: u64,
    unparseable: u64,
}

impl CertTable {
    /// An empty table.
    pub fn new() -> CertTable {
        CertTable::default()
    }

    /// Fold one x509 row under the intern rule. Returns whether it
    /// interned a new certificate. A run of rows folds through
    /// [`CertTable::folding`] instead, which parses each distinct DN
    /// string once.
    pub fn fold(&mut self, rec: &X509Record) -> bool {
        self.folding().fold(rec)
    }

    /// Start one fold of many rows: one x509.log, one columnar enrich,
    /// one checkpoint restore, one table the store rewrite builds. The
    /// fold maps each DN string it parses to the table's shared DN, and
    /// the map goes when the fold does.
    pub fn folding(&mut self) -> TableFold<'_> {
        TableFold {
            table: self,
            parsed: HashMap::new(),
        }
    }

    /// The table's copy of `dn`: an equal DN it already holds, or `dn`,
    /// now held.
    fn intern(&mut self, dn: DistinguishedName) -> Arc<DistinguishedName> {
        if let Some(held) = self.dns.get(&dn) {
            return Arc::clone(held);
        }
        let dn = Arc::new(dn);
        self.dns.insert(Arc::clone(&dn));
        dn
    }

    /// Rebuild the table a checkpoint persisted from its interned rows,
    /// in intern order, and its tallies. Each stored row was interned
    /// once, so a repeated fingerprint or a row that no longer parses is
    /// corruption, described in the error.
    pub(crate) fn restore(
        stored: &[X509Record],
        rows: u64,
        unparseable: u64,
    ) -> Result<CertTable, String> {
        let mut table = CertTable::new();
        let mut fold = table.folding();
        for rec in stored {
            if fold.table.get(&rec.fingerprint).is_some() {
                return Err(format!("duplicate stored certificate {}", rec.fingerprint));
            }
            if !fold.fold(rec) {
                return Err(format!(
                    "stored certificate {} no longer parses",
                    rec.fingerprint
                ));
            }
        }
        drop(fold);
        table.rows = rows;
        table.unparseable = unparseable;
        Ok(table)
    }

    /// The record interned for `fp`, if any.
    pub(crate) fn get(&self, fp: &Fingerprint) -> Option<&Arc<CertRecord>> {
        self.lookup.get(fp).map(|&i| &self.certs[i])
    }

    /// Where `fp`'s record sits in [`CertTable::certs`], if interned.
    pub(crate) fn index_of(&self, fp: &Fingerprint) -> Option<usize> {
        self.lookup.get(fp).copied()
    }

    /// Every interned record, in intern order.
    pub fn certs(&self) -> &[Arc<CertRecord>] {
        &self.certs
    }

    /// x509 rows folded.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Rows parsed, because their fingerprint was still open, that failed
    /// to parse.
    pub fn unparseable(&self) -> u64 {
        self.unparseable
    }
}

/// One fold of rows into a [`CertTable`] ([`CertTable::folding`]).
///
/// Seed 7's x509.log logs 15,918 DN strings, of which 5,180 are
/// distinct: the fold parses each distinct string once and maps it to
/// the table's shared DN, or to `None` when it does not parse. An
/// interned certificate's record is built from those shared DNs; the
/// table still interns DNs by value, so two spellings of one DN share a
/// copy as before. (A DN that parses joins the table's pool even when
/// its row's other DN fails; no record holds it then.) The map is the
/// fold's own and is dropped with it.
pub struct TableFold<'t> {
    table: &'t mut CertTable,
    parsed: HashMap<String, Option<Arc<DistinguishedName>>>,
}

impl TableFold<'_> {
    /// Fold one x509 row under the intern rule. Returns whether it
    /// interned a new certificate.
    pub fn fold(&mut self, rec: &X509Record) -> bool {
        match self.fold_with(&rec.fingerprint, || Ok::<_, Infallible>(rec)) {
            Ok(interned) => interned,
            Err(never) => match never {},
        }
    }

    /// [`TableFold::fold`] for a row of fingerprint `fp` that is costly
    /// to build: `row` builds it, and runs only while `fp` is still open,
    /// so a repeat costs one probe. A failure to build is returned as-is.
    pub(crate) fn fold_with<R, E>(
        &mut self,
        fp: &Fingerprint,
        row: impl FnOnce() -> Result<R, E>,
    ) -> Result<bool, E>
    where
        R: Borrow<X509Record>,
    {
        self.table.rows += 1;
        if self.table.lookup.contains_key(fp) {
            return Ok(false);
        }
        let row = row()?;
        let rec = row.borrow();
        let dns = self
            .dn(&rec.issuer)
            .and_then(|issuer| Some((issuer, self.dn(&rec.subject)?)));
        match dns {
            Some((issuer, subject)) => {
                let table = &mut *self.table;
                table.lookup.insert(*fp, table.certs.len());
                table
                    .certs
                    .push(Arc::new(CertRecord::with_dns(rec, issuer, subject)));
                Ok(true)
            }
            None => {
                self.table.unparseable += 1;
                Ok(false)
            }
        }
    }

    /// The table's DN for the logged string `text`, parsed the first time
    /// the fold meets it; `None` when it does not parse.
    fn dn(&mut self, text: &str) -> Option<Arc<DistinguishedName>> {
        if let Some(dn) = self.parsed.get(text) {
            return dn.clone();
        }
        let dn = DistinguishedName::parse_rfc4514(text).map(|dn| self.table.intern(dn));
        self.parsed.insert(text.to_string(), dn.clone());
        dn
    }
}
