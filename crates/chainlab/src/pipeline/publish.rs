//! The incremental publish: the stages after the folds, over only what
//! the folds changed since the previous publish.
//!
//! A [`Publisher`] lives beside one growing [`PipelineState`] (the
//! `serve` daemon's) and keeps, across publishes, what a finalize would
//! otherwise recompute from every chain:
//!
//! - each resolved chain's verdict — everything pass 2 decides, none of
//!   its usage — with the usage sums, address count and SNI slice it was
//!   last counted with;
//! - the chains the table cannot resolve yet, and their records;
//! - pass 1's map from candidate entity to forged domains;
//! - the report's [`ReportRollup`].
//!
//! The state logs the chains each fold merged into and whether the
//! certificate table grew, from the first publish on. A publish then
//! resolves the chains new to it and, once the table has grown, the
//! unresolved chains waiting on a certificate it has interned since:
//! certificates never change and the table only appends, so a resolved
//! chain stays resolved. It scans the (chain, SNI) pairs pass 1 has not seen —
//! every SNI of a newly resolved chain, and the SNIs a fold added to a
//! known one, found by comparing the slice it holds with the state's (a
//! fold replaces a slice and never changes it in place). It runs pass 2
//! on the newly resolved chains and, in a publish that confirms an
//! entity, again on every cached chain holding a certificate of a newly
//! confirmed entity: such a chain may become an interception chain. A
//! chain whose verdict stands only adds its usage. So a publish costs
//! work in proportion to the chains folded since the last one; the
//! first publish of a publisher covers every chain of the state.
//!
//! The roll-up moves with the verdicts. Counts and [`Weight`] sums go up
//! and down exactly, and a touched chain's client addresses join its
//! category's sorted set. Taking a member's addresses out of a union is
//! not a delta, so a category that loses a chain recomputes its
//! addresses from its members.
//!
//! Resolve, the pass-1 scan, pass 2 and the roll-up's tally are the
//! batch finalize's own kernels ([`super::categorize`],
//! [`ReportRollup::tally`]), and a publish equals
//! [`Pipeline::finalize_state`] plus [`ReportRollup::from_analysis`] of
//! the same state: the same tables, summary and `pipeline.*` metrics.
//!
//! The publisher holds no `Arc` of a chain's usage: a fold would then
//! copy every chain it merged into (see [`PipelineState`]). It keys its
//! chains by a copy of their [`ChainKey`].
//!
//! [`Weight`]: crate::usage::Weight

use super::categorize::{self, Prepared};
use super::enrich::CertTable;
use super::ingest::SharedAccum;
use super::state::PipelineState;
use super::{par_map, resolve_threads, ChainCategoryLabel, Pipeline};
use crate::crosssign::CrossSignRegistry;
use crate::model::ChainKey;
use crate::summary::{category_slot as slot, ReportRollup, Verdict, CATEGORIES};
use crate::usage::{gather, union, Sums};
use certchain_x509::Fingerprint;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Chains below which a publish stage runs on the calling thread:
/// starting workers costs more than the stage over so few.
const PARALLEL_MIN: usize = 512;

/// What a publisher keeps of one resolved chain.
struct Cached {
    verdict: Verdict,
    /// The usage sums counted into its category.
    sums: Sums,
    /// How many client addresses it had when they joined its category.
    ips: usize,
    /// The SNI slice pass 1 has scanned.
    snis: Arc<[Arc<str>]>,
    /// The distinct issuer entities of its certificates, as ids.
    entities: Box<[u32]>,
}

/// A chain that pass 2 has just analyzed, before it joins the cache.
struct Analyzed {
    key: ChainKey,
    verdict: Verdict,
    entities: Vec<String>,
}

/// The long-lived incremental publisher (see the module doc).
#[derive(Default)]
pub struct Publisher {
    /// Whether a publish has run: the first covers every chain.
    primed: bool,
    resolved: BTreeMap<ChainKey, Cached>,
    /// Chains the table cannot resolve yet, with the records counted
    /// for each in `rollup.unresolvable_records`.
    unresolved: BTreeMap<ChainKey, u64>,
    /// The unresolved chains by a fingerprint each still lacks.
    waiting: BTreeMap<Fingerprint, Vec<ChainKey>>,
    /// How many certificates the table held at the last publish.
    certs_seen: usize,
    /// Pass 1: candidate entity → forged domains.
    candidates: BTreeMap<String, BTreeSet<Arc<str>>>,
    /// Issuer entity → the id cached chains hold it by.
    entity_ids: BTreeMap<String, u32>,
    /// Which certificates of the table some resolved chain holds.
    held: Vec<bool>,
    distinct_certificates: u64,
    /// Resolved chains per chain length.
    lengths: BTreeMap<usize, u64>,
    rollup: ReportRollup,
}

/// `threads`, or 1 for a stage over fewer than [`PARALLEL_MIN`] chains.
fn threads_for(chains: usize, threads: usize) -> usize {
    if chains < PARALLEL_MIN {
        1
    } else {
        threads
    }
}

/// A fingerprint of `key` that the table lacks, if any.
fn missing(table: &CertTable, key: &ChainKey) -> Option<Fingerprint> {
    key.0
        .iter()
        .find(|fp| table.index_of(fp).is_none())
        .copied()
}

/// The state's accumulators of a chain it holds.
fn accum_of<'s>(state: &'s PipelineState, key: &ChainKey) -> &'s SharedAccum {
    state
        .accum(key)
        .expect("the state holds every chain it logged")
}

impl Publisher {
    /// A publisher that has published nothing: its first publish covers
    /// every chain of the state it is given.
    pub fn new() -> Publisher {
        Publisher::default()
    }

    /// Bring the roll-up up to date with `state` and return it. Records
    /// the absolute `pipeline.*` counters, gauges and chain-length
    /// histogram into `pipe`'s registry, as a finalize does, and runs
    /// the `resolve`, `categorize` and `finalize` stages, each with a
    /// `chains` attribute: the chains it processed. A publisher follows
    /// one state: a state it did not publish last is published from
    /// scratch.
    pub fn publish(&mut self, pipe: &Pipeline<'_>, state: &mut PipelineState) -> &ReportRollup {
        let changes = state.take_changes();
        let state: &PipelineState = state;
        let threads = resolve_threads(pipe.options.threads);
        let table = state.cert_table();
        pipe.obs.add("pipeline.x509_rows", table.rows());
        pipe.obs
            .add("pipeline.x509_unparseable_rows", table.unparseable());
        pipe.obs
            .set("pipeline.certs_interned", table.certs().len() as u64);

        // The chains to look at: every chain on a first publish, else
        // the ones the folds merged into.
        let (touched, table_grew) = match changes {
            Some(changes) if self.primed => (changes.chains, changes.table_grew),
            _ => {
                *self = Publisher {
                    primed: true,
                    ..Publisher::default()
                };
                let every = state.chain_entries().into_iter().map(|(k, _)| k.clone());
                (every.collect(), true)
            }
        };

        let (prepared, known) = {
            let stage = pipe.obs.stage("resolve");
            let mut attempt: Vec<(ChainKey, SharedAccum)> = Vec::new();
            let mut known: Vec<ChainKey> = Vec::new();
            for key in touched {
                if self.resolved.contains_key(&key) {
                    known.push(key);
                } else if let Some(counted) = self.unresolved.get_mut(&key) {
                    // Still unresolvable unless the table grew (then it
                    // is retried below): its records may have grown.
                    let records = accum_of(state, &key).usage.records;
                    self.rollup.unresolvable_records += records - *counted;
                    *counted = records;
                } else {
                    let accum = accum_of(state, &key).clone();
                    attempt.push((key, accum));
                }
            }
            if table_grew {
                // Retry the unresolved chains waiting on a certificate the
                // table has interned since: the table only appends.
                let arrived = table.certs().get(self.certs_seen..).unwrap_or_default();
                for cert in arrived {
                    for key in self.waiting.remove(&cert.fingerprint).unwrap_or_default() {
                        match missing(table, &key) {
                            Some(fp) => self.waiting.entry(fp).or_default().push(key),
                            None => {
                                if let Some(counted) = self.unresolved.remove(&key) {
                                    self.rollup.unresolvable_records -= counted;
                                }
                                let accum = accum_of(state, &key).clone();
                                attempt.push((key, accum));
                            }
                        }
                    }
                }
            }
            self.certs_seen = table.certs().len();
            stage.attr("chains", attempt.len());
            let threads = threads_for(attempt.len(), threads);
            let (prepared, unresolved) = categorize::resolve(pipe, table, attempt, threads);
            for (key, accum) in unresolved {
                self.rollup.unresolvable_records += accum.usage.records;
                if let Some(fp) = missing(table, &key) {
                    self.waiting.entry(fp).or_default().push(key.clone());
                }
                self.unresolved.insert(key, accum.usage.records);
            }
            stage.attr("unresolvable", self.rollup.unresolvable_records);
            (prepared, known)
        };
        pipe.obs.add("pipeline.ssl_records", state.records);
        pipe.obs.add("pipeline.no_chain_records", state.no_chain);
        pipe.obs.add(
            "pipeline.unresolvable_records",
            self.rollup.unresolvable_records,
        );
        pipe.obs.set(
            "pipeline.distinct_chains",
            (self.resolved.len() + prepared.len()) as u64,
        );
        for p in &prepared {
            *self.lengths.entry(p.key.len()).or_default() += 1;
        }
        if let Some(r) = &pipe.obs.metrics {
            let lengths = r.histogram("pipeline.chain_length");
            for (&len, &n) in &self.lengths {
                lengths.observe_n(len as u64, n);
            }
        }

        let fresh = {
            let stage = pipe.obs.stage("categorize");
            let (scanned, fresh) = self.scan(pipe, state, &prepared, &known, threads);
            stage.attr("chains", scanned);
            fresh
        };

        let stage = pipe.obs.stage("finalize");
        let mut pending: [Vec<Ipv4Addr>; 4] = Default::default();
        let mut recompute = [false; 4];
        // Known chains whose verdict stands add their usage.
        for key in &known {
            let usage = &accum_of(state, key).usage;
            let Some(cached) = self.resolved.get_mut(key) else {
                continue;
            };
            let sums = Sums::of(usage);
            let category = self.rollup.category_mut(cached.verdict.category);
            category.sums.sub(&cached.sums);
            category.sums.add(&sums);
            cached.sums = sums;
            if usage.client_ips.len() != cached.ips {
                pending[slot(cached.verdict.category)].extend_from_slice(&usage.client_ips);
                cached.ips = usage.client_ips.len();
            }
        }
        let registry = pipe.pass2_registry();
        let reanalyzed = if fresh.is_empty() {
            0
        } else {
            self.reanalyze(pipe, &registry, state, &fresh, &mut pending, &mut recompute)
        };
        let newly = prepared.len();
        let entities = &self.rollup.interception_entities;
        let analyzed = par_map(
            prepared,
            threads_for(newly, threads),
            |part: Vec<Prepared>| {
                part.into_iter()
                    .map(|p| {
                        let chain = categorize::analyze_one(pipe, p, entities, &registry);
                        let mut entities: Vec<String> = chain
                            .certs
                            .iter()
                            .map(|c| categorize::issuer_entity(&c.issuer))
                            .collect();
                        entities.sort_unstable();
                        entities.dedup();
                        Analyzed {
                            verdict: Verdict::of(&chain),
                            key: chain.key,
                            entities,
                        }
                    })
                    .collect::<Vec<_>>()
            },
        );
        for chain in analyzed.into_iter().flatten() {
            self.admit(state, chain, &mut pending);
        }
        for cat in CATEGORIES {
            let at = slot(cat);
            let held = self.rollup.category_mut(cat).client_ips.take();
            let ips = if recompute[at] {
                // Taking a chain's addresses back out of a union is not a
                // delta: gather the members' again.
                let members = self
                    .resolved
                    .iter()
                    .filter(|(_, c)| c.verdict.category == cat)
                    .flat_map(|(key, _)| accum_of(state, key).usage.client_ips.iter().copied());
                gather(members.collect())
            } else if pending[at].is_empty() {
                held.unwrap_or_default()
            } else {
                let pending = gather(std::mem::take(&mut pending[at]));
                union(held.unwrap_or_default(), pending)
            };
            self.rollup.category_mut(cat).client_ips = Some(ips);
        }
        self.rollup.no_chain_records = state.no_chain;
        stage.attr("chains", known.len() + reanalyzed + newly);
        stage.attr("distinct_chains", self.resolved.len());
        stage.attr("threads", threads);
        drop(stage);
        pipe.obs
            .set("pipeline.distinct_certificates", self.distinct_certificates);
        pipe.obs.set(
            "pipeline.interception_entities",
            self.rollup.interception_entities.len() as u64,
        );
        &self.rollup
    }

    /// Pass 1 over what it has not scanned: every SNI of the newly
    /// resolved chains, and the SNIs folds added to the known ones.
    /// Returns how many chains it scanned and the entities it confirmed.
    fn scan(
        &mut self,
        pipe: &Pipeline<'_>,
        state: &PipelineState,
        prepared: &[Prepared],
        known: &[ChainKey],
        threads: usize,
    ) -> (usize, BTreeSet<String>) {
        let owned = |(entity, snis): (String, Vec<&Arc<str>>)| {
            (entity, snis.into_iter().map(Arc::clone).collect::<Vec<_>>())
        };
        let runs = par_map(
            prepared.iter().collect(),
            threads_for(prepared.len(), threads),
            |part: Vec<&Prepared>| {
                part.into_iter()
                    .filter_map(|p| categorize::forged(pipe, &p.certs, p.snis.iter()))
                    .map(owned)
                    .collect::<Vec<_>>()
            },
        );
        let mut hits: Vec<(String, Vec<Arc<str>>)> = runs.into_iter().flatten().collect();
        let mut scanned = prepared.len();
        for key in known {
            let snis = &accum_of(state, key).snis;
            let Some(cached) = self.resolved.get_mut(key) else {
                continue;
            };
            if Arc::ptr_eq(&cached.snis, snis) {
                continue;
            }
            let held = std::mem::replace(&mut cached.snis, Arc::clone(snis));
            let added = snis
                .iter()
                .filter(|sni| held.binary_search_by(|h| (**h).cmp(sni)).is_err());
            let certs = categorize::certs_of(state.cert_table(), key)
                .expect("a resolved chain stays resolved");
            if let Some(hit) = categorize::forged(pipe, &certs, added) {
                hits.push(owned(hit));
            }
            scanned += 1;
        }
        let min = pipe.options.confirmation_min_domains;
        let confirmed = &mut self.rollup.interception_entities;
        let mut fresh = BTreeSet::new();
        for (entity, snis) in hits {
            let domains = self.candidates.entry(entity.clone()).or_default();
            domains.extend(snis);
            if domains.len() >= min && !confirmed.contains(&entity) {
                fresh.insert(entity);
            }
        }
        confirmed.extend(fresh.iter().cloned());
        (scanned, fresh)
    }

    /// Pass 2 again over the cached chains holding a certificate of a
    /// newly confirmed entity: a chain whose verdict changes leaves its
    /// category, whose addresses are then gathered again, and joins its
    /// new one. Returns how many chains it analyzed.
    fn reanalyze(
        &mut self,
        pipe: &Pipeline<'_>,
        registry: &CrossSignRegistry,
        state: &PipelineState,
        fresh: &BTreeSet<String>,
        pending: &mut [Vec<Ipv4Addr>; 4],
        recompute: &mut [bool; 4],
    ) -> usize {
        let ids: BTreeSet<u32> = fresh
            .iter()
            .filter_map(|entity| self.entity_ids.get(entity).copied())
            .collect();
        if ids.is_empty() {
            return 0;
        }
        let entities = &self.rollup.interception_entities;
        let mut moved: Vec<(Verdict, Verdict, Sums)> = Vec::new();
        let mut analyzed = 0;
        for (key, cached) in &mut self.resolved {
            // An interception chain stays one whatever else is confirmed.
            if cached.verdict.category == ChainCategoryLabel::Interception
                || !cached.entities.iter().any(|id| ids.contains(id))
            {
                continue;
            }
            analyzed += 1;
            let accum = accum_of(state, key);
            let entry = (key.clone(), accum.clone());
            let Ok(p) = categorize::resolve_one(pipe, state.cert_table(), entry) else {
                continue;
            };
            let verdict = Verdict::of(&categorize::analyze_one(pipe, p, entities, registry));
            if verdict != cached.verdict {
                moved.push((cached.verdict, verdict, cached.sums));
                pending[slot(verdict.category)].extend_from_slice(&accum.usage.client_ips);
                cached.verdict = verdict;
            }
        }
        for (from, to, sums) in moved {
            self.rollup.tally(&from, false);
            self.rollup.category_mut(from.category).sums.sub(&sums);
            recompute[slot(from.category)] = true;
            self.rollup.tally(&to, true);
            self.rollup.category_mut(to.category).sums.add(&sums);
        }
        analyzed
    }

    /// Count a newly analyzed chain into the roll-up and cache it.
    fn admit(&mut self, state: &PipelineState, chain: Analyzed, pending: &mut [Vec<Ipv4Addr>; 4]) {
        let accum = accum_of(state, &chain.key);
        let sums = Sums::of(&accum.usage);
        self.rollup.tally(&chain.verdict, true);
        self.rollup
            .category_mut(chain.verdict.category)
            .sums
            .add(&sums);
        pending[slot(chain.verdict.category)].extend_from_slice(&accum.usage.client_ips);
        let table = state.cert_table();
        self.held.resize(table.certs().len(), false);
        for fp in &chain.key.0 {
            if let Some(at) = table.index_of(fp) {
                if !std::mem::replace(&mut self.held[at], true) {
                    self.distinct_certificates += 1;
                }
            }
        }
        let ids = &mut self.entity_ids;
        let entities = chain
            .entities
            .into_iter()
            .map(|entity| {
                let next = ids.len() as u32;
                *ids.entry(entity).or_insert(next)
            })
            .collect();
        self.resolved.insert(
            chain.key,
            Cached {
                verdict: chain.verdict,
                sums,
                ips: accum.usage.client_ips.len(),
                snis: Arc::clone(&accum.snis),
                entities,
            },
        );
    }
}
