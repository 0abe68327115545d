//! The end-to-end analysis pipeline (Figure 2's "certificate chain
//! structure analyzer"), as five stages, each timed into the metrics
//! registry and traced as a `pipeline.<stage>` span:
//!
//! 1. enrich ([`enrich`]) — fold x509.log rows into the
//!    [`CertTable`], one shared [`CertRecord`] per distinct
//!    fingerprint under one intern rule;
//! 2. ingest ([`ingest`]) — fold ssl.log rows into per-chain
//!    accumulators on worker threads, a bounded batch or block at a
//!    time, so peak memory is O(distinct chains) rather than
//!    O(connections); on the TSV path the workers also walk and parse
//!    the lines;
//! 3. resolve (`categorize::resolve`) — look each chain's fingerprints
//!    up in the table and classify its certificates; a chain with a
//!    fingerprint the table lacks is dropped and its records counted as
//!    unresolvable;
//! 4. categorize ([`categorize`]) — interception-entity discovery
//!    (pass 1);
//! 5. finalize ([`finalize`]) — per-chain categorization and structure
//!    analysis (pass 2) over the sorted chains, and [`Analysis`]
//!    assembly, which pin the byte-identical-across-thread-counts
//!    guarantee.
//!
//! Batch callers use [`Pipeline::analyze`] over in-memory slices; the
//! bounded-memory paths never materialize the connection stream:
//! [`Pipeline::analyze_stream`] consumes `Result`-yielding record
//! iterators, and [`Pipeline::fold_ssl_log`] takes an ssl.log stream
//! (`certchain_netsim::zeek::stream`) and walks, parses and folds its
//! blocks of lines on the workers — the TSV path of `certchain analyze`
//! and `serve`. The folds fill a [`PipelineState`] (the columnar path
//! its own table and chain map); every path then runs the same resolve
//! and the stages after it.

pub mod categorize;
pub mod columnar;
pub mod enrich;
pub mod finalize;
pub mod ingest;
pub(crate) mod observe;
pub mod publish;
pub mod state;

use crate::classify::CertClass;
use crate::crosssign::CrossSignRegistry;
use crate::hybrid::HybridCategory;
use crate::matchpath::PathReport;
use crate::model::{CertRecord, ChainKey};
use crate::usage::{UsageStats, Weight};
use certchain_ctlog::DomainIndex;
use certchain_netsim::{SslRecord, X509Record};
use certchain_obs::{Progress, Registry, Span, TraceJournal};
use certchain_trust::TrustDb;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

pub use categorize::issuer_entity;
pub use enrich::{CertTable, TableFold};
pub use publish::Publisher;
pub use state::{PipelineState, StateError};

/// §3.2.2 chain categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainCategoryLabel {
    /// Exclusively public-DB-issued certificates.
    PublicOnly,
    /// Exclusively non-public-DB-issued certificates (interception
    /// excluded).
    NonPublicOnly,
    /// Both classes present.
    Hybrid,
    /// Issued by an entity identified as performing TLS interception.
    Interception,
}

/// Everything the pipeline learned about one distinct delivered chain.
///
/// `usage` and `snis` are the accumulators of the [`PipelineState`] the
/// analysis was finalized from, shared rather than copied, so finalizing
/// adds no second copy of them: `usage` holds its ports and client
/// addresses as sorted vectors, and `snis` is a sorted slice of strings
/// that every chain with the same SNI shares. A later fold never mutates
/// an analysis: it merges into the state's accumulators copy-on-write, so
/// a chain an analysis still holds is copied first and the analysis keeps
/// the values it was finalized with.
#[derive(Debug, Clone)]
pub struct ChainAnalysis {
    /// Ordered fingerprints (the chain's identity).
    pub key: ChainKey,
    /// Resolved certificate records, delivery order. Certificates are
    /// interned once per fingerprint and shared across chains.
    pub certs: Vec<Arc<CertRecord>>,
    /// Per-certificate issuer classification.
    pub classes: Vec<CertClass>,
    /// §3.2.2 category.
    pub category: ChainCategoryLabel,
    /// Issuer–subject path report.
    pub path: PathReport,
    /// Hybrid taxonomy (only for hybrid chains).
    pub hybrid_category: Option<HybridCategory>,
    /// §4.2's 56-chain subgroup membership.
    pub pub_leaf_no_intermediate: bool,
    /// Whether the chain is in the DGA cluster (§4.3).
    pub is_dga: bool,
    /// For complete non-public→public chains: is the leaf CT-logged?
    pub leaf_ct_logged: Option<bool>,
    /// The intercepting entity key, when category is Interception.
    pub interception_entity: Option<String>,
    /// SNIs observed with this chain, sorted and distinct.
    pub snis: Arc<[Arc<str>]>,
    /// Aggregated usage over the chain's connections.
    pub usage: Arc<UsageStats>,
}

/// Pipeline output.
#[derive(Debug)]
pub struct Analysis {
    /// Per-chain results, sorted by chain key ([`Analysis::chain`]
    /// looks one up by binary search).
    pub chains: Vec<ChainAnalysis>,
    /// ssl.log records carrying no certificates (TLS 1.3 connections).
    pub no_chain_records: u64,
    /// Records referencing fingerprints absent from x509.log.
    pub unresolvable_records: u64,
    /// Distinct certificates seen across all analyzed chains.
    pub distinct_certificates: usize,
    /// The interception entities identified in pass 1.
    pub interception_entities: BTreeSet<String>,
}

/// A row-level predicate applied before any connection enters the
/// analysis. Filtered-out records are completely invisible: they are not
/// counted in `pipeline.ssl_records`, the no-chain tally, or the
/// unresolvable tally. That strong semantics is what lets the segmented
/// columnar path drop whole row bands via zone maps and category
/// digests — skipping a segment none of whose rows can match is then
/// *exactly* equivalent to testing every row, so filtered reports stay
/// byte-identical across the TSV and columnar paths (either store
/// version) at every thread count.
///
/// `port` and `sni` test record fields directly ([`RowFilter::admits`]);
/// `categories` tests the chain's structural category, which needs the
/// certificate table and trust DBs, so it is evaluated through a
/// [`crate::filtercat::CategoryOracle`] built after the x509 side has
/// fully folded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowFilter {
    /// Keep only connections to this responder port.
    pub port: Option<u16>,
    /// Keep only connections that sent exactly this SNI.
    pub sni: Option<String>,
    /// Keep only connections whose chain's structural category
    /// ([`crate::filtercat::chain_category`]) is in the set.
    pub categories: Option<certchain_colstore::CategorySet>,
}

impl RowFilter {
    /// Whether the filter admits every record (the default).
    pub fn is_empty(&self) -> bool {
        self.port.is_none() && self.sni.is_none() && self.categories.is_none()
    }

    /// Whether a record with this responder port and SNI passes.
    pub fn admits(&self, resp_p: u16, sni: Option<&str>) -> bool {
        if let Some(p) = self.port {
            if resp_p != p {
                return false;
            }
        }
        match &self.sni {
            Some(want) => sni == Some(want.as_str()),
            None => true,
        }
    }
}

/// Tunable analysis options — the ablation knobs DESIGN.md calls out.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Honor cross-signing disclosures during pair matching (§4.2 /
    /// Appendix D.1). Disabling reproduces the naive matcher and its
    /// false mismatches on cross-signed chains.
    pub honor_cross_signing: bool,
    /// Minimum number of distinct forged domains before an interception
    /// candidate is confirmed (the paper's manual-investigation step).
    /// 1 disables corroboration; the default is 2.
    pub confirmation_min_domains: usize,
    /// Worker threads for the parallel stages. `0` (the default) resolves
    /// to the machine's available parallelism; `1` runs the fully
    /// sequential path. The output is byte-identical for every value:
    /// every aggregate is an integer sum (weights in fixed-point
    /// [`crate::usage::Weight`] units) or a set union, so partial folds
    /// over any split of the rows merge exactly in any order. Workers take
    /// record batches, blocks of lines or ranges of segments, whichever
    /// is next, and per-chain results then merge in `ChainKey` order.
    pub threads: usize,
    /// Connection predicate; the default admits everything. See
    /// [`RowFilter`] for the filtered-rows-are-invisible semantics.
    pub filter: RowFilter,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            honor_cross_signing: true,
            confirmation_min_domains: 2,
            threads: 0,
            filter: RowFilter::default(),
        }
    }
}

/// Resolve a thread-count knob: `0` means available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        requested
    } else {
        // srclint: allow(det-thread-sensitivity) -- knob resolution only; output is byte-identical for every thread count (determinism regression test)
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Map `f` over `items` split into at most `threads` contiguous runs of
/// near-equal length, one scoped thread per run, and return the results
/// in run order; one run (a single thread, or fewer than two items) maps
/// inline. Runs concatenate back in `items` order, so a caller that
/// merges the results in order gets the sequential result for every
/// thread count; `concat` does that for vectors. A panic in `f` panics
/// the caller.
pub fn par_map<T, R>(mut items: Vec<T>, threads: usize, f: impl Fn(Vec<T>) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    if threads <= 1 || items.len() < 2 {
        return vec![f(items)];
    }
    let run = items.len().div_ceil(threads);
    // Split runs off the tail, so each element moves once.
    let mut runs = Vec::with_capacity(threads);
    while items.len() > run {
        let at = (items.len() - 1) / run * run;
        runs.push(items.split_off(at));
    }
    runs.push(items);
    runs.reverse();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .into_iter()
            .map(|run| scope.spawn(move || f(run)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pipeline worker panicked"))
            .collect()
    })
}

/// Concatenate [`par_map`]'s vectors in run order. One run comes back as
/// it is; more go into a new vector of the calling thread's, never into a
/// worker's grown in place: that would leave the result in the worker's
/// allocator arena, which fragmented `serve`'s heap when it finalized
/// every cycle (+2.5 MiB peak RSS over a 100-rotation soak of the
/// default profile on a 2-core host).
pub(crate) fn concat<T>(mut runs: Vec<Vec<T>>) -> Vec<T> {
    if runs.len() == 1 {
        return runs.swap_remove(0);
    }
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    for run in runs {
        out.extend(run);
    }
    out
}

/// The configured analyzer.
pub struct Pipeline<'a> {
    pub(crate) trust: &'a TrustDb,
    pub(crate) ct: &'a DomainIndex,
    pub(crate) crosssign: Arc<CrossSignRegistry>,
    pub(crate) options: PipelineOptions,
    pub(crate) obs: observe::PipelineObs,
}

impl<'a> Pipeline<'a> {
    /// Configure the analyzer.
    pub fn new(
        trust: &'a TrustDb,
        ct: &'a DomainIndex,
        crosssign: CrossSignRegistry,
    ) -> Pipeline<'a> {
        Pipeline::with_options(trust, ct, crosssign, PipelineOptions::default())
    }

    /// Configure with explicit [`PipelineOptions`] (ablation studies).
    pub fn with_options(
        trust: &'a TrustDb,
        ct: &'a DomainIndex,
        crosssign: CrossSignRegistry,
        options: PipelineOptions,
    ) -> Pipeline<'a> {
        Pipeline {
            trust,
            ct,
            crosssign: Arc::new(crosssign),
            options,
            obs: observe::PipelineObs::default(),
        }
    }

    /// Attach a metrics registry. Every stage then records durations into
    /// the registry's timing section and per-stage record counts into its
    /// deterministic section; the analysis output itself is byte-identical
    /// with or without a registry attached (pinned by a regression test).
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Pipeline<'a> {
        self.obs.metrics = Some(registry);
        self
    }

    /// Attach a progress reporter, driven from the ingest loop that hands
    /// out work: records per second, batches or blocks in flight, and
    /// rows folded per worker. Progress goes to stderr only and never
    /// into any emitted artifact.
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Pipeline<'a> {
        self.obs.progress = Some(progress);
        self
    }

    /// Attach a trace journal. Fold, finalize, and dispatch stages then
    /// emit spans into the journal's bounded ring: each stage as a
    /// `pipeline.<stage>` root span, the dispatch under the ingest stage,
    /// and the stages of a one-shot analysis ([`Pipeline::analyze`],
    /// [`Pipeline::analyze_stream`], [`Pipeline::analyze_colstore`]) under
    /// one `pipeline.analyze` span. Traces are wall-clock data and live
    /// strictly on the timing side of the observability split: the
    /// analysis output and the deterministic metrics section are
    /// byte-identical with tracing on or off (pinned by tests).
    pub fn with_trace(mut self, journal: Arc<TraceJournal>) -> Pipeline<'a> {
        self.obs.trace = Some(journal.root());
        self
    }

    /// The same pipeline, its stages traced as children of `parent`, in
    /// `parent`'s journal: what a caller runs under a span of its own,
    /// as `serve` runs a fold under `serve.fold` and a finalize under
    /// `serve.finalize`.
    pub fn under(&self, parent: &Span) -> Pipeline<'a> {
        Pipeline {
            trust: self.trust,
            ct: self.ct,
            crosssign: Arc::clone(&self.crosssign),
            options: self.options.clone(),
            obs: observe::PipelineObs {
                trace: Some(parent.handle()),
                ..self.obs.clone()
            },
        }
    }

    /// Run a one-shot analysis: under a `pipeline.analyze` span when the
    /// pipeline is traced, so its stages share one parent.
    fn rooted<T>(&self, run: impl FnOnce(&Pipeline<'a>) -> T) -> T {
        match self.obs.trace.as_ref().map(|t| t.child("pipeline.analyze")) {
            Some(root) => run(&self.under(&root)),
            None => run(self),
        }
    }

    /// Run the full analysis over in-memory record slices.
    ///
    /// `weights`, when given, must align with `ssl` and carries each
    /// record's statistical weight (1.0 when absent). Each is quantized
    /// once, to a [`Weight`], before anything folds. The pipeline itself
    /// is weight-agnostic; weights only flow into the usage aggregates.
    ///
    /// The stages run on [`PipelineOptions::threads`] workers; the result
    /// is byte-identical for every thread count (see the options docs).
    ///
    /// # Panics
    ///
    /// When `weights` does not align with `ssl`, or a weight is not
    /// finite, is negative or is not below 2^36.
    pub fn analyze(
        &self,
        ssl: &[SslRecord],
        x509: &[X509Record],
        weights: Option<&[f64]>,
    ) -> Analysis {
        let weights: Option<Vec<Weight>> = weights.map(|w| {
            assert_eq!(w.len(), ssl.len(), "weights must align with ssl records");
            w.iter().map(|&w| Weight::from_f64(w)).collect()
        });
        self.rooted(|pipe| {
            let threads = resolve_threads(pipe.options.threads);
            let mut state = PipelineState::one_shot();
            pipe.fold_x509_stream(&mut state, x509.iter().map(Ok::<_, Infallible>))
                .unwrap_or_else(|never| match never {});
            let weight_of = |i: usize| weights.as_ref().map_or(Weight::ONE, |w| w[i]);
            let records = ssl.iter().enumerate().map(|(i, rec)| (rec, weight_of(i)));
            {
                let stage = pipe.obs.stage("ingest");
                let oracle = pipe.category_oracle(&state);
                let (accums, counts) =
                    ingest::accumulate(pipe, &stage, records, threads, oracle.as_ref());
                state.absorb(accums, counts);
            }
            pipe.finalize_state(&state)
        })
    }

    /// Run the full analysis over streaming record sources — the
    /// bounded-memory path. `x509` is drained first (the certificate index
    /// must exist before connections can be resolved); `ssl` is then
    /// consumed chunk by chunk, so peak memory is O(distinct chains +
    /// distinct certificates), never O(connections). Every record carries
    /// weight 1.0 (real Zeek logs have no statistical weights).
    ///
    /// The first reader error aborts the analysis and is returned as-is.
    /// For well-formed input the result is byte-identical to
    /// [`Pipeline::analyze`] over the collected records, for every thread
    /// count.
    pub fn analyze_stream<E, I, J>(&self, ssl: I, x509: J) -> Result<Analysis, E>
    where
        I: Iterator<Item = Result<SslRecord, E>>,
        J: Iterator<Item = Result<X509Record, E>>,
    {
        self.rooted(|pipe| {
            let mut state = PipelineState::one_shot();
            pipe.fold_x509_stream(&mut state, x509)?;
            pipe.fold_ssl_stream(&mut state, ssl)?;
            Ok(pipe.finalize_state(&state))
        })
    }

    /// Build the category predicate for the record paths, when the
    /// filter asks for one. Must run only after the x509 side has fully
    /// folded into `state` — the oracle snapshots the certificate table,
    /// and a partial table would call resolvable chains `incomplete`.
    pub(crate) fn category_oracle(
        &self,
        state: &PipelineState,
    ) -> Option<crate::filtercat::CategoryOracle> {
        self.options
            .filter
            .categories
            .map(|set| crate::filtercat::CategoryOracle::new(set, state.cert_table(), self.trust))
    }

    /// The cross-signing disclosures pass 2 matches pairs with: none
    /// when [`PipelineOptions::honor_cross_signing`] is off.
    pub(crate) fn pass2_registry(&self) -> Arc<CrossSignRegistry> {
        if self.options.honor_cross_signing {
            Arc::clone(&self.crosssign)
        } else {
            Arc::new(CrossSignRegistry::new())
        }
    }

    /// The stages after the folds, shared by every path: resolve each
    /// folded chain against the certificate table, then the sorted
    /// merge, pass 1, pass 2 and assembly. `entries` are the folded
    /// chains and `counts` the folds' record tallies.
    fn finish(
        &self,
        table: &CertTable,
        entries: Vec<(ChainKey, ingest::SharedAccum)>,
        counts: ingest::IngestCounts,
    ) -> Analysis {
        let threads = resolve_threads(self.options.threads);
        // Enrich accounting: row totals, parse failures and the table's
        // size (all thread-count invariant). The intern hit rate is
        // derivable as `1 - certs_interned / x509_rows`.
        self.obs.add("pipeline.x509_rows", table.rows());
        self.obs
            .add("pipeline.x509_unparseable_rows", table.unparseable());
        self.obs
            .set("pipeline.certs_interned", table.certs().len() as u64);
        let (mut prepared, unresolvable) = {
            let stage = self.obs.stage("resolve");
            stage.attr("chains", entries.len());
            let (prepared, unresolved) = categorize::resolve(self, table, entries, threads);
            let unresolvable: u64 = unresolved.iter().map(|(_, a)| a.usage.records).sum();
            stage.attr("unresolvable", unresolvable);
            (prepared, unresolvable)
        };
        // Ingest accounting: commutative integer sums plus the resolved
        // chain set's size and length distribution — all invariant across
        // thread counts by the same argument as the tables themselves.
        self.obs.add("pipeline.ssl_records", counts.records);
        self.obs.add("pipeline.no_chain_records", counts.no_chain);
        self.obs.add("pipeline.unresolvable_records", unresolvable);
        self.obs
            .set("pipeline.distinct_chains", prepared.len() as u64);
        if let Some(r) = &self.obs.metrics {
            let lengths = r.histogram("pipeline.chain_length");
            for p in &prepared {
                lengths.observe(p.key.0.len() as u64);
            }
        }

        // A single total order over chains: everything downstream —
        // pass-1 scans, pass-2 chunking, the output vector — derives from
        // it, which is what makes the result thread-count-invariant.
        prepared.sort_by(|a, b| a.key.cmp(&b.key));

        // Pass 1: identify interception entities via CT cross-referencing
        // over SNI-bearing observations. The paper confirmed candidates
        // "through manual investigation"; the automatic proxy here is
        // corroboration — an entity must be seen forging at least two
        // distinct domains.
        let interception_entities = {
            let stage = self.obs.stage("categorize");
            stage.attr("chains", prepared.len());
            categorize::find_entities(self, &prepared, threads)
        };

        // Pass 2: categorize every chain and run structure analysis. The
        // effective registry is resolved once, outside the per-chain work.
        let stage = self.obs.stage("finalize");
        stage.attr("chains", prepared.len());
        stage.attr("distinct_chains", prepared.len());
        stage.attr("threads", threads);
        let registry = self.pass2_registry();
        let (chains, distinct) =
            finalize::analyze_chains(self, prepared, &interception_entities, &registry, threads);
        let analysis = finalize::assemble(
            chains,
            distinct,
            counts.no_chain,
            unresolvable,
            interception_entities,
        );
        self.obs.set(
            "pipeline.distinct_certificates",
            analysis.distinct_certificates as u64,
        );
        self.obs.set(
            "pipeline.interception_entities",
            analysis.interception_entities.len() as u64,
        );
        analysis
    }
}

/// Iterator adapter: yields `(record, Weight::ONE)` until the first
/// `Err`, which is parked in `err` and ends the stream. This lets the
/// infallible accumulation engine drive fallible sources without
/// buffering them.
pub(crate) struct FuseOnErr<'e, E, I> {
    pub(crate) inner: I,
    pub(crate) err: &'e mut Option<E>,
}

impl<E, I, T> Iterator for FuseOnErr<'_, E, I>
where
    I: Iterator<Item = Result<T, E>>,
{
    type Item = (T, Weight);

    fn next(&mut self) -> Option<(T, Weight)> {
        if self.err.is_some() {
            return None;
        }
        match self.inner.next()? {
            Ok(rec) => Some((rec, Weight::ONE)),
            Err(e) => {
                *self.err = Some(e);
                None
            }
        }
    }
}

/// Marker trait bound used by the accumulation engine: it folds either
/// borrowed records (batch) or owned records (streaming).
pub(crate) trait SslItem: Borrow<SslRecord> + Send {}
impl<T: Borrow<SslRecord> + Send> SslItem for T {}

impl Analysis {
    /// The analysis of the chain with this key, if it was observed.
    pub fn chain(&self, key: &ChainKey) -> Option<&ChainAnalysis> {
        let at = self.chains.binary_search_by(|c| c.key.cmp(key)).ok()?;
        Some(&self.chains[at])
    }

    /// Chains of one category.
    pub fn chains_in(&self, category: ChainCategoryLabel) -> impl Iterator<Item = &ChainAnalysis> {
        self.chains.iter().filter(move |c| c.category == category)
    }

    /// Weighted usage aggregate over a chain subset, gathered in one
    /// pass ([`UsageStats::gather`]).
    pub fn usage_of(&self, mut pred: impl FnMut(&ChainAnalysis) -> bool) -> UsageStats {
        UsageStats::gather(self.chains.iter().filter(|c| pred(c)).map(|c| &*c.usage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_workload::{CampusProfile, CampusTrace};

    fn analysis() -> &'static (CampusTrace, Analysis) {
        static CELL: std::sync::OnceLock<(CampusTrace, Analysis)> = std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let trace = CampusTrace::generate(CampusProfile::quick());
            let weights: Vec<f64> = trace.conn_meta.iter().map(|m| m.weight).collect();
            let pipeline = Pipeline::new(
                &trace.eco.trust,
                &trace.ct_index,
                CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
            );
            let analysis =
                pipeline.analyze(&trace.ssl_records, &trace.x509_records, Some(&weights));
            // `analysis` borrows nothing from `trace` (all owned data), so
            // moving both into the cell is fine.
            (trace, analysis)
        })
    }

    #[test]
    fn hybrid_count_is_exactly_321() {
        let (_trace, analysis) = analysis();
        let hybrid = analysis.chains_in(ChainCategoryLabel::Hybrid).count();
        assert_eq!(hybrid, 321);
    }

    #[test]
    fn table3_categories_from_logs_alone() {
        use crate::hybrid::HybridCategory as H;
        let (_trace, analysis) = analysis();
        let mut complete_np = 0;
        let mut complete_prv = 0;
        let mut contains = 0;
        let mut no_path = 0;
        for c in analysis.chains_in(ChainCategoryLabel::Hybrid) {
            match c.hybrid_category.expect("hybrid chains are categorized") {
                H::CompleteNonPubToPub => complete_np += 1,
                H::CompletePubToPrv => complete_prv += 1,
                H::ContainsPath => contains += 1,
                H::NoPath(_) => no_path += 1,
            }
        }
        assert_eq!(complete_np, 26, "Table 3: non-pub chained to pub");
        assert_eq!(complete_prv, 10, "Table 3: pub chained to prv");
        assert_eq!(contains, 70, "Table 3: contains a matched path");
        assert_eq!(no_path, 215, "Table 3: no matched path");
    }

    #[test]
    fn table7_rows_recovered() {
        use crate::hybrid::{HybridCategory as H, NoPathCategory as N};
        use std::collections::HashMap;
        let (_trace, analysis) = analysis();
        let mut counts: HashMap<N, usize> = HashMap::new();
        for c in analysis.chains_in(ChainCategoryLabel::Hybrid) {
            if let Some(H::NoPath(n)) = c.hybrid_category {
                *counts.entry(n).or_default() += 1;
            }
        }
        assert_eq!(counts[&N::SelfSignedLeafMismatches], 108);
        assert_eq!(counts[&N::SelfSignedLeafValidSubchain], 13);
        assert_eq!(counts[&N::AllMismatched], 61);
        assert_eq!(counts[&N::PartialMismatched], 27);
        assert_eq!(counts[&N::RootAppendedToValidSubchain], 5);
        assert_eq!(counts[&N::RootAndMismatches], 1);
    }

    #[test]
    fn fifty_six_group_recovered() {
        let (_trace, analysis) = analysis();
        let in_56 = analysis
            .chains
            .iter()
            .filter(|c| c.pub_leaf_no_intermediate)
            .count();
        assert_eq!(in_56, 56);
    }

    #[test]
    fn ct_compliance_all_logged() {
        let (_trace, analysis) = analysis();
        let logged: Vec<_> = analysis
            .chains
            .iter()
            .filter_map(|c| c.leaf_ct_logged)
            .collect();
        assert_eq!(logged.len(), 26);
        assert!(logged.iter().all(|&l| l), "§4.2: all 26 leaves CT-logged");
    }

    #[test]
    fn interception_entities_found() {
        let (trace, analysis) = analysis();
        // The generator plants 80 vendors; the detector should find most
        // of them (the single-cert and no-SNI tails are only attributable
        // via entity matching, which is exactly what pass 2 does).
        assert!(
            analysis.interception_entities.len() >= 60,
            "found {} entities",
            analysis.interception_entities.len()
        );
        // And interception chains should be a large population.
        let interception = analysis.chains_in(ChainCategoryLabel::Interception).count();
        let truth_interception = trace
            .servers
            .iter()
            .filter(|s| {
                matches!(
                    s.category,
                    certchain_workload::trace::ChainCategory::Interception(_)
                )
            })
            .count();
        // Detection is best-effort (the paper's caveat): we must find most
        // but not necessarily all.
        assert!(
            interception as f64 > truth_interception as f64 * 0.9,
            "detected {interception} of {truth_interception}"
        );
    }

    #[test]
    fn undetectable_interception_misclassifies_as_nonpub() {
        let (trace, analysis) = analysis();
        // Appendix B: chains forging non-CT domains evade detection and
        // land in non-public-only — confirm at least one such chain.
        let mut evaded = 0;
        for (key, &server_idx) in &trace.truth.by_chain {
            let server = &trace.servers[server_idx];
            let truly_interception = matches!(
                server.category,
                certchain_workload::trace::ChainCategory::Interception(_)
            );
            if !truly_interception {
                continue;
            }
            let Some(chain) = analysis.chain(&ChainKey(key.clone())) else {
                continue;
            };
            if chain.category == ChainCategoryLabel::NonPublicOnly {
                evaded += 1;
            }
        }
        assert!(evaded > 0, "the Appendix-B caveat should manifest");
    }

    #[test]
    fn dga_cluster_detected() {
        let (_trace, analysis) = analysis();
        let dga = analysis.chains.iter().filter(|c| c.is_dga).count();
        assert_eq!(dga, 30, "the generated DGA cluster is fully recovered");
    }

    #[test]
    fn hybrid_establishment_rates() {
        use crate::hybrid::HybridCategory as H;
        let (_trace, analysis) = analysis();
        let complete = analysis.usage_of(|c| {
            matches!(
                c.hybrid_category,
                Some(H::CompleteNonPubToPub | H::CompletePubToPrv)
            )
        });
        let contains = analysis.usage_of(|c| matches!(c.hybrid_category, Some(H::ContainsPath)));
        let no_path = analysis.usage_of(|c| matches!(c.hybrid_category, Some(H::NoPath(_))));
        assert!((complete.established_rate() - 0.9756).abs() < 0.01);
        assert!((contains.established_rate() - 0.9204).abs() < 0.01);
        assert!((no_path.established_rate() - 0.5742).abs() < 0.015);
    }

    #[test]
    fn classification_agrees_with_ground_truth() {
        use certchain_workload::trace::ChainCategory as Truth;
        let (trace, analysis) = analysis();
        let mut agree = 0u64;
        let mut total = 0u64;
        for (key, &server_idx) in &trace.truth.by_chain {
            let Some(chain) = analysis.chain(&ChainKey(key.clone())) else {
                continue;
            };
            let got = chain.category;
            let want = &trace.servers[server_idx].category;
            total += 1;
            let matches = matches!(
                (got, want),
                (ChainCategoryLabel::PublicOnly, Truth::PublicOnly)
                    | (ChainCategoryLabel::NonPublicOnly, Truth::NonPublicOnly(_))
                    | (ChainCategoryLabel::Hybrid, Truth::Hybrid(_))
                    | (ChainCategoryLabel::Interception, Truth::Interception(_))
            );
            if matches {
                agree += 1;
            }
        }
        let accuracy = agree as f64 / total as f64;
        assert!(
            accuracy > 0.97,
            "pipeline/ground-truth agreement = {accuracy}"
        );
    }

    #[test]
    fn tls13_records_are_skipped() {
        let (_trace, analysis) = analysis();
        assert!(analysis.no_chain_records > 0);
        assert_eq!(analysis.unresolvable_records, 0);
    }

    #[test]
    fn stream_analysis_matches_batch() {
        let (trace, _analysis) = analysis();
        let pipeline = Pipeline::new(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
        );
        // Unweighted batch over the in-memory records...
        let batch = pipeline.analyze(&trace.ssl_records, &trace.x509_records, None);
        // ...must equal the streaming path over the same records (every
        // record Ok, weight 1.0), for sequential and parallel runs.
        for threads in [1usize, 3] {
            let pipeline = Pipeline::with_options(
                &trace.eco.trust,
                &trace.ct_index,
                CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
                PipelineOptions {
                    threads,
                    ..PipelineOptions::default()
                },
            );
            let streamed = pipeline
                .analyze_stream(
                    trace.ssl_records.iter().cloned().map(Ok::<_, ()>),
                    trace.x509_records.iter().cloned().map(Ok::<_, ()>),
                )
                .expect("no reader errors");
            assert_eq!(streamed.chains.len(), batch.chains.len());
            assert_eq!(streamed.no_chain_records, batch.no_chain_records);
            assert_eq!(streamed.distinct_certificates, batch.distinct_certificates);
            for (s, b) in streamed.chains.iter().zip(&batch.chains) {
                assert_eq!(s.key, b.key);
                assert_eq!(s.category, b.category);
                assert_eq!(s.usage.connections, b.usage.connections);
                assert_eq!(s.usage.established, b.usage.established);
                assert_eq!(s.snis, b.snis);
            }
        }
    }

    #[test]
    fn stream_analysis_propagates_reader_errors() {
        let (trace, _analysis) = analysis();
        let pipeline = Pipeline::new(
            &trace.eco.trust,
            &trace.ct_index,
            CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
        );
        let ssl = trace
            .ssl_records
            .iter()
            .take(100)
            .cloned()
            .map(Ok)
            .chain(std::iter::once(Err("bad row")));
        let x509 = trace.x509_records.iter().cloned().map(Ok);
        let err = pipeline.analyze_stream(ssl, x509).unwrap_err();
        assert_eq!(err, "bad row");
    }
}
