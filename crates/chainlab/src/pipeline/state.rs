//! [`PipelineState`]: the pipeline's mid-fold accumulator state as a
//! first-class, persistable artifact.
//!
//! Historically the accumulators (chain key → usage stats and SNI sets,
//! the interned certificate table, the stream-loss tallies) lived and
//! died inside one `analyze` call. The paper's deployment shape is the
//! opposite: a border gateway rotates `ssl.log`/`x509.log` hourly for a
//! year, and findings must update as files arrive. This module extracts
//! the state so the pipeline splits into a **resumable fold core**
//! ([`Pipeline::fold_x509_stream`] / [`Pipeline::fold_ssl_stream`], each
//! callable any number of times, in any session) and a **pure finalize**
//! ([`Pipeline::finalize_state`]) that renders an [`super::Analysis`]
//! from any state without mutating it.
//!
//! # Why resumable folding is exact, not approximate
//!
//! The determinism rule of [`super::ingest`]: every aggregate is an
//! integer sum (weights in fixed-point [`Weight`] units) or a set union,
//! so partial folds over any split of the rows merge exactly in any
//! order. Folding a record stream as N per-file folds across N processes
//! therefore produces *bit-identical* state to one batch fold — the
//! defining invariant, pinned by tests here and by the serve/analyze
//! `cmp` smoke in CI. A checkpoint stores each sum as the `f64`
//! [`Weight::to_f64`] gives, and reload turns it back into units
//! (`Weight::exact`); that round trip is exact for every sum whose
//! units have at most 53 significant bits, which every unit-weight sum
//! (a whole number of connections) has.
//!
//! Certificate resolution is deferred to finalize: the fold core accepts
//! ssl records whose fingerprints have no x509 row *yet* (rotated files
//! interleave arbitrarily), and chains still unresolved when a report is
//! rendered are excluded there, with their record count reported as
//! `unresolvable_records` — byte-identical to the batch pipeline, which
//! drains all x509 rows before any ssl record. x509 rows intern into the
//! state's [`CertTable`] under its one rule, whichever session folds
//! them.
//!
//! # Checkpoint layout
//!
//! Persistence reuses `certchain-colstore`'s checkpoint container
//! (generation directories, manifest written last with every file's size
//! and SHA-256, loader with fallback to the last complete generation,
//! a digest check on every read). A generation is a stack of *runs*, files
//! that never change once committed:
//!
//! - each commit writes one run, `run-NNNNNN.dat` (`NNNNNN` the generation
//!   that wrote it): the x509 rows interned since the previous commit
//!   (the cert section), then the full accumulators of every chain a fold
//!   merged into since then, sorted by [`ChainKey`] so the bytes are
//!   invariant across thread counts and hash seeds (the chain section).
//!   The manifest's `meta.runs` lists the runs oldest first, with each
//!   run's certificate count, cert-section length, chain count and `from`,
//!   the first generation whose changes it holds. The state logs the
//!   chains to write through the hook that fills its publish log.
//! - older runs are *carried* by hard link with the digest the previous
//!   manifest recorded. While the run before the new one is at most twice
//!   its size, the new run absorbs it: its cert section is copied (and
//!   its whole file checked against its digest on the way), and the chains
//!   any absorbed run holds are re-encoded from their values in memory,
//!   which are the newest. So run sizes more than double down the stack, a
//!   generation holds O(log commits) files, and a stored byte is rewritten
//!   O(log commits) times. A commit with nothing new writes no run.
//! - `load_latest` reads the runs in order; a chain in a later run
//!   replaces the same chain in an earlier one. A generation written
//!   before runs (schema `certchain-checkpoint/v1`: `certs-NNNNNN.dat`
//!   chunks and one `chains.dat`, no digests) loads as the same stack: each
//!   cert chunk a run with no chains, then `chains.dat` a run with no
//!   certificates. Its files are carried into the next generation as
//!   runs, with the digests computed when they were read.
//! - after a commit, every generation but the new one and the one it
//!   carried from is removed; no manifest is opened to decide.
//! - the state frees the x509 rows a run holds once it commits, and
//!   reload rebuilds the [`CertTable`] from the runs and frees the
//!   decoded rows, so no session holds a row a run already has. A
//!   one-shot state ([`PipelineState::one_shot`]) keeps neither rows nor a
//!   log of chains to write, and refuses to be checkpointed.
//! - counters (the table's row tallies among them), loss tallies, and
//!   the folded-file ledger ride in the manifest's `meta` object.
//!   Generations written by older builds may also carry a
//!   `category_census` there; the loader checks its shape and drops it.

use super::enrich::CertTable;
use super::ingest::{merge_into, ChainAccum, IngestCounts, Partial, SharedAccum, SniPool};
use super::Pipeline;
use crate::model::ChainKey;
use crate::usage::{UsageStats, Weight};
use certchain_asn1::Asn1Time;
use certchain_colstore::{Checkpoint, CheckpointWriter, ColError, FieldFile, FieldReader};
use certchain_netsim::X509Record;
use certchain_obs::json::JsonValue;
use certchain_x509::Fingerprint;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The chains file of a generation written before runs.
const CHAINS_FILE: &str = "chains.dat";

/// A run absorbs the run before it while that one is at most this many
/// times its size.
const MERGE_RATIO: u64 = 2;

/// Errors from checkpoint persistence and reload.
#[derive(Debug)]
pub enum StateError {
    /// The underlying checkpoint container failed (I/O, truncation,
    /// manifest problems).
    Store(ColError),
    /// A field file decoded inconsistently (bad lengths, counts
    /// disagreeing with the manifest, unparseable stored rows).
    Corrupt(String),
    /// The state keeps no x509 rows ([`PipelineState::one_shot`]), so a
    /// checkpoint of it would lose certificates.
    NoRows,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Store(e) => write!(f, "checkpoint store: {e}"),
            StateError::Corrupt(msg) => write!(f, "corrupt checkpoint state: {msg}"),
            StateError::NoRows => {
                write!(f, "a one-shot state keeps no x509 rows to checkpoint")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl From<ColError> for StateError {
    fn from(e: ColError) -> StateError {
        StateError::Store(e)
    }
}

/// What the folds changed since a publish: the chains they merged
/// into, and whether the certificate table grew. A publish reads it to
/// re-resolve, re-scan and re-analyze only what changed.
#[derive(Debug, Default)]
pub(crate) struct Changes {
    /// The chains a fold merged into.
    pub(crate) chains: BTreeSet<ChainKey>,
    /// Whether a fold interned a certificate.
    pub(crate) table_grew: bool,
}

/// A chain the state holds: its accumulators, and the generation whose
/// commit last wrote them to a run (0: none has).
struct Held {
    accum: SharedAccum,
    written: u64,
}

/// A fold merges into the accumulators; the commit that writes them
/// next records its generation.
impl Partial<ChainAccum> for Held {
    type Cx = SniPool;

    fn merge(&mut self, other: ChainAccum, pool: &mut SniPool) {
        self.accum.merge(other, pool);
    }

    fn first(part: ChainAccum, pool: &mut SniPool) -> Held {
        Held {
            accum: SharedAccum::first(part, pool),
            written: 0,
        }
    }
}

/// One run of the last generation written or loaded (see the module
/// doc): a file that never changes once committed.
#[derive(Debug, Clone)]
struct Run {
    name: String,
    /// The first generation whose changes the run holds: every chain
    /// whose newest stored value it holds was last written by that
    /// generation or a later one, and every chain of an older run before
    /// it.
    from: u64,
    /// Certificate records in its cert section.
    certs: u64,
    /// The cert section's length; the chain section follows it.
    cert_bytes: u64,
    /// Chains in its chain section.
    chains: u64,
    /// Its size and digest.
    file: FieldFile,
}

impl Run {
    fn to_json(&self) -> JsonValue {
        let num = |n: u64| JsonValue::Num(n as f64);
        JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("from".into(), num(self.from)),
            ("certs".into(), num(self.certs)),
            ("cert_bytes".into(), num(self.cert_bytes)),
            ("chains".into(), num(self.chains)),
        ])
    }
}

/// Where the state was last persisted — the runs the next commit carries
/// or absorbs. Never serialized; rebuilt on load.
#[derive(Debug, Clone)]
struct PrevCheckpoint {
    dir: PathBuf,
    runs: Vec<Run>,
}

/// The pipeline's resumable accumulator state. Build one with
/// [`PipelineState::new`] (or reload with [`PipelineState::load_latest`]),
/// fold any number of record streams into it, checkpoint it between
/// folds, and render reports from it at any point with
/// [`Pipeline::finalize_state`].
///
/// The state is the one owner of the per-chain accumulators. Each chain's
/// usage stats and SNI slice sit behind an `Arc` that every
/// [`super::Analysis`] finalized from the state shares. A fold merges into
/// the usage with `Arc::make_mut` and replaces the SNI slice when it adds
/// an SNI: it copies a chain only while an analysis from before the fold
/// still holds it, and never changes what that analysis reports. Each
/// distinct SNI is one shared string, which every chain that saw it
/// holds. Of the raw x509 rows, the state keeps only
/// those interned since the last checkpoint, and of the chains it logs
/// the ones folds merged into since then: a committed checkpoint's runs
/// hold the rest, and the [`CertTable`] holds every certificate. A
/// one-shot state ([`PipelineState::one_shot`]) keeps neither.
#[derive(Default)]
pub struct PipelineState {
    /// Per-chain accumulators, shared with the analyses finalized from
    /// the state.
    chains: HashMap<ChainKey, Held>,
    /// One shared string per distinct SNI the chains hold.
    snis: SniPool,
    /// The raw x509 rows that interned certificates since the last
    /// checkpoint, in intern order: the next run's cert section. Freed
    /// once that checkpoint commits.
    certs: Vec<X509Record>,
    /// The chains a fold merged into since the last checkpoint: the next
    /// run's chain section.
    dirty: BTreeSet<ChainKey>,
    /// Set in a one-shot state: `certs` and `dirty` stay empty, and the
    /// state cannot be checkpointed.
    one_shot: bool,
    /// The certificate table and its row tallies.
    table: CertTable,
    /// Total ssl records folded (after row filtering).
    pub(crate) records: u64,
    /// Folded records with an empty chain (TLS 1.3).
    pub(crate) no_chain: u64,
    /// Loss-accounting tallies by reason (stream parse losses, skipped
    /// spool files), merged across sessions.
    loss: BTreeMap<String, u64>,
    /// Ledger of spool files already folded, in fold order.
    folded: Vec<String>,
    /// The same names, for [`PipelineState::has_folded`].
    folded_set: HashSet<String>,
    /// What the folds changed since the last publish, kept once a
    /// [`super::publish::Publisher`] has published the state.
    changes: Option<Changes>,
    /// Generation of the last checkpoint written or loaded (0 = none).
    generation: u64,
    /// In-memory change counter (bumps on every fold; not persisted).
    revision: u64,
    prev: Option<PrevCheckpoint>,
}

impl PipelineState {
    /// Fresh, empty state.
    pub fn new() -> PipelineState {
        PipelineState::default()
    }

    /// Fresh, empty state for an analysis that is never checkpointed
    /// (`certchain analyze`, [`Pipeline::analyze`],
    /// [`Pipeline::analyze_stream`]). It folds and finalizes exactly as
    /// [`PipelineState::new`]'s does, but keeps no raw x509 rows, so
    /// [`PipelineState::save_checkpoint`] refuses it with
    /// [`StateError::NoRows`].
    pub fn one_shot() -> PipelineState {
        PipelineState {
            one_shot: true,
            ..PipelineState::default()
        }
    }

    /// Total ssl records folded so far (post-filter).
    pub fn ssl_records(&self) -> u64 {
        self.records
    }

    /// Folded records that carried no certificate chain.
    pub fn no_chain_records(&self) -> u64 {
        self.no_chain
    }

    /// Total x509 rows folded so far.
    pub fn x509_rows(&self) -> u64 {
        self.table.rows()
    }

    /// The certificate table folded so far.
    pub fn cert_table(&self) -> &CertTable {
        &self.table
    }

    /// Distinct chains accumulated so far.
    pub fn distinct_chains(&self) -> usize {
        self.chains.len()
    }

    /// Distinct certificates interned so far.
    pub fn distinct_certificates(&self) -> usize {
        self.table.certs().len()
    }

    /// Generation of the last checkpoint written or loaded (0 = none).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Monotonic in-memory change counter: bumps whenever a fold adds
    /// data, so callers can cache derived artifacts (rendered reports)
    /// keyed on it. Not persisted.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The spool files already folded into this state, in fold order.
    pub fn folded_files(&self) -> &[String] {
        &self.folded
    }

    /// Whether a spool file name is already in the folded ledger.
    pub fn has_folded(&self, name: &str) -> bool {
        self.folded_set.contains(name)
    }

    /// Append a file to the folded ledger.
    pub fn note_folded(&mut self, name: &str) {
        self.folded.push(name.to_string());
        self.folded_set.insert(name.to_string());
        self.revision += 1;
    }

    /// What the folds changed since the last call, and keep the log from
    /// here on: the first call finds none kept, and the publisher making
    /// it covers every chain. Never persisted.
    pub(crate) fn take_changes(&mut self) -> Option<Changes> {
        self.changes.replace(Changes::default())
    }

    /// Bump a loss-accounting tally (e.g. `"ssl.malformed"`,
    /// `"spool.unrecognized"`). No-op at `n == 0` so callers can pass
    /// tallies through unconditionally.
    pub fn add_loss(&mut self, reason: &str, n: u64) {
        if n > 0 {
            *self.loss.entry(reason.to_string()).or_default() += n;
        }
    }

    /// The merged loss tallies, by reason.
    pub fn loss(&self) -> &BTreeMap<String, u64> {
        &self.loss
    }

    /// Fold a stream of x509 rows into the table as one fold, keeping
    /// the raw row for the next checkpoint when it interns a certificate
    /// (unless the state is one-shot). The first error stops the fold and
    /// is returned, the rows before it folded.
    fn fold_x509_rows<E, R: Borrow<X509Record>>(
        &mut self,
        rows: impl Iterator<Item = Result<R, E>>,
    ) -> Result<(), E> {
        let mut fold = self.table.folding();
        for rec in rows {
            let rec = rec?;
            let rec = rec.borrow();
            if fold.fold(rec) {
                if !self.one_shot {
                    self.certs.push(rec.clone());
                }
                if let Some(changes) = &mut self.changes {
                    changes.table_grew = true;
                }
            }
            self.revision += 1;
        }
        Ok(())
    }

    /// Absorb one fold's accumulator map and counts. Chain merges are
    /// exact (integer sums, set unions), so absorbing per-file folds
    /// reproduces the one-shot batch fold bit-for-bit. Each merge is
    /// copy-on-write (see [`PipelineState`]), a new SNI is interned, and
    /// each chain merged into is logged for the next publish and, unless
    /// the state is one-shot, the next checkpoint.
    pub(crate) fn absorb(&mut self, accums: HashMap<ChainKey, ChainAccum>, counts: IngestCounts) {
        self.records += counts.records;
        self.no_chain += counts.no_chain;
        let changes = &mut self.changes;
        let mut dirty = (!self.one_shot).then_some(&mut self.dirty);
        merge_into(&mut self.chains, accums, &mut self.snis, |key| {
            if let Some(changes) = changes {
                changes.chains.insert(key.clone());
            }
            if let Some(dirty) = &mut dirty {
                dirty.insert(key.clone());
            }
        });
        self.revision += 1;
    }

    /// Aggregate per-category record counts over everything folded so
    /// far — the checkpoint-level analogue of the columnar store's
    /// per-segment category digests. Chainless records count as `none`;
    /// chains with unresolved fingerprints as `incomplete` (they may
    /// migrate to a resolved category once more x509 files fold). A
    /// pass over every chain: `serve` does not compute it, and no
    /// checkpoint stores it.
    pub fn category_census(
        &self,
        trust: &certchain_trust::TrustDb,
    ) -> [u64; certchain_colstore::CATEGORY_COUNT] {
        let oracle = crate::filtercat::CategoryOracle::new(
            certchain_colstore::CategorySet::empty(),
            &self.table,
            trust,
        );
        let mut counts = [0u64; certchain_colstore::CATEGORY_COUNT];
        counts[certchain_colstore::Category::NoChain.index()] = self.no_chain;
        for (key, held) in self.held() {
            counts[oracle.category(&key.0).index()] += held.accum.usage.records;
        }
        counts
    }

    /// Drops a computed [`PipelineState::category_census`]: no
    /// checkpoint stores the census. Kept so that callers noting one
    /// still build.
    pub fn note_category_census(&mut self, _census: [u64; certchain_colstore::CATEGORY_COUNT]) {}

    // ---- persistence ----------------------------------------------------

    /// Write a new checkpoint generation under `root` (see the module
    /// doc's "Checkpoint layout") and remove every other generation but
    /// the one it carried from. Returns the generation number. Field
    /// files land before the manifest, so a crash mid-write leaves the
    /// previous generation as the loadable one. A one-shot state writes
    /// nothing and fails with [`StateError::NoRows`].
    pub fn save_checkpoint(&mut self, root: &Path) -> Result<u64, StateError> {
        self.save_checkpoint_traced(root, None)
    }

    /// [`PipelineState::save_checkpoint`], with an optional parent trace
    /// span: the whole commit then runs under a `checkpoint.commit` child
    /// span, with `runs` (the runs the generation holds), `merged` (the
    /// runs the new one absorbed), `delta_bytes` (what the new run would
    /// hold had it absorbed none) and `written_bytes` attributes and an
    /// event for every field write, the carried runs and the manifest
    /// fsync (see [`CheckpointWriter::attach_trace`]), and the prune of
    /// old generations under a `checkpoint.prune` one.
    pub fn save_checkpoint_traced(
        &mut self,
        root: &Path,
        trace: Option<&certchain_obs::Span>,
    ) -> Result<u64, StateError> {
        if self.one_shot {
            return Err(StateError::NoRows);
        }
        let span = trace.map(|t| t.child("checkpoint.commit"));
        let generation = Checkpoint::next_generation(root)?;
        let mut writer = CheckpointWriter::begin(root, generation)?;
        // The logged chains are written by this generation; should it
        // fail, the log keeps them for the next.
        for key in &self.dirty {
            if let Some(held) = self.chains.get_mut(key) {
                held.written = generation;
            }
        }
        let (prev_dir, mut runs) = match &self.prev {
            Some(prev) => (prev.dir.clone(), prev.runs.clone()),
            None => (PathBuf::new(), Vec::new()),
        };
        let new_certs = encode_certs(&self.certs);
        let (mut chain_bytes, mut chains) = self.chain_section(None);
        let delta = (new_certs.len() + chain_bytes.len()) as u64;
        let merging = absorbed(&mut runs, delta);
        if let Some(span) = span {
            span.attr("generation", generation.to_string());
            span.attr("runs", (runs.len() + usize::from(delta > 0)).to_string());
            span.attr("merged", merging.len().to_string());
            span.attr("delta_bytes", delta.to_string());
            writer.attach_trace(span);
        }
        for run in &runs {
            writer.carry_field(&run.name, &prev_dir.join(&run.name), run.file)?;
        }
        if delta > 0 {
            let from = merging.first().map_or(generation, |oldest| oldest.from);
            if !merging.is_empty() {
                (chain_bytes, chains) = self.chain_section(Some(from));
            }
            let name = format!("run-{generation:06}.dat");
            let mut field = writer.field(&name)?;
            let (mut certs, mut cert_bytes) = (self.certs.len() as u64, new_certs.len() as u64);
            for run in &merging {
                let mut old = FieldReader::open(&prev_dir.join(&run.name), run.file)?;
                old.copy_section(run.cert_bytes, &mut field)?;
                old.finish()?;
                certs += run.certs;
                cert_bytes += run.cert_bytes;
            }
            field.append(&new_certs)?;
            field.append(&chain_bytes)?;
            let file = field.finish()?;
            runs.push(Run {
                name,
                from,
                certs,
                cert_bytes,
                chains,
                file,
            });
        }
        self.set_meta(&mut writer, &runs);
        let sealed = writer.commit()?;
        // The new run holds these rows and chains now, and the table
        // their certificates.
        let carried_from = self.prev.as_ref().map(|_| self.generation);
        self.prev = Some(PrevCheckpoint {
            dir: sealed.dir().to_path_buf(),
            runs,
        });
        self.certs = Vec::new();
        self.dirty = BTreeSet::new();
        self.generation = generation;
        let prune = trace.map(|t| t.child("checkpoint.prune"));
        let keep: Vec<u64> = std::iter::once(generation).chain(carried_from).collect();
        Checkpoint::prune(root, &keep)?;
        drop(prune);
        Ok(generation)
    }

    /// A run's chain section and its chain count: the chains logged
    /// since the last commit, or with `since`, every chain last written
    /// by that generation or a later one, at its value now.
    fn chain_section(&self, since: Option<u64>) -> (Vec<u8>, u64) {
        let entries: Vec<(&ChainKey, &SharedAccum)> = match since {
            None => self
                .dirty
                .iter()
                .filter_map(|key| Some((key, self.accum(key)?)))
                .collect(),
            Some(from) => {
                let mut entries: Vec<_> = self
                    .held()
                    .filter(|(_, held)| held.written >= from)
                    .map(|(key, held)| (key, &held.accum))
                    .collect();
                entries.sort_by_key(|&(key, _)| key);
                entries
            }
        };
        let mut out = Vec::new();
        for &(key, accum) in &entries {
            encode_chain(&mut out, key, accum);
        }
        (out, entries.len() as u64)
    }

    /// The manifest's `meta`: counters, loss tallies, the folded-file
    /// ledger and the runs.
    fn set_meta(&self, writer: &mut CheckpointWriter, runs: &[Run]) {
        writer.set_meta("records", JsonValue::Num(self.records as f64));
        writer.set_meta("no_chain", JsonValue::Num(self.no_chain as f64));
        writer.set_meta("x509_rows", JsonValue::Num(self.table.rows() as f64));
        writer.set_meta(
            "x509_unparseable",
            JsonValue::Num(self.table.unparseable() as f64),
        );
        writer.set_meta("chains", JsonValue::Num(self.chains.len() as f64));
        writer.set_meta("certs", JsonValue::Num(self.distinct_certificates() as f64));
        writer.set_meta(
            "loss",
            JsonValue::Obj(
                self.loss
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
                    .collect(),
            ),
        );
        writer.set_meta(
            "files",
            JsonValue::Arr(self.folded.iter().cloned().map(JsonValue::Str).collect()),
        );
        writer.set_meta(
            "runs",
            JsonValue::Arr(runs.iter().map(Run::to_json).collect()),
        );
    }

    /// Load the newest complete checkpoint under `root`, falling back
    /// across partial generations ([`Checkpoint::load_latest`]), or
    /// `Ok(None)` when no complete checkpoint exists (fresh start). A
    /// generation written before runs loads too (see the module doc).
    pub fn load_latest(root: &Path) -> Result<Option<PipelineState>, StateError> {
        let Some(ckpt) = Checkpoint::load_latest(root)? else {
            return Ok(None);
        };
        let meta_u64 = |key: &str| -> Result<u64, StateError> {
            ckpt.meta
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| StateError::Corrupt(format!("meta missing numeric {key:?}")))
        };
        let mut state = PipelineState {
            records: meta_u64("records")?,
            no_chain: meta_u64("no_chain")?,
            generation: ckpt.generation,
            ..PipelineState::default()
        };
        // Older builds stored a category census, which nothing reads:
        // its shape is still checked, and it is not carried forward.
        if let Some(arr) = ckpt.meta.get("category_census").and_then(JsonValue::as_arr) {
            if arr.len() != certchain_colstore::CATEGORY_COUNT {
                return Err(StateError::Corrupt(format!(
                    "category census has {} entries, expected {}",
                    arr.len(),
                    certchain_colstore::CATEGORY_COUNT
                )));
            }
            if arr.iter().any(|value| value.as_u64().is_none()) {
                return Err(StateError::Corrupt(
                    "category census entry is not an integer".into(),
                ));
            }
        }
        if let Some(obj) = ckpt.meta.get("loss").and_then(JsonValue::as_obj) {
            for (reason, count) in obj {
                let n = count.as_u64().ok_or_else(|| {
                    StateError::Corrupt(format!("loss tally {reason:?} is not an integer"))
                })?;
                state.loss.insert(reason.clone(), n);
            }
        }
        if let Some(arr) = ckpt.meta.get("files").and_then(JsonValue::as_arr) {
            for name in arr {
                let name = name
                    .as_str()
                    .ok_or_else(|| StateError::Corrupt("non-string folded file".into()))?;
                state.folded.push(name.to_string());
                state.folded_set.insert(name.to_string());
            }
        }
        let mut runs = stored_runs(&ckpt, meta_u64("chains")?)?;
        // The rows are needed only to rebuild the table: the runs keep
        // them, so they are freed once it stands.
        let mut rows = Vec::new();
        for run in &mut runs {
            let mut field = ckpt.open_field(&run.name)?;
            let before = rows.len();
            decode_certs(&field.section(run.cert_bytes)?, &mut rows)?;
            if (rows.len() - before) as u64 != run.certs {
                return Err(StateError::Corrupt(format!(
                    "run {:?} decoded {} certificates, manifest says {}",
                    run.name,
                    rows.len() - before,
                    run.certs
                )));
            }
            let chains = field.section(run.file.bytes - run.cert_bytes)?;
            let decoded = state.decode_chains(&chains, run.from)?;
            if decoded != run.chains {
                return Err(StateError::Corrupt(format!(
                    "run {:?} decoded {decoded} chains, manifest says {}",
                    run.name, run.chains
                )));
            }
            // A generation written before digests gets them here, for
            // the generations that carry its files.
            run.file.sha256 = Some(field.finish()?);
        }
        if rows.len() as u64 != meta_u64("certs")? {
            return Err(StateError::Corrupt(format!(
                "decoded {} certificates, meta says {}",
                rows.len(),
                meta_u64("certs")?
            )));
        }
        state.table =
            CertTable::restore(&rows, meta_u64("x509_rows")?, meta_u64("x509_unparseable")?)
                .map_err(StateError::Corrupt)?;
        drop(rows);
        if state.chains.len() as u64 != meta_u64("chains")? {
            return Err(StateError::Corrupt(format!(
                "decoded {} chains, meta says {}",
                state.chains.len(),
                meta_u64("chains")?
            )));
        }
        state.prev = Some(PrevCheckpoint {
            dir: ckpt.dir().to_path_buf(),
            runs,
        });
        Ok(Some(state))
    }

    /// Every chain the state holds, in the map's hash order: every
    /// caller sorts what it takes, or sums it.
    fn held(&self) -> impl Iterator<Item = (&ChainKey, &Held)> {
        // srclint: commutative -- a keyed map's entries; each caller sorts them or adds them up
        self.chains.iter()
    }

    /// The accumulators of one chain, if the state holds it.
    pub(crate) fn accum(&self, key: &ChainKey) -> Option<&SharedAccum> {
        self.chains.get(key).map(|held| &held.accum)
    }

    /// The chain accumulators, in the map's hash order: finalize sorts
    /// what it derives from them, and a publisher's first publish files
    /// them into ordered maps.
    pub(crate) fn chain_entries(&self) -> Vec<(&ChainKey, &SharedAccum)> {
        self.held().map(|(key, held)| (key, &held.accum)).collect()
    }
}

/// Pop the runs a new run of `delta` bytes absorbs off the top of
/// `runs` and return them, oldest first: while the run under it is at
/// most [`MERGE_RATIO`] times its size, which is at most the delta and
/// the runs absorbed so far together. A commit with nothing new writes no
/// run and absorbs none.
fn absorbed(runs: &mut Vec<Run>, delta: u64) -> Vec<Run> {
    let mut size = delta;
    let mut keep = runs.len();
    while delta > 0 && keep > 0 && runs[keep - 1].file.bytes <= MERGE_RATIO * size {
        keep -= 1;
        size += runs[keep].file.bytes;
    }
    runs.split_off(keep)
}

/// The runs a generation's manifest lists, oldest first. A generation
/// written before runs lists its cert chunks (`meta.cert_chunks`) and
/// `chains.dat`, which load as runs: each chunk with no chains, then
/// `chains.dat` with no certificates, holding `chains` chains.
fn stored_runs(ckpt: &Checkpoint, chains: u64) -> Result<Vec<Run>, StateError> {
    let file = |name: &str| {
        ckpt.files
            .get(name)
            .copied()
            .ok_or_else(|| StateError::Corrupt(format!("run {name:?} not in manifest")))
    };
    let field = |entry: &JsonValue, key: &str| {
        entry
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| StateError::Corrupt(format!("run entry missing numeric {key:?}")))
    };
    let mut runs = Vec::new();
    if let Some(listed) = ckpt.meta.get("runs") {
        let listed = listed
            .as_arr()
            .ok_or_else(|| StateError::Corrupt("meta runs is not a list".into()))?;
        for entry in listed {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| StateError::Corrupt("run entry missing name".into()))?;
            let run = Run {
                name: name.to_string(),
                from: field(entry, "from")?,
                certs: field(entry, "certs")?,
                cert_bytes: field(entry, "cert_bytes")?,
                chains: field(entry, "chains")?,
                file: file(name)?,
            };
            if run.cert_bytes > run.file.bytes {
                return Err(StateError::Corrupt(format!(
                    "run {name:?}: a cert section of {} bytes in a file of {}",
                    run.cert_bytes, run.file.bytes
                )));
            }
            // A commit absorbs the runs it finds by the generations they
            // start from, so those must not decrease down the stack.
            if runs.last().is_some_and(|last: &Run| last.from > run.from) {
                return Err(StateError::Corrupt(format!(
                    "run {name:?} starts before the run under it"
                )));
            }
            runs.push(run);
        }
        return Ok(runs);
    }
    if let Some(chunks) = ckpt.meta.get("cert_chunks").and_then(JsonValue::as_arr) {
        for chunk in chunks {
            let name = chunk
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| StateError::Corrupt("cert chunk missing name".into()))?;
            let file = file(name)?;
            runs.push(Run {
                name: name.to_string(),
                from: 0,
                certs: chunk
                    .get("count")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| StateError::Corrupt("cert chunk missing count".into()))?,
                cert_bytes: file.bytes,
                chains: 0,
                file,
            });
        }
    }
    runs.push(Run {
        name: CHAINS_FILE.to_string(),
        from: ckpt.generation,
        certs: 0,
        cert_bytes: 0,
        chains,
        file: file(CHAINS_FILE)?,
    });
    Ok(runs)
}

// ---- Pipeline: the resumable fold core + pure finalize -----------------

impl Pipeline<'_> {
    /// Fold a fallible x509 record stream, owned or borrowed rows, into
    /// `state` — the enrich stage, in order, under the [`CertTable`]
    /// intern rule. Callable any number of times, in any session.
    pub fn fold_x509_stream<E, R, J>(&self, state: &mut PipelineState, x509: J) -> Result<(), E>
    where
        R: Borrow<X509Record>,
        J: Iterator<Item = Result<R, E>>,
    {
        let stage = self.obs.stage("enrich");
        let before = state.x509_rows();
        let folded = state.fold_x509_rows(x509);
        stage.attr("rows", state.x509_rows() - before);
        folded
    }

    /// Fold a fallible ssl record stream into `state` — the resumable
    /// form of the ingest stage, split across
    /// [`super::PipelineOptions::threads`] workers like the batch fold.
    /// Every record folds [`Weight::ONE`]. Certificate resolution is
    /// deferred to finalize, so this never needs the x509 side to have
    /// arrived first — *unless* the row filter names categories, whose
    /// predicate snapshots the certificate table at fold time and
    /// therefore requires the x509 side to be complete first (the
    /// one-shot CLI paths guarantee this; the incremental serve daemon
    /// does not expose category filtering).
    pub fn fold_ssl_stream<E, I>(&self, state: &mut PipelineState, ssl: I) -> Result<(), E>
    where
        I: Iterator<Item = Result<certchain_netsim::SslRecord, E>>,
    {
        let stage = self.obs.stage("ingest");
        let threads = super::resolve_threads(self.options.threads);
        let oracle = self.category_oracle(state);
        let mut first_err: Option<E> = None;
        let records = super::FuseOnErr {
            inner: ssl,
            err: &mut first_err,
        };
        let (accums, counts) =
            super::ingest::accumulate(self, &stage, records, threads, oracle.as_ref());
        if let Some(e) = first_err {
            return Err(e);
        }
        state.absorb(accums, counts);
        Ok(())
    }

    /// Fold an ssl.log into `state`, its blocks walked, parsed and folded
    /// on the workers — the TSV path of `certchain analyze` and `serve`.
    /// The reading thread only reads blocks of whole lines off `log`;
    /// rows are parsed with the netsim row kernel on the workers and
    /// folded straight from the borrowed view, with no `SslRecord` built.
    /// A permissive stream skips and tallies malformed rows; a strict one
    /// fails on the first. The state comes out as
    /// [`Pipeline::fold_ssl_stream`] over the same stream leaves it, for
    /// every thread count, and so do the stream's tallies, also after the
    /// stream's first fatal line, which is returned with its number. On
    /// an error the state is untouched. Same category-filter caveat as
    /// [`Pipeline::fold_ssl_stream`].
    pub fn fold_ssl_log<R: std::io::Read>(
        &self,
        state: &mut PipelineState,
        log: certchain_netsim::SslLogStream<R>,
    ) -> Result<(), certchain_netsim::ReadError> {
        let stage = self.obs.stage("ingest");
        let threads = super::resolve_threads(self.options.threads);
        let oracle = self.category_oracle(state);
        let (accums, counts) =
            super::ingest::accumulate_log(self, &stage, log, threads, oracle.as_ref())?;
        state.absorb(accums, counts);
        Ok(())
    }

    /// Render an [`super::Analysis`] from `state` without consuming or
    /// mutating it: the shared resolve and the stages after it, over the
    /// state's chains (chains with missing fingerprints are excluded and
    /// their records counted as unresolvable) and its certificate table.
    /// The analysis shares each chain's accumulators with the state (see
    /// [`PipelineState`]). Byte-identical to the one-shot batch paths for
    /// every thread count.
    pub fn finalize_state(&self, state: &PipelineState) -> super::Analysis {
        let counts = IngestCounts {
            records: state.records,
            no_chain: state.no_chain,
        };
        let entries = state
            .chain_entries()
            .into_iter()
            .map(|(key, accum)| (key.clone(), accum.clone()))
            .collect();
        self.finish(&state.table, entries, counts)
    }
}

// ---- binary field codecs ----------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A weight sum is stored as the raw IEEE 754 bits of its `f64`, which
/// [`Cur::weight`] turns back into the same units (see the module doc):
/// a unit-weight sum is the whole number of connections, as older builds
/// wrote it.
fn put_weight(out: &mut Vec<u8>, w: Weight) {
    out.extend_from_slice(&w.to_f64().to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a field file.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                StateError::Corrupt(format!(
                    "field file ends early: wanted {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8_(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    fn u16_(&mut self) -> Result<u16, StateError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32_(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64_(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// A count of entries of at least `entry_bytes` each, which the rest
    /// of the field must be able to hold: a corrupt count is an error
    /// here, not an allocation the size of 2^32 entries.
    fn count(&mut self, entry_bytes: usize) -> Result<usize, StateError> {
        let at = self.pos;
        let count = self.u32_()? as usize;
        if count.saturating_mul(entry_bytes) > self.buf.len() - self.pos {
            return Err(StateError::Corrupt(format!(
                "count {count} at offset {at} overruns the field"
            )));
        }
        Ok(count)
    }

    /// A stored weight sum: an `f64` that must be a whole number of
    /// units in `[0, 2^36)`.
    fn weight(&mut self) -> Result<Weight, StateError> {
        let at = self.pos;
        let sum = f64::from_bits(self.u64_()?);
        Weight::exact(sum).ok_or_else(|| {
            StateError::Corrupt(format!(
                "weight sum {sum} at offset {at} is not a whole number of 2^-28 units in [0, 2^36)"
            ))
        })
    }

    fn str_(&mut self) -> Result<String, StateError> {
        let len = self.u32_()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StateError::Corrupt("invalid UTF-8 in stored string".into()))
    }

    fn fp(&mut self) -> Result<Fingerprint, StateError> {
        Ok(Fingerprint(self.take(32)?.try_into().expect("len 32")))
    }

    /// A counted list of entries, each read by `entry`, in which every
    /// entry must be `below` the next.
    fn increasing<T>(
        &mut self,
        what: &str,
        mut entry: impl FnMut(&mut Self) -> Result<T, StateError>,
        below: impl Fn(&T, &T) -> bool,
    ) -> Result<Vec<T>, StateError> {
        let count = self.u32_()?;
        let mut out: Vec<T> = Vec::new();
        for _ in 0..count {
            let at = self.pos;
            let next = entry(self)?;
            if out.last().is_some_and(|last| !below(last, &next)) {
                return Err(StateError::Corrupt(format!(
                    "{what} list is not strictly increasing at offset {at}"
                )));
            }
            out.push(next);
        }
        out.shrink_to_fit();
        Ok(out)
    }
}

impl PipelineState {
    /// Decode a run's chain section into the state's chains, each
    /// replacing the value an earlier run stored for it and recorded as
    /// written by `from` (see [`Run::from`]). Returns how many chains the
    /// section holds. A stored sum that is not a whole number of
    /// [`Weight`] units in `[0, 2^36)` is `Corrupt`, and so is a chain
    /// key, port, address or SNI list that is not strictly increasing, as
    /// the encoder writes every one: a repeated entry would otherwise
    /// replace or collapse silently. A chain with no fingerprints is
    /// `Corrupt` too: no fold keeps one (a chainless row counts as
    /// `no_chain`), and it would resolve to no certificates and count as
    /// public-only.
    fn decode_chains(&mut self, bytes: &[u8], from: u64) -> Result<u64, StateError> {
        let mut cur = Cur::new(bytes);
        // The previous key's fingerprint bytes, which order as its key.
        let mut last: &[u8] = &[];
        let mut decoded = 0u64;
        while !cur.done() {
            let at = cur.pos;
            let fp_count = cur.count(32)?;
            if fp_count == 0 {
                return Err(StateError::Corrupt(format!(
                    "chain at offset {at} has no fingerprints"
                )));
            }
            let mut fps = Vec::with_capacity(fp_count);
            for _ in 0..fp_count {
                fps.push(cur.fp()?);
            }
            let key_bytes = &bytes[at + 4..cur.pos];
            if decoded > 0 && last >= key_bytes {
                return Err(StateError::Corrupt(format!(
                    "chain keys are not strictly increasing at offset {at}"
                )));
            }
            last = key_bytes;
            let records = cur.u64_()?;
            let connections = cur.weight()?;
            let established = cur.weight()?;
            let with_sni = cur.weight()?;
            let ports = cur.increasing(
                "port",
                |cur| Ok((cur.u16_()?, cur.weight()?)),
                |a, b| a.0 < b.0,
            )?;
            let client_ips = cur.increasing(
                "client address",
                |cur| Ok(Ipv4Addr::from(cur.u32_()?)),
                |a, b| a < b,
            )?;
            let snis = cur.increasing("SNI", Cur::str_, |a, b| a < b)?;
            let mut accum = SharedAccum {
                usage: Arc::new(UsageStats {
                    connections,
                    established,
                    with_sni,
                    ports,
                    client_ips,
                    records,
                }),
                snis: self.snis.none(),
            };
            self.snis.merge(&mut accum.snis, &snis);
            self.chains.insert(
                ChainKey(fps),
                Held {
                    accum,
                    written: from,
                },
            );
            decoded += 1;
        }
        Ok(decoded)
    }
}

/// x509 flags byte: bit0 = basicConstraints present, bit1 = its CA
/// value, bit2 = pathLen present.
fn x509_flags(rec: &X509Record) -> u8 {
    let mut flags = 0u8;
    if let Some(ca) = rec.basic_constraints_ca {
        flags |= 1;
        if ca {
            flags |= 2;
        }
    }
    if rec.path_len.is_some() {
        flags |= 4;
    }
    flags
}

/// Append one chain to a chain section.
fn encode_chain(out: &mut Vec<u8>, key: &ChainKey, accum: &SharedAccum) {
    put_u32(out, key.0.len() as u32);
    for fp in &key.0 {
        out.extend_from_slice(&fp.0);
    }
    let u = &accum.usage;
    put_u64(out, u.records);
    put_weight(out, u.connections);
    put_weight(out, u.established);
    put_weight(out, u.with_sni);
    put_u32(out, u.ports.len() as u32);
    for &(port, weight) in &u.ports {
        put_u16(out, port);
        put_weight(out, weight);
    }
    put_u32(out, u.client_ips.len() as u32);
    for &ip in &u.client_ips {
        put_u32(out, u32::from(ip));
    }
    put_u32(out, accum.snis.len() as u32);
    for sni in accum.snis.iter() {
        put_str(out, sni);
    }
}

/// Encode interned x509 rows as a run's cert section.
fn encode_certs(certs: &[X509Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in certs {
        out.extend_from_slice(&rec.fingerprint.0);
        put_u64(&mut out, rec.ts.unix_secs());
        put_u64(&mut out, rec.cert_version);
        put_str(&mut out, &rec.serial);
        put_str(&mut out, &rec.subject);
        put_str(&mut out, &rec.issuer);
        put_u64(&mut out, rec.not_before.unix_secs());
        put_u64(&mut out, rec.not_after.unix_secs());
        out.push(x509_flags(rec));
        put_u64(&mut out, rec.path_len.unwrap_or(0));
        put_u32(&mut out, rec.san_dns.len() as u32);
        for san in &rec.san_dns {
            put_str(&mut out, san);
        }
    }
    out
}

/// Decode one cert section, appending its rows to `certs`. The rows are
/// vetted when the [`CertTable`] is rebuilt from them.
fn decode_certs(bytes: &[u8], certs: &mut Vec<X509Record>) -> Result<(), StateError> {
    let mut cur = Cur::new(bytes);
    while !cur.done() {
        let fingerprint = cur.fp()?;
        let ts = Asn1Time::from_unix(cur.u64_()?);
        let cert_version = cur.u64_()?;
        let serial = cur.str_()?;
        let subject = cur.str_()?;
        let issuer = cur.str_()?;
        let not_before = Asn1Time::from_unix(cur.u64_()?);
        let not_after = Asn1Time::from_unix(cur.u64_()?);
        let flags = cur.u8_()?;
        let path_len_raw = cur.u64_()?;
        let san_count = cur.count(4)?;
        let mut san_dns = Vec::with_capacity(san_count);
        for _ in 0..san_count {
            san_dns.push(cur.str_()?);
        }
        certs.push(X509Record {
            ts,
            fingerprint,
            cert_version,
            serial,
            subject,
            issuer,
            not_before,
            not_after,
            basic_constraints_ca: (flags & 1 != 0).then_some(flags & 2 != 0),
            path_len: (flags & 4 != 0).then_some(path_len_raw),
            san_dns,
        });
    }
    Ok(())
}
