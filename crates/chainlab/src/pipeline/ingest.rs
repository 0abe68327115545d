//! Stage 1 — ingest: fold ssl.log rows into per-chain accumulators on
//! worker threads.
//!
//! One fold body, `Shard::fold` (filter → count → fold), serves two kinds
//! of input through one dispatch, `fan_out`: the reading thread fills
//! pooled buffers and hands each to the worker with the fewest in flight.
//!
//! - **records** (`accumulate`): `(SslRecord, Weight)` batches of
//!   `CHUNK` rows, from memory (`Pipeline::analyze`) or from a record
//!   iterator (`Pipeline::fold_ssl_stream`).
//! - **ssl.log blocks** (`accumulate_log`, the TSV path). The reading
//!   thread fills buffers with whole lines
//!   (`certchain_netsim::zeek::block`). The worker walks the block's
//!   lines, parses each with the netsim row kernel, settles it against
//!   the block's own tallies and folds it from the borrowed view: no
//!   `SslRecord` is built, the uid is never allocated, and an SNI
//!   `String` is allocated only the first time a worker's chain sees it.
//!   A `Ledger` settles walked blocks in stream order: their line numbers
//!   are rebased by the lines of the blocks before them, and the stream's
//!   tallies stop at its first fatal line.
//!
//! The determinism rule: every aggregate is an integer sum (weights in
//! fixed-point [`Weight`] units) or a set union, so partial folds over any
//! split of the rows merge exactly, in any order, into the sequential
//! fold. So any worker may take any batch, block or segment range, and
//! the workers' maps merge through one `merge_into`, which the columnar
//! fold and a [`super::PipelineState`] share; the state's merge also
//! interns the SNIs ([`SniPool`]).
//!
//! Batches and blocks travel over depth-1 channels, and their buffers come
//! from one fixed pool the workers hand back, so what is in flight stays
//! bounded however far the workers fall behind: peak memory is
//! O(distinct chains), not O(connections). `threads = 1` runs the same
//! body inline, with no threads and no pool.

use super::observe::{PipelineObs, Stage};
use super::{Pipeline, RowFilter, SslItem};
use crate::filtercat::CategoryOracle;
use crate::model::ChainKey;
use crate::usage::{union, SortedFold, UsageFold, UsageStats, Weight};
use certchain_netsim::zeek::block::{Block, LineWalk};
use certchain_netsim::zeek::stream::{ReadError, SslColumns, SslLogStream, StreamStats};
use certchain_netsim::SslRecord;
use certchain_x509::Fingerprint;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::io::Read;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Rows per record batch handed to a worker, and per progress tick on
/// the inline record path. Large enough to amortize channel and
/// scheduling overhead, small enough that in-flight memory stays
/// negligible next to the per-chain accumulators.
pub(crate) const CHUNK: usize = 1024;

/// Pooled buffers (record batches or line blocks) per worker: one being
/// folded and one queued. The reading thread fills one buffer at a time,
/// in the one a worker has just handed back, long before that worker's
/// queued buffer is done.
const BUFFERS_PER_WORKER: usize = 2;

/// Per-chain connection accumulator: what one fold owns and folds rows
/// into, with no `Arc` on the per-row path. Its SNIs are a small sorted
/// vector of the fold's own strings; they become the state's shared
/// strings when the fold's map leaves the fold.
#[derive(Default)]
pub(crate) struct ChainAccum {
    pub(crate) usage: UsageFold,
    pub(crate) snis: SortedFold<String>,
}

/// A chain's accumulators as [`super::PipelineState`] owns them and every
/// [`super::Analysis`] finalized from it shares them: the usage behind an
/// `Arc` that a fold merges into through `Arc::make_mut`, and the SNIs as
/// a sorted slice of the state's shared strings ([`SniPool`]), which a
/// fold replaces when it adds one. Either way a fold copies a chain only
/// while an analysis from before the fold still holds it.
#[derive(Clone)]
pub(crate) struct SharedAccum {
    pub(crate) usage: Arc<UsageStats>,
    pub(crate) snis: Arc<[Arc<str>]>,
}

/// One shared string per distinct SNI, and the slices of them that
/// chains hold.
#[derive(Default)]
pub(crate) struct SniPool {
    strings: HashSet<Arc<str>>,
    /// The slice of every chain that saw no SNI.
    none: Arc<[Arc<str>]>,
}

impl SniPool {
    /// The pool's copy of `sni`.
    pub(crate) fn intern(&mut self, sni: &str) -> Arc<str> {
        if let Some(held) = self.strings.get(sni) {
            return Arc::clone(held);
        }
        let held: Arc<str> = Arc::from(sni);
        self.strings.insert(Arc::clone(&held));
        held
    }

    /// The slice of a chain that saw no SNI yet, shared by all of them.
    pub(crate) fn none(&self) -> Arc<[Arc<str>]> {
        Arc::clone(&self.none)
    }

    /// Merge sorted, distinct SNIs into a chain's slice. The slice is
    /// replaced, never changed in place, and only when one of them is new
    /// to it.
    pub(crate) fn merge<S: AsRef<str>>(&mut self, chain: &mut Arc<[Arc<str>]>, snis: &[S]) {
        let new: Vec<Arc<str>> = snis
            .iter()
            .map(AsRef::as_ref)
            .filter(|sni| chain.binary_search_by(|held| (**held).cmp(sni)).is_err())
            .map(|sni| self.intern(sni))
            .collect();
        if !new.is_empty() {
            *chain = Arc::from(union(chain.to_vec(), new));
        }
    }
}

/// A per-chain aggregate that partials of type `P` merge into exactly:
/// each field is an integer sum or a set union, so any merge order
/// reproduces the sequential fold.
pub(crate) trait Partial<P = Self> {
    /// What a merge draws on beside the two partials: a state's
    /// [`SniPool`], or nothing.
    type Cx;
    /// Merge another partial for the same chain.
    fn merge(&mut self, other: P, cx: &mut Self::Cx);
    /// The aggregate of a chain whose first partial is `part`.
    fn first(part: P, cx: &mut Self::Cx) -> Self;
}

impl Partial for ChainAccum {
    type Cx = ();

    fn merge(&mut self, other: ChainAccum, _: &mut ()) {
        self.usage.merge(other.usage);
        self.snis.merge(other.snis);
    }

    fn first(part: ChainAccum, _: &mut ()) -> ChainAccum {
        part
    }
}

/// A fold's partial leaves the fold: its vectors are sorted, and its new
/// SNIs are interned.
impl Partial<ChainAccum> for SharedAccum {
    type Cx = SniPool;

    fn merge(&mut self, other: ChainAccum, pool: &mut SniPool) {
        Arc::make_mut(&mut self.usage).absorb(other.usage.finish());
        pool.merge(&mut self.snis, &other.snis.finish());
    }

    fn first(part: ChainAccum, pool: &mut SniPool) -> SharedAccum {
        let mut shared = SharedAccum {
            usage: Arc::new(part.usage.finish()),
            snis: pool.none(),
        };
        pool.merge(&mut shared.snis, &part.snis.finish());
        shared
    }
}

/// Merge the partial map `part` into `into`: the one merge of partials,
/// for the ingest workers' maps, the columnar segment workers' maps and a
/// fold's map into a [`super::PipelineState`]'s shared accumulators.
/// `merged` sees each key merged, as the state logs them for its next
/// publish. A caller merging parts of one type into an empty map takes
/// the first part as it is instead.
pub(crate) fn merge_into<K: Eq + Hash, P, A: Partial<P>>(
    into: &mut HashMap<K, A>,
    part: HashMap<K, P>,
    cx: &mut A::Cx,
    mut merged: impl FnMut(&K),
) {
    // srclint: commutative -- per-key merge into a keyed map; Partial::merge is exact in any order (integer sums and set unions), and `merged` only collects keys into a set, so iteration order is invisible
    for (key, accum) in part {
        merged(&key);
        match into.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().merge(accum, cx),
            Entry::Vacant(e) => {
                e.insert(A::first(accum, cx));
            }
        }
    }
}

/// Record accounting produced by one accumulation run. Every field is a
/// commutative integer sum over the record stream, so the values are
/// identical for every thread count.
///
/// No fold checks a chain against the certificate table: every path
/// folds chains with unknown fingerprints like any other, and the one
/// resolve after the folds drops them and counts their records as
/// unresolvable. That is what lets rotated x509/ssl files arrive and fold
/// in any interleaving.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IngestCounts {
    /// Total ssl.log records consumed (including skipped ones).
    pub(crate) records: u64,
    /// Records with an empty certificate chain (TLS 1.3 connections).
    pub(crate) no_chain: u64,
}

/// What the fold reads of one connection, from a record or a parsed line.
struct Conn<'a> {
    resp_p: u16,
    sni: Option<&'a str>,
    fps: &'a [Fingerprint],
    established: bool,
    orig_h: Ipv4Addr,
    weight: Weight,
}

/// One worker's fold state: the body every input kind runs.
struct Shard<'p> {
    filter: &'p RowFilter,
    oracle: Option<&'p CategoryOracle>,
    accums: HashMap<ChainKey, ChainAccum>,
    counts: IngestCounts,
}

impl<'p> Shard<'p> {
    fn new(pipe: &'p Pipeline<'_>, oracle: Option<&'p CategoryOracle>) -> Shard<'p> {
        Shard {
            filter: &pipe.options.filter,
            oracle,
            accums: HashMap::new(),
            counts: IngestCounts::default(),
        }
    }

    /// Filter → count → fold one connection. The filter runs before any
    /// accounting: rejected rows are invisible, which is what makes
    /// whole-segment zone-map and category-digest skipping in the
    /// columnar path equivalent to this per-row test.
    fn fold(&mut self, conn: Conn<'_>) {
        if !self.filter.admits(conn.resp_p, conn.sni) {
            return;
        }
        if let Some(oracle) = self.oracle {
            if !oracle.admits(conn.fps) {
                return;
            }
        }
        self.counts.records += 1;
        if conn.fps.is_empty() {
            self.counts.no_chain += 1;
            return;
        }
        // Probe with the borrowed fingerprint slice; a `ChainKey` is only
        // allocated the first time a chain is seen.
        let accum = match self.accums.get_mut(conn.fps) {
            Some(accum) => accum,
            None => self.accums.entry(ChainKey(conn.fps.to_vec())).or_default(),
        };
        accum.usage.add(
            conn.established,
            conn.sni.is_some(),
            conn.resp_p,
            conn.orig_h,
            conn.weight,
        );
        if let Some(sni) = conn.sni {
            if accum.snis.find_mut(sni).is_none() {
                accum.snis.insert(sni.to_string());
            }
        }
    }

    fn record(&mut self, rec: &SslRecord, weight: Weight) {
        self.fold(Conn {
            resp_p: rec.resp_p,
            sni: rec.server_name.as_deref(),
            fps: &rec.cert_chain_fps,
            established: rec.established,
            orig_h: rec.orig_h,
            weight,
        });
    }
}

/// A TSV worker: a fold state and the chain scratch its row parse reuses.
struct BlockWorker<'p> {
    shard: Shard<'p>,
    fps: Vec<Fingerprint>,
}

impl BlockWorker<'_> {
    /// Walk one block, parse each data row, settle it against the
    /// block's own tallies and fold it. The walk stops at the block's
    /// fatal line: a framing error, or in strict mode the first malformed
    /// row. Line numbers count from the block's start (see [`Ledger`]).
    fn fold(&mut self, block: &Block<SslColumns>, permissive: bool) -> Walked {
        let stats = StreamStats::default();
        let mut walk = LineWalk::start(block, 0);
        let fatal = loop {
            let l = match walk.next(block, &stats) {
                None => break None,
                Some(Err(e)) => break Some(e),
                Some(Ok(l)) => l,
            };
            match stats.settle(l.columns.parse(l.line, l.text, &mut self.fps), permissive) {
                Ok(Some(row)) => {
                    let sni = row.server_name();
                    self.shard.fold(Conn {
                        resp_p: row.resp_p,
                        sni: sni.as_deref(),
                        fps: row.cert_chain_fps,
                        established: row.established,
                        orig_h: row.orig_h,
                        weight: Weight::ONE,
                    });
                }
                Ok(None) => {}
                Err(e) => break Some(e),
            }
        };
        Walked { stats, fatal }
    }
}

/// A walked block: its tallies, and its fatal line numbered from the
/// block's start.
struct Walked {
    stats: StreamStats,
    fatal: Option<ReadError>,
}

impl Walked {
    /// Data rows walked: the good ones and the malformed ones.
    fn rows(&self) -> u64 {
        self.stats.records() + self.stats.malformed()
    }
}

/// Settles walked blocks in stream order, whatever order they finish in.
/// A block's line numbers are rebased by the lines of the blocks before
/// it, and its tallies join the stream's up to the first fatal line:
/// every block before that line, plus its own block up to it — what the
/// stream's iterator counts before it stops.
struct Ledger {
    stats: Arc<StreamStats>,
    /// The block settled next.
    next: usize,
    /// Lines of the blocks settled so far.
    lines: usize,
    /// Blocks walked ahead of `next`, waiting for it.
    ahead: BTreeMap<usize, Walked>,
    /// The stream's first fatal line, rebased.
    fatal: Option<ReadError>,
}

impl Ledger {
    fn new(stats: Arc<StreamStats>) -> Ledger {
        Ledger {
            stats,
            next: 0,
            lines: 0,
            ahead: BTreeMap::new(),
            fatal: None,
        }
    }

    fn settle(&mut self, seq: usize, walked: Walked) {
        if self.fatal.is_some() {
            return;
        }
        self.ahead.insert(seq, walked);
        while let Some(walked) = self.ahead.remove(&self.next) {
            self.stats.absorb(&walked.stats);
            if let Some(mut e) = walked.fatal {
                // Line 0 is a whole-log error, not a place in it.
                if e.line != 0 {
                    e.line += self.lines;
                }
                self.fatal = Some(e);
                self.ahead.clear();
                return;
            }
            self.lines += walked.stats.lines() as usize;
            self.next += 1;
        }
    }
}

/// Fold `(record, weight)` items into per-chain accumulators (no
/// certificate resolution — see [`IngestCounts`]) plus the run's counts.
/// The returned map is one fold's worth of accumulation; callers merge it
/// into longer-lived state ([`super::state::PipelineState`]) or hand it
/// straight to finalize.
///
/// `oracle` is the resolved category predicate when the row filter asks
/// for one (`None` otherwise); like the port/SNI tests it runs before
/// any counter moves, so category-rejected records are invisible. The
/// dispatch is traced under `stage`, the ingest stage that runs it.
pub(crate) fn accumulate<B, I>(
    pipe: &Pipeline<'_>,
    stage: &Stage<'_>,
    mut records: I,
    threads: usize,
    oracle: Option<&CategoryOracle>,
) -> (HashMap<ChainKey, ChainAccum>, IngestCounts)
where
    B: SslItem,
    I: Iterator<Item = (B, Weight)>,
{
    if threads <= 1 {
        let mut shard = Shard::new(pipe, oracle);
        for (n, (item, weight)) in records.enumerate() {
            shard.record(item.borrow(), weight);
            if (n + 1) % CHUNK == 0 {
                pipe.obs.tick(n as u64 + 1, 0, &[]);
            }
        }
        return collect(pipe, vec![shard]);
    }
    let (shards, ()) = fan_out(
        pipe,
        stage,
        (0..threads).map(|_| Shard::new(pipe, oracle)).collect(),
        |shard, batch: &mut Vec<(B, Weight)>| {
            let rows = batch.len() as u64;
            for (item, weight) in batch.drain(..) {
                shard.record(item.borrow(), weight);
            }
            rows
        },
        |fan| loop {
            let mut batch = fan.take();
            batch.extend(records.by_ref().take(CHUNK));
            if batch.is_empty() {
                break;
            }
            fan.send(batch);
        },
    );
    collect(pipe, shards)
}

/// The TSV path: fold the ssl.log behind `log` into per-chain
/// accumulators, its blocks walked, parsed and folded on the workers. The
/// stream's first fatal line is returned: a framing error, or in strict
/// mode its first malformed row. Either way the stream's tallies come out
/// as its own iterator leaves them. The dispatch is traced under `stage`.
pub(crate) fn accumulate_log<R: Read>(
    pipe: &Pipeline<'_>,
    stage: &Stage<'_>,
    log: SslLogStream<R>,
    threads: usize,
    oracle: Option<&CategoryOracle>,
) -> Result<(HashMap<ChainKey, ChainAccum>, IngestCounts), ReadError> {
    let permissive = log.is_permissive();
    let mut blocks = log.into_blocks();
    let ledger = Mutex::new(Ledger::new(blocks.stats()));
    let settle = |seq: usize, walked: Walked| {
        let mut ledger = ledger.lock().expect("ledger poisoned");
        ledger.settle(seq, walked);
        ledger.fatal.is_some()
    };
    let worker = || BlockWorker {
        shard: Shard::new(pipe, oracle),
        fps: Vec::new(),
    };
    let shards = if threads <= 1 {
        let mut worker = worker();
        let mut block = Block::default();
        let mut rows = 0;
        while blocks.next_block(&mut block) {
            let walked = worker.fold(&block, permissive);
            rows += walked.rows();
            pipe.obs.tick(rows, 0, &[]);
            if settle(block.seq(), walked) {
                break;
            }
        }
        vec![worker.shard]
    } else {
        // The lowest block known to hold a fatal line: no later block
        // counts, so none is framed or walked. Only a shortcut: what
        // counts is the ledger's to say.
        let stop = AtomicUsize::new(usize::MAX);
        let (workers, ()) = fan_out(
            pipe,
            stage,
            (0..threads).map(|_| worker()).collect(),
            |worker, block: &mut Block<SslColumns>| {
                if block.seq() > stop.load(Relaxed) {
                    return 0;
                }
                let walked = worker.fold(block, permissive);
                let rows = walked.rows();
                if walked.fatal.is_some() {
                    stop.fetch_min(block.seq(), Relaxed);
                }
                settle(block.seq(), walked);
                rows
            },
            |fan| loop {
                let mut block = fan.take();
                if stop.load(Relaxed) != usize::MAX || !blocks.next_block(&mut block) {
                    break;
                }
                fan.send(block);
            },
        );
        workers.into_iter().map(|w| w.shard).collect()
    };
    if let Some(e) = ledger.into_inner().expect("ledger poisoned").fatal {
        return Err(e);
    }
    Ok(collect(pipe, shards))
}

/// Merge the workers' maps and sum their counts.
fn collect(
    pipe: &Pipeline<'_>,
    shards: Vec<Shard<'_>>,
) -> (HashMap<ChainKey, ChainAccum>, IngestCounts) {
    let mut counts = IngestCounts::default();
    let mut accums = HashMap::new();
    for shard in shards {
        counts.records += shard.counts.records;
        counts.no_chain += shard.counts.no_chain;
        if accums.is_empty() {
            accums = shard.accums;
        } else {
            merge_into(&mut accums, shard.accums, &mut (), |_| {});
        }
    }
    pipe.obs.finish_progress(counts.records);
    (accums, counts)
}

/// The feeding side of [`fan_out`]: buffers out of the pool, filled
/// buffers to the workers.
struct Fanout<'f, T> {
    obs: &'f PipelineObs,
    senders: Vec<SyncSender<T>>,
    pool: Receiver<T>,
    in_flight: &'f [AtomicUsize],
    processed: &'f [AtomicU64],
    sent: u64,
}

impl<T> Fanout<'_, T> {
    /// A free buffer. Blocks while every pooled buffer is in flight: the
    /// bound on memory.
    fn take(&mut self) -> T {
        self.pool.recv().expect("workers hold the pool open")
    }

    /// Send a filled buffer to the worker with the fewest buffers in
    /// flight: an idle one whenever there is one.
    fn send(&mut self, batch: T) {
        let worker = (0..self.in_flight.len())
            .min_by_key(|&w| self.in_flight[w].load(Relaxed))
            .unwrap_or(0);
        self.in_flight[worker].fetch_add(1, Relaxed);
        self.senders[worker]
            .send(batch)
            .expect("accumulation worker hung up early");
        self.sent += 1;
        if self.obs.progress.is_some() {
            let depth = self.in_flight.iter().map(|d| d.load(Relaxed)).sum();
            let per_worker: Vec<u64> = self.processed.iter().map(|w| w.load(Relaxed)).collect();
            self.obs.tick(per_worker.iter().sum(), depth, &per_worker);
        }
    }
}

/// Run `feed` on this thread while one worker per entry of `workers`
/// folds the buffers it sends, `work` applied to each in arrival order
/// and returning the rows it folded. The pool holds
/// [`BUFFERS_PER_WORKER`] buffers per worker. Returns the workers (in
/// order) and what `feed` returned. Traced as a `pipeline.dispatch` span
/// under `stage`.
///
/// Progress instrumentation rides the feeding loop: each worker carries
/// an in-flight buffer counter (incremented on send, decremented by the
/// worker) and a folded-row tally, giving the reporter queue depth and
/// per-worker throughput without any extra synchronization on the fold
/// itself. Those values are scheduling-dependent and go only to stderr.
fn fan_out<S, T, F>(
    pipe: &Pipeline<'_>,
    stage: &Stage<'_>,
    workers: Vec<S>,
    work: impl Fn(&mut S, &mut T) -> u64 + Sync,
    feed: impl FnOnce(&mut Fanout<'_, T>) -> F,
) -> (Vec<S>, F)
where
    S: Send,
    T: Default + Send,
{
    let n = workers.len();
    let trace = stage.child("pipeline.dispatch");
    let in_flight: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let processed: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let (workers, out, sent) = std::thread::scope(|scope| {
        let (pool_tx, pool) = channel::<T>();
        for _ in 0..n * BUFFERS_PER_WORKER {
            pool_tx.send(T::default()).expect("pool receiver alive");
        }
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, mut worker) in workers.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<T>(1);
            senders.push(tx);
            let (work, pool_tx) = (&work, pool_tx.clone());
            let (in_flight, processed) = (&in_flight[i], &processed[i]);
            handles.push(scope.spawn(move || {
                while let Ok(mut batch) = rx.recv() {
                    processed.fetch_add(work(&mut worker, &mut batch), Relaxed);
                    in_flight.fetch_sub(1, Relaxed);
                    // The feeding thread may already be done with the
                    // pool; then the buffer is simply dropped.
                    let _ = pool_tx.send(batch);
                }
                worker
            }));
        }
        // Only workers hand buffers back from here on: if they all die,
        // waiting on the pool fails instead of hanging.
        drop(pool_tx);
        let mut fan = Fanout {
            obs: &pipe.obs,
            senders,
            pool,
            in_flight: &in_flight,
            processed: &processed,
            sent: 0,
        };
        let out = feed(&mut fan);
        let sent = fan.sent;
        drop(fan);
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("accumulation worker panicked"))
            .collect();
        (workers, out, sent)
    });
    if let Some(t) = &trace {
        t.attr("shards", n.to_string());
        t.attr("blocks", sent.to_string());
        let rows: u64 = processed.iter().map(|p| p.load(Relaxed)).sum();
        t.attr("rows", rows.to_string());
    }
    (workers, out)
}
