//! Stage 1 — ingest: fold ssl.log rows into per-chain accumulators on
//! shard workers.
//!
//! Every chain belongs to exactly one shard, chosen by `shard_of` over
//! its decoded fingerprints, and each shard's rows reach its worker in
//! stream order, so every chain's f64 accumulation order equals the
//! sequential fold — the root of the byte-identical-across-thread-counts
//! guarantee. The per-shard maps are disjoint, so collecting them is
//! `extend`, not a merge.
//!
//! One worker body, `Shard::fold` (filter → count → fold), serves two
//! kinds of input:
//!
//! - **records** (`accumulate`): `SslRecord`s with weights, from memory
//!   (`Pipeline::analyze`) or from a record iterator
//!   (`Pipeline::fold_ssl_stream`);
//! - **ssl.log lines** (`accumulate_log`, the TSV path). The dispatch
//!   thread only frames: it takes each data line off the `SslLogStream`
//!   (headers, comments, line counts and io/UTF-8 errors stay there),
//!   decodes the chain cell in place to pick the shard, and copies the
//!   line into that shard's byte buffer. Workers parse each line with
//!   the netsim row kernel and fold from the borrowed view: no
//!   `SslRecord` is built, the uid is never allocated, and an SNI
//!   `String` is allocated only the first time a chain sees it.
//!
//! Batches travel over depth-1 channels, and their buffers come from a
//! fixed pool the workers hand back, so the rows in flight stay bounded
//! however far the workers fall behind: peak memory is O(distinct
//! chains), not O(connections). `threads = 1` runs the same body inline,
//! with no threads and no buffers.

use super::observe::PipelineObs;
use super::{Pipeline, RowFilter, SslItem};
use crate::filtercat::CategoryOracle;
use crate::model::ChainKey;
use crate::usage::UsageStats;
use certchain_netsim::zeek::stream::{ReadError, SslColumns, SslLogStream, StreamStats};
use certchain_netsim::SslRecord;
use certchain_x509::Fingerprint;
use std::collections::{BTreeSet, HashMap};
use std::io::BufRead;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Rows per batch handed to a shard worker, and per progress tick on the
/// inline path. Large enough to amortize channel and scheduling
/// overhead, small enough that in-flight memory stays negligible next to
/// the per-chain accumulators.
pub(crate) const CHUNK: usize = 1024;

/// Line bytes after which a line batch goes out even if it holds fewer
/// than [`CHUNK`] lines (very long lines).
const BATCH_BYTES: usize = 256 * 1024;

/// Batch buffers per shard in the pool: one filling on the dispatch
/// thread, one queued, one being folded.
const BUFFERS_PER_SHARD: usize = 3;

/// Per-chain connection accumulator.
#[derive(Default, Clone)]
pub(crate) struct ChainAccum {
    pub(crate) usage: UsageStats,
    pub(crate) snis: BTreeSet<String>,
}

impl ChainAccum {
    /// Merge another accumulator for the same chain. Every field is a
    /// commutative aggregate (integer-valued f64 sums at unit weight,
    /// set unions), so merging per-worker partials in any fixed order
    /// reproduces the sequential fold — the row-range-sharded columnar
    /// path relies on this.
    pub(crate) fn merge(&mut self, other: ChainAccum) {
        self.usage.merge(&other.usage);
        self.snis.extend(other.snis);
    }
}

/// Record accounting produced by one accumulation run. Every field is a
/// commutative integer sum over the record stream, so the values are
/// identical for every thread count.
///
/// The fold core itself only ever moves `records` and `no_chain`:
/// resolvability against the certificate index is deferred to finalize
/// (chains referencing unknown fingerprints are folded like any other
/// and excluded there), which is what lets rotated x509/ssl files
/// arrive and fold in any interleaving. The columnar path still fills
/// `unresolvable` during its fold, where the fingerprint table makes
/// the check free.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IngestCounts {
    /// Total ssl.log records consumed (including skipped ones).
    pub(crate) records: u64,
    /// Records with an empty certificate chain (TLS 1.3 connections).
    pub(crate) no_chain: u64,
    /// Records referencing fingerprints absent from the x509 index.
    pub(crate) unresolvable: u64,
}

/// Stable shard id for a chain: FNV-1a over the fingerprint bytes. Must
/// not vary across runs or platforms — shard membership decides which
/// worker folds a chain's connection stream, and determinism relies on
/// every chain living in exactly one shard.
pub(crate) fn shard_of(fps: &[Fingerprint], shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fp in fps {
        for &b in &fp.0 {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % shards as u64) as usize
}

/// What the fold reads of one connection, from a record or a parsed line.
struct Conn<'a> {
    resp_p: u16,
    sni: Option<&'a str>,
    fps: &'a [Fingerprint],
    established: bool,
    orig_h: Ipv4Addr,
    weight: f64,
}

/// One shard's fold state: the worker body every input kind runs.
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
            if !accum.snis.contains(sni) {
                accum.snis.insert(sni.to_string());
            }
        }
    }

    fn record(&mut self, rec: &SslRecord, weight: f64) {
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

/// A shard fed ssl.log lines: the row kernel's parse, settled under the
/// stream's loss-accounting policy, around [`Shard::fold`].
struct LineShard<'p> {
    shard: Shard<'p>,
    /// Chain scratch the kernel decodes into, reused for every row.
    fps: Vec<Fingerprint>,
    /// This shard's row tallies, added to the stream's at the end.
    stats: StreamStats,
    permissive: bool,
    /// Strict mode: this shard's first bad row, after which it stops.
    failed: Option<ReadError>,
}

impl LineShard<'_> {
    fn line(&mut self, columns: &SslColumns, line: usize, text: &str) {
        if self.failed.is_some() {
            return;
        }
        let parsed = columns.parse(line, text, &mut self.fps);
        match self.stats.settle(parsed, self.permissive) {
            Ok(Some(row)) => {
                let sni = row.server_name();
                self.shard.fold(Conn {
                    resp_p: row.resp_p,
                    sni: sni.as_deref(),
                    fps: row.cert_chain_fps,
                    established: row.established,
                    orig_h: row.orig_h,
                    weight: 1.0,
                });
            }
            Ok(None) => {}
            Err(e) => self.failed = Some(e),
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
/// any counter moves, so category-rejected records are invisible.
pub(crate) fn accumulate<B, I>(
    pipe: &Pipeline<'_>,
    records: I,
    threads: usize,
    oracle: Option<&CategoryOracle>,
) -> (HashMap<ChainKey, ChainAccum>, IngestCounts)
where
    B: SslItem,
    I: Iterator<Item = (B, f64)>,
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
    let shards: Vec<Shard<'_>> = (0..threads).map(|_| Shard::new(pipe, oracle)).collect();
    let (shards, ()) = fan_out(
        pipe,
        shards,
        |shard, batch: &Vec<(B, f64)>| {
            for (item, weight) in batch {
                shard.record(item.borrow(), *weight);
            }
        },
        |fan| {
            for (item, weight) in records {
                let shard = shard_of(&item.borrow().cert_chain_fps, threads);
                fan.push(shard, |batch| batch.push((item, weight)));
            }
        },
    );
    collect(pipe, shards)
}

/// The TSV path: fold the ssl.log behind `log` into per-chain
/// accumulators, parsing its lines on the shard workers. A framing
/// error, or in strict mode the first malformed row, is returned; in
/// strict mode that is the lowest-numbered bad line, the one the fused
/// stream returns. A permissive fold leaves the stream's tallies as its
/// own iterator would; after a strict error only the error is defined,
/// since other shards parse and tally on past the bad line.
pub(crate) fn accumulate_log<R: BufRead>(
    pipe: &Pipeline<'_>,
    mut log: SslLogStream<R>,
    threads: usize,
    oracle: Option<&CategoryOracle>,
) -> Result<(HashMap<ChainKey, ChainAccum>, IngestCounts), ReadError> {
    let stats = log.stats();
    let permissive = log.is_permissive();
    let mut shards: Vec<LineShard<'_>> = (0..threads.max(1))
        .map(|_| LineShard {
            shard: Shard::new(pipe, oracle),
            fps: Vec::new(),
            stats: StreamStats::default(),
            permissive,
            failed: None,
        })
        .collect();
    let framed = if threads <= 1 {
        let shard = &mut shards[0];
        let mut lines = 0u64;
        let mut framed = Ok(());
        while let Some(next) = log.next_line() {
            match next {
                Ok(l) => shard.line(l.columns, l.line, l.text),
                Err(e) => {
                    framed = Err(e);
                    break;
                }
            }
            lines += 1;
            if lines % CHUNK as u64 == 0 {
                pipe.obs.tick(lines, 0, &[]);
            }
            if shard.failed.is_some() {
                break;
            }
        }
        framed
    } else {
        let stop = AtomicBool::new(false);
        let (done, framed) = fan_out(
            pipe,
            shards,
            |shard, batch: &LineBatch| {
                let columns = batch.columns.as_deref().expect("a batch holds lines");
                let mut start = 0;
                for &(line, end) in &batch.lines {
                    shard.line(columns, line, &batch.text[start..end]);
                    start = end;
                }
                if shard.failed.is_some() {
                    stop.store(true, Relaxed);
                }
            },
            |fan| {
                let mut fps = Vec::new();
                let mut current: Option<Arc<SslColumns>> = None;
                while let Some(next) = log.next_line() {
                    let l = next?;
                    if !current.as_ref().is_some_and(|c| Arc::ptr_eq(c, l.columns)) {
                        // A batch holds lines under one header only.
                        fan.flush_all();
                        current = Some(Arc::clone(l.columns));
                    }
                    // A row whose chain does not decode never parses, so
                    // its shard does not matter.
                    let shard = l
                        .columns
                        .chain(l.text, &mut fps)
                        .map_or(0, |fps| shard_of(fps, threads));
                    fan.push(shard, |batch| batch.push(l.columns, l.line, l.text));
                    if stop.load(Relaxed) {
                        break;
                    }
                }
                Ok(())
            },
        );
        shards = done;
        framed
    };
    for shard in &shards {
        stats.absorb(&shard.stats);
    }
    // Each shard stops at its own first bad row, and every line before
    // any of them was framed and dispatched, so the lowest-numbered one
    // is the stream's first.
    if let Some(first) = shards
        .iter_mut()
        .filter_map(|s| s.failed.take())
        .min_by_key(|e| e.line)
    {
        return Err(first);
    }
    framed?;
    Ok(collect(pipe, shards.into_iter().map(|s| s.shard).collect()))
}

/// Collect the shards' disjoint maps and sum their counts.
fn collect(
    pipe: &Pipeline<'_>,
    shards: Vec<Shard<'_>>,
) -> (HashMap<ChainKey, ChainAccum>, IngestCounts) {
    let mut counts = IngestCounts::default();
    let mut accums = HashMap::with_capacity(shards.iter().map(|s| s.accums.len()).sum());
    for shard in shards {
        counts.records += shard.counts.records;
        counts.no_chain += shard.counts.no_chain;
        // srclint: commutative -- disjoint per-shard maps collected into a keyed map; insertion order is invisible
        accums.extend(shard.accums);
    }
    pipe.obs.finish_progress(counts.records);
    (accums, counts)
}

/// A shard's batch buffer, recycled through the pool once folded.
trait Batch: Default + Send {
    /// Rows held.
    fn rows(&self) -> usize;
    /// Whether the batch should go out now.
    fn is_full(&self) -> bool;
    /// Empty the buffer, keeping its capacity.
    fn clear(&mut self);
}

impl<T: Send> Batch for Vec<T> {
    fn rows(&self) -> usize {
        self.len()
    }

    fn is_full(&self) -> bool {
        self.len() >= CHUNK
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// Whole ssl.log data lines bound for one shard, in stream order, all
/// under one `#fields` header.
#[derive(Default)]
struct LineBatch {
    text: String,
    /// Line number and end offset in `text` of each line.
    lines: Vec<(usize, usize)>,
    columns: Option<Arc<SslColumns>>,
}

impl LineBatch {
    fn push(&mut self, columns: &Arc<SslColumns>, line: usize, text: &str) {
        if self.columns.is_none() {
            self.columns = Some(Arc::clone(columns));
        }
        self.text.push_str(text);
        self.lines.push((line, self.text.len()));
    }
}

impl Batch for LineBatch {
    fn rows(&self) -> usize {
        self.lines.len()
    }

    fn is_full(&self) -> bool {
        self.lines.len() >= CHUNK || self.text.len() >= BATCH_BYTES
    }

    fn clear(&mut self) {
        self.text.clear();
        self.lines.clear();
        self.columns = None;
    }
}

/// The dispatch side of [`fan_out`]: one filling batch per shard, sent
/// when full, replaced from the pool.
struct Fanout<'f, T> {
    obs: &'f PipelineObs,
    senders: Vec<SyncSender<T>>,
    pool: Receiver<T>,
    filling: Vec<T>,
    in_flight: &'f [AtomicUsize],
    processed: &'f [AtomicU64],
    dispatched: u64,
}

impl<T: Batch> Fanout<'_, T> {
    /// Add a row to `shard`'s batch; send the batch once it is full.
    fn push(&mut self, shard: usize, add: impl FnOnce(&mut T)) {
        add(&mut self.filling[shard]);
        if self.filling[shard].is_full() {
            self.flush(shard);
        }
    }

    /// Send `shard`'s batch, if it holds anything.
    fn flush(&mut self, shard: usize) {
        if self.filling[shard].rows() == 0 {
            return;
        }
        // Blocks while every pooled buffer is in flight: the bound on
        // memory.
        let fresh = self.pool.recv().expect("workers hold the pool open");
        let full = std::mem::replace(&mut self.filling[shard], fresh);
        self.dispatched += full.rows() as u64;
        self.in_flight[shard].fetch_add(1, Relaxed);
        self.senders[shard]
            .send(full)
            .expect("accumulation worker hung up early");
        if self.obs.progress.is_some() {
            let depth = self.in_flight.iter().map(|d| d.load(Relaxed)).sum();
            let per_worker: Vec<u64> = self.processed.iter().map(|w| w.load(Relaxed)).collect();
            self.obs.tick(self.dispatched, depth, &per_worker);
        }
    }

    fn flush_all(&mut self) {
        for shard in 0..self.filling.len() {
            self.flush(shard);
        }
    }
}

/// Run `feed` on this thread while one worker per shard folds the
/// batches it fills, `work` applied to each in arrival order. Returns
/// the shards (in shard order) and what `feed` returned.
///
/// Progress instrumentation rides the dispatch loop: each shard carries
/// an in-flight batch counter (incremented on send, decremented by the
/// worker) and a processed-row tally, giving the reporter queue depth and
/// per-worker throughput without any extra synchronization on the fold
/// itself. Those values are scheduling-dependent and go only to stderr.
fn fan_out<S, T, F>(
    pipe: &Pipeline<'_>,
    shards: Vec<S>,
    work: impl Fn(&mut S, &T) + Sync,
    feed: impl FnOnce(&mut Fanout<'_, T>) -> F,
) -> (Vec<S>, F)
where
    S: Send,
    T: Batch,
{
    let n = shards.len();
    let trace = pipe.obs.trace_span("pipeline.dispatch");
    let in_flight: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let processed: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let (shards, out, dispatched) = std::thread::scope(|scope| {
        let (pool_tx, pool) = channel::<T>();
        for _ in 0..n * BUFFERS_PER_SHARD {
            pool_tx.send(T::default()).expect("pool receiver alive");
        }
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<T>(1);
            senders.push(tx);
            let (work, pool_tx) = (&work, pool_tx.clone());
            let (in_flight, processed) = (&in_flight[i], &processed[i]);
            handles.push(scope.spawn(move || {
                while let Ok(mut batch) = rx.recv() {
                    work(&mut shard, &batch);
                    processed.fetch_add(batch.rows() as u64, Relaxed);
                    batch.clear();
                    in_flight.fetch_sub(1, Relaxed);
                    // The dispatch thread may already be done with the
                    // pool; then the buffer is simply dropped.
                    let _ = pool_tx.send(batch);
                }
                shard
            }));
        }
        // Only workers hand buffers back from here on: if they all die,
        // waiting on the pool fails instead of hanging.
        drop(pool_tx);
        let filling = (0..n)
            .map(|_| pool.recv().expect("the pool starts full"))
            .collect();
        let mut fan = Fanout {
            obs: &pipe.obs,
            senders,
            pool,
            filling,
            in_flight: &in_flight,
            processed: &processed,
            dispatched: 0,
        };
        let out = feed(&mut fan);
        fan.flush_all();
        let dispatched = fan.dispatched;
        drop(fan);
        let shards = handles
            .into_iter()
            .map(|h| h.join().expect("accumulation worker panicked"))
            .collect();
        (shards, out, dispatched)
    });
    if let Some(t) = &trace {
        t.attr("shards", n.to_string());
        t.attr("rows", dispatched.to_string());
    }
    (shards, out)
}
