//! Atomic metric primitives and the [`Registry`] that names them.
//!
//! Everything in the deterministic section of a snapshot is an integer
//! (`u64`) updated with relaxed atomic adds. Integer addition commutes,
//! so a counter bumped from N worker threads reads the same total no
//! matter how the scheduler interleaved them — that single property is
//! what lets metrics ride inside the thread-count-invariance guarantee
//! without per-worker merge machinery. Floating point is confined to
//! stage timings, which live in the snapshot's `timing` section and are
//! documented as non-deterministic.

use crate::clock::Stopwatch;
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot, StageSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins instantaneous value (accumulator sizes, distinct
/// counts). Writers that race should prefer [`Gauge::max`], which is
/// order-insensitive.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the value to at least `v` (commutative across threads).
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of power-of-two histogram buckets: index `i` holds values of
/// bit-length `i` (0, 1, 2–3, 4–7, …), so index 0 is exactly zero and
/// index 64 covers the top half of the `u64` range.
const BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram of `u64` observations.
///
/// Bucket boundaries are static, and per-bucket tallies are atomic adds,
/// so — like [`Counter`] — the full histogram state is thread-count
/// invariant.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        // Saturating rather than wrapping: a pathological sum pins at
        // u64::MAX instead of silently restarting near zero, and the
        // saturation point is order-independent so thread-count
        // invariance is preserved.
        let mut cur = self.sum.load(Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self.sum.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record `n` observations of `v`: the histogram `n` calls of
    /// [`Histogram::observe`] leave, in one step.
    pub fn observe_n(&self, v: u64, n: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(n, Relaxed);
        self.count.fetch_add(n, Relaxed);
        // `n` saturating adds of `v` saturate exactly when one add of
        // `v * n` does.
        let add = v.saturating_mul(n);
        let mut cur = self.sum.load(Relaxed);
        loop {
            let next = cur.saturating_add(add);
            match self.sum.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Inclusive upper bound of bucket `idx` as a decimal string, with
    /// the overflow bucket rendered as `+Inf` (Prometheus convention,
    /// mirrored in the JSON snapshot so the two expositions agree).
    /// Strings keep the labels exact where f64 would round above 2^53.
    fn bucket_le(idx: usize) -> String {
        match idx {
            0 => "0".to_string(),
            64 => "+Inf".to_string(),
            i => ((1u64 << i) - 1).to_string(),
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Relaxed);
                (n > 0).then(|| (Histogram::bucket_le(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Accumulated wall time for one named stage.
#[derive(Debug, Default, Clone, Copy)]
struct StageStat {
    wall_ms: f64,
    invocations: u64,
}

/// The naming authority: hands out shared metric handles by name and
/// produces [`MetricsSnapshot`]s.
///
/// A `Registry` is an ordinary value — pipelines and tests create a
/// fresh one per run so snapshots cover exactly one execution (the
/// bit-identical-across-threads tests depend on that).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    stages: Mutex<BTreeMap<String, StageStat>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Open a timing span for stage `name`; the span records its wall
    /// time into the registry when dropped.
    pub fn stage(&self, name: &str) -> StageTimer<'_> {
        StageTimer {
            registry: self,
            name: name.to_string(),
            watch: Stopwatch::start(),
        }
    }

    fn record_stage(&self, name: &str, wall_ms: f64) {
        let mut map = self.stages.lock().expect("stage registry poisoned");
        let stat = map.entry(name.to_string()).or_default();
        stat.wall_ms += wall_ms;
        stat.invocations += 1;
    }

    /// Materialise the current state of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let stages = self
            .stages
            .lock()
            .expect("stage registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    StageSnapshot {
                        wall_ms: v.wall_ms,
                        invocations: v.invocations,
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            stages,
            http: None,
        }
    }
}

/// A live stage span; records accumulated wall time on drop.
#[derive(Debug)]
pub struct StageTimer<'r> {
    registry: &'r Registry,
    name: String,
    watch: Stopwatch,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        self.registry
            .record_stage(&self.name, self.watch.elapsed_ms());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t.events");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("t.events").get(), 4000);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        assert_eq!(reg.counter("a").get(), 5);
    }

    #[test]
    fn gauge_set_and_max() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(7);
        g.max(3);
        assert_eq!(g.get(), 7);
        g.max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let snap = h.snapshot();
        // 0 → le "0"; 1 → le "1"; 2,3 → le "3"; 4 → le "7"; 1000 → le "1023".
        assert_eq!(
            snap.buckets,
            vec![
                ("0".to_string(), 1),
                ("1".to_string(), 1),
                ("3".to_string(), 2),
                ("7".to_string(), 1),
                ("1023".to_string(), 1),
            ]
        );
    }

    #[test]
    fn overflow_bucket_renders_plus_inf_and_sum_saturates() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![("+Inf".to_string(), 2)]);
    }

    #[test]
    fn stage_timer_records_on_drop() {
        let reg = Registry::new();
        {
            let _t = reg.stage("demo");
        }
        {
            let _t = reg.stage("demo");
        }
        let snap = reg.snapshot();
        let demo = snap.stages.get("demo").expect("stage recorded");
        assert_eq!(demo.invocations, 2);
        assert!(demo.wall_ms >= 0.0);
    }
}
