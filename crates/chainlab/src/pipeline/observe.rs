//! Pipeline-side observability hooks.
//!
//! A [`Pipeline`](super::Pipeline) optionally carries a metrics registry
//! and a progress reporter; every hook here is a no-op when they are
//! absent, so the instrumented code paths read the same either way and
//! the byte-identical-tables guarantee is trivially unaffected by
//! turning metrics on (a regression test pins that too).
//!
//! Determinism discipline: everything recorded through this module into
//! the registry is derived from thread-count-invariant state — record
//! totals (commutative integer sums), post-merge collection sizes, and
//! the deterministic chain set. Scheduling-dependent values (queue
//! depths, per-worker throughput) go only to the progress reporter,
//! which writes to stderr and never into an artifact.

use certchain_obs::{Progress, Registry, Span, SpanHandle, StageTimer};
use std::sync::Arc;

/// Optional observability wiring carried by a pipeline.
#[derive(Debug, Default, Clone)]
pub(crate) struct PipelineObs {
    /// Deterministic counters/gauges/histograms + stage timings.
    pub(crate) metrics: Option<Arc<Registry>>,
    /// Throttled stderr reporter (never feeds artifacts).
    pub(crate) progress: Option<Arc<Progress>>,
    /// Where the stage spans attach in a bounded trace journal: its root,
    /// or the span that runs the pipeline (timing side only; never feeds
    /// artifacts).
    pub(crate) trace: Option<SpanHandle>,
}

/// One pipeline stage in flight: its registry timer (wall time into the
/// `timing` section) and its `pipeline.<name>` span in the journal, each
/// there only when its sink is wired, both closed on drop.
pub(crate) struct Stage<'o> {
    _timer: Option<StageTimer<'o>>,
    span: Option<Span>,
}

impl Stage<'_> {
    /// Attach an attribute to the stage's span; nothing is formatted when
    /// tracing is off.
    pub(crate) fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(span) = &self.span {
            span.attr(key, value.to_string());
        }
    }

    /// Open a span under the stage's: the dispatch inside ingest, which
    /// the registry does not time.
    pub(crate) fn child(&self, name: &str) -> Option<Span> {
        self.span.as_ref().map(|span| span.child(name))
    }
}

impl PipelineObs {
    /// Open stage `name`: the registry's stage timer and the journal's
    /// `pipeline.<name>` span together.
    pub(crate) fn stage(&self, name: &str) -> Stage<'_> {
        Stage {
            _timer: self.metrics.as_deref().map(|r| r.stage(name)),
            span: self
                .trace
                .as_ref()
                .map(|t| t.child(&format!("pipeline.{name}"))),
        }
    }

    /// Add to a counter. Called with `n == 0` too, deliberately: the
    /// counter is still registered, so snapshot keys are stable whether
    /// or not events occurred.
    pub(crate) fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.metrics {
            r.counter(name).add(n);
        }
    }

    /// Set a gauge.
    pub(crate) fn set(&self, name: &str, v: u64) {
        if let Some(r) = &self.metrics {
            r.gauge(name).set(v);
        }
    }

    /// Forward a progress tick (rate-limited by the reporter).
    pub(crate) fn tick(&self, records: u64, queue_depth: usize, per_worker: &[u64]) {
        if let Some(p) = &self.progress {
            p.tick(records, queue_depth, per_worker);
        }
    }

    /// Emit the final progress line.
    pub(crate) fn finish_progress(&self, records: u64) {
        if let Some(p) = &self.progress {
            p.finish(records);
        }
    }
}
