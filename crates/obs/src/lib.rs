#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `certchain-obs`: hermetic observability for the certchain workspace.
//!
//! The pipeline digests campus-scale traffic (the paper's corpus is
//! 259.30 M TLS connections) through staged parallel workers, and the
//! workspace's headline guarantee is that its output tables render
//! byte-identical across thread counts. This crate adds the runtime
//! signals a measurement system needs — record accounting, stage
//! timings, progress reporting — without perturbing that guarantee:
//!
//! - [`metrics`]: atomic [`Counter`]/[`Gauge`]/[`Histogram`] handles
//!   named by a [`Registry`]. Deterministic by construction: every value
//!   is a `u64` updated by commutative atomic adds.
//! - [`clock`]: the single sanctioned wall-clock site in the workspace
//!   (srclint's `det-wallclock` rule rejects `Instant::now` /
//!   `SystemTime::now` everywhere else).
//! - [`snapshot`]: [`MetricsSnapshot`], a schema-stable JSON export with
//!   an explicitly deterministic section and a separate timing section.
//! - [`http`]: a tiny GET-only [`HttpServer`] on `std::net`, used by
//!   `certchain serve` to expose metrics snapshots and report tables,
//!   with content negotiation and per-request accounting.
//! - [`trace`]: hierarchical spans and structured events in a bounded
//!   ring-buffer [`TraceJournal`] — the daemon's flight recorder,
//!   strictly confined to the timing side of the snapshot split.
//! - [`prom`]: Prometheus text-format exposition for snapshots.
//! - [`progress`]: a throttled stderr [`Progress`] reporter
//!   (records/sec, chunk queue depth, per-worker throughput).
//! - [`json`]: the workspace's self-contained JSON value type (moved
//!   here from `chainlab` so every layer, including this one, can emit
//!   JSON without a dependency cycle; `chainlab` re-exports it).
//!
//! Like the rest of the workspace the crate is hermetic: std-only, no
//! external dependencies, no unsafe code.

pub mod clock;
pub mod http;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod prom;
pub mod snapshot;
pub mod trace;

pub use http::{HttpRequest, HttpResponse, HttpServer, HttpStats};
pub use metrics::{Counter, Gauge, Histogram, Registry, StageTimer};
pub use progress::Progress;
pub use snapshot::{HistogramSnapshot, HttpSnapshot, MetricsSnapshot, StageSnapshot};
pub use trace::{Span, SpanHandle, TraceEvent, TraceJournal, TraceKind};
