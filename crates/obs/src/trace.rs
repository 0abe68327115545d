//! Hierarchical tracing with a bounded ring-buffer journal.
//!
//! This module gives the long-running daemon a flight recorder: spans
//! (with parent/child links and per-span attributes) and structured
//! events, appended to a fixed-capacity journal that evicts
//! oldest-first. It is dependency-free and lives strictly on the
//! *timing* side of the metrics split — nothing recorded here may feed
//! back into report tables or the deterministic snapshot section, so
//! tracing can stay enabled in production without perturbing the
//! byte-identical determinism guarantee.
//!
//! Design notes:
//!
//! - **Bounded, oldest-evicted.** The journal is a ring of `capacity`
//!   slots. Each record claims a global sequence number with one atomic
//!   `fetch_add` and writes into slot `seq % capacity`, replacing the
//!   occupant only if that occupant is older. After writers quiesce the
//!   surviving set is exactly the newest `min(written, capacity)`
//!   records — a property the proptest suite asserts directly.
//! - **No torn events.** Slot payloads sit behind per-slot mutexes, so
//!   a reader never observes a half-written record; lock poisoning is
//!   absorbed with `into_inner` (a panicking writer can at worst lose
//!   its own record).
//! - **Sanctioned clock only.** All timestamps are microseconds since
//!   journal creation, measured via [`crate::clock::Stopwatch`] — the
//!   one file srclint's `det-wallclock` rule allows to read the clock.
//!   CI greps this module to verify no raw wallclock read sneaks in.
//! - **Spans are RAII.** [`Span`] records a start event on creation and
//!   an end event (with accumulated attrs and `dur_us`) on drop, so a
//!   span can never leak open across an early return.

use crate::clock::Stopwatch;
use crate::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema identifier stamped into the `/trace.json` journal dump.
pub const TRACE_SCHEMA: &str = "certchain-trace/v1";

/// Default journal capacity when the caller does not specify one.
pub const DEFAULT_CAPACITY: usize = 1024;

/// What a single journal record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened.
    SpanStart,
    /// A span closed; the record carries its duration and attrs.
    SpanEnd,
    /// A point-in-time structured event.
    Event,
}

impl TraceKind {
    /// Stable lower-case label used in the JSON dump.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::SpanStart => "span_start",
            TraceKind::SpanEnd => "span_end",
            TraceKind::Event => "event",
        }
    }
}

/// One immutable journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (claim order; dense from 0).
    pub seq: u64,
    /// Microseconds since journal creation, via the sanctioned clock.
    pub at_us: u64,
    /// Record kind.
    pub kind: TraceKind,
    /// Span or event name, e.g. `serve.cycle` or `checkpoint.manifest`.
    pub name: String,
    /// Span id this record describes (0 for free-standing events).
    pub span: u64,
    /// Parent span id (0 = root / no owner).
    pub parent: u64,
    /// Attribute key/value pairs, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl TraceEvent {
    fn to_json(&self) -> JsonValue {
        let attrs = self
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
            .collect();
        JsonValue::Obj(vec![
            ("seq".into(), JsonValue::Num(self.seq as f64)),
            ("at_us".into(), JsonValue::Num(self.at_us as f64)),
            ("kind".into(), JsonValue::Str(self.kind.label().into())),
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("span".into(), JsonValue::Num(self.span as f64)),
            ("parent".into(), JsonValue::Num(self.parent as f64)),
            ("attrs".into(), JsonValue::Obj(attrs)),
        ])
    }
}

/// Bounded, oldest-evicted ring journal of [`TraceEvent`]s.
///
/// Cheap to share (`Arc<TraceJournal>`); writers never block each other
/// except on same-slot collisions, and never block on readers for more
/// than one slot at a time.
#[derive(Debug)]
pub struct TraceJournal {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    next_seq: AtomicU64,
    next_span: AtomicU64,
    origin: Stopwatch,
}

impl TraceJournal {
    /// Create a journal holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> TraceJournal {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Mutex::new(None));
        }
        TraceJournal {
            slots,
            next_seq: AtomicU64::new(0),
            // Span id 0 is reserved as "no span / root parent".
            next_span: AtomicU64::new(1),
            origin: Stopwatch::start(),
        }
    }

    /// Journal capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (including evicted ones).
    pub fn written(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Microseconds since the journal was created.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed_micros()
    }

    /// Open a new root span. The span ends (and records its end event)
    /// when dropped.
    pub fn span(self: &Arc<Self>, name: &str) -> Span {
        Span::open(Arc::clone(self), name, 0)
    }

    /// A handle that opens root spans: [`SpanHandle::child`] is then
    /// [`TraceJournal::span`].
    pub fn root(self: &Arc<Self>) -> SpanHandle {
        SpanHandle {
            journal: Arc::clone(self),
            id: 0,
        }
    }

    /// Record a free-standing event (no owning span).
    pub fn event(&self, name: &str, attrs: &[(&str, String)]) {
        self.push(TraceKind::Event, name, 0, 0, attrs);
    }

    fn claim_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, kind: TraceKind, name: &str, span: u64, parent: u64, attrs: &[(&str, String)]) {
        let owned: Vec<(String, String)> = attrs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect();
        self.push_owned(kind, name.to_string(), span, parent, owned);
    }

    fn push_owned(
        &self,
        kind: TraceKind,
        name: String,
        span: u64,
        parent: u64,
        attrs: Vec<(String, String)>,
    ) {
        let at_us = self.origin.elapsed_micros();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        let record = TraceEvent {
            seq,
            at_us,
            kind,
            name,
            span,
            parent,
            attrs,
        };
        if let Some(slot) = self.slots.get(idx) {
            let mut guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            // Replace only an older occupant: a slow writer that claimed
            // a low seq long ago must not clobber a newer record that
            // already wrapped around into the same slot.
            let keep_existing = matches!(guard.as_ref(), Some(old) if old.seq > record.seq);
            if !keep_existing {
                *guard = Some(record);
            }
        }
    }

    /// Snapshot the surviving records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(ev) = guard.as_ref() {
                out.push(ev.clone());
            }
        }
        out.sort_by_key(|ev| ev.seq);
        out
    }

    /// Serialise the journal (`certchain-trace/v1`): capacity, totals,
    /// and the surviving records oldest-first.
    pub fn to_json(&self) -> JsonValue {
        let events = self.snapshot();
        let written = self.written();
        let evicted = written.saturating_sub(events.len() as u64);
        let rendered = events.iter().map(TraceEvent::to_json).collect();
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str(TRACE_SCHEMA.into())),
            ("capacity".into(), JsonValue::Num(self.capacity() as f64)),
            ("written".into(), JsonValue::Num(written as f64)),
            ("evicted".into(), JsonValue::Num(evicted as f64)),
            ("events".into(), JsonValue::Arr(rendered)),
        ])
    }
}

/// An open span. Records `span_start` on creation and `span_end` (with
/// accumulated attrs plus `dur_us`) when dropped.
#[derive(Debug)]
pub struct Span {
    journal: Arc<TraceJournal>,
    id: u64,
    parent: u64,
    name: String,
    start_us: u64,
    attrs: Mutex<Vec<(String, String)>>,
}

impl Span {
    fn open(journal: Arc<TraceJournal>, name: &str, parent: u64) -> Span {
        let id = journal.claim_span_id();
        journal.push(TraceKind::SpanStart, name, id, parent, &[]);
        let start_us = journal.now_us();
        Span {
            journal,
            id,
            parent,
            name: name.to_string(),
            start_us,
            attrs: Mutex::new(Vec::new()),
        }
    }

    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Open a child span parented under this one.
    pub fn child(&self, name: &str) -> Span {
        Span::open(Arc::clone(&self.journal), name, self.id)
    }

    /// A handle that opens children of this span without borrowing it,
    /// for a component that the span's owner runs.
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            journal: Arc::clone(&self.journal),
            id: self.id,
        }
    }

    /// Attach an attribute, emitted with the `span_end` record.
    pub fn attr(&self, key: &str, value: impl Into<String>) {
        let mut attrs = self
            .attrs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        attrs.push((key.to_string(), value.into()));
    }

    /// Record a structured event owned by this span.
    pub fn event(&self, name: &str, attrs: &[(&str, String)]) {
        self.journal.push(TraceKind::Event, name, 0, self.id, attrs);
    }
}

/// Where new spans attach: a journal and a parent span id (0 for the
/// root). Cheap to clone; it neither opens nor closes the parent, so a
/// child opened after the parent closed still names it.
#[derive(Debug, Clone)]
pub struct SpanHandle {
    journal: Arc<TraceJournal>,
    id: u64,
}

impl SpanHandle {
    /// Open a span under the handle's parent.
    pub fn child(&self, name: &str) -> Span {
        Span::open(Arc::clone(&self.journal), name, self.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.journal.now_us().saturating_sub(self.start_us);
        let mut attrs = std::mem::take(
            &mut *self
                .attrs
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        attrs.push(("dur_us".to_string(), dur_us.to_string()));
        self.journal.push_owned(
            TraceKind::SpanEnd,
            std::mem::take(&mut self.name),
            self.id,
            self.parent,
            attrs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(cap: usize) -> Arc<TraceJournal> {
        Arc::new(TraceJournal::new(cap))
    }

    #[test]
    fn span_tree_records_start_end_and_parentage() {
        let j = journal(64);
        {
            let root = j.span("cycle");
            root.attr("files", "3");
            {
                let child = root.child("fold");
                child.event("file.done", &[("name", "a.log".to_string())]);
            }
        }
        let events = j.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            vec!["span_start", "span_start", "event", "span_end", "span_end"]
        );
        let root_start = &events[0];
        let child_start = &events[1];
        assert_eq!(root_start.parent, 0);
        assert_eq!(child_start.parent, root_start.span);
        // The event is owned by the child span.
        assert_eq!(events[2].parent, child_start.span);
        // Child closes before root (RAII order), attrs ride the end record.
        assert_eq!(events[3].span, child_start.span);
        let root_end = &events[4];
        assert_eq!(root_end.span, root_start.span);
        assert!(root_end.attrs.iter().any(|(k, v)| k == "files" && v == "3"));
        assert!(root_end.attrs.iter().any(|(k, _)| k == "dur_us"));
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let j = journal(4);
        for i in 0..10u64 {
            j.event("tick", &[("i", i.to_string())]);
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(j.written(), 10);
    }

    #[test]
    fn capacity_floor_is_one() {
        let j = journal(0);
        assert_eq!(j.capacity(), 1);
        j.event("only", &[]);
        j.event("newer", &[]);
        let events = j.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "newer");
    }

    #[test]
    fn timestamps_are_monotone_in_seq_order() {
        let j = journal(16);
        for _ in 0..8 {
            j.event("t", &[]);
        }
        let events = j.snapshot();
        for pair in events.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us);
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn json_dump_has_schema_and_counts() {
        let j = journal(2);
        for _ in 0..5 {
            j.event("e", &[]);
        }
        let text = j.to_json().to_pretty();
        let doc = crate::json::parse(&text).expect("trace json parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(TRACE_SCHEMA)
        );
        assert_eq!(doc.get("capacity").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(doc.get("written").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(doc.get("evicted").and_then(|v| v.as_u64()), Some(3));
        let events = doc.get("events").and_then(|v| v.as_arr()).expect("events");
        assert_eq!(events.len(), 2);
    }
}
