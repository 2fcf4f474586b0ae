//! End-to-end request tracing and the flight recorder.
//!
//! A [`TraceCtx`] names one causal chain (one serve request, one
//! pipeline batch, one recovery attempt) and is threaded through the
//! serving frontend, the monitor's pipeline stages, the variant hosts, the
//! inference runtime and the secure channels. Each instrumented site
//! opens a [`SpanGuard`] (duration span) or emits an instant event; the
//! process-wide [`Recorder`] keeps the most recent events in a sharded
//! ring buffer.
//!
//! # Cost model
//!
//! Tracing is **off by default**. Every entry point ([`Recorder::span`],
//! [`Recorder::instant`], [`Recorder::complete`], [`Recorder::dump`])
//! checks one relaxed atomic load first and returns an inert guard
//! without touching the clock, allocating, or taking a lock. Call sites
//! that need to format argument strings should gate that work on
//! [`Recorder::is_enabled`]; [`SpanGuard::arg`] itself formats only when
//! the guard is live.
//!
//! # Flight recorder
//!
//! [`Recorder::dump`] snapshots the last [`FLIGHT_DUMP_EVENTS`] events
//! into a bounded list of [`FlightDump`]s. The instrumented crates call
//! it on divergence, variant crash, admission shed and recovery
//! completion, so the causal chain leading into an incident survives
//! even after the ring wraps.
//!
//! # Ambient context
//!
//! Crates that cannot thread a context through their API (the runtime
//! interpreter, the crypto channels) read the per-thread ambient
//! context: the monitor and variant hosts call [`set_current`] when
//! they pick up a batch, and leaf spans parent themselves under
//! [`current`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring shards (threads are spread round-robin across them).
const SHARDS: usize = 8;
/// Default per-shard ring capacity of the global recorder.
const DEFAULT_SHARD_CAPACITY: usize = 4096;
/// Events captured per flight dump (the "last N" window) — sized so the
/// window spans a full request's per-op spans across every variant of a
/// small model, keeping the request root visible at incident time.
pub const FLIGHT_DUMP_EVENTS: usize = 2048;
/// Bounded number of retained flight dumps; older dumps are discarded.
pub const FLIGHT_DUMP_SLOTS: usize = 8;

/// Identifies one causal chain (request, batch or recovery attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A propagated trace context: the trace plus the current parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace this work belongs to.
    pub trace: TraceId,
    /// The span that parents new child spans.
    pub span: SpanId,
}

/// SplitMix64: deterministic 64-bit mixing for trace-id derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceCtx {
    /// The absent context: no trace, no parent.
    pub const NONE: TraceCtx = TraceCtx { trace: TraceId(0), span: SpanId(0) };

    /// Whether this is the absent context.
    pub fn is_none(self) -> bool {
        self.trace.0 == 0
    }

    fn root(trace: u64) -> TraceCtx {
        // A zero-valued derivation would alias NONE; nudge it.
        let trace = if trace == 0 { 1 } else { trace };
        TraceCtx { trace: TraceId(trace), span: SpanId(trace) }
    }

    /// Deterministic root context for a serve request id.
    pub fn for_request(id: u64) -> TraceCtx {
        Self::root(splitmix64(id ^ 0x0052_4551_5545_5354)) // "REQUEST"
    }

    /// Deterministic root context for a locally submitted pipeline batch.
    pub fn for_batch(batch: u64) -> TraceCtx {
        Self::root(splitmix64(batch ^ 0x0042_4154_4348)) // "BATCH"
    }

    /// Deterministic root context for a recovery attempt, keyed by the
    /// quarantined variant's coordinates and channel epoch.
    pub fn for_recovery(partition: usize, variant: usize, epoch: u64) -> TraceCtx {
        let key = splitmix64(partition as u64)
            ^ splitmix64(variant as u64).rotate_left(17)
            ^ splitmix64(epoch ^ 0x0052_4543_4f56); // "RECOV"
        Self::root(splitmix64(key))
    }

    /// Raw `(trace, span)` pair for wire transport.
    pub fn as_pair(self) -> (u64, u64) {
        (self.trace.0, self.span.0)
    }

    /// Rebuilds a context from its wire pair.
    pub fn from_pair(pair: (u64, u64)) -> TraceCtx {
        TraceCtx { trace: TraceId(pair.0), span: SpanId(pair.1) }
    }
}

/// Whether an event is a duration span or a point-in-time marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A closed duration span.
    Span,
    /// An instantaneous event.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Owning trace id.
    pub trace: u64,
    /// This event's span id (recorder-unique).
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Span name, e.g. `core.checkpoint`.
    pub name: String,
    /// Logical track (rendered as a Chrome-trace thread), e.g. `p0`.
    pub track: String,
    /// Start offset in nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Span or instant.
    pub kind: TraceEventKind,
    /// Key/value annotations.
    pub args: Vec<(String, String)>,
}

/// A snapshot of the recent-event window taken at an incident.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (shed, divergence, crash, recovery...).
    pub reason: String,
    /// The captured events, oldest first.
    pub events: Vec<TraceEvent>,
}

#[derive(Debug, Default)]
struct Shard {
    ring: VecDeque<TraceEvent>,
}

/// Lock-light bounded recorder for trace events.
///
/// Threads are spread round-robin over `SHARDS` independent
/// mutex-protected rings, so concurrent recording rarely contends.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_span: AtomicU64,
    shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
    dropped: AtomicU64,
    dumps: Mutex<VecDeque<FlightDump>>,
    events_total: OnceLock<crate::Counter>,
    dropped_total: OnceLock<crate::Counter>,
    dumps_total: OnceLock<crate::Counter>,
}

impl Recorder {
    /// A disabled recorder with `shard_capacity` events per shard.
    pub fn new(shard_capacity: usize) -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            shard_capacity,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            dropped: AtomicU64::new(0),
            dumps: Mutex::new(VecDeque::new()),
            events_total: OnceLock::new(),
            dropped_total: OnceLock::new(),
            dumps_total: OnceLock::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on (one relaxed load).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a duration span under `ctx`; recorded when the guard drops.
    ///
    /// Disabled recorders hand back an inert guard whose
    /// [`SpanGuard::ctx`] still returns `ctx`, so propagation code works
    /// identically with tracing off.
    pub fn span<'a>(&'a self, ctx: TraceCtx, name: &str, track: &str) -> SpanGuard<'a> {
        if !self.is_enabled() {
            return SpanGuard { rec: self, fallback: ctx, data: None };
        }
        self.open(ctx, name, track, Instant::now(), TraceEventKind::Span)
    }

    /// Emits a point-in-time event under `ctx` (recorded on drop, so
    /// annotations can be chained with [`SpanGuard::arg`]).
    pub fn instant<'a>(&'a self, ctx: TraceCtx, name: &str, track: &str) -> SpanGuard<'a> {
        if !self.is_enabled() {
            return SpanGuard { rec: self, fallback: ctx, data: None };
        }
        self.open(ctx, name, track, Instant::now(), TraceEventKind::Instant)
    }

    /// Opens a span whose start time is the externally measured
    /// `start` (e.g. a request's admission timestamp); the guard closes
    /// it on drop as usual.
    pub fn complete<'a>(
        &'a self,
        ctx: TraceCtx,
        name: &str,
        track: &str,
        start: Instant,
    ) -> SpanGuard<'a> {
        if !self.is_enabled() {
            return SpanGuard { rec: self, fallback: ctx, data: None };
        }
        self.open(ctx, name, track, start, TraceEventKind::Span)
    }

    fn open<'a>(
        &'a self,
        ctx: TraceCtx,
        name: &str,
        track: &str,
        start: Instant,
        kind: TraceEventKind,
    ) -> SpanGuard<'a> {
        let span = self.next_span.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            rec: self,
            fallback: ctx,
            data: Some(Box::new(SpanData {
                trace: ctx.trace.0,
                span,
                parent: ctx.span.0,
                name: name.to_owned(),
                track: track.to_owned(),
                start,
                kind,
                args: Vec::new(),
            })),
        }
    }

    fn record(&self, data: SpanData) {
        let now = Instant::now();
        let start_ns = data
            .start
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        let dur_ns = match data.kind {
            TraceEventKind::Span => {
                now.saturating_duration_since(data.start).as_nanos().min(u64::MAX as u128) as u64
            }
            TraceEventKind::Instant => 0,
        };
        let event = TraceEvent {
            trace: data.trace,
            span: data.span,
            parent: data.parent,
            name: data.name,
            track: data.track,
            start_ns,
            dur_ns,
            kind: data.kind,
            args: data.args,
        };
        let shard = &self.shards[shard_index()];
        let mut guard = shard.lock().expect("trace shard lock");
        if guard.ring.len() >= self.shard_capacity {
            guard.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.dropped_total
                .get_or_init(|| crate::counter("trace.dropped_total"))
                .inc();
        }
        guard.ring.push_back(event);
        drop(guard);
        self.events_total
            .get_or_init(|| crate::counter("trace.events_total"))
            .inc();
    }

    /// Number of events evicted from the ring since the last clear.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out every retained event, ordered by start time.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for shard in &self.shards {
            events.extend(shard.lock().expect("trace shard lock").ring.iter().cloned());
        }
        events.sort_by_key(|e| (e.start_ns, e.span));
        events
    }

    /// Takes a flight dump: snapshots the last [`FLIGHT_DUMP_EVENTS`]
    /// events under `reason`. Keeps at most [`FLIGHT_DUMP_SLOTS`] dumps,
    /// discarding the oldest. No-op while disabled.
    pub fn dump(&self, reason: &str) {
        if !self.is_enabled() {
            return;
        }
        let mut events = self.snapshot();
        if events.len() > FLIGHT_DUMP_EVENTS {
            events.drain(..events.len() - FLIGHT_DUMP_EVENTS);
        }
        let mut dumps = self.dumps.lock().expect("trace dumps lock");
        if dumps.len() >= FLIGHT_DUMP_SLOTS {
            dumps.pop_front();
        }
        dumps.push_back(FlightDump { reason: reason.to_owned(), events });
        drop(dumps);
        self.dumps_total
            .get_or_init(|| crate::counter("trace.dumps_total"))
            .inc();
    }

    /// Copies out the retained flight dumps, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().expect("trace dumps lock").iter().cloned().collect()
    }

    /// Discards all retained events and flight dumps.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("trace shard lock").ring.clear();
        }
        self.dumps.lock().expect("trace dumps lock").clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct SpanData {
    trace: u64,
    span: u64,
    parent: u64,
    name: String,
    track: String,
    start: Instant,
    kind: TraceEventKind,
    args: Vec<(String, String)>,
}

/// An open span (or pending instant); records into the recorder on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    fallback: TraceCtx,
    data: Option<Box<SpanData>>,
}

impl SpanGuard<'_> {
    /// The child context for work nested under this span. Inert guards
    /// pass the original context through unchanged.
    pub fn ctx(&self) -> TraceCtx {
        match &self.data {
            Some(d) => TraceCtx { trace: TraceId(d.trace), span: SpanId(d.span) },
            None => self.fallback,
        }
    }

    /// Attaches a key/value annotation. Formats `value` only when the
    /// guard is live, so disabled tracing pays nothing here.
    pub fn arg(mut self, key: &str, value: impl Display) -> Self {
        if let Some(data) = self.data.as_mut() {
            data.args.push((key.to_owned(), value.to_string()));
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            self.rec.record(*data);
        }
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder the instrumented crates record into.
/// Starts disabled.
pub fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(|| Recorder::new(DEFAULT_SHARD_CAPACITY))
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn shard_index() -> usize {
    THREAD_SHARD.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            slot.set(idx);
        }
        idx
    })
}

/// Sets this thread's ambient trace context (used by leaf spans in the
/// runtime and crypto layers that cannot thread a context explicitly).
pub fn set_current(ctx: TraceCtx) {
    CURRENT.with(|slot| slot.set(ctx.as_pair()));
}

/// This thread's ambient trace context ([`TraceCtx::NONE`] if unset).
pub fn current() -> TraceCtx {
    CURRENT.with(|slot| TraceCtx::from_pair(slot.get()))
}

/// Registers the `trace.*` counters so they show up (zero-valued) in
/// reports before the first event is recorded.
pub fn register_trace_metrics() {
    for name in ["trace.events_total", "trace.dropped_total", "trace.dumps_total"] {
        crate::counter(name);
    }
}

/// Renders events as Chrome-trace / Perfetto JSON (`chrome://tracing`,
/// <https://ui.perfetto.dev>). Tracks become named threads of one
/// process; durations are `X` events, instants are `i` events.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut tracks: Vec<&str> = events.iter().map(|e| e.track.as_str()).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid_of = |track: &str| -> usize {
        tracks.binary_search(&track).map(|i| i + 1).unwrap_or(0)
    };
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (i, track) in tracks.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            i + 1,
            json_escape(track)
        );
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        let ts_us = e.start_ns as f64 / 1_000.0;
        match e.kind {
            TraceEventKind::Span => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"mvtee\",\"ts\":{ts_us:.3},\"dur\":{:.3}",
                    tid_of(&e.track),
                    json_escape(&e.name),
                    e.dur_ns as f64 / 1_000.0,
                );
            }
            TraceEventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"mvtee\",\"ts\":{ts_us:.3},\"s\":\"t\"",
                    tid_of(&e.track),
                    json_escape(&e.name),
                );
            }
        }
        let _ = write!(
            out,
            ",\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:x}\",\"parent\":\"{:x}\"",
            e.trace, e.span, e.parent
        );
        for (k, v) in &e.args {
            let _ = write!(out, ",{}:{}", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_contexts_are_deterministic_and_distinct() {
        assert_eq!(TraceCtx::for_request(7), TraceCtx::for_request(7));
        assert_ne!(TraceCtx::for_request(7), TraceCtx::for_request(8));
        assert_ne!(TraceCtx::for_request(7), TraceCtx::for_batch(7));
        assert_ne!(
            TraceCtx::for_recovery(0, 1, 2),
            TraceCtx::for_recovery(1, 0, 2)
        );
        assert!(!TraceCtx::for_request(0).is_none());
    }

    #[test]
    fn wire_pair_round_trips() {
        let ctx = TraceCtx::for_request(99);
        assert_eq!(TraceCtx::from_pair(ctx.as_pair()), ctx);
        assert_eq!(TraceCtx::from_pair(TraceCtx::NONE.as_pair()), TraceCtx::NONE);
    }

    #[test]
    fn spans_nest_and_record() {
        let rec = Recorder::new(64);
        rec.set_enabled(true);
        let root = TraceCtx::for_request(1);
        {
            let outer = rec.span(root, "outer", "t").arg("k", "v");
            let inner_ctx = outer.ctx();
            assert_eq!(inner_ctx.trace, root.trace);
            assert_ne!(inner_ctx.span, root.span);
            let _inner = rec.span(inner_ctx, "inner", "t");
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        assert_eq!(outer.parent, root.span.0);
        assert_eq!(inner.parent, outer.span);
        assert_eq!(outer.args, vec![("k".to_owned(), "v".to_owned())]);
        assert_eq!(inner.trace, root.trace.0);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_passes_ctx_through() {
        let rec = Recorder::new(64);
        let ctx = TraceCtx::for_batch(3);
        {
            let g = rec.span(ctx, "quiet", "t").arg("k", 1);
            assert_eq!(g.ctx(), ctx);
        }
        rec.instant(ctx, "quiet2", "t");
        rec.dump("no-op");
        assert!(rec.snapshot().is_empty());
        assert!(rec.dumps().is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = Recorder::new(4);
        rec.set_enabled(true);
        let ctx = TraceCtx::for_batch(0);
        for i in 0..40 {
            rec.instant(ctx, "e", "t").arg("i", i);
        }
        // Everything lands on this thread's single shard, so exactly
        // `capacity` events survive.
        assert_eq!(rec.snapshot().len(), 4);
        assert_eq!(rec.dropped(), 36);
    }

    #[test]
    fn flight_dumps_are_bounded() {
        let rec = Recorder::new(16);
        rec.set_enabled(true);
        let ctx = TraceCtx::for_batch(0);
        rec.instant(ctx, "before", "t");
        for i in 0..(FLIGHT_DUMP_SLOTS + 3) {
            rec.dump(&format!("reason-{i}"));
        }
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), FLIGHT_DUMP_SLOTS);
        assert_eq!(dumps[0].reason, "reason-3");
        assert!(dumps[0].events.iter().any(|e| e.name == "before"));
    }

    #[test]
    fn instants_have_zero_duration() {
        let rec = Recorder::new(16);
        rec.set_enabled(true);
        rec.instant(TraceCtx::for_batch(1), "mark", "t");
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].dur_ns, 0);
        assert_eq!(events[0].kind, TraceEventKind::Instant);
    }

    #[test]
    fn ambient_context_is_per_thread() {
        set_current(TraceCtx::for_request(5));
        assert_eq!(current(), TraceCtx::for_request(5));
        let other = std::thread::spawn(current).join().expect("joins");
        assert_eq!(other, TraceCtx::NONE);
        set_current(TraceCtx::NONE);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let rec = Recorder::new(16);
        rec.set_enabled(true);
        {
            let _s = rec.span(TraceCtx::for_request(1), "serve.request", "serve").arg("id", 1);
        }
        rec.instant(TraceCtx::for_request(1), "serve.shed", "serve");
        let json = chrome_trace(&rec.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"serve.request\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn clear_discards_events_and_dumps() {
        let rec = Recorder::new(16);
        rec.set_enabled(true);
        rec.instant(TraceCtx::for_batch(1), "e", "t");
        rec.dump("incident");
        rec.clear();
        assert!(rec.snapshot().is_empty());
        assert!(rec.dumps().is_empty());
        assert_eq!(rec.dropped(), 0);
    }
}
