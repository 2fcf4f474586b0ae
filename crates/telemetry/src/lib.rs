//! Dependency-minimal observability for the MVTEE reproduction.
//!
//! The monitor, the inference runtime and the crypto layer all need the
//! same three primitives: monotone **counters** (divergences detected,
//! GEMM calls, bytes moved), point-in-time **gauges** (queue depths) and
//! latency **histograms** with quantile summaries (checkpoint latency,
//! seal/open cost, op dispatch). This crate provides them over plain
//! `std::sync::atomic` — no external dependencies — plus:
//!
//! * a thread-safe [`Registry`] that names metrics and hands out cheap
//!   cloneable handles,
//! * a process-wide [`global()`] registry that the instrumented crates
//!   record into,
//! * scoped [`Span`] timers that record into a histogram on drop,
//! * a point-in-time [`Snapshot`] with p50/p95/p99 summaries,
//! * a JSONL exporter/importer over one flat-JSON [`json`] module, and a
//!   human-readable report table,
//! * a [`trace`] module: trace/span contexts, a bounded flight
//!   recorder, and a Chrome-trace exporter for per-request timelines.
//!
//! # Disabled mode
//!
//! [`Registry::disabled()`] (or [`set_enabled`]`(false)` on the global
//! registry) turns every record operation into a single relaxed atomic
//! load: handles stay valid, call sites stay compiled, nothing is
//! recorded and nothing allocates.
//!
//! ```
//! let registry = mvtee_telemetry::Registry::disabled();
//! let c = registry.counter("requests");
//! c.inc(); // one relaxed load, no store
//! assert_eq!(registry.snapshot().counters["requests"], 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
pub mod json;
mod metrics;
mod registry;
mod report;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Span};
pub use registry::{HistogramSummary, Registry, Snapshot};
pub use trace::{FlightDump, Recorder, SpanId, TraceCtx, TraceEvent, TraceId};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry the instrumented crates record into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Registers (or finds) a counter on the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Registers (or finds) a gauge on the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Registers (or finds) an HDR-style latency histogram on the global
/// registry (values in nanoseconds by convention).
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Snapshot of every metric on the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Enables or disables recording on the global registry.
pub fn set_enabled(enabled: bool) {
    global().set_enabled(enabled)
}

/// Zeroes every metric on the global registry (keeps registrations).
pub fn reset() {
    global().reset()
}
