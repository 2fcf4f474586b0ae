//! The benchmark's own in-memory spans, recorded around its calls into each
//! crate's public functions. Spans inside the crates are a later change; see
//! README.md ("Tracing").
//!
//! Recording is off unless the run is traced: a disabled [`span`] is one
//! relaxed load and records nothing.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent` is the id of the span that was open on the
/// same thread when this one started (0 = none); spans of one request share
/// `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the spans this thread opens from now on with a request id.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; recorded when dropped.
pub struct SpanGuard(Option<(&'static str, u32, u32, u64)>);

/// Opens a span named `name` under whatever span this thread has open.
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    SpanGuard(Some((name, id, parent, now_ns())))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((name, id, parent, start_ns)) = self.0.take() else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.truncate(pos);
            }
        });
        let rec = SpanRec {
            name,
            id,
            parent,
            request: REQUEST.with(Cell::get),
            thread: thread_id(),
            start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(rec);
        }
    }
}

/// Runs `f` inside a span.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Everything recorded so far.
pub fn snapshot() -> Vec<SpanRec> {
    SPANS.lock().map(|s| s.clone()).unwrap_or_default()
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Returned by span id.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Union of the children's intervals, clipped to the parent.
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.clamp(reach, s.end_ns);
                    let end = end.clamp(reach, s.end_ns);
                    covered += end - start;
                    reach = reach.max(end);
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per span name: how many spans and their summed self time in ns.
pub fn self_time_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += own[&s.id];
    }
    out
}

/// Chrome-trace / Perfetto JSON (`chrome://tracing`, <https://ui.perfetto.dev>):
/// one complete (`X`) event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[SpanRec]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.thread))),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("request", Json::Num(s.request as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            request: 7,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            rec("request", 1, 0, 0, 100),
            rec("seal", 2, 1, 10, 30),
            rec("open", 3, 1, 50, 70),
            rec("ghash", 4, 2, 12, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 60);
        assert_eq!(own[&2], 12);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 8);
        // Self times of a tree sum to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["seal"], (1, 12));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children on other threads may overlap each other and outlive the
        // parent; only their union inside the parent is subtracted.
        let spans = [
            rec("parent", 1, 0, 100, 200),
            rec("a", 2, 1, 110, 150),
            rec("b", 3, 1, 140, 180),
            rec("late", 4, 1, 190, 260),
            rec("early", 5, 1, 50, 105),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - (5 + 70 + 10));
    }

    #[test]
    fn guards_nest_and_record_only_when_enabled() {
        // The only test that touches the global recorder.
        drop(span("bench.test.disabled"));
        set_enabled(true);
        set_request(42);
        {
            let _outer = span("bench.test.outer");
            within("bench.test.inner", || std::hint::black_box(1 + 1));
        }
        set_enabled(false);
        let spans: Vec<SpanRec> = snapshot()
            .into_iter()
            .filter(|s| s.name.starts_with("bench.test."))
            .collect();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "bench.test.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "bench.test.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.request, 42);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let doc = chrome_trace(&spans);
        let parsed = crate::json::parse(&doc.pretty()).unwrap();
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
    }
}
