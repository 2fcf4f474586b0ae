//! The named-metric registry and its snapshots.

use crate::metrics::{Bucketing, Counter, Gauge, HistInner, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Shared {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistInner>>>,
}

/// A thread-safe collection of named metrics.
///
/// Handle lookup takes a lock; call sites on hot paths should fetch
/// their handles once (they are cheap `Arc` clones) and record through
/// them. Cloning the registry shares the underlying metrics.
#[derive(Debug, Clone)]
pub struct Registry {
    shared: Arc<Shared>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    fn with_enabled(enabled: bool) -> Self {
        Registry {
            shared: Arc::new(Shared {
                enabled: Arc::new(AtomicBool::new(enabled)),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// An enabled, empty registry.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A registry whose record operations are single-relaxed-load no-ops.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Turns recording on or off for every handle of this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let value = find_or_insert(&self.shared.counters, name, || AtomicU64::new(0));
        Counter { enabled: Arc::clone(&self.shared.enabled), value }
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let value = find_or_insert(&self.shared.gauges, name, || AtomicI64::new(0));
        Gauge { enabled: Arc::clone(&self.shared.enabled), value }
    }

    /// Registers (or finds) the HDR-style histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_inner(name, || Bucketing::Hdr)
    }

    /// Registers (or finds) a fixed-bucket histogram with the given
    /// ascending inclusive upper `bounds` (plus one overflow bucket).
    /// Bounds are used only on first registration.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && !bounds.is_empty(),
            "histogram bounds must be non-empty and strictly ascending"
        );
        self.histogram_inner(name, || Bucketing::Fixed(bounds.to_vec()))
    }

    fn histogram_inner(&self, name: &str, bucketing: impl FnOnce() -> Bucketing) -> Histogram {
        let inner = find_or_insert(&self.shared.histograms, name, || HistInner::new(bucketing()));
        Histogram { enabled: Arc::clone(&self.shared.enabled), inner }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .shared
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .shared
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .shared
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, h)| (k.clone(), HistogramSummary::of(h)))
            .collect();
        Snapshot { counters, gauges, histograms }
    }

    /// Zeroes every metric, keeping names and handles registered.
    pub fn reset(&self) {
        for v in self.shared.counters.lock().expect("registry lock").values() {
            v.store(0, Ordering::Relaxed);
        }
        for v in self.shared.gauges.lock().expect("registry lock").values() {
            v.store(0, Ordering::Relaxed);
        }
        for h in self.shared.histograms.lock().expect("registry lock").values() {
            h.reset();
        }
    }
}

/// The metric `name` in `map`, registered with `new` first if absent. The
/// name is copied only on that first registration: a lookup of an existing
/// metric allocates nothing.
fn find_or_insert<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    new: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().expect("registry lock");
    if let Some(value) = map.get(name) {
        return Arc::clone(value);
    }
    let value = Arc::new(new());
    map.insert(name.to_owned(), Arc::clone(&value));
    value
}

/// Summary statistics for one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSummary {
    fn of(h: &HistInner) -> Self {
        let count = h.count.load(Ordering::Relaxed);
        let sum = h.sum.load(Ordering::Relaxed);
        let min = h.min.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max: h.max.load(Ordering::Relaxed),
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }

    /// Rebuilds a summary from its exported fields (mean recomputed).
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        p50: u64,
        p95: u64,
        p99: u64,
    ) -> Self {
        HistogramSummary {
            count,
            sum,
            min,
            max,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50,
            p95,
            p99,
        }
    }
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}
