//! Proves the lookup contract: finding a metric that is already registered
//! copies no name and touches no allocator, on a private registry and on
//! the global one alike. Kept as the only test in this binary so no
//! parallel test can allocate during the measured window.

use mvtee_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn looking_up_registered_metrics_does_not_allocate() {
    let registry = Registry::new();
    registry.counter("lookup.counter");
    registry.gauge("lookup.gauge");
    registry.histogram("lookup.histogram");
    mvtee_telemetry::counter("lookup.global.counter");
    mvtee_telemetry::gauge("lookup.global.gauge");
    mvtee_telemetry::histogram("lookup.global.histogram");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        registry.counter("lookup.counter").inc();
        registry.gauge("lookup.gauge").add(1);
        registry.histogram("lookup.histogram").record(1);
        mvtee_telemetry::counter("lookup.global.counter").inc();
        mvtee_telemetry::gauge("lookup.global.gauge").add(1);
        mvtee_telemetry::histogram("lookup.global.histogram").record(1);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after, before, "looking up a registered metric allocated");

    // The lookups found the registered metrics rather than new ones.
    let snap = registry.snapshot();
    assert_eq!(snap.counters["lookup.counter"], 10_000);
    assert_eq!(snap.gauges["lookup.gauge"], 10_000);
    assert_eq!(snap.histograms["lookup.histogram"].count, 10_000);
    assert_eq!(
        mvtee_telemetry::counter("lookup.global.counter").get(),
        10_000
    );
}
