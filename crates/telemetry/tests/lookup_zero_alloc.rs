//! Proves the lookup contract: finding a metric that is already registered
//! copies no name and touches no allocator, on a private registry and on
//! the global one alike. The counting allocator tallies the measuring
//! thread's calls only, so the test harness's threads cannot add to it.

use mvtee_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (`alloc` and `realloc`) this thread made since
    /// the last [`calls_of`].
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Const-initialised, drop-free thread-locals never allocate, so the
/// allocator may touch them.
fn count() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the bookkeeping only updates this thread's plain counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation calls `f` makes on this thread.
fn calls_of(f: impl FnOnce()) -> u64 {
    CALLS.with(|calls| calls.set(0));
    f();
    CALLS.with(Cell::get)
}

#[test]
fn looking_up_registered_metrics_does_not_allocate() {
    let registry = Registry::new();
    registry.counter("lookup.counter");
    registry.gauge("lookup.gauge");
    registry.histogram("lookup.histogram");
    mvtee_telemetry::counter("lookup.global.counter");
    mvtee_telemetry::gauge("lookup.global.gauge");
    mvtee_telemetry::histogram("lookup.global.histogram");

    let calls = calls_of(|| {
        for _ in 0..10_000 {
            registry.counter("lookup.counter").inc();
            registry.gauge("lookup.gauge").add(1);
            registry.histogram("lookup.histogram").record(1);
            mvtee_telemetry::counter("lookup.global.counter").inc();
            mvtee_telemetry::gauge("lookup.global.gauge").add(1);
            mvtee_telemetry::histogram("lookup.global.histogram").record(1);
        }
    });
    assert_eq!(calls, 0, "looking up a registered metric allocated");

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
