//! Proves the disabled-mode contract: once handles exist, record calls on
//! a disabled registry never touch the allocator (they are a single
//! relaxed atomic load). The counting allocator tallies the measuring
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
fn disabled_record_paths_do_not_allocate() {
    let registry = Registry::disabled();
    let counter = registry.counter("c");
    let gauge = registry.gauge("g");
    let histogram = registry.histogram("h");

    let calls = calls_of(|| {
        for i in 0..10_000 {
            counter.inc();
            counter.add(i);
            gauge.set(i as i64);
            gauge.add(-1);
            histogram.record(i);
            histogram.start().finish();
            drop(histogram.start());
        }
    });
    assert_eq!(calls, 0, "disabled record path allocated");

    // And nothing was recorded.
    let snap = registry.snapshot();
    assert_eq!(snap.counters["c"], 0);
    assert_eq!(snap.gauges["g"], 0);
    assert_eq!(snap.histograms["h"].count, 0);
}
