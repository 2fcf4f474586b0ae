//! Proves the trace layer's disabled-mode contract: with tracing off,
//! every entry point (span open, instant, complete, arg annotation,
//! flight dump, ambient-context reads) is a single relaxed atomic load
//! plus trivial `Copy` moves — no clock reads and, asserted here, no
//! allocator traffic. The counting allocator tallies the measuring
//! thread's calls only, so the test harness's threads cannot add to it.

use mvtee_telemetry::trace::{self, Recorder, TraceCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

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
fn disabled_trace_paths_do_not_allocate() {
    // Force one-time initialisation (global recorder, thread-locals,
    // thread shard assignment) outside the measured window.
    let global = trace::recorder();
    assert!(!global.is_enabled(), "tracing must start disabled");
    let local = Recorder::new(16);
    let ctx = TraceCtx::for_request(1);
    trace::set_current(ctx);
    let epoch = Instant::now();
    {
        let warm = local.span(ctx, "warm", "t");
        drop(warm);
    }

    let calls = calls_of(|| {
        for i in 0..10_000u64 {
            let g = global.span(ctx, "hot.span", "track").arg("i", i);
            assert_eq!(g.ctx(), ctx); // inert guards pass the ctx through
            drop(g);
            drop(global.instant(ctx, "hot.instant", "track"));
            drop(global.complete(ctx, "hot.complete", "track", epoch));
            global.dump("never");
            drop(local.span(trace::current(), "hot.local", "track"));
            trace::set_current(ctx);
        }
    });
    assert_eq!(calls, 0, "disabled trace path allocated");

    // And nothing was recorded anywhere.
    assert!(global.snapshot().is_empty());
    assert!(global.dumps().is_empty());
    assert!(local.snapshot().is_empty());
}
