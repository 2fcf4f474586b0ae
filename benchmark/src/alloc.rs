//! A counting global allocator for the `alloc.*` rows. Counting is switched
//! on only in traced runs; otherwise every call forwards to the system
//! allocator after one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static LIVE_PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        LIVE_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // Memory allocated before counting began is freed without having
        // been added; saturate instead of wrapping.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// (allocation calls, bytes requested) since counting was switched on.
pub fn totals() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Highest number of bytes live at once while counting, MB.
pub fn live_peak_mb() -> f64 {
    LIVE_PEAK.load(Ordering::Relaxed) as f64 / 1e6
}
