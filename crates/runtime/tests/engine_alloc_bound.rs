//! How many times one inference calls the allocator.
//!
//! A counting global allocator tallies this thread's allocation calls
//! (`alloc` and `realloc`), so the tests in this binary may run in
//! parallel. The engines run with one intra-op thread: every kernel runs
//! on the caller's thread, where the counter sees it.

use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::{Engine, EngineConfig, EngineKind};
use mvtee_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls this thread made since the last [`calls_of`].
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Const-initialised, drop-free thread-locals never allocate, so the
/// allocator may touch them.
fn count() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct Counting;

// SAFETY: every operation is the system allocator's, unchanged; the
// bookkeeping only updates this thread's plain counter.
unsafe impl GlobalAlloc for Counting {
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
static ALLOCATOR: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn calls_of<T>(f: impl FnOnce() -> T) -> u64 {
    CALLS.with(|calls| calls.set(0));
    let value = f();
    let calls = CALLS.with(Cell::get);
    drop(value);
    calls
}

/// The steady-state count: the second of two runs, after the first has
/// sized this thread's scratch.
fn inference_calls(kind: EngineKind) -> u64 {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).unwrap();
    let prepared = Engine::new(EngineConfig::of_kind(kind))
        .prepare(&model.graph)
        .unwrap();
    let input = Tensor::ones(model.input_shape.dims());
    prepared.run(std::slice::from_ref(&input)).unwrap();
    calls_of(|| prepared.run(std::slice::from_ref(&input)).unwrap())
}

/// MnasNet@Test made 3 674 allocation calls per inference while its 17
/// depthwise convolutions cost three pool regions and two scratch buffers
/// per channel, and every op and region built a `Vec` of its inputs and
/// its chunks; then 224, while each activation after a conv was an op of
/// its own with an output tensor of its own; then 137, while Softmax took
/// its lane from a shared arena that kept nothing that small; it makes
/// 136.
#[test]
fn an_ort_like_mnasnet_inference_stays_under_its_allocation_budget() {
    let calls = inference_calls(EngineKind::OrtLike);
    assert!(
        calls <= BUDGET,
        "{calls} allocation calls per inference, budget {BUDGET}"
    );
}

#[test]
fn a_tvm_like_mnasnet_inference_stays_under_the_same_budget() {
    let calls = inference_calls(EngineKind::TvmLike);
    assert!(
        calls <= BUDGET,
        "{calls} allocation calls per inference, budget {BUDGET}"
    );
}

/// The count measured before the last step, 137, plus about 10 %, the
/// headroom the budget has always had.
const BUDGET: u64 = 150;
