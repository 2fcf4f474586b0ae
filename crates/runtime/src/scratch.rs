//! The one home of kernel temporaries: a buffer per thread.
//!
//! A prepared model is shared by every variant thread that runs it, so a
//! per-call temporary — the row routes' input copy, im2col's column
//! matrix, an unpacked FC weight's transpose, the SIMD matmul's `bᵀ`, a
//! softmax or layer-norm lane — belongs to the thread, not to the model:
//! nothing is locked or shared, and a thread's next call reuses the
//! allocation. Contents never reach an output: [`with`] hands out zeroed
//! storage and every kernel overwrites what it reads.

use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on zeroed storage of exactly `len` elements: the calling
/// thread's buffer, or a fresh one when a caller further up the stack
/// holds it.
pub(crate) fn with<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            f(&mut buf)
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_is_zeroed_and_exactly_len() {
        with(64, |buf| buf.fill(7.0));
        with(16, |buf| {
            assert_eq!(buf.len(), 16);
            assert!(buf.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn a_nested_use_gets_its_own_buffer() {
        with(8, |outer| {
            outer.fill(1.0);
            with(4, |inner| {
                assert_eq!(inner, [0.0; 4]);
                inner.fill(2.0);
            });
            assert_eq!(outer, [1.0; 8]);
        });
    }
}
