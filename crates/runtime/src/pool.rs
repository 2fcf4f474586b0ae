//! Deterministic intra-op parallelism.
//!
//! The paper's baselines (ONNX Runtime, TVM) saturate their TEE's cores
//! with intra-op thread pools. An MVX system cannot simply copy that:
//! parallel reductions whose grouping depends on the *live* thread count
//! produce different float rounding per variant, and the checkpoint layer
//! would have to relax its metrics to absorb the noise — exactly the
//! drift Volckaert et al. identify as the hard part of multi-variant
//! execution of parallel programs.
//!
//! [`ThreadPool`] sidesteps the problem by construction:
//!
//! * **Static chunking** — work is split into at most eight chunks whose
//!   boundaries are a pure function of the problem size, never of the
//!   live thread count. `threads = 1, 2, 4, 8` all execute the *same*
//!   chunk list.
//! * **Independent outputs** — every parallel region partitions disjoint
//!   output rows/lanes; per-lane reductions stay whole inside one chunk,
//!   so no accumulation order ever crosses a chunk boundary.
//! * **Fixed-shape combination** — when a single long reduction *is*
//!   split ([`ThreadPool::reduce_slice`]), the per-chunk partials are
//!   combined with the existing fixed-shape [`tree_sum`], again a pure
//!   function of the chunk list, and the split point is a constant.
//!
//! No [`RuntimeConfig`] field decides a byte: the thread count and the
//! spawn threshold only decide which thread runs a chunk, so variants
//! may legitimately diversify their `intra_op_threads` and still agree
//! bit-exactly at checkpoints.
//!
//! Chunks are dealt to workers round-robin (chunk `c` to worker
//! `c mod workers`); workers only ever write the disjoint output slice
//! carried by the chunk itself, and per-chunk results are gathered by
//! chunk index, so which worker ran a chunk is invisible in the output.
//!
//! The pool keeps no metrics and no buffers: a region runs inside an op,
//! and an op touches no state another variant thread writes. A kernel's
//! temporaries are its thread's (`scratch`).

use crate::kernels::{reduce_sum, tree_sum, Accumulation};
use crate::Blas;
use std::sync::Arc;

/// Every parallel region splits its work into `min(items, MAX_CHUNKS)`
/// chunks *regardless of thread count*. Part of the numeric contract:
/// changing it moves the bytes of every split reduction.
const MAX_CHUNKS: usize = 8;

/// [`ThreadPool::reduce_slice`] splits slices at least this long into the
/// chunk list. Part of the numeric contract, like [`MAX_CHUNKS`].
const SPLIT_REDUCE_ELEMS: usize = 4096;

/// Tuning knobs for the deterministic intra-op pool. Neither changes an
/// output byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuntimeConfig {
    /// Worker threads a parallel region may spawn. `1` (the default)
    /// executes every chunk inline on the caller.
    pub intra_op_threads: usize,
    /// Regions with fewer output elements than this run inline (same
    /// chunk list, caller's thread) — spawn cost would dominate.
    pub min_parallel_elems: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        INLINE.cfg
    }
}

impl RuntimeConfig {
    /// A configuration with `n` worker threads and default chunking.
    pub fn with_threads(n: usize) -> Self {
        RuntimeConfig { intra_op_threads: n.max(1), ..Self::default() }
    }
}

/// The deterministic intra-op thread pool.
///
/// Stateless between regions: each parallel region deals its pre-split
/// chunks round-robin to scoped workers, which run their share and exit.
/// (Every crate but the crypto dispatch shims forbids `unsafe`, so a
/// persistent pool borrowing caller slices is not expressible — scoped
/// spawning keeps the borrows safe and the design allocation-light.)
#[derive(Debug)]
pub struct ThreadPool {
    cfg: RuntimeConfig,
}

/// The one-thread pool the plain `kernels::*` entry points run on: every
/// chunk on the caller's thread, the bytes of any other pool.
pub(crate) static INLINE: ThreadPool =
    ThreadPool { cfg: RuntimeConfig { intra_op_threads: 1, min_parallel_elems: 4096 } };

impl ThreadPool {
    /// Creates a pool with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> Arc<Self> {
        Arc::new(ThreadPool {
            cfg: RuntimeConfig { intra_op_threads: cfg.intra_op_threads.max(1), ..cfg },
        })
    }

    /// The static chunk list for `items` work items: boundaries depend
    /// only on `items` — never on the thread count.
    pub fn chunk_ranges(&self, items: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
        let count = MAX_CHUNKS.min(items);
        let (base, rem) = (items / count.max(1), items % count.max(1));
        // The first `rem` chunks hold one item more than the rest.
        (0..count).map(move |c| {
            let start = c * base + c.min(rem);
            (start, start + base + usize::from(c < rem))
        })
    }

    /// Whether a [`ThreadPool::for_each_chunk`] region of `items × stride`
    /// elements runs all its chunks on the caller's thread.
    fn runs_inline(&self, items: usize, stride: usize) -> bool {
        self.cfg.intra_op_threads.min(self.chunk_ranges(items).len()) <= 1
            || items * stride < self.cfg.min_parallel_elems
    }

    /// Splits `out` (laid out as `items × stride` f32s) into the static
    /// chunk list and runs `f(chunk_index, start_item, end_item, slice)`
    /// on every chunk — in parallel when the pool has workers and the
    /// region is large enough, inline (same chunks, in order) otherwise.
    ///
    /// Because the chunk list is thread-count invariant and each chunk
    /// owns a disjoint output slice, the bytes written are identical for
    /// every `intra_op_threads` setting.
    pub fn for_each_chunk<F>(&self, items: usize, stride: usize, out: &mut [f32], f: F)
    where
        F: Fn(usize, usize, usize, &mut [f32]) + Sync,
    {
        debug_assert_eq!(out.len(), items * stride);
        if items == 0 {
            return;
        }
        let ranges = self.chunk_ranges(items);
        if self.runs_inline(items, stride) {
            let mut rest = out;
            for (c, (s, e)) in ranges.enumerate() {
                let (head, tail) = rest.split_at_mut((e - s) * stride);
                f(c, s, e, head);
                rest = tail;
            }
            return;
        }
        let workers = self.cfg.intra_op_threads.min(ranges.len());
        let mut shares: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
        let mut rest = out;
        for (c, (s, e)) in ranges.enumerate() {
            let (head, tail) = rest.split_at_mut((e - s) * stride);
            shares[c % workers].push((c, s, e, head));
            rest = tail;
        }
        let f = &f;
        std::thread::scope(|scope| {
            for share in shares {
                scope.spawn(move || {
                    for (c, s, e, slice) in share {
                        f(c, s, e, slice);
                    }
                });
            }
        });
    }

    /// Runs `f(chunk_index, start, end)` over the static chunk list and
    /// returns the per-chunk results in chunk order (the order is fixed
    /// by the chunk list, not by completion time).
    pub fn map_chunks<T, F>(&self, items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize, usize) -> T + Sync,
    {
        let ranges = self.chunk_ranges(items);
        let workers = self.cfg.intra_op_threads.min(ranges.len());
        if workers <= 1 {
            return ranges.enumerate().map(|(c, (s, e))| f(c, s, e)).collect();
        }
        let f = &f;
        let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let share = self.chunk_ranges(items).enumerate().skip(w).step_by(workers);
                    scope.spawn(move || share.map(|(c, (s, e))| (c, f(c, s, e))).collect::<Vec<_>>())
                })
                .collect();
            let joined = handles.into_iter().map(|h| h.join().expect("pool worker panicked"));
            joined.flatten().collect()
        });
        results.sort_unstable_by_key(|&(c, _)| c);
        results.into_iter().map(|(_, v)| v).collect()
    }

    /// Row-panel-parallel GEMM: `c[m×n] = a[m×k] · b[k×n]` with the row
    /// dimension split over the static chunk list; each panel is an
    /// independent `blas.gemm` call on its own output rows. A region that
    /// runs on the caller's thread makes one call over all rows instead,
    /// so a backend tiles the whole product its own way.
    ///
    /// All built-in backends accumulate each output element in ascending
    /// `k` order regardless of row tiling, so the panelled product is
    /// byte-identical to the monolithic call. A custom backend runs on a
    /// one-thread pool, so it always sees that one call.
    #[allow(clippy::too_many_arguments)] // mirrors the 7-operand BLAS GEMM signature
    pub fn par_gemm(
        &self,
        blas: &dyn Blas,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        if m > 0 && self.runs_inline(m, n) {
            blas.gemm(m, n, k, a, b, c);
            return;
        }
        self.for_each_chunk(m, n, c, |_, r0, r1, panel| {
            blas.gemm(r1 - r0, n, k, &a[r0 * k..r1 * k], b, panel);
        });
    }

    /// Sums a long slice deterministically: per-chunk partials (each
    /// reduced with the caller's accumulation order) combined by the
    /// fixed-shape [`tree_sum`]. The split point — and therefore the
    /// rounding — depends only on the slice length, never on the pool's
    /// configuration.
    pub fn reduce_slice(&self, values: &[f32], acc: Accumulation) -> f32 {
        if values.len() < SPLIT_REDUCE_ELEMS {
            return reduce_sum(values, acc);
        }
        let partials = self.map_chunks(values.len(), |_, s, e| reduce_sum(&values[s..e], acc));
        tree_sum(&partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlasKind;

    #[test]
    fn chunk_ranges_cover_and_are_thread_invariant() {
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPool::new(RuntimeConfig::with_threads(threads));
            for items in [1usize, 7, 8, 9, 100, 1023] {
                let ranges: Vec<_> = pool.chunk_ranges(items).collect();
                assert!(ranges.len() <= 8);
                assert_eq!(ranges.first().map(|r| r.0), Some(0));
                assert_eq!(ranges.last().map(|r| r.1), Some(items));
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap in chunk list for {items}");
                }
                // Identical to the single-thread pool's list.
                let seq = ThreadPool::new(RuntimeConfig::with_threads(1));
                assert_eq!(ranges, seq.chunk_ranges(items).collect::<Vec<_>>());
            }
        }
        assert_eq!(ThreadPool::new(RuntimeConfig::default()).chunk_ranges(0).len(), 0);
    }

    #[test]
    fn for_each_chunk_writes_disjoint_slices() {
        for threads in [1usize, 2, 4, 8] {
            // min_parallel_elems 1 forces the parallel path.
            let cfg = RuntimeConfig { intra_op_threads: threads, min_parallel_elems: 1 };
            let pool = ThreadPool::new(cfg);
            let items = 37;
            let stride = 3;
            let mut out = vec![0.0f32; items * stride];
            pool.for_each_chunk(items, stride, &mut out, |_, s, _, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = (s * stride + i) as f32;
                }
            });
            let expect: Vec<f32> = (0..items * stride).map(|i| i as f32).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_results_are_in_chunk_order() {
        for threads in [1usize, 4] {
            let pool = ThreadPool::new(RuntimeConfig {
                intra_op_threads: threads,
                ..RuntimeConfig::default()
            });
            let got = pool.map_chunks(100, |c, s, e| (c, s, e));
            assert_eq!(got.len(), 8);
            for (i, &(c, s, e)) in got.iter().enumerate() {
                assert_eq!(c, i);
                assert!(s < e);
            }
        }
    }

    #[test]
    fn par_gemm_matches_monolithic_call_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let (m, n, k) = (23, 17, 31);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for kind in BlasKind::ALL {
            let blas = kind.instantiate();
            let mut mono = vec![0.0f32; m * n];
            blas.gemm(m, n, k, &a, &b, &mut mono);
            for threads in [1usize, 2, 4, 8] {
                let pool = ThreadPool::new(RuntimeConfig { intra_op_threads: threads, min_parallel_elems: 1 });
                let mut panelled = vec![0.0f32; m * n];
                pool.par_gemm(blas.as_ref(), m, n, k, &a, &b, &mut panelled);
                let same = mono
                    .iter()
                    .zip(panelled.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{kind} threads={threads}: panelled GEMM drifted");
            }
        }
    }

    #[test]
    fn par_gemm_makes_one_call_unless_its_region_goes_parallel() {
        use crate::blas::NaiveBlas;
        use std::sync::Mutex;
        /// Delegates to the naive backend and records each call's rows.
        #[derive(Default)]
        struct Recording(Mutex<Vec<usize>>);
        impl Blas for Recording {
            fn name(&self) -> &str {
                "recording"
            }
            fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
                self.0.lock().unwrap().push(m);
                NaiveBlas.gemm(m, n, k, a, b, c);
            }
        }
        let (m, n, k) = (20, 3, 9);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.25).collect();
        let mut outputs = Vec::new();
        for threads in [1usize, 2] {
            let pool = ThreadPool::new(RuntimeConfig { intra_op_threads: threads, min_parallel_elems: 1 });
            let blas = Recording::default();
            let mut c = vec![0.0f32; m * n];
            pool.par_gemm(&blas, m, n, k, &a, &b, &mut c);
            // Two workers record their chunks in either order.
            let mut rows = blas.0.into_inner().unwrap();
            rows.sort_unstable();
            let mut want: Vec<usize> = match threads {
                1 => vec![m],
                _ => pool.chunk_ranges(m).map(|(s, e)| e - s).collect(),
            };
            want.sort_unstable();
            assert_eq!(rows, want, "threads={threads}");
            outputs.push(c.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn reduce_slice_is_thread_invariant() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f32> = (0..10_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for acc in [Accumulation::Sequential, Accumulation::Tree] {
            let reference = ThreadPool::new(RuntimeConfig::with_threads(1))
                .reduce_slice(&values, acc);
            for threads in [2usize, 4, 8] {
                let pool = ThreadPool::new(RuntimeConfig::with_threads(threads));
                let got = pool.reduce_slice(&values, acc);
                assert_eq!(reference.to_bits(), got.to_bits(), "threads={threads}");
            }
        }
    }
}
