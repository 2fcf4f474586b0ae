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
//! * **Static chunking** — work is split into chunks whose boundaries are
//!   a pure function of the problem size and the configured
//!   [`RuntimeConfig::max_parallelism`], never of the live thread count.
//!   `threads = 1, 2, 4, 8` all execute the *same* chunk list.
//! * **Independent outputs** — every parallel region partitions disjoint
//!   output rows/lanes; per-lane reductions stay whole inside one chunk,
//!   so no accumulation order ever crosses a chunk boundary.
//! * **Fixed-shape combination** — when a single long reduction *is*
//!   split ([`ThreadPool::reduce_slice`]), the per-chunk partials are
//!   combined with the existing fixed-shape [`tree_sum`], again a pure
//!   function of the chunk list.
//!
//! The result: byte-identical tensors at every thread count, so variants
//! may legitimately diversify their `intra_op_threads` and still agree
//! bit-exactly at checkpoints.
//!
//! Chunks are distributed over workers through a crossbeam channel; the
//! assignment of chunk → worker is racy, but workers only ever write the
//! disjoint output slice carried by the chunk itself, so scheduling
//! nondeterminism is invisible in the output.

use crate::kernels::{reduce_sum, tree_sum, Accumulation};
use crate::Blas;
use mvtee_telemetry::Counter;
use std::sync::Arc;

/// Tuning knobs for the deterministic intra-op pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuntimeConfig {
    /// Worker threads a parallel region may spawn. `1` (the default)
    /// executes every chunk inline on the caller.
    pub intra_op_threads: usize,
    /// Fixed chunk-count ceiling: every parallel region splits its work
    /// into `min(items, max_parallelism)` chunks *regardless of thread
    /// count* — this constant (not `intra_op_threads`) is what makes
    /// outputs thread-count invariant. Raising it changes chunk shapes
    /// and therefore (for split reductions) rounding; treat it as part
    /// of the numeric contract.
    pub max_parallelism: usize,
    /// Regions with fewer output elements than this run inline (same
    /// chunk list, caller's thread) — spawn cost would dominate.
    pub min_parallel_elems: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { intra_op_threads: 1, max_parallelism: 8, min_parallel_elems: 4096 }
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
/// Stateless between regions: each parallel region spawns scoped workers
/// that drain a pre-split chunk queue and exit. (The vendored crossbeam
/// provides channels only, and every crate but the crypto dispatch shims
/// forbids `unsafe`, so a persistent pool borrowing caller slices is not
/// expressible — scoped spawning keeps the borrows safe and the design
/// allocation-light.)
pub struct ThreadPool {
    cfg: RuntimeConfig,
    /// Passthrough pools run every region as one inline chunk — used for
    /// engines with externally supplied (possibly fault-instrumented)
    /// BLAS backends, whose corruption patterns depend on exact call
    /// shapes and must not be re-tiled.
    passthrough: bool,
    tasks: Counter,
    parallel_regions: Counter,
    sequential_regions: Counter,
    chunks: Counter,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("cfg", &self.cfg)
            .field("passthrough", &self.passthrough)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> Arc<Self> {
        register_runtime_metrics();
        Arc::new(ThreadPool {
            cfg: RuntimeConfig {
                intra_op_threads: cfg.intra_op_threads.max(1),
                max_parallelism: cfg.max_parallelism.max(1),
                ..cfg
            },
            passthrough: false,
            tasks: mvtee_telemetry::counter("runtime.pool.tasks"),
            parallel_regions: mvtee_telemetry::counter("runtime.pool.parallel_regions"),
            sequential_regions: mvtee_telemetry::counter("runtime.pool.sequential_regions"),
            chunks: mvtee_telemetry::counter("runtime.pool.chunks"),
        })
    }

    /// A single-chunk, inline pool: every region executes exactly as one
    /// sequential call, byte- and call-shape-identical to the pre-pool
    /// kernels. Used by the plain kernel entry points and by engines
    /// with custom BLAS backends.
    pub fn passthrough() -> Arc<Self> {
        register_runtime_metrics();
        Arc::new(ThreadPool {
            cfg: RuntimeConfig::default(),
            passthrough: true,
            tasks: mvtee_telemetry::counter("runtime.pool.tasks"),
            parallel_regions: mvtee_telemetry::counter("runtime.pool.parallel_regions"),
            sequential_regions: mvtee_telemetry::counter("runtime.pool.sequential_regions"),
            chunks: mvtee_telemetry::counter("runtime.pool.chunks"),
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The static chunk list for `items` work items: boundaries depend
    /// only on `items` and `max_parallelism` (or a single chunk for
    /// passthrough pools) — never on the thread count.
    pub fn chunk_ranges(&self, items: usize) -> Vec<(usize, usize)> {
        if items == 0 {
            return Vec::new();
        }
        if self.passthrough {
            return vec![(0, items)];
        }
        let n_chunks = self.cfg.max_parallelism.min(items);
        let base = items / n_chunks;
        let rem = items % n_chunks;
        let mut ranges = Vec::with_capacity(n_chunks);
        let mut start = 0;
        for c in 0..n_chunks {
            let len = base + usize::from(c < rem);
            ranges.push((start, start + len));
            start += len;
        }
        ranges
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
        let workers = self.cfg.intra_op_threads.min(ranges.len());
        if workers <= 1 || items * stride < self.cfg.min_parallel_elems {
            self.sequential_regions.inc();
            let mut rest = out;
            for (c, &(s, e)) in ranges.iter().enumerate() {
                let (head, tail) = rest.split_at_mut((e - s) * stride);
                f(c, s, e, head);
                rest = tail;
            }
            return;
        }
        self.parallel_regions.inc();
        self.chunks.add(ranges.len() as u64);
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, usize, usize, &mut [f32])>();
        {
            let mut rest = out;
            for (c, &(s, e)) in ranges.iter().enumerate() {
                let (head, tail) = rest.split_at_mut((e - s) * stride);
                tx.send((c, s, e, head)).expect("chunk queue send cannot fail");
                rest = tail;
            }
        }
        drop(tx);
        let f = &f;
        let tasks = &self.tasks;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                scope.spawn(move || {
                    while let Ok((c, s, e, slice)) = rx.recv() {
                        f(c, s, e, slice);
                        tasks.inc();
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
            self.sequential_regions.inc();
            return ranges.iter().enumerate().map(|(c, &(s, e))| f(c, s, e)).collect();
        }
        self.parallel_regions.inc();
        self.chunks.add(ranges.len() as u64);
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, usize, usize)>();
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, T)>();
        for (c, &(s, e)) in ranges.iter().enumerate() {
            tx.send((c, s, e)).expect("chunk queue send cannot fail");
        }
        drop(tx);
        let f = &f;
        let tasks = &self.tasks;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok((c, s, e)) = rx.recv() {
                        let v = f(c, s, e);
                        tasks.inc();
                        let _ = res_tx.send((c, v));
                    }
                });
            }
        });
        drop(res_tx);
        let mut slots: Vec<Option<T>> = (0..ranges.len()).map(|_| None).collect();
        while let Ok((c, v)) = res_rx.recv() {
            slots[c] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every chunk produces exactly one result"))
            .collect()
    }

    /// Row-panel-parallel GEMM: `c[m×n] = a[m×k] · b[k×n]` with the row
    /// dimension split over the static chunk list; each panel is an
    /// independent `blas.gemm` call on its own output rows.
    ///
    /// All built-in backends accumulate each output element in ascending
    /// `k` order regardless of row tiling, so the panelled product is
    /// byte-identical to the monolithic call.
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
        self.for_each_chunk(m, n, c, |_, r0, r1, panel| {
            blas.gemm(r1 - r0, n, k, &a[r0 * k..r1 * k], b, panel);
        });
    }

    /// Sums a long slice deterministically: per-chunk partials (each
    /// reduced with the caller's accumulation order) combined by the
    /// fixed-shape [`tree_sum`]. The split point — and therefore the
    /// rounding — depends only on the slice length, never on threads.
    pub fn reduce_slice(&self, values: &[f32], acc: Accumulation) -> f32 {
        if values.len() < self.cfg.min_parallel_elems {
            return reduce_sum(values, acc);
        }
        let partials = self.map_chunks(values.len(), |_, s, e| reduce_sum(&values[s..e], acc));
        tree_sum(&partials)
    }
}

/// Eagerly registers every `runtime.pool.*` and `runtime.cache.*` metric
/// on the global registry so the rendered telemetry report always shows
/// them — "the pool never went parallel" must read as an explicit zero,
/// not an absent row.
pub fn register_runtime_metrics() {
    for name in [
        "runtime.pool.tasks",
        "runtime.pool.parallel_regions",
        "runtime.pool.sequential_regions",
        "runtime.pool.chunks",
        "runtime.cache.prepare_hits",
        "runtime.cache.prepare_misses",
        "runtime.cache.pack_hits",
        "runtime.cache.pack_misses",
        "runtime.cache.arena_bytes_reused",
    ] {
        mvtee_telemetry::counter(name);
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
                let ranges = pool.chunk_ranges(items);
                assert!(ranges.len() <= 8);
                assert_eq!(ranges.first().map(|r| r.0), Some(0));
                assert_eq!(ranges.last().map(|r| r.1), Some(items));
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap in chunk list for {items}");
                }
                // Identical to the single-thread pool's list.
                let seq = ThreadPool::new(RuntimeConfig::with_threads(1));
                assert_eq!(ranges, seq.chunk_ranges(items));
            }
        }
        assert!(ThreadPool::new(RuntimeConfig::default()).chunk_ranges(0).is_empty());
    }

    #[test]
    fn passthrough_is_a_single_chunk() {
        let pool = ThreadPool::passthrough();
        assert_eq!(pool.chunk_ranges(100), vec![(0, 100)]);
    }

    #[test]
    fn for_each_chunk_writes_disjoint_slices() {
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPool::new(RuntimeConfig {
                intra_op_threads: threads,
                min_parallel_elems: 1, // force the parallel path
                ..RuntimeConfig::default()
            });
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
                let pool = ThreadPool::new(RuntimeConfig {
                    intra_op_threads: threads,
                    min_parallel_elems: 1,
                    ..RuntimeConfig::default()
                });
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

    #[test]
    fn pool_metrics_are_registered() {
        let _ = ThreadPool::new(RuntimeConfig::default());
        let snap = mvtee_telemetry::snapshot();
        for name in [
            "runtime.pool.tasks",
            "runtime.pool.parallel_regions",
            "runtime.pool.sequential_regions",
            "runtime.pool.chunks",
            "runtime.cache.arena_bytes_reused",
        ] {
            assert!(snap.counters.contains_key(name), "{name} not registered");
        }
    }
}
