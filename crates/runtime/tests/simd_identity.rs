//! Byte-identity of the SIMD microkernel path: the 8-lane wide loop and
//! its scalar per-lane fallback must agree bit-for-bit (that is what makes
//! the runtime CPU-feature check invisible in the output bytes), and the
//! `SimdMicrokernel` kernel strategy must emit the same bytes at every
//! thread count — including shapes below `min_parallel_elems`, where the
//! pool runs the kernel sequentially, and unaligned tails shorter than the
//! 8-lane block.

use mvtee_runtime::kernels::{conv2d_im2col_with, gemm_fc_with, matmul_with, ConvAttrs};
use mvtee_runtime::simd::{dot8, dot8_spec, gemm_bt, LANES};
use mvtee_runtime::{GemmStrategy, KernelCtx, RuntimeConfig, ThreadPool};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A context whose pool genuinely spawns `t` workers and parallelises even
/// proptest-sized shapes (threshold dropped to a single element).
fn eager_ctx(t: usize) -> KernelCtx {
    KernelCtx::new(ThreadPool::new(RuntimeConfig {
        intra_op_threads: t,
        max_parallelism: 8,
        min_parallel_elems: 1,
    }))
}

/// A context with the production threshold: small shapes stay sequential.
fn default_ctx(t: usize) -> KernelCtx {
    KernelCtx::new(ThreadPool::new(RuntimeConfig::with_threads(t)))
}

fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn dot8_matches_its_scalar_fallback_bitwise() {
    // Aligned multiples of the lane width, unaligned tails, and sub-lane
    // lengths — whichever organisation the feature check picked, the
    // public entry point must equal the per-lane reference exactly.
    for len in [0, 1, 3, LANES - 1, LANES, LANES + 1, 24, 100, 255, 256, 257, 4093] {
        let a = seeded(len, 0x51AD);
        let b = seeded(len, 0xB07D);
        assert_eq!(
            dot8(&a, &b).to_bits(),
            dot8_spec(&a, &b).to_bits(),
            "dot8 organisations diverged at len {len}"
        );
    }
}

#[test]
fn gemm_bt_is_invariant_to_output_row_splits() {
    // Every output element of the microkernel GEMM is an independent
    // dot8, so computing any row subset in isolation must reproduce the
    // monolithic bytes — the property the pool's chunking relies on.
    let (m, n, k) = (7, 5, 27);
    let a = seeded(m * k, 1);
    let bt = seeded(n * k, 2);
    let mut whole = vec![0.0f32; m * n];
    gemm_bt(m, n, k, &a, &bt, &mut whole);
    for split in 1..m {
        let mut parts = vec![0.0f32; m * n];
        gemm_bt(split, n, k, &a[..split * k], &bt, &mut parts[..split * n]);
        gemm_bt(m - split, n, k, &a[split * k..], &bt, &mut parts[split * n..]);
        let eq = whole.iter().zip(&parts).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(eq, "gemm_bt row split at {split} changed bytes");
    }
}

#[test]
fn simd_gemm_fc_is_bitwise_thread_invariant() {
    // Shapes chosen to hit: aligned k (multiple of 8), unaligned tails,
    // sub-lane k, batch-1 and batched, and a sub-`min_parallel_elems`
    // output (3×2 elements stays sequential under the default threshold).
    let shapes: [(usize, usize, usize); 5] =
        [(1, 64, 32), (3, 7, 2), (4, 33, 9), (1, 5, 128), (2, 256, 17)];
    for (n, k, m) in shapes {
        let mut rng = StdRng::seed_from_u64((n * 31 + k * 7 + m) as u64);
        let x = Tensor::random_uniform(&mut rng, &[n, k], 1.0);
        let w = Tensor::random_uniform(&mut rng, &[m, k], 0.5);
        let b = Tensor::random_uniform(&mut rng, &[m], 0.5);
        let blas = mvtee_runtime::BlasKind::Blocked.instantiate();
        let reference = gemm_fc_with(
            &default_ctx(1),
            &x,
            &w,
            Some(&b),
            blas.as_ref(),
            None,
            GemmStrategy::SimdMicrokernel,
        )
        .expect("runs");
        for t in THREADS {
            for ctx in [eager_ctx(t), default_ctx(t)] {
                let out = gemm_fc_with(
                    &ctx,
                    &x,
                    &w,
                    Some(&b),
                    blas.as_ref(),
                    None,
                    GemmStrategy::SimdMicrokernel,
                )
                .expect("runs");
                assert_eq!(
                    bits(&reference),
                    bits(&out),
                    "simd gemm_fc n={n} k={k} m={m} drifted at threads={t}"
                );
            }
        }
    }
}

#[test]
fn simd_matmul_is_bitwise_thread_invariant() {
    let shapes: [(usize, usize, usize); 4] = [(2, 9, 5), (1, 8, 8), (5, 40, 3), (3, 13, 21)];
    for (m, k, n) in shapes {
        let mut rng = StdRng::seed_from_u64((m * 131 + k * 17 + n) as u64);
        let a = Tensor::random_uniform(&mut rng, &[m, k], 1.0);
        let b = Tensor::random_uniform(&mut rng, &[k, n], 0.5);
        let blas = mvtee_runtime::BlasKind::Naive.instantiate();
        let reference =
            matmul_with(&default_ctx(1), &a, &b, blas.as_ref(), GemmStrategy::SimdMicrokernel)
                .expect("runs");
        for t in THREADS {
            for ctx in [eager_ctx(t), default_ctx(t)] {
                let out =
                    matmul_with(&ctx, &a, &b, blas.as_ref(), GemmStrategy::SimdMicrokernel)
                        .expect("runs");
                assert_eq!(
                    bits(&reference),
                    bits(&out),
                    "simd matmul m={m} k={k} n={n} drifted at threads={t}"
                );
            }
        }
    }
}

#[test]
fn simd_im2col_conv_is_bitwise_thread_invariant() {
    // Grouped and ungrouped convs; the 6×6 single-channel case keeps the
    // whole output below the production parallel threshold.
    let cases: [(usize, usize, usize, usize); 3] = [(3, 4, 8, 1), (1, 1, 6, 1), (4, 4, 7, 2)];
    for (c, oc, hw, groups) in cases {
        let mut rng = StdRng::seed_from_u64((c * 7 + oc * 3 + hw + groups) as u64);
        let x = Tensor::random_uniform(&mut rng, &[2, c, hw, hw], 1.0);
        let w = Tensor::random_uniform(&mut rng, &[oc, c / groups, 3, 3], 0.5);
        let b = Tensor::random_uniform(&mut rng, &[oc], 0.5);
        let attrs = ConvAttrs { kernel: (3, 3), stride: (1, 1), padding: (1, 1), groups };
        let blas = mvtee_runtime::BlasKind::Strided.instantiate();
        let reference = conv2d_im2col_with(
            &default_ctx(1),
            &x,
            &w,
            Some(&b),
            &attrs,
            blas.as_ref(),
            GemmStrategy::SimdMicrokernel,
        )
        .expect("runs");
        for t in THREADS {
            for ctx in [eager_ctx(t), default_ctx(t)] {
                let out = conv2d_im2col_with(
                    &ctx,
                    &x,
                    &w,
                    Some(&b),
                    &attrs,
                    blas.as_ref(),
                    GemmStrategy::SimdMicrokernel,
                )
                .expect("runs");
                assert_eq!(
                    bits(&reference),
                    bits(&out),
                    "simd im2col c={c} oc={oc} hw={hw} g={groups} drifted at threads={t}"
                );
            }
        }
    }
}
