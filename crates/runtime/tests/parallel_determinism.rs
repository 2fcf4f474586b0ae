//! Bit-exactness of the deterministic intra-op pool: every kernel and
//! every full zoo forward pass must produce **byte-identical** tensors at
//! any `intra_op_threads`, for all three engine families. Chunk
//! boundaries are a pure function of problem size, never of the live
//! thread count, the spawn threshold or the BLAS backend — these tests
//! pin that invariant down to the bit level.

use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_graph::GraphBuilder;
use mvtee_runtime::kernels::{
    conv2d_im2col, conv2d_im2col_with, gemm_fc, gemm_fc_with, global_avg_pool,
    global_avg_pool_with, softmax, softmax_with, ConvAttrs,
};
use mvtee_runtime::{
    Accumulation, BlasKind, Engine, EngineConfig, EngineKind, GemmStrategy, KernelCtx,
    RuntimeConfig, ThreadPool,
};
use mvtee_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A context whose pool genuinely spawns `t` workers: the parallel-region
/// threshold is dropped to 1 so even proptest-sized shapes cross it.
fn ctx(t: usize) -> KernelCtx {
    KernelCtx::new(ThreadPool::new(RuntimeConfig { intra_op_threads: t, min_parallel_elems: 1 }))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    seed: u64,
}

fn gemm_case() -> impl Strategy<Value = Case> {
    (1usize..6, 1usize..24, 1usize..24, any::<u64>())
        .prop_map(|(n, k, m, seed)| Case { dims: vec![n, k, m], seed })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_fc_is_bitwise_thread_invariant(case in gemm_case()) {
        let (n, k, m) = (case.dims[0], case.dims[1], case.dims[2]);
        let mut rng = StdRng::seed_from_u64(case.seed);
        let x = Tensor::random_uniform(&mut rng, &[n, k], 1.0);
        let w = Tensor::random_uniform(&mut rng, &[m, k], 0.5);
        let b = Tensor::random_uniform(&mut rng, &[m], 0.5);
        for blas in BlasKind::ALL {
            let backend = blas.instantiate();
            let reference = gemm_fc(&x, &w, Some(&b), backend.as_ref()).expect("runs");
            for t in THREADS {
                let out = gemm_fc_with(
                    &ctx(t), &x, &w, Some(&b), backend.as_ref(), None, GemmStrategy::Scalar,
                )
                .expect("runs");
                prop_assert_eq!(
                    bits(&reference),
                    bits(&out),
                    "gemm_fc({}) n={} k={} m={} drifted at threads={}",
                    blas, n, k, m, t
                );
            }
        }
    }

    #[test]
    fn conv2d_im2col_is_bitwise_thread_invariant(
        c in 1usize..5, oc in 1usize..5, hw in 4usize..10, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&mut rng, &[2, c, hw, hw], 1.0);
        let w = Tensor::random_uniform(&mut rng, &[oc, c, 3, 3], 0.5);
        let b = Tensor::random_uniform(&mut rng, &[oc], 0.5);
        let attrs = ConvAttrs { kernel: (3, 3), stride: (1, 1), padding: (1, 1), groups: 1 };
        for blas in BlasKind::ALL {
            let backend = blas.instantiate();
            let reference =
                conv2d_im2col(&x, &w, Some(&b), &attrs, backend.as_ref()).expect("runs");
            for t in THREADS {
                let out = conv2d_im2col_with(
                    &ctx(t), &x, &w, Some(&b), &attrs, backend.as_ref(), GemmStrategy::Scalar,
                )
                .expect("runs");
                prop_assert_eq!(
                    bits(&reference),
                    bits(&out),
                    "conv2d_im2col({}) c={} oc={} hw={} drifted at threads={}",
                    blas, c, oc, hw, t
                );
            }
        }
    }

    #[test]
    fn softmax_is_bitwise_thread_invariant(
        outer in 1usize..6, axis_len in 1usize..12, inner in 1usize..6, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&mut rng, &[outer, axis_len, inner], 2.0);
        for acc in [Accumulation::Sequential, Accumulation::Tree] {
            let reference = softmax(&x, 1, acc).expect("runs");
            for t in THREADS {
                let out = softmax_with(&ctx(t), &x, 1, acc).expect("runs");
                prop_assert_eq!(
                    bits(&reference),
                    bits(&out),
                    "softmax {}x{}x{} ({:?}) drifted at threads={}",
                    outer, axis_len, inner, acc, t
                );
            }
        }
    }
}

#[test]
fn zoo_forward_passes_are_bitwise_thread_invariant() {
    // Full models through real engines (default parallelism thresholds):
    // each family must emit the same bytes at every thread count.
    let families = [EngineKind::Reference, EngineKind::OrtLike, EngineKind::TvmLike];
    for kind in [ModelKind::MnasNet, ModelKind::MobileNetV3, ModelKind::ResNet50] {
        let model = zoo::build(kind, ScaleProfile::Test, 17).expect("builds");
        let n = model.input_shape.num_elements();
        let input = Tensor::from_vec(
            (0..n).map(|i| ((i % 89) as f32 - 44.0) / 44.0).collect(),
            model.input_shape.dims(),
        )
        .expect("static shape");
        for family in families {
            let reference = Engine::new(EngineConfig::of_kind(family))
                .prepare(&model.graph)
                .expect("prepares")
                .run(std::slice::from_ref(&input))
                .expect("runs");
            for t in THREADS {
                let out = Engine::new(EngineConfig::of_kind(family).with_threads(t))
                    .prepare(&model.graph)
                    .expect("prepares")
                    .run(std::slice::from_ref(&input))
                    .expect("runs");
                assert_eq!(
                    reference, out,
                    "{family:?} on {kind:?} drifted at intra_op_threads={t}"
                );
            }
        }
    }
}

#[test]
fn tvm_complex_schedule_is_bitwise_thread_invariant() {
    // The NHWC direct schedule exercises conv2d_nhwc_direct's row split.
    let model = zoo::build(ModelKind::GoogleNet, ScaleProfile::Test, 5).expect("builds");
    let n = model.input_shape.num_elements();
    let input = Tensor::from_vec(
        (0..n).map(|i| ((i % 61) as f32 - 30.0) / 30.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape");
    let reference = Engine::new(EngineConfig::tvm_complex())
        .prepare(&model.graph)
        .expect("prepares")
        .run(std::slice::from_ref(&input))
        .expect("runs");
    for t in THREADS {
        let out = Engine::new(EngineConfig::tvm_complex().with_threads(t))
            .prepare(&model.graph)
            .expect("prepares")
            .run(std::slice::from_ref(&input))
            .expect("runs");
        assert_eq!(reference, out, "tvm_complex drifted at intra_op_threads={t}");
    }
}

#[test]
fn global_avg_pool_bits_depend_on_no_pool_setting() {
    // Planes on both sides of the reduction's split point: the plain
    // kernel, every pool configuration, and engines with a built-in or a
    // caller-supplied backend all reduce a plane the same way.
    let mut rng = StdRng::seed_from_u64(29);
    for plane in [3usize, 1024, 4096, 4097] {
        let dims = [1, 2, 1, plane];
        let x = Tensor::random_uniform(&mut rng, &dims, 1.0);
        for acc in [Accumulation::Sequential, Accumulation::Tree] {
            let want = bits(&global_avg_pool(&x, acc).expect("runs"));
            for t in [1, 2, 8] {
                let got = global_avg_pool_with(&ctx(t), &x, acc).expect("runs");
                assert_eq!(want, bits(&got), "plane {plane}, {acc:?}: {t} threads");
            }
            let default_pool = KernelCtx::new(ThreadPool::new(RuntimeConfig::default()));
            let got = global_avg_pool_with(&default_pool, &x, acc).expect("runs");
            assert_eq!(want, bits(&got), "plane {plane}, {acc:?}: default pool");
        }
        let mut b = GraphBuilder::new("gap", 1);
        let input = b.input(&dims);
        let gap = b.global_avg_pool(input).expect("builds");
        let graph = b.finish(vec![gap]).expect("builds");
        for family in [EngineKind::Reference, EngineKind::OrtLike, EngineKind::TvmLike] {
            let config = EngineConfig::of_kind(family);
            let want = bits(&global_avg_pool(&x, config.accumulation).expect("runs"));
            let backend = config.blas.instantiate();
            for engine in [Engine::new(config.clone()), Engine::with_custom_blas(config, backend)] {
                let out = engine
                    .prepare(&graph)
                    .expect("prepares")
                    .run(std::slice::from_ref(&x))
                    .expect("runs");
                let custom = engine.has_custom_blas();
                assert_eq!(want, bits(&out[0]), "plane {plane}: {family:?}, custom backend {custom}");
            }
        }
    }
}
