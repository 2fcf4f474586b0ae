//! Cross-engine differential testing: the three runtime families
//! (Reference, ORT-like, TVM-like) implement the same operator semantics
//! with different compilation pipelines (BN folding, im2col + blocked
//! GEMM, layout tiling). On any model they must agree within the relaxed
//! consistency metric — the same tolerance heterogeneous MVX panels are
//! checked with, so a regression here would surface as checkpoint
//! false-positives in production.

use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_runtime::{Engine, EngineConfig, EngineKind, KernelStrategy};
use mvtee_tensor::metrics::{max_abs_diff, Metric};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ENGINES: [EngineKind; 3] = [EngineKind::Reference, EngineKind::OrtLike, EngineKind::TvmLike];

/// Seeded random input in the same range the campaign harness uses.
fn random_input(model: &Model, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> =
        (0..model.input_shape.num_elements()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, model.input_shape.dims()).expect("static input shape")
}

fn run(kind: EngineKind, model: &Model, input: &Tensor) -> Vec<Tensor> {
    Engine::new(EngineConfig::of_kind(kind))
        .prepare(&model.graph)
        .expect("prepares")
        .run(std::slice::from_ref(input))
        .expect("runs")
}

#[test]
fn engines_agree_on_seeded_small_zoo_models() {
    // 8 seeded cases: two small zoo families × four weight/input seeds.
    let cases: [(ModelKind, u64); 8] = [
        (ModelKind::MnasNet, 11),
        (ModelKind::MnasNet, 23),
        (ModelKind::MnasNet, 47),
        (ModelKind::MnasNet, 91),
        (ModelKind::MobileNetV3, 13),
        (ModelKind::MobileNetV3, 29),
        (ModelKind::MobileNetV3, 53),
        (ModelKind::MobileNetV3, 97),
    ];
    let metric = Metric::relaxed();
    for (kind, seed) in cases {
        let model = zoo::build(kind, ScaleProfile::Test, seed).expect("builds");
        let input = random_input(&model, seed ^ 0xd1ff);
        let outputs: Vec<Vec<Tensor>> = ENGINES.iter().map(|e| run(*e, &model, &input)).collect();
        for i in 0..ENGINES.len() {
            for j in (i + 1)..ENGINES.len() {
                assert_eq!(outputs[i].len(), outputs[j].len());
                for (a, b) in outputs[i].iter().zip(outputs[j].iter()) {
                    assert!(
                        metric.check(a, b),
                        "{:?} vs {:?} diverged on {:?} seed {}: max |Δ| = {}",
                        ENGINES[i],
                        ENGINES[j],
                        kind,
                        seed,
                        max_abs_diff(a, b)
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_path_matches_sequential_reference_exactly() {
    // Same-family comparison is exact: the intra-op pool's static chunking
    // must not perturb a single bit of any engine family's output. A
    // failure here is silent reduction-order drift in a parallel kernel.
    let cases: [(ModelKind, u64); 4] = [
        (ModelKind::MnasNet, 11),
        (ModelKind::MnasNet, 47),
        (ModelKind::MobileNetV3, 29),
        (ModelKind::ResNet50, 53),
    ];
    for (kind, seed) in cases {
        let model = zoo::build(kind, ScaleProfile::Test, seed).expect("builds");
        let input = random_input(&model, seed ^ 0xd1ff);
        for e in ENGINES {
            let sequential = run(e, &model, &input);
            let parallel = Engine::new(EngineConfig::of_kind(e).with_threads(4))
                .prepare(&model.graph)
                .expect("prepares")
                .run(std::slice::from_ref(&input))
                .expect("runs");
            assert_eq!(sequential.len(), parallel.len());
            for (a, b) in sequential.iter().zip(parallel.iter()) {
                assert_eq!(
                    a, b,
                    "{e:?} on {kind:?} seed {seed}: threads=4 output differs from sequential \
                     (max |Δ| = {})",
                    max_abs_diff(a, b)
                );
            }
        }
    }
}

#[test]
fn parallel_path_stays_within_cross_family_metric() {
    // Cross-family comparison stays relaxed: mixing thread counts across
    // families must not push the panel outside the heterogeneous metric.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 23).expect("builds");
    let input = random_input(&model, 0x7e57);
    let metric = Metric::relaxed();
    let outputs: Vec<Vec<Tensor>> = ENGINES
        .iter()
        .zip([1usize, 4, 8])
        .map(|(&e, t)| {
            Engine::new(EngineConfig::of_kind(e).with_threads(t))
                .prepare(&model.graph)
                .expect("prepares")
                .run(std::slice::from_ref(&input))
                .expect("runs")
        })
        .collect();
    for i in 0..outputs.len() {
        for j in (i + 1)..outputs.len() {
            for (a, b) in outputs[i].iter().zip(outputs[j].iter()) {
                assert!(
                    metric.check(a, b),
                    "{:?}(t{}) vs {:?}(t{}): max |Δ| = {}",
                    ENGINES[i],
                    [1usize, 4, 8][i],
                    ENGINES[j],
                    [1usize, 4, 8][j],
                    max_abs_diff(a, b)
                );
            }
        }
    }
}

#[test]
fn every_kernel_strategy_agrees_with_reference_on_seeded_zoo_models() {
    // The kernel-strategy axis must stay inside the same heterogeneous
    // tolerance every other diversification axis respects: an ORT-like
    // engine pinned to any strategy (or left on the default) must
    // agree with the Reference interpreter under the relaxed metric.
    let metric = Metric::relaxed();
    let cases: [(ModelKind, u64); 3] =
        [(ModelKind::MnasNet, 11), (ModelKind::MobileNetV3, 29), (ModelKind::ResNet50, 53)];
    for (kind, seed) in cases {
        let model = zoo::build(kind, ScaleProfile::Test, seed).expect("builds");
        let input = random_input(&model, seed ^ 0x5742);
        let reference = run(EngineKind::Reference, &model, &input);
        for ks in KernelStrategy::ALL {
            let outputs =
                Engine::new(EngineConfig::of_kind(EngineKind::OrtLike).with_kernel_strategy(ks))
                    .prepare(&model.graph)
                    .expect("prepares")
                    .run(std::slice::from_ref(&input))
                    .expect("runs");
            assert_eq!(reference.len(), outputs.len());
            for (a, b) in reference.iter().zip(outputs.iter()) {
                assert!(
                    metric.check(a, b),
                    "strategy {ks} diverged from reference on {kind:?} seed {seed}: \
                     max |Δ| = {}",
                    max_abs_diff(a, b)
                );
            }
        }
    }
}

#[test]
fn unpinned_engine_is_the_blas_path_bit_for_bit() {
    // `Auto` is a constant, not a per-shape choice: an unpinned engine must
    // emit exactly the bytes of the same engine pinned to `panel` or
    // `scalar` (the BLAS path), at every thread count, while `simd` — the
    // other numeric class of the axis — stays within the relaxed metric.
    let metric = Metric::relaxed();
    let cases: [(ModelKind, u64); 3] =
        [(ModelKind::MnasNet, 11), (ModelKind::MobileNetV3, 29), (ModelKind::ResNet50, 53)];
    for (kind, seed) in cases {
        let model = zoo::build(kind, ScaleProfile::Test, seed).expect("builds");
        let input = random_input(&model, seed ^ 0x5742);
        for engine in ENGINES {
            for threads in [1usize, 4] {
                let base = EngineConfig::of_kind(engine).with_threads(threads);
                let infer = |cfg: EngineConfig| {
                    Engine::new(cfg)
                        .prepare(&model.graph)
                        .expect("prepares")
                        .run(std::slice::from_ref(&input))
                        .expect("runs")
                };
                let bits = |outs: &[Tensor]| -> Vec<Vec<u32>> {
                    outs.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
                };
                let unpinned = infer(base.clone());
                for ks in [KernelStrategy::PanelPacked, KernelStrategy::Scalar] {
                    assert_eq!(
                        bits(&unpinned),
                        bits(&infer(base.clone().with_kernel_strategy(ks))),
                        "{engine}/t{threads} on {kind:?}: unpinned bytes differ from `{ks}`"
                    );
                }
                let simd = infer(base.with_kernel_strategy(KernelStrategy::SimdMicrokernel));
                for (a, b) in unpinned.iter().zip(simd.iter()) {
                    assert!(
                        metric.check(a, b),
                        "{engine}/t{threads} on {kind:?}: simd left the relaxed metric, \
                         max |Δ| = {}",
                        max_abs_diff(a, b)
                    );
                }
            }
        }
    }
}

#[test]
fn engines_agree_under_checkpoint_self_validity() {
    // Every engine's output must also pass the metric against itself (no
    // NaN/Inf), the same self-check a single-variant checkpoint applies.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 71).expect("builds");
    let input = random_input(&model, 3);
    let metric = Metric::relaxed();
    for e in ENGINES {
        for t in run(e, &model, &input) {
            assert!(metric.check(&t, &t), "{e:?} produced non-finite output");
        }
    }
}
