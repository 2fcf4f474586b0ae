//! One prepared model run by four threads at once answers every thread
//! with the bytes a fresh engine computes alone.
//!
//! A replicated panel's variants share one prepared model (through the
//! session cache) and run it on their own threads, so every per-call
//! temporary a kernel takes must be the running thread's. The engines
//! below reach each kind of temporary: the packed routes' input copies
//! (OrtLike), the transposed column matrix and the SIMD FC and MatMul
//! (OrtLike with the SIMD microkernel), direct NHWC convs and tree
//! reductions (`tvm_complex`), and the per-call FC weight transpose of a
//! custom BLAS backend, which the cache never serves and is shared here
//! through an `Arc`. MnasNet covers the convs and the FC head;
//! FoundationMixer covers LayerNorm, MatMul and Softmax.

use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::{
    session_cache, BlasKind, Engine, EngineConfig, EngineKind, KernelStrategy, PreparedModel,
};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const THREADS: usize = 4;
const ROUNDS: usize = 6;

/// The engines under test, by name; each call builds fresh ones.
fn engines() -> Vec<(&'static str, Engine)> {
    let ort = EngineConfig::of_kind(EngineKind::OrtLike);
    vec![
        ("ort-like", Engine::new(ort.clone())),
        (
            "ort-like simd",
            Engine::new(ort.clone().with_kernel_strategy(KernelStrategy::SimdMicrokernel)),
        ),
        ("tvm-complex", Engine::new(EngineConfig::tvm_complex())),
        ("custom blas", Engine::with_custom_blas(ort, BlasKind::Blocked.instantiate())),
    ]
}

/// Two inputs: a ramp and a seeded uniform draw.
fn inputs(dims: &[usize]) -> Vec<Tensor> {
    let n: usize = dims.iter().product();
    let ramp = Tensor::from_vec((0..n).map(|i| ((i % 97) as f32 - 48.0) / 24.0).collect(), dims);
    let mut rng = StdRng::seed_from_u64(41);
    vec![ramp.unwrap(), Tensor::random_uniform(&mut rng, dims, 2.0)]
}

fn bits(outputs: &[Tensor]) -> Vec<Vec<u32>> {
    outputs.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn four_threads_share_one_prepared_model_with_sequential_bytes() {
    for kind in [ModelKind::MnasNet, ModelKind::FoundationMixer] {
        let m = zoo::build(kind, ScaleProfile::Test, 9).unwrap();
        let xs = inputs(m.input_shape.dims());
        for ((name, fresh), (_, engine)) in engines().into_iter().zip(engines()) {
            // The sequential reference: a fresh engine, one thread.
            let alone = fresh.prepare(&m.graph).unwrap();
            let want: Vec<_> = xs
                .iter()
                .map(|x| bits(&alone.run(std::slice::from_ref(x)).unwrap()))
                .collect();
            let shared: Arc<dyn PreparedModel> = if engine.has_custom_blas() {
                Arc::from(engine.prepare(&m.graph).unwrap())
            } else {
                session_cache().prepare(&engine, &m.graph).unwrap()
            };
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (shared, xs, want) = (&shared, &xs, &want);
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            // Each thread walks the inputs from its own offset.
                            let i = (t + round) % xs.len();
                            let got = bits(&shared.run(std::slice::from_ref(&xs[i])).unwrap());
                            assert!(got == want[i], "{kind} {name}: thread {t} round {round}");
                        }
                    });
                }
            });
        }
    }
}
