//! Depthwise convs through their packed routes, and the pointwise branch
//! of `conv2d_im2col_with`, compute the generic im2col path's bytes.
//!
//! * Exhaustive small shapes, compared with `to_bits` against the generic
//!   path (reached through a delegating backend that declares no order)
//!   or, for pointwise, against the column matrix the generic path built:
//!   a copy of the input plane, one GEMM, then the bias. A depthwise conv
//!   runs as the engine runs it: the route `ConvRoute::plan` picks
//!   (`depthwise-lanes` or `depthwise-rows`), falling back to
//!   `conv2d_im2col_with` when the route refuses the operands.
//! * Golden SHA-256 digests of every zoo model's Test-scale outputs,
//!   recorded with the engine as it was before any of these existed.
//! * The exact `(m, n, k)` call sequence a custom backend sees, recorded
//!   the same way.

use mvtee_crypto::sha256::Sha256;
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::kernels::{self, ConvAttrs};
use mvtee_runtime::packed::ConvRoute;
use mvtee_runtime::{
    Blas, BlasKind, Engine, EngineConfig, EngineKind, GemmStrategy, KernelCtx, RuntimeConfig,
    ThreadPool,
};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Delegates every GEMM and declares no accumulation order, so the
/// convolution takes the generic im2col path.
struct Opaque(Arc<dyn Blas>);

impl Blas for Opaque {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.0.gemm(m, n, k, a, b, c);
    }
}

/// Delegates every GEMM and records its shape.
struct Recording {
    inner: Arc<dyn Blas>,
    calls: Mutex<Vec<(usize, usize, usize)>>,
}

impl Blas for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.calls.lock().unwrap().push((m, n, k));
        self.inner.gemm(m, n, k, a, b, c);
    }
}

fn hex(d: [u8; 32]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

fn absorb(h: &mut Sha256, t: &Tensor) {
    for &d in t.dims() {
        h.update(&(d as u64).to_le_bytes());
    }
    for v in t.data() {
        h.update(&v.to_bits().to_le_bytes());
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A value from `specials` one time in `1 / rate`, else uniform in ±2.
fn sample(rng: &mut StdRng, specials: &[f32], rate: u32) -> f32 {
    if !specials.is_empty() && rng.gen_range(0..rate) == 0 {
        specials[rng.gen_range(0..specials.len())]
    } else {
        rng.gen_range(-2.0f32..2.0)
    }
}

fn tensor(rng: &mut StdRng, dims: &[usize], specials: &[f32], rate: u32) -> Tensor {
    let n = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| sample(rng, specials, rate)).collect(), dims).unwrap()
}

/// The inline context and a two-thread pool that goes parallel at once.
fn contexts() -> [KernelCtx; 2] {
    let threaded = ThreadPool::new(RuntimeConfig { intra_op_threads: 2, min_parallel_elems: 1 });
    [KernelCtx::sequential().clone(), KernelCtx::new(threaded)]
}

const SIGNED_ZEROS: [f32; 2] = [0.0, -0.0];
/// Finite, but their products overflow to ±inf and their sums to NaN.
const FINITE_EXTREMES: [f32; 4] = [0.0, -0.0, 3.0e38, -3.0e38];
const NON_FINITE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
const INPUT_SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

#[test]
fn depthwise_routes_match_the_generic_path_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xd3);
    let ctxs = contexts();
    let (n, c) = (2, 3);
    let mut cases = 0;
    for k in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            for pad in [0usize, 1, 2] {
                for h in 1..=9usize {
                    for w in 1..=9usize {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let a = ConvAttrs {
                            kernel: (k, k),
                            stride: (stride, stride),
                            padding: (pad, pad),
                            groups: c,
                        };
                        // Finite inputs with signed zeros, then with
                        // overflowing magnitudes, then every special; the
                        // same for weights and biases, minus the magnitudes.
                        let xs = [&SIGNED_ZEROS[..], &FINITE_EXTREMES, &INPUT_SPECIALS]
                            .map(|s| tensor(&mut rng, &[n, c, h, w], s, 6));
                        let wts = [&SIGNED_ZEROS[..], &NON_FINITE]
                            .map(|s| tensor(&mut rng, &[c, 1, k, k], s, 3));
                        let biases =
                            [&SIGNED_ZEROS[..], &NON_FINITE].map(|s| tensor(&mut rng, &[c], s, 2));
                        for x in &xs {
                            for wt in &wts {
                                for b in [None, Some(&biases[0]), Some(&biases[1])] {
                                    for kind in BlasKind::ALL {
                                        let blas = kind.instantiate();
                                        let opaque = Opaque(Arc::clone(&blas));
                                        let route =
                                            ConvRoute::plan(x.dims(), wt, b, &a, blas.row_order());
                                        for (ci, ctx) in ctxs.iter().enumerate() {
                                            let got = route.run(x, None).unwrap_or_else(|| {
                                                kernels::conv2d_im2col_with(
                                                    ctx,
                                                    x,
                                                    wt,
                                                    b,
                                                    &a,
                                                    blas.as_ref(),
                                                    GemmStrategy::Scalar,
                                                )
                                                .unwrap()
                                            });
                                            let want = kernels::conv2d_im2col_with(
                                                ctx, x, wt, b, &a, &opaque, GemmStrategy::Scalar,
                                            )
                                            .unwrap();
                                            assert_eq!(
                                                bits(&got),
                                                bits(&want),
                                                "{kind} ctx {ci} {a:?} h {h} w {w} bias {}",
                                                b.is_some()
                                            );
                                            cases += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 100_000, "{cases} cases");
}

/// What the generic path computed for a 1×1, stride-1, unpadded conv: a
/// column matrix that copies the input plane, one `[oc, c] · [c, h·w]`
/// GEMM into a separate product buffer, then `product + bias` (`+ 0.0`
/// without one).
fn pointwise_reference(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, blas: &dyn Blas) -> Vec<u32> {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let oc = w.dims()[0];
    let cols = h * wd;
    let mut out = Vec::with_capacity(n * oc * cols);
    for b_i in 0..n {
        let col = x.data()[b_i * c * cols..(b_i + 1) * c * cols].to_vec();
        let mut prod = vec![0.0f32; oc * cols];
        blas.gemm(oc, cols, c, w.data(), &col, &mut prod);
        for (o, row) in prod.chunks(cols).enumerate() {
            let bias_v = bias.map(|t| t.data()[o]).unwrap_or(0.0);
            out.extend(row.iter().map(|&s| (s + bias_v).to_bits()));
        }
    }
    out
}

#[test]
fn pointwise_matches_the_generic_path_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x11);
    let ctxs = contexts();
    let mut cases = 0;
    for (n, c, oc) in [(1usize, 1usize, 1usize), (2, 3, 5), (1, 8, 16), (2, 17, 4)] {
        for h in 1..=9usize {
            for w in 1..=9usize {
                let a = ConvAttrs {
                    kernel: (1, 1),
                    stride: (1, 1),
                    padding: (0, 0),
                    groups: 1,
                };
                let xs = [&SIGNED_ZEROS[..], &FINITE_EXTREMES, &INPUT_SPECIALS]
                    .map(|s| tensor(&mut rng, &[n, c, h, w], s, 6));
                let wt = tensor(&mut rng, &[oc, c, 1, 1], &INPUT_SPECIALS, 6);
                let bias = tensor(&mut rng, &[oc], &SIGNED_ZEROS, 3);
                for x in &xs {
                    for b in [None, Some(&bias)] {
                        for kind in BlasKind::ALL {
                            let blas = kind.instantiate();
                            let want = pointwise_reference(x, &wt, b, blas.as_ref());
                            for ctx in &ctxs {
                                let got = kernels::conv2d_im2col_with(
                                    ctx,
                                    x,
                                    &wt,
                                    b,
                                    &a,
                                    blas.as_ref(),
                                    GemmStrategy::Scalar,
                                )
                                .unwrap();
                                assert_eq!(bits(&got), want, "{kind} n{n} c{c} oc{oc} {h}x{w}");
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 10_000, "{cases} cases");
}

/// Two inputs per model: a ramp and a seeded uniform draw.
fn model_inputs(dims: &[usize]) -> Vec<Tensor> {
    let n: usize = dims.iter().product();
    let ramp = Tensor::from_vec(
        (0..n).map(|i| ((i % 101) as f32 - 50.0) / 50.0).collect(),
        dims,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    vec![ramp, Tensor::random_uniform(&mut rng, dims, 2.0)]
}

/// SHA-256 over both inputs' outputs, recorded before the depthwise and
/// pointwise branches existed. The three built-in backends agree on these
/// finite models: each accumulates every element in ascending `k`.
const GOLDEN: [(ModelKind, EngineKind, &str); 14] = [
    (
        ModelKind::EfficientNetB7,
        EngineKind::OrtLike,
        "23ccba58a70595b4c384ff8f120464ada591f96c47721bbed9e196e072cceaad",
    ),
    (
        ModelKind::EfficientNetB7,
        EngineKind::TvmLike,
        "f96fa6aedbb1d94b861234db8dad48510acfce44e7232454ab415175a80e6b7f",
    ),
    (
        ModelKind::GoogleNet,
        EngineKind::OrtLike,
        "ef34e3cd6a6ed6e5e8d6187a3886269f6dbb07ad62b002388ec31d212798a704",
    ),
    (
        ModelKind::GoogleNet,
        EngineKind::TvmLike,
        "fae49cb309b6e2ea989c4a782f352b9e7d47c7b99ae045432b274e98dd1a3031",
    ),
    (
        ModelKind::InceptionV3,
        EngineKind::OrtLike,
        "583956c24b6604aa48dd61a8984e43eda412f9ba1eabd2441e162c65bb5b98ea",
    ),
    (
        ModelKind::InceptionV3,
        EngineKind::TvmLike,
        "75779b8acc46b625dfe6950c239752fb53ccc41e78d569ffa0a67532c6a72f7b",
    ),
    (
        ModelKind::MnasNet,
        EngineKind::OrtLike,
        "c5dbef043182fc6af0a1853be9281043da0c75136a08f97bf7dab00ac598c529",
    ),
    (
        ModelKind::MnasNet,
        EngineKind::TvmLike,
        "137e8688252181416fd7e63f651ccf8037ceaee9f474c2b8087e5a2a7077536c",
    ),
    (
        ModelKind::MobileNetV3,
        EngineKind::OrtLike,
        "7ecc52d3f00b26566e6d68af03931376387445fbdc861653f4e4b0f7078cb258",
    ),
    (
        ModelKind::MobileNetV3,
        EngineKind::TvmLike,
        "7ecc52d3f00b26566e6d68af03931376387445fbdc861653f4e4b0f7078cb258",
    ),
    (
        ModelKind::ResNet152,
        EngineKind::OrtLike,
        "36994352083d0efbfe5b4c99b94b477991ed871055c85721a163e62c705e8505",
    ),
    (
        ModelKind::ResNet152,
        EngineKind::TvmLike,
        "36994352083d0efbfe5b4c99b94b477991ed871055c85721a163e62c705e8505",
    ),
    (
        ModelKind::ResNet50,
        EngineKind::OrtLike,
        "0e9948a12316255ef5c4ae04520bac75bd5962ff187b6891bca165b4f7a4c59e",
    ),
    (
        ModelKind::ResNet50,
        EngineKind::TvmLike,
        "0e9948a12316255ef5c4ae04520bac75bd5962ff187b6891bca165b4f7a4c59e",
    ),
];

#[test]
fn zoo_outputs_match_the_recorded_digests() {
    assert_eq!(ModelKind::ALL.len() * 2, GOLDEN.len());
    for (model, kind, want) in GOLDEN {
        let m = zoo::build(model, ScaleProfile::Test, 5).unwrap();
        let inputs = model_inputs(m.input_shape.dims());
        for blas in BlasKind::ALL {
            for threads in [1usize, 4] {
                let cfg = EngineConfig::of_kind(kind)
                    .with_blas(blas)
                    .with_threads(threads);
                let prepared = Engine::new(cfg).prepare(&m.graph).unwrap();
                let mut h = Sha256::new();
                for x in &inputs {
                    for out in prepared.run(std::slice::from_ref(x)).unwrap() {
                        absorb(&mut h, &out);
                    }
                }
                assert_eq!(hex(h.finalize()), want, "{model} {kind} {blas} t{threads}");
            }
        }
    }
}

/// A custom backend — what a fault model wraps — sees the same 1 120
/// GEMM calls, in the same order and shapes, and produces the same bytes.
#[test]
fn custom_backends_see_the_recorded_call_sequence() {
    const SHAPES: &str = "6854e75eadc388252777bfae6a4400bfdb7aa1935762429449a78f68b4bd625a";
    let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).unwrap();
    let input = model_inputs(m.input_shape.dims()).remove(0);
    for (kind, outputs) in [
        (
            EngineKind::OrtLike,
            "c167e5eb4990924653afcc893d0bd8132a3825dae3932b5a93298bdcff813a86",
        ),
        (
            EngineKind::TvmLike,
            "3e5b38c1500dc9c2c4f7ebb5fb83236936a69c1279615fe21f8d328fff22ec32",
        ),
    ] {
        let cfg = EngineConfig::of_kind(kind);
        let recording = Arc::new(Recording {
            inner: cfg.blas.instantiate(),
            calls: Mutex::new(Vec::new()),
        });
        let prepared = Engine::with_custom_blas(cfg, Arc::clone(&recording) as Arc<dyn Blas>)
            .prepare(&m.graph)
            .unwrap();
        let mut h = Sha256::new();
        for out in prepared.run(std::slice::from_ref(&input)).unwrap() {
            absorb(&mut h, &out);
        }
        assert_eq!(hex(h.finalize()), outputs, "{kind} outputs");
        let calls = recording.calls.lock().unwrap();
        assert_eq!(calls.len(), 1120, "{kind}");
        let mut shapes = Sha256::new();
        for &(m, n, k) in calls.iter() {
            for v in [m, n, k] {
                shapes.update(&(v as u64).to_le_bytes());
            }
        }
        assert_eq!(hex(shapes.finalize()), SHAPES, "{kind} call shapes");
    }
}
