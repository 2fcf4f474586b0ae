//! The packed conv routes compute the bytes of the generic im2col path,
//! and a conv that absorbs the activation after it computes the bytes of
//! the two ops it replaces.
//!
//! * Each route against `conv2d_im2col_with`, compared with `to_bits`
//!   over every built-in backend, with and without bias: the lanes route
//!   and the pointwise GEMV over planes 1×1 to 6×6, and the two row routes
//!   over kernels 3, 5 and 7, strides 1 and 2, pads 0 and k/2 and output
//!   widths on both sides of every route and tile boundary; channels 1–19
//!   and 144 throughout. Operands mix signed zeros, subnormals, ordinary
//!   values and magnitudes whose products overflow; a case with an
//!   infinity or its one NaN payload must be refused by the route and
//!   still match through the fallback.
//! * A conv followed by each activation kind, run by every engine family
//!   as one fused step, against the same graph with the conv's output also
//!   returned, which keeps the two ops apart; a conv whose output has a
//!   second reader is not fused either.
//! * One prepared model, shared through the session cache, answers three
//!   threads at once with the bytes it gives one: nothing it packed is
//!   written after `prepare`.

use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_graph::{ActivationKind, Graph, GraphBuilder};
use mvtee_runtime::kernels::{self, ConvAttrs};
use mvtee_runtime::packed::{ConvRoute, DIRECT_PATCH, SMALL_PLANE};
use mvtee_runtime::{
    session_cache, Blas, BlasKind, Engine, EngineConfig, EngineKind, GemmStrategy, KernelCtx,
    PreparedModel, RowOrder, SharedModel,
};
use mvtee_telemetry::trace::{self, TraceCtx};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Channel counts: every count a lane loop's tail can see, and two of
/// MnasNet's.
const CHANNELS: [usize; 21] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 64, 144,
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// What a case's operands are drawn from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Draw {
    /// Ordinary values, signed zeros and subnormals.
    Finite,
    /// `Finite` plus magnitudes whose products overflow, so sums meet
    /// `inf − inf`.
    Overflowing,
    /// `Finite` plus ±inf and one NaN payload.
    NonFinite,
}

impl Draw {
    const ALL: [Draw; 3] = [Draw::Finite, Draw::Overflowing, Draw::NonFinite];

    /// A value one time in four from this draw's specials, else uniform
    /// in ±2.
    fn sample(self, rng: &mut StdRng, nan: f32) -> f32 {
        let specials: &[f32] = match self {
            Draw::Finite => &[
                0.0,
                -0.0,
                f32::from_bits(0x0000_0001),
                f32::from_bits(0x8040_0000),
            ],
            Draw::Overflowing => &[0.0, -0.0, 3.0e38, -3.0e38, f32::from_bits(0x0000_0003)],
            Draw::NonFinite => &[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY],
        };
        match rng.gen_range(0..4 * (specials.len() + 1)) {
            s if s < specials.len() => specials[s],
            s if s == specials.len() && self == Draw::NonFinite => nan,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    fn tensor(self, rng: &mut StdRng, dims: &[usize]) -> Tensor {
        // One NaN payload per case, quiet or signalling, either sign.
        let sign = if rng.gen_bool(0.5) { 1 << 31 } else { 0 };
        let nan = f32::from_bits(rng.gen_range(0x7f80_0001u32..=0x7fff_ffff) | sign);
        let n = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| self.sample(rng, nan)).collect(), dims).unwrap()
    }
}

/// Runs the route, or the kernel it falls back to, as the engine does.
fn routed(
    route: &ConvRoute,
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    a: &ConvAttrs,
    blas: &dyn Blas,
) -> Tensor {
    route.run(x, None).unwrap_or_else(|| {
        kernels::conv2d_im2col_with(
            KernelCtx::sequential(),
            x,
            w,
            b,
            a,
            blas,
            GemmStrategy::Scalar,
        )
        .unwrap()
    })
}

/// Checks one case against the generic path; returns whether the packed
/// route ran.
fn check(
    route: &ConvRoute,
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    a: &ConvAttrs,
    blas: &dyn Blas,
    label: &str,
) -> bool {
    let want = kernels::conv2d_im2col_with(
        KernelCtx::sequential(),
        x,
        w,
        b,
        a,
        blas,
        GemmStrategy::Scalar,
    )
    .unwrap();
    let ran = route.run(x, None).is_some();
    if x.data().iter().any(|v| !v.is_finite()) {
        assert!(!ran, "{label}: a non-finite input took the packed route");
    }
    assert_eq!(
        bits(&routed(route, x, w, b, a, blas)),
        bits(&want),
        "{label}"
    );
    ran
}

#[test]
fn depthwise_lanes_route_matches_the_generic_path_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xd7);
    let (mut planned, mut ran) = (0, 0);
    for k in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            for pad in [0, k / 2] {
                for h in (1..=6usize).filter(|h| h + 2 * pad >= k) {
                    let ow = (h + 2 * pad - k) / stride + 1;
                    for (ci, &c) in CHANNELS.iter().enumerate() {
                        let a = ConvAttrs {
                            kernel: (k, k),
                            stride: (stride, stride),
                            padding: (pad, pad),
                            groups: c,
                        };
                        let draw = Draw::ALL[(ci + h) % 3];
                        let x = draw.tensor(&mut rng, &[1 + ci % 2, c, h, h]);
                        let w = Draw::Overflowing.tensor(&mut rng, &[c, 1, k, k]);
                        let bias = Draw::Finite.tensor(&mut rng, &[c]);
                        for b in [None, Some(&bias)] {
                            for kind in BlasKind::ALL {
                                let blas = kind.instantiate();
                                let route = ConvRoute::plan(x.dims(), &w, b, &a, blas.row_order());
                                let depthwise = matches!(route, ConvRoute::Depthwise(_));
                                assert_eq!(
                                    depthwise,
                                    ow <= SMALL_PLANE,
                                    "{a:?} h {h}: {}",
                                    route.name()
                                );
                                let label = format!(
                                    "{kind} {a:?} h {h} c {c} bias {} {draw:?}",
                                    b.is_some()
                                );
                                planned += usize::from(depthwise);
                                ran += usize::from(check(
                                    &route,
                                    &x,
                                    &w,
                                    b,
                                    &a,
                                    blas.as_ref(),
                                    &label,
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    // Both sides of the boundary, and refusals on both kinds of input.
    assert!(
        ran > 2_000 && planned - ran > 1_000,
        "{ran} of {planned} planned cases ran"
    );
}

#[test]
fn pointwise_route_matches_the_narrow_gemm_path_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x9e);
    let a = ConvAttrs {
        kernel: (1, 1),
        stride: (1, 1),
        padding: (0, 0),
        groups: 1,
    };
    let (mut planned, mut ran) = (0, 0);
    for (ki, &k) in CHANNELS.iter().enumerate() {
        for (mi, &m) in CHANNELS.iter().enumerate() {
            // 1×1 planes take the route (a 1→1 conv is depthwise too, and
            // takes that one); 2×2 and 3×3 stay on the GEMM.
            let h = [1, 1, 1, 1, 2, 3][(ki + mi) % 6];
            let draw = Draw::ALL[(ki * 7 + mi) % 3];
            let x = draw.tensor(&mut rng, &[1 + mi % 2, k, h, h]);
            let w = Draw::Overflowing.tensor(&mut rng, &[m, k, 1, 1]);
            let bias = Draw::Finite.tensor(&mut rng, &[m]);
            for b in [None, Some(&bias)] {
                for kind in BlasKind::ALL {
                    let blas = kind.instantiate();
                    let route = ConvRoute::plan(x.dims(), &w, b, &a, blas.row_order());
                    let pointwise = !matches!(route, ConvRoute::Generic);
                    assert_eq!(pointwise, h == 1, "{k}→{m} {h}×{h}: {}", route.name());
                    let label = format!("{kind} {k}→{m} {h}×{h} bias {} {draw:?}", b.is_some());
                    planned += usize::from(pointwise);
                    ran += usize::from(check(&route, &x, &w, b, &a, blas.as_ref(), &label));
                }
            }
        }
    }
    assert!(
        ran > 1_000 && planned - ran > 300,
        "{ran} of {planned} planned cases ran"
    );
}

/// Output widths on both sides of every boundary a row route has: the
/// lanes route's widest plane, and one and two tiles of eight columns.
const WIDTHS: [usize; 7] = [SMALL_PLANE, SMALL_PLANE + 1, 7, 8, 9, 16, 17];

/// The input extent whose output extent is `out`.
fn extent(out: usize, k: usize, stride: usize, pad: usize) -> usize {
    (out - 1) * stride + k - 2 * pad
}

#[test]
fn row_routes_match_the_generic_path_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5a);
    let mut ran = std::collections::BTreeMap::<&str, (usize, usize)>::new();
    let mut case = 0usize;
    // Square kernels, then a 2×4 one whose patches reach exactly
    // `DIRECT_PATCH` and one channel past it.
    let kernels = [(3, 3), (5, 5), (7, 7), (2, 4)];
    for (kh, kw) in kernels {
        for stride in [1usize, 2] {
            for (ph, pw) in [(0, 0), (kh / 2, kw / 2)] {
                for ow in WIDTHS {
                    case += 1;
                    let oh = 1 + case % 6;
                    let h = extent(oh, kh, stride, ph).max(1);
                    let w = extent(ow, kw, stride, pw);
                    let c = CHANNELS[case % CHANNELS.len()];
                    let draw = Draw::ALL[case % 3];
                    let depthwise = ConvAttrs {
                        kernel: (kh, kw),
                        stride: (stride, stride),
                        padding: (ph, pw),
                        groups: c,
                    };
                    let dense = ConvAttrs { groups: 1, ..depthwise };
                    let icg = [1, 2, 3, 4, 5][case % 5];
                    let m = CHANNELS[(case * 7) % CHANNELS.len()];
                    let shapes = [
                        (depthwise, [1 + case % 2, c, h, w], [c, 1, kh, kw], c),
                        (dense, [1 + case % 2, icg, h, w], [m, icg, kh, kw], m),
                    ];
                    for (a, x_dims, w_dims, oc) in shapes {
                        let x = draw.tensor(&mut rng, &x_dims);
                        let wt = Draw::Overflowing.tensor(&mut rng, &w_dims);
                        let bias = Draw::Finite.tensor(&mut rng, &[oc]);
                        let want = if a.groups == x_dims[1] && oc == x_dims[1] {
                            if ow <= SMALL_PLANE { "depthwise-lanes" } else { "depthwise-rows" }
                        } else if x_dims[1] * kh * kw <= DIRECT_PATCH {
                            "direct-rows"
                        } else {
                            "generic"
                        };
                        for b in [None, Some(&bias)] {
                            for kind in BlasKind::ALL {
                                let blas = kind.instantiate();
                                let route = ConvRoute::plan(x.dims(), &wt, b, &a, blas.row_order());
                                let label = format!(
                                    "{kind} {a:?} x {x_dims:?} w {w_dims:?} bias {} {draw:?}",
                                    b.is_some()
                                );
                                assert_eq!(route.name(), want, "{label}");
                                let went = check(&route, &x, &wt, b, &a, blas.as_ref(), &label);
                                let tally = ran.entry(route.name()).or_default();
                                tally.0 += usize::from(went);
                                tally.1 += usize::from(!went);
                            }
                        }
                    }
                }
            }
        }
    }
    // Every route ran, and refused a non-finite input, many times over.
    for name in ["depthwise-lanes", "depthwise-rows", "direct-rows"] {
        let (went, refused) = ran[name];
        assert!(went > 50 && refused > 20, "{name}: ran {went}, refused {refused}");
    }
}

const ACTIVATIONS: [ActivationKind; 8] = [
    ActivationKind::Relu,
    ActivationKind::Relu6,
    ActivationKind::Sigmoid,
    ActivationKind::Silu,
    ActivationKind::HardSigmoid,
    ActivationKind::HardSwish,
    ActivationKind::Tanh,
    ActivationKind::Abs,
];

/// What else reads a conv's output besides its activation.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Readers {
    /// Nothing: the activation absorbs into the conv.
    ActivationOnly,
    /// The graph returns the conv's output too.
    Returned,
    /// An `Add` reads it too.
    Added,
}

/// `x → conv → act`, returning the activation first. The conv's weights
/// and bias are kaiming draws scaled by 4, so activations saturate both
/// ways.
fn conv_act(dims: [usize; 4], oc: usize, a: &ConvAttrs, kind: ActivationKind, readers: Readers) -> Graph {
    let mut b = GraphBuilder::new("fusion", 3);
    let x = b.input(&dims);
    let conv = b.conv(x, oc, a.kernel, a.stride, a.padding, a.groups).unwrap();
    let act = b.activation(conv, kind).unwrap();
    let outputs = match readers {
        Readers::ActivationOnly => vec![act],
        Readers::Returned => vec![act, conv],
        Readers::Added => vec![act, b.add(conv, act).unwrap()],
    };
    b.finish(outputs).unwrap()
}

/// Runs `model` on `x` under a fresh trace; returns its outputs' bits and
/// the `node` of every `runtime.op` span it recorded.
fn traced_run(model: &dyn PreparedModel, x: &Tensor, id: u64) -> (Vec<Vec<u32>>, Vec<String>) {
    let ctx = TraceCtx::for_request(id);
    trace::recorder().clear();
    trace::set_current(ctx);
    let out = model.run(std::slice::from_ref(x)).unwrap();
    trace::set_current(TraceCtx::NONE);
    let nodes = trace::recorder()
        .snapshot()
        .into_iter()
        .filter(|e| e.trace == ctx.trace.0 && e.name == "runtime.op")
        .filter_map(|e| e.args.into_iter().find(|(k, _)| k == "node").map(|(_, v)| v))
        .collect();
    (out.iter().map(bits).collect(), nodes)
}

#[test]
fn a_fused_conv_and_activation_write_the_bytes_of_the_two_ops() {
    let attrs = |k: usize, s: usize, p: usize, g: usize| ConvAttrs {
        kernel: (k, k),
        stride: (s, s),
        padding: (p, p),
        groups: g,
    };
    // One conv per route an engine can plan for it: depthwise-lanes,
    // depthwise-rows, direct-rows, pointwise-gemv and generic.
    let convs = [
        ([1, 8, 4, 4], 8, attrs(3, 1, 1, 8)),
        ([1, 6, 12, 12], 6, attrs(3, 2, 1, 6)),
        ([2, 3, 10, 10], 5, attrs(3, 1, 1, 1)),
        ([1, 16, 1, 1], 12, attrs(1, 1, 0, 1)),
        ([1, 8, 6, 6], 4, attrs(3, 1, 1, 1)),
    ];
    let engines = [
        EngineConfig::of_kind(EngineKind::Reference),
        EngineConfig::of_kind(EngineKind::OrtLike),
        EngineConfig::of_kind(EngineKind::TvmLike),
        EngineConfig::tvm_complex(),
    ];
    let recorder = trace::recorder();
    recorder.set_enabled(true);
    let mut id = 0xf05e;
    for (dims, oc, a) in convs {
        let n: usize = dims.iter().product();
        // A ramp over ±6, then the same with an infinity and a NaN, which
        // every route refuses: the fallback applies the activation after.
        let ramp: Vec<f32> = (0..n).map(|i| ((i * 37 % 97) as f32 - 48.0) / 8.0).collect();
        let mut poisoned = ramp.clone();
        poisoned[n / 3] = f32::INFINITY;
        poisoned[n / 2] = f32::from_bits(0x7fc0_0bad);
        let inputs = [ramp, poisoned].map(|v| Tensor::from_vec(v, &dims).unwrap());
        for kind in ACTIVATIONS {
            let fused_graph = conv_act(dims, oc, &a, kind, Readers::ActivationOnly);
            for cfg in &engines {
                let engine = Engine::new(cfg.clone());
                let fused = engine.prepare(&fused_graph).unwrap();
                for readers in [Readers::Returned, Readers::Added] {
                    let apart = engine.prepare(&conv_act(dims, oc, &a, kind, readers)).unwrap();
                    for x in &inputs {
                        id += 1;
                        let (got, nodes) = traced_run(fused.as_ref(), x, id);
                        let label = format!("{} {dims:?} {a:?} {kind} {readers:?}", cfg.describe());
                        assert_eq!(nodes.len(), 1, "{label}: {nodes:?}");
                        assert!(nodes[0].starts_with("conv_") && nodes[0].contains("+act_"), "{label}: {nodes:?}");
                        id += 1;
                        let (want, nodes) = traced_run(apart.as_ref(), x, id);
                        assert!(nodes.len() >= 2 && nodes.iter().all(|n| !n.contains('+')), "{label}: {nodes:?}");
                        assert_eq!(got[0], want[0], "{label}");
                    }
                }
            }
        }
    }
    recorder.set_enabled(false);
}

#[test]
fn non_finite_operands_and_undeclared_orders_plan_the_generic_route() {
    let mut rng = StdRng::seed_from_u64(0x3f);
    let x_dims = [1, 8, 2, 2];
    let a = ConvAttrs {
        kernel: (3, 3),
        stride: (1, 1),
        padding: (1, 1),
        groups: 8,
    };
    let w = Draw::Finite.tensor(&mut rng, &[8, 1, 3, 3]);
    let b = Draw::Finite.tensor(&mut rng, &[8]);
    let order = RowOrder::AscendingK { skips_zero_a: true };
    assert!(matches!(
        ConvRoute::plan(&x_dims, &w, Some(&b), &a, order),
        ConvRoute::Depthwise(_)
    ));
    assert!(matches!(
        ConvRoute::plan(&x_dims, &w, Some(&b), &a, RowOrder::Unknown),
        ConvRoute::Generic
    ));
    for poison in [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_1234),
    ] {
        let mut bad_w = w.clone();
        bad_w.data_mut()[5] = poison;
        assert!(matches!(
            ConvRoute::plan(&x_dims, &bad_w, Some(&b), &a, order),
            ConvRoute::Generic
        ));
        let mut bad_b = b.clone();
        bad_b.data_mut()[7] = poison;
        assert!(matches!(
            ConvRoute::plan(&x_dims, &w, Some(&bad_b), &a, order),
            ConvRoute::Generic
        ));
    }
    // A differently shaped input is refused per call, not misread.
    let route = ConvRoute::plan(&x_dims, &w, Some(&b), &a, order);
    assert!(route.run(&Tensor::zeros(&[1, 8, 3, 3]), None).is_none());
    assert!(route.run(&Tensor::zeros(&[2, 8, 2, 2]), None).is_some());
}

/// Two inputs per model: a ramp and a seeded uniform draw.
fn model_inputs(dims: &[usize]) -> Vec<Tensor> {
    let n: usize = dims.iter().product();
    let ramp = Tensor::from_vec(
        (0..n).map(|i| ((i % 101) as f32 - 50.0) / 50.0).collect(),
        dims,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    vec![ramp, Tensor::random_uniform(&mut rng, dims, 2.0)]
}

#[test]
fn a_shared_model_answers_three_threads_at_once_with_single_thread_bytes() {
    for model in ModelKind::ALL {
        let m = zoo::build(model, ScaleProfile::Test, 6).unwrap();
        let inputs = model_inputs(m.input_shape.dims());
        for kind in [EngineKind::OrtLike, EngineKind::TvmLike] {
            let engine = Engine::new(EngineConfig::of_kind(kind));
            let shared = SharedModel(session_cache().prepare(&engine, &m.graph).unwrap());
            let want: Vec<Vec<Vec<u32>>> = inputs
                .iter()
                .map(|x| {
                    shared
                        .run(std::slice::from_ref(x))
                        .unwrap()
                        .iter()
                        .map(bits)
                        .collect()
                })
                .collect();
            std::thread::scope(|scope| {
                for t in 0..3 {
                    let (shared, inputs, want) = (&shared, &inputs, &want);
                    scope.spawn(move || {
                        for round in 0..4 {
                            // Each thread walks the inputs from its own offset.
                            let i = (t + round) % inputs.len();
                            let got = shared.run(std::slice::from_ref(&inputs[i])).unwrap();
                            let got: Vec<Vec<u32>> = got.iter().map(bits).collect();
                            assert_eq!(got, want[i], "{model} {kind} thread {t} round {round}");
                        }
                    });
                }
            });
        }
    }
}
