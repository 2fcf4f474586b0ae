//! The packed conv routes compute the bytes of the kernels they replace.
//!
//! * The depthwise route against `conv2d_im2col_with`'s direct depthwise
//!   kernel, and the pointwise GEMV against its in-place pointwise branch
//!   (the built-in backends' `narrow_gemm`), compared with `to_bits` over
//!   every built-in backend, with and without bias, kernel sizes 1, 3 and
//!   5, strides 1 and 2, planes 1×1 to 6×6 and channels 1–19, 64 and 144.
//!   Operands mix signed zeros, subnormals, ordinary values and magnitudes
//!   whose products overflow; a case with an infinity or its one NaN
//!   payload must be refused by the route and still match through the
//!   fallback.
//! * One prepared model, shared through the session cache, answers three
//!   threads at once with the bytes it gives one: nothing it packed is
//!   written after `prepare`.

use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::kernels::{self, ConvAttrs};
use mvtee_runtime::packed::{ConvRoute, SMALL_PLANE};
use mvtee_runtime::{
    session_cache, Blas, BlasKind, Engine, EngineConfig, EngineKind, GemmStrategy, KernelCtx,
    PreparedModel, RowOrder, SharedModel,
};
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
    route.run(x).unwrap_or_else(|| {
        kernels::conv2d_im2col_with(
            KernelCtx::sequential(),
            x,
            w,
            b,
            a,
            blas,
            GemmStrategy::PanelPacked,
        )
        .unwrap()
    })
}

/// Checks one case against the kernel the route replaces; returns whether
/// the packed route ran.
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
    let ran = route.run(x).is_some();
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
fn depthwise_route_matches_the_direct_kernel_bit_for_bit() {
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
    assert!(route.run(&Tensor::zeros(&[1, 8, 3, 3])).is_none());
    assert!(route.run(&Tensor::zeros(&[2, 8, 2, 2])).is_some());
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
