//! The output bits of a fully connected layer's bias addition and of the
//! `Add` op where two NaNs meet, pinned in both build profiles.
//!
//! When two NaNs meet in one addition, which payload survives depends on
//! the operand order the compiled code uses, and an optimised build picks
//! one order for a vectorised loop body and the other for its scalar
//! tail. So both additions keep the conv epilogue's rule: a NaN left
//! operand (the product, or `Add`'s first input) adds `0.0` instead, and
//! keeps its own payload, quieted. The digests below cover finite, ±inf
//! and NaN inputs, no bias, a finite bias and a NaN bias, both GEMM
//! strategies, the three built-in backends, batch 1 and 3, and `Add` on
//! equal shapes (vectorised body and tail) and broadcast ones.

use mvtee_crypto::sha256::Sha256;
use mvtee_graph::{Graph, Op};
use mvtee_runtime::kernels;
use mvtee_runtime::{BlasKind, Engine, EngineConfig, EngineKind, GemmStrategy, RuntimeConfig, ThreadPool};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A NaN input with a payload of its own.
const INPUT_NAN: u32 = 0x7fc0_1234;
/// A negative NaN bias, or right-hand operand, with another payload.
const OTHER_NAN: u32 = 0xffc0_0042;

/// `(name, specials)` of the three inputs: one value in four is special.
const INPUTS: [(&str, &[f32]); 3] = [
    ("finite", &[]),
    ("inf", &[f32::INFINITY, f32::NEG_INFINITY]),
    ("nan", &[f32::from_bits(INPUT_NAN)]),
];

/// The first eight bytes of the SHA-256 of each `gemm_fc_with` case's
/// output bits, in the loop order of `fc_bias_bits_match_the_recorded_digests`.
const RECORDED_FC: [u64; 108] = [
    0x687c8911a67cd7a3, 0x687c8911a67cd7a3, 0x687c8911a67cd7a3, 0x687c8911a67cd7a3,
    0x687c8911a67cd7a3, 0x687c8911a67cd7a3, 0x3d803fdc46c7303e, 0x3d803fdc46c7303e,
    0x3d803fdc46c7303e, 0x3d803fdc46c7303e, 0x3d803fdc46c7303e, 0x3d803fdc46c7303e,
    0x19082cbba390cac3, 0x19082cbba390cac3, 0x19082cbba390cac3, 0x19082cbba390cac3,
    0x19082cbba390cac3, 0x19082cbba390cac3, 0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8,
    0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8,
    0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8,
    0xdc6c4cd10d0938d8, 0xdc6c4cd10d0938d8, 0xc85685411d8a8528, 0xc85685411d8a8528,
    0xc85685411d8a8528, 0xc85685411d8a8528, 0xc85685411d8a8528, 0xc85685411d8a8528,
    0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87,
    0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87,
    0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87,
    0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x8e4677aceb082e87,
    0x8e4677aceb082e87, 0x8e4677aceb082e87, 0x1e8f61cb46e28ced, 0x1e8f61cb46e28ced,
    0x1e8f61cb46e28ced, 0x1e8f61cb46e28ced, 0x1e8f61cb46e28ced, 0x1e8f61cb46e28ced,
    0xd7e052a485f760fb, 0xd7e052a485f760fb, 0xd7e052a485f760fb, 0xd7e052a485f760fb,
    0xd7e052a485f760fb, 0xd7e052a485f760fb, 0x83005fcbd1246b16, 0x83005fcbd1246b16,
    0x83005fcbd1246b16, 0x83005fcbd1246b16, 0x83005fcbd1246b16, 0x83005fcbd1246b16,
    0x9bc4ccbd3eff1c8a, 0x9bc4ccbd3eff1c8a, 0x9bc4ccbd3eff1c8a, 0x9bc4ccbd3eff1c8a,
    0x9bc4ccbd3eff1c8a, 0x9bc4ccbd3eff1c8a, 0x25d22d8efc8bbbd1, 0x25d22d8efc8bbbd1,
    0x25d22d8efc8bbbd1, 0x25d22d8efc8bbbd1, 0x25d22d8efc8bbbd1, 0x25d22d8efc8bbbd1,
    0x5458d3cdcdaeef16, 0x5458d3cdcdaeef16, 0x5458d3cdcdaeef16, 0x5458d3cdcdaeef16,
    0x5458d3cdcdaeef16, 0x5458d3cdcdaeef16, 0x12455c22c9988a0c, 0x12455c22c9988a0c,
    0x12455c22c9988a0c, 0x12455c22c9988a0c, 0x12455c22c9988a0c, 0x12455c22c9988a0c,
    0xa74ecb826b04c13c, 0xa74ecb826b04c13c, 0xa74ecb826b04c13c, 0xa74ecb826b04c13c,
    0xa74ecb826b04c13c, 0xa74ecb826b04c13c, 0xd73c5c97b9a41630, 0xd73c5c97b9a41630,
    0xd73c5c97b9a41630, 0xd73c5c97b9a41630, 0xd73c5c97b9a41630, 0xd73c5c97b9a41630,
];

/// The same for each `Add` case of `add_bits_match_the_recorded_digests`.
const RECORDED_ADD: [u64; 24] = [
    0x69a53002839a86bd, 0xcb2994c120a9c3fe, 0x7b53f9c8b0c70fcf, 0x5f95dad1d1fe5705,
    0xf0b17392b3f693ae, 0x84b248ec82aceaab, 0x62b43fc4a9af1618, 0xb2f6bc26d435cf77,
    0x89a6a95889fcb741, 0x5a1e397a228d3234, 0x7ae7d3c56748b45b, 0x8fefd3c1b5a8fdc6,
    0x982a3383bb666a75, 0x7a95c0db7e1ebce2, 0x9403f70c6f86ed51, 0xc8ea510ee871f48b,
    0xd995a187ffd45c3a, 0x54da2fb671a9df2b, 0x792e7ab536095f37, 0xa2ab62606645ebae,
    0x41b587ff0028cc49, 0x3132e82017e87ea2, 0xb9fe98aed7901d98, 0x5619e6a4f8315e52,
];

fn tensor(rng: &mut StdRng, dims: &[usize], specials: &[f32]) -> Tensor {
    let n = dims.iter().product();
    let data = (0..n)
        .map(|_| match specials {
            [] => rng.gen_range(-2.0f32..2.0),
            _ if rng.gen_range(0..4) == 0 => specials[rng.gen_range(0..specials.len())],
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

fn digest(t: &Tensor) -> u64 {
    let mut h = Sha256::new();
    for v in t.data() {
        h.update(&v.to_bits().to_le_bytes());
    }
    u64::from_be_bytes(h.finalize()[..8].try_into().unwrap())
}

/// Fails listing every case whose digest moved.
fn check(got: &[(String, u64)], recorded: &[u64]) {
    let moved: Vec<_> = got
        .iter()
        .zip(recorded)
        .filter(|((_, g), r)| g != *r)
        .map(|((name, g), r)| format!("{name}: {g:#018x}, recorded {r:#018x}"))
        .collect();
    let all: Vec<_> = got.iter().map(|(_, g)| format!("{g:#018x}")).collect();
    assert_eq!(got.len(), recorded.len(), "cases: {}", all.join(", "));
    assert!(moved.is_empty(), "{} of {} cases moved:\n{}", moved.len(), got.len(), moved.join("\n"));
}

#[test]
fn fc_bias_bits_match_the_recorded_digests() {
    let mut rng = StdRng::seed_from_u64(0xfc);
    let (k, m) = (7, 19);
    // The inline pool and a two-thread pool that goes parallel at once.
    let pools = [
        ThreadPool::new(RuntimeConfig::default()),
        ThreadPool::new(RuntimeConfig { intra_op_threads: 2, min_parallel_elems: 1 }),
    ];
    let w = tensor(&mut rng, &[m, k], &[]);
    let finite_bias = tensor(&mut rng, &[m], &[]);
    let mut nan_bias = tensor(&mut rng, &[m], &[]);
    for v in nan_bias.data_mut().iter_mut().step_by(2) {
        *v = f32::from_bits(OTHER_NAN);
    }
    let biases = [("none", None), ("finite", Some(&finite_bias)), ("nan", Some(&nan_bias))];
    let mut got = Vec::new();
    for n in [1usize, 3] {
        for (input, specials) in INPUTS {
            let x = tensor(&mut rng, &[n, k], specials);
            for (bias_name, bias) in biases {
                for strategy in [GemmStrategy::Scalar, GemmStrategy::SimdMicrokernel] {
                    for kind in BlasKind::ALL {
                        let blas = kind.instantiate();
                        let outs: Vec<u64> = (pools.iter())
                            .map(|pool: &Arc<ThreadPool>| {
                                let y = kernels::gemm_fc_with(pool, &x, &w, bias, blas.as_ref(), None, strategy);
                                digest(&y.unwrap())
                            })
                            .collect();
                        let name = format!("n{n} {input} in, {bias_name} bias, {strategy:?} {kind}");
                        assert_eq!(outs[0], outs[1], "{name}: the thread count moved a byte");
                        got.push((name, outs[0]));
                    }
                }
            }
        }
    }
    check(&got, &RECORDED_FC);
}

#[test]
fn add_bits_match_the_recorded_digests() {
    let mut rng = StdRng::seed_from_u64(0xadd);
    // Equal shapes (27 and 70 elements: a vectorised body and a tail) and
    // broadcasts from either side.
    let shapes: [(&[usize], &[usize]); 4] = [(&[3, 3, 3], &[3, 3, 3]), (&[2, 35], &[2, 35]), (&[3, 3, 3], &[3]), (&[3], &[3, 3, 3])];
    let rights: [(&str, &[f32]); 2] = [("finite", &[]), ("nan", &[f32::from_bits(OTHER_NAN), f32::INFINITY])];
    let mut got = Vec::new();
    for (a_dims, b_dims) in shapes {
        for (input, specials) in INPUTS {
            for (right, right_specials) in rights {
                let mut g = Graph::new("add");
                let (a, b, out) = (g.add_value("a"), g.add_value("b"), g.add_value("out"));
                g.mark_input(a);
                g.set_initializer(b, tensor(&mut rng, b_dims, right_specials));
                g.add_node("add", Op::Add, vec![a, b], vec![out]).unwrap();
                g.mark_output(out);
                let x = tensor(&mut rng, a_dims, specials);
                let outs: Vec<u64> = [EngineKind::Reference, EngineKind::OrtLike, EngineKind::TvmLike]
                    .into_iter()
                    .map(|kind| {
                        let model = Engine::new(EngineConfig::of_kind(kind)).prepare(&g).unwrap();
                        digest(&model.run(std::slice::from_ref(&x)).unwrap()[0])
                    })
                    .collect();
                let name = format!("{a_dims:?} {input} + {b_dims:?} {right}");
                assert!(outs.iter().all(|&o| o == outs[0]), "{name}: the engines disagree");
                got.push((name, outs[0]));
            }
        }
    }
    check(&got, &RECORDED_ADD);
}
