//! `conv2d_im2col_with`'s output bits where its epilogue decides them.
//!
//! When two NaNs meet in one addition, which payload survives depends on
//! the operand order the compiled code uses; the bias addition is where a
//! NaN product meets a NaN bias. The digests below pin every output bit
//! for 1×1 stride-1 and 3×3 convs, with one and two groups, under both
//! GEMM strategies and on the three built-in backends, for finite, ±inf
//! and NaN inputs, each with no bias, a finite bias and a NaN bias. They
//! were recorded when the product went through a separate buffer before
//! the bias was added, and a 1×1 conv with a finite bias had a branch of
//! its own: a digest that moves means the kernel's bytes moved.

use mvtee_crypto::sha256::Sha256;
use mvtee_runtime::kernels::{self, ConvAttrs};
use mvtee_runtime::{BlasKind, GemmStrategy, RuntimeConfig, ThreadPool};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A NaN input with a payload of its own.
const INPUT_NAN: u32 = 0x7fc0_1234;
/// A negative NaN bias with another payload.
const BIAS_NAN: u32 = 0xffc0_0042;

/// `(name, specials)` of the three inputs: one value in four is special.
const INPUTS: [(&str, &[f32]); 3] = [
    ("finite", &[]),
    ("inf", &[f32::INFINITY, f32::NEG_INFINITY]),
    ("nan", &[f32::from_bits(INPUT_NAN)]),
];

const BIASES: [&str; 3] = ["none", "finite", "nan"];

/// `(name, kernel, padding)`; every conv has stride 1.
const CONVS: [(&str, usize, usize); 2] = [("1x1", 1, 0), ("3x3", 3, 1)];

const STRATEGIES: [GemmStrategy; 2] = [GemmStrategy::Scalar, GemmStrategy::SimdMicrokernel];

/// The first eight bytes of the SHA-256 of each case's output bits, in
/// the loop order of `epilogue_bits_match_the_recorded_digests`.
const RECORDED: [u64; 216] = [
    0x60508ccc9090863d, 0x60508ccc9090863d, 0x60508ccc9090863d, 0x60508ccc9090863d,
    0x60508ccc9090863d, 0x60508ccc9090863d, 0xfbbe50f5df9972da, 0xfbbe50f5df9972da,
    0xfbbe50f5df9972da, 0xfbbe50f5df9972da, 0xfbbe50f5df9972da, 0xfbbe50f5df9972da,
    0x8d63ea621745d2a5, 0x8d63ea621745d2a5, 0x8d63ea621745d2a5, 0x8d63ea621745d2a5,
    0x8d63ea621745d2a5, 0x8d63ea621745d2a5, 0xdd435c13fd6303dc, 0xdd435c13fd6303dc,
    0xdd435c13fd6303dc, 0xdd435c13fd6303dc, 0xdd435c13fd6303dc, 0xdd435c13fd6303dc,
    0x869f0d2d44db6c3f, 0x869f0d2d44db6c3f, 0x869f0d2d44db6c3f, 0x869f0d2d44db6c3f,
    0x869f0d2d44db6c3f, 0x869f0d2d44db6c3f, 0x6db3b8902e8c5cca, 0x6db3b8902e8c5cca,
    0x6db3b8902e8c5cca, 0x6db3b8902e8c5cca, 0x6db3b8902e8c5cca, 0x6db3b8902e8c5cca,
    0xa812f3b438b560e0, 0xa812f3b438b560e0, 0xa812f3b438b560e0, 0xa812f3b438b560e0,
    0xa812f3b438b560e0, 0xa812f3b438b560e0, 0xb84c263f35fe3709, 0xb84c263f35fe3709,
    0xb84c263f35fe3709, 0xb84c263f35fe3709, 0xb84c263f35fe3709, 0xb84c263f35fe3709,
    0xc69d56803e7e0a40, 0xc69d56803e7e0a40, 0xc69d56803e7e0a40, 0xc69d56803e7e0a40,
    0xc69d56803e7e0a40, 0xc69d56803e7e0a40, 0x658370a9fad6ed58, 0x658370a9fad6ed58,
    0x658370a9fad6ed58, 0x658370a9fad6ed58, 0x658370a9fad6ed58, 0x658370a9fad6ed58,
    0x499c90744af3eb2c, 0x499c90744af3eb2c, 0x499c90744af3eb2c, 0x499c90744af3eb2c,
    0x499c90744af3eb2c, 0x499c90744af3eb2c, 0x522458119acf970b, 0x522458119acf970b,
    0x522458119acf970b, 0x522458119acf970b, 0x522458119acf970b, 0x522458119acf970b,
    0xa3506ea61d0abe77, 0xa3506ea61d0abe77, 0xa3506ea61d0abe77, 0xa3506ea61d0abe77,
    0xa3506ea61d0abe77, 0xa3506ea61d0abe77, 0x88803669efdf08e3, 0x88803669efdf08e3,
    0x88803669efdf08e3, 0x88803669efdf08e3, 0x88803669efdf08e3, 0x88803669efdf08e3,
    0x2d2b4093dc8d928b, 0x2d2b4093dc8d928b, 0x2d2b4093dc8d928b, 0x2d2b4093dc8d928b,
    0x2d2b4093dc8d928b, 0x2d2b4093dc8d928b, 0xd1c29bb2f04d5d74, 0xd1c29bb2f04d5d74,
    0xd1c29bb2f04d5d74, 0xd1c29bb2f04d5d74, 0xd1c29bb2f04d5d74, 0xd1c29bb2f04d5d74,
    0x1982d30485f609c1, 0x1982d30485f609c1, 0x1982d30485f609c1, 0x1982d30485f609c1,
    0x1982d30485f609c1, 0x1982d30485f609c1, 0xbcd023e81e719b49, 0xbcd023e81e719b49,
    0xbcd023e81e719b49, 0xbcd023e81e719b49, 0xbcd023e81e719b49, 0xbcd023e81e719b49,
    0x974bd4b3c965ecdb, 0x974bd4b3c965ecdb, 0x974bd4b3c965ecdb, 0x15431139cab4ea51,
    0x15431139cab4ea51, 0x15431139cab4ea51, 0x5d1a2a36813f62a4, 0x5d1a2a36813f62a4,
    0x5d1a2a36813f62a4, 0x237de64d423c1fe3, 0x237de64d423c1fe3, 0x237de64d423c1fe3,
    0xbcc76cd7805ded51, 0xbcc76cd7805ded51, 0xbcc76cd7805ded51, 0xfcb8fd7a548129e5,
    0xfcb8fd7a548129e5, 0xfcb8fd7a548129e5, 0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9,
    0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9,
    0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9,
    0xd7e32a3c5f2c80a9, 0xd7e32a3c5f2c80a9, 0xf05caac2f99638f2, 0xf05caac2f99638f2,
    0xf05caac2f99638f2, 0xf05caac2f99638f2, 0xf05caac2f99638f2, 0xf05caac2f99638f2,
    0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3,
    0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3,
    0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3,
    0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3,
    0x470b2d1cebb60ed3, 0x470b2d1cebb60ed3, 0x1e9321b25f5e267c, 0x1e9321b25f5e267c,
    0x1e9321b25f5e267c, 0x4035f21aeaa1608e, 0x4035f21aeaa1608e, 0x4035f21aeaa1608e,
    0x4815f4322e84b26f, 0x4815f4322e84b26f, 0x4815f4322e84b26f, 0xa118dc5d6cca5386,
    0xa118dc5d6cca5386, 0xa118dc5d6cca5386, 0x06ff0875ecfd4c90, 0x06ff0875ecfd4c90,
    0x06ff0875ecfd4c90, 0x51b8c8e0f310c5d9, 0x51b8c8e0f310c5d9, 0x51b8c8e0f310c5d9,
    0xa8e44c589793ea4a, 0xa8e44c589793ea4a, 0xa8e44c589793ea4a, 0x4eca446f9e2b9247,
    0x4eca446f9e2b9247, 0x4eca446f9e2b9247, 0xad433d80db37ce6e, 0xad433d80db37ce6e,
    0xad433d80db37ce6e, 0xbd9fd184ee085ae7, 0xbd9fd184ee085ae7, 0xbd9fd184ee085ae7,
    0x3203386e06bc46da, 0x3203386e06bc46da, 0x3203386e06bc46da, 0x3203386e06bc46da,
    0x3203386e06bc46da, 0x3203386e06bc46da, 0xa3c2d4d090343dc9, 0xa3c2d4d090343dc9,
    0xa3c2d4d090343dc9, 0x5e34c0daebba54f9, 0x5e34c0daebba54f9, 0x5e34c0daebba54f9,
    0x4c39e9996be59bac, 0x4c39e9996be59bac, 0x4c39e9996be59bac, 0x9a974e863100591c,
    0x9a974e863100591c, 0x9a974e863100591c, 0xe2c925a5d658a150, 0xe2c925a5d658a150,
    0xe2c925a5d658a150, 0x2b0b84ef4f362b69, 0x2b0b84ef4f362b69, 0x2b0b84ef4f362b69,
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

/// The inline pool and a two-thread pool that goes parallel at once.
fn pools() -> [Arc<ThreadPool>; 2] {
    [
        ThreadPool::new(RuntimeConfig::default()),
        ThreadPool::new(RuntimeConfig { intra_op_threads: 2, min_parallel_elems: 1 }),
    ]
}

#[test]
fn epilogue_bits_match_the_recorded_digests() {
    let mut rng = StdRng::seed_from_u64(0xe9);
    let (n, c, oc, h) = (2, 4, 6, 5);
    let pools = pools();
    let mut got = Vec::with_capacity(RECORDED.len());
    let mut names = Vec::with_capacity(RECORDED.len());
    for (conv, k, pad) in CONVS {
        for groups in [1usize, 2] {
            let a = ConvAttrs {
                kernel: (k, k),
                stride: (1, 1),
                padding: (pad, pad),
                groups,
            };
            let w = tensor(&mut rng, &[oc, c / groups, k, k], &[]);
            let finite_bias = tensor(&mut rng, &[oc], &[]);
            let mut nan_bias = tensor(&mut rng, &[oc], &[]);
            for v in nan_bias.data_mut().iter_mut().step_by(2) {
                *v = f32::from_bits(BIAS_NAN);
            }
            for (input, specials) in INPUTS {
                let x = tensor(&mut rng, &[n, c, h, h], specials);
                for (bias_name, bias) in BIASES.into_iter().zip([None, Some(&finite_bias), Some(&nan_bias)]) {
                    for strategy in STRATEGIES {
                        for kind in BlasKind::ALL {
                            let blas = kind.instantiate();
                            let outs: Vec<u64> = pools
                                .iter()
                                .map(|pool| {
                                    let y = kernels::conv2d_im2col_with(
                                        pool,
                                        &x,
                                        &w,
                                        bias,
                                        &a,
                                        blas.as_ref(),
                                        strategy,
                                    )
                                    .unwrap();
                                    digest(&y)
                                })
                                .collect();
                            let name = format!("{conv} g{groups} {input} in, {bias_name} bias, {strategy:?} {kind}");
                            assert_eq!(outs[0], outs[1], "{name}: the thread count moved a byte");
                            got.push(outs[0]);
                            names.push(name);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(got.len(), RECORDED.len());
    let moved: Vec<_> = names
        .iter()
        .zip(got.iter().zip(&RECORDED))
        .filter(|(_, (g, r))| g != r)
        .map(|(name, (g, r))| format!("{name}: {g:#018x}, recorded {r:#018x}"))
        .collect();
    assert!(moved.is_empty(), "{} of {} cases moved:\n{}", moved.len(), got.len(), moved.join("\n"));
}
