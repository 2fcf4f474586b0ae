//! `Tensor` crosses `mvtee-codec` in bulk (`F32s`), on the wire it had when
//! its data went through serde's sequence path as a `Vec<f32>`. The old
//! encoding is kept here as the oracle: a derived struct of the same two
//! fields. Every drawn tensor must encode to the oracle's bytes, and decode
//! from them to the same bits; every edit of those bytes must be accepted
//! or refused by both decoders alike.

use mvtee_codec::{from_bytes, to_bytes, F32s};
use mvtee_tensor::{Shape, Tensor};
use proptest::prelude::*;
use proptest::sample::Index;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The encoding before `F32s`: the field layout `Tensor` derived.
#[derive(Serialize, Deserialize)]
struct Oracle {
    shape: Shape,
    data: Vec<f32>,
}

/// Values a checkpoint may carry that a careless bulk path could mangle:
/// signed zeros, subnormals, infinities, quiet and signalling NaN payloads.
const EDGES: [u32; 14] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // quiet NaN
    0xffc1_2345, // negative quiet NaN with a payload
    0x7f80_0001, // signalling NaN
    0x7fa0_0000, // signalling NaN with a high payload
    0xffbf_ffff, // negative signalling NaN, full payload
    0x3f80_0000, // 1.0
    0x7f7f_ffff, // f32::MAX
    0x0080_0000, // smallest normal
];

/// A tensor of rank 0–4, empty dims included, whose elements are edge
/// values or arbitrary bit patterns.
fn draw_tensor(rng: &mut StdRng) -> Tensor {
    let rank = rng.gen_range(0..=4usize);
    let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(0..=5usize)).collect();
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| {
            let edge = EDGES[rng.gen_range(0..EDGES.len())];
            f32::from_bits(if rng.gen_bool(0.5) { edge } else { rng.gen_range(0..=u32::MAX) })
        })
        .collect();
    Tensor::from_vec(data, &dims).expect("dims match the data")
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

fn oracle_bytes(t: &Tensor) -> Vec<u8> {
    to_bytes(&Oracle { shape: t.shape().clone(), data: t.data().to_vec() }).expect("encodes")
}

/// `t` encodes to the oracle's bytes and decodes from them bit for bit,
/// alone and inside a sequence; every proper prefix is refused, as is the
/// encoding with a byte appended.
fn assert_wire_identical(t: &Tensor) {
    let wire = to_bytes(t).expect("encodes");
    assert_eq!(wire, oracle_bytes(t), "{:?}", t.shape());
    let back: Tensor = from_bytes(&wire).expect("decodes");
    assert_eq!(back.shape(), t.shape());
    assert_eq!(bits(back.data()), bits(t.data()));
    let pair = vec![t.clone(), t.clone()];
    let oracle_pair: Vec<Oracle> = from_bytes(&to_bytes(&pair).expect("encodes")).expect("decodes");
    assert!(oracle_pair.iter().all(|o| bits(&o.data) == bits(t.data())));
    for cut in 0..wire.len() {
        assert!(from_bytes::<Tensor>(&wire[..cut]).is_err(), "cut at {cut}");
    }
    let mut trailing = wire.clone();
    trailing.push(0);
    let err = from_bytes::<Tensor>(&trailing).unwrap_err();
    assert!(err.0.contains("trailing bytes"), "{err}");
}

#[test]
fn edge_values_cross_the_wire_unchanged() {
    let edges: Vec<f32> = EDGES.iter().map(|&b| f32::from_bits(b)).collect();
    assert_wire_identical(&Tensor::from_vec(edges.clone(), &[EDGES.len()]).unwrap());
    assert_wire_identical(&Tensor::from_vec(vec![f32::from_bits(0x7f80_0001)], &[]).unwrap());
    assert_wire_identical(&Tensor::from_vec(vec![], &[0]).unwrap());
    assert_wire_identical(&Tensor::from_vec(vec![], &[3, 0, 2]).unwrap());
    // Longer than one encoder block, and not a multiple of it.
    let long: Vec<f32> = (0..2500).map(|i| edges[i % edges.len()]).collect();
    assert_wire_identical(&Tensor::from_vec(long, &[2, 1250]).unwrap());
}

#[test]
fn shape_and_length_mismatches_are_refused() {
    // Oracle encodings whose dims do not describe the data that follows.
    let lies = [
        (Shape::new(&[2, 3]), vec![1.0; 5]),
        (Shape::new(&[2, 3]), vec![1.0; 7]),
        (Shape::new(&[0]), vec![1.0]),
        (Shape::new(&[]), vec![]),
        (Shape::new(&[usize::MAX, 2]), vec![]),
    ];
    for (shape, data) in lies {
        let bytes = to_bytes(&Oracle { shape, data }).expect("encodes");
        let err = from_bytes::<Tensor>(&bytes).unwrap_err();
        assert!(err.0.contains("does not describe"), "{err}");
    }
    // An element count four bytes short of its data is trailing bytes, one
    // more than the data is a count the input cannot back.
    let wire = to_bytes(&Tensor::ones(&[3])).unwrap();
    let at = wire.len() - 12 - 8;
    for (count, expect) in [(2u64, "does not describe"), (4, "exceeds remaining input")] {
        let mut lie = wire.clone();
        lie[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let err = from_bytes::<Tensor>(&lie).unwrap_err();
        assert!(err.0.contains(expect), "{count}: {err}");
    }
}

#[test]
fn f32s_is_the_vec_wire() {
    let values: Vec<f32> = (0..1500u32).map(|i| f32::from_bits(i.wrapping_mul(2_654_435_761))).collect();
    for n in [0, 1, 1023, 1024, 1025, 1500] {
        let wire = to_bytes(&F32s(&values[..n])).expect("encodes");
        assert_eq!(wire, to_bytes(&values[..n].to_vec()).expect("encodes"));
        let F32s(back) = from_bytes::<F32s<Vec<f32>>>(&wire).expect("decodes");
        assert_eq!(bits(&back), bits(&values[..n]));
    }
    for count in [u64::MAX, u64::MAX / 4 + 1, 2] {
        let mut hostile = count.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0; 7]);
        assert!(from_bytes::<F32s<Vec<f32>>>(&hostile).is_err(), "{count}");
        assert!(from_bytes::<Vec<f32>>(&hostile).is_err(), "{count}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn drawn_tensors_are_wire_identical(seed in any::<u64>()) {
        assert_wire_identical(&draw_tensor(&mut StdRng::seed_from_u64(seed)));
    }

    /// An edited encoding decodes as a `Tensor` exactly when it decodes as
    /// the oracle with dims that describe its data, and to the same bits.
    #[test]
    fn edited_encodings_decode_like_the_oracle(
        seed in any::<u64>(),
        edits in proptest::collection::vec((any::<Index>(), any::<u8>()), 0..=4),
        cut in proptest::option::of(any::<Index>()),
    ) {
        let mut bytes = to_bytes(&draw_tensor(&mut StdRng::seed_from_u64(seed))).expect("encodes");
        for (at, byte) in edits {
            let at = at.index(bytes.len());
            bytes[at] = byte;
        }
        if let Some(at) = cut {
            bytes.truncate(at.index(bytes.len()));
        }
        let oracle = from_bytes::<Oracle>(&bytes).ok().filter(|o| {
            o.shape.dims().iter().try_fold(1usize, |n, &d| n.checked_mul(d)) == Some(o.data.len())
        });
        let tensor = from_bytes::<Tensor>(&bytes).ok();
        prop_assert_eq!(tensor.is_some(), oracle.is_some());
        if let (Some(t), Some(o)) = (tensor, oracle) {
            prop_assert_eq!(t.shape(), &o.shape);
            prop_assert_eq!(bits(t.data()), bits(&o.data));
        }
    }
}
