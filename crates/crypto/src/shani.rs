//! The hardware SHA-256 core: the x86 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`; x86-64 only, selected by run-time feature
//! detection).
//!
//! The state lives in two vectors, `ABEF` and `CDGH`, the operand layout
//! `sha256rnds2` wants; each call of it runs two rounds, so a block is 32
//! calls over sixteen 4-word groups of the message schedule, the last twelve
//! of which `sha256msg1`/`sha256msg2` extend from the first four. The layout
//! is Intel's (Gulley et al., *New Instructions Supporting the Secure Hash
//! Algorithm on Intel Architecture Processors*).
//!
//! The one `unsafe` is the shim [`ShaNi::compress`], a single call into a
//! `#[target_feature]` function. Everything below it is safe code over value
//! intrinsics — message words come from `u32::from_be_bytes`, the state
//! goes in and out through `_mm_set_epi32` and lane extracts, no pointers.
//! Soundness rests on one fact kept inside this module: a [`ShaNi`] has a
//! private field and its only constructor returns `None` unless
//! [`available`] is true.

use crate::sha256::K;
use std::arch::x86_64::*;

/// Whether this CPU has every instruction the core uses.
fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Proof that this CPU has the SHA extensions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// The core, or `None` when the CPU lacks the instructions.
    pub(crate) fn detect() -> Option<ShaNi> {
        available().then_some(ShaNi(()))
    }

    /// Runs the compression function over `blocks`, in order.
    #[allow(unsafe_code)]
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: `self` exists, so `detect` saw `available()` return true.
        unsafe { compress_hw(state, blocks) }
    }
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_hw(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut s = [_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h)];
    for block in blocks {
        let s_in = s;
        // `wj` holds schedule words 4i..4i+4 of the group i ≡ j (mod 4)
        // last computed, lowest lane first.
        let [mut w0, mut w1, mut w2, mut w3] = std::array::from_fn(|i| words(block, 4 * i));
        rounds4(&mut s, w0, 0);
        rounds4(&mut s, w1, 1);
        rounds4(&mut s, w2, 2);
        rounds4(&mut s, w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut s, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut s, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut s, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut s, w3, i + 3);
        }
        s = [_mm_add_epi32(s[0], s_in[0]), _mm_add_epi32(s[1], s_in[1])];
    }
    let lanes = |v: __m128i| {
        [
            _mm_extract_epi32::<3>(v),
            _mm_extract_epi32::<2>(v),
            _mm_extract_epi32::<1>(v),
            _mm_cvtsi128_si32(v),
        ]
        .map(|x| x as u32)
    };
    let ([a, b, e, f], [c, d, g, h]) = (lanes(s[0]), lanes(s[1]));
    *state = [a, b, c, d, e, f, g, h];
}

/// Rounds 4i..4i+4 on the state `[ABEF, CDGH]`, with `w` schedule words
/// 4i..4i+4.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(s: &mut [__m128i; 2], w: __m128i, i: usize) {
    let [abef, cdgh] = s;
    let wk = _mm_add_epi32(w, words_of(&K, 4 * i));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// The next four schedule words from the sixteen before them, oldest
/// group first.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

/// Big-endian message words `at..at + 4` of `block`, word `at` in the
/// lowest lane.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn words(block: &[u8; 64], at: usize) -> __m128i {
    let word = |i: usize| {
        let i = 4 * (at + i);
        u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]])
    };
    words_of(&[word(0), word(1), word(2), word(3)], 0)
}

/// `table[at..at + 4]` as a vector, `table[at]` in the lowest lane.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn words_of(table: &[u32], at: usize) -> __m128i {
    let w = |i: usize| table[at + i] as i32;
    _mm_set_epi32(w(3), w(2), w(1), w(0))
}
