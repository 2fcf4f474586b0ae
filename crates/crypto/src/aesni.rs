//! The hardware AES-GCM core: AES-NI for the block cipher, PCLMULQDQ for
//! GHASH (x86-64 only, selected by run-time feature detection).
//!
//! The arithmetic follows Gueron & Kounavis, *Intel Carry-Less
//! Multiplication Instruction and its Usage for Computing the GCM Mode*:
//! field elements are held byte-reflected, so the `__m128i` read as a
//! 128-bit integer equals `u128::from_be_bytes(block)` — the same value the
//! portable core computes with — and GHASH aggregates eight blocks against
//! H⁸…H¹ before one reduction. CTR encrypts eight counter blocks per batch
//! so the `aesenc` latency of one block hides behind the other seven.
//!
//! This is the only module of the workspace that contains `unsafe`: the
//! three shims [`HwKey::new`], [`HwKey::ctr_xor`] and [`HwKey::tag`], each a
//! single call into a `#[target_feature]` function. Everything below them is
//! safe code over value intrinsics — no pointers, no transmutes. Soundness
//! rests on one fact kept inside this module: a [`HwKey`] has private fields
//! and its only constructor returns `None` unless [`available`] is true.

use crate::aes::Aes;
use crate::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use std::arch::x86_64::*;

/// Blocks per interleaved CTR batch and per aggregated GHASH reduction.
const LANES: usize = 8;

/// Whether this CPU has every instruction the core uses.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// One key's state: the AES round keys and the GHASH key powers.
#[derive(Clone)]
pub(crate) struct HwKey {
    /// Round keys `0..=rounds`; AES-128 leaves the last four unused.
    round_keys: [__m128i; 15],
    rounds: usize,
    /// `h_pows[i]` is Hⁱ⁺¹, byte-reflected.
    h_pows: [__m128i; LANES],
}

impl std::fmt::Debug for HwKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "HwKey {{ rounds: {} }}", self.rounds)
    }
}

impl HwKey {
    /// Builds the hardware key from an expanded AES key, or `None` when the
    /// CPU lacks the instructions.
    #[allow(unsafe_code)]
    pub(crate) fn new(aes: &Aes) -> Option<HwKey> {
        if !available() {
            return None;
        }
        // SAFETY: `available()` just confirmed every feature `setup` enables.
        Some(unsafe { Self::setup(aes) })
    }

    /// XORs the CTR keystream (counter starting at 2) into `data`.
    #[allow(unsafe_code)]
    pub(crate) fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        // SAFETY: `self` exists, so `new` saw `available()` return true.
        unsafe { self.ctr_xor_hw(nonce, data) }
    }

    /// The GCM tag over `aad` and `ciphertext`.
    #[allow(unsafe_code)]
    pub(crate) fn tag(
        &self,
        nonce: &[u8; NONCE_LEN],
        ciphertext: &[u8],
        aad: &[u8],
    ) -> [u8; TAG_LEN] {
        // SAFETY: `self` exists, so `new` saw `available()` return true.
        unsafe { self.tag_hw(nonce, ciphertext, aad) }
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn setup(aes: &Aes) -> HwKey {
        let schedule = aes.round_keys();
        let zero = _mm_setzero_si128();
        let mut round_keys = [zero; 15];
        for (slot, rk) in round_keys.iter_mut().zip(schedule) {
            *slot = load(rk);
        }
        let mut key = HwKey { round_keys, rounds: schedule.len() - 1, h_pows: [zero; LANES] };
        let h = reflect(key.encrypt([zero])[0]);
        key.h_pows[0] = h;
        for i in 1..LANES {
            key.h_pows[i] = gfmul(key.h_pows[i - 1], h);
        }
        key
    }

    /// Encrypts `N` independent blocks, one round across all of them at a
    /// time.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn encrypt<const N: usize>(&self, mut blocks: [__m128i; N]) -> [__m128i; N] {
        for b in &mut blocks {
            *b = _mm_xor_si128(*b, self.round_keys[0]);
        }
        for rk in &self.round_keys[1..self.rounds] {
            for b in &mut blocks {
                *b = _mm_aesenc_si128(*b, *rk);
            }
        }
        for b in &mut blocks {
            *b = _mm_aesenclast_si128(*b, self.round_keys[self.rounds]);
        }
        blocks
    }

    /// Keystream blocks `counter .. counter + 8`.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn keystream(&self, nonce: &[u8; NONCE_LEN], counter: u32) -> [__m128i; LANES] {
        self.encrypt(std::array::from_fn(|i| counter_block(nonce, counter.wrapping_add(i as u32))))
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ctr_xor_hw(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        let mut counter = 2u32; // counter 1 is reserved for the tag mask
        let (batches, tail) = data.as_chunks_mut::<{ 16 * LANES }>();
        for batch in batches {
            let ks = self.keystream(nonce, counter);
            for (block, k) in batch.as_chunks_mut::<16>().0.iter_mut().zip(ks) {
                *block = store(_mm_xor_si128(load(block), k));
            }
            counter = counter.wrapping_add(LANES as u32);
        }
        if !tail.is_empty() {
            let ks = self.keystream(nonce, counter).map(|k| store(k));
            for (b, k) in tail.iter_mut().zip(ks.as_flattened()) {
                *b ^= k;
            }
        }
    }

    /// GHASH-absorbs `data` into `acc`, zero-padding a trailing partial
    /// block: up to eight blocks X₁…Xₙ become
    /// `(acc ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕ … ⊕ Xₙ·H` with one reduction.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn absorb(&self, mut acc: __m128i, data: &[u8]) -> __m128i {
        for batch in data.chunks(16 * LANES) {
            let (full, tail) = batch.as_chunks::<16>();
            let mut power = full.len() + usize::from(!tail.is_empty());
            let mut product = [_mm_setzero_si128(); 3];
            for block in full {
                power -= 1;
                let x = _mm_xor_si128(reflect(load(block)), acc);
                acc = _mm_setzero_si128();
                clmul_acc(&mut product, x, self.h_pows[power]);
            }
            if !tail.is_empty() {
                let mut padded = [0u8; 16];
                padded[..tail.len()].copy_from_slice(tail);
                let x = _mm_xor_si128(reflect(load(&padded)), acc);
                clmul_acc(&mut product, x, self.h_pows[0]);
            }
            acc = reduce(product);
        }
        acc
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn tag_hw(&self, nonce: &[u8; NONCE_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let acc = self.absorb(_mm_setzero_si128(), aad);
        let acc = self.absorb(acc, ciphertext);
        // The length block `aad_bits:u64be ‖ ct_bits:u64be`, already reflected.
        let lens =
            _mm_set_epi64x((aad.len() as u64 * 8) as i64, (ciphertext.len() as u64 * 8) as i64);
        let s = gfmul(_mm_xor_si128(acc, lens), self.h_pows[0]);
        let mask = self.encrypt([counter_block(nonce, 1)])[0];
        store(_mm_xor_si128(reflect(s), mask))
    }
}

/// A block as a vector, byte 0 in the lowest lane. LLVM folds the integer
/// round trip into one unaligned load.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn load(block: &[u8; 16]) -> __m128i {
    let v = u128::from_le_bytes(*block);
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// The inverse of [`load`]; folds into one unaligned store.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn store(v: __m128i) -> [u8; 16] {
    let lo = _mm_cvtsi128_si64(v) as u64;
    let hi = _mm_extract_epi64::<1>(v) as u64;
    (u128::from(lo) | (u128::from(hi) << 64)).to_le_bytes()
}

/// Reverses the sixteen bytes: wire order ↔ the reflected field element.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn reflect(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(v, _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f))
}

/// The counter block `nonce ‖ counter:u32be`.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> __m128i {
    load(&AesGcm::counter_block(nonce, counter))
}

/// Adds the 256-bit carry-less product `a·b` into `[low, middle, high]`
/// (the middle half straddles bit 64 and is folded in by [`reduce`]).
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn clmul_acc(product: &mut [__m128i; 3], a: __m128i, b: __m128i) {
    let [lo, mid, hi] = product;
    *lo = _mm_xor_si128(*lo, _mm_clmulepi64_si128::<0x00>(a, b));
    *mid = _mm_xor_si128(*mid, _mm_clmulepi64_si128::<0x10>(a, b));
    *mid = _mm_xor_si128(*mid, _mm_clmulepi64_si128::<0x01>(a, b));
    *hi = _mm_xor_si128(*hi, _mm_clmulepi64_si128::<0x11>(a, b));
}

/// Reduces an accumulated product modulo x¹²⁸ + x⁷ + x² + x + 1. The
/// operands were bit-reflected, so the product is first shifted left one
/// bit; shift and reduction are linear, hence once per aggregated sum.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
    // [hi:lo] << 1, carrying across the 32-bit lanes and from lo into hi.
    let carry_lo = _mm_srli_epi32::<31>(lo);
    let carry_hi = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(carry_lo));
    let hi = _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(carry_hi));
    let hi = _mm_or_si128(hi, _mm_srli_si128::<12>(carry_lo));
    // Fold lo into hi: multiply by x¹²⁸ ≡ x⁷ + x² + x + 1, reflected.
    let a = _mm_xor_si128(
        _mm_slli_epi32::<31>(lo),
        _mm_xor_si128(_mm_slli_epi32::<30>(lo), _mm_slli_epi32::<25>(lo)),
    );
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));
    let b = _mm_xor_si128(
        _mm_srli_epi32::<1>(lo),
        _mm_xor_si128(_mm_srli_epi32::<2>(lo), _mm_srli_epi32::<7>(lo)),
    );
    let b = _mm_xor_si128(b, _mm_srli_si128::<4>(a));
    _mm_xor_si128(hi, _mm_xor_si128(lo, b))
}

/// `a·b` in GF(2¹²⁸), both reflected.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gfmul(a: __m128i, b: __m128i) -> __m128i {
    let mut product = [_mm_setzero_si128(); 3];
    clmul_acc(&mut product, a, b);
    reduce(product)
}
