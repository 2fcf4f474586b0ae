//! Wide-register SIMD microkernels for the GEMM / im2col / conv inner loops.
//!
//! Every crate but the crypto dispatch shims forbids `unsafe`, so these
//! kernels do not call `std::arch` intrinsics directly. Instead the inner
//! loop is written as an
//! unrolled **8-lane virtual register**: a `[f32; 8]` accumulator block where
//! lane `l` sums exactly the products whose flat index is `≡ l (mod 8)`, in
//! ascending order. Written as chunks-of-8 ([`dot8_wide`]) the loop is a
//! textbook vectorisation target — LLVM lowers it to packed `mulps`/`addps`
//! (AVX2 `vfmadd` is *not* emitted because the baseline target lacks FMA
//! codegen, which keeps the arithmetic identical to the per-lane form).
//! Written lane-at-a-time ([`dot8_lanes`]) the same sums run as 8 independent
//! scalar loops. Both organisations perform the identical per-lane additions
//! in the identical order, then combine the 8 partials with the same **fixed
//! accumulation tree**, so their results are bit-equal by construction — the
//! scalar fallback *preserves the accumulation order* of the wide path.
//!
//! A runtime CPU-feature check ([`wide_registers_available`], via the safe
//! `is_x86_feature_detected!` macro) picks the chunked organisation when
//! the host has AVX2 wide registers and the per-lane organisation otherwise.
//! Because the two are bit-identical, the feature check only affects speed,
//! never bytes: a `simd`-pinned variant replays identically across hosts.

use std::sync::OnceLock;

/// Number of virtual lanes in the microkernel accumulator block.
pub const LANES: usize = 8;

/// Whether the host exposes wide (256-bit) registers worth the chunked loop
/// organisation. Checked once per process via the safe feature-detection
/// macro; `false` on non-x86_64 targets.
pub fn wide_registers_available() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Combines the 8 lane partials with a fixed tree:
/// `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`.
///
/// The tree shape is a constant of the kernel, never a function of input
/// length or thread count.
#[inline]
fn combine8(acc: [f32; LANES]) -> f32 {
    let s01 = acc[0] + acc[1];
    let s23 = acc[2] + acc[3];
    let s45 = acc[4] + acc[5];
    let s67 = acc[6] + acc[7];
    (s01 + s23) + (s45 + s67)
}

/// Chunks-of-8 organisation: one `[f32; 8]` accumulator updated per 8-element
/// block. This is the loop LLVM auto-vectorises onto wide registers.
#[inline]
fn dot8_wide(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let mut acc = [0.0f32; LANES];
    let mut i = 0;
    while i < main {
        // Unrolled 8-lane block; lane l accumulates index i + l.
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
        acc[4] += a[i + 4] * b[i + 4];
        acc[5] += a[i + 5] * b[i + 5];
        acc[6] += a[i + 6] * b[i + 6];
        acc[7] += a[i + 7] * b[i + 7];
        i += LANES;
    }
    let mut total = combine8(acc);
    // Sequential tail for the `n % 8` remainder, after the tree combine.
    for j in main..n {
        total += a[j] * b[j];
    }
    total
}

/// Per-lane scalar organisation: 8 independent strided sums. Performs the
/// exact per-lane additions of [`dot8_wide`] in the exact order, so the two
/// are bit-equal; this is the fallback for hosts without wide registers.
#[inline]
fn dot8_lanes(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let mut acc = [0.0f32; LANES];
    for (l, lane) in acc.iter_mut().enumerate() {
        let mut i = l;
        while i < main {
            *lane += a[i] * b[i];
            i += LANES;
        }
    }
    let mut total = combine8(acc);
    for j in main..n {
        total += a[j] * b[j];
    }
    total
}

/// 8-lane dot product with a fixed accumulation tree.
///
/// Dispatches on the cached CPU-feature check; both organisations are
/// bit-identical, so the dispatch affects latency only.
#[inline]
pub fn dot8(a: &[f32], b: &[f32]) -> f32 {
    if wide_registers_available() {
        dot8_wide(a, b)
    } else {
        dot8_lanes(a, b)
    }
}

/// Reference form of the microkernel sum: the per-lane scalar organisation,
/// exposed so tests can pin `dot8` against it bit-for-bit regardless of what
/// the feature check selected.
pub fn dot8_spec(a: &[f32], b: &[f32]) -> f32 {
    dot8_lanes(a, b)
}

/// Microkernel GEMM over a transposed right-hand side: `c[i, j] = a_i · btᵀ_j`
/// where `a` is `[m, k]` row-major and `bt` is `[n, k]` row-major (i.e. `bᵀ`).
///
/// Both operand rows are contiguous, which is what lets every output element
/// run through the 8-lane inner loop. Each `c` element is independent, so any
/// row split of `c` (the pool's chunking) leaves the bytes unchanged.
pub fn gemm_bt(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, out) in crow.iter_mut().enumerate() {
            *out = dot8(ar, &bt[j * k..(j + 1) * k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, salt: u32) -> Vec<f32> {
        let mut state = 0x9e37_79b9u32 ^ salt;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn wide_and_lane_organisations_are_bit_equal() {
        // Aligned, unaligned-tail and sub-lane lengths.
        for len in [0, 1, 5, 7, 8, 9, 15, 16, 63, 64, 65, 257, 1024] {
            let a = seeded(len, 1);
            let b = seeded(len, 2);
            assert_eq!(
                dot8_wide(&a, &b).to_bits(),
                dot8_lanes(&a, &b).to_bits(),
                "len {len}"
            );
            assert_eq!(dot8(&a, &b).to_bits(), dot8_spec(&a, &b).to_bits(), "len {len}");
        }
    }

    #[test]
    fn dot8_matches_sequential_within_tolerance() {
        let a = seeded(300, 3);
        let b = seeded(300, 4);
        let seq: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = dot8(&a, &b);
        assert!((seq - got).abs() <= 1e-4 * seq.abs().max(1.0), "{seq} vs {got}");
    }

    #[test]
    fn gemm_bt_known_values() {
        // a = [[1,2],[3,4]], b = [[5,6],[7,8]] => bt = [[5,7],[6,8]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let bt = [5.0, 7.0, 6.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm_bt(2, 2, 2, &a, &bt, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }
}
