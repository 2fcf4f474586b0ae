//! Pluggable GEMM backends — the OpenBLAS / Eigen / Intel MKL stand-ins.
//!
//! The paper's security analysis (Table 1 discussion) notes that the
//! FrameFlip attack "targets fault-vulnerable bits in the OpenBLAS linear
//! algebra backend, but is ineffective against a variant using a different
//! BLAS implementation (e.g., Eigen or Intel MKL)". To reproduce that
//! variant axis, the executors take their GEMM through the [`Blas`] trait:
//!
//! * [`NaiveBlas`] — textbook `i,j,k` loops (the "OpenBLAS" stand-in),
//! * [`BlockedBlas`] — cache-blocked tiles with per-tile accumulation (the
//!   "MKL" stand-in; fastest, different rounding),
//! * [`StridedBlas`] — `k`-outer accumulation into the output panel (the
//!   "Eigen" stand-in).
//!
//! All three compute the same product with different floating-point
//! summation orders, so heterogeneous variants diverge by a few ULPs —
//! exactly the benign noise the monitor's thresholds must absorb. The
//! fault-injection crate wraps any of them to model code-level bit flips
//! that corrupt one backend only.
//!
//! A backend may also declare, through [`Blas::row_order`], the exact
//! sequence in which a one-row product accumulates each output element.
//! The conv routes of [`crate::packed`] use that declaration to compute
//! depthwise and small-patch convolutions without a column matrix or a
//! GEMM call, and still produce the backend's bytes. The default is [`RowOrder::Unknown`]; a
//! wrapper (such as the fault-injection crate's) must not forward the
//! method, so its engine keeps the per-call GEMM shapes its corruption
//! depends on.
//!
//! Narrow products (`n ≤ 4`) run, in every built-in backend, on one
//! shared kernel that keeps eight output rows in registers and performs
//! that same declared order, so it changes speed and not bytes.

use std::fmt;
use std::sync::Arc;

/// A single-precision GEMM provider: `c = a · b` for row-major matrices
/// (`a` is `m×k`, `b` is `k×n`, `c` is `m×n`).
pub trait Blas: Send + Sync {
    /// Backend name (appears in variant descriptions and logs).
    fn name(&self) -> &str;

    /// Computes `c = a · b`, overwriting `c`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when slice lengths disagree with
    /// `m`/`n`/`k`; executors always pass consistent buffers.
    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// The accumulation sequence this backend promises for each output
    /// element of an `m = 1` product. The default promises nothing.
    fn row_order(&self) -> RowOrder {
        RowOrder::Unknown
    }
}

/// How a backend accumulates each output element of a one-row GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// Nothing is promised: callers must go through [`Blas::gemm`].
    Unknown,
    /// `c[j]` starts at `+0.0` and adds `a[kk] * b[kk·n + j]` (a rounded
    /// product, no fused multiply-add) in ascending `kk`.
    AscendingK {
        /// Whether entries with `a[kk] == 0.0` (either sign) are skipped
        /// instead of added.
        skips_zero_a: bool,
    },
}

/// Selector for the built-in backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BlasKind {
    /// [`NaiveBlas`] — the "OpenBLAS" stand-in.
    Naive,
    /// [`BlockedBlas`] — the "MKL" stand-in.
    Blocked,
    /// [`StridedBlas`] — the "Eigen" stand-in.
    Strided,
}

impl BlasKind {
    /// All built-in backends.
    pub const ALL: [BlasKind; 3] = [BlasKind::Naive, BlasKind::Blocked, BlasKind::Strided];

    /// Instantiates the backend.
    pub fn instantiate(self) -> Arc<dyn Blas> {
        match self {
            BlasKind::Naive => Arc::new(NaiveBlas),
            BlasKind::Blocked => Arc::new(BlockedBlas::default()),
            BlasKind::Strided => Arc::new(StridedBlas),
        }
    }
}

impl fmt::Display for BlasKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlasKind::Naive => write!(f, "naive-blas"),
            BlasKind::Blocked => write!(f, "blocked-blas"),
            BlasKind::Strided => write!(f, "strided-blas"),
        }
    }
}

/// Textbook triple-loop GEMM, `i → j → k`, sequential accumulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBlas;

impl Blas for NaiveBlas {
    fn name(&self) -> &str {
        "naive-blas"
    }

    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        if narrow_gemm(m, n, k, a, b, c, false) {
            return;
        }
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, &av) in a_row.iter().enumerate() {
                    acc += av * b[kk * n + j];
                }
                c_row[j] = acc;
            }
        }
    }

    fn row_order(&self) -> RowOrder {
        RowOrder::AscendingK { skips_zero_a: false }
    }
}

/// Cache-blocked GEMM with 32×32×32 tiles; accumulates tile-by-tile, which
/// both speeds it up and changes the summation order.
#[derive(Debug, Clone, Copy)]
pub struct BlockedBlas {
    /// Tile edge length.
    pub tile: usize,
}

impl Default for BlockedBlas {
    fn default() -> Self {
        BlockedBlas { tile: 32 }
    }
}

impl Blas for BlockedBlas {
    fn name(&self) -> &str {
        "blocked-blas"
    }

    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        if narrow_gemm(m, n, k, a, b, c, true) {
            return;
        }
        let t = self.tile.max(1);
        c.fill(0.0);
        let mut kb = 0;
        while kb < k {
            let k_end = (kb + t).min(k);
            let mut ib = 0;
            while ib < m {
                let i_end = (ib + t).min(m);
                let mut jb = 0;
                while jb < n {
                    let j_end = (jb + t).min(n);
                    for i in ib..i_end {
                        for kk in kb..k_end {
                            let av = a[i * k + kk];
                            if av == 0.0 {
                                continue;
                            }
                            let b_row = &b[kk * n + jb..kk * n + j_end];
                            let c_row = &mut c[i * n + jb..i * n + j_end];
                            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                                *cv += av * bv;
                            }
                        }
                    }
                    jb = j_end;
                }
                ib = i_end;
            }
            kb = k_end;
        }
    }

    fn row_order(&self) -> RowOrder {
        RowOrder::AscendingK { skips_zero_a: true }
    }
}

/// `k`-outer GEMM: accumulates rank-1 updates into the output, another
/// distinct summation order with good write locality.
#[derive(Debug, Clone, Copy, Default)]
pub struct StridedBlas;

impl Blas for StridedBlas {
    fn name(&self) -> &str {
        "strided-blas"
    }

    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        if narrow_gemm(m, n, k, a, b, c, true) {
            return;
        }
        c.fill(0.0);
        for kk in 0..k {
            let b_row = &b[kk * n..(kk + 1) * n];
            for i in 0..m {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let c_row = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *cv += av * bv;
                }
            }
        }
    }

    fn row_order(&self) -> RowOrder {
        RowOrder::AscendingK { skips_zero_a: true }
    }
}

/// The built-in backends' shared kernel for narrow products (`n ≤ 4`:
/// the GEMVs of pointwise convolutions on 1×1 and 2×2 maps); returns
/// `false`, computing nothing, for any other `n`.
///
/// It replays [`RowOrder::AscendingK`] exactly: every `c[i][j]` starts at
/// `+0.0` and adds the rounded product `a[i][kk] · b[kk][j]` in ascending
/// `kk`, no FMA, skipping `a[i][kk] == 0.0` when `skips_zero_a`. Rows are
/// independent, so it walks them 8 at a time (then 4, 2 and 1), each
/// row's accumulators held in registers: eight independent addition
/// chains overlap where one row at a time waits on each addition.
fn narrow_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    skips_zero_a: bool,
) -> bool {
    match (n, skips_zero_a) {
        (1, false) => narrow::<1, false>(m, k, a, b, c),
        (2, false) => narrow::<2, false>(m, k, a, b, c),
        (3, false) => narrow::<3, false>(m, k, a, b, c),
        (4, false) => narrow::<4, false>(m, k, a, b, c),
        (1, true) => narrow::<1, true>(m, k, a, b, c),
        (2, true) => narrow::<2, true>(m, k, a, b, c),
        (3, true) => narrow::<3, true>(m, k, a, b, c),
        (4, true) => narrow::<4, true>(m, k, a, b, c),
        _ => return false,
    }
    true
}

/// [`narrow_gemm`] at width `N`: the row cascade 8, 4, 2, 1.
fn narrow<const N: usize, const SKIP: bool>(
    m: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let mut i = 0;
    while m - i >= 8 {
        narrow_rows::<8, N, SKIP>(i, k, a, b, c);
        i += 8;
    }
    if m - i >= 4 {
        narrow_rows::<4, N, SKIP>(i, k, a, b, c);
        i += 4;
    }
    if m - i >= 2 {
        narrow_rows::<2, N, SKIP>(i, k, a, b, c);
        i += 2;
    }
    if m - i == 1 {
        narrow_rows::<1, N, SKIP>(i, k, a, b, c);
    }
}

/// Rows `i..i + R` of a width-`N` product, their `R × N` accumulators in
/// registers for the whole `k` loop.
#[inline(always)]
fn narrow_rows<const R: usize, const N: usize, const SKIP: bool>(
    i: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [[0.0f32; N]; R];
    for (kk, b_row) in b.chunks_exact(N).take(k).enumerate() {
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let av = a_row[kk];
            // A skipped product adds `+0.0` instead, branch-free. That
            // changes no bit: the accumulator starts at `+0.0`, and a sum
            // is `−0.0` only when both addends are, so it is never `−0.0`.
            let skip = SKIP && av == 0.0;
            for (cv, &bv) in acc_r.iter_mut().zip(b_row) {
                *cv += if skip { 0.0 } else { av * bv };
            }
        }
    }
    c[i * N..(i + R) * N].copy_from_slice(acc.as_flattened());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
            }
        }
        c.into_iter().map(|x| x as f32).collect()
    }

    fn random_case(m: usize, n: usize, k: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (a, b)
    }

    fn check_backend(blas: &dyn Blas) {
        for &(m, n, k) in
            &[(1usize, 1usize, 1usize), (2, 3, 4), (5, 5, 5), (7, 13, 9), (33, 34, 35), (64, 10, 100)]
        {
            let (a, b) = random_case(m, n, k, (m * 1000 + n * 100 + k) as u64);
            let want = reference(m, n, k, &a, &b);
            let mut c = vec![f32::NAN; m * n];
            blas.gemm(m, n, k, &a, &b, &mut c);
            for (i, (&got, &exp)) in c.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got - exp).abs() <= 1e-4 * (1.0 + exp.abs()),
                    "{} ({m}x{n}x{k}) idx {i}: {got} vs {exp}",
                    blas.name()
                );
            }
        }
    }

    #[test]
    fn naive_matches_reference() {
        check_backend(&NaiveBlas);
    }

    #[test]
    fn blocked_matches_reference() {
        check_backend(&BlockedBlas::default());
        check_backend(&BlockedBlas { tile: 3 });
        check_backend(&BlockedBlas { tile: 1 });
    }

    #[test]
    fn strided_matches_reference() {
        check_backend(&StridedBlas);
    }

    #[test]
    fn backends_disagree_only_in_rounding() {
        // Large enough accumulation for rounding orders to differ...
        let (a, b) = random_case(16, 16, 512, 42);
        let mut c1 = vec![0.0; 256];
        let mut c2 = vec![0.0; 256];
        let mut c3 = vec![0.0; 256];
        NaiveBlas.gemm(16, 16, 512, &a, &b, &mut c1);
        BlockedBlas::default().gemm(16, 16, 512, &a, &b, &mut c2);
        StridedBlas.gemm(16, 16, 512, &a, &b, &mut c3);
        let max_diff = c1
            .iter()
            .zip(c2.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        // ...but never beyond a few ULPs' worth of tolerance.
        assert!(max_diff < 1e-4, "blocked diverged too far: {max_diff}");
        let max_diff3 = c1
            .iter()
            .zip(c3.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff3 < 1e-4, "strided diverged too far: {max_diff3}");
    }

    #[test]
    fn each_backend_keeps_its_declared_row_order() {
        // Zeros and infinities tell a skipped `0 · inf` (nothing added)
        // from an added one (NaN); every NaN here is the one `0 · inf` and
        // `inf − inf` produce, so the bits are comparable.
        let pick = |rng: &mut StdRng| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            _ => rng.gen_range(-1.0..1.0),
        };
        let mut rng = StdRng::seed_from_u64(8);
        for kind in BlasKind::ALL {
            let blas = kind.instantiate();
            let RowOrder::AscendingK { skips_zero_a } = blas.row_order() else {
                panic!("{kind} declares no order");
            };
            for (n, k) in [(1usize, 1usize), (7, 5), (40, 70)] {
                let a: Vec<f32> = (0..k).map(|_| pick(&mut rng)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| pick(&mut rng)).collect();
                let mut c = vec![f32::NAN; n];
                blas.gemm(1, n, k, &a, &b, &mut c);
                for (j, &got) in c.iter().enumerate() {
                    let mut acc = 0.0f32;
                    for (kk, &av) in a.iter().enumerate() {
                        if !(skips_zero_a && av == 0.0) {
                            acc += av * b[kk * n + j];
                        }
                    }
                    assert_eq!(got.to_bits(), acc.to_bits(), "{kind} n {n} k {k} j {j}");
                }
            }
        }
    }

    /// The backends' general loops, as they ran every shape before the
    /// narrow kernel took `n ≤ 4`: the oracle for it.
    fn tiled_oracle(kind: BlasKind, m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        match kind {
            BlasKind::Naive => {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            acc += a[i * k + kk] * b[kk * n + j];
                        }
                        c[i * n + j] = acc;
                    }
                }
            }
            BlasKind::Blocked => {
                let t = BlockedBlas::default().tile;
                for kb in (0..k).step_by(t) {
                    for ib in (0..m).step_by(t) {
                        for i in ib..(ib + t).min(m) {
                            for kk in kb..(kb + t).min(k) {
                                let av = a[i * k + kk];
                                if av == 0.0 {
                                    continue;
                                }
                                for j in 0..n {
                                    c[i * n + j] += av * b[kk * n + j];
                                }
                            }
                        }
                    }
                }
            }
            BlasKind::Strided => {
                for kk in 0..k {
                    for i in 0..m {
                        let av = a[i * k + kk];
                        if av == 0.0 {
                            continue;
                        }
                        for j in 0..n {
                            c[i * n + j] += av * b[kk * n + j];
                        }
                    }
                }
            }
        }
        c
    }

    #[test]
    fn narrow_products_match_the_tiled_loops_bit_for_bit() {
        // When two different NaNs meet in one operation, which one's bits
        // survive depends on the operand order the compiler chose, so a
        // case never holds two: its specials are either the infinities
        // (whose `0 · inf` and `inf − inf` all give the one default NaN)
        // or a single NaN payload, never both.
        let finite = [0.0, -0.0, f32::from_bits(0x0000_0001), f32::from_bits(0x8040_0000)];
        let poisons = [
            [f32::INFINITY, f32::NEG_INFINITY],
            [f32::from_bits(0x7fc0_1234); 2],
            [f32::from_bits(0xffa0_0042); 2],
        ];
        let mut rng = StdRng::seed_from_u64(0x4e);
        let mut cases = 0;
        for kind in BlasKind::ALL {
            let blas = kind.instantiate();
            for n in 1..=4usize {
                for m in 0..=20usize {
                    for k in [0usize, 1, 7, 24, 144] {
                        let specials: Vec<f32> =
                            finite.iter().chain(&poisons[cases % poisons.len()]).copied().collect();
                        // One operand in four is special.
                        let mut pick = |_| match rng.gen_range(0..4 * specials.len()) {
                            s if s < specials.len() => specials[s],
                            _ => rng.gen_range(-2.0f32..2.0),
                        };
                        let a: Vec<f32> = (0..m * k).map(&mut pick).collect();
                        let b: Vec<f32> = (0..k * n).map(&mut pick).collect();
                        let want = tiled_oracle(kind, m, n, k, &a, &b);
                        let mut got = vec![f32::NAN; m * n];
                        blas.gemm(m, n, k, &a, &b, &mut got);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{kind} m {m} n {n} k {k}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 4 * 21 * 5);
    }

    #[test]
    fn kind_instantiation_names() {
        for kind in BlasKind::ALL {
            let blas = kind.instantiate();
            assert_eq!(blas.name(), kind.to_string());
        }
    }

    #[test]
    fn identity_multiplication() {
        // b = I => c == a.
        let k = 8;
        let ident: Vec<f32> =
            (0..k * k).map(|i| if i / k == i % k { 1.0 } else { 0.0 }).collect();
        let (a, _) = random_case(4, k, k, 3);
        for kind in BlasKind::ALL {
            let mut c = vec![0.0; 4 * k];
            kind.instantiate().gemm(4, k, k, &a, &ident, &mut c);
            assert_eq!(c, a, "{kind}");
        }
    }

    #[test]
    fn zero_dimension_edge() {
        // m=0 or n=0 must not panic.
        for kind in BlasKind::ALL {
            let mut c: Vec<f32> = vec![];
            kind.instantiate().gemm(0, 0, 0, &[], &[], &mut c);
            assert!(c.is_empty());
        }
    }
}
