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
