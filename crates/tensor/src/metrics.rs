//! Checkpoint consistency metrics (paper §5.2).
//!
//! The MVTEE monitor differentiates attacks from benign divergences with
//! "criteria-based consistency checks with thresholds and different
//! metrics". This module implements the four metrics named in the paper —
//! cosine similarity, mean squared error, maximum absolute difference and a
//! NumPy-style `assert_allclose` — plus a combined [`ConsistencyReport`]
//! the monitor records at every checkpoint.

use crate::Tensor;
use serde::{Deserialize, Serialize};

/// Cosine similarity of two flattened tensors.
///
/// Returns `1.0` when both tensors are all-zero (they are identical), `0.0`
/// when exactly one is all-zero, and `NaN` never. Shapes are *not* checked;
/// callers compare like with like (the monitor validates shapes first).
pub fn cosine_similarity(a: &Tensor, b: &Tensor) -> f32 {
    let (dot, na, nb) = cosine_sums(a.data(), b.data());
    cosine_of(dot, na, nb)
}

/// `(x·y, x·x, y·y)` in `f64`, summed in element order.
fn cosine_sums(a: &[f32], b: &[f32]) -> (f64, f64, f64) {
    let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    (dot, na, nb)
}

fn cosine_of(dot: f64, na: f64, nb: f64) -> f32 {
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())) as f32
}

/// Mean squared error between two flattened tensors.
pub fn mse(a: &Tensor, b: &Tensor) -> f32 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    (sum / n as f64) as f32
}

/// Maximum absolute element-wise difference.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// NumPy-style `assert_allclose`: every element pair must satisfy
/// `|a - b| <= atol + rtol * |b|`. NaNs never compare close.
pub fn allclose(a: &Tensor, b: &Tensor, rtol: f32, atol: f32) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.data()
        .iter()
        .zip(b.data().iter())
        .all(|(&x, &y)| !x.is_nan() && !y.is_nan() && (x - y).abs() <= atol + rtol * y.abs())
}

/// The consistency metric the monitor applies at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Metric {
    /// Cosine similarity with a minimum-similarity threshold in `[0, 1]`.
    Cosine {
        /// Minimum acceptable similarity.
        min_similarity: f32,
    },
    /// Mean squared error with a maximum threshold.
    Mse {
        /// Maximum acceptable MSE.
        max_mse: f32,
    },
    /// Maximum absolute difference with a threshold.
    MaxAbsDiff {
        /// Maximum acceptable absolute difference.
        max_diff: f32,
    },
    /// `np.testing.assert_allclose`-style elementwise tolerance check.
    AllClose {
        /// Relative tolerance.
        rtol: f32,
        /// Absolute tolerance.
        atol: f32,
    },
}

impl Metric {
    /// Zero-tolerance metric for identical replicas: the deterministic
    /// runtime makes replicated variants value-exact, so any nonzero
    /// difference — however small — is a divergence. An `AllClose`-style
    /// tolerance here would let a sub-tolerance weight corruption sail
    /// through a unanimous checkpoint.
    pub fn exact() -> Self {
        Metric::MaxAbsDiff { max_diff: 0.0 }
    }

    /// Tight-tolerance metric for near-identical variants (bit-equality
    /// scale tolerances). Prefer [`Metric::exact`] for true replicas.
    pub fn strict() -> Self {
        Metric::AllClose { rtol: 1e-5, atol: 1e-6 }
    }

    /// Default metric for heterogeneous variants (ORT-like vs TVM-like)
    /// whose different accumulation orders produce small benign divergence.
    pub fn relaxed() -> Self {
        Metric::AllClose { rtol: 1e-3, atol: 1e-4 }
    }

    /// Evaluates the metric for a pair of variant outputs.
    ///
    /// Returns `true` when the pair is *consistent* (no divergence).
    /// Mismatched shapes are always inconsistent, and so is a NaN anywhere
    /// in either tensor.
    ///
    /// One pass over the pair: the NaN test and the metric run together.
    /// The elementwise metrics (`MaxAbsDiff`, `AllClose`) run block by block
    /// in a form the compiler vectorises, and stop at the first block that
    /// holds a divergent element; `Metric::exact()` reduces to elementwise
    /// `==`, which a NaN fails by itself. `Mse` and `Cosine` sum in `f64` in
    /// element order, as [`mse`] and [`cosine_similarity`] do, so they stay
    /// sequential; a NaN shows in their sums. Every verdict is the one the
    /// separate NaN scans and metric functions give.
    pub fn check(&self, a: &Tensor, b: &Tensor) -> bool {
        if a.shape() != b.shape() {
            return false;
        }
        let (xs, ys) = (a.data(), b.data());
        match *self {
            Metric::Cosine { min_similarity } => {
                // `x·x` is NaN exactly when some `x` is: squares are never
                // negative, so no `inf - inf` arises.
                let (dot, na, nb) = cosine_sums(xs, ys);
                !na.is_nan() && !nb.is_nan() && cosine_of(dot, na, nb) >= min_similarity
            }
            // A NaN input makes the sum, and so the mean, NaN.
            Metric::Mse { max_mse } => mse(a, b) <= max_mse,
            // `max_abs_diff` starts at 0 and skips NaN differences (`inf -
            // inf`), so the pair passes when no input is NaN, every other
            // difference is within `max_diff`, and `0 <= max_diff`.
            Metric::MaxAbsDiff { max_diff: 0.0 } => all_blocks(xs, ys, |x, y| x == y),
            Metric::MaxAbsDiff { max_diff } => {
                0.0 <= max_diff
                    && all_blocks(xs, ys, |x, y| {
                        let d = (x - y).abs();
                        !x.is_nan() & !y.is_nan() & ((d <= max_diff) | d.is_nan())
                    })
            }
            // The tolerance test fails on a NaN by itself.
            Metric::AllClose { rtol, atol } => {
                all_blocks(xs, ys, |x, y| (x - y).abs() <= atol + rtol * y.abs())
            }
        }
    }
}

/// Elements per block of [`all_blocks`].
const BLOCK: usize = 64;

/// `true` when `agrees` holds for every element pair of two equal-length
/// slices. Each block is reduced without a branch, so the compiler can
/// vectorise it; the scan stops after the first block with a disagreement.
fn all_blocks(a: &[f32], b: &[f32], agrees: impl Fn(f32, f32) -> bool) -> bool {
    let (mut xs, mut ys) = (a.chunks_exact(BLOCK), b.chunks_exact(BLOCK));
    for (x, y) in (&mut xs).zip(&mut ys) {
        let (x, y): (&[f32; BLOCK], &[f32; BLOCK]) = (x.try_into().unwrap(), y.try_into().unwrap());
        if !x.iter().zip(y).fold(true, |ok, (&x, &y)| ok & agrees(x, y)) {
            return false;
        }
    }
    xs.remainder().iter().zip(ys.remainder()).all(|(&x, &y)| agrees(x, y))
}

/// All four paper metrics evaluated for one variant-output pair; recorded by
/// the monitor for auditing and threshold tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// Cosine similarity of the pair.
    pub cosine: f32,
    /// Mean squared error of the pair.
    pub mse: f32,
    /// Maximum absolute difference of the pair.
    pub max_abs_diff: f32,
    /// Whether the shapes matched at all.
    pub shapes_match: bool,
}

impl ConsistencyReport {
    /// Computes the full report for a pair of outputs.
    pub fn compute(a: &Tensor, b: &Tensor) -> Self {
        let shapes_match = a.shape() == b.shape();
        if !shapes_match {
            return ConsistencyReport {
                cosine: 0.0,
                mse: f32::INFINITY,
                max_abs_diff: f32::INFINITY,
                shapes_match,
            };
        }
        ConsistencyReport {
            cosine: cosine_similarity(a, b),
            mse: mse(a, b),
            max_abs_diff: max_abs_diff(a, b),
            shapes_match,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = t(&[1.0, 2.0, 3.0]);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = t(&[1.0, 0.0]);
        let b = t(&[0.0, 1.0]);
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vectors() {
        let z = t(&[0.0, 0.0]);
        let a = t(&[1.0, 1.0]);
        assert_eq!(cosine_similarity(&z, &z), 1.0);
        assert_eq!(cosine_similarity(&z, &a), 0.0);
    }

    #[test]
    fn mse_basic() {
        let a = t(&[0.0, 0.0]);
        let b = t(&[3.0, 4.0]);
        assert!((mse(&a, &b) - 12.5).abs() < 1e-6);
        assert_eq!(mse(&a, &a), 0.0);
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = t(&[1.0, -5.0, 2.0]);
        let b = t(&[1.5, -2.0, 2.0]);
        assert_eq!(max_abs_diff(&a, &b), 3.0);
    }

    #[test]
    fn allclose_tolerances() {
        let a = t(&[100.0, 1.0]);
        let b = t(&[100.01, 1.0]);
        assert!(allclose(&a, &b, 1e-3, 0.0));
        assert!(!allclose(&a, &b, 1e-6, 0.0));
        assert!(allclose(&a, &b, 0.0, 0.02));
    }

    #[test]
    fn allclose_shape_and_nan() {
        let a = t(&[1.0]);
        let b = Tensor::zeros(&[1, 1]);
        assert!(!allclose(&a, &b, 1.0, 1.0));
        let n = t(&[f32::NAN]);
        assert!(!allclose(&n, &n, 1.0, 1.0));
    }

    #[test]
    fn metric_check_dispatch() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0001]);
        assert!(Metric::Cosine { min_similarity: 0.999 }.check(&a, &b));
        assert!(Metric::Mse { max_mse: 1e-6 }.check(&a, &b));
        assert!(Metric::MaxAbsDiff { max_diff: 1e-3 }.check(&a, &b));
        assert!(Metric::relaxed().check(&a, &b));
        assert!(!Metric::strict().check(&a, &t(&[1.0, 3.0])));
    }

    #[test]
    fn exact_metric_rejects_any_difference() {
        let a = t(&[1.0, 2.0]);
        assert!(Metric::exact().check(&a, &a));
        // A one-ulp perturbation — far below the strict atol, and the
        // smallest representable difference at 2.0 — must still register.
        // (An additive literal like `2.0 + 1e-7` is below half an ulp and
        // rounds back to exactly 2.0, making the check vacuous.)
        let b = t(&[1.0, f32::from_bits(2.0f32.to_bits() + 1)]);
        assert!(Metric::strict().check(&a, &b));
        assert!(!Metric::exact().check(&a, &b));
    }

    #[test]
    fn metric_rejects_nan_outputs() {
        let a = t(&[f32::NAN, 1.0]);
        // A NaN output (e.g. an FPE-class CVE) must always register as
        // divergence, whatever the metric.
        assert!(!Metric::Cosine { min_similarity: 0.0 }.check(&a, &a));
        assert!(!Metric::Mse { max_mse: f32::INFINITY }.check(&a, &a));
    }

    #[test]
    fn report_mismatched_shapes() {
        let a = t(&[1.0, 2.0]);
        let b = Tensor::zeros(&[3]);
        let r = ConsistencyReport::compute(&a, &b);
        assert!(!r.shapes_match);
        assert_eq!(r.mse, f32::INFINITY);
    }

    #[test]
    fn report_identical() {
        let a = t(&[1.0, 2.0]);
        let r = ConsistencyReport::compute(&a, &a);
        assert!(r.shapes_match);
        assert_eq!(r.max_abs_diff, 0.0);
        assert!((r.cosine - 1.0).abs() < 1e-6);
    }
}
