//! GEMM-family kernel strategy: one decision per engine, made at `prepare`.
//!
//! [`KernelStrategy`] is the config-level diversification axis: each variant
//! of a panel can be pinned to a different kernel.
//! [`Engine::prepare`](crate::Engine::prepare) resolves it once into the
//! [`GemmStrategy`] every im2col `Conv`, `Gemm` and `MatMul` of that model
//! runs, so which kernel a variant uses is readable from its config and
//! nothing else.
//!
//! The axis has two numeric classes: `auto`/`scalar`/`panel` all run the
//! configured BLAS backend's ascending-`k` accumulation and are byte-identical
//! to each other; `simd` runs the 8-lane fixed-tree microkernel, whose
//! different summation order is what MVX wants from it as a variant — it is
//! not the fast path (`runtime.gemm.gflops.simd.*` is about half of
//! `.blocked.*`), which is why `Auto` resolves to the BLAS path.

use std::fmt;

/// Config-level kernel-strategy override (the diversification axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelStrategy {
    /// The default: resolves to [`GemmStrategy::PanelPacked`].
    Auto,
    /// Pin every GEMM-family op to the plain BLAS row-panel kernel.
    Scalar,
    /// Pin to the prepacked column-panel kernel (degrades to `Scalar`,
    /// byte-identically, where no prepacked weight exists).
    PanelPacked,
    /// Pin to the 8-lane SIMD microkernel.
    SimdMicrokernel,
}

impl KernelStrategy {
    /// All values, `Auto` first.
    pub const ALL: [KernelStrategy; 4] = [
        KernelStrategy::Auto,
        KernelStrategy::Scalar,
        KernelStrategy::PanelPacked,
        KernelStrategy::SimdMicrokernel,
    ];

    /// The kernel every GEMM-family op of an engine with this setting runs.
    pub fn resolve(self) -> GemmStrategy {
        match self {
            KernelStrategy::Scalar => GemmStrategy::Scalar,
            KernelStrategy::Auto | KernelStrategy::PanelPacked => GemmStrategy::PanelPacked,
            KernelStrategy::SimdMicrokernel => GemmStrategy::SimdMicrokernel,
        }
    }

    /// Stable token used in `describe()` strings and campaign spec lines.
    pub fn token(self) -> &'static str {
        match self {
            KernelStrategy::Auto => "auto",
            KernelStrategy::Scalar => "scalar",
            KernelStrategy::PanelPacked => "panel",
            KernelStrategy::SimdMicrokernel => "simd",
        }
    }

    /// Inverse of [`token`](Self::token).
    pub fn from_token(tok: &str) -> Option<KernelStrategy> {
        KernelStrategy::ALL.into_iter().find(|k| k.token() == tok)
    }
}

impl fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Resolved GEMM-family kernel, as passed to the `kernels::*_with` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GemmStrategy {
    /// Plain BLAS row-panel `par_gemm` (the PR 4 baseline path).
    Scalar,
    /// Prepacked column-panel BLAS path (batch-1 fast path).
    PanelPacked,
    /// 8-lane fixed-tree SIMD microkernel over contiguous operand rows.
    SimdMicrokernel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_strategy_tokens_round_trip() {
        for ks in KernelStrategy::ALL {
            assert_eq!(KernelStrategy::from_token(ks.token()), Some(ks));
        }
        assert_eq!(KernelStrategy::from_token("bogus"), None);
    }

    #[test]
    fn resolve_maps_auto_to_the_blas_path() {
        let resolved = KernelStrategy::ALL.map(KernelStrategy::resolve);
        assert_eq!(
            resolved,
            [
                GemmStrategy::PanelPacked,
                GemmStrategy::Scalar,
                GemmStrategy::PanelPacked,
                GemmStrategy::SimdMicrokernel,
            ]
        );
    }
}
