//! The FrameFlip analogue: a code-level fault in one BLAS backend.
//!
//! Li et al.'s FrameFlip flips fault-vulnerable bits in OpenBLAS's code
//! pages, silently corrupting *every* inference that routes through the
//! library — but "is ineffective against a variant using a different BLAS
//! implementation (e.g., Eigen or Intel MKL)" (paper §6.5). [`FrameFlip`]
//! models the platform-wide attack: it corrupts GEMM results of variants
//! configured with the targeted [`BlasKind`] and leaves others untouched.

use mvtee_runtime::{Blas, BlasKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the faulted kernel corrupts its output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GemmCorruption {
    /// Zero out a leading fraction of the output panel (instruction
    /// skipped / early loop exit — FrameFlip's dominant observed effect).
    ZeroPrefix {
        /// Fraction of output elements zeroed, in `(0, 1]`.
        fraction: f32,
    },
    /// Flip the exponent MSB of every `stride`-th output element.
    BitFlipStride {
        /// Corruption stride (1 = every element).
        stride: usize,
    },
}

/// A BLAS backend wrapped with a code-fault simulation.
pub struct FaultyBlas {
    inner: Arc<dyn Blas>,
    corruption: GemmCorruption,
    calls: AtomicU64,
}

impl FaultyBlas {
    /// Wraps `inner` with the given corruption.
    pub fn new(inner: Arc<dyn Blas>, corruption: GemmCorruption) -> Self {
        FaultyBlas { inner, corruption, calls: AtomicU64::new(0) }
    }

    /// Number of (corrupted) GEMM calls served.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// `row_order` is deliberately not forwarded: the default promises
/// nothing, so an engine over a faulted backend makes every GEMM call —
/// in the per-call shapes the corruption is a function of — instead of
/// running the packed conv routes.
impl Blas for FaultyBlas {
    fn name(&self) -> &str {
        // The fault is invisible in the backend's identity — the library
        // still *looks* like the original.
        self.inner.name()
    }

    fn gemm(&self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.inner.gemm(m, n, k, a, b, c);
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.corruption {
            GemmCorruption::ZeroPrefix { fraction } => {
                let upto = ((c.len() as f32) * fraction.clamp(0.0, 1.0)) as usize;
                for v in &mut c[..upto] {
                    *v = 0.0;
                }
            }
            GemmCorruption::BitFlipStride { stride } => {
                let stride = stride.max(1);
                for v in c.iter_mut().step_by(stride) {
                    *v = f32::from_bits(v.to_bits() ^ (1 << 30));
                }
            }
        }
    }
}

/// A platform-wide FrameFlip attack instance targeting one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFlip {
    /// The backend whose code pages the attack flipped.
    pub target: BlasKind,
    /// The induced corruption.
    pub corruption: GemmCorruption,
}

impl FrameFlip {
    /// The canonical attack: zero the first 30% of every GEMM output of
    /// the naive backend (the "OpenBLAS" stand-in).
    pub fn against(target: BlasKind) -> Self {
        FrameFlip { target, corruption: GemmCorruption::ZeroPrefix { fraction: 0.3 } }
    }

    /// Does the attack affect a variant configured with `blas`?
    pub fn affects(&self, blas: BlasKind) -> bool {
        blas == self.target
    }

    /// Resolves the BLAS instance a variant with `blas` would actually get
    /// on the attacked platform: the faulted library when targeted, the
    /// healthy one otherwise.
    pub fn resolve(&self, blas: BlasKind) -> Arc<dyn Blas> {
        let healthy = blas.instantiate();
        if self.affects(blas) {
            Arc::new(FaultyBlas::new(healthy, self.corruption))
        } else {
            healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_runtime::{Engine, EngineConfig, EngineKind};
    use mvtee_tensor::{metrics, Tensor};

    #[test]
    fn faulty_blas_corrupts_output() {
        let attack = FrameFlip::against(BlasKind::Naive);
        let faulty = attack.resolve(BlasKind::Naive);
        let healthy = BlasKind::Naive.instantiate();
        let a = vec![1.0f32; 16];
        let b = vec![1.0f32; 16];
        let mut c1 = vec![0.0f32; 16];
        let mut c2 = vec![0.0f32; 16];
        healthy.gemm(4, 4, 4, &a, &b, &mut c1);
        faulty.gemm(4, 4, 4, &a, &b, &mut c2);
        assert_ne!(c1, c2);
        // Prefix zeroed, suffix intact.
        assert_eq!(c2[0], 0.0);
        assert_eq!(c2[15], c1[15]);
    }

    #[test]
    fn untargeted_backend_is_healthy() {
        let attack = FrameFlip::against(BlasKind::Naive);
        assert!(attack.affects(BlasKind::Naive));
        assert!(!attack.affects(BlasKind::Blocked));
        let resolved = attack.resolve(BlasKind::Blocked);
        let mut c1 = vec![0.0f32; 4];
        let mut c2 = vec![0.0f32; 4];
        resolved.gemm(2, 2, 2, &[1.0; 4], &[1.0; 4], &mut c1);
        BlasKind::Blocked.instantiate().gemm(2, 2, 2, &[1.0; 4], &[1.0; 4], &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn name_is_unchanged_by_the_fault() {
        let attack = FrameFlip::against(BlasKind::Strided);
        assert_eq!(attack.resolve(BlasKind::Strided).name(), "strided-blas");
    }

    #[test]
    fn end_to_end_divergence_between_backends() {
        // Two replicated variants that differ only in BLAS backend: the
        // attacked one diverges, the other matches the clean baseline.
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 23).unwrap();
        let input = Tensor::ones(m.input_shape.dims());
        let attack = FrameFlip::against(BlasKind::Blocked);

        let clean = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike))
            .prepare(&m.graph)
            .unwrap()
            .run(std::slice::from_ref(&input))
            .unwrap()
            .remove(0);

        let cfg_attacked = EngineConfig::of_kind(EngineKind::OrtLike); // blocked blas
        let attacked = Engine::with_custom_blas(
            cfg_attacked.clone(),
            attack.resolve(cfg_attacked.blas),
        )
        .prepare(&m.graph)
        .unwrap()
        .run(std::slice::from_ref(&input))
        .unwrap()
        .remove(0);

        let cfg_other = EngineConfig::of_kind(EngineKind::OrtLike).with_blas(BlasKind::Strided);
        let unaffected = Engine::with_custom_blas(cfg_other.clone(), attack.resolve(cfg_other.blas))
            .prepare(&m.graph)
            .unwrap()
            .run(std::slice::from_ref(&input))
            .unwrap()
            .remove(0);

        assert!(
            !metrics::allclose(&clean, &attacked, 1e-3, 1e-4),
            "attack had no observable effect"
        );
        assert!(
            metrics::allclose(&clean, &unaffected, 1e-3, 1e-4),
            "different-BLAS variant should be unaffected: {}",
            metrics::max_abs_diff(&clean, &unaffected)
        );
    }

    /// The corrupted outputs of depthwise convolutions (three strides and
    /// paddings, with and without bias), a pointwise one, and — under
    /// `ZeroPrefix` — a MnasNet@Test engine over the faulted backend, as
    /// recorded before the direct depthwise and in-place pointwise
    /// lowerings existed. (A whole model under `BitFlipStride` is left out:
    /// its flips turn the sign of an intermediate NaN, which the compiler
    /// does not fix, into a finite value.)
    #[test]
    fn corrupted_convolutions_match_the_recorded_digests() {
        use mvtee_runtime::kernels::{self, ConvAttrs};
        use mvtee_runtime::RowOrder;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        const GOLDEN: [(GemmCorruption, BlasKind, &str); 6] = [
            (GemmCorruption::ZeroPrefix { fraction: 0.3 }, BlasKind::Naive, "c6133f57aad16171192a086322972564593185437ff684e1f801e99715b67d5c"),
            (GemmCorruption::ZeroPrefix { fraction: 0.3 }, BlasKind::Blocked, "c6133f57aad16171192a086322972564593185437ff684e1f801e99715b67d5c"),
            (GemmCorruption::ZeroPrefix { fraction: 0.3 }, BlasKind::Strided, "c6133f57aad16171192a086322972564593185437ff684e1f801e99715b67d5c"),
            (GemmCorruption::BitFlipStride { stride: 3 }, BlasKind::Naive, "fba423a0abf5b6b6112a3f5c930a6e7280f047c38b9c3e727e24e0bc8b7c170e"),
            (GemmCorruption::BitFlipStride { stride: 3 }, BlasKind::Blocked, "fba423a0abf5b6b6112a3f5c930a6e7280f047c38b9c3e727e24e0bc8b7c170e"),
            (GemmCorruption::BitFlipStride { stride: 3 }, BlasKind::Strided, "fba423a0abf5b6b6112a3f5c930a6e7280f047c38b9c3e727e24e0bc8b7c170e"),
        ];
        let mut rng = StdRng::seed_from_u64(31);
        let x = Tensor::random_uniform(&mut rng, &[2, 6, 9, 7], 1.0);
        let w = Tensor::random_uniform(&mut rng, &[6, 1, 3, 3], 0.5);
        let b = Tensor::random_uniform(&mut rng, &[6], 0.5);
        let xp = Tensor::random_uniform(&mut rng, &[1, 8, 5, 5], 1.0);
        let wp = Tensor::random_uniform(&mut rng, &[4, 8, 1, 1], 0.5);
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).unwrap();
        let input = Tensor::random_uniform(&mut rng, m.input_shape.dims(), 1.0);
        for (corruption, kind, want) in GOLDEN {
            let faulty = FaultyBlas::new(kind.instantiate(), corruption);
            assert_eq!(faulty.row_order(), RowOrder::Unknown);
            let mut outs = Vec::new();
            for (s, p) in [(1usize, 1usize), (2, 1), (1, 2)] {
                let a = ConvAttrs { kernel: (3, 3), stride: (s, s), padding: (p, p), groups: 6 };
                outs.push(kernels::conv2d_im2col(&x, &w, Some(&b), &a, &faulty).unwrap());
                outs.push(kernels::conv2d_im2col(&x, &w, None, &a, &faulty).unwrap());
            }
            let a1 = ConvAttrs { kernel: (1, 1), stride: (1, 1), padding: (0, 0), groups: 1 };
            outs.push(kernels::conv2d_im2col(&xp, &wp, None, &a1, &faulty).unwrap());
            if matches!(corruption, GemmCorruption::ZeroPrefix { .. }) {
                let cfg = EngineConfig::of_kind(EngineKind::OrtLike).with_blas(kind);
                let faulty = Arc::new(FaultyBlas::new(kind.instantiate(), corruption));
                let prepared = Engine::with_custom_blas(cfg, faulty).prepare(&m.graph).unwrap();
                outs.extend(prepared.run(std::slice::from_ref(&input)).unwrap());
            }
            let mut h = mvtee_crypto::sha256::Sha256::new();
            for t in &outs {
                for &d in t.dims() {
                    h.update(&(d as u64).to_le_bytes());
                }
                for v in t.data() {
                    h.update(&v.to_bits().to_le_bytes());
                }
            }
            let got: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "{corruption:?} {kind}");
        }
    }

    #[test]
    fn call_counter_advances() {
        let faulty = FaultyBlas::new(
            BlasKind::Naive.instantiate(),
            GemmCorruption::BitFlipStride { stride: 2 },
        );
        let mut c = vec![0.0f32; 4];
        faulty.gemm(2, 2, 2, &[1.0; 4], &[1.0; 4], &mut c);
        faulty.gemm(2, 2, 2, &[1.0; 4], &[1.0; 4], &mut c);
        assert_eq!(faulty.calls(), 2);
    }
}
