//! Variant specifications: one point in the full multi-level
//! diversification space.

use crate::TransformKind;
use mvtee_runtime::{Accumulation, BlasKind, ConvStrategy, EngineConfig, EngineKind, KernelStrategy};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which (simulated) TEE hardware backs a variant — the paper's TEE-level
/// diversification ("we also support execution in SGX and TDX, providing
/// TEE-level variants").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TeeBackend {
    /// Process-based enclave (Intel SGX style).
    Sgx,
    /// VM-based trust domain (Intel TDX style).
    Tdx,
}

impl fmt::Display for TeeBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeBackend::Sgx => write!(f, "sgx"),
            TeeBackend::Tdx => write!(f, "tdx"),
        }
    }
}

/// Globally unique identifier of a variant within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VariantId(pub u64);

impl fmt::Display for VariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "variant-{}", self.0)
    }
}

/// A complete variant description: graph-level transforms + inference
/// instance configuration + system-level knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantSpec {
    /// Unique id.
    pub id: VariantId,
    /// Graph-level transforms applied to the partition subgraph, in order.
    pub transforms: Vec<TransformKind>,
    /// Randomness seed for the transforms.
    pub transform_seed: u64,
    /// Inference-instance configuration (runtime family, BLAS, schedule).
    pub engine: EngineConfig,
    /// Simulated TEE backend.
    pub tee: TeeBackend,
    /// ASLR seed (system-level diversification; randomises the simulated
    /// address layout the CVE injectors key on).
    pub aslr_seed: u64,
    /// Compiler-assisted hardening applied to this variant (sanitizers,
    /// stack protection, bounds checks) — modelled as named capabilities
    /// the fault injectors consult.
    pub hardening: Vec<String>,
}

impl VariantSpec {
    /// A plain replicated variant: no transforms, the given engine family,
    /// SGX backend. Used for the paper's fundamental-performance
    /// experiments which replicate identical ORT variants.
    pub fn replicated(id: u64, kind: EngineKind) -> Self {
        VariantSpec {
            id: VariantId(id),
            transforms: Vec::new(),
            transform_seed: 0,
            engine: EngineConfig::of_kind(kind),
            tee: TeeBackend::Sgx,
            aslr_seed: 0,
            hardening: Vec::new(),
        }
    }

    /// Short description, e.g. `variant-3 [ort-like/blocked-blas/im2col/opt, sgx]`.
    pub fn describe(&self) -> String {
        let transforms = if self.transforms.is_empty() {
            "none".to_string()
        } else {
            self.transforms.iter().map(|t| t.to_string()).collect::<Vec<_>>().join("+")
        };
        format!(
            "{} [{}, {}, transforms: {}]",
            self.id,
            self.engine.describe(),
            self.tee,
            transforms
        )
    }

    /// A coarse diversity distance in `[0, 1]` between two specs: counts
    /// differing diversification axes (engine family, BLAS, conv strategy,
    /// accumulation, optimisation, GEMM kernel, TEE, transform set). The
    /// kernel axis compares the kernel each strategy runs, not its label.
    pub fn diversity_distance(&self, other: &VariantSpec) -> f64 {
        let mut differing = 0usize;
        const AXES: usize = 8;
        if self.engine.kind != other.engine.kind {
            differing += 1;
        }
        if self.engine.blas != other.engine.blas {
            differing += 1;
        }
        if self.engine.conv_strategy != other.engine.conv_strategy {
            differing += 1;
        }
        if self.engine.accumulation != other.engine.accumulation {
            differing += 1;
        }
        if self.engine.optimize != other.engine.optimize {
            differing += 1;
        }
        if self.engine.kernel_strategy.resolve() != other.engine.kernel_strategy.resolve() {
            differing += 1;
        }
        if self.tee != other.tee {
            differing += 1;
        }
        let ta: std::collections::BTreeSet<_> = self.transforms.iter().collect();
        let tb: std::collections::BTreeSet<_> = other.transforms.iter().collect();
        if ta != tb {
            differing += 1;
        }
        differing as f64 / AXES as f64
    }

    /// Whether this spec includes a named hardening capability (consulted
    /// by the CVE-class fault injectors: e.g. a variant with
    /// `"bounds-check"` is immune to OOB-class exploits).
    pub fn has_hardening(&self, name: &str) -> bool {
        self.hardening.iter().any(|h| h == name)
    }
}

/// Generates `n` maximally spread specs across the diversification axes.
///
/// Axis assignment is round-robin over engine families, BLAS backends,
/// accumulation orders and TEE backends, with per-variant transform lists
/// drawn deterministically from `seed` — an automatic analogue of the
/// paper's configuration-driven variant construction.
pub fn spread_specs(n: usize, seed: u64) -> Vec<VariantSpec> {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let engine_kinds = [EngineKind::OrtLike, EngineKind::TvmLike, EngineKind::Reference];
    let blas_kinds = BlasKind::ALL;
    let tees = [TeeBackend::Sgx, TeeBackend::Tdx];
    let hardenings: [&[&str]; 4] = [
        &[],
        &["bounds-check"],
        &["sanitizer-address", "stack-protect"],
        &["error-handling", "bounds-check"],
    ];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64 * 0x9e37));
        let kind = engine_kinds[i % engine_kinds.len()];
        let mut engine = EngineConfig::of_kind(kind).with_blas(blas_kinds[i % blas_kinds.len()]);
        if i % 2 == 1 {
            engine.accumulation = Accumulation::Tree;
        }
        if i % 5 == 4 {
            engine.conv_strategy = ConvStrategy::Direct;
        }
        // Kernel strategy is the 8th axis: cycle Auto (the BLAS path) with
        // the three pinned kernels. Decorrelated from the i%3 engine family
        // cycle by the modulus.
        engine.kernel_strategy = [
            KernelStrategy::Auto,
            KernelStrategy::SimdMicrokernel,
            KernelStrategy::Scalar,
            KernelStrategy::PanelPacked,
        ][i % 4];
        let mut transforms: Vec<TransformKind> = TransformKind::ALL.to_vec();
        transforms.shuffle(&mut rng);
        transforms.truncate(1 + i % 3);
        out.push(VariantSpec {
            id: VariantId(i as u64),
            transforms,
            transform_seed: seed.wrapping_add(i as u64),
            engine,
            tee: tees[i % tees.len()],
            aslr_seed: seed.rotate_left(i as u32 % 63).wrapping_add(i as u64),
            hardening: hardenings[i % hardenings.len()].iter().map(|s| s.to_string()).collect(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_spec_has_no_transforms() {
        let s = VariantSpec::replicated(1, EngineKind::OrtLike);
        assert!(s.transforms.is_empty());
        assert_eq!(s.engine.kind, EngineKind::OrtLike);
        assert_eq!(s.diversity_distance(&VariantSpec::replicated(2, EngineKind::OrtLike)), 0.0);
    }

    #[test]
    fn spread_specs_are_diverse() {
        let specs = spread_specs(6, 3);
        assert_eq!(specs.len(), 6);
        // Adjacent specs must differ on several axes.
        for pair in specs.windows(2) {
            assert!(pair[0].diversity_distance(&pair[1]) > 0.2);
        }
        // All ids unique.
        let ids: std::collections::HashSet<_> = specs.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn kernel_strategy_wire_format_is_the_declaration_index() {
        // `kernel_strategy` is `EngineConfig`'s last field and the codec
        // writes a unit variant as its u32 index, so the four encodings
        // share a prefix and end in 0..=3 in declaration order.
        let encode = |ks| {
            let cfg = EngineConfig::of_kind(EngineKind::OrtLike).with_kernel_strategy(ks);
            let bytes = mvtee_codec::to_bytes(&cfg).expect("encodes");
            assert_eq!(mvtee_codec::from_bytes::<EngineConfig>(&bytes).expect("decodes"), cfg);
            bytes
        };
        let first = encode(KernelStrategy::Auto);
        let (prefix, _) = first.split_at(first.len() - 4);
        for (index, ks) in KernelStrategy::ALL.into_iter().enumerate() {
            let bytes = encode(ks);
            assert_eq!(bytes[..prefix.len()], *prefix, "{ks}: prefix moved");
            assert_eq!(bytes[prefix.len()..], (index as u32).to_le_bytes(), "{ks}: discriminant");
        }
        let unknown = [prefix, &4u32.to_le_bytes()].concat();
        assert!(mvtee_codec::from_bytes::<EngineConfig>(&unknown).is_err());
    }

    #[test]
    fn spread_specs_deterministic() {
        assert_eq!(spread_specs(4, 7), spread_specs(4, 7));
        assert_ne!(spread_specs(4, 7), spread_specs(4, 8));
    }

    #[test]
    fn describe_mentions_engine_and_tee() {
        let s = &spread_specs(2, 1)[1];
        let d = s.describe();
        assert!(d.contains("variant-1"));
        assert!(d.contains("sgx") || d.contains("tdx"));
    }

    #[test]
    fn hardening_lookup() {
        let mut s = VariantSpec::replicated(0, EngineKind::Reference);
        s.hardening.push("bounds-check".into());
        assert!(s.has_hardening("bounds-check"));
        assert!(!s.has_hardening("sanitizer-address"));
    }

    #[test]
    fn kernel_strategies_running_one_kernel_differ_on_no_axis() {
        let with = |ks| {
            let mut s = VariantSpec::replicated(0, EngineKind::OrtLike);
            s.engine = s.engine.with_kernel_strategy(ks);
            s
        };
        let one_kernel = [KernelStrategy::Auto, KernelStrategy::Scalar, KernelStrategy::PanelPacked];
        for a in one_kernel {
            for b in one_kernel {
                assert_eq!(with(a).diversity_distance(&with(b)), 0.0, "{a} vs {b}");
            }
            let simd = with(KernelStrategy::SimdMicrokernel);
            assert_eq!(with(a).diversity_distance(&simd), 1.0 / 8.0, "{a} vs simd");
        }
    }

    #[test]
    fn diversity_distance_bounds() {
        let specs = spread_specs(10, 5);
        for a in &specs {
            for b in &specs {
                let d = a.diversity_distance(b);
                assert!((0.0..=1.0).contains(&d));
                assert_eq!(d, b.diversity_distance(a));
            }
            assert_eq!(a.diversity_distance(a), 0.0);
        }
    }
}
