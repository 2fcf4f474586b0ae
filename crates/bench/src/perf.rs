//! The `perf` sweep: the runtime's byte-identity gate under deterministic
//! intra-op parallelism, for every kernel strategy.
//!
//! Sweeps zoo model × engine family × `intra_op_threads`, then the first
//! model across every [`KernelStrategy`] (`Auto` plus the three pinned
//! kernels), plus one standalone GEMM in its blocked-BLAS and
//! SIMD-microkernel forms. Every same-config run must be **byte-identical**
//! across thread counts, and — for the strategy legs and the microkernel —
//! across a repeated run on a fresh instance.
//!
//! No clock is read here: how fast these paths run is the benchmark's
//! `runtime.engine.infer_ms.*`, `runtime.threads.speedup_x.t2` and
//! `runtime.gemm.gflops.*` rows.

use crate::cli::{CommonArgs, Outcome};
use crate::costs::model_input;
use crate::fixture::{first_bit_diff, Json};
use crate::table::Table;
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_runtime::{
    simd, BlasKind, Engine, EngineConfig, EngineKind, KernelStrategy, RuntimeConfig, ThreadPool,
};
use mvtee_tensor::Tensor;

/// Zoo-model seed shared by every perf case (fixed so weights — and
/// therefore outputs — are reproducible across runs and thread counts).
const PERF_SEED: u64 = 42;
/// Where the sweep's report lands unless `--out` says otherwise.
pub const ARTIFACT: &str = "BENCH_runtime.json";
const SCHEMA: &str = "mvtee-bench-runtime-v4";

/// Sweep configuration.
pub struct PerfSettings {
    /// Models to sweep.
    pub models: Vec<ModelKind>,
    /// Zoo scale profile.
    pub scale: ScaleProfile,
    /// Thread counts to sweep; the first entry is the bitwise reference.
    pub threads: Vec<usize>,
    /// Square dimension of the standalone GEMM workload.
    pub gemm_dim: usize,
}

impl PerfSettings {
    /// CI smoke configuration: smallest zoo model, threads {1, 4}.
    pub fn quick() -> Self {
        PerfSettings {
            models: vec![ModelKind::MnasNet],
            scale: ScaleProfile::Test,
            threads: vec![1, 4],
            gemm_dim: 96,
        }
    }

    /// Full sweep: threads {1, 2, 4, 8} over a small and a large model.
    pub fn full() -> Self {
        PerfSettings {
            models: vec![ModelKind::MnasNet, ModelKind::ResNet50],
            scale: ScaleProfile::Bench,
            threads: vec![1, 2, 4, 8],
            gemm_dim: 256,
        }
    }
}

/// One compared (workload, family, threads) point.
pub struct PerfCase {
    /// Model display name (or `"gemm <dim>"` for the standalone workload).
    pub workload: String,
    /// Engine family descriptor.
    pub family: String,
    /// Intra-op thread count.
    pub threads: usize,
    /// Whether the output matched its reference byte-for-byte.
    pub bitwise_match: bool,
}

/// Everything the sweep produced.
#[derive(Default)]
pub struct PerfReport {
    /// Run-configuration fingerprint (models, scale, thread counts).
    pub fingerprint: String,
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// Compared points, in sweep order.
    pub cases: Vec<PerfCase>,
    /// Every bitwise mismatch, described; the subcommand fails on any.
    pub mismatches: Vec<String>,
}

impl PerfReport {
    /// Renders the sweep as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(
            "Runtime byte-identity sweep: deterministic intra-op parallelism",
            &["workload", "engine", "threads", "bitwise"],
        );
        for c in &self.cases {
            let verdict = if c.bitwise_match { "ok" } else { "MISMATCH" }.to_string();
            t.row(vec![c.workload.clone(), c.family.clone(), c.threads.to_string(), verdict]);
        }
        t.render()
    }

    /// Renders the machine-readable report (`BENCH_runtime.json`).
    pub fn render_json(&self) -> String {
        let case = |c: &PerfCase| {
            Json::obj([
                ("workload", c.workload.as_str().into()),
                ("family", c.family.as_str().into()),
                ("threads", c.threads.into()),
                ("bitwise_match", c.bitwise_match.into()),
            ])
        };
        Json::obj([
            ("schema", SCHEMA.into()),
            ("meta", Json::meta(SCHEMA, PERF_SEED, &self.fingerprint)),
            ("threads", Json::arr(self.threads.iter().copied())),
            ("cases", Json::arr(self.cases.iter().map(case))),
            ("mismatch_count", self.mismatches.len().into()),
        ])
        .render()
    }

    /// The byte-identity gate on one configuration: `run` builds a fresh
    /// instance at a thread count and runs it. The first of `threads`
    /// gives the bitwise reference of the others; with `replay`, a second
    /// fresh instance must reproduce it too (the cross-run gate).
    fn gate(
        &mut self,
        workload: &str,
        family: &str,
        threads: &[usize],
        replay: bool,
        run: impl Fn(usize) -> Tensor,
    ) {
        let mut reference: Option<Tensor> = None;
        for &t in threads {
            let out = run(t);
            let diverged = match &reference {
                Some(r) => first_bit_diff(r, &out)
                    .map(|i| format!("{i} between threads={} and threads={t}", threads[0])),
                None if replay => first_bit_diff(&out, &run(t))
                    .map(|i| format!("{i} across repeated runs at threads={t}")),
                None => None,
            };
            if let Some(at) = &diverged {
                self.mismatches.push(format!("{workload} × {family} diverges at flat index {at}"));
            }
            let (workload, family, ok) = (workload.into(), family.into(), diverged.is_none());
            self.cases.push(PerfCase { workload, family, threads: t, bitwise_match: ok });
            reference.get_or_insert(out);
        }
    }
}

/// `model` on `config` at a thread count: prepares a new engine, infers
/// twice on it and keeps the second output, the one computed with every
/// thread's scratch already used once.
fn infer_on(config: EngineConfig, model: &Model) -> impl Fn(usize) -> Tensor + '_ {
    let input = [model_input(model)];
    move |t| {
        let engine = Engine::new(config.clone().with_threads(t));
        let prepared = engine.prepare(&model.graph).expect("prepare succeeds");
        let infer = || prepared.run(&input).expect("inference succeeds").remove(0);
        infer();
        infer()
    }
}

/// Runs the sweep: every configuration through `PerfReport::gate`.
pub fn run_perf(s: &PerfSettings) -> PerfReport {
    let mut report = PerfReport {
        fingerprint: format!(
            "models={:?};scale={:?};threads={:?};gemm={}",
            s.models, s.scale, s.threads, s.gemm_dim
        ),
        threads: s.threads.clone(),
        ..PerfReport::default()
    };

    let build = |&kind| zoo::build(kind, s.scale, PERF_SEED).expect("zoo model builds");
    let models: Vec<Model> = s.models.iter().map(build).collect();
    let ort = || EngineConfig::of_kind(EngineKind::OrtLike);
    for m in &models {
        for kind in [EngineKind::Reference, EngineKind::OrtLike, EngineKind::TvmLike] {
            let run = infer_on(EngineConfig::of_kind(kind), m);
            report.gate(m.kind.display_name(), &kind.to_string(), &s.threads, false, run);
        }
    }
    // Kernel strategies over the first model: a second *fresh* engine at
    // the first thread count must reproduce the first one's bytes.
    if let Some(m) = models.first() {
        for ks in KernelStrategy::ALL {
            let family = format!("ort-like/mk-{}", ks.token());
            let run = infer_on(ort().with_kernel_strategy(ks), m);
            report.gate(m.kind.display_name(), &family, &s.threads, true, run);
        }
    }
    // Standalone GEMM: through the pool's row-panel split, then through
    // the SIMD microkernel (on `b` pre-transposed, the layout its 8-lane
    // inner loop consumes). Blocked BLAS accumulates in another order, so
    // the microkernel is gated against its own replay; cross-kernel
    // agreement is a tolerance question for the differential tests.
    let dim = s.gemm_dim;
    let a: Vec<f32> = (0..dim * dim).map(|i| ((i % 131) as f32 - 65.0) / 65.0).collect();
    let b: Vec<f32> = (0..dim * dim).map(|i| ((i % 113) as f32 - 56.0) / 56.0).collect();
    let bt: Vec<f32> = (0..dim * dim).map(|i| b[(i % dim) * dim + i / dim]).collect();
    let square = |c: Vec<f32>| Tensor::from_vec(c, &[dim, dim]).expect("square output");
    let blas = BlasKind::Blocked.instantiate();
    let gemm = format!("gemm {dim}");
    report.gate(&gemm, "blocked-blas", &s.threads, false, |t| {
        let mut c = vec![0.0f32; dim * dim];
        let pool = ThreadPool::new(RuntimeConfig::with_threads(t));
        pool.par_gemm(blas.as_ref(), dim, dim, dim, &a, &b, &mut c);
        square(c)
    });
    report.gate(&gemm, "simd-microkernel", &[1], true, |_| {
        let mut c = vec![0.0f32; dim * dim];
        simd::gemm_bt(dim, dim, dim, &a, &bt, &mut c);
        square(c)
    });
    report
}

/// The `perf` subcommand: every byte mismatch is a gate failure — the
/// deterministic pool invariant is broken.
pub fn command(common: &CommonArgs, _args: &[String]) -> Outcome {
    let report = run_perf(&common.pick(|_| PerfSettings::quick(), |_| PerfSettings::full()));
    Outcome {
        status: report.render_text(),
        artifacts: vec![(common.out_or(ARTIFACT), report.render_json())],
        failures: report.mismatches,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_no_mismatches() {
        let report = run_perf(&PerfSettings::quick());
        assert!(report.mismatches.is_empty(), "mismatches: {:?}", report.mismatches);
        // 1 model × 3 families × 2 thread counts
        //   + 4 kernel strategies × 2 thread counts
        //   + gemm × 2 thread counts + 1 simd-microkernel gemm
        assert_eq!(report.cases.len(), 3 * 2 + 4 * 2 + 2 + 1);
        assert!(report.cases.iter().all(|c| c.bitwise_match));
        for ks in KernelStrategy::ALL {
            let family = format!("ort-like/mk-{}", ks.token());
            assert!(report.cases.iter().any(|c| c.family == family), "{family} never swept");
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = run_perf(&PerfSettings {
            models: vec![],
            scale: ScaleProfile::Test,
            threads: vec![1, 2],
            gemm_dim: 24,
        });
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"mvtee-bench-runtime-v4\""));
        assert!(json.contains("\"mismatch_count\": 0"));
        assert!(json.ends_with("}\n"));
        assert!(!json.contains("_us") && !json.contains("speedup"), "a timing member came back");
        assert!(!json.contains("\"strategy\""), "the selection table came back");
    }
}
