//! The `perf` sweep: runtime latency under deterministic intra-op
//! parallelism and per-shape kernel autotuning.
//!
//! Sweeps zoo model × engine family × `intra_op_threads ∈ {1,2,4,8}`, then
//! the first model across every [`KernelStrategy`] (the autotuned `Auto`
//! table plus the three pinned kernels), plus one large standalone GEMM
//! workload in both its blocked-BLAS and SIMD-microkernel forms, measuring
//! p50/p95 wall-clock latency and the speedup versus the single-thread
//! baseline (strategies additionally report speedup versus the pinned
//! `scalar` kernel). The part CI gates on: every same-config run must be
//! **byte-identical** across thread counts *and* across repeated runs with
//! a fresh engine. The sweep also snapshots the strategy table's per-shape
//! selections so `BENCH_runtime.json` records which kernel the autotuner
//! picked for each shape class.
//!
//! Timings here are manual [`Instant`]-based sampling: each configuration
//! runs a few warm-up inferences and then `iterations` timed ones;
//! quantiles are read from the sorted sample vector. On hosts with one or
//! two cores the speedup column will hover near (or below) 1× — the
//! bitwise-equality gate is the invariant, the latency numbers are the
//! recorded trajectory.

use crate::costs::model_input;
use crate::table::Table;
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::{
    session_cache, simd, Engine, EngineConfig, EngineKind, KernelStrategy, RuntimeConfig,
    StrategyEntry, ThreadPool,
};
use mvtee_tensor::Tensor;
use std::time::Instant;

/// Zoo-model seed shared by every perf case (fixed so weights — and
/// therefore outputs — are reproducible across runs and thread counts).
const PERF_SEED: u64 = 42;

/// Sweep configuration.
pub struct PerfSettings {
    /// Models to sweep.
    pub models: Vec<ModelKind>,
    /// Zoo scale profile.
    pub scale: ScaleProfile,
    /// Thread counts to sweep; the first entry is the speedup baseline.
    pub threads: Vec<usize>,
    /// Timed inferences per configuration.
    pub iterations: usize,
    /// Untimed warm-up inferences per configuration.
    pub warmup: usize,
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
            iterations: 5,
            warmup: 1,
            gemm_dim: 96,
        }
    }

    /// Full sweep: threads {1, 2, 4, 8} over a small and a large model.
    pub fn full() -> Self {
        PerfSettings {
            models: vec![ModelKind::MnasNet, ModelKind::ResNet50],
            scale: ScaleProfile::Bench,
            threads: vec![1, 2, 4, 8],
            iterations: 9,
            warmup: 2,
            gemm_dim: 256,
        }
    }
}

/// One measured (model, family, threads) point.
pub struct PerfCase {
    /// Model display name (or `"gemm <dim>"` for the standalone workload).
    pub workload: String,
    /// Engine family descriptor.
    pub family: String,
    /// Intra-op thread count.
    pub threads: usize,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// p50 speedup versus this workload's first-thread-count baseline.
    pub speedup: f64,
    /// Whether the output matched the baseline byte-for-byte.
    pub bitwise_match: bool,
}

/// Everything the sweep produced.
pub struct PerfReport {
    /// The zoo-model seed of the sweep (`PERF_SEED`).
    pub seed: u64,
    /// Run-configuration fingerprint (models, scale, thread counts).
    pub fingerprint: String,
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// Measured points, in sweep order.
    pub cases: Vec<PerfCase>,
    /// Human-readable descriptions of every bitwise mismatch (empty on a
    /// healthy runtime; CI fails when non-empty).
    pub mismatches: Vec<String>,
    /// `runtime.cache.pack_hits` delta over the sweep.
    pub pack_hits: u64,
    /// `runtime.cache.pack_misses` delta over the sweep.
    pub pack_misses: u64,
    /// `runtime.cache.arena_bytes_reused` delta over the sweep.
    pub arena_bytes_reused: u64,
    /// Per-shape-class kernel selections of the autotuned (`Auto`)
    /// configuration's strategy table after the sweep.
    pub strategy_table: Vec<StrategyEntry>,
    /// `(strategy token, p50 speedup vs the pinned scalar kernel)` at the
    /// baseline thread count, for the strategy-swept model.
    pub strategy_speedups: Vec<(String, f64)>,
    /// `runtime.cache.strategy_table.hits` delta over the sweep.
    pub strategy_hits: u64,
    /// `runtime.cache.strategy_table.misses` delta over the sweep.
    pub strategy_misses: u64,
    /// `runtime.cache.strategy_table.calibrations` delta over the sweep.
    pub strategy_calibrations: u64,
}

impl PerfReport {
    /// Any cross-thread-count output mismatch?
    pub fn has_mismatch(&self) -> bool {
        !self.mismatches.is_empty()
    }

    /// Renders the sweep as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(
            "Runtime perf sweep: deterministic intra-op parallelism",
            &["workload", "engine", "threads", "p50 µs", "p95 µs", "speedup", "bitwise"],
        );
        for c in &self.cases {
            t.row(vec![
                c.workload.clone(),
                c.family.clone(),
                c.threads.to_string(),
                format!("{:.1}", c.p50_us),
                format!("{:.1}", c.p95_us),
                format!("{:.2}x", c.speedup),
                if c.bitwise_match { "ok".into() } else { "MISMATCH".into() },
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\npack cache: {} hits / {} misses; arena bytes reused: {}\n",
            self.pack_hits, self.pack_misses, self.arena_bytes_reused
        ));
        s.push_str(&format!(
            "strategy table: {} hits / {} misses / {} calibrations\n",
            self.strategy_hits, self.strategy_misses, self.strategy_calibrations
        ));
        for e in &self.strategy_table {
            s.push_str(&format!(
                "  select {} [{}] -> {} ({} cost units)\n",
                e.op, e.class, e.choice, e.cost_units
            ));
        }
        for (token, speedup) in &self.strategy_speedups {
            s.push_str(&format!("  strategy {token}: {speedup:.2}x vs scalar\n"));
        }
        for m in &self.mismatches {
            s.push_str(&format!("MISMATCH: {m}\n"));
        }
        s
    }

    /// Renders the machine-readable report (`BENCH_runtime.json`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"mvtee-bench-runtime-v1\",\n");
        out.push_str(&crate::meta_json_line(
            "mvtee-bench-runtime-v1",
            self.seed,
            &self.fingerprint,
        ));
        out.push_str(&format!(
            "  \"threads\": [{}],\n",
            self.threads.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
        ));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"family\": \"{}\", \"threads\": {}, \
                 \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"speedup_vs_t1\": {:.4}, \
                 \"bitwise_match\": {}}}{}\n",
                c.workload,
                c.family,
                c.threads,
                c.p50_us,
                c.p95_us,
                c.speedup,
                c.bitwise_match,
                if i + 1 == self.cases.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"pack_cache\": {{\"hits\": {}, \"misses\": {}}},\n",
            self.pack_hits, self.pack_misses
        ));
        out.push_str(&format!("  \"arena_bytes_reused\": {},\n", self.arena_bytes_reused));
        out.push_str("  \"strategy\": {\n    \"selection\": [\n");
        for (i, e) in self.strategy_table.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"op\": \"{}\", \"class\": \"{}\", \"choice\": \"{}\", \
                 \"cost_units\": {}}}{}\n",
                e.op,
                e.class,
                e.choice,
                e.cost_units,
                if i + 1 == self.strategy_table.len() { "" } else { "," }
            ));
        }
        out.push_str("    ],\n    \"speedups_vs_scalar\": {");
        for (i, (token, speedup)) in self.strategy_speedups.iter().enumerate() {
            out.push_str(&format!(
                "{}\"{token}\": {speedup:.4}",
                if i == 0 { "" } else { ", " }
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "    \"counters\": {{\"hits\": {}, \"misses\": {}, \"calibrations\": {}}}\n  }},\n",
            self.strategy_hits, self.strategy_misses, self.strategy_calibrations
        ));
        out.push_str(&format!("  \"mismatch_count\": {}\n}}\n", self.mismatches.len()));
        out
    }
}

/// Sorted-sample quantile (nearest-rank), microseconds.
fn quantile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `iterations` calls of `f` (after `warmup` untimed ones),
/// returning (p50 µs, p95 µs) plus the last produced value.
fn sample<T>(warmup: usize, iterations: usize, mut f: impl FnMut() -> T) -> (f64, f64, T) {
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iterations);
    let mut last = None;
    for _ in 0..iterations.max(1) {
        let t0 = Instant::now();
        let v = f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(v);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (quantile_us(&samples, 0.5), quantile_us(&samples, 0.95), last.expect("iterations >= 1"))
}

/// Bitwise tensor comparison; returns the first differing flat index.
fn first_bit_diff(a: &Tensor, b: &Tensor) -> Option<usize> {
    if a.dims() != b.dims() {
        return Some(0);
    }
    a.data()
        .iter()
        .zip(b.data().iter())
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

/// Runs the sweep.
///
/// Every (model, family) pair runs at each configured thread count; the
/// first thread count is the latency baseline **and** the bitwise
/// reference output. Each prepared model also runs twice in a row, so on
/// a healthy cache the pack-hit counter is strictly positive afterwards.
pub fn run_perf(s: &PerfSettings) -> PerfReport {
    mvtee_runtime::register_runtime_metrics();
    let pack_hits0 = mvtee_telemetry::counter("runtime.cache.pack_hits").get();
    let pack_misses0 = mvtee_telemetry::counter("runtime.cache.pack_misses").get();
    let arena0 = mvtee_telemetry::counter("runtime.cache.arena_bytes_reused").get();
    let strat_hits0 = mvtee_telemetry::counter("runtime.cache.strategy_table.hits").get();
    let strat_misses0 = mvtee_telemetry::counter("runtime.cache.strategy_table.misses").get();
    let strat_cal0 = mvtee_telemetry::counter("runtime.cache.strategy_table.calibrations").get();

    let mut cases = Vec::new();
    let mut mismatches = Vec::new();
    let families = [
        EngineConfig::of_kind(EngineKind::Reference),
        EngineConfig::of_kind(EngineKind::OrtLike),
        EngineConfig::of_kind(EngineKind::TvmLike),
    ];

    for &kind in &s.models {
        let model = zoo::build(kind, s.scale, PERF_SEED).expect("zoo model builds");
        let input = model_input(&model);
        for family in &families {
            let mut baseline_p50 = 0.0f64;
            let mut baseline_out: Option<Tensor> = None;
            for (ti, &threads) in s.threads.iter().enumerate() {
                let engine = Engine::new(family.clone().with_threads(threads));
                let prepared = engine.prepare(&model.graph).expect("prepare succeeds");
                let run = || {
                    prepared
                        .run(std::slice::from_ref(&input))
                        .expect("inference succeeds")
                        .remove(0)
                };
                let (p50, p95, out) = sample(s.warmup, s.iterations, run);
                let bitwise_match = match &baseline_out {
                    None => true,
                    Some(reference) => match first_bit_diff(reference, &out) {
                        None => true,
                        Some(idx) => {
                            mismatches.push(format!(
                                "{} × {} diverges at flat index {idx} between threads={} and threads={threads}",
                                kind.display_name(),
                                family.describe(),
                                s.threads[0],
                            ));
                            false
                        }
                    },
                };
                if ti == 0 {
                    baseline_p50 = p50;
                    baseline_out = Some(out);
                }
                cases.push(PerfCase {
                    workload: kind.display_name().to_string(),
                    family: family.kind.to_string(),
                    threads,
                    p50_us: p50,
                    p95_us: p95,
                    speedup: if p50 > 0.0 { baseline_p50 / p50 } else { 1.0 },
                    bitwise_match,
                });
            }
        }
    }

    // Kernel-strategy sweep over the first model: each strategy (autotuned
    // plus the three pinned kernels) runs at every thread count under the
    // ORT-like family. Two determinism gates per strategy: every thread
    // count must reproduce the baseline bytes, and a *fresh* engine at the
    // baseline thread count must reproduce them again (cross-run replay).
    let mut strategy_speedups: Vec<(String, f64)> = Vec::new();
    if let Some(&kind) = s.models.first() {
        let model = zoo::build(kind, s.scale, PERF_SEED).expect("zoo model builds");
        let input = model_input(&model);
        let mut raw_p50s: Vec<(String, f64)> = Vec::new();
        let mut scalar_p50 = 0.0f64;
        for &ks in &KernelStrategy::ALL {
            let family = EngineConfig::of_kind(EngineKind::OrtLike).with_kernel_strategy(ks);
            let label = format!("ort-like/mk-{}", ks.token());
            let mut baseline_p50 = 0.0f64;
            let mut baseline_out: Option<Tensor> = None;
            for (ti, &threads) in s.threads.iter().enumerate() {
                let engine = Engine::new(family.clone().with_threads(threads));
                let prepared = engine.prepare(&model.graph).expect("prepare succeeds");
                let run = || {
                    prepared
                        .run(std::slice::from_ref(&input))
                        .expect("inference succeeds")
                        .remove(0)
                };
                let (p50, p95, out) = sample(s.warmup, s.iterations, run);
                let bitwise_match = match &baseline_out {
                    None => true,
                    Some(reference) => match first_bit_diff(reference, &out) {
                        None => true,
                        Some(idx) => {
                            mismatches.push(format!(
                                "{} × {label} diverges at flat index {idx} between threads={} and threads={threads}",
                                kind.display_name(),
                                s.threads[0],
                            ));
                            false
                        }
                    },
                };
                if ti == 0 {
                    baseline_p50 = p50;
                    // Cross-run gate: a brand-new engine on the same
                    // config must replay the strategy table and reproduce
                    // the output byte-for-byte.
                    let fresh = Engine::new(family.clone().with_threads(threads))
                        .prepare(&model.graph)
                        .expect("prepare succeeds");
                    let rerun = fresh
                        .run(std::slice::from_ref(&input))
                        .expect("inference succeeds")
                        .remove(0);
                    if let Some(idx) = first_bit_diff(&out, &rerun) {
                        mismatches.push(format!(
                            "{} × {label} diverges at flat index {idx} across repeated runs at threads={threads}",
                            kind.display_name(),
                        ));
                    }
                    baseline_out = Some(out);
                }
                cases.push(PerfCase {
                    workload: kind.display_name().to_string(),
                    family: label.clone(),
                    threads,
                    p50_us: p50,
                    p95_us: p95,
                    speedup: if p50 > 0.0 { baseline_p50 / p50 } else { 1.0 },
                    bitwise_match,
                });
            }
            if ks == KernelStrategy::Scalar {
                scalar_p50 = baseline_p50;
            }
            raw_p50s.push((ks.token().to_string(), baseline_p50));
        }
        for (token, p50) in raw_p50s {
            let speedup = if p50 > 0.0 && scalar_p50 > 0.0 { scalar_p50 / p50 } else { 1.0 };
            strategy_speedups.push((token, speedup));
        }
    }

    // Standalone GEMM workload: the largest dense kernel, exercised
    // directly through the pool's row-panel split.
    let dim = s.gemm_dim;
    let a: Vec<f32> = (0..dim * dim).map(|i| ((i % 131) as f32 - 65.0) / 65.0).collect();
    let b: Vec<f32> = (0..dim * dim).map(|i| ((i % 113) as f32 - 56.0) / 56.0).collect();
    let blas = mvtee_runtime::BlasKind::Blocked.instantiate();
    let mut baseline_p50 = 0.0f64;
    let mut baseline_out: Option<Vec<f32>> = None;
    for (ti, &threads) in s.threads.iter().enumerate() {
        let pool = ThreadPool::new(RuntimeConfig::with_threads(threads));
        let run = || {
            let mut c = vec![0.0f32; dim * dim];
            pool.par_gemm(blas.as_ref(), dim, dim, dim, &a, &b, &mut c);
            c
        };
        let (p50, p95, out) = sample(s.warmup, s.iterations, run);
        let bitwise_match = match &baseline_out {
            None => true,
            Some(reference) => {
                let diff = reference
                    .iter()
                    .zip(out.iter())
                    .position(|(x, y)| x.to_bits() != y.to_bits());
                if let Some(idx) = diff {
                    mismatches.push(format!(
                        "gemm {dim} diverges at flat index {idx} between threads={} and threads={threads}",
                        s.threads[0],
                    ));
                    false
                } else {
                    true
                }
            }
        };
        if ti == 0 {
            baseline_p50 = p50;
            baseline_out = Some(out);
        }
        cases.push(PerfCase {
            workload: format!("gemm {dim}"),
            family: "blocked-blas".into(),
            threads,
            p50_us: p50,
            p95_us: p95,
            speedup: if p50 > 0.0 { baseline_p50 / p50 } else { 1.0 },
            bitwise_match,
        });
    }

    // The same GEMM shape class through the SIMD microkernel (operand
    // pre-transposed, the layout the 8-lane inner loop consumes). Its
    // `speedup` column is versus the single-thread blocked-BLAS baseline
    // above — the measured microkernel win on this shape class. The
    // bitwise gate here is cross-run: two invocations must agree exactly
    // (blocked BLAS accumulates in a different order, so cross-kernel
    // comparison is a tolerance question handled by the differential
    // tests, not a byte gate).
    {
        let mut bt = vec![0.0f32; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                bt[j * dim + i] = b[i * dim + j];
            }
        }
        let run = || {
            let mut c = vec![0.0f32; dim * dim];
            simd::gemm_bt(dim, dim, dim, &a, &bt, &mut c);
            c
        };
        let (p50, p95, out) = sample(s.warmup, s.iterations, run);
        let mut c2 = vec![0.0f32; dim * dim];
        simd::gemm_bt(dim, dim, dim, &a, &bt, &mut c2);
        let bitwise_match =
            match out.iter().zip(c2.iter()).position(|(x, y)| x.to_bits() != y.to_bits()) {
                Some(idx) => {
                    mismatches.push(format!(
                        "gemm-simd {dim} diverges at flat index {idx} across repeated runs"
                    ));
                    false
                }
                None => true,
            };
        cases.push(PerfCase {
            workload: format!("gemm {dim}"),
            family: "simd-microkernel".into(),
            threads: 1,
            p50_us: p50,
            p95_us: p95,
            speedup: if p50 > 0.0 { baseline_p50 / p50 } else { 1.0 },
            bitwise_match,
        });
    }

    // Snapshot the autotuned configuration's per-shape selections — the
    // table the `Auto` sweep legs populated (calibrated once, then replayed
    // from the session cache by every later engine on the same config).
    let strategy_table =
        session_cache().strategy_table(&EngineConfig::of_kind(EngineKind::OrtLike)).entries();

    PerfReport {
        seed: PERF_SEED,
        fingerprint: format!(
            "models={:?};scale={:?};threads={:?};gemm={}",
            s.models, s.scale, s.threads, s.gemm_dim
        ),
        threads: s.threads.clone(),
        cases,
        mismatches,
        pack_hits: mvtee_telemetry::counter("runtime.cache.pack_hits").get() - pack_hits0,
        pack_misses: mvtee_telemetry::counter("runtime.cache.pack_misses").get() - pack_misses0,
        arena_bytes_reused: mvtee_telemetry::counter("runtime.cache.arena_bytes_reused").get()
            - arena0,
        strategy_table,
        strategy_speedups,
        strategy_hits: mvtee_telemetry::counter("runtime.cache.strategy_table.hits").get()
            - strat_hits0,
        strategy_misses: mvtee_telemetry::counter("runtime.cache.strategy_table.misses").get()
            - strat_misses0,
        strategy_calibrations: mvtee_telemetry::counter("runtime.cache.strategy_table.calibrations")
            .get()
            - strat_cal0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_no_mismatches_and_hits_pack_cache() {
        let report = run_perf(&PerfSettings::quick());
        assert!(!report.has_mismatch(), "mismatches: {:?}", report.mismatches);
        // The pinned panel-packed strategy legs reuse the packed weights
        // on every repetition past the first.
        assert!(report.pack_hits > 0, "expected pack-cache hits on repeat inference");
        // 1 model × 3 families × 2 thread counts
        //   + 4 kernel strategies × 2 thread counts
        //   + gemm × 2 thread counts + 1 simd-microkernel gemm
        assert_eq!(report.cases.len(), 3 * 2 + 4 * 2 + 2 + 1);
        // The Auto legs calibrated and then replayed a per-shape table.
        assert!(!report.strategy_table.is_empty(), "strategy table never populated");
        assert!(report.strategy_hits > 0, "strategy table never replayed");
        assert_eq!(report.strategy_speedups.len(), KernelStrategy::ALL.len());
        assert!(
            report.strategy_speedups.iter().any(|(t, _)| t == "scalar"),
            "scalar baseline missing from speedups"
        );
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = run_perf(&PerfSettings {
            models: vec![],
            scale: ScaleProfile::Test,
            threads: vec![1, 2],
            iterations: 2,
            warmup: 0,
            gemm_dim: 24,
        });
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"mvtee-bench-runtime-v1\""));
        assert!(json.contains("\"mismatch_count\": 0"));
        assert!(json.ends_with("}\n"));
    }
}
