//! The experiment implementations: one function per paper table/figure.
//!
//! Each returns a [`Table`] whose rows mirror the series the paper plots:
//!
//! * [`fig9`] — performance impact of random-balanced partitioning,
//! * [`fig10`] — encryption and checkpoint overheads,
//! * [`fig11`] — horizontal variant scaling under selective MVX,
//! * [`fig12`] — vertical variant scaling under selective MVX,
//! * [`fig13`] — asynchronous cross-validation vs synchronous execution,
//! * [`fig14`] — real-setup performance with diversified variants,
//! * [`table1`] — TensorFlow CVE classes vs defending variants (runs the
//!   real threaded system with real exploit injection),
//! * [`security_faults`] — FrameFlip and weight-bit-flip detection
//!   (§6.5's fault analysis, also on the real system).

use crate::costs::{apply_path_rules, measure_baseline, measure_with_baseline, MeasuredConfig};
use crate::sim::{simulate, Composition, SimResult, SyncMode};
use crate::table::{pct, ratio, Table};
use mvtee::config::{ExecMode, MvxConfig, PathMode, ResponsePolicy, VotingPolicy};
use mvtee::deployment::{Deployment, SpecPatch};
use mvtee_faults::{Attack, BitFlipStrategy, CveClass, FaultDescriptor, FrameFlip};
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_runtime::{BlasKind, EngineConfig, EngineKind};
use std::collections::HashMap;

/// Global experiment settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Model scale.
    pub profile: ScaleProfile,
    /// Which models to evaluate.
    pub models: Vec<ModelKind>,
    /// Batches per simulated stream.
    pub batches: usize,
    /// Per-batch service-time jitter (fraction).
    pub jitter: f64,
    /// Partition seed.
    pub seed: u64,
}

impl Settings {
    /// Full settings: all seven paper models at bench scale.
    pub fn full() -> Self {
        Settings {
            profile: ScaleProfile::Bench,
            models: ModelKind::ALL.to_vec(),
            batches: 32,
            jitter: 0.08,
            seed: 0x5eed,
        }
    }

    /// Quick settings for CI / smoke runs.
    pub fn quick() -> Self {
        Settings {
            profile: ScaleProfile::Test,
            models: vec![ModelKind::MnasNet, ModelKind::ResNet50],
            batches: 12,
            jitter: 0.08,
            seed: 0x5eed,
        }
    }

    fn build_models(&self) -> Vec<Model> {
        self.models
            .iter()
            .map(|&k| zoo::build(k, self.profile, 42).expect("zoo model builds"))
            .collect()
    }
}

/// A stable baseline (median-of-REPS measurement, one warmed-up round).
fn stable_baseline(model: &Model) -> f64 {
    measure_baseline(model)
}

fn run_both(m: &MeasuredConfig, s: &Settings, sync: SyncMode) -> (SimResult, SimResult) {
    let seq = simulate(m, s.batches, Composition::Sequential, sync, s.jitter, s.seed);
    let pipe = simulate(m, s.batches, Composition::Pipelined, sync, s.jitter, s.seed);
    (seq, pipe)
}

/// Fig 9: throughput/latency impact of random-balanced partitioning on a
/// full fast path, sequential and pipelined, versus the original model.
pub fn fig9(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 9 — Performance impact of random-balanced partitioning (full fast path; vs original)",
        &[
            "model",
            "partitions",
            "seq thr",
            "seq lat",
            "pipe thr",
            "pipe lat",
        ],
    );
    for model in s.build_models() {
        let baseline = stable_baseline(&model);
        for &parts in &[2usize, 5, 8] {
            let mut cfg = MvxConfig::fast_path(parts);
            cfg.partition_seed = s.seed;
            let measured = measure_with_baseline(&model, &cfg, &HashMap::new(), Some(baseline));
            let base_thr = 1.0 / measured.baseline;
            let (seq, pipe) = run_both(&measured, s, SyncMode::Sync);
            t.row(vec![
                measured.model.clone(),
                parts.to_string(),
                ratio(seq.throughput / base_thr),
                ratio(seq.latency / measured.baseline),
                ratio(pipe.throughput / base_thr),
                ratio(pipe.latency / measured.baseline),
            ]);
        }
    }
    t
}

/// Fig 10: encryption and checkpointing overheads in a 5-partition setup.
/// Baseline: no encryption, full fast path. "enc" adds AES-GCM-256;
/// "enc+ckpt" additionally forces the slow path at every checkpoint.
pub fn fig10(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 10 — Encryption and checkpoint overheads (5 partitions; overhead vs no-enc fast path)",
        &[
            "model",
            "seq enc",
            "seq enc+ckpt",
            "pipe enc",
            "pipe enc+ckpt",
            "fastpath saves (seq)",
            "fastpath saves (pipe)",
        ],
    );
    let parts = 5;
    for model in s.build_models() {
        let mut base_cfg = MvxConfig::fast_path(parts);
        base_cfg.partition_seed = s.seed;
        base_cfg.encrypt = false;
        let mut enc_cfg = base_cfg.clone();
        enc_cfg.encrypt = true;
        let mut slow_cfg = enc_cfg.clone();
        slow_cfg.path = PathMode::ForceSlow;

        // Measure compute and raw crypto once; derive the three path/cipher
        // variants from the same measurement so the overhead deltas reflect
        // only encryption and checkpointing, not compute re-measurement
        // noise.
        let baseline = stable_baseline(&model);
        let measured =
            measure_with_baseline(&model, &slow_cfg, &HashMap::new(), Some(baseline));
        let mut base = measured.clone();
        apply_path_rules(&mut base, &base_cfg);
        let mut enc = measured.clone();
        apply_path_rules(&mut enc, &enc_cfg);
        let mut slow = measured.clone();
        apply_path_rules(&mut slow, &slow_cfg);

        let (bs, bp) = run_both(&base, s, SyncMode::Sync);
        let (es, ep) = run_both(&enc, s, SyncMode::Sync);
        let (ss, sp) = run_both(&slow, s, SyncMode::Sync);

        // Overheads as latency increase (sequential) / completion-interval
        // increase (pipelined), matching the paper's framing.
        let seq_enc = es.latency / bs.latency - 1.0;
        let seq_all = ss.latency / bs.latency - 1.0;
        let pipe_enc = ep.latency / bp.latency - 1.0;
        let pipe_all = sp.latency / bp.latency - 1.0;
        // Fast-path mitigation: how much of the slow-path overhead the
        // hybrid fast path recovers.
        let save_seq = if ss.latency > 0.0 { 1.0 - es.latency / ss.latency } else { 0.0 };
        let save_pipe = if sp.latency > 0.0 { 1.0 - ep.latency / sp.latency } else { 0.0 };
        t.row(vec![
            base.model.clone(),
            pct(seq_enc),
            pct(seq_all),
            pct(pipe_enc),
            pct(pipe_all),
            pct(save_seq),
            pct(save_pipe),
        ]);
    }
    t
}

/// Fig 11: horizontal scaling — 5 partitions, the 3rd partition runs 1, 3
/// or 5 replicated variants; normalized to the original model.
pub fn fig11(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 11 — Horizontal variant scaling via selective MVX (5 partitions, MVX on 3rd; vs original)",
        &["model", "variants", "seq thr", "seq lat", "pipe thr", "pipe lat"],
    );
    for model in s.build_models() {
        let baseline = stable_baseline(&model);
        for &vars in &[1usize, 3, 5] {
            let mut cfg = MvxConfig::selective(5, &[2], vars);
            cfg.partition_seed = s.seed;
            let measured = measure_with_baseline(&model, &cfg, &HashMap::new(), Some(baseline));
            let base_thr = 1.0 / measured.baseline;
            let (seq, pipe) = run_both(&measured, s, SyncMode::Sync);
            t.row(vec![
                measured.model.clone(),
                format!("{vars} var"),
                ratio(seq.throughput / base_thr),
                ratio(seq.latency / measured.baseline),
                ratio(pipe.throughput / base_thr),
                ratio(pipe.latency / measured.baseline),
            ]);
        }
    }
    t
}

/// Fig 12: vertical scaling — 5 partitions, MVX (3 variants) enabled on 1,
/// 3 or all 5 partitions; normalized to the original model.
pub fn fig12(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 12 — Vertical variant scaling via selective MVX (3 variants per MVX partition; vs original)",
        &["model", "mvx parts", "seq thr", "seq lat", "pipe thr", "pipe lat"],
    );
    let configs: [(&str, Vec<usize>); 3] = [
        ("1-MVX", vec![2]),
        ("3-MVX", vec![2, 3, 4]),
        ("5-MVX", vec![0, 1, 2, 3, 4]),
    ];
    for model in s.build_models() {
        let baseline = stable_baseline(&model);
        for (label, parts) in &configs {
            let mut cfg = MvxConfig::selective(5, parts, 3);
            cfg.partition_seed = s.seed;
            let measured = measure_with_baseline(&model, &cfg, &HashMap::new(), Some(baseline));
            let base_thr = 1.0 / measured.baseline;
            let (seq, pipe) = run_both(&measured, s, SyncMode::Sync);
            t.row(vec![
                measured.model.clone(),
                label.to_string(),
                ratio(seq.throughput / base_thr),
                ratio(seq.latency / measured.baseline),
                ratio(pipe.throughput / base_thr),
                ratio(pipe.latency / measured.baseline),
            ]);
        }
    }
    t
}

/// The engine overrides that plant one complex-schedule (lagging) TVM
/// variant in each MVX partition.
fn lagging_overrides(mvx_parts: &[usize], vars: usize) -> HashMap<(usize, usize), EngineConfig> {
    let mut o = HashMap::new();
    for &p in mvx_parts {
        o.insert((p, vars - 1), EngineConfig::tvm_complex());
    }
    o
}

/// Fig 13: async cross-validation vs sync execution — 5 partitions, MVX on
/// the 2nd and 3rd partitions with 3 diversified variants each, one of
/// them a complex-diversified (lagging) TVM variant.
pub fn fig13(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 13 — Asynchronous cross-validation vs synchronous execution (gain of async over sync)",
        &[
            "model",
            "seq thr gain",
            "seq lat reduction",
            "pipe thr gain",
            "pipe lat reduction",
        ],
    );
    let mvx = [1usize, 2];
    let overrides = lagging_overrides(&mvx, 3);
    for model in s.build_models() {
        let mut cfg = MvxConfig::selective_diversified(5, &mvx, 3);
        cfg.partition_seed = s.seed;
        let measured = measure_with_baseline(&model, &cfg, &overrides, Some(0.0));
        let (seq_s, pipe_s) = run_both(&measured, s, SyncMode::Sync);
        let (seq_a, pipe_a) = run_both(&measured, s, SyncMode::AsyncCrossValidation);
        t.row(vec![
            measured.model.clone(),
            pct(seq_a.throughput / seq_s.throughput - 1.0),
            pct(1.0 - seq_a.latency / seq_s.latency),
            pct(pipe_a.throughput / pipe_s.throughput - 1.0),
            pct(1.0 - pipe_a.latency / pipe_s.latency),
        ]);
    }
    t
}

/// Fig 14: real-setup performance — diversified ORT/TVM variants, async
/// execution, 1-MVX (3rd partition) and 3-MVX (3rd–5th partitions) with 3
/// variants; versus the original inference baseline.
pub fn fig14(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 14 — Real-setup performance (diversified variants, async; vs original)",
        &[
            "model",
            "config",
            "seq thr",
            "seq lat overhead",
            "pipe thr gain",
            "pipe lat change",
        ],
    );
    let configs: [(&str, Vec<usize>); 2] = [("1 MVX", vec![2]), ("3 MVX", vec![2, 3, 4])];
    for model in s.build_models() {
        let baseline = stable_baseline(&model);
        for (label, parts) in &configs {
            let mut cfg = MvxConfig::selective_diversified(5, parts, 3);
            cfg.partition_seed = s.seed;
            cfg.exec = ExecMode::AsyncCrossValidation;
            let overrides = lagging_overrides(parts, 3);
            let measured =
                measure_with_baseline(&model, &cfg, &overrides, Some(baseline));
            let base_thr = 1.0 / measured.baseline;
            let (seq, pipe) = run_both(&measured, s, SyncMode::AsyncCrossValidation);
            t.row(vec![
                measured.model.clone(),
                label.to_string(),
                ratio(seq.throughput / base_thr),
                pct(seq.latency / measured.baseline - 1.0),
                pct(pipe.throughput / base_thr - 1.0),
                pct(pipe.latency / measured.baseline - 1.0),
            ]);
        }
    }
    t
}

/// One Table 1 defender family: its display name and the spec patch that
/// realises it on a variant.
fn defenders_for(class: CveClass) -> Vec<(&'static str, SpecPatch)> {
    let mut out: Vec<(&'static str, SpecPatch)> = vec![(
        "Different RT",
        SpecPatch::engine(EngineConfig::of_kind(EngineKind::TvmLike).with_blas(BlasKind::Strided)),
    )];
    match class {
        CveClass::Oob => {
            out.push(("Bounds check", SpecPatch {
                hardening: Some(vec!["bounds-check".into()]),
                ..Default::default()
            }));
            out.push(("Sanitizers", SpecPatch {
                hardening: Some(vec!["sanitizer-address".into()]),
                ..Default::default()
            }));
            out.push(("ASLR", SpecPatch { aslr_seed: Some(0x1517), ..Default::default() }));
        }
        CveClass::Unp | CveClass::Uaf => {
            out.push(("Sanitizers", SpecPatch {
                hardening: Some(vec!["sanitizer-address".into()]),
                ..Default::default()
            }));
        }
        CveClass::Fpe => {
            out.push(("Error handling", SpecPatch {
                hardening: Some(vec!["error-handling".into()]),
                ..Default::default()
            }));
            out.push(("Compiler", SpecPatch {
                hardening: Some(vec!["compiler-checks".into()]),
                ..Default::default()
            }));
        }
        CveClass::Io => {
            out.push(("Sanitizers", SpecPatch {
                hardening: Some(vec!["sanitizer-address".into()]),
                ..Default::default()
            }));
            out.push(("Compiler", SpecPatch {
                hardening: Some(vec!["compiler-checks".into()]),
                ..Default::default()
            }));
        }
        CveClass::Acf => {
            out.push(("Error handling", SpecPatch {
                hardening: Some(vec!["error-handling".into()]),
                ..Default::default()
            }));
        }
    }
    out
}

/// Table 1: TensorFlow vulnerability classes and defending variants — runs
/// the **real threaded system** with real exploit injection: a 2-variant
/// MVX partition pairing one susceptible variant with one defender, and
/// asserts the monitor's checkpoint detects the attack.
pub fn table1(s: &Settings) -> Table {
    let mut t = Table::new(
        "Table 1 — TensorFlow CVE classes vs defending variants (real system, real exploit injection)",
        &["class", "example CVE", "impact", "defending variant", "MVX detects", "undefended outcome"],
    );
    let model_kind = s.models.first().copied().unwrap_or(ModelKind::MnasNet);
    for class in CveClass::ALL {
        let undefended = undefended_outcome(model_kind, class);
        for (defender_name, patch) in defenders_for(class) {
            let detected = run_cve_trial(model_kind, class, &patch);
            t.row(vec![
                class.to_string(),
                class.example_cve().to_string(),
                impact_of(class).to_string(),
                defender_name.to_string(),
                if detected { "yes".into() } else { "MISSED".into() },
                undefended.clone(),
            ]);
        }
    }
    t
}

fn impact_of(class: CveClass) -> &'static str {
    match class {
        CveClass::Oob => "DoS / corruption / R-W / code exec",
        CveClass::Unp => "DoS / incorrect results",
        CveClass::Fpe => "DoS / incorrect results",
        CveClass::Io => "DoS / corruption / incorrect results",
        CveClass::Uaf => "DoS / corruption / code exec",
        CveClass::Acf => "DoS",
    }
}

/// Deploys (real threads, real bootstrap) a 2-variant MVX partition:
/// variant 0 susceptible, variant 1 patched with the defender; injects the
/// exploit and reports whether the monitor detected it.
fn run_cve_trial(model_kind: ModelKind, class: CveClass, defender: &SpecPatch) -> bool {
    let model = zoo::build(model_kind, ScaleProfile::Test, 42).expect("zoo model builds");
    let input = crate::costs::model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .spec_patch(1, 1, defender.clone())
        .response(ResponsePolicy::Halt)
        .voting(VotingPolicy::Unanimous)
        .fault(FaultDescriptor::Cve(Attack::new(class)), None)
        .build()
        .expect("deployment builds");
    let result = d.infer(&input);
    let detected = d.events().detection_count() > 0;
    // A detected attack under Halt must also fail the inference.
    let consistent = !detected || result.is_err();
    d.shutdown();
    detected && consistent
}

/// What happens *without* MVX (single susceptible variant): the paper's
/// motivation — the exploit succeeds silently or kills the service.
fn undefended_outcome(model_kind: ModelKind, class: CveClass) -> String {
    let model = zoo::build(model_kind, ScaleProfile::Test, 42).expect("zoo model builds");
    let input = crate::costs::model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .fault(FaultDescriptor::Cve(Attack::new(class)), None)
        .build()
        .expect("deployment builds");
    let result = d.infer(&input);
    let out = match result {
        Ok(_) => "silent corruption".to_string(),
        Err(_) => "service killed".to_string(),
    };
    d.shutdown();
    out
}

/// §6.5 fault analysis: FrameFlip (code-level BLAS fault) and
/// weight-targeted bit flips, detected by checkpoint divergence on the
/// real system.
pub fn security_faults(s: &Settings) -> Table {
    let mut t = Table::new(
        "Security — fault injection detection (real system)",
        &["fault", "target", "MVX detects", "notes"],
    );
    let model_kind = s.models.first().copied().unwrap_or(ModelKind::MnasNet);

    // FrameFlip against the blocked-BLAS ("MKL" stand-in) backend; the MVX
    // panel pairs a blocked-BLAS variant with a strided-BLAS variant.
    let model = zoo::build(model_kind, ScaleProfile::Test, 42).expect("zoo model builds");
    let input = crate::costs::model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .engine_override(1, 1, EngineConfig::of_kind(EngineKind::OrtLike).with_blas(BlasKind::Strided))
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::BlasFault(FrameFlip::against(BlasKind::Blocked)), None)
        .build()
        .expect("deployment builds");
    let r = d.infer(&input);
    let detected = d.events().detection_count() > 0 && r.is_err();
    d.shutdown();
    t.row(vec![
        "FrameFlip (code fault)".into(),
        "blocked-blas backend".into(),
        if detected { "yes".into() } else { "MISSED".into() },
        "different-BLAS variant diverges".into(),
    ]);

    // Weight bit flips, compared through the checkpoint metric (what a
    // cross-TEE weight fault looks like when one variant's in-memory
    // weights were corrupted). Model resilience can hide small flip counts
    // — the paper's §4.1 notes exactly this ("some fault-caused
    // discrepancies may be hidden by the model's resilience") — so the
    // experiment escalates the flip count and reports the detection
    // threshold.
    let model = zoo::build(model_kind, ScaleProfile::Test, 42).expect("zoo model builds");
    let clean_out = {
        use mvtee_runtime::{Engine, PreparedModel};
        let e = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
        let p: Box<dyn PreparedModel> = e.prepare(&model.graph).expect("prepares");
        p.run(std::slice::from_ref(&input)).expect("runs").remove(0)
    };
    let metric = mvtee_tensor::metrics::Metric::relaxed();
    let mut detected_at: Option<usize> = None;
    for count in [1usize, 2, 4, 8, 16, 32] {
        let mut flipped = model.clone();
        let _ = mvtee_faults::flip_weight_bits(
            &mut flipped.graph,
            BitFlipStrategy::ExponentMsb,
            count,
            9,
        );
        let faulty_out = {
            use mvtee_runtime::{Engine, PreparedModel};
            let e = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
            let p: Box<dyn PreparedModel> = e.prepare(&flipped.graph).expect("prepares");
            p.run(std::slice::from_ref(&input)).expect("runs").remove(0)
        };
        if !metric.check(&clean_out, &faulty_out) {
            detected_at = Some(count);
            break;
        }
    }
    t.row(vec![
        "weight bit flips (exponent MSBs)".into(),
        "model weights".into(),
        if detected_at.is_some() { "yes".into() } else { "MISSED".into() },
        match detected_at {
            Some(1) => "detected at the very first flip".into(),
            Some(n) => format!(
                "detected at {n} flips (smaller counts masked by model resilience)"
            ),
            None => "resilience masked all tested counts".into(),
        },
    ]);
    t
}

/// Ablation A — the partitioner's balance-biasing weight function vs a
/// uniform (unbiased Karger) weight: stage-cost imbalance and the
/// theoretical pipeline speedup bound `total/max` stage cost.
pub fn ablation_weight_fn(s: &Settings) -> Table {
    use mvtee_partition::Partitioner;
    let mut t = Table::new(
        "Ablation A — balance-biased vs uniform contraction weights (5 partitions)",
        &[
            "model",
            "weight fn",
            "imbalance (max/min cost)",
            "pipeline speedup bound",
        ],
    );
    for model in s.build_models() {
        for (label, biased) in [("balance-biased (default)", true), ("uniform (plain Karger)", false)] {
            let mut p = Partitioner::new(5);
            if !biased {
                p = p.with_weight_fn(Box::new(|_| 1.0));
            }
            let set = p
                .partition_best_of(&model.graph, s.seed, 4)
                .expect("partitions");
            let total: f64 = set.stages.iter().map(|st| st.cost).sum();
            let max = set.stages.iter().map(|st| st.cost).fold(f64::MIN, f64::max);
            t.row(vec![
                model.kind.display_name().to_string(),
                label.to_string(),
                format!("{:.1}", set.imbalance()),
                ratio(total / max),
            ]);
        }
    }
    t
}

/// Ablation B — consistency-metric thresholds on a diversified panel:
/// the strict (replica-grade) metric raises false alarms on benign
/// heterogeneous variants; the relaxed metric does not. Real system.
pub fn ablation_metric(s: &Settings) -> Table {
    use mvtee::config::PartitionMvx;
    use mvtee_tensor::metrics::Metric;
    let mut t = Table::new(
        "Ablation B — checkpoint metric thresholds on a benign diversified panel (real system)",
        &["metric", "false alarms", "inference"],
    );
    let model_kind = s.models.first().copied().unwrap_or(ModelKind::MnasNet);
    for (label, metric) in [
        ("bit-exact (max |diff| = 0)", Metric::MaxAbsDiff { max_diff: 0.0 }),
        ("strict (replica-grade, rtol 1e-5)", Metric::strict()),
        ("relaxed (heterogeneous, rtol 1e-3)", Metric::relaxed()),
    ] {
        let model = zoo::build(model_kind, ScaleProfile::Test, 42).expect("builds");
        let input = crate::costs::model_input(&model);
        let mut cfg = MvxConfig::fast_path(2);
        cfg.claims[1] =
            PartitionMvx { variants: 3, replicated: false, metric, intra_op_threads: 1 };
        let mut d = Deployment::builder(model)
            .config(cfg)
            .response(ResponsePolicy::ContinueWithMajority)
            .voting(VotingPolicy::Majority)
            .build()
            .expect("deploys");
        let ok = d.infer(&input).is_ok();
        let alarms = d.events().detection_count();
        d.shutdown();
        t.row(vec![
            label.to_string(),
            alarms.to_string(),
            if ok { "succeeds".into() } else { "halted".into() },
        ]);
    }
    t
}

/// Renders everything the instrumented crates recorded into the global
/// telemetry registry while the experiments ran: per-partition checkpoint
/// latency quantiles, voting path counts, divergence/crash counters and
/// crypto channel byte totals.
pub fn telemetry_report() -> String {
    // Register the runtime pool/cache and serving metrics up front
    // (PR 3 pattern): "the pool never went parallel" and "nothing was
    // ever shed" must appear as explicit zeros, not as missing rows.
    mvtee_runtime::register_runtime_metrics();
    mvtee_serve::register_serve_metrics();
    mvtee_telemetry::trace::register_trace_metrics();
    mvtee::transcript::register_audit_metrics();
    mvtee_telemetry::snapshot().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_weight_fn_shows_balance_gain() {
        let s = Settings::quick();
        let t = ablation_weight_fn(&s);
        assert_eq!(t.len(), s.models.len() * 2);
    }

    #[test]
    fn ablation_metric_contrasts_thresholds() {
        let t = ablation_metric(&Settings::quick());
        let rendered = t.render();
        // The relaxed row must be alarm-free; the bit-exact row must show
        // the benign heterogeneous divergence as false alarms.
        let relaxed_line = rendered
            .lines()
            .find(|l| l.contains("relaxed"))
            .expect("relaxed row present");
        assert!(
            relaxed_line.split_whitespace().any(|w| w == "0"),
            "relaxed metric raised alarms: {rendered}"
        );
        let bitexact_line = rendered
            .lines()
            .find(|l| l.contains("bit-exact"))
            .expect("bit-exact row present");
        assert!(
            !bitexact_line.split_whitespace().any(|w| w == "0"),
            "bit-exact metric should alarm on heterogeneous variants: {rendered}"
        );
    }

    #[test]
    fn quick_fig9_has_expected_shape() {
        let s = Settings::quick();
        let t = fig9(&s);
        assert_eq!(t.len(), s.models.len() * 3);
    }

    #[test]
    fn table1_detects_every_class() {
        let s = Settings::quick();
        let t = table1(&s);
        let rendered = t.render();
        assert!(!rendered.contains("MISSED"), "undetected exploit:\n{rendered}");
        assert!(t.len() >= 12, "expected at least two defenders per class");
    }

    #[test]
    fn security_faults_detected() {
        let s = Settings::quick();
        let t = security_faults(&s);
        let rendered = t.render();
        assert!(!rendered.contains("MISSED"), "undetected fault:\n{rendered}");
    }
}
