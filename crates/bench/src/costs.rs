//! Real measurement of every cost component in an MVTEE configuration.
//!
//! For a (model, MVX configuration) pair this module partitions the model,
//! materialises the variants, executes each stage's variants on real
//! boundary tensors, and times:
//!
//! * per-variant inference (`variant_compute`),
//! * AES-GCM-256 sealing/opening of the real serialized checkpoint
//!   payloads (monitor- and variant-side),
//! * payload encode/decode,
//! * consistency-metric evaluation across the variant outputs.
//!
//! The resulting [`StageCosts`] feed the discrete-event composition in
//! [`crate::sim`].

use mvtee::config::{MvxConfig, PartitionMvx};
use mvtee::messages::{encode, StageRequest};
use mvtee::SpecPatch;
use mvtee::voting::{evaluate, VariantOutput};
use mvtee::VotingPolicy;
use mvtee_crypto::gcm::AesGcm;
use mvtee_diversify::{VariantGenerator, VariantSpec};
use mvtee_graph::zoo::Model;
use mvtee_graph::ValueId;
use mvtee_partition::PartitionSet;
use mvtee_runtime::{Engine, EngineConfig, EngineKind};
use mvtee_tensor::Tensor;
use std::collections::HashMap;
use std::time::Instant;

/// Number of timed repetitions per component (the median is kept: medians
/// compose under summation far better than minima — summing per-stage
/// minima would systematically undershoot a whole-model median).
const REPS: usize = 5;

/// Measured costs for one pipeline stage (seconds).
#[derive(Debug, Clone)]
pub struct StageCosts {
    /// Partition index.
    pub partition: usize,
    /// Raw measured seal cost of the input payload (before path rules).
    pub raw_seal_in: f64,
    /// Raw measured open cost of the output payload (before path rules).
    pub raw_open_out: f64,
    /// Raw measured variant-side crypto (open input + seal output).
    pub raw_variant_crypto: f64,
    /// Raw measured verification cost (before path rules).
    pub raw_verify: f64,
    /// Mean inference time per variant (includes the engine's own layout
    /// conversions etc.).
    pub variant_compute: Vec<f64>,
    /// Monitor-side cost to encode+seal the stage input payload, per
    /// variant dispatched.
    pub monitor_seal_in: f64,
    /// Monitor-side cost to open+decode one variant's output payload.
    pub monitor_open_out: f64,
    /// Variant-side crypto cost (open input + seal output).
    pub variant_crypto: f64,
    /// Consistency evaluation across all variant outputs (slow path only).
    pub verify: f64,
    /// Whether this stage takes the slow path.
    pub slow: bool,
    /// Input payload size in bytes (reporting).
    pub payload_in_bytes: usize,
    /// Output payload size in bytes (reporting).
    pub payload_out_bytes: usize,
}

/// A fully measured configuration.
#[derive(Debug, Clone)]
pub struct MeasuredConfig {
    /// Model display name.
    pub model: String,
    /// Baseline: unpartitioned single-engine inference time (seconds).
    pub baseline: f64,
    /// Per-stage costs in pipeline order.
    pub stages: Vec<StageCosts>,
    /// The partition set used.
    pub partition_set: PartitionSet,
}

fn time_min<F: FnMut()>(mut f: F) -> f64 {
    let mut samples = [0.0f64; REPS];
    for s in samples.iter_mut() {
        let t0 = Instant::now();
        f();
        *s = t0.elapsed().as_secs_f64();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[REPS / 2]
}

/// Deterministic test input for a model.
pub fn model_input(model: &Model) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 97) as f32 - 48.0) / 48.0).collect(),
        model.input_shape.dims(),
    )
    .expect("shape consistent")
}

/// Builds the variant specs the deployment would use for a claim, by
/// calling the deployment's own canonical constructor so measurements
/// always cover exactly the variants a deployment would run.
pub fn specs_for_claim(
    partition: usize,
    claim: &PartitionMvx,
    seed: u64,
    overrides: &HashMap<(usize, usize), EngineConfig>,
) -> Vec<VariantSpec> {
    let patches: HashMap<(usize, usize), SpecPatch> = overrides
        .iter()
        .map(|(&k, engine)| (k, SpecPatch::engine(engine.clone())))
        .collect();
    mvtee::build_specs(partition, claim, seed, &patches)
}

/// Measures the baseline (original, unpartitioned) inference time.
pub fn measure_baseline(model: &Model) -> f64 {
    let engine = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
    let prepared = engine.prepare(&model.graph).expect("zoo model prepares");
    let input = model_input(model);
    // Warm up once, as §6.1 does.
    let _ = prepared.run(std::slice::from_ref(&input));
    time_min(|| {
        let _ = prepared.run(std::slice::from_ref(&input));
    })
}

/// Measures all stage costs for a model under an MVX configuration.
///
/// # Panics
///
/// Panics on internal inconsistencies (zoo models and valid configs never
/// trigger them).
pub fn measure(
    model: &Model,
    config: &MvxConfig,
    overrides: &HashMap<(usize, usize), EngineConfig>,
) -> MeasuredConfig {
    measure_with_baseline(model, config, overrides, None)
}

/// [`measure`] with a pre-measured baseline (lets experiments measure the
/// original model once per model instead of once per configuration).
pub fn measure_with_baseline(
    model: &Model,
    config: &MvxConfig,
    overrides: &HashMap<(usize, usize), EngineConfig>,
    baseline: Option<f64>,
) -> MeasuredConfig {
    config.validate().expect("valid config");
    // The deployment's default variant seed, so measurements cover exactly
    // the variants a default deployment would run.
    const VARIANT_SEED: u64 = 0xd1ce;
    let set = mvtee::select_partition_set(&model.graph, config.partitions, config.partition_seed)
        .expect("partitioning succeeds on zoo models");
    let subgraphs = set.extract_subgraphs(&model.graph).expect("extraction succeeds");
    let generator = VariantGenerator::new(VARIANT_SEED);

    // Produce real boundary tensors by running the reference chain.
    let reference = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
    let mut env: HashMap<ValueId, Tensor> = HashMap::new();
    env.insert(model.graph.inputs()[0], model_input(model));
    let mut stage_inputs: Vec<Vec<Tensor>> = Vec::with_capacity(set.len());
    for (p, sub) in subgraphs.iter().enumerate() {
        let plan = &set.stages[p];
        let inputs: Vec<Tensor> =
            plan.inputs.iter().map(|v| env[v].clone()).collect();
        stage_inputs.push(inputs.clone());
        let prepared = reference.prepare(sub).expect("subgraph prepares");
        let outputs = prepared.run(&inputs).expect("subgraph runs");
        for (v, t) in plan.outputs.iter().zip(outputs) {
            env.insert(*v, t);
        }
    }

    let cipher = AesGcm::new_256(&[7u8; 32]);
    let mut stages = Vec::with_capacity(set.len());
    for (p, claim) in config.claims.iter().enumerate() {
        let specs = specs_for_claim(p, claim, VARIANT_SEED, overrides);
        let inputs = &stage_inputs[p];

        // Real payload bytes.
        let in_payload = encode(&StageRequest::Input { batch: 0, trace: (0, 0), tensors: inputs.clone() })
            .expect("payload encodes");

        let mut variant_compute = Vec::with_capacity(specs.len());
        let mut outputs_per_variant: Vec<Vec<Tensor>> = Vec::with_capacity(specs.len());
        for spec in &specs {
            let bundle =
                generator.materialize(&subgraphs[p], p, spec).expect("variant materialises");
            let engine = Engine::new(spec.engine.clone());
            let prepared = engine.prepare(&bundle.graph).expect("bundle prepares");
            let _ = prepared.run(inputs); // warm-up
            let t = time_min(|| {
                let _ = prepared.run(inputs);
            });
            variant_compute.push(t);
            outputs_per_variant.push(prepared.run(inputs).expect("bundle runs"));
        }
        let out_payload = encode(&StageRequest::Input {
            trace: (0, 0),
            batch: 0,
            tensors: outputs_per_variant[0].clone(),
        })
        .expect("payload encodes");

        // Raw crypto costs on the real payloads; path rules apply them in
        // `apply_path_rules` so the same measurement backs the fast/slow
        // and encrypted/plain comparisons without compute re-measurement
        // noise.
        let raw_seal_in = time_min(|| {
            let _ = cipher.seal(&[0u8; 12], &in_payload, b"aad");
        });
        let sealed_out = cipher.seal(&[0u8; 12], &out_payload, b"aad");
        let raw_open_out = time_min(|| {
            let _ = cipher.open(&[0u8; 12], &sealed_out, b"aad").expect("authentic");
        });
        let sealed_in = cipher.seal(&[0u8; 12], &in_payload, b"aad");
        let open_in = time_min(|| {
            let _ = cipher.open(&[0u8; 12], &sealed_in, b"aad").expect("authentic");
        });
        let seal_out = time_min(|| {
            let _ = cipher.seal(&[0u8; 12], &out_payload, b"aad");
        });
        let raw_variant_crypto = open_in + seal_out;

        // Verification cost across the real outputs.
        let voting_inputs: Vec<VariantOutput> =
            outputs_per_variant.iter().map(|o| VariantOutput::Ok(o.clone())).collect();
        let metric = claim.metric;
        let raw_verify = time_min(|| {
            let _ = evaluate(&voting_inputs, metric, VotingPolicy::Unanimous);
        });

        stages.push(StageCosts {
            partition: p,
            raw_seal_in,
            raw_open_out,
            raw_variant_crypto,
            raw_verify,
            variant_compute,
            monitor_seal_in: 0.0,
            monitor_open_out: 0.0,
            variant_crypto: 0.0,
            verify: 0.0,
            slow: false,
            payload_in_bytes: in_payload.len(),
            payload_out_bytes: out_payload.len(),
        });
    }

    let mut measured = MeasuredConfig {
        model: model.kind.display_name().to_string(),
        baseline: baseline.unwrap_or_else(|| measure_baseline(model)),
        stages,
        partition_set: set,
    };
    apply_path_rules(&mut measured, config);
    measured
}

/// Re-applies the slow/fast-path and encryption cost-attribution rules of
/// Fig 7 to an existing measurement, so several configurations sharing the
/// same partition set and claims can be compared without re-measuring the
/// (noise-dominated) compute components.
///
/// Note: the fast-path rule models the *paper's* design, where outputs
/// "directly fall through to the next partition variants" over
/// variant-to-variant channels. The threaded reference implementation in
/// `mvtee::pipeline` relays through the monitor's stages even on the
/// fast path (without evaluation); the composition model deliberately
/// reflects the paper's architecture, which the stages stand in for.
///
/// Rules: on the fast path, outputs "directly fall through to the next
/// partition variants" over variant-to-variant channels — the monitor pays
/// per-batch crypto only to seed the first stage, to collect the last
/// stage's output, and around every slow-path checkpoint.
pub fn apply_path_rules(measured: &mut MeasuredConfig, config: &MvxConfig) {
    let n = measured.stages.len();
    let slows: Vec<bool> = (0..n).map(|p| config.slow_path(p)).collect();
    for (p, stage) in measured.stages.iter_mut().enumerate() {
        let slow = slows[p];
        let prev_slow = p == 0 || slows[p - 1];
        let is_last = p + 1 == n;
        stage.slow = slow;
        stage.verify = if slow { stage.raw_verify } else { 0.0 };
        if config.encrypt {
            stage.monitor_seal_in = if prev_slow { stage.raw_seal_in } else { 0.0 };
            stage.monitor_open_out =
                if slow || is_last { stage.raw_open_out } else { 0.0 };
            stage.variant_crypto = stage.raw_variant_crypto;
        } else {
            stage.monitor_seal_in = 0.0;
            stage.monitor_open_out = 0.0;
            stage.variant_crypto = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};

    #[test]
    fn measures_a_fast_path_config() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 3).unwrap();
        let cfg = MvxConfig::fast_path(3);
        let measured = measure(&m, &cfg, &HashMap::new());
        assert_eq!(measured.stages.len(), 3);
        assert!(measured.baseline > 0.0);
        for s in &measured.stages {
            assert_eq!(s.variant_compute.len(), 1);
            assert!(s.variant_compute[0] > 0.0);
            assert!(s.variant_crypto > 0.0, "encryption on by default");
            assert!(!s.slow);
            assert_eq!(s.verify, 0.0);
            assert!(s.payload_in_bytes > 0);
        }
        // Fast path: only the monitor-seeded first stage pays a monitor
        // seal, and only the last stage pays a monitor open.
        assert!(measured.stages[0].monitor_seal_in > 0.0);
        assert_eq!(measured.stages[1].monitor_seal_in, 0.0);
        assert_eq!(measured.stages[0].monitor_open_out, 0.0);
        assert!(measured.stages[2].monitor_open_out > 0.0);
    }

    #[test]
    fn measures_selective_mvx() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 3).unwrap();
        let cfg = MvxConfig::selective(3, &[1], 3);
        let measured = measure(&m, &cfg, &HashMap::new());
        assert_eq!(measured.stages[1].variant_compute.len(), 3);
        assert!(measured.stages[1].slow);
        assert!(measured.stages[1].verify > 0.0);
        assert!(!measured.stages[0].slow);
    }

    #[test]
    fn no_encryption_zeroes_crypto_costs() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 3).unwrap();
        let mut cfg = MvxConfig::fast_path(2);
        cfg.encrypt = false;
        let measured = measure(&m, &cfg, &HashMap::new());
        for s in &measured.stages {
            assert_eq!(s.monitor_seal_in, 0.0);
            assert_eq!(s.variant_crypto, 0.0);
        }
    }
}
