//! Scenario execution and the detection-invariant classifier.
//!
//! Each scenario runs through the real `mvtee-core` threaded pipeline and
//! its outcome is classified against the detection invariant:
//!
//! * **Detected** — a divergence fired at the first slow-path checkpoint
//!   at-or-after the injected partition,
//! * **Crashed** — the faulted variant died and the monitor recorded it,
//! * **Masked** — no alarm, and re-executing the faulted variant
//!   *standalone* (same subgraph, same stage inputs, same fault) produces
//!   output bit-identical to its clean run — the fault provably had no
//!   observable effect,
//! * **Missed** — everything else: the fault changed the variant's output
//!   and no checkpoint caught it. A correct deployment never produces
//!   this; the campaign treats any MISSED as a finding and shrinks it.

use crate::scenario::{Defender, Scenario};
use mvtee::{
    build_specs, select_partition_set, DegradationPolicy, Deployment, EventLog, MvxConfig,
    PartitionMvx, PathMode, RecoveryPolicy, ResponsePolicy, SpecPatch,
};
use mvtee_faults::cve::InputTrigger;
use mvtee_faults::{flip_weight_bits, Attack, FaultDescriptor, NetFaultClass};
use mvtee_graph::zoo::{self, Model, ScaleProfile};
use mvtee_graph::ValueId;
use mvtee_runtime::{Engine, EngineConfig, EngineKind};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// Classified result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Divergence detected at the first checkpoint at-or-after injection.
    Detected {
        /// Partition whose checkpoint fired.
        partition: usize,
    },
    /// The faulted variant crashed and the monitor recorded it.
    Crashed {
        /// Partition of the crashed variant.
        partition: usize,
        /// Crashed variant index.
        variant: usize,
    },
    /// Provably masked: the faulted variant's standalone output is
    /// bit-identical to its clean run.
    Masked,
    /// The watchdog quarantined the faulted variant, the recovery manager
    /// re-provisioned it, and the panel returned to full strength — every
    /// forwarded output stayed correct throughout.
    Recovered {
        /// Partition of the recovered panel.
        partition: usize,
        /// The variant index that was quarantined and replaced.
        variant: usize,
    },
    /// A liveness fault knocked a variant out with recovery disabled: the
    /// stream completed on the surviving quorum with every checkpoint
    /// passing and every forwarded output correct.
    DegradedButCorrect,
    /// The detection invariant failed.
    Missed {
        /// Why the scenario counts as missed.
        reason: String,
    },
}

impl Outcome {
    /// Matrix bucket label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Detected { .. } => "detected",
            Outcome::Crashed { .. } => "crashed",
            Outcome::Masked => "masked",
            Outcome::Recovered { .. } => "recovered",
            Outcome::DegradedButCorrect => "degraded",
            Outcome::Missed { .. } => "missed",
        }
    }

    /// Is this a MISSED outcome?
    pub fn is_missed(&self) -> bool {
        matches!(self, Outcome::Missed { .. })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Detected { partition } => write!(f, "detected@p{partition}"),
            Outcome::Crashed { partition, variant } => write!(f, "crashed@p{partition}v{variant}"),
            Outcome::Masked => write!(f, "masked"),
            Outcome::Recovered { partition, variant } => {
                write!(f, "recovered@p{partition}v{variant}")
            }
            Outcome::DegradedButCorrect => write!(f, "degraded-but-correct"),
            Outcome::Missed { reason } => write!(f, "MISSED ({reason})"),
        }
    }
}

/// The deterministic (seeded) trigger input of a scenario. Marker-class
/// CVE faults get the crafted first element.
pub fn trigger_input(sc: &Scenario, model: &Model) -> Tensor {
    let n = model.input_shape.num_elements();
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0x17_19_u64);
    let mut data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if let FaultDescriptor::Cve(Attack { trigger: InputTrigger::MagicMarker(m), .. }) = &sc.fault {
        if let Some(first) = data.first_mut() {
            *first = *m;
        }
    }
    Tensor::from_vec(data, model.input_shape.dims()).expect("static input shape")
}

/// Engine configuration of the single-variant (non-panel) partitions:
/// always a configuration the scenario's fault cannot touch, so the
/// injection point is exactly the panel.
fn nonpanel_engine(sc: &Scenario) -> EngineConfig {
    match &sc.fault {
        // "Different RT" is not susceptible to any CVE class.
        FaultDescriptor::Cve(_) => EngineConfig::of_kind(EngineKind::TvmLike),
        // A backend the platform-wide BLAS fault does not target.
        FaultDescriptor::BlasFault(_) => {
            EngineConfig::of_kind(EngineKind::OrtLike).with_blas(defender_blas(sc))
        }
        // Bit flips are sealed into one panel variant only.
        FaultDescriptor::WeightBitFlip(_) => EngineConfig::of_kind(EngineKind::OrtLike),
        // Liveness and wire faults live in one panel host's
        // scheduling/transport stack; non-panel partitions are untouched
        // by construction.
        FaultDescriptor::Stall(_) | FaultDescriptor::Channel(_) | FaultDescriptor::Net(_) => {
            EngineConfig::of_kind(EngineKind::OrtLike)
        }
    }
}

fn defender_blas(sc: &Scenario) -> mvtee_runtime::BlasKind {
    match &sc.defender {
        Defender::Blas(b) => *b,
        // Scenario generation pairs FrameFlip with a BLAS defender; for
        // hand-written specs fall back to any untargeted backend.
        _ => match &sc.fault {
            FaultDescriptor::BlasFault(ff) => mvtee_runtime::BlasKind::ALL
                .iter()
                .copied()
                .find(|b| *b != ff.target)
                .expect("more than one blas kind exists"),
            _ => mvtee_runtime::BlasKind::Blocked,
        },
    }
}

/// The spec patch a defender variant receives.
fn defender_patch(sc: &Scenario) -> Option<SpecPatch> {
    match &sc.defender {
        Defender::RtTvm => Some(SpecPatch::engine(EngineConfig::of_kind(EngineKind::TvmLike))),
        Defender::RtReference => {
            Some(SpecPatch::engine(EngineConfig::of_kind(EngineKind::Reference)))
        }
        Defender::Hardening(h) => {
            Some(SpecPatch { hardening: Some(vec![h.clone()]), ..Default::default() })
        }
        Defender::Aslr => Some(SpecPatch { aslr_seed: Some(0xA51B), ..Default::default() }),
        Defender::Blas(b) => {
            Some(SpecPatch::engine(EngineConfig::of_kind(EngineKind::OrtLike).with_blas(*b)))
        }
        // Keep the claim's default engine; only pin the kernel-strategy
        // axis, so the panel mixes microkernels over identical weights.
        Defender::Strategy(ks) => Some(SpecPatch::kernel(*ks)),
        Defender::Replica => None,
    }
}

/// The full `(partition, variant) → SpecPatch` map of a scenario — shared
/// by the deployment builder and the standalone masked-check so both see
/// the exact same variant specs.
pub fn scenario_overrides(sc: &Scenario) -> HashMap<(usize, usize), SpecPatch> {
    let mut map = HashMap::new();
    for p in 0..sc.partitions {
        if p != sc.mvx_partition {
            map.insert((p, 0), SpecPatch::engine(nonpanel_engine(sc)));
        }
    }
    // Panel variant 0: the fault's target (or, when immune, a defender
    // configuration like everyone else).
    match &sc.fault {
        FaultDescriptor::BlasFault(ff) => {
            let blas = if sc.immune { defender_blas(sc) } else { ff.target };
            map.insert(
                (sc.mvx_partition, 0),
                SpecPatch::engine(EngineConfig::of_kind(EngineKind::OrtLike).with_blas(blas)),
            );
        }
        FaultDescriptor::Cve(_) => {
            if sc.immune {
                if let Some(patch) = defender_patch(sc) {
                    map.insert((sc.mvx_partition, 0), patch);
                }
            }
            // else: the replicated default (plain ORT-like) is susceptible.
        }
        FaultDescriptor::WeightBitFlip(_) => {}
        // The liveness and net cycles pair with Replica: variant 0 keeps
        // the default spec and the fault is injected into its host (or
        // its wire) instead.
        FaultDescriptor::Stall(_) | FaultDescriptor::Channel(_) | FaultDescriptor::Net(_) => {}
    }
    for v in 1..sc.panel_size {
        if let Some(patch) = defender_patch(sc) {
            map.insert((sc.mvx_partition, v), patch);
        }
    }
    map
}

/// Checkpoint deadline of the liveness scenarios, in ms: tight enough
/// that a hung variant is escalated within one batch of CI time, wide
/// enough that a healthy Test-scale batch never trips it.
const LIVENESS_DEADLINE_MS: u64 = 300;

/// The scenario's MVX configuration.
pub fn scenario_config(sc: &Scenario) -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(sc.partitions);
    cfg.partition_seed = sc.partition_seed;
    cfg.path = if sc.force_fast { PathMode::ForceFast } else { PathMode::Hybrid };
    cfg.claims[sc.mvx_partition] = PartitionMvx {
        variants: sc.panel_size,
        replicated: true,
        metric: if sc.defender.homogeneous() { Metric::exact() } else { Metric::relaxed() },
        intra_op_threads: 1,
    };
    match &sc.fault {
        // Stall scenarios exercise the full detect → quarantine →
        // re-provision → rejoin loop: watchdog deadline tight, recovery
        // on, service continues on the surviving quorum meanwhile.
        FaultDescriptor::Stall(_) => {
            cfg.checkpoint_deadline_ms = LIVENESS_DEADLINE_MS;
            cfg.response = ResponsePolicy::ContinueWithMajority;
            cfg.degradation = DegradationPolicy::Degrade;
            cfg.recovery = RecoveryPolicy::enabled();
        }
        // Channel scenarios exercise graceful degradation without
        // recovery: the panel drops to survivors for the rest of the
        // stream.
        FaultDescriptor::Channel(_) => {
            cfg.checkpoint_deadline_ms = LIVENESS_DEADLINE_MS;
            cfg.response = ResponsePolicy::ContinueWithMajority;
            cfg.degradation = DegradationPolicy::Degrade;
        }
        // Wire faults run the same self-healing loop as stalls: the wire
        // misbehaves, the link errors (AEAD / framing / deadline), the
        // member is quarantined and a clean replacement rejoins.
        FaultDescriptor::Net(_) => {
            cfg.checkpoint_deadline_ms = LIVENESS_DEADLINE_MS;
            cfg.response = ResponsePolicy::ContinueWithMajority;
            cfg.degradation = DegradationPolicy::Degrade;
            cfg.recovery = RecoveryPolicy::enabled();
        }
        _ => {}
    }
    cfg
}

/// Where the scenario's fault strikes: panel variant 0 of the MVX
/// partition for the per-variant families, nowhere in particular for the
/// platform-wide ones.
fn fault_site(sc: &Scenario) -> Option<(usize, usize)> {
    (!sc.fault.platform_wide()).then_some((sc.mvx_partition, 0))
}

/// Runs one scenario through the real threaded pipeline and classifies
/// the outcome against the detection invariant.
///
/// # Errors
///
/// Returns `Err` only for infrastructure failures (model build or
/// deployment bootstrap); fault effects never error.
pub fn run_scenario(sc: &Scenario, profile: ScaleProfile) -> Result<Outcome, String> {
    // Liveness faults attack progress, not values: they need a
    // multi-batch stream (so the panel can re-form mid-stream) and their
    // own classifier. Wire faults attack the transport itself and get
    // their own runner on top of the same streaming skeleton.
    if matches!(sc.fault, FaultDescriptor::Stall(_) | FaultDescriptor::Channel(_)) {
        return run_liveness_scenario(sc, profile);
    }
    if matches!(sc.fault, FaultDescriptor::Net(_)) {
        return run_netfault_scenario(sc, profile);
    }
    let model = zoo::build(sc.model, profile, sc.seed).map_err(|e| e.to_string())?;
    let input = trigger_input(sc, &model);
    let cfg = scenario_config(sc);
    let overrides = scenario_overrides(sc);

    let mut builder = Deployment::builder(model).config(cfg.clone());
    for ((p, v), patch) in &overrides {
        builder = builder.spec_patch(*p, *v, patch.clone());
    }
    let mut d = builder
        .fault(sc.fault.clone(), fault_site(sc))
        .build()
        .map_err(|e| e.to_string())?;
    // One batch: the campaign asserts detection at the first checkpoint,
    // so a single traversal exercises the full invariant.
    let _ = d.infer(&input);
    let events: EventLog = d.events().clone();
    let crashes = events.crashes();
    let divergences = events.divergences();
    let passes = events.checkpoint_passes();
    d.shutdown();

    Ok(classify(sc, &cfg, &crashes, &divergences, &passes, profile))
}

/// Batches every liveness scenario streams before classification starts
/// — enough for the fault to fire and the panel to react.
const LIVENESS_BATCHES: u64 = 6;
/// Hard cap on extra batches streamed while waiting for a recovered
/// variant to rejoin at full strength (bounds scenario wall-clock; a
/// recovery that has not landed by then is a finding, not a wait).
const LIVENESS_BATCH_CAP: u64 = 40;
/// Inputs cycle with this period so consecutive batches are
/// distinguishable (a stale frame cannot impersonate a fresh one) while
/// the clean oracle stays a constant-size prefix.
const LIVENESS_INPUT_PERIOD: u64 = 3;

/// The deterministic input of liveness batch `batch`.
fn liveness_input(sc: &Scenario, model: &Model, batch: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    let mut rng =
        StdRng::seed_from_u64(sc.seed ^ 0x17_19_u64 ^ (batch % LIVENESS_INPUT_PERIOD));
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, model.input_shape.dims()).expect("static input shape")
}

/// Runs a liveness (stall / lossy-channel) scenario: streams batches
/// through the real pipeline with the fault injected into panel variant
/// 0's host, checks every forwarded output bit-for-bit against an
/// unfaulted oracle deployment, and classifies against the self-healing
/// invariant — the watchdog resolves the fault within its deadline and
/// the panel either returns to full strength ([`Outcome::Recovered`]) or
/// degrades gracefully ([`Outcome::DegradedButCorrect`]).
fn run_liveness_scenario(sc: &Scenario, profile: ScaleProfile) -> Result<Outcome, String> {
    let cfg = scenario_config(sc);
    let overrides = scenario_overrides(sc);
    let build = |model| {
        let mut builder = Deployment::builder(model).config(cfg.clone());
        for ((p, v), patch) in &overrides {
            builder = builder.spec_patch(*p, *v, patch.clone());
        }
        builder
    };

    let model = zoo::build(sc.model, profile, sc.seed).map_err(|e| e.to_string())?;
    let inputs: Vec<Tensor> =
        (0..LIVENESS_INPUT_PERIOD).map(|b| liveness_input(sc, &model, b)).collect();

    // The correctness oracle: the identical deployment without the fault.
    let mut clean = build(model).build().map_err(|e| e.to_string())?;
    let mut expected = Vec::with_capacity(inputs.len());
    for input in &inputs {
        expected.push(clean.infer(input).map_err(|e| format!("oracle run failed: {e}"))?);
    }
    clean.shutdown();

    let faulted_model = zoo::build(sc.model, profile, sc.seed).map_err(|e| e.to_string())?;
    let mut d = build(faulted_model)
        .fault(sc.fault.clone(), fault_site(sc))
        .build()
        .map_err(|e| e.to_string())?;

    let p = sc.mvx_partition;
    let mut verdict: Option<Outcome> = None;
    for b in 0..LIVENESS_BATCH_CAP {
        let idx = (b % LIVENESS_INPUT_PERIOD) as usize;
        match d.infer(&inputs[idx]) {
            Ok(out) => {
                if !bits_equal(std::slice::from_ref(&out), std::slice::from_ref(&expected[idx]))
                {
                    verdict = Some(Outcome::Missed {
                        reason: format!("liveness fault corrupted the output of batch {b}"),
                    });
                    break;
                }
            }
            Err(e) => {
                verdict = Some(Outcome::Missed {
                    reason: format!("stream failed at batch {b}: {e}"),
                });
                break;
            }
        }
        if b + 1 < LIVENESS_BATCHES {
            continue;
        }
        // Terminal-state check: stop streaming once the invariant holds.
        let events = d.events();
        match &sc.fault {
            FaultDescriptor::Stall(_) => {
                if let Some(&(qp, qv, qb)) = events.quarantines().first() {
                    if events.healed_after(qp, qv, qb, sc.panel_size) {
                        verdict =
                            Some(Outcome::Recovered { partition: qp, variant: qv });
                        break;
                    }
                    // Recovery is asynchronous: give the manager a beat
                    // before the next batch dispatches.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                } else {
                    // The watchdog never fired and every output matched:
                    // a sub-deadline delay, provably without effect.
                    verdict = Some(Outcome::Masked);
                    break;
                }
            }
            FaultDescriptor::Channel(_) => {
                // Without a recovery manager no Quarantined event exists;
                // the degradation signature is a checkpoint that passed
                // on the surviving quorum after a detection.
                let degraded_pass = events
                    .checkpoint_passes()
                    .iter()
                    .any(|&(pp, _, agreeing)| pp == p && agreeing == sc.panel_size - 1);
                if degraded_pass {
                    verdict = Some(Outcome::DegradedButCorrect);
                    break;
                }
                if events.detection_count() == 0 {
                    verdict = Some(Outcome::Masked);
                    break;
                }
            }
            // run_liveness_scenario is only entered for liveness faults.
            _ => unreachable!("non-liveness fault in liveness runner"),
        }
    }
    let verdict = verdict.unwrap_or_else(|| Outcome::Missed {
        reason: format!(
            "panel never reached a terminal state within {LIVENESS_BATCH_CAP} batches"
        ),
    });
    d.shutdown();
    Ok(verdict)
}

/// Runs a wire-fault scenario: streams batches through the real pipeline
/// with a seeded [`mvtee_faults::NetFault`] wrapped around panel variant
/// 0's response transport, checks every forwarded output bit-for-bit
/// against an unfaulted oracle deployment, and classifies against the
/// adversarial-transport invariant:
///
/// * corruption classes (corrupt / truncate / torn) must surface as AEAD
///   or framing link errors — never as silently-accepted bytes — and the
///   quarantined member must be replaced ([`Outcome::Recovered`]);
/// * liveness classes (stall / drop / disconnect / duplicate) must heal
///   through the same quarantine → re-provision loop;
/// * only a sub-deadline delay may end [`Outcome::Masked`] — every frame
///   arrived intact and on time, so there is provably nothing to detect.
fn run_netfault_scenario(sc: &Scenario, profile: ScaleProfile) -> Result<Outcome, String> {
    let nf = match &sc.fault {
        FaultDescriptor::Net(nf) => *nf,
        other => return Err(format!("not a net fault: {other}")),
    };
    let cfg = scenario_config(sc);
    let overrides = scenario_overrides(sc);
    let build = |model| {
        let mut builder = Deployment::builder(model).config(cfg.clone());
        for ((p, v), patch) in &overrides {
            builder = builder.spec_patch(*p, *v, patch.clone());
        }
        builder
    };

    let model = zoo::build(sc.model, profile, sc.seed).map_err(|e| e.to_string())?;
    let inputs: Vec<Tensor> =
        (0..LIVENESS_INPUT_PERIOD).map(|b| liveness_input(sc, &model, b)).collect();

    // The correctness oracle: the identical deployment on a clean wire.
    let mut clean = build(model).build().map_err(|e| e.to_string())?;
    let mut expected = Vec::with_capacity(inputs.len());
    for input in &inputs {
        expected.push(clean.infer(input).map_err(|e| format!("oracle run failed: {e}"))?);
    }
    clean.shutdown();

    let faulted_model = zoo::build(sc.model, profile, sc.seed).map_err(|e| e.to_string())?;
    let mut d = build(faulted_model)
        .fault(sc.fault.clone(), fault_site(sc))
        .build()
        .map_err(|e| e.to_string())?;

    let mut verdict: Option<Outcome> = None;
    for b in 0..LIVENESS_BATCH_CAP {
        let idx = (b % LIVENESS_INPUT_PERIOD) as usize;
        match d.infer(&inputs[idx]) {
            Ok(out) => {
                if !bits_equal(std::slice::from_ref(&out), std::slice::from_ref(&expected[idx]))
                {
                    verdict = Some(Outcome::Missed {
                        reason: format!("wire fault corrupted the output of batch {b}"),
                    });
                    break;
                }
            }
            Err(e) => {
                verdict = Some(Outcome::Missed {
                    reason: format!("stream failed at batch {b}: {e}"),
                });
                break;
            }
        }
        if b + 1 < LIVENESS_BATCHES {
            continue;
        }
        // Terminal-state check: stop streaming once the invariant holds.
        let events = d.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            if events.healed_after(qp, qv, qb, sc.panel_size) {
                verdict = Some(Outcome::Recovered { partition: qp, variant: qv });
                break;
            }
            // Recovery is asynchronous: give the manager a beat before
            // the next batch dispatches.
            std::thread::sleep(std::time::Duration::from_millis(20));
        } else if matches!(nf.class, NetFaultClass::Delay { .. }) {
            // Every frame arrived intact, on time, and in order: a
            // sub-deadline delay is provably without effect. No other
            // class may end here — a corrupted or dropped frame that
            // raised no alarm is a MISSED, caught by the batch cap.
            verdict = Some(Outcome::Masked);
            break;
        }
    }
    let verdict = verdict.unwrap_or_else(|| Outcome::Missed {
        reason: format!(
            "wire fault raised no alarm and the panel never healed within \
             {LIVENESS_BATCH_CAP} batches"
        ),
    });
    d.shutdown();
    Ok(verdict)
}

fn classify(
    sc: &Scenario,
    cfg: &MvxConfig,
    crashes: &[(usize, usize, u64)],
    divergences: &[(usize, u64, Vec<usize>)],
    passes: &[(usize, u64, usize)],
    profile: ScaleProfile,
) -> Outcome {
    let inject = sc.mvx_partition;
    let expected = (inject..sc.partitions).find(|&p| cfg.slow_path(p));

    // (b) The variant crashed and the monitor recorded it.
    if let Some((p, v)) = crashes
        .iter()
        .filter(|(p, _, _)| *p >= inject)
        .map(|(p, v, _)| (*p, *v))
        .min()
    {
        return Outcome::Crashed { partition: p, variant: v };
    }
    // (a) Divergence at the first checkpoint at-or-after injection.
    if let Some(first) = divergences.iter().map(|(p, _, _)| *p).filter(|p| *p >= inject).min() {
        return match expected {
            Some(e) if first == e => Outcome::Detected { partition: first },
            _ => Outcome::Missed {
                reason: format!(
                    "divergence surfaced at partition {first} but the first checkpoint \
                     at-or-after injection is {expected:?}"
                ),
            },
        };
    }
    if divergences.iter().any(|(p, _, _)| *p < inject)
        || crashes.iter().any(|(p, _, _)| *p < inject)
    {
        return Outcome::Missed {
            reason: "spurious detection before the injection point".into(),
        };
    }
    // (c) No alarm: the fault must be provably masked.
    match standalone_masked(sc, profile) {
        Ok(true) => {
            // The "all clear" must come from a checkpoint that actually
            // evaluated, not from the absence of any checkpoint.
            if expected.is_some() && !passes.iter().any(|(p, _, _)| Some(*p) == expected) {
                Outcome::Missed {
                    reason: "no checkpoint verdict recorded at the panel partition".into(),
                }
            } else if expected.is_none() {
                Outcome::Missed {
                    reason: "no slow-path checkpoint covers the injection point".into(),
                }
            } else {
                Outcome::Masked
            }
        }
        Ok(false) => Outcome::Missed {
            reason: "fault changed the variant's standalone output but no checkpoint caught it"
                .into(),
        },
        Err(e) => Outcome::Missed { reason: format!("masked-check failed: {e}") },
    }
}

/// Proves (or refutes) masking: re-executes the faulted variant standalone
/// — same subgraph, same stage inputs, same fault — and compares its
/// output with its own clean run under the panel's own checkpoint metric.
/// A fault whose effect that metric cannot see is masked by construction:
/// no checkpoint configured for this panel could ever flag it. (For
/// homogeneous panels the metric is [`Metric::exact`], so this is the
/// bit-for-bit comparison it reads as.)
fn standalone_masked(sc: &Scenario, profile: ScaleProfile) -> Result<bool, String> {
    let model = zoo::build(sc.model, profile, sc.seed).map_err(|e| e.to_string())?;
    let set = select_partition_set(&model.graph, sc.partitions, sc.partition_seed)
        .map_err(|e| e.to_string())?;
    let subgraphs = set.extract_subgraphs(&model.graph).map_err(|e| e.to_string())?;
    let input = trigger_input(sc, &model);

    // Recompute the panel's stage inputs by running the upstream stages
    // clean (upstream partitions are not susceptible by construction).
    let mut env: HashMap<ValueId, Tensor> = HashMap::new();
    env.insert(model.graph.inputs()[0], input);
    let upstream = Engine::new(nonpanel_engine(sc));
    for (p, sub) in subgraphs.iter().enumerate().take(sc.mvx_partition) {
        let plan = &set.stages[p];
        let inputs: Vec<Tensor> = plan.inputs.iter().map(|v| env[v].clone()).collect();
        let outputs = upstream
            .prepare(sub)
            .map_err(|e| e.to_string())?
            .run(&inputs)
            .map_err(|e| e.to_string())?;
        for (v, t) in plan.outputs.iter().zip(outputs) {
            env.insert(*v, t);
        }
    }
    let plan = &set.stages[sc.mvx_partition];
    let stage_inputs: Vec<Tensor> = plan.inputs.iter().map(|v| env[v].clone()).collect();

    // Variant 0's spec exactly as the deployment built it.
    let cfg = scenario_config(sc);
    let overrides = scenario_overrides(sc);
    let spec0 = build_specs(
        sc.mvx_partition,
        &cfg.claims[sc.mvx_partition],
        0xd1ce, // replicated claims ignore the variant seed
        &overrides,
    )
    .into_iter()
    .next()
    .ok_or("empty panel")?;

    let sub = &subgraphs[sc.mvx_partition];
    let clean_engine = Engine::new(spec0.engine.clone());
    let clean = clean_engine
        .prepare(sub)
        .map_err(|e| e.to_string())?
        .run(&stage_inputs)
        .map_err(|e| e.to_string())?;

    let faulted = match &sc.fault {
        FaultDescriptor::Cve(attack) => {
            let prepared = clean_engine.prepare(sub).map_err(|e| e.to_string())?;
            let instrumented = attack.instrument(prepared, &spec0);
            match instrumented.run(&stage_inputs) {
                Ok(outputs) => outputs,
                // A standalone crash means the fault is decidedly not
                // masked.
                Err(_) => return Ok(false),
            }
        }
        FaultDescriptor::BlasFault(ff) => {
            Engine::with_custom_blas(spec0.engine.clone(), ff.resolve(spec0.engine.blas))
                .prepare(sub)
                .map_err(|e| e.to_string())?
                .run(&stage_inputs)
                .map_err(|e| e.to_string())?
        }
        FaultDescriptor::WeightBitFlip(fault) => {
            let mut g = sub.clone();
            let _ = flip_weight_bits(&mut g, fault.strategy, fault.count, fault.seed);
            clean_engine
                .prepare(&g)
                .map_err(|e| e.to_string())?
                .run(&stage_inputs)
                .map_err(|e| e.to_string())?
        }
        // Liveness and wire faults are value-preserving by construction:
        // a stalled host or a misbehaving transport computes the same
        // tensors (or none — the AEAD layer refuses corrupted frames).
        // They are classified by their dedicated runners, never by the
        // standalone masked-check.
        FaultDescriptor::Stall(_) | FaultDescriptor::Channel(_) | FaultDescriptor::Net(_) => {
            clean.clone()
        }
    };

    let metric = cfg.claims[sc.mvx_partition].metric;
    Ok(clean.len() == faulted.len()
        && clean.iter().zip(faulted.iter()).all(|(c, f)| metric.check(c, f)))
}

/// Bit-exact tensor-list equality (NaN-safe, unlike `f32` comparison).
fn bits_equal(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data()
                    .iter()
                    .zip(y.data().iter())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate_scenario;
    use mvtee_faults::{BitFlipFault, BitFlipStrategy, NetFault};
    use mvtee_graph::zoo::ModelKind;

    fn bitflip_scenario() -> Scenario {
        Scenario {
            seed: 99,
            model: ModelKind::MnasNet,
            partitions: 2,
            partition_seed: 4,
            mvx_partition: 1,
            panel_size: 2,
            defender: Defender::Replica,
            immune: false,
            // Flip seed 0 provably manifests at the stage output for this
            // model/partition/input (seed 5, say, lands on a weight whose
            // effect ReLU clamps away — a genuinely masked flip).
            fault: FaultDescriptor::WeightBitFlip(BitFlipFault {
                strategy: BitFlipStrategy::ExponentMsb,
                count: 1,
                seed: 0,
            }),
            force_fast: false,
        }
    }

    #[test]
    fn bitflip_on_replicated_panel_is_detected() {
        let out = run_scenario(&bitflip_scenario(), ScaleProfile::Test).unwrap();
        assert_eq!(out, Outcome::Detected { partition: 1 }, "got {out}");
    }

    #[test]
    fn relu_clamped_bitflip_is_provably_masked() {
        // Flip seed 5 lands on a batch-norm mean whose channel activation
        // is negative on this input: both the clean (-0.06) and faulted
        // (-2e36) values are clamped to zero by the following ReLU, so the
        // fault provably never reaches the checkpoint. The classifier must
        // call this Masked (backed by the bit-exact standalone re-run and
        // a recorded checkpoint pass), not Detected and not MISSED.
        let mut sc = bitflip_scenario();
        sc.fault = FaultDescriptor::WeightBitFlip(BitFlipFault {
            strategy: BitFlipStrategy::ExponentMsb,
            count: 1,
            seed: 5,
        });
        let out = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert_eq!(out, Outcome::Masked, "got {out}");
    }

    #[test]
    fn force_fast_turns_the_same_fault_into_missed() {
        let mut sc = bitflip_scenario();
        sc.force_fast = true;
        let out = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert!(out.is_missed(), "force-fast must miss, got {out}");
    }

    #[test]
    fn strategy_diversified_panel_catches_the_exponent_bitflip() {
        // Slot 11 of the family cycle: a strategy-pinned defender panel
        // vs a sealed exponent-MSB weight flip. The panel compares under
        // the relaxed metric (heterogeneous kernels), which the blown
        // exponent must still sail past — never MISSED.
        let sc = generate_scenario(7, 11);
        assert!(
            matches!(sc.defender, Defender::Strategy(_)),
            "slot 11 should be the strategy slot: {sc}"
        );
        let out = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert!(!out.is_missed(), "strategy panel missed the bit flip: {out}");
    }

    #[test]
    fn immune_cve_panel_is_masked() {
        let mut sc = generate_scenario(7, 0); // slot 0 = OOB
        sc.immune = true;
        sc.defender = Defender::RtTvm;
        sc.fault = FaultDescriptor::Cve(Attack::new(mvtee_faults::CveClass::Oob));
        let out = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert_eq!(out, Outcome::Masked, "got {out}");
    }

    #[test]
    fn crash_class_cve_is_recorded_as_crash() {
        let mut sc = generate_scenario(7, 1); // slot 1 = UNP (crash effect)
        sc.immune = false;
        let out = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert!(
            matches!(out, Outcome::Crashed { .. }),
            "UNP must crash the variant, got {out}"
        );
    }

    #[test]
    fn corrupted_wire_is_detected_by_aead_and_heals() {
        // Byte corruption on variant 0's response wire: the monitor's
        // AEAD layer must refuse the frame (never accept the bytes), the
        // member must be quarantined, and a clean replacement must rejoin
        // at full strength while the stream stays bit-correct throughout.
        let sc = Scenario {
            seed: 21,
            model: ModelKind::MnasNet,
            partitions: 2,
            partition_seed: 4,
            mvx_partition: 1,
            panel_size: 3,
            defender: Defender::Replica,
            immune: false,
            fault: FaultDescriptor::Net(NetFault {
                class: NetFaultClass::Corrupt { seed: 7 },
                from_frame: 1,
            }),
            force_fast: false,
        };
        let out = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert!(
            matches!(out, Outcome::Recovered { partition: 1, variant: 0 }),
            "corrupt wire must quarantine and heal, got {out}"
        );
    }

    #[test]
    fn outcomes_are_deterministic() {
        let sc = generate_scenario(13, 7); // frameflip slot
        let a = run_scenario(&sc, ScaleProfile::Test).unwrap();
        let b = run_scenario(&sc, ScaleProfile::Test).unwrap();
        assert_eq!(a, b);
    }
}
