//! Telemetry integration: the instrumented pipeline feeds the global
//! registry during real runs.
//!
//! Both tests share one process-wide registry, so every assertion works on
//! before/after deltas. The benign deployment test records no divergence
//! events, keeping the exactly-once assertion of the bit-flip test sound.

use crossbeam::channel::{bounded, unbounded};
use mvtee::config::{DegradationPolicy, ExecMode, ResponsePolicy, VotingPolicy};
use mvtee::events::{EventLog, MonitorEvent};
use mvtee::link::{link_pair, DataLink, ResponsePort};
use mvtee::messages::{decode, encode, StageRequest, StageResponse};
use mvtee::pipeline::{run_stage, CoordMsg, StageJob, StagePolicy, StageRuntime, VariantLink};
use mvtee_crypto::channel::Role;
use mvtee::prelude::*;
use mvtee_faults::{flip_weight_bits, BitFlipStrategy};
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_graph::ValueId;
use mvtee_runtime::{Engine, EngineConfig, EngineKind, PreparedModel};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use std::collections::{HashMap, HashSet};

fn model_input(m: &Model) -> Tensor {
    let n = m.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 89) as f32 - 44.0) / 44.0).collect(),
        m.input_shape.dims(),
    )
    .expect("static shape")
}

fn checkpoint_samples(snap: &mvtee_telemetry::Snapshot) -> u64 {
    snap.histograms
        .iter()
        .filter(|(name, _)| {
            name.starts_with("core.pipeline.") && name.ends_with(".checkpoint_latency_ns")
        })
        .map(|(_, h)| h.count)
        .sum()
}

/// A full deployment over a zoo model leaves non-zero checkpoint-latency
/// samples in the global registry and no spurious detections.
#[test]
fn deployment_run_produces_checkpoint_latency_samples() {
    let before = mvtee_telemetry::snapshot();

    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 61).expect("builds");
    let input = model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .build()
        .expect("deploys");
    d.infer(&input).expect("benign inference succeeds");
    assert_eq!(d.events().detection_count(), 0, "spurious detection");
    d.shutdown();

    let after = mvtee_telemetry::snapshot();
    assert!(
        checkpoint_samples(&after) > checkpoint_samples(&before),
        "no checkpoint latency recorded: before {before:?}, after {after:?}"
    );
}

/// Serves a prepared model like a variant TEE's data plane, answering into
/// `port`; returns the monitor-side links.
fn spawn_model_variant(prepared: Box<dyn PreparedModel>, port: ResponsePort) -> VariantLink {
    let (req_monitor, req_variant) = link_pair(false, b"", 0);
    std::thread::spawn(move || {
        let mut rx = req_variant;
        let mut tx = DataLink::plain(port);
        while let Ok(frame) = rx.recv() {
            let Ok(msg) = decode::<StageRequest>(&frame) else { break };
            match msg {
                StageRequest::Shutdown => break,
                StageRequest::Input { batch, tensors, .. } => {
                    let resp = match prepared.run(&tensors) {
                        Ok(outputs) => StageResponse::Output { batch, tensors: outputs },
                        Err(e) => StageResponse::Crashed { batch, reason: e.to_string() },
                    };
                    if tx.send(&encode(&resp).expect("encodes")).is_err() {
                        break;
                    }
                }
            }
        }
    });
    let rx = DataLink::inbound(false, b"", Role::Initiator, 1);
    VariantLink { tx: req_monitor, rx, description: "variant".into() }
}

/// A variant whose weights took exponent-MSB bit flips dissents at its
/// checkpoint, incrementing the divergence counter exactly once.
#[test]
fn bitflip_divergence_increments_counter_exactly_once() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 77).expect("builds");
    let input = model_input(&model);

    let engine = Engine::new(EngineConfig::of_kind(EngineKind::Reference));
    let clean = engine.prepare(&model.graph).expect("clean prepares");
    let clean_output =
        clean.run(std::slice::from_ref(&input)).expect("clean runs").remove(0);
    // Search flip seeds until the corruption survives to the model output
    // (a saturated softmax can absorb even exponent-MSB flips), so the
    // checkpoint below is guaranteed to face diverging outputs.
    let corrupted = (0..64u64)
        .find_map(|seed| {
            let mut corrupted_graph = model.graph.clone();
            let flips = flip_weight_bits(
                &mut corrupted_graph,
                BitFlipStrategy::ExponentMsb,
                8,
                seed,
            );
            assert!(!flips.is_empty(), "model has weights to flip");
            let prepared = engine.prepare(&corrupted_graph).expect("corrupted prepares");
            let out = prepared.run(std::slice::from_ref(&input)).ok()?.remove(0);
            (!Metric::strict().check(&clean_output, &out)).then_some(prepared)
        })
        .expect("some flip seed corrupts the output");

    let (inbox, responses) = unbounded();
    let links = [clean, corrupted]
        .into_iter()
        .enumerate()
        .map(|(v, prepared)| spawn_model_variant(prepared, ResponsePort::new(inbox.clone(), v, 0)))
        .collect();
    let output_id = *model.graph.outputs().first().expect("one output");
    let runtime = StageRuntime {
        partition: 0,
        links,
        inbox,
        responses,
        inputs: vec![*model.graph.inputs().first().expect("one input")],
        outputs: vec![output_id],
        needed_downstream: HashSet::from([output_id]),
        slow: true,
        recovery: None,
        transcript: mvtee::transcript::TranscriptLog::new(),
    };
    let policy = StagePolicy {
        exec: ExecMode::Sync,
        voting: VotingPolicy::Unanimous,
        response: ResponsePolicy::Halt,
        degradation: DegradationPolicy::Degrade,
        deadline: std::time::Duration::from_secs(30),
    };

    let before = mvtee_telemetry::snapshot();
    let before_divergence = before.counters.get("core.events.divergence").copied().unwrap_or(0);

    let (in_tx, in_rx) = bounded::<CoordMsg>(8);
    let (out_tx, out_rx) = bounded(1);
    let events = EventLog::new();
    let ev = events.clone();
    let coordinator =
        std::thread::spawn(move || run_stage(runtime, policy, Metric::strict(), in_rx, None, ev));
    let mut env = HashMap::new();
    env.insert(*runtime_input_id(&model), input);
    let job = StageJob {
        batch: 0,
        env,
        poisoned: None,
        trace: mvtee_telemetry::trace::TraceCtx::NONE,
        reply: Box::new(move |answer| {
            let _ = out_tx.send(answer);
        }),
    };
    in_tx.send(CoordMsg::Job(job)).expect("sends");
    let result = out_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("coordinator answers");
    in_tx.send(CoordMsg::Stop).expect("stops");
    coordinator.join().expect("coordinator exits");

    assert!(result.is_err(), "halt policy must poison the batch");
    let divergences = events
        .events()
        .iter()
        .filter(|e| matches!(e, MonitorEvent::DivergenceDetected { .. }))
        .count();
    assert_eq!(divergences, 1, "one checkpoint, one divergence event");

    let after = mvtee_telemetry::snapshot();
    let after_divergence = after.counters.get("core.events.divergence").copied().unwrap_or(0);
    assert_eq!(
        after_divergence - before_divergence,
        1,
        "divergence counter must advance exactly once"
    );
}

fn runtime_input_id(model: &Model) -> &ValueId {
    model.graph.inputs().first().expect("one input")
}
