//! End-to-end tracing + audit-transcript integration: transcript
//! determinism and tamper evidence, and the flight-recorder chain from
//! a serve-side request root to the quarantining checkpoint verdict.
//!
//! Everything lives in one test function: the trace recorder and its
//! flight-dump slots are process-global, so the phases run serially in
//! a known order instead of racing a parallel test harness.

use mvtee::config::{DegradationPolicy, MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::transcript::{verify_transcript, AuditError};
use mvtee::Deployment;
use mvtee_faults::{BitFlipFault, BitFlipStrategy, FaultDescriptor};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_serve::{ReplicaPool, ServeConfig, ServeFrontend};
use mvtee_telemetry::trace::{self, TraceCtx};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 11;
const PARTITIONS: usize = 2;
const PANEL: usize = 3;
const BATCHES: u64 = 3;

fn mvx() -> MvxConfig {
    let mut mvx = MvxConfig::fast_path(PARTITIONS);
    for claim in &mut mvx.claims {
        *claim = PartitionMvx::replicated(PANEL);
    }
    mvx.response = ResponsePolicy::ContinueWithMajority;
    mvx.degradation = DegradationPolicy::Degrade;
    mvx.recovery = RecoveryPolicy::enabled();
    mvx
}

fn model() -> zoo::Model {
    zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("zoo model builds")
}

fn input(m: &zoo::Model, index: u64) -> Tensor {
    let n = m.input_shape.num_elements();
    let mut rng = StdRng::seed_from_u64(SEED ^ index);
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, m.input_shape.dims()).expect("static input shape")
}

/// One fault-free build of the fixed seed: runs `BATCHES` inferences and
/// returns the rendered transcript.
fn fault_free_transcript() -> String {
    let m = model();
    let inputs: Vec<Tensor> = (0..BATCHES).map(|i| input(&m, i)).collect();
    let mut dep = Deployment::builder(m)
        .config(mvx())
        .partition_seed(SEED)
        .variant_seed(SEED)
        .build()
        .expect("deployment builds");
    for i in &inputs {
        dep.infer(i).expect("fault-free inference");
    }
    let transcript = dep.transcript().render(SEED, "trace-audit-test");
    dep.shutdown();
    transcript
}

#[test]
fn transcripts_chain_and_flight_dump_links_ticket_to_verdict() {
    // Phase 1: determinism — two independent builds of the same seed
    // render byte-identical transcripts, and the chain replays.
    let a = fault_free_transcript();
    let b = fault_free_transcript();
    assert_eq!(a, b, "transcript must be byte-identical for a fixed seed");
    let summary = verify_transcript(&a).expect("clean transcript verifies");
    assert_eq!(summary.seed, SEED);
    assert_eq!(summary.entries as u64, BATCHES * PARTITIONS as u64);
    assert_eq!(summary.divergences, 0);

    // Phase 2: tamper evidence — a single flipped byte in an entry body
    // breaks the replay, and a removed line is reported as a gap.
    let mut tampered = a.clone().into_bytes();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    let tampered = String::from_utf8_lossy(&tampered).into_owned();
    assert!(verify_transcript(&tampered).is_err(), "flipped byte must fail the audit");
    let gapped: Vec<&str> = a.lines().enumerate().filter(|(i, _)| *i != 2).map(|(_, l)| l).collect();
    match verify_transcript(&(gapped.join("\n") + "\n")) {
        Err(AuditError::Gap { .. } | AuditError::Tamper { .. }) => {}
        other => panic!("dropped line must fail as gap/tamper, got {other:?}"),
    }

    // Phase 3: the flight-recorder chain. A 2-replica pool whose replica
    // 0 carries weight bit flips on partition 1; the first request lands
    // on replica 0 (lowest-index tie-break), diverges at the partition-1
    // checkpoint, and the divergence event snapshots the flight
    // recorder. The dump must hold the serve-side request root and the
    // verdict instant under one trace id, and the traced run must show
    // runtime/crypto leaf spans under that same id.
    let flip = BitFlipFault { strategy: BitFlipStrategy::ExponentMsb, count: 3, seed: SEED };
    let deployments = Deployment::builder(model())
        .config(mvx())
        .partition_seed(SEED)
        .variant_seed(SEED)
        .build_many_with(2, move |r, builder| {
            if r == 0 {
                builder.fault(FaultDescriptor::WeightBitFlip(flip), Some((1, 0)))
            } else {
                builder
            }
        })
        .expect("probe pool builds");
    let pool = ReplicaPool::new("probe", deployments).expect("pool wraps deployments");
    let frontend = ServeFrontend::start(vec![pool], ServeConfig::default());
    let faulted = frontend.replica_events("probe", 0).expect("replica 0 exists");

    let tracer = trace::recorder();
    tracer.clear();
    tracer.set_enabled(true);
    let m = model();
    let probe_input = input(&m, 0);
    let mut first_id = None;
    for _ in 0..8 {
        let ticket = frontend
            .handle()
            .submit("auditor", "probe", probe_input.clone())
            .expect("probe submit admitted");
        first_id.get_or_insert(ticket.id);
        ticket.wait().expect("probe request resolves");
        if !faulted.quarantines().is_empty() {
            break;
        }
    }
    tracer.set_enabled(false);
    assert!(!faulted.quarantines().is_empty(), "weight fault must quarantine a variant");

    let events = tracer.snapshot();
    let dumps = tracer.dumps();
    frontend.shutdown();

    let request_trace = TraceCtx::for_request(first_id.expect("submitted at least once")).trace.0;
    assert!(
        events.iter().any(|e| e.name == "runtime.op" && e.trace == request_trace),
        "per-op spans must carry the request's trace id"
    );
    assert!(
        events.iter().any(|e| e.name == "crypto.send" && e.trace == request_trace),
        "channel spans must carry the request's trace id"
    );

    let dump = dumps
        .iter()
        .find(|d| d.events.iter().any(|e| e.name == "core.event.divergence"))
        .expect("a flight dump captured the divergence verdict");
    let verdict = dump
        .events
        .iter()
        .find(|e| e.name == "core.event.divergence")
        .expect("dump holds the verdict instant");
    assert!(
        dump.events
            .iter()
            .any(|e| e.name == "serve.submit" && e.trace == verdict.trace),
        "dump must chain the serve request root to the quarantining verdict \
         (reason: {:?}, {} events)",
        dump.reason,
        dump.events.len()
    );
}
