//! Distributed-MVX conformance: variant hosts as separate OS processes
//! must be **behaviourally invisible**.
//!
//! These tests spawn real `mvtee-variantd` worker processes (built as
//! part of the workspace) over attested loopback TCP and pin down the
//! two properties the distributed deployment stands on:
//!
//! 1. **Byte identity** — a 3-variant panel with out-of-process members
//!    produces bit-identical outputs *and* a byte-identical rendered
//!    audit transcript versus the all-in-process reference with the
//!    same seeds. Placement must not leak into results or audit state.
//! 2. **Crash healing** — killing a worker process mid-stream is just
//!    another variant fault: the monitor quarantines it on connection
//!    loss, the recovery manager respawns and re-attests a replacement
//!    worker, the panel returns to full strength, and no batch is lost
//!    or wrong along the way.

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::deployment::Deployment;
use mvtee::verify_transcript;
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;
use std::time::{Duration, Instant};

const SEED: u64 = 7;
const MVX_PARTITION: usize = 1;
const PANEL: usize = 3;
const BATCHES: u64 = 6;
const FINGERPRINT: &str = "dist-conformance";

fn model_input(model: &Model, salt: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| (((i as u64 + 31 * salt) % 97) as f32 - 48.0) / 48.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn panel_config() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(2);
    cfg.claims[MVX_PARTITION] = PartitionMvx::diversified(PANEL);
    cfg
}

/// Builds the panel with the given variants placed out-of-process,
/// streams [`BATCHES`] inputs, and returns `(outputs, transcript,
/// worker count)`.
fn run_panel(out_of_process: &[(usize, usize)]) -> (Vec<Tensor>, String, usize) {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let inputs: Vec<Tensor> = (0..BATCHES).map(|s| model_input(&model, s)).collect();
    let mut builder = Deployment::builder(model)
        .config(panel_config())
        .partition_seed(SEED)
        .variant_seed(SEED)
        // Cargo builds package bins before integration tests run and
        // pins their paths, so the worker is always the one built with
        // this test's profile.
        .worker_binary(env!("CARGO_BIN_EXE_mvtee-variantd"));
    for &(p, v) in out_of_process {
        builder = builder.out_of_process(p, v);
    }
    let mut d = builder.build().expect("panel deploys");
    let workers = d.worker_pids().len();
    let outputs: Vec<Tensor> =
        inputs.iter().map(|i| d.infer(i).expect("panel serves")).collect();
    let transcript = d.transcript().render(SEED, FINGERPRINT);
    d.shutdown();
    (outputs, transcript, workers)
}

/// Acceptance criterion #1: same seeds, different placement, identical
/// bytes — outputs bit-for-bit, audit transcript byte-for-byte.
#[test]
fn out_of_process_panel_is_byte_identical_to_in_process_reference() {
    let (ref_outputs, ref_transcript, ref_workers) = run_panel(&[]);
    assert_eq!(ref_workers, 0, "reference must be all-in-process");
    let ref_summary = verify_transcript(&ref_transcript).expect("reference transcript verifies");
    assert!(ref_summary.entries > 0, "voted checkpoints must be recorded");
    assert_eq!(ref_summary.divergences, 0, "clean panel must not diverge");

    let placements = [(MVX_PARTITION, 1), (MVX_PARTITION, 2)];
    let (dist_outputs, dist_transcript, dist_workers) = run_panel(&placements);
    assert_eq!(
        dist_workers,
        placements.len(),
        "each out-of-process variant must run as its own worker process"
    );

    assert_eq!(ref_outputs.len(), dist_outputs.len());
    for (b, (r, d)) in ref_outputs.iter().zip(&dist_outputs).enumerate() {
        assert!(
            bits_equal(r, d),
            "batch {b}: out-of-process output differs from the in-process reference"
        );
    }
    assert_eq!(
        ref_transcript, dist_transcript,
        "audit transcripts must be byte-identical across placements"
    );
    verify_transcript(&dist_transcript).expect("distributed transcript verifies");
}

fn recovery_config() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(2);
    cfg.claims[MVX_PARTITION] = PartitionMvx::replicated(PANEL);
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.recovery = RecoveryPolicy::enabled();
    cfg.checkpoint_deadline_ms = 300;
    cfg
}

/// Acceptance criterion #2: kill a worker process mid-run; the panel
/// heals to full strength (a later checkpoint passes with all
/// [`PANEL`] members agreeing) and zero batches are lost or wrong.
#[test]
fn killed_worker_heals_to_full_panel_strength_with_zero_lost_batches() {
    let cfg = recovery_config();
    let workers_spawned0 = mvtee_telemetry::counter("core.worker.spawned").get();
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let inputs: Vec<Tensor> = (0..3).map(|s| model_input(&model, s)).collect();

    // In-process oracle fixes the expected outputs.
    let mut oracle = Deployment::builder(
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model"),
    )
    .config(cfg.clone())
    .partition_seed(SEED)
    .variant_seed(SEED)
    .build()
    .expect("oracle deploys");
    let expected: Vec<Tensor> =
        inputs.iter().map(|i| oracle.infer(i).expect("oracle serves")).collect();
    oracle.shutdown();

    let mut d = Deployment::builder(
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model"),
    )
    .config(cfg.clone())
    .partition_seed(SEED)
    .variant_seed(SEED)
    .worker_binary(env!("CARGO_BIN_EXE_mvtee-variantd"))
    .out_of_process(MVX_PARTITION, 0)
    .build()
    .expect("panel deploys");
    assert_eq!(d.worker_pids().len(), 1, "one variant must be out-of-process");

    // A couple of verified checkpoints before the crash, so recovery has
    // a genuine resync point for probation.
    let mut served = 0u64;
    for b in 0..2u64 {
        let idx = (b % inputs.len() as u64) as usize;
        let out = d.infer(&inputs[idx]).expect("pre-crash batches serve");
        assert!(bits_equal(&out, &expected[idx]), "pre-crash batch {b} diverged");
        served += 1;
    }

    assert!(d.kill_worker(MVX_PARTITION, 0), "the worker process must be killable");

    // Keep streaming. Every batch must keep serving correct majority
    // output (zero lost batches) until the panel heals: the killed
    // variant quarantined, a replacement worker re-attested, and a later
    // checkpoint passed at full strength. All waits derive from the
    // config's own deadlines.
    let deadline = Instant::now() + cfg.heal_deadline();
    let poll = Duration::from_millis(50);
    let mut healed = None;
    while Instant::now() < deadline {
        let idx = (served % inputs.len() as u64) as usize;
        let out = d.infer(&inputs[idx]).expect("majority must keep serving after the kill");
        assert!(
            bits_equal(&out, &expected[idx]),
            "batch {served}: output diverged after the worker kill"
        );
        served += 1;
        let events = d.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            assert_eq!(qp, MVX_PARTITION, "quarantine at the wrong partition");
            assert_eq!(qv, 0, "the killed worker's variant must be the one quarantined");
            if events.healed_after(qp, qv, qb, PANEL) {
                healed = Some(qb);
                break;
            }
        }
        std::thread::sleep(poll);
    }
    assert!(
        healed.is_some(),
        "panel never healed within the config-derived deadline:\n{}",
        d.events().render()
    );

    // The replacement runs out-of-process again (placement is sticky
    // across recovery) and re-attested from scratch: a fresh binding in
    // the recovery id space.
    assert!(
        mvtee_telemetry::counter("core.worker.spawned").get() >= workers_spawned0 + 2,
        "healing must have spawned a fresh out-of-process worker"
    );
    assert!(
        d.bindings()
            .iter()
            .any(|r| r.partition == MVX_PARTITION
                && r.variant == 0
                && r.variant_id >= 900_000_000),
        "replacement binding missing its recovery-scoped id"
    );
    d.shutdown();
}
