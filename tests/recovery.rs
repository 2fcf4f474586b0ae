//! Self-healing integration: the scripted crash-then-recover loop.
//!
//! A deployment with recovery enabled must close the detect→react loop
//! end to end: a faulted panel member diverges (or hangs), the monitor
//! quarantines it, the recovery manager re-provisions a replacement
//! through the full attested bootstrap (fresh enclave, fresh variant key,
//! new secure binding), the replacement resynchronises from the last
//! *verified* checkpoint, and the panel returns to full strength — all
//! visible in the [`mvtee::EventLog`] and the `core.recovery.*` metrics.

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::deployment::Deployment;
use mvtee::MonitorEvent;
use mvtee_faults::{
    BitFlipFault, BitFlipStrategy, FaultDescriptor, StallFault, StallMode,
};
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;
use std::time::{Duration, Instant};

const PANEL: usize = 3;
const MVX_PARTITION: usize = 1;

fn model_input(model: &Model, salt: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| (((i as u64 + 13 * salt) % 83) as f32 - 41.0) / 41.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn recovery_config() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(2);
    cfg.claims[MVX_PARTITION] = PartitionMvx::replicated(PANEL);
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.recovery = RecoveryPolicy::enabled();
    cfg.checkpoint_deadline_ms = 300;
    cfg
}

/// Streams batches until the quarantined variant has rejoined and a
/// later checkpoint passed at full panel strength; panics with the event
/// log when the config-derived deadline is exhausted. Returns the
/// quarantine `(variant, batch)`.
fn stream_until_healed(d: &mut Deployment, inputs: &[Tensor]) -> (usize, u64) {
    let cfg = recovery_config();
    let deadline = Instant::now() + cfg.heal_deadline();
    let poll = Duration::from_millis(50);
    let mut b = 0u64;
    while Instant::now() < deadline {
        let idx = (b % inputs.len() as u64) as usize;
        let _ = d.infer(&inputs[idx]).expect("degraded service must continue");
        b += 1;
        let events = d.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            assert_eq!(qp, MVX_PARTITION, "quarantine at the wrong partition");
            if events.healed_after(qp, qv, qb, PANEL) {
                return (qv, qb);
            }
        }
        std::thread::sleep(poll);
    }
    panic!(
        "panel never healed within the config-derived deadline ({} batches streamed):\n{}",
        b,
        d.events().render()
    );
}

/// The full scripted loop for a *value* fault: sealed weight bit flips
/// make one replica dissent, the checkpoint quarantines it, and the
/// recovery manager's replacement (resealed from the clean subgraph)
/// rejoins and votes again.
#[test]
fn divergent_variant_is_quarantined_reprovisioned_and_rejoins() {
    let before = mvtee_telemetry::snapshot();
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).expect("builds");
    let inputs: Vec<Tensor> = (0..3).map(|s| model_input(&model, s)).collect();

    // The unfaulted oracle fixes the expected outputs.
    let mut clean = Deployment::builder(
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).expect("builds"),
    )
    .config(recovery_config())
    .build()
    .expect("oracle deploys");
    let expected: Vec<Tensor> =
        inputs.iter().map(|i| clean.infer(i).expect("oracle runs")).collect();
    clean.shutdown();

    let cfg = recovery_config();
    let at_launch = mvtee_telemetry::snapshot();
    let mut d = Deployment::builder(model)
        .config(cfg.clone())
        .fault(
            FaultDescriptor::WeightBitFlip(BitFlipFault {
                strategy: BitFlipStrategy::ExponentMsb,
                count: 3,
                seed: 2,
            }),
            Some((MVX_PARTITION, 0)),
        )
        .build()
        .expect("deploys");
    let launch_bindings = d.bindings().len();

    let deadline = Instant::now() + cfg.heal_deadline();
    let poll = Duration::from_millis(50);
    let mut healed = None;
    let mut b = 0u64;
    while Instant::now() < deadline {
        let idx = (b % inputs.len() as u64) as usize;
        let out = d.infer(&inputs[idx]).expect("majority must keep serving");
        assert!(
            bits_equal(&out, &expected[idx]),
            "batch {b}: degraded/recovered output diverged from the oracle"
        );
        b += 1;
        let events = d.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            assert_eq!(qp, MVX_PARTITION);
            if events.healed_after(qp, qv, qb, PANEL) {
                healed = Some((qv, qb));
                break;
            }
        }
        std::thread::sleep(poll);
    }
    let (qv, _) =
        healed.unwrap_or_else(|| panic!("never healed:\n{}", d.events().render()));
    assert_eq!(qv, 0, "the flipped replica must be the one quarantined");

    // The event log tells the whole story, in order: detect → quarantine
    // → re-provision → rejoin.
    let events = d.events().events();
    let pos = |pred: &dyn Fn(&MonitorEvent) -> bool| events.iter().position(pred);
    let quarantined = pos(&|e| {
        matches!(e, MonitorEvent::Quarantined { partition, variant, .. }
            if *partition == MVX_PARTITION && *variant == 0)
    })
    .expect("Quarantined event");
    let started = pos(&|e| {
        matches!(e, MonitorEvent::RecoveryStarted { partition, variant, .. }
            if *partition == MVX_PARTITION && *variant == 0)
    })
    .expect("RecoveryStarted event");
    let recovered = pos(&|e| {
        matches!(e, MonitorEvent::Recovered { partition, variant }
            if *partition == MVX_PARTITION && *variant == 0)
    })
    .expect("Recovered event");
    assert!(quarantined < started && started < recovered, "events out of order");

    // Re-provisioning runs the full attested bootstrap: the replacement
    // appended a fresh secure binding in the recovery id space.
    let bindings = d.bindings();
    assert!(bindings.len() > launch_bindings, "no new binding recorded");
    assert!(
        bindings.iter().any(|r| r.partition == MVX_PARTITION
            && r.variant == 0
            && r.variant_id >= 900_000_000),
        "replacement binding missing its recovery-scoped id"
    );
    d.shutdown();

    // The whole loop is visible in telemetry.
    let after = mvtee_telemetry::snapshot();
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    assert!(delta("core.recovery.quarantined") >= 1);
    assert!(delta("core.recovery.started") >= 1);
    assert!(delta("core.recovery.recovered") >= 1);
    let histogram_count = |snap: &mvtee_telemetry::Snapshot, name: &str| {
        snap.histograms.get(name).map_or(0, |h| h.count)
    };
    let time_to_recovery = "core.recovery.time_to_recovery_ns";
    assert!(
        histogram_count(&after, time_to_recovery) > histogram_count(&before, time_to_recovery),
        "time-to-recovery histogram never recorded"
    );
    // Launch and recovery bring variants up through one function, so
    // both are timed: every launch bootstrap plus the replacement's.
    // (`>=`: the registry is process-global and sibling tests deploy too.)
    let bootstraps = "core.deployment.bootstrap_ns";
    assert!(
        histogram_count(&after, bootstraps) - histogram_count(&at_launch, bootstraps)
            > cfg.total_variants() as u64,
        "the replacement's bootstrap was not timed"
    );
}

/// The full scripted loop for a *liveness* fault: a variant that hangs
/// after two verified checkpoints trips the straggler watchdog, and the
/// replacement must pass probation against the last verified checkpoint
/// payload (the resync point exists by construction) before rejoining.
#[test]
fn hung_variant_recovers_via_resync_from_last_verified_checkpoint() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 11).expect("builds");
    let inputs: Vec<Tensor> = (0..3).map(|s| model_input(&model, s)).collect();

    let mut d = Deployment::builder(model)
        .config(recovery_config())
        .fault(
            FaultDescriptor::Stall(StallFault { from_batch: 2, mode: StallMode::Hang }),
            Some((MVX_PARTITION, 1)),
        )
        .build()
        .expect("deploys");

    let (qv, qb) = stream_until_healed(&mut d, &inputs);
    assert_eq!(qv, 1, "the hung replica must be the one quarantined");
    assert!(qb >= 2, "batches before the stall must have verified");
    let events = d.events();
    // Two verified checkpoints preceded the hang — the recovery manager
    // had a genuine resync point to probation the replacement against.
    assert!(
        events.checkpoint_passes().iter().any(|&(p, b, _)| p == MVX_PARTITION && b < qb),
        "no verified checkpoint before the quarantine:\n{}",
        events.render()
    );
    assert!(events.recoveries().contains(&(MVX_PARTITION, 1)));
    d.shutdown();
}
