//! Negative-path coverage for checkpoint voting (§4.3): the degenerate
//! inputs a monitor can see when variants die or straggle — empty panels,
//! all-crashed panels, the async 2-of-3 quorum followed by a late
//! dissenter, and the panel-rejoin cases a recovered variant introduces
//! (its vote counts again on the next covered checkpoint; its stale
//! pre-quarantine frames never do).

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::deployment::Deployment;
use mvtee::voting::{evaluate, has_quorum, VariantOutput, Verdict};
use mvtee::{MonitorEvent, VotingPolicy};
use mvtee_faults::{FaultDescriptor, StallFault, StallMode};
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;

fn ok(v: &[f32]) -> VariantOutput {
    VariantOutput::Ok(vec![Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()])
}

fn crashed(reason: &str) -> VariantOutput {
    VariantOutput::Crashed(reason.to_string())
}

#[test]
fn empty_panel_is_divergence_not_agreement() {
    // A checkpoint with zero outputs must never report consensus: there is
    // nothing to replicate downstream.
    for policy in [VotingPolicy::Unanimous, VotingPolicy::Majority] {
        let v = evaluate(&[], Metric::strict(), policy);
        match v {
            Verdict::Diverged { majority, dissenting, .. } => {
                assert!(majority.is_none(), "no output can be selected from an empty panel");
                assert!(dissenting.is_empty());
            }
            other => panic!("empty panel must diverge, got {other:?}"),
        }
    }
}

#[test]
fn all_crashed_panel_reports_every_variant_as_dissenting() {
    let outs = [crashed("sigsegv"), crashed("sigbus"), crashed("oom")];
    for policy in [VotingPolicy::Unanimous, VotingPolicy::Majority] {
        let v = evaluate(&outs, Metric::strict(), policy);
        match v {
            Verdict::Diverged { majority, dissenting, detail } => {
                assert!(majority.is_none());
                assert_eq!(dissenting, vec![0, 1, 2]);
                assert!(detail.contains("crashed"), "detail: {detail}");
            }
            other => panic!("all-crashed panel must diverge, got {other:?}"),
        }
    }
}

#[test]
fn all_crashed_panel_has_no_quorum() {
    let outs = [crashed("a"), crashed("b")];
    assert!(has_quorum(&outs, 3, Metric::strict()).is_none());
}

#[test]
fn empty_arrival_has_no_quorum() {
    assert!(has_quorum(&[], 3, Metric::strict()).is_none());
}

#[test]
fn two_of_three_quorum_then_late_dissent() {
    // Async cross-validation: the first two arrivals agree and form a
    // 2-of-3 quorum — the pipeline releases their output downstream.
    let early = [ok(&[1.0, 2.0]), ok(&[1.0, 2.0])];
    let quorum = has_quorum(&early, 3, Metric::strict());
    assert!(quorum.is_some(), "2 agreeing of 3 is a strict majority");
    assert_eq!(quorum.unwrap()[0].data(), &[1.0, 2.0]);

    // The straggler then arrives with a different answer. The full-panel
    // evaluation must flag exactly the late variant — this is the
    // LateDissent signal (detected after release, but still detected).
    let full = [ok(&[1.0, 2.0]), ok(&[1.0, 2.0]), ok(&[9.0, 9.0])];
    match evaluate(&full, Metric::strict(), VotingPolicy::Majority) {
        Verdict::Diverged { majority: Some(sel), dissenting, .. } => {
            assert_eq!(sel[0].data(), &[1.0, 2.0]);
            assert_eq!(dissenting, vec![2]);
        }
        other => panic!("late dissent must be flagged, got {other:?}"),
    }
}

#[test]
fn two_of_three_quorum_then_late_crash() {
    // Same release point, but the straggler dies instead of dissenting.
    let early = [ok(&[4.0]), ok(&[4.0])];
    assert!(has_quorum(&early, 3, Metric::strict()).is_some());

    let full = [ok(&[4.0]), ok(&[4.0]), crashed("late sigsegv")];
    match evaluate(&full, Metric::strict(), VotingPolicy::Majority) {
        Verdict::Diverged { majority: Some(_), dissenting, .. } => {
            assert_eq!(dissenting, vec![2]);
        }
        other => panic!("late crash must be flagged, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Panel rejoin: the voting edges only a live recovered deployment has.
// ---------------------------------------------------------------------

const PANEL: usize = 3;
const MVX_PARTITION: usize = 1;
const BATCH_CAP: u64 = 40;

fn rejoin_config() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(2);
    cfg.claims[MVX_PARTITION] = PartitionMvx::replicated(PANEL);
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.recovery = RecoveryPolicy::enabled();
    cfg.checkpoint_deadline_ms = 300;
    cfg
}

fn rejoin_input(model: &Model, salt: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| (((i as u64 + 29 * salt) % 97) as f32 - 48.0) / 48.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

#[test]
fn recovered_variant_votes_again_on_the_next_covered_checkpoint() {
    // A replica hangs, is quarantined by the watchdog, and is replaced.
    // The proof that the replacement genuinely *votes* — rather than the
    // panel limping on with survivors — is a later transcribed pass whose
    // `agreeing` count is back to the full panel size.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 3).expect("builds");
    let inputs: Vec<Tensor> = (0..3).map(|s| rejoin_input(&model, s)).collect();
    let mut d = Deployment::builder(model)
        .config(rejoin_config())
        .fault(
            FaultDescriptor::Stall(StallFault { from_batch: 1, mode: StallMode::Hang }),
            Some((MVX_PARTITION, 2)),
        )
        .build()
        .expect("deploys");

    let mut healed = false;
    for b in 0..BATCH_CAP {
        let idx = (b % inputs.len() as u64) as usize;
        d.infer(&inputs[idx]).expect("majority must keep serving");
        let events = d.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            healed = d.healed_after(qp, qv, qb, PANEL);
            if healed {
                assert_eq!((qp, qv), (MVX_PARTITION, 2));
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(healed, "no full-strength pass after the rejoin:\n{}", d.events().render());
    // Before the rejoin the passes tallied only the survivors, after it
    // the whole panel — never more than the panel, never fewer than a
    // majority.
    for &(p, b, a) in &d.transcript().passes() {
        if p == MVX_PARTITION {
            assert!(a * 2 > PANEL && a <= PANEL, "impossible tally {a} at batch {b}");
        }
    }
    d.shutdown();
}

#[test]
fn stale_pre_quarantine_frame_is_ignored_not_revoted() {
    // A delayed replica answers *after* the watchdog quarantined it: its
    // response frame carries the pre-quarantine channel epoch and must be
    // dropped, not counted as a fresh vote. Inputs cycle, so if the stale
    // frame were accepted for a later batch it would dissent and surface
    // as a DivergenceDetected — the absence of any divergence after the
    // quarantine, plus oracle-identical outputs, is the proof.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).expect("builds");
    let inputs: Vec<Tensor> = (0..3).map(|s| rejoin_input(&model, s)).collect();

    let mut clean = Deployment::builder(
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).expect("builds"),
    )
    .config(rejoin_config())
    .build()
    .expect("oracle deploys");
    let expected: Vec<Tensor> =
        inputs.iter().map(|i| clean.infer(i).expect("oracle runs")).collect();
    clean.shutdown();

    let mut d = Deployment::builder(
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5).expect("builds"),
    )
    .config(rejoin_config())
    .fault(
        // Three times the checkpoint deadline: the answer always lands
        // well after the quarantine bumped the epoch.
        FaultDescriptor::Stall(StallFault {
            from_batch: 1,
            mode: StallMode::Delay { delay_ms: 900 },
        }),
        Some((MVX_PARTITION, 0)),
    )
    .build()
    .expect("deploys");

    let mut healed = false;
    for b in 0..BATCH_CAP {
        let idx = (b % inputs.len() as u64) as usize;
        let out = d.infer(&inputs[idx]).expect("majority must keep serving");
        assert!(
            bits_equal(&out, &expected[idx]),
            "batch {b}: stale frame corrupted the forwarded output"
        );
        let events = d.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            healed = d.healed_after(qp, qv, qb, PANEL);
            if healed {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(healed, "panel never healed:\n{}", d.events().render());

    // The only detection is the watchdog's own late-dissent/quarantine:
    // the stale frame itself must never have been evaluated as a vote.
    let quarantine_batch = d.events().quarantines()[0].2;
    let spurious: Vec<_> = d
        .events()
        .events()
        .iter()
        .filter(|e| {
            matches!(e, MonitorEvent::DivergenceDetected { partition, batch, .. }
                if *partition == MVX_PARTITION && *batch > quarantine_batch)
        })
        .cloned()
        .collect();
    assert!(spurious.is_empty(), "stale frame was counted as a vote: {spurious:?}");
    d.shutdown();
}

#[test]
fn minority_arrivals_never_release_early() {
    // 1 arrival of a 4-panel (or a 2-2 split) is not a strict majority:
    // the async path must keep waiting rather than release.
    assert!(has_quorum(&[ok(&[1.0])], 4, Metric::strict()).is_none());
    let split = [ok(&[1.0]), ok(&[2.0])];
    assert!(has_quorum(&split, 4, Metric::strict()).is_none());
    // Even unanimous arrivals are not a quorum of the *full* panel when
    // too few have arrived.
    let two = [ok(&[1.0]), ok(&[1.0])];
    assert!(has_quorum(&two, 5, Metric::strict()).is_none());
}
