//! Shedding × recovery interaction: a replica quarantined mid-burst
//! must not lose or double-serve admitted requests, overload shed at the
//! door must be visible — distinctly — to both the submitting client and
//! the `serve.*` counters, and the door's bounds are on what is in
//! flight: a hung replica cannot make them admit more.
//!
//! The burst setup forces both behaviours at once: tiny bounds (4 in
//! flight, 2 per tenant) under a 6-client burst guarantee sheds, while
//! replica 0 carries a scheduled stall fault so the core watchdog
//! quarantines one of its panel variants and the monitor re-provisions
//! it while the pool is still serving the burst.

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::Deployment;
use mvtee_faults::{FaultDescriptor, StallFault, StallMode};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_serve::{ReplicaPool, RequestOutcome, ServeConfig, ServeFrontend, ShedReason};
use mvtee_tensor::Tensor;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Held by the tests that check `serve.shed_*` deltas: the counters are
/// process-wide, so two shedding tests must not overlap.
static SHEDDING: Mutex<()> = Mutex::new(());

const SEED: u64 = 23;
const PANEL: usize = 3;
const MODEL_KEY: &str = "zoo";
const CLIENTS: usize = 6;
const PER_CLIENT: usize = 16;

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn burst_input(model: &zoo::Model) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 89) as f32 - 44.0) / 44.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

/// Replicated 2-of-3 panels with recovery enabled: a quarantined member
/// leaves a strict majority serving while it is re-provisioned.
fn recovery_mvx() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(2);
    for claim in &mut cfg.claims {
        *claim = PartitionMvx::replicated(PANEL);
    }
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.recovery = RecoveryPolicy::enabled();
    cfg.checkpoint_deadline_ms = 300;
    cfg
}

#[test]
fn quarantine_mid_burst_loses_nothing_and_sheds_are_distinct() {
    let _shedding = SHEDDING.lock().unwrap_or_else(PoisonError::into_inner);
    let shed_total0 = mvtee_telemetry::counter("serve.shed_total").get();
    let quarantined0 = mvtee_telemetry::counter("core.recovery.quarantined").get();
    let recovered0 = mvtee_telemetry::counter("core.recovery.recovered").get();

    // Serial reference for the burst input.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let input = burst_input(&model);
    let mut reference_dep = Deployment::builder(model)
        .config(recovery_mvx())
        .partition_seed(SEED)
        .variant_seed(SEED)
        .build()
        .expect("reference builds");
    let reference = reference_dep.infer(&input).expect("reference inference");
    reference_dep.shutdown();

    // 2-replica pool; replica 0 stalls one panel variant from batch 2.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let stall = FaultDescriptor::Stall(StallFault { from_batch: 2, mode: StallMode::Hang });
    let deployments = Deployment::builder(model)
        .config(recovery_mvx())
        .partition_seed(SEED)
        .variant_seed(SEED)
        .build_many_with(2, move |r, b| {
            if r == 0 {
                b.fault(stall.clone(), Some((1, 0)))
            } else {
                b
            }
        })
        .expect("pool builds");
    let pool = ReplicaPool::new(MODEL_KEY, deployments).expect("pool wraps");
    let cfg = ServeConfig {
        max_queue_depth: 4,
        per_tenant_quota: 2,
        default_deadline_ms: 30_000,
    };
    let frontend = ServeFrontend::start(vec![pool], cfg);
    let events = frontend.replica_events(MODEL_KEY, 0).expect("replica 0 exists");

    // The burst: every client fires its submissions back to back and
    // only then waits for its admitted tickets, so the tiny bounds are
    // guaranteed to overflow while the stalled replica slows the pool.
    let mut admitted_ids: Vec<u64> = Vec::new();
    let mut response_ids: Vec<u64> = Vec::new();
    let mut shed_count = 0u64;
    let mut outputs_checked = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..CLIENTS {
            let handle = frontend.handle();
            let input = input.clone();
            joins.push(scope.spawn(move || {
                let tenant = format!("tenant-{c}");
                let mut tickets = Vec::new();
                let mut sheds = Vec::new();
                for _ in 0..PER_CLIENT {
                    match handle.submit(&tenant, MODEL_KEY, input.clone()) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(reason) => {
                            // Shed submissions are rejected synchronously
                            // with a structured reason — distinct from any
                            // served response.
                            assert!(matches!(
                                reason,
                                ShedReason::QueueFull | ShedReason::Quota
                            ));
                            sheds.push(reason);
                        }
                    }
                }
                let admitted: Vec<u64> = tickets.iter().map(|t| t.id).collect();
                let responses: Vec<_> = tickets
                    .into_iter()
                    .map(|t| t.wait().expect("admitted requests always resolve"))
                    .collect();
                (admitted, responses, sheds.len() as u64)
            }));
        }
        for j in joins {
            let (admitted, responses, sheds) = j.join().expect("burst client");
            admitted_ids.extend(admitted);
            shed_count += sheds;
            for resp in responses {
                response_ids.push(resp.id);
                match resp.outcome {
                    RequestOutcome::Ok(tensor) => {
                        assert!(
                            bits_equal(&tensor, &reference),
                            "served output differs from the serial reference"
                        );
                        outputs_checked += 1;
                    }
                    RequestOutcome::Failed(detail) => {
                        panic!("admitted request failed during recovery: {detail}")
                    }
                    RequestOutcome::Expired => {
                        panic!("admitted request expired despite a 30 s deadline")
                    }
                }
            }
        }
    });

    // Exactly-once: every admitted id resolved exactly once, nothing
    // lost, nothing double-served.
    assert_eq!(admitted_ids.len(), response_ids.len(), "lost or extra responses");
    let unique_admitted: BTreeSet<u64> = admitted_ids.iter().copied().collect();
    let unique_responses: BTreeSet<u64> = response_ids.iter().copied().collect();
    assert_eq!(unique_admitted.len(), admitted_ids.len(), "duplicate admitted ids");
    assert_eq!(unique_responses.len(), response_ids.len(), "double-served ids");
    assert_eq!(unique_admitted, unique_responses, "admitted/response id sets differ");
    assert!(outputs_checked > 0, "burst must serve at least one request");

    // Overload must actually have shed, and the counter delta must
    // match what the clients saw at the door.
    assert!(shed_count > 0, "a 4-request bound under a {CLIENTS}x{PER_CLIENT} burst must shed");
    assert_eq!(
        mvtee_telemetry::counter("serve.shed_total").get() - shed_total0,
        shed_count,
        "serve.shed_total must count exactly the rejected submissions"
    );

    // The stall must have tripped quarantine during the burst; keep a
    // trickle flowing until the monitor rejoins the variant
    // (probation needs fresh checkpoints to vote against). The wait is
    // bounded by the MVX config's own detect→react deadline.
    let mvx = recovery_mvx();
    let deadline = Instant::now() + mvx.heal_deadline();
    let poll = Duration::from_millis(50);
    let handle = frontend.handle();
    while Instant::now() < deadline {
        if !events.recoveries().is_empty() {
            break;
        }
        if let Ok(ticket) = handle.submit("probe", MODEL_KEY, input.clone()) {
            let resp = ticket.wait().expect("probe resolves");
            if let RequestOutcome::Ok(tensor) = resp.outcome {
                assert!(bits_equal(&tensor, &reference));
            }
        }
        std::thread::sleep(poll);
    }
    assert!(!events.quarantines().is_empty(), "the stall must trip a quarantine");
    assert!(!events.recoveries().is_empty(), "the quarantined variant must rejoin");
    assert!(
        mvtee_telemetry::counter("core.recovery.quarantined").get() > quarantined0,
        "core.recovery.quarantined must advance"
    );
    assert!(
        mvtee_telemetry::counter("core.recovery.recovered").get() > recovered0,
        "core.recovery.recovered must advance"
    );

    frontend.shutdown();
}

/// Tickets resolve as results leave the pipeline, not group by group:
/// four requests submitted back to back to a one-replica pool whose
/// third pipeline batch meets a hung variant. The third waits out the
/// checkpoint deadline; the two ahead of it must not.
#[test]
fn early_requests_are_answered_before_the_watchdog_fires_for_a_later_one() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let input = burst_input(&model);
    let mut reference_dep = Deployment::builder(model)
        .config(recovery_mvx())
        .partition_seed(SEED)
        .variant_seed(SEED)
        .build()
        .expect("reference builds");
    let reference = reference_dep.infer(&input).expect("reference inference");
    reference_dep.shutdown();

    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let stall = FaultDescriptor::Stall(StallFault { from_batch: 2, mode: StallMode::Hang });
    let deployment = Deployment::builder(model)
        .config(recovery_mvx())
        .partition_seed(SEED)
        .variant_seed(SEED)
        .fault(stall, Some((1, 0)))
        .build()
        .expect("replica builds");
    let pool = ReplicaPool::new(MODEL_KEY, vec![deployment]).expect("pool wraps");
    let frontend = ServeFrontend::start(vec![pool], ServeConfig::default());

    let handle = frontend.handle();
    let tickets: Vec<_> = (0..4)
        .map(|_| handle.submit("burst", MODEL_KEY, input.clone()).expect("admitted"))
        .collect();
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("admitted requests always resolve")).collect();

    let deadline = recovery_mvx().checkpoint_deadline();
    assert!(
        responses[2].latency >= deadline,
        "pipeline batch 2 must wait out the hung variant: {:?}",
        responses[2].latency
    );
    for resp in &responses[..2] {
        assert!(
            resp.latency < deadline / 2,
            "request {} waited for a later one's watchdog: {:?}",
            resp.id,
            resp.latency
        );
    }
    for resp in responses {
        match resp.outcome {
            RequestOutcome::Ok(tensor) => assert!(bits_equal(&tensor, &reference)),
            other => panic!("request {} did not complete: {other:?}", resp.id),
        }
    }
    frontend.shutdown();
}

/// One replica, its replicated partition stalled by a hung variant from
/// the first batch: every admitted request stays in flight for the
/// 3-s checkpoint deadline, so nothing but the bounds limits admission.
fn hung_replica() -> (ServeFrontend, Tensor, Tensor) {
    let mut cfg = MvxConfig::fast_path(2);
    cfg.claims[1] = PartitionMvx::replicated(PANEL);
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.checkpoint_deadline_ms = 3_000;
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let input = burst_input(&model);
    let builder =
        Deployment::builder(model).config(cfg).partition_seed(SEED).variant_seed(SEED);
    let mut reference_dep = builder.clone().build().expect("reference builds");
    let reference = reference_dep.infer(&input).expect("reference inference");
    reference_dep.shutdown();
    let hang = FaultDescriptor::Stall(StallFault { from_batch: 0, mode: StallMode::Hang });
    let deployment = builder.fault(hang, Some((1, 0))).build().expect("replica builds");
    let pool = ReplicaPool::new(MODEL_KEY, vec![deployment]).expect("pool wraps");
    let cfg = ServeConfig { max_queue_depth: 8, per_tenant_quota: 2, default_deadline_ms: 60_000 };
    (ServeFrontend::start(vec![pool], cfg), input, reference)
}

/// Admission bounds what is in flight, not what waits in a queue: with
/// every request held up by a hung variant, a tenant sending 200 back to
/// back gets exactly its quota of 2, four tenants fill the total bound of
/// 8, a fifth gets nothing, and the door reopens once answers come back.
#[test]
fn admission_bounds_the_requests_in_flight() {
    let _shedding = SHEDDING.lock().unwrap_or_else(PoisonError::into_inner);
    let quota0 = mvtee_telemetry::counter("serve.shed_quota").get();
    let full0 = mvtee_telemetry::counter("serve.shed_queue_full").get();
    let (frontend, input, reference) = hung_replica();
    let handle = frontend.handle();

    let mut tickets = Vec::new();
    let mut shed_quota = 0u64;
    for _ in 0..200 {
        match handle.submit("hot", MODEL_KEY, input.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(ShedReason::Quota) => shed_quota += 1,
            Err(other) => panic!("the hot tenant shed {other:?}, not Quota"),
        }
    }
    assert_eq!((tickets.len(), shed_quota), (2, 198), "one tenant is held to its quota");
    for tenant in ["b", "c", "d"] {
        for _ in 0..2 {
            tickets.push(handle.submit(tenant, MODEL_KEY, input.clone()).expect("within bounds"));
        }
    }
    let mut shed_full = 0u64;
    for _ in 0..2 {
        assert_eq!(handle.submit("e", MODEL_KEY, input.clone()).err(), Some(ShedReason::QueueFull));
        shed_full += 1;
    }
    let stats = frontend.queue_stats();
    assert_eq!((stats.admitted, stats.depth), (8, 8), "8 admitted, all 8 in flight");
    assert_eq!((stats.shed_quota, stats.shed_queue_full), (shed_quota, shed_full));
    assert_eq!(mvtee_telemetry::counter("serve.shed_quota").get() - quota0, shed_quota);
    assert_eq!(mvtee_telemetry::counter("serve.shed_queue_full").get() - full0, shed_full);

    // The first answer waits out the hung variant's deadline; it gives its
    // slot back, and the door admits again.
    let first = tickets.remove(0).wait().expect("answered");
    assert!(matches!(first.outcome, RequestOutcome::Ok(ref t) if bits_equal(t, &reference)));
    tickets.push(handle.submit("e", MODEL_KEY, input.clone()).expect("admitted again"));
    for ticket in tickets {
        let resp = ticket.wait().expect("admitted requests always resolve");
        match resp.outcome {
            RequestOutcome::Ok(tensor) => assert!(bits_equal(&tensor, &reference)),
            other => panic!("request {} did not complete: {other:?}", resp.id),
        }
    }
    assert_eq!(frontend.queue_stats().depth, 0);
    frontend.shutdown();
}

/// A stop answers what it was handed, at the serving level too: shutting
/// the frontend down with 32 requests in flight answers all 32, `Ok`.
#[test]
fn shutdown_answers_every_request_in_flight() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let input = burst_input(&model);
    let builder = Deployment::builder(model)
        .config(MvxConfig::fast_path(3))
        .partition_seed(SEED)
        .variant_seed(SEED);
    let mut reference_dep = builder.clone().build().expect("reference builds");
    let reference = reference_dep.infer(&input).expect("reference inference");
    reference_dep.shutdown();
    let pool = ReplicaPool::new(MODEL_KEY, builder.build_many(2).expect("pool builds"))
        .expect("pool wraps");
    let frontend = ServeFrontend::start(vec![pool], ServeConfig::default());
    let handle = frontend.handle();
    let tickets: Vec<_> = (0..32)
        .map(|i| handle.submit(&format!("t{}", i % 4), MODEL_KEY, input.clone()).expect("admitted"))
        .collect();
    assert!(frontend.queue_stats().depth > 0, "nothing left in flight to stop");
    frontend.shutdown();
    for ticket in tickets {
        let resp = ticket.wait_timeout(Duration::ZERO).expect("answered before shutdown returned");
        match resp.outcome {
            RequestOutcome::Ok(tensor) => assert!(bits_equal(&tensor, &reference)),
            other => panic!("request {} was not answered Ok: {other:?}", resp.id),
        }
    }
    assert_eq!(
        handle.submit("late", MODEL_KEY, input).err(),
        Some(ShedReason::ShuttingDown),
        "a stopped frontend admits nothing"
    );
}
