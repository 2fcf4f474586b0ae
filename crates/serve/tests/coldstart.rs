//! Cold-start integration: unknown model keys are built on demand
//! through a [`ColdStartProvider`], saturated providers shed
//! [`ShedReason::ColdStart`] at the door, and failed builds surface as
//! precise request outcomes instead of hanging tickets.

use mvtee::Deployment;
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_serve::{
    ColdStartProvider, ReplicaPool, RequestOutcome, ServeConfig, ServeFrontend, ShedReason,
};
use mvtee_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};

fn pool_for(key: &str) -> ReplicaPool {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).unwrap();
    let builder = Deployment::builder(model).partitions(2);
    ReplicaPool::from_builder(key, builder, 1).unwrap()
}

fn input() -> Tensor {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).unwrap();
    Tensor::zeros(model.input_shape.dims())
}

/// A provider the tests can saturate or break at will.
struct TestProvider {
    saturated: AtomicBool,
    builds: AtomicUsize,
    fail: bool,
}

impl TestProvider {
    fn new(fail: bool) -> Self {
        Self {
            saturated: AtomicBool::new(false),
            builds: AtomicUsize::new(0),
            fail,
        }
    }
}

impl ColdStartProvider for TestProvider {
    fn cold_start(&self, model_key: &str) -> Result<ReplicaPool, String> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        if self.fail {
            return Err(format!("no sealed bundle for {model_key}"));
        }
        Ok(pool_for(model_key))
    }

    fn saturated(&self) -> bool {
        self.saturated.load(Ordering::SeqCst)
    }
}

#[test]
fn unknown_key_cold_starts_once_then_serves() {
    let provider = Arc::new(TestProvider::new(false));
    let frontend =
        ServeFrontend::start_with_cold_start(Vec::new(), ServeConfig::default(), provider.clone());
    let handle = frontend.handle();

    let tickets: Vec<_> = (0..3)
        .map(|i| {
            handle
                .submit(&format!("tenant-{i}"), "zoo/mnasnet", input())
                .expect("unsaturated provider must admit")
        })
        .collect();
    for ticket in tickets {
        let resp = ticket.wait().unwrap();
        assert!(
            matches!(resp.outcome, RequestOutcome::Ok(_)),
            "cold-started model must serve: {:?}",
            resp.outcome
        );
    }
    assert_eq!(provider.builds.load(Ordering::SeqCst), 1, "one build per key");
    assert_eq!(frontend.pool_replicas("zoo/mnasnet"), Some(1));
    assert_eq!(frontend.model_keys(), vec!["zoo/mnasnet".to_string()]);
    frontend.shutdown();
}

#[test]
fn saturated_registry_sheds_unknown_keys_but_serves_known_ones() {
    let provider = Arc::new(TestProvider::new(false));
    provider.saturated.store(true, Ordering::SeqCst);
    let frontend = ServeFrontend::start_with_cold_start(
        vec![pool_for("warm/model")],
        ServeConfig::default(),
        provider.clone(),
    );
    let handle = frontend.handle();

    match handle.submit("t", "cold/model", input()) {
        Err(reason) => assert_eq!(reason, ShedReason::ColdStart),
        Ok(_) => panic!("saturated provider must shed unknown keys"),
    }
    assert_eq!(provider.builds.load(Ordering::SeqCst), 0, "shed before any build");

    let resp = handle
        .submit("t", "warm/model", input())
        .expect("known keys are unaffected by saturation")
        .wait()
        .unwrap();
    assert!(matches!(resp.outcome, RequestOutcome::Ok(_)));

    let stats = frontend.queue_stats();
    assert_eq!(stats.shed_coldstart, 1);
    assert_eq!(stats.submitted, 2, "shed submissions still count");
    frontend.shutdown();
}

#[test]
fn failed_cold_start_fails_the_request_with_the_reason() {
    let provider = Arc::new(TestProvider::new(true));
    let frontend =
        ServeFrontend::start_with_cold_start(Vec::new(), ServeConfig::default(), provider);
    let resp = frontend
        .handle()
        .submit("t", "ghost/model", input())
        .expect("admitted — saturation is the only door-time shed")
        .wait()
        .unwrap();
    match resp.outcome {
        RequestOutcome::Failed(detail) => {
            assert!(detail.contains("cold start failed"), "got {detail:?}");
            assert!(detail.contains("no sealed bundle"), "got {detail:?}");
        }
        other => panic!("expected failure, got {other:?}"),
    }
    frontend.shutdown();
}

/// A provider whose builds block until the test releases them. (A
/// provider is shared between threads, and a `Receiver` is not `Sync`.)
struct GatedProvider {
    release: Mutex<Receiver<()>>,
}

impl ColdStartProvider for GatedProvider {
    fn cold_start(&self, model_key: &str) -> Result<ReplicaPool, String> {
        self.release.lock().unwrap().recv().map_err(|_| "gate dropped".to_string())?;
        Ok(pool_for(model_key))
    }

    fn saturated(&self) -> bool {
        false
    }
}

#[test]
fn blocked_cold_start_does_not_stall_other_models() {
    let (gate, release) = channel();
    let frontend = ServeFrontend::start_with_cold_start(
        vec![pool_for("warm/model")],
        ServeConfig::default(),
        Arc::new(GatedProvider { release: Mutex::new(release) }),
    );
    let handle = frontend.handle();

    // This build blocks on the gate; the request parks behind it.
    let cold_ticket = handle.submit("t", "cold/model", input()).expect("admitted");
    // While the build is stuck, the warm model must keep serving.
    let warm = handle
        .submit("t", "warm/model", input())
        .expect("admitted")
        .wait_timeout(std::time::Duration::from_secs(10))
        .expect("warm model must serve while a cold start is in flight");
    assert!(matches!(warm.outcome, RequestOutcome::Ok(_)), "got {:?}", warm.outcome);

    // Release the build: the parked request resolves.
    gate.send(()).unwrap();
    let cold = cold_ticket.wait().unwrap();
    assert!(matches!(cold.outcome, RequestOutcome::Ok(_)), "got {:?}", cold.outcome);
    frontend.shutdown();
}

#[test]
fn without_a_provider_unknown_keys_still_fail_fast() {
    let frontend = ServeFrontend::start(vec![pool_for("only/model")], ServeConfig::default());
    let resp = frontend
        .handle()
        .submit("t", "missing/model", input())
        .expect("no provider: admission cannot shed on cold start")
        .wait()
        .unwrap();
    assert!(
        matches!(resp.outcome, RequestOutcome::Failed(ref d) if d.contains("unknown model key")),
        "got {:?}",
        resp.outcome
    );
    frontend.shutdown();
}
