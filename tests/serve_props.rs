//! Serving determinism properties: any interleaving of requests across
//! tenants through admission → replica pool → pipeline must yield
//! outputs byte-identical to serial single-request runs.
//!
//! One frontend (2 replicas over the same model) is shared by every
//! proptest case — the property is about request interleavings, not
//! about deployment construction, and replica workers are warm state
//! worth amortising.

use mvtee::config::MvxConfig;
use mvtee::Deployment;
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_serve::{RequestOutcome, ReplicaPool, ServeConfig, ServeFrontend, ServeHandle, Ticket};
use mvtee_tensor::Tensor;
use proptest::prelude::*;
use std::sync::OnceLock;

const SEED: u64 = 11;
const REPLICAS: usize = 2;
const INPUTS: u64 = 4;
const MODEL_KEY: &str = "zoo";

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn serve_input(model: &zoo::Model, index: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n)
            .map(|i| (((i as u64 + 29 * index) % 71) as f32 - 35.0) / 35.0)
            .collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

struct Harness {
    handle: ServeHandle,
    inputs: Vec<Tensor>,
    reference: Vec<Tensor>,
}

/// Builds the shared frontend once: a serial reference deployment
/// answers each distinct input, then the same builder seeds a 2-replica
/// pool behind a frontend (leaked so its workers live for the whole
/// test binary).
fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
        let inputs: Vec<Tensor> = (0..INPUTS).map(|i| serve_input(&model, i)).collect();
        let mut reference_dep = Deployment::builder(model)
            .config(MvxConfig::fast_path(2))
            .partition_seed(SEED)
            .variant_seed(SEED)
            .build()
            .expect("reference builds");
        let reference: Vec<Tensor> = inputs
            .iter()
            .map(|input| reference_dep.infer(input).expect("reference inference"))
            .collect();
        reference_dep.shutdown();

        let frontend = Box::leak(Box::new(start_frontend()));
        Harness {
            handle: frontend.handle(),
            inputs,
            reference,
        }
    })
}

/// A 2-replica pool over the harness model behind a default frontend.
fn start_frontend() -> ServeFrontend {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model");
    let deployments = Deployment::builder(model)
        .config(MvxConfig::fast_path(2))
        .partition_seed(SEED)
        .variant_seed(SEED)
        .build_many(REPLICAS)
        .expect("pool builds");
    let pool = ReplicaPool::new(MODEL_KEY, deployments).expect("pool wraps");
    ServeFrontend::start(vec![pool], ServeConfig::default())
}

/// Submits the planned requests from `threads` concurrent client
/// threads (round-robin split) and returns every (input index,
/// response outcome) observed.
fn run_interleaved(
    plan: &[(u8, u8)],
    threads: usize,
) -> Vec<(u64, RequestOutcome)> {
    let h = harness();
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let chunk: Vec<(u8, u8)> = plan
                .iter()
                .enumerate()
                .filter(|(i, _)| i % threads == t)
                .map(|(_, &p)| p)
                .collect();
            joins.push(scope.spawn(move || {
                let mut got: Vec<(u64, Ticket)> = Vec::new();
                for (tenant, input_index) in chunk {
                    let input_index = u64::from(input_index) % INPUTS;
                    let ticket = h
                        .handle
                        .submit(
                            &format!("tenant-{tenant}"),
                            MODEL_KEY,
                            h.inputs[input_index as usize].clone(),
                        )
                        .expect("property load never sheds");
                    got.push((input_index, ticket));
                }
                got.into_iter()
                    .map(|(idx, ticket)| {
                        (idx, ticket.wait().expect("response arrives").outcome)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for j in joins {
            results.extend(j.join().expect("client thread"));
        }
    });
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of tenant requests — arbitrary tenants, inputs,
    /// arrival order, and client-thread split — produces outputs
    /// byte-identical to the serial single-request reference.
    #[test]
    fn interleavings_are_byte_identical_to_serial(
        plan in proptest::collection::vec((0u8..4, 0u8..INPUTS as u8), 1..14),
        threads in 1usize..4,
    ) {
        let results = run_interleaved(&plan, threads);
        prop_assert_eq!(results.len(), plan.len());
        for (input_index, outcome) in results {
            match outcome {
                RequestOutcome::Ok(tensor) => {
                    prop_assert!(
                        bits_equal(&tensor, &harness().reference[input_index as usize]),
                        "output for input {} differs from the serial reference",
                        input_index
                    );
                }
                other => prop_assert!(false, "request did not complete: {:?}", other),
            }
        }
    }
}

/// A lone request is served without waiting for peers: nothing between
/// admission and the replica's pipeline holds it back to form a group,
/// so it answers — byte-exact — in well under a second.
#[test]
fn lone_request_is_served_without_waiting_for_peers() {
    let h = harness();
    let start = std::time::Instant::now();
    let ticket = h
        .handle
        .submit("loner", MODEL_KEY, h.inputs[0].clone())
        .expect("admitted");
    let resp = ticket.wait().expect("response arrives");
    let elapsed = start.elapsed();
    match resp.outcome {
        RequestOutcome::Ok(tensor) => {
            assert!(bits_equal(&tensor, &h.reference[0]));
        }
        other => panic!("single request did not complete: {other:?}"),
    }
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "a lone request must go straight to a replica, not wait for peers \
         (took {elapsed:?})"
    );
}

/// A sequential caller sees the slot it just freed: the replica releases
/// a request's slot before the ticket resolves, so strictly sequential
/// round trips keep tie-breaking to replica 0. (Its own frontend: a
/// neighbouring test's request in flight would rightly move the tie.)
#[test]
fn sequential_round_trips_stay_on_replica_zero() {
    let input = harness().inputs[0].clone();
    let frontend = start_frontend();
    let handle = frontend.handle();
    for round in 0..50 {
        let ticket = handle.submit("sequential", MODEL_KEY, input.clone()).expect("admitted");
        let resp = ticket.wait().expect("response arrives");
        assert!(resp.outcome.is_ok(), "round {round}: {:?}", resp.outcome);
        assert_eq!(resp.replica, Some(0), "round {round} left replica 0");
    }
    frontend.shutdown();
}
