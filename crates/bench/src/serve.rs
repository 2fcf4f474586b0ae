//! The `serve` experiment: multi-tenant load against the serving
//! frontend (`mvtee-serve`).
//!
//! The experiment drives one frontend — admission queue → micro-batcher
//! → replica pool — with a closed-loop phase (each client keeps exactly
//! one request in flight) followed by an open-loop phase (fixed-rate
//! submission), and holds the run to the serving invariants:
//!
//! * **Byte-exact outputs** — every served tensor must match a serial
//!   single-request reference run bit-for-bit, which is what dynamic
//!   micro-batching must preserve (members stay individual pipeline
//!   batches; tensors are never fused).
//! * **Exactly-once accounting** — every admitted request resolves
//!   exactly once (served, failed, or expired); none are lost or
//!   double-served, even while a replica cycles through
//!   quarantine/recovery.
//! * **Recovery under load** — one replica carries a scheduled stall
//!   fault; the core watchdog must quarantine the wedged variant and
//!   the recovery manager must rejoin it while the pool keeps serving.
//!
//! Results land in `BENCH_serve.json` (throughput, p50/p95/p99
//! end-to-end latency, shed/expired counters, per-replica batch counts,
//! recovery counts) so future PRs have a serving trajectory to beat.

use mvtee::config::{DegradationPolicy, MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy};
use mvtee::Deployment;
use mvtee_faults::{FaultDescriptor, StallFault, StallMode};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_serve::{QueueStats, RequestOutcome, ServeConfig, ServeFrontend, ReplicaPool};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Partitions in the served model's MVX config.
const PARTITIONS: usize = 2;
/// Replicated panel size per partition (2-of-3 keeps a strict majority
/// while the faulted variant is quarantined).
const PANEL: usize = 3;
/// Checkpoint deadline driving the straggler watchdog.
const DEADLINE_MS: u64 = 300;
/// Distinct inputs cycled by the load generator (and pre-computed by
/// the serial reference run).
const INPUT_PERIOD: u64 = 8;
/// Model key the single pool serves.
const MODEL_KEY: &str = "zoo";

/// Serve experiment parameters.
#[derive(Debug, Clone)]
pub struct ServeSettings {
    /// Master seed: model weights, inputs, and diversification all
    /// derive from it.
    pub seed: u64,
    /// Pool size (the acceptance gate wants at least 2).
    pub replicas: usize,
    /// Distinct tenants cycling over the closed-loop clients.
    pub tenants: usize,
    /// Closed-loop client threads (one request in flight each).
    pub clients: usize,
    /// Requests per closed-loop client.
    pub requests_per_client: usize,
    /// Open-loop submissions after the closed-loop phase.
    pub open_loop_requests: usize,
    /// Open-loop submission rate, requests per second.
    pub open_loop_rate: f64,
    /// Inject a stall fault into replica 0 so quarantine/recovery is
    /// exercised under load.
    pub inject_recovery: bool,
    /// Zoo model served by the pool.
    pub model: ModelKind,
    /// Zoo scale.
    pub profile: ScaleProfile,
}

impl ServeSettings {
    /// CI smoke configuration.
    pub fn quick(seed: u64) -> Self {
        ServeSettings {
            seed,
            replicas: 2,
            tenants: 3,
            clients: 4,
            requests_per_client: 24,
            open_loop_requests: 48,
            open_loop_rate: 400.0,
            inject_recovery: true,
            model: ModelKind::MnasNet,
            profile: ScaleProfile::Test,
        }
    }

    /// Full configuration: more replicas, more clients, more load.
    pub fn full(seed: u64) -> Self {
        ServeSettings {
            seed,
            replicas: 3,
            tenants: 6,
            clients: 8,
            requests_per_client: 48,
            open_loop_requests: 192,
            open_loop_rate: 600.0,
            inject_recovery: true,
            model: ModelKind::MnasNet,
            profile: ScaleProfile::Test,
        }
    }
}

/// Everything the serve experiment produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The master seed.
    pub seed: u64,
    /// Run-configuration fingerprint (model, graph hash, panel shape).
    pub fingerprint: String,
    /// Pool size.
    pub replicas: usize,
    /// Requests submitted (admitted + shed).
    pub submitted: u64,
    /// Requests that produced an `Ok` tensor.
    pub completed: u64,
    /// Requests that resolved `Failed`.
    pub failed: u64,
    /// Requests that expired before dispatch.
    pub expired: u64,
    /// Admitted requests that never resolved (must be 0).
    pub lost: u64,
    /// Admitted requests that resolved more than once (must be 0).
    pub duplicated: u64,
    /// Served outputs that differed from the serial reference.
    pub mismatches: Vec<String>,
    /// Completed requests per wall-clock second of the load phases.
    pub throughput_rps: f64,
    /// Median end-to-end latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile end-to-end latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    pub p99_ms: f64,
    /// Micro-batches served by each replica.
    pub replica_batches: Vec<u64>,
    /// Requests served by each replica.
    pub replica_requests: Vec<u64>,
    /// Quarantine events observed on the faulted replica.
    pub quarantines: usize,
    /// Recovery completions observed on the faulted replica.
    pub recoveries: usize,
    /// Whether the run expected a recovery.
    pub recovery_expected: bool,
    /// Admission counters at the end of the run.
    pub queue: QueueStats,
}

impl ServeReport {
    /// Requests shed by admission control.
    pub fn shed(&self) -> u64 {
        self.queue.shed_queue_full + self.queue.shed_quota
    }

    /// The gate CI holds the smoke run to.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.mismatches.is_empty() {
            failures.push(format!(
                "{} output mismatch(es) vs the serial reference",
                self.mismatches.len()
            ));
        }
        if self.lost > 0 {
            failures.push(format!("{} admitted request(s) were lost", self.lost));
        }
        if self.duplicated > 0 {
            failures.push(format!(
                "{} request(s) resolved more than once",
                self.duplicated
            ));
        }
        if self.replica_batches.contains(&0) {
            failures.push(format!(
                "idle replica: per-replica batches {:?}",
                self.replica_batches
            ));
        }
        if self.recovery_expected && (self.quarantines == 0 || self.recoveries == 0) {
            failures.push(format!(
                "expected quarantine+recovery under load, saw {} quarantine(s), {} recovery(ies)",
                self.quarantines, self.recoveries
            ));
        }
        failures
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# serve seed={} replicas={} → {} submitted, {} completed, {} failed, {} expired, {} shed",
            self.seed, self.replicas, self.submitted, self.completed, self.failed,
            self.expired, self.shed(),
        );
        let _ = writeln!(
            out,
            "throughput: {:.1} req/s; e2e latency p50={:.2} ms p95={:.2} ms p99={:.2} ms",
            self.throughput_rps, self.p50_ms, self.p95_ms, self.p99_ms
        );
        let _ = writeln!(
            out,
            "per-replica batches: {:?}; per-replica requests: {:?}",
            self.replica_batches, self.replica_requests
        );
        let _ = writeln!(
            out,
            "faulted replica: {} quarantine(s), {} recovery(ies); lost={} duplicated={}",
            self.quarantines, self.recoveries, self.lost, self.duplicated
        );
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH: {m}");
        }
        for f in self.gate_failures() {
            let _ = writeln!(out, "GATE: {f}");
        }
        out
    }

    /// The machine-readable report (`BENCH_serve.json`).
    pub fn render_json(&self) -> String {
        let list = |v: &[u64]| {
            v.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
        };
        let mut out = String::from("{\n  \"schema\": \"mvtee-bench-serve-v1\",\n");
        out.push_str(&crate::meta_json_line(
            "mvtee-bench-serve-v1",
            self.seed,
            &self.fingerprint,
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"replicas\": {},\n", self.replicas));
        out.push_str(&format!(
            "  \"requests\": {{\"submitted\": {}, \"completed\": {}, \"failed\": {}, \
             \"expired\": {}, \"shed\": {}, \"shed_queue_full\": {}, \"shed_quota\": {}, \
             \"lost\": {}, \"duplicated\": {}}},\n",
            self.submitted,
            self.completed,
            self.failed,
            self.expired,
            self.shed(),
            self.queue.shed_queue_full,
            self.queue.shed_quota,
            self.lost,
            self.duplicated,
        ));
        out.push_str(&format!(
            "  \"throughput_rps\": {:.2},\n  \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}},\n",
            self.throughput_rps, self.p50_ms, self.p95_ms, self.p99_ms
        ));
        out.push_str(&format!(
            "  \"replica_batches\": [{}],\n  \"replica_requests\": [{}],\n",
            list(&self.replica_batches),
            list(&self.replica_requests)
        ));
        out.push_str(&format!(
            "  \"recovery\": {{\"expected\": {}, \"quarantines\": {}, \"recoveries\": {}}},\n",
            self.recovery_expected, self.quarantines, self.recoveries
        ));
        out.push_str(&format!("  \"mismatch_count\": {}\n}}\n", self.mismatches.len()));
        out
    }
}

/// The deterministic input of load-generator slot `index`.
fn serve_input(seed: u64, model: &zoo::Model, index: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_u64 ^ (index % INPUT_PERIOD));
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, model.input_shape.dims()).expect("static input shape")
}

/// Bit-exact tensor equality (NaN-safe).
fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Nearest-rank quantile over an unsorted latency sample, milliseconds.
fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The MVX config every replica (and the serial reference) runs:
/// replicated 2-of-3 panels on both partitions, majority response, and
/// recovery enabled — replicated panels make replica outputs
/// byte-identical to the reference regardless of per-replica variant
/// seeds.
fn serve_mvx() -> MvxConfig {
    let mut mvx = MvxConfig::fast_path(PARTITIONS);
    for claim in &mut mvx.claims {
        *claim = PartitionMvx::replicated(PANEL);
    }
    mvx.response = ResponsePolicy::ContinueWithMajority;
    mvx.degradation = DegradationPolicy::Degrade;
    mvx.recovery = RecoveryPolicy::enabled();
    mvx.checkpoint_deadline_ms = DEADLINE_MS;
    mvx
}

/// One response observed by the load generator.
struct Observed {
    id: u64,
    input_index: u64,
    outcome: RequestOutcome,
    replica: Option<usize>,
    latency: Duration,
}

/// Runs the serve experiment.
pub fn run_serve(s: &ServeSettings) -> ServeReport {
    mvtee_serve::register_serve_metrics();

    // The serial single-request reference: a clean deployment of the
    // identical configuration answering each distinct input once.
    let model = zoo::build(s.model, s.profile, s.seed).expect("zoo model builds");
    let fingerprint = format!(
        "{}-{:016x}-p{}x{}",
        model.kind.display_name(),
        mvtee_runtime::graph_fingerprint(&model.graph),
        PARTITIONS,
        PANEL
    );
    let inputs: Vec<Tensor> =
        (0..INPUT_PERIOD).map(|i| serve_input(s.seed, &model, i)).collect();
    let mut reference_dep = Deployment::builder(model)
        .config(serve_mvx())
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .build()
        .expect("reference deployment builds");
    let reference: Vec<Tensor> = inputs
        .iter()
        .map(|input| reference_dep.infer(input).expect("reference inference"))
        .collect();
    reference_dep.shutdown();

    // The pool: `replicas` deployments from one builder. Replica 0
    // optionally carries a stall fault on partition 1 so the straggler
    // watchdog quarantines a variant mid-burst and the recovery manager
    // rejoins it while the pool serves.
    let model = zoo::build(s.model, s.profile, s.seed).expect("zoo model builds");
    let stall = FaultDescriptor::Stall(StallFault { from_batch: 2, mode: StallMode::Hang });
    let inject = s.inject_recovery;
    let deployments = Deployment::builder(model)
        .config(serve_mvx())
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .build_many_with(s.replicas, move |r, b| {
            if inject && r == 0 {
                b.fault(stall.clone(), Some((1, 0)))
            } else {
                b
            }
        })
        .expect("replica pool builds");
    let pool = ReplicaPool::new(MODEL_KEY, deployments).expect("pool wraps deployments");
    let frontend = ServeFrontend::start(vec![pool], ServeConfig::default());
    let faulted_events = frontend
        .replica_events(MODEL_KEY, 0)
        .expect("replica 0 exists");

    let load_start = Instant::now();

    // Closed-loop phase: `clients` threads, one request in flight each,
    // cycling tenants and a seeded per-client input schedule.
    let mut observed: Vec<Observed> = Vec::new();
    let mut client_threads = Vec::new();
    for c in 0..s.clients {
        let handle = frontend.handle();
        let inputs = inputs.clone();
        let tenant = format!("tenant-{}", c % s.tenants.max(1));
        let per_client = s.requests_per_client;
        let seed = s.seed;
        client_threads.push(std::thread::spawn(move || {
            let mut got: Vec<Observed> = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64) << 17));
            for _ in 0..per_client {
                let input_index = rng.gen_range(0..INPUT_PERIOD);
                match handle.submit(&tenant, MODEL_KEY, inputs[input_index as usize].clone())
                {
                    Ok(ticket) => {
                        let id = ticket.id;
                        match ticket.wait() {
                            Ok(resp) => got.push(Observed {
                                id,
                                input_index,
                                outcome: resp.outcome,
                                replica: resp.replica,
                                latency: resp.latency,
                            }),
                            Err(_) => got.push(Observed {
                                id,
                                input_index,
                                outcome: RequestOutcome::Failed(
                                    "ticket disconnected".to_string(),
                                ),
                                replica: None,
                                latency: Duration::ZERO,
                            }),
                        }
                    }
                    Err(_reason) => { /* shed at the door; counted via QueueStats */ }
                }
            }
            got
        }));
    }
    for t in client_threads {
        observed.extend(t.join().expect("closed-loop client"));
    }

    // Open-loop phase: fixed-rate submission from one thread; tickets
    // resolve concurrently and are all awaited at the end.
    let interval = Duration::from_secs_f64(1.0 / s.open_loop_rate.max(1.0));
    let mut pending = Vec::with_capacity(s.open_loop_requests);
    let handle = frontend.handle();
    let open_start = Instant::now();
    for i in 0..s.open_loop_requests {
        let input_index = (i as u64) % INPUT_PERIOD;
        let tenant = format!("tenant-{}", i % s.tenants.max(1));
        match handle.submit(&tenant, MODEL_KEY, inputs[input_index as usize].clone()) {
            Ok(ticket) => pending.push((input_index, ticket)),
            Err(_reason) => {}
        }
        let next = open_start + interval * (i as u32 + 1);
        if let Some(sleep) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
    }
    for (input_index, ticket) in pending {
        let id = ticket.id;
        match ticket.wait() {
            Ok(resp) => observed.push(Observed {
                id,
                input_index,
                outcome: resp.outcome,
                replica: resp.replica,
                latency: resp.latency,
            }),
            Err(_) => observed.push(Observed {
                id,
                input_index,
                outcome: RequestOutcome::Failed("ticket disconnected".to_string()),
                replica: None,
                latency: Duration::ZERO,
            }),
        }
    }
    let load_elapsed = load_start.elapsed();

    // Keep a trickle of probe traffic flowing until the faulted replica
    // records a recovery (probation needs fresh checkpoints to vote
    // against); probes obey the same byte-exactness check.
    if s.inject_recovery {
        for probe in 0..200u64 {
            if !faulted_events.recoveries().is_empty() {
                break;
            }
            let input_index = probe % INPUT_PERIOD;
            if let Ok(ticket) =
                handle.submit("probe", MODEL_KEY, inputs[input_index as usize].clone())
            {
                let id = ticket.id;
                if let Ok(resp) = ticket.wait() {
                    observed.push(Observed {
                        id,
                        input_index,
                        outcome: resp.outcome,
                        replica: resp.replica,
                        latency: resp.latency,
                    });
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Verify: exactly-once ids, byte-exact outputs.
    let mut ids: Vec<u64> = observed.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    let duplicated = ids.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    let mut mismatches = Vec::new();
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut expired = 0u64;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(observed.len());
    for o in &observed {
        match &o.outcome {
            RequestOutcome::Ok(tensor) => {
                completed += 1;
                latencies_ms.push(o.latency.as_secs_f64() * 1e3);
                if !bits_equal(tensor, &reference[o.input_index as usize]) {
                    mismatches.push(format!(
                        "request {} (input {}, replica {:?}) differs from the serial reference",
                        o.id, o.input_index, o.replica
                    ));
                }
            }
            RequestOutcome::Failed(_) => failed += 1,
            RequestOutcome::Expired => expired += 1,
        }
    }

    let quarantines = faulted_events.quarantines().len();
    let recoveries = faulted_events.recoveries().len();
    let queue = frontend.queue_stats();
    let pool_stats = frontend.pool_stats(MODEL_KEY).expect("pool exists");
    let lost = queue.admitted.saturating_sub(observed.len() as u64);
    frontend.shutdown();

    let throughput = if load_elapsed.as_secs_f64() > 0.0 {
        completed as f64 / load_elapsed.as_secs_f64()
    } else {
        0.0
    };
    ServeReport {
        seed: s.seed,
        fingerprint,
        replicas: s.replicas,
        submitted: queue.submitted,
        completed,
        failed,
        expired,
        lost,
        duplicated,
        mismatches,
        throughput_rps: throughput,
        p50_ms: quantile_ms(&mut latencies_ms.clone(), 0.50),
        p95_ms: quantile_ms(&mut latencies_ms.clone(), 0.95),
        p99_ms: quantile_ms(&mut latencies_ms, 0.99),
        replica_batches: pool_stats.served_batches,
        replica_requests: pool_stats.served_requests,
        quarantines,
        recoveries,
        recovery_expected: s.inject_recovery,
        queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_gate() {
        let mut s = ServeSettings::quick(7);
        s.clients = 2;
        s.requests_per_client = 8;
        s.open_loop_requests = 8;
        let report = run_serve(&s);
        assert!(
            report.gate_failures().is_empty(),
            "gate failures: {:?}\n{}",
            report.gate_failures(),
            report.render_text()
        );
        assert_eq!(report.shed(), 0, "smoke load must not shed");
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"mvtee-bench-serve-v1\""));
        assert!(json.contains("\"mismatch_count\": 0"));
    }
}
