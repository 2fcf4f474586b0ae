//! The `serve` experiment: multi-tenant load against the serving
//! frontend (`mvtee-serve`).
//!
//! The experiment drives one frontend — admission → replica pool →
//! pipeline — with a closed-loop phase (each client keeps exactly
//! one request in flight) followed by an open-loop phase (fixed-rate
//! submission), and holds the run to the serving invariants:
//!
//! * **Byte-exact outputs** — every served tensor must match a serial
//!   single-request reference run bit-for-bit, however requests
//!   interleave inside a replica's pipeline (each stays its own pipeline
//!   batch; tensors are never fused).
//! * **Exactly-once accounting** — every admitted request resolves
//!   exactly once (served, failed, or expired); none are lost or
//!   double-served, even while a replica cycles through
//!   quarantine/recovery.
//! * **Recovery under load** — one replica carries a scheduled stall
//!   fault; the core watchdog must quarantine the wedged variant and
//!   the monitor must re-provision it while the pool keeps serving.
//!
//! Results land in `BENCH_serve.json` (request accounting, shed/expired
//! counters, per-replica request counts, recovery counts). How fast the
//! frontend serves is the benchmark's `serve-small` workload
//! (`throughput_rps`, `latency_p50_ms`), not measured here.

use crate::cli::{CommonArgs, Outcome};
use crate::fixture::{self, Json};
use mvtee_faults::{FaultDescriptor, StallFault, StallMode};
use mvtee_serve::{
    QueueStats, ReplicaPool, RequestOutcome, ServeConfig, ServeFrontend, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Partitions in the served model's MVX config.
const PARTITIONS: usize = 2;
/// Replicated panel size per partition.
const PANEL: usize = 3;
/// Distinct inputs cycled by the load generator (and pre-computed by
/// the serial reference run).
const INPUT_PERIOD: u64 = 8;
/// Model key the single pool serves.
const MODEL_KEY: &str = "zoo";
/// Where the report lands unless `--out` says otherwise.
pub const ARTIFACT: &str = "BENCH_serve.json";
const SCHEMA: &str = "mvtee-bench-serve-v3";

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
        }
    }

    /// Full configuration: more replicas, more clients, more load.
    pub fn full(seed: u64) -> Self {
        ServeSettings {
            replicas: 3,
            tenants: 6,
            clients: 8,
            requests_per_client: 48,
            open_loop_requests: 192,
            open_loop_rate: 600.0,
            ..Self::quick(seed)
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
    /// Requests that expired waiting for a cold start.
    pub expired: u64,
    /// Admitted requests that never resolved (must be 0).
    pub lost: u64,
    /// Admitted requests that resolved more than once (must be 0).
    pub duplicated: u64,
    /// Served outputs that differed from the serial reference.
    pub mismatches: Vec<String>,
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
        if self.replica_requests.contains(&0) {
            failures.push(format!(
                "idle replica: per-replica requests {:?}",
                self.replica_requests
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
        let _ = writeln!(out, "per-replica requests: {:?}", self.replica_requests);
        let _ = writeln!(
            out,
            "faulted replica: {} quarantine(s), {} recovery(ies); lost={} duplicated={}",
            self.quarantines, self.recoveries, self.lost, self.duplicated
        );
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH: {m}");
        }
        out
    }

    /// The machine-readable report (`BENCH_serve.json`).
    pub fn render_json(&self) -> String {
        let requests = Json::obj([
            ("submitted", self.submitted.into()),
            ("completed", self.completed.into()),
            ("failed", self.failed.into()),
            ("expired", self.expired.into()),
            ("shed", self.shed().into()),
            ("shed_queue_full", self.queue.shed_queue_full.into()),
            ("shed_quota", self.queue.shed_quota.into()),
            ("lost", self.lost.into()),
            ("duplicated", self.duplicated.into()),
        ]);
        let recovery = Json::obj([
            ("expected", self.recovery_expected.into()),
            ("quarantines", self.quarantines.into()),
            ("recoveries", self.recoveries.into()),
        ]);
        Json::obj([
            ("schema", SCHEMA.into()),
            ("meta", Json::meta(SCHEMA, self.seed, &self.fingerprint)),
            ("seed", self.seed.into()),
            ("replicas", self.replicas.into()),
            ("requests", requests),
            ("replica_requests", Json::arr(self.replica_requests.iter().copied())),
            ("recovery", recovery),
            ("mismatch_count", self.mismatches.len().into()),
        ])
        .render()
    }
}

/// One response observed by the load generator.
struct Observed {
    id: u64,
    input_index: u64,
    outcome: RequestOutcome,
    replica: Option<usize>,
}

/// Waits for `ticket`; `None` when the frontend dropped it unresolved.
fn observe(ticket: Ticket, input_index: u64) -> Option<Observed> {
    let id = ticket.id;
    let resp = ticket.wait().ok()?;
    Some(Observed { id, input_index, outcome: resp.outcome, replica: resp.replica })
}

/// As [`observe`], with a dropped ticket resolving `Failed`.
fn observe_or_failed(ticket: Ticket, input_index: u64) -> Observed {
    let id = ticket.id;
    let outcome = RequestOutcome::Failed("ticket disconnected".to_string());
    observe(ticket, input_index).unwrap_or(Observed { id, input_index, outcome, replica: None })
}

/// Runs the serve experiment.
pub fn run_serve(s: &ServeSettings) -> ServeReport {
    mvtee_serve::register_serve_metrics();

    // Every replica (and the serial reference) runs the healing panel on
    // both partitions: replicated panels make replica outputs
    // byte-identical to the reference regardless of per-replica variant
    // seeds. The reference is a clean deployment of that configuration
    // answering each distinct input once, serially.
    let model = fixture::model(s.seed);
    let fingerprint = fixture::fingerprint(&model, "", PARTITIONS, PANEL);
    let inputs = fixture::inputs(&model, s.seed ^ 0x5e7e, INPUT_PERIOD);
    let mvx = fixture::healing_panel(PARTITIONS, &[0, 1], PANEL);
    let builder = fixture::builder(&model, &mvx, s.seed);
    let reference =
        fixture::oracle(builder.clone(), &inputs).expect("reference deployment serves");

    // The pool: `replicas` deployments from one builder. Replica 0
    // optionally carries a stall fault on partition 1 so the straggler
    // watchdog quarantines a variant mid-burst and the monitor
    // re-provisions it while the pool serves.
    let stall = FaultDescriptor::Stall(StallFault { from_batch: 2, mode: StallMode::Hang });
    let inject = s.inject_recovery;
    let deployments = builder
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

    // Closed-loop phase: `clients` threads, one request in flight each,
    // cycling tenants and a seeded per-client input schedule. A request
    // shed at the door is counted via `QueueStats`, not observed.
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
                let input = inputs[input_index as usize].clone();
                if let Ok(ticket) = handle.submit(&tenant, MODEL_KEY, input) {
                    got.push(observe_or_failed(ticket, input_index));
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
        if let Ok(ticket) = handle.submit(&tenant, MODEL_KEY, inputs[input_index as usize].clone())
        {
            pending.push((input_index, ticket));
        }
        let next = open_start + interval * (i as u32 + 1);
        if let Some(sleep) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
    }
    observed.extend(pending.into_iter().map(|(index, ticket)| observe_or_failed(ticket, index)));

    // Keep a trickle of probe traffic flowing until the faulted replica
    // records a recovery (probation needs fresh checkpoints to vote
    // against); probes obey the same byte-exactness check.
    if s.inject_recovery {
        for probe in 0..200u64 {
            if !faulted_events.recoveries().is_empty() {
                break;
            }
            let input_index = probe % INPUT_PERIOD;
            let input = inputs[input_index as usize].clone();
            if let Ok(ticket) = handle.submit("probe", MODEL_KEY, input) {
                observed.extend(observe(ticket, input_index));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Verify: exactly-once ids, byte-exact outputs.
    let mut ids: Vec<u64> = observed.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    let duplicated = ids.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    let mut mismatches = Vec::new();
    let (mut completed, mut failed, mut expired) = (0u64, 0u64, 0u64);
    for o in &observed {
        match &o.outcome {
            RequestOutcome::Ok(tensor) => {
                completed += 1;
                if !fixture::bits_equal(tensor, &reference[o.input_index as usize]) {
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
        replica_requests: pool_stats.served_requests,
        quarantines,
        recoveries,
        recovery_expected: s.inject_recovery,
        queue,
    }
}

/// The `serve` subcommand: the serving gates, plus — at `--quick` smoke
/// load — nothing may be shed.
pub fn command(common: &CommonArgs, _args: &[String]) -> Outcome {
    let report = run_serve(&common.pick(ServeSettings::quick, ServeSettings::full));
    let mut failures = report.gate_failures();
    if common.quick && report.shed() > 0 {
        failures.push(format!(
            "{} request(s) shed at smoke load (queue_full={}, quota={})",
            report.shed(),
            report.queue.shed_queue_full,
            report.queue.shed_quota
        ));
    }
    Outcome {
        status: report.render_text(),
        artifacts: vec![(common.out_or(ARTIFACT), report.render_json())],
        failures,
        ..Outcome::default()
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
        assert!(json.contains("\"schema\": \"mvtee-bench-serve-v3\""));
        assert!(json.contains("\"mismatch_count\": 0"));
    }
}
