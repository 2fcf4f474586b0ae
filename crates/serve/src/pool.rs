//! The MVX replica pool: N diversified deployments behind a
//! least-outstanding-requests scheduler, each fed continuously.

use crate::request::{InferRequest, RequestOutcome};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mvtee::deployment::Completions;
use mvtee::{Deployment, DeploymentBuilder, EventLog, MvxError};
use mvtee_tensor::Tensor;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Point-in-time pool counters, one slot per replica.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Requests dispatched to each replica and not yet resolved.
    pub outstanding: Vec<i64>,
    /// Requests each replica has served.
    pub served_requests: Vec<u64>,
}

/// A request inside a replica's pipeline: its pipeline batch id and the
/// ticket side of the request (the input went into the pipeline).
type InFlight = (u64, InferRequest);

struct Replica {
    /// Submission happens under this lock, so batch ids and `in_flight`
    /// entries are issued in the same order. The collector never takes
    /// it: a submit waits for no result.
    deployment: Mutex<Deployment>,
    in_flight: Sender<InFlight>,
    outstanding: Arc<AtomicI64>,
    served_requests: Arc<AtomicU64>,
    events: EventLog,
    collector: JoinHandle<()>,
}

/// N independent MVX replicas serving one model key — [`Deployment`]s,
/// whatever their variant placements (in-process threads, out-of-process
/// `mvtee-variantd` workers, or a mix).
///
/// Scheduling is least-outstanding-requests with lowest-index
/// tie-break: a replica wedged in quarantine/recovery keeps its
/// outstanding count high and naturally stops attracting new work until
/// the core recovery path brings it back — queued work keeps flowing to
/// its siblings the whole time.
pub struct ReplicaPool {
    model_key: String,
    replicas: Vec<Replica>,
}

impl ReplicaPool {
    /// Wraps already-built deployments (typically from
    /// [`DeploymentBuilder::build_many`]), one collector thread each.
    ///
    /// # Errors
    ///
    /// [`MvxError::InvalidConfig`] when `deployments` is empty; a
    /// deployment that is already shut down is rejected.
    pub fn new(
        model_key: impl Into<String>,
        deployments: Vec<Deployment>,
    ) -> Result<Self, MvxError> {
        if deployments.is_empty() {
            return Err(MvxError::InvalidConfig(
                "a replica pool needs at least one replica".into(),
            ));
        }
        let model_key = model_key.into();
        let replicas = deployments
            .into_iter()
            .enumerate()
            .map(|(index, deployment)| Replica::start(&model_key, index, deployment))
            .collect::<Result<_, _>>()?;
        Ok(Self { model_key, replicas })
    }

    /// Builds `n` replicas via [`DeploymentBuilder::build_many`] and
    /// wraps them. All replicas share the builder's partition seed (so
    /// replicated panels answer byte-identically and engine pre-packing
    /// is reused via the global session cache) while variant seeds are
    /// derived per replica.
    ///
    /// # Errors
    ///
    /// Propagates builder failures; `n == 0` is rejected.
    pub fn from_builder(
        model_key: impl Into<String>,
        builder: DeploymentBuilder,
        n: usize,
    ) -> Result<Self, MvxError> {
        Self::new(model_key, builder.build_many(n)?)
    }

    /// The model key this pool serves.
    pub fn model_key(&self) -> &str {
        &self.model_key
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The monitor event log of one replica — how callers observe
    /// quarantines and recoveries under load.
    pub fn replica_events(&self, replica: usize) -> &EventLog {
        &self.replicas[replica].events
    }

    /// Hands the request to the pipeline of the replica with the fewest
    /// outstanding requests (lowest index wins ties), without waiting
    /// for any result. Its ticket is resolved when its result leaves the
    /// pipeline — or right here, `Failed`, when the replica cannot take
    /// it.
    pub fn submit(&self, mut req: InferRequest) {
        let (index, replica) = self
            .replicas
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.outstanding.load(Ordering::Acquire))
            .expect("pool has at least one replica");
        replica.outstanding.fetch_add(1, Ordering::AcqRel);
        mvtee_telemetry::gauge("serve.pool.outstanding").add(1);
        mvtee_telemetry::counter("serve.pool.dispatched_total").inc();
        // The input moves into the pipeline; what stays is the ticket.
        let input = std::mem::replace(&mut req.input, Tensor::zeros(&[0]));
        let refused = {
            let mut deployment = replica.deployment.lock().expect("replica lock poisoned");
            match deployment.submit(input, req.trace) {
                Ok(batch) => replica
                    .in_flight
                    .send((batch, req))
                    .err()
                    .map(|unsent| (unsent.0 .1, "its collector is gone".to_string())),
                Err(err) => Some((req, err.to_string())),
            }
        };
        let Some((req, why)) = refused else { return };
        mvtee_telemetry::counter("serve.pool.stream_failures").inc();
        mvtee_telemetry::counter("serve.failed_total").inc();
        release_slot(&replica.outstanding);
        req.resolve(
            Some(index),
            RequestOutcome::Failed(format!("replica {index} stream failed: {why}")),
        );
    }

    /// Per-replica counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            outstanding: self
                .replicas
                .iter()
                .map(|r| r.outstanding.load(Ordering::Acquire))
                .collect(),
            served_requests: self
                .replicas
                .iter()
                .map(|r| r.served_requests.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Stops intake, lets every in-flight request finish (the collectors
    /// resolve what is still in the pipelines), then shuts each
    /// deployment down.
    pub fn shutdown(self) {
        let mut stopping = Vec::with_capacity(self.replicas.len());
        for replica in self.replicas {
            drop(replica.in_flight);
            stopping.push((replica.collector, replica.deployment));
        }
        for (collector, deployment) in stopping {
            let _ = collector.join();
            deployment
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .shutdown();
        }
    }
}

impl Replica {
    fn start(model_key: &str, index: usize, deployment: Deployment) -> Result<Self, MvxError> {
        let completions = deployment.completions()?;
        let events = deployment.events().clone();
        let (in_flight, tickets) = unbounded();
        let outstanding = Arc::new(AtomicI64::new(0));
        let served_requests = Arc::new(AtomicU64::new(0));
        let collector = {
            let (outstanding, served) = (Arc::clone(&outstanding), Arc::clone(&served_requests));
            std::thread::Builder::new()
                .name(format!("serve-replica-{model_key}-{index}"))
                .spawn(move || collect(index, &completions, &tickets, &outstanding, &served))
                .expect("spawn replica collector")
        };
        Ok(Self {
            deployment: Mutex::new(deployment),
            in_flight,
            outstanding,
            served_requests,
            events,
            collector,
        })
    }
}

fn release_slot(outstanding: &AtomicI64) {
    outstanding.fetch_sub(1, Ordering::Release);
    mvtee_telemetry::gauge("serve.pool.outstanding").add(-1);
}

/// One replica's collector: resolves tickets one by one, in submission
/// order, as their results leave the pipeline. Runs until the pool drops
/// the ticket sender and every ticket already sent has its answer.
fn collect(
    index: usize,
    completions: &Completions,
    tickets: &Receiver<InFlight>,
    outstanding: &AtomicI64,
    served: &AtomicU64,
) {
    let completed = mvtee_telemetry::counter("serve.completed_total");
    let failed = mvtee_telemetry::counter("serve.failed_total");
    let stream_failures = mvtee_telemetry::counter("serve.pool.stream_failures");
    let e2e = mvtee_telemetry::histogram("serve.e2e_latency_ns");
    while let Ok((batch, req)) = tickets.recv() {
        let outcome = loop {
            match completions.next() {
                // The answer to a ticket that already failed on a timeout.
                Ok((id, _)) if id != batch => continue,
                Ok((_, Ok(tensor))) => break RequestOutcome::Ok(tensor),
                Ok((_, Err(detail))) => break RequestOutcome::Failed(detail),
                Err(err) => {
                    // Infrastructure loss: the ticket still gets a
                    // terminal answer, so nothing admitted is lost.
                    stream_failures.inc();
                    break RequestOutcome::Failed(format!("replica {index} stream failed: {err}"));
                }
            }
        };
        e2e.record(req.submitted.elapsed().as_nanos() as u64);
        match outcome {
            RequestOutcome::Ok(_) => completed.inc(),
            _ => failed.inc(),
        }
        served.fetch_add(1, Ordering::Relaxed);
        // Release the slot before the caller can see the answer: a
        // sequential caller that resubmits the instant its ticket
        // resolves must find this replica idle again, or lowest-index
        // tie-breaking would bounce it to a sibling.
        release_slot(outstanding);
        req.resolve(Some(index), outcome);
    }
}
