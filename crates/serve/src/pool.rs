//! The MVX replica pool: N diversified deployments behind a
//! least-outstanding-requests scheduler, each fed continuously.

use crate::request::{InferRequest, RequestOutcome};
use mvtee::{Deployment, DeploymentBuilder, EventLog, MvxError};
use mvtee_telemetry::{Counter, Gauge, Histogram};
use mvtee_tensor::Tensor;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Point-in-time pool counters, one slot per replica.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Requests dispatched to each replica and not yet resolved.
    pub outstanding: Vec<i64>,
    /// Requests each replica has served.
    pub served_requests: Vec<u64>,
}

/// The `serve.*` pool metrics, fetched once per pool.
#[derive(Clone)]
struct PoolMetrics {
    outstanding: Gauge,
    dispatched: Counter,
    completed: Counter,
    failed: Counter,
    stream_failures: Counter,
    e2e: Histogram,
}

impl PoolMetrics {
    fn fetch() -> Self {
        PoolMetrics {
            outstanding: mvtee_telemetry::gauge("serve.pool.outstanding"),
            dispatched: mvtee_telemetry::counter("serve.pool.dispatched_total"),
            completed: mvtee_telemetry::counter("serve.completed_total"),
            failed: mvtee_telemetry::counter("serve.failed_total"),
            stream_failures: mvtee_telemetry::counter("serve.pool.stream_failures"),
            e2e: mvtee_telemetry::histogram("serve.e2e_latency_ns"),
        }
    }
}

/// One replica's counters, shared with every request in its pipeline.
struct Counts {
    index: usize,
    outstanding: AtomicI64,
    served: AtomicU64,
    metrics: PoolMetrics,
}

struct Replica {
    /// Submission happens under this lock, so batch ids are issued in
    /// order. Answers never take it: a submit waits for no result.
    deployment: Mutex<Deployment>,
    counts: Arc<Counts>,
    events: EventLog,
}

/// N independent MVX replicas serving one model key — [`Deployment`]s,
/// whatever their variant placements (in-process threads, out-of-process
/// `mvtee-variantd` workers, or a mix).
///
/// Scheduling is least-outstanding-requests with lowest-index
/// tie-break: a replica wedged in quarantine/recovery keeps its
/// outstanding count high and naturally stops attracting new work until
/// the core recovery path brings it back — new work keeps flowing to its
/// siblings the whole time.
pub struct ReplicaPool {
    model_key: String,
    replicas: Vec<Replica>,
}

impl ReplicaPool {
    /// Wraps already-built deployments (typically from
    /// [`DeploymentBuilder::build_many`]).
    ///
    /// # Errors
    ///
    /// [`MvxError::InvalidConfig`] when `deployments` is empty.
    pub fn new(
        model_key: impl Into<String>,
        deployments: Vec<Deployment>,
    ) -> Result<Self, MvxError> {
        if deployments.is_empty() {
            return Err(MvxError::InvalidConfig(
                "a replica pool needs at least one replica".into(),
            ));
        }
        let metrics = PoolMetrics::fetch();
        let replicas = deployments
            .into_iter()
            .enumerate()
            .map(|(index, deployment)| Replica {
                events: deployment.events().clone(),
                deployment: Mutex::new(deployment),
                counts: Arc::new(Counts {
                    index,
                    outstanding: AtomicI64::new(0),
                    served: AtomicU64::new(0),
                    metrics: metrics.clone(),
                }),
            })
            .collect();
        Ok(Self {
            model_key: model_key.into(),
            replicas,
        })
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
    /// for any result. Its last stage resolves the ticket; a replica that
    /// cannot take the request, or loses it, resolves it `Failed`.
    pub fn submit(&self, mut req: InferRequest) {
        let replica = self
            .replicas
            .iter()
            .min_by_key(|r| r.counts.outstanding.load(Ordering::Acquire))
            .expect("pool has at least one replica");
        // The input moves into the pipeline; the rest rides in the reply.
        let input = std::mem::replace(&mut req.input, Tensor::zeros(&[0]));
        let trace = req.trace;
        let reply = Reply::new(req, &replica.counts);
        let mut deployment = replica.deployment.lock().expect("replica lock poisoned");
        // Refused: the reply is dropped, and that answers the request.
        let _ = deployment.submit(input, trace, move |output| reply.answer(output));
    }

    /// Per-replica counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            outstanding: self
                .replicas
                .iter()
                .map(|r| r.counts.outstanding.load(Ordering::Acquire))
                .collect(),
            served_requests: self
                .replicas
                .iter()
                .map(|r| r.counts.served.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Shuts each deployment down; every request already in a pipeline
    /// is answered first.
    pub fn shutdown(self) {
        for replica in self.replicas {
            replica
                .deployment
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .shutdown();
        }
    }
}

/// A request inside a replica's pipeline, answered exactly once: by the
/// last stage through [`Reply::answer`] or, when the pipeline drops it
/// unanswered, `Failed` by `Drop`.
struct Reply {
    req: Option<InferRequest>,
    counts: Arc<Counts>,
}

impl Reply {
    /// Takes one of the replica's outstanding slots for `req`.
    fn new(req: InferRequest, counts: &Arc<Counts>) -> Self {
        counts.outstanding.fetch_add(1, Ordering::AcqRel);
        counts.metrics.outstanding.add(1);
        counts.metrics.dispatched.inc();
        Reply {
            req: Some(req),
            counts: Arc::clone(counts),
        }
    }

    fn answer(mut self, output: Result<Tensor, String>) {
        self.counts.served.fetch_add(1, Ordering::Relaxed);
        self.resolve(match output {
            Ok(tensor) => RequestOutcome::Ok(tensor),
            Err(detail) => RequestOutcome::Failed(detail),
        });
    }

    fn resolve(&mut self, outcome: RequestOutcome) {
        let Some(req) = self.req.take() else { return };
        let metrics = &self.counts.metrics;
        metrics
            .e2e
            .record(req.submitted.elapsed().as_nanos() as u64);
        if outcome.is_ok() {
            metrics.completed.inc()
        } else {
            metrics.failed.inc()
        }
        // Release the slot before the caller can see the answer: a
        // sequential caller that resubmits the instant its ticket
        // resolves must find this replica idle again, or lowest-index
        // tie-breaking would bounce it to a sibling.
        self.counts.outstanding.fetch_sub(1, Ordering::Release);
        metrics.outstanding.add(-1);
        req.resolve(Some(self.counts.index), outcome);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if self.req.is_some() {
            self.counts.metrics.stream_failures.inc();
            let detail = format!(
                "replica {} stream failed: the request was dropped unanswered",
                self.counts.index
            );
            self.resolve(RequestOutcome::Failed(detail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Admission;
    use crate::request::Ticket;
    use mvtee_telemetry::trace::TraceCtx;
    use std::sync::mpsc::sync_channel;
    use std::time::{Duration, Instant};

    /// Exactly one answer when the pipeline drops a request: the reply,
    /// dropped uncalled, resolves the ticket `Failed` once and gives back
    /// both the admission slot and the replica's outstanding slot.
    #[test]
    fn a_reply_dropped_unanswered_resolves_once_and_frees_both_slots() {
        let gauge = mvtee_telemetry::gauge("serve.pool.outstanding");
        let stream_failures = mvtee_telemetry::counter("serve.pool.stream_failures");
        let (gauge0, failures0) = (gauge.get(), stream_failures.get());
        let admission = Arc::new(Admission::new(4, 4));
        let (respond, rx) = sync_channel(1);
        let now = Instant::now();
        let req = InferRequest {
            id: 7,
            tenant: "t".into(),
            model_key: "m".into(),
            input: Tensor::zeros(&[1]),
            submitted: now,
            deadline: now + Duration::from_secs(5),
            trace: TraceCtx::for_request(7),
            respond,
            slot: admission.admit("t").expect("admitted"),
        };
        let counts = Arc::new(Counts {
            index: 1,
            outstanding: AtomicI64::new(0),
            served: AtomicU64::new(0),
            metrics: PoolMetrics::fetch(),
        });
        let ticket = Ticket { id: 7, rx };

        let reply = Reply::new(req, &counts);
        assert_eq!(admission.stats().depth, 1);
        assert_eq!(counts.outstanding.load(Ordering::Acquire), 1);
        drop(reply);

        let resp = ticket.rx.try_recv().expect("answered when dropped");
        assert_eq!(resp.id, 7);
        assert_eq!(resp.replica, Some(1));
        assert!(matches!(resp.outcome, RequestOutcome::Failed(ref d) if d.contains("replica 1")));
        assert!(ticket.rx.try_recv().is_err(), "answered more than once");
        assert_eq!(admission.stats().depth, 0, "admission slot not given back");
        assert_eq!(counts.outstanding.load(Ordering::Acquire), 0);
        assert_eq!(
            counts.served.load(Ordering::Relaxed),
            0,
            "a dropped request is not served"
        );
        assert_eq!(gauge.get(), gauge0);
        assert_eq!(stream_failures.get(), failures0 + 1);
    }
}
