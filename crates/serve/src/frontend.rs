//! The serving frontend: one dispatcher thread pumping the admission
//! queue straight into per-model replica pools.

use crate::coldstart::ColdStartProvider;
use crate::config::ServeConfig;
use crate::pool::{PoolStats, ReplicaPool};
use crate::queue::{AdmissionQueue, QueueStats, ShedReason};
use crate::request::{InferRequest, RequestOutcome, Ticket};
use crossbeam::channel::bounded;
use mvtee::EventLog;
use mvtee_telemetry::trace::TraceCtx;
use mvtee_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the dispatcher sleeps waiting for work (it wakes immediately
/// on arrival; this only bounds the shutdown-latency of an idle
/// frontend).
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// The pool map, shared between handles (membership checks), the
/// dispatcher (routing + cold-start inserts) and the frontend (stats).
type PoolMap = Arc<RwLock<BTreeMap<String, ReplicaPool>>>;

/// The submission side of the frontend. Cheap to clone; one per client
/// thread.
#[derive(Clone)]
pub struct ServeHandle {
    queue: Arc<AdmissionQueue>,
    pools: PoolMap,
    provider: Option<Arc<dyn ColdStartProvider>>,
    next_id: Arc<AtomicU64>,
    default_deadline: Duration,
}

impl ServeHandle {
    /// Submits a request under the config's default deadline.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] when admission control rejects the request;
    /// nothing was queued and no ticket exists.
    pub fn submit(
        &self,
        tenant: &str,
        model_key: &str,
        input: Tensor,
    ) -> Result<Ticket, ShedReason> {
        self.submit_with_deadline(tenant, model_key, input, self.default_deadline)
    }

    /// Submits a request that expires `deadline` from now.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] when admission control rejects the request.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        model_key: &str,
        input: Tensor,
        deadline: Duration,
    ) -> Result<Ticket, ShedReason> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        let now = Instant::now();
        let trace = TraceCtx::for_request(id);
        let tracer = mvtee_telemetry::trace::recorder();
        if tracer.is_enabled() {
            tracer
                .instant(trace, "serve.submit", "serve")
                .arg("id", id)
                .arg("tenant", tenant)
                .arg("model_key", model_key);
        }
        let req = InferRequest {
            id,
            tenant: tenant.to_string(),
            model_key: model_key.to_string(),
            input,
            submitted: now,
            deadline: now + deadline,
            trace,
            respond: tx,
        };
        // An unknown key means the dispatcher would have to cold-start
        // the model from the registry. When the registry cannot begin
        // one, queuing would only let the request expire — shed now so
        // the caller can retry elsewhere.
        if let Some(provider) = &self.provider {
            let known = self
                .pools
                .read()
                .expect("pool map poisoned")
                .contains_key(model_key);
            if !known && provider.saturated() {
                self.queue.record_coldstart_shed(&req);
                return Err(ShedReason::ColdStart);
            }
        }
        match self.queue.offer(req) {
            Ok(()) => Ok(Ticket { id, rx }),
            Err((_req, reason)) => Err(reason),
        }
    }

    /// Admission counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// Owns the dispatcher thread and the replica pools.
pub struct ServeFrontend {
    handle: ServeHandle,
    queue: Arc<AdmissionQueue>,
    pools: PoolMap,
    dispatcher: Option<JoinHandle<()>>,
}

impl ServeFrontend {
    /// Starts a frontend over the given pools (one per model key).
    /// Requests for keys outside this set fail; see
    /// [`ServeFrontend::start_with_cold_start`] for dynamic models.
    pub fn start(pools: Vec<ReplicaPool>, cfg: ServeConfig) -> Self {
        Self::launch(pools, cfg, None)
    }

    /// Starts a frontend that cold-starts unknown model keys through
    /// `provider` (typically backed by the encrypted model registry).
    /// The first request for an unknown key triggers a build on a
    /// dedicated worker thread — requests for the key park until the
    /// build lands, and other models' dispatch continues unstalled;
    /// while the provider is saturated, unknown-key submissions shed
    /// with [`ShedReason::ColdStart`].
    pub fn start_with_cold_start(
        pools: Vec<ReplicaPool>,
        cfg: ServeConfig,
        provider: Arc<dyn ColdStartProvider>,
    ) -> Self {
        Self::launch(pools, cfg, Some(provider))
    }

    fn launch(
        pools: Vec<ReplicaPool>,
        cfg: ServeConfig,
        provider: Option<Arc<dyn ColdStartProvider>>,
    ) -> Self {
        let queue = Arc::new(AdmissionQueue::new(
            cfg.max_queue_depth,
            cfg.per_tenant_quota,
        ));
        let pools: PoolMap = Arc::new(RwLock::new(
            pools
                .into_iter()
                .map(|p| (p.model_key().to_string(), p))
                .collect(),
        ));
        let handle = ServeHandle {
            queue: Arc::clone(&queue),
            pools: Arc::clone(&pools),
            provider: provider.clone(),
            next_id: Arc::new(AtomicU64::new(0)),
            default_deadline: cfg.default_deadline(),
        };
        let dispatcher = {
            let queue = Arc::clone(&queue);
            let pools = Arc::clone(&pools);
            std::thread::Builder::new()
                .name("serve-dispatcher".to_string())
                .spawn(move || dispatch_loop(&queue, &pools, provider))
                .expect("spawn serve dispatcher")
        };
        Self {
            handle,
            queue,
            pools,
            dispatcher: Some(dispatcher),
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Admission counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Model keys currently served (static pools plus cold starts).
    pub fn model_keys(&self) -> Vec<String> {
        self.pools
            .read()
            .expect("pool map poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Per-replica counters for one model key's pool.
    pub fn pool_stats(&self, model_key: &str) -> Option<PoolStats> {
        self.pools
            .read()
            .expect("pool map poisoned")
            .get(model_key)
            .map(ReplicaPool::stats)
    }

    /// Replica count for one model key's pool.
    pub fn pool_replicas(&self, model_key: &str) -> Option<usize> {
        self.pools
            .read()
            .expect("pool map poisoned")
            .get(model_key)
            .map(ReplicaPool::replicas)
    }

    /// The monitor event log of one replica — lets callers watch core
    /// quarantine/recovery activity while the pool serves.
    pub fn replica_events(&self, model_key: &str, replica: usize) -> Option<EventLog> {
        self.pools
            .read()
            .expect("pool map poisoned")
            .get(model_key)
            .filter(|p| replica < p.replicas())
            .map(|p| p.replica_events(replica).clone())
    }

    /// Closes intake, drains everything already admitted (every queued
    /// request is resolved — served, failed, or expired), then stops
    /// the pools and joins all worker threads.
    pub fn shutdown(mut self) {
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // Handles may outlive the frontend; take the pools out from
        // under the shared map instead of unwrapping the Arc. Late
        // submissions shed ShuttingDown at the closed queue.
        let pools = std::mem::take(&mut *self.pools.write().expect("pool map poisoned"));
        for (_, pool) in pools {
            pool.shutdown();
        }
    }
}

/// How often the dispatcher re-checks the build channel while cold
/// starts are in flight — short, so a finished build releases its parked
/// requests promptly instead of waiting out a full [`IDLE_WAIT`].
const BUILD_WAIT: Duration = Duration::from_millis(1);

fn dispatch_loop(
    queue: &AdmissionQueue,
    pools: &RwLock<BTreeMap<String, ReplicaPool>>,
    provider: Option<Arc<dyn ColdStartProvider>>,
) {
    // Cold starts run on their own worker threads so an expensive
    // unseal+build for one model never stalls dispatch for every other
    // model's queued requests. Requests that triggered (or arrived
    // during) a build are parked under their key and released when the
    // build lands on `built_rx`.
    let (built_tx, built_rx) =
        crossbeam::channel::unbounded::<(String, Result<ReplicaPool, String>)>();
    let mut parked: BTreeMap<String, Vec<InferRequest>> = BTreeMap::new();
    loop {
        let drained = queue.drain(if parked.is_empty() { IDLE_WAIT } else { BUILD_WAIT });
        // Install finished cold starts and release their parked requests.
        while let Ok((key, outcome)) = built_rx.try_recv() {
            settle_cold_start(pools, &mut parked, key, outcome);
        }
        for req in drained.requests {
            if let Some(waiting) = parked.get_mut(&req.model_key) {
                // A build for this key is already in flight.
                waiting.push(req);
                continue;
            }
            let Err(req) = dispatch(pools, req) else { continue };
            match provider.clone() {
                Some(provider) => {
                    let key = req.model_key.clone();
                    parked.insert(key.clone(), vec![req]);
                    spawn_cold_start(provider, key, built_tx.clone());
                }
                None => {
                    let detail = format!("unknown model key {:?}", req.model_key);
                    req.resolve(None, RequestOutcome::Failed(detail));
                }
            }
        }
        if drained.finished {
            // Intake is closed but builds may still be in flight; every
            // admitted request must resolve, so wait them out.
            while !parked.is_empty() {
                match built_rx.recv() {
                    Ok((key, outcome)) => settle_cold_start(pools, &mut parked, key, outcome),
                    Err(_) => break,
                }
            }
            return;
        }
    }
}

/// Runs one cold-start build on its own worker thread and reports the
/// outcome back to the dispatcher over `done`.
fn spawn_cold_start(
    provider: Arc<dyn ColdStartProvider>,
    model_key: String,
    done: crossbeam::channel::Sender<(String, Result<ReplicaPool, String>)>,
) {
    std::thread::Builder::new()
        .name("serve-coldstart".to_string())
        .spawn(move || {
            mvtee_telemetry::counter("serve.coldstart.requests").inc();
            let timer = mvtee_telemetry::histogram("serve.coldstart.build_ns").start();
            let outcome = provider.cold_start(&model_key);
            match &outcome {
                Ok(_) => {
                    timer.finish();
                    mvtee_telemetry::counter("serve.coldstart.built").inc();
                }
                Err(_) => {
                    timer.cancel();
                    mvtee_telemetry::counter("serve.coldstart.failed").inc();
                }
            }
            // The dispatcher may already be gone at shutdown; the pool
            // (if any) is dropped with the unsent message.
            let _ = done.send((model_key, outcome));
        })
        .expect("spawn serve cold-start worker");
}

/// Installs a finished cold start (the dispatcher thread is the single
/// writer of the pool map) and releases or fails its parked requests.
fn settle_cold_start(
    pools: &RwLock<BTreeMap<String, ReplicaPool>>,
    parked: &mut BTreeMap<String, Vec<InferRequest>>,
    key: String,
    outcome: Result<ReplicaPool, String>,
) {
    let waiting = parked.remove(&key).unwrap_or_default();
    match outcome {
        Ok(pool) => {
            pools
                .write()
                .expect("pool map poisoned")
                .insert(key, pool);
            for req in waiting {
                let _ = dispatch(pools, req);
            }
        }
        Err(detail) => {
            let detail = format!("cold start failed for {key:?}: {detail}");
            for req in waiting {
                req.resolve(None, RequestOutcome::Failed(detail.clone()));
            }
        }
    }
}

/// Hands one request to its model's pool — the one place its deadline
/// is checked: past it, the request resolves `Expired`, unserved.
///
/// # Errors
///
/// Hands the request back when no pool serves its model key.
#[allow(clippy::result_large_err)] // the unrouted request must travel back
fn dispatch(
    pools: &RwLock<BTreeMap<String, ReplicaPool>>,
    req: InferRequest,
) -> Result<(), InferRequest> {
    let guard = pools.read().expect("pool map poisoned");
    let Some(pool) = guard.get(&req.model_key) else { return Err(req) };
    if req.deadline <= Instant::now() {
        mvtee_telemetry::counter("serve.expired_total").inc();
        req.resolve(None, RequestOutcome::Expired);
        return Ok(());
    }
    // Counts dispatches. Its only reader is the benchmark's
    // `serve.batch_size.mean.*` rows, which therefore read 1.00.
    mvtee_telemetry::counter("serve.batches_total").inc();
    let tracer = mvtee_telemetry::trace::recorder();
    if tracer.is_enabled() {
        tracer.instant(req.trace, "serve.dispatch", "serve").arg("id", req.id);
    }
    pool.submit(req);
    Ok(())
}
