//! The serving frontend: admission, then straight into the model's
//! replica pool on the submitting thread.

use crate::coldstart::ColdStartProvider;
use crate::config::ServeConfig;
use crate::pool::{PoolStats, ReplicaPool};
use crate::queue::{Admission, QueueStats, ShedReason};
use crate::request::{InferRequest, RequestOutcome, Ticket};
use mvtee::EventLog;
use mvtee_telemetry::trace::TraceCtx;
use mvtee_telemetry::{Counter, Histogram};
use mvtee_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The served model keys and the cold starts in flight, under one lock.
#[derive(Default)]
struct Routes {
    pools: BTreeMap<String, ReplicaPool>,
    /// Requests waiting for a cold start, by model key.
    parked: BTreeMap<String, Vec<InferRequest>>,
    /// Cold-start build threads not yet joined.
    builds: Vec<JoinHandle<()>>,
}

/// What the frontend, its handles and its cold-start builds share.
struct Shared {
    admission: Arc<Admission>,
    routes: RwLock<Routes>,
    provider: Option<Arc<dyn ColdStartProvider>>,
    next_id: AtomicU64,
    default_deadline: Duration,
    queue_wait: Histogram,
    batches: Counter,
}

/// The submission side of the frontend. Cheap to clone; one per client
/// thread.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Submits a request under the config's default deadline.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] when admission control rejects the request;
    /// nothing was admitted and no ticket exists.
    pub fn submit(
        &self,
        tenant: &str,
        model_key: &str,
        input: Tensor,
    ) -> Result<Ticket, ShedReason> {
        self.submit_with_deadline(tenant, model_key, input, self.shared.default_deadline)
    }

    /// Submits a request that expires `deadline` from now if it is still
    /// waiting for its model's cold start by then. An admitted request
    /// for a served model is in its replica's pipeline when this returns.
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
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
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
        // Admission and the hand-off share one read lock, so shutdown —
        // which takes the pools under the write lock — finds every request
        // it admitted for a served model already in a pipeline.
        let routes = shared.routes.read().expect("route map poisoned");
        let pool = routes.pools.get(model_key);
        // An unknown key needs a cold start. When the registry cannot
        // begin one, admitting would only let the request expire — shed
        // now so the caller can retry elsewhere.
        if pool.is_none() && shared.provider.as_ref().is_some_and(|p| p.saturated()) {
            shared.admission.record_coldstart_shed();
            shed_trace(id, tenant, trace, "coldstart");
            return Err(ShedReason::ColdStart);
        }
        let slot = shared
            .admission
            .admit(tenant)
            .inspect_err(|reason| match reason {
                ShedReason::QueueFull => shed_trace(id, tenant, trace, "queue_full"),
                ShedReason::Quota => shed_trace(id, tenant, trace, "quota"),
                _ => {}
            })?;
        let (respond, rx) = sync_channel(1);
        let req = InferRequest {
            id,
            tenant: tenant.to_string(),
            model_key: model_key.to_string(),
            input,
            submitted: now,
            deadline: now + deadline,
            trace,
            respond,
            slot,
        };
        match pool {
            Some(pool) => shared.dispatch(pool, req),
            None => {
                drop(routes);
                Shared::route_unknown(shared, req);
            }
        }
        Ok(Ticket { id, rx })
    }

    /// Admission counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.admission.stats()
    }
}

/// Owns the replica pools behind its handles.
pub struct ServeFrontend {
    handle: ServeHandle,
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
    /// build lands, and other models keep serving unstalled; while the
    /// provider is saturated, unknown-key submissions shed with
    /// [`ShedReason::ColdStart`].
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
        let routes = Routes {
            pools: pools
                .into_iter()
                .map(|p| (p.model_key().to_string(), p))
                .collect(),
            ..Routes::default()
        };
        let shared = Shared {
            admission: Arc::new(Admission::new(cfg.max_queue_depth, cfg.per_tenant_quota)),
            routes: RwLock::new(routes),
            provider,
            next_id: AtomicU64::new(0),
            default_deadline: cfg.default_deadline(),
            queue_wait: mvtee_telemetry::histogram("serve.queue_wait_ns"),
            batches: mvtee_telemetry::counter("serve.batches_total"),
        };
        Self {
            handle: ServeHandle {
                shared: Arc::new(shared),
            },
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Admission counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.handle.queue_stats()
    }

    fn routes(&self) -> std::sync::RwLockReadGuard<'_, Routes> {
        self.handle
            .shared
            .routes
            .read()
            .expect("route map poisoned")
    }

    /// Model keys currently served (static pools plus cold starts).
    pub fn model_keys(&self) -> Vec<String> {
        self.routes().pools.keys().cloned().collect()
    }

    /// Per-replica counters for one model key's pool.
    pub fn pool_stats(&self, model_key: &str) -> Option<PoolStats> {
        self.routes().pools.get(model_key).map(ReplicaPool::stats)
    }

    /// Replica count for one model key's pool.
    pub fn pool_replicas(&self, model_key: &str) -> Option<usize> {
        self.routes()
            .pools
            .get(model_key)
            .map(ReplicaPool::replicas)
    }

    /// The monitor event log of one replica — lets callers watch core
    /// quarantine/recovery activity while the pool serves.
    pub fn replica_events(&self, model_key: &str, replica: usize) -> Option<EventLog> {
        self.routes()
            .pools
            .get(model_key)
            .filter(|p| replica < p.replicas())
            .map(|p| p.replica_events(replica).clone())
    }

    /// Closes intake (later submissions shed
    /// [`ShedReason::ShuttingDown`]), waits out the cold starts in flight,
    /// then stops the pools — which answer every request already in
    /// their pipelines — and joins all their threads. Every admitted
    /// request is resolved: served, failed, or expired.
    pub fn shutdown(self) {
        let shared = &self.handle.shared;
        shared.admission.close();
        // Handles may outlive the frontend; take the pools out from under
        // the shared map once no build is left to install one.
        let pools = loop {
            let builds = {
                let mut routes = shared.routes.write().expect("route map poisoned");
                if routes.builds.is_empty() {
                    break std::mem::take(&mut routes.pools);
                }
                std::mem::take(&mut routes.builds)
            };
            for build in builds {
                let _ = build.join();
            }
        };
        for (_, pool) in pools {
            pool.shutdown();
        }
    }
}

impl Shared {
    /// Hands one admitted request to its model's pool.
    fn dispatch(&self, pool: &ReplicaPool, req: InferRequest) {
        self.queue_wait
            .record(req.submitted.elapsed().as_nanos() as u64);
        // Counts dispatches. Its only reader is the benchmark's
        // `serve.batch_size.mean.*` rows, which therefore read 1.00.
        self.batches.inc();
        let tracer = mvtee_telemetry::trace::recorder();
        if tracer.is_enabled() {
            tracer
                .instant(req.trace, "serve.dispatch", "serve")
                .arg("id", req.id);
        }
        pool.submit(req);
    }

    /// Routes a request whose model had no pool when it was admitted: to
    /// the pool a cold start installed since, behind the cold start in
    /// flight for its key, or behind a new one.
    fn route_unknown(shared: &Arc<Shared>, req: InferRequest) {
        let mut routes = shared.routes.write().expect("route map poisoned");
        if let Some(pool) = routes.pools.get(&req.model_key) {
            return shared.dispatch(pool, req);
        }
        if let Some(waiting) = routes.parked.get_mut(&req.model_key) {
            return waiting.push(req);
        }
        let detail = match &shared.provider {
            None => format!("unknown model key {:?}", req.model_key),
            // Shutdown has begun: a build started now might never be joined.
            Some(_) if shared.admission.is_closed() => {
                format!("frontend shut down before {:?} was loaded", req.model_key)
            }
            Some(provider) => {
                let key = req.model_key.clone();
                routes.parked.insert(key.clone(), vec![req]);
                routes.builds.retain(|build| !build.is_finished());
                let build = spawn_cold_start(Arc::clone(shared), Arc::clone(provider), key);
                return routes.builds.push(build);
            }
        };
        req.resolve(None, RequestOutcome::Failed(detail));
    }

    /// Installs a finished cold start and releases its parked requests —
    /// the one place a deadline is checked: a request parked past it
    /// resolves `Expired`, unserved.
    fn settle_cold_start(&self, key: String, outcome: Result<ReplicaPool, String>) {
        let mut routes = self.routes.write().expect("route map poisoned");
        let waiting = routes.parked.remove(&key).unwrap_or_default();
        match outcome {
            Ok(pool) => {
                let now = Instant::now();
                for req in waiting {
                    if req.deadline <= now {
                        mvtee_telemetry::counter("serve.expired_total").inc();
                        req.resolve(None, RequestOutcome::Expired);
                    } else {
                        self.dispatch(&pool, req);
                    }
                }
                routes.pools.insert(key, pool);
            }
            Err(detail) => {
                let detail = format!("cold start failed for {key:?}: {detail}");
                for req in waiting {
                    req.resolve(None, RequestOutcome::Failed(detail.clone()));
                }
            }
        }
    }
}

/// Runs one cold-start build on its own worker thread, which then
/// installs the outcome itself.
fn spawn_cold_start(
    shared: Arc<Shared>,
    provider: Arc<dyn ColdStartProvider>,
    model_key: String,
) -> JoinHandle<()> {
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
            shared.settle_cold_start(model_key, outcome);
        })
        .expect("spawn serve cold-start worker")
}

/// Records a shed as a trace instant and snapshots the flight recorder
/// — a shed under load is exactly the moment the recent span history
/// explains why the bound was reached.
fn shed_trace(id: u64, tenant: &str, trace: TraceCtx, reason: &str) {
    let tracer = mvtee_telemetry::trace::recorder();
    if !tracer.is_enabled() {
        return;
    }
    tracer
        .instant(trace, "serve.shed", "serve")
        .arg("id", id)
        .arg("tenant", tenant)
        .arg("reason", reason);
    tracer.dump(&format!("serve shed: {reason}"));
}
