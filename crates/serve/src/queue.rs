//! Admission control: bounds on the requests admitted and not yet
//! answered, in total and per tenant, with observable load shedding.

use mvtee_telemetry::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Why a submission was rejected at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// `max_queue_depth` admitted requests are still unanswered.
    QueueFull,
    /// The tenant already has `per_tenant_quota` requests unanswered.
    Quota,
    /// The frontend is shutting down.
    ShuttingDown,
    /// The model key needs a registry cold start and the registry is
    /// saturated — admitting the request would only let it expire
    /// waiting while no cold start can begin.
    ColdStart,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "in-flight bound reached"),
            ShedReason::Quota => write!(f, "per-tenant quota exhausted"),
            ShedReason::ShuttingDown => write!(f, "frontend shutting down"),
            ShedReason::ColdStart => write!(f, "model cold start required and registry saturated"),
        }
    }
}

/// Point-in-time admission counters (cheap snapshot for tests/benches;
/// the same numbers flow to the global registry as `serve.*`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests offered for admission.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected because `max_queue_depth` were in flight.
    pub shed_queue_full: u64,
    /// Requests rejected because the tenant's quota was exhausted.
    pub shed_quota: u64,
    /// Requests rejected because the model needed a cold start and the
    /// registry was saturated.
    pub shed_coldstart: u64,
    /// Requests admitted and not yet answered.
    pub depth: usize,
}

struct Inner {
    /// Unanswered requests per tenant (tenants with none are absent).
    per_tenant: HashMap<String, usize>,
    stats: QueueStats,
    closed: bool,
}

/// The `serve.*` admission metrics, fetched once.
struct Metrics {
    submitted: Counter,
    admitted: Counter,
    shed: Counter,
    shed_queue_full: Counter,
    shed_quota: Counter,
    shed_coldstart: Counter,
    depth: Gauge,
}

/// The frontend's door: a request is admitted while fewer than
/// `max_in_flight` admitted requests, and fewer than `per_tenant_quota` of
/// its tenant's, are unanswered. Callers learn a [`ShedReason`] at once.
pub(crate) struct Admission {
    inner: Mutex<Inner>,
    max_in_flight: usize,
    per_tenant_quota: usize,
    metrics: Metrics,
}

/// An admitted request's hold on the bounds, given back when dropped —
/// as the request resolves.
pub(crate) struct Slot {
    admission: Arc<Admission>,
    tenant: String,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut inner = self.admission.inner.lock().expect("admission poisoned");
        if let Some(count) = inner.per_tenant.get_mut(&self.tenant) {
            *count -= 1;
            if *count == 0 {
                inner.per_tenant.remove(&self.tenant);
            }
        }
        inner.stats.depth -= 1;
        self.admission.metrics.depth.set(inner.stats.depth as i64);
    }
}

impl Admission {
    /// Bounds of `max_in_flight` unanswered requests in total and
    /// `per_tenant_quota` per tenant (both clamped to at least 1).
    pub(crate) fn new(max_in_flight: usize, per_tenant_quota: usize) -> Self {
        Admission {
            inner: Mutex::new(Inner {
                per_tenant: HashMap::new(),
                stats: QueueStats::default(),
                closed: false,
            }),
            max_in_flight: max_in_flight.max(1),
            per_tenant_quota: per_tenant_quota.max(1),
            metrics: Metrics {
                submitted: mvtee_telemetry::counter("serve.submitted_total"),
                admitted: mvtee_telemetry::counter("serve.admitted_total"),
                shed: mvtee_telemetry::counter("serve.shed_total"),
                shed_queue_full: mvtee_telemetry::counter("serve.shed_queue_full"),
                shed_quota: mvtee_telemetry::counter("serve.shed_quota"),
                shed_coldstart: mvtee_telemetry::counter("serve.shed_coldstart"),
                depth: mvtee_telemetry::gauge("serve.queue_depth"),
            },
        }
    }

    /// Admits one request from `tenant`, or says why not.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] at the total bound (checked first),
    /// [`ShedReason::Quota`] at the tenant's, [`ShedReason::ShuttingDown`]
    /// once closed.
    pub(crate) fn admit(self: &Arc<Self>, tenant: &str) -> Result<Slot, ShedReason> {
        let mut inner = self.inner.lock().expect("admission poisoned");
        inner.stats.submitted += 1;
        self.metrics.submitted.inc();
        if inner.closed {
            return Err(ShedReason::ShuttingDown);
        }
        if inner.stats.depth >= self.max_in_flight {
            inner.stats.shed_queue_full += 1;
            self.metrics.shed.inc();
            self.metrics.shed_queue_full.inc();
            return Err(ShedReason::QueueFull);
        }
        let tenant_load = inner.per_tenant.get(tenant).copied().unwrap_or(0);
        if tenant_load >= self.per_tenant_quota {
            inner.stats.shed_quota += 1;
            self.metrics.shed.inc();
            self.metrics.shed_quota.inc();
            return Err(ShedReason::Quota);
        }
        match inner.per_tenant.get_mut(tenant) {
            Some(n) => *n += 1,
            None => {
                inner.per_tenant.insert(tenant.to_owned(), 1);
            }
        }
        inner.stats.admitted += 1;
        inner.stats.depth += 1;
        self.metrics.admitted.inc();
        self.metrics.depth.set(inner.stats.depth as i64);
        Ok(Slot {
            admission: Arc::clone(self),
            tenant: tenant.to_owned(),
        })
    }

    /// Records a cold-start shed the frontend decided before admission
    /// (the model key is unknown and the registry cannot begin a cold
    /// start), keeping `submitted`/`shed_*` coherent with the others.
    pub(crate) fn record_coldstart_shed(&self) {
        let mut inner = self.inner.lock().expect("admission poisoned");
        inner.stats.submitted += 1;
        inner.stats.shed_coldstart += 1;
        drop(inner);
        self.metrics.submitted.inc();
        self.metrics.shed.inc();
        self.metrics.shed_coldstart.inc();
    }

    /// Closes the door: every later request sheds with
    /// [`ShedReason::ShuttingDown`]; admitted ones are still answered.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("admission poisoned").closed = true;
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().expect("admission poisoned").closed
    }

    /// Current admission counters.
    pub(crate) fn stats(&self) -> QueueStats {
        self.inner.lock().expect("admission poisoned").stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_when_full_and_over_quota() {
        let adm = Arc::new(Admission::new(2, 1));
        let _a = adm.admit("a").expect("admitted");
        // Tenant "a" already has its one slot.
        assert_eq!(adm.admit("a").err(), Some(ShedReason::Quota));
        let _b = adm.admit("b").expect("admitted");
        // Two in flight == max: full beats everything.
        assert_eq!(adm.admit("c").err(), Some(ShedReason::QueueFull));
        let stats = adm.stats();
        assert_eq!((stats.submitted, stats.admitted, stats.depth), (4, 2, 2));
        assert_eq!((stats.shed_quota, stats.shed_queue_full), (1, 1));
    }

    #[test]
    fn quota_frees_when_the_request_resolves() {
        let adm = Arc::new(Admission::new(8, 1));
        let slot = adm.admit("a").expect("admitted");
        assert_eq!(adm.admit("a").err(), Some(ShedReason::Quota));
        drop(slot);
        assert_eq!(adm.stats().depth, 0);
        assert!(adm.admit("a").is_ok(), "the quota must free once answered");
    }

    #[test]
    fn close_sheds_new_requests_but_keeps_admitted_ones() {
        let adm = Arc::new(Admission::new(8, 8));
        let slot = adm.admit("a").expect("admitted");
        adm.close();
        assert_eq!(adm.admit("a").err(), Some(ShedReason::ShuttingDown));
        assert_eq!(adm.stats().depth, 1);
        drop(slot);
        assert_eq!(adm.stats().depth, 0);
    }
}
