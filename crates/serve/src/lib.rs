//! The MVTEE serving frontend: many concurrent tenants, one MVX fleet.
//!
//! The `mvtee` crate serves exactly one caller per [`Deployment`]; the
//! ROADMAP's north star is heavy concurrent traffic. This crate adds the
//! layer between the two:
//!
//! ```text
//!  clients ──▶ AdmissionQueue ──▶ dispatcher ──▶ ReplicaPool ──▶ clients
//!             (per-tenant quotas,  (deadline       (N diversified
//!              bounded depth,       check, cold     Deployments,
//!              shedding at the      starts,         least-outstanding
//!              door)                routing)        scheduling)
//! ```
//!
//! * [`AdmissionQueue`] — bounded, quota'd intake. Overload is shed at
//!   the door (`serve.shed_*`), expired deadlines are dropped at
//!   dispatch (`serve.expired_total`); both are observable, never silent.
//! * The dispatcher (one thread inside [`ServeFrontend`]) hands every
//!   request to a replica's pipeline the moment it drains it. There is
//!   no batcher: a request is its own pipeline batch with its own
//!   checkpoint verdict (which is why serving outputs are byte-identical
//!   to serial single-request runs), tensors were never fused, and the
//!   one thing grouping bought — several requests inside a replica's
//!   pipeline at once — streaming gives without holding anyone back.
//! * [`ReplicaPool`] — N independently diversified [`Deployment`]s built
//!   via [`DeploymentBuilder::build_many`], scheduled by least
//!   outstanding requests. Each replica is fed continuously and resolves
//!   its tickets one by one as results leave its pipeline, releasing the
//!   request's slot *before* the answer becomes visible so a sequential
//!   caller always finds the replica it just used idle again. Replicas
//!   heal through the core quarantine/recovery path while queued work
//!   keeps flowing.
//! * [`ServeFrontend`] — ties the three together behind a cloneable
//!   [`ServeHandle`] that client threads submit to.
//!
//! [`Deployment`]: mvtee::Deployment
//! [`DeploymentBuilder::build_many`]: mvtee::DeploymentBuilder::build_many

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coldstart;
mod config;
mod frontend;
mod pool;
mod queue;
mod request;

pub use coldstart::ColdStartProvider;
pub use config::ServeConfig;
pub use frontend::{ServeHandle, ServeFrontend};
pub use pool::{PoolStats, ReplicaPool};
pub use queue::{AdmissionQueue, QueueStats, ShedReason};
pub use request::{InferRequest, InferResponse, RequestOutcome, Ticket};

/// Registers every `serve.*` metric on the global telemetry registry so
/// reports show explicit zeros (the PR-1 eager-registration pattern)
/// rather than omitting counters that never fired.
pub fn register_serve_metrics() {
    for name in [
        "serve.submitted_total",
        "serve.admitted_total",
        "serve.shed_total",
        "serve.shed_queue_full",
        "serve.shed_quota",
        "serve.shed_coldstart",
        "serve.coldstart.requests",
        "serve.coldstart.built",
        "serve.coldstart.failed",
        "serve.expired_total",
        "serve.completed_total",
        "serve.failed_total",
        "serve.batches_total",
        "serve.pool.dispatched_total",
        "serve.pool.stream_failures",
    ] {
        mvtee_telemetry::counter(name);
    }
    mvtee_telemetry::gauge("serve.queue_depth");
    mvtee_telemetry::gauge("serve.pool.outstanding");
    mvtee_telemetry::histogram("serve.coldstart.build_ns");
    mvtee_telemetry::histogram("serve.queue_wait_ns");
    mvtee_telemetry::histogram("serve.e2e_latency_ns");
}
