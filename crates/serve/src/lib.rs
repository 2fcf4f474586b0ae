//! The MVTEE serving frontend: many concurrent tenants, one MVX fleet.
//!
//! The `mvtee` crate serves exactly one caller per [`Deployment`]; the
//! ROADMAP's north star is heavy concurrent traffic. This crate adds the
//! layer between the two:
//!
//! ```text
//!  clients ──▶ admission ──▶ ReplicaPool ──▶ pipeline ──▶ clients
//!             (in-flight      (N diversified   (each request its own
//!              bounds, total   Deployments,     batch; the last stage
//!              and per tenant, least-           answers the ticket)
//!              shed at the     outstanding
//!              door)           scheduling)
//! ```
//!
//! * Admission bounds the requests admitted and not yet answered:
//!   `max_queue_depth` in total and `per_tenant_quota` per tenant, so
//!   one hot tenant cannot fill the fleet. Overload is shed at the door
//!   (`serve.shed_*`), observably, never silently; an admitted request
//!   holds its slot until it resolves.
//! * There is no queue and no dispatcher thread: [`ServeHandle::submit`]
//!   hands an admitted request to its model's pool on the caller's
//!   thread, and the pipeline's last stage answers its ticket. Nothing
//!   batches either: a request is its own pipeline batch with its own
//!   checkpoint verdict, which is why serving outputs are byte-identical
//!   to serial single-request runs.
//! * [`ReplicaPool`] — N independently diversified [`Deployment`]s built
//!   via [`DeploymentBuilder::build_many`], scheduled by least
//!   outstanding requests. The last stage releases the request's replica
//!   slot *before* the answer becomes visible, so a sequential caller
//!   always finds the replica it just used idle again. Replicas heal
//!   through the core quarantine/recovery path while new work keeps
//!   flowing to their siblings.
//! * A model key no pool serves yet is cold-started through a
//!   [`ColdStartProvider`]; its requests park until the build lands.
//! * [`ServeFrontend`] — ties them together behind a cloneable
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
pub use queue::{QueueStats, ShedReason};
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
