//! Request/response envelopes for the serving frontend.

use crate::queue::Slot;
use mvtee_telemetry::trace::TraceCtx;
use mvtee_tensor::Tensor;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

/// One tenant's admitted inference request as it flows admission → pool
/// → pipeline, and back from the last stage.
pub struct InferRequest {
    /// Frontend-assigned id, unique per frontend; echoed in the
    /// response so callers (and the loss-accounting tests) can match
    /// every admitted request to exactly one answer.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Model/deployment key — names the replica pool that serves it.
    pub model_key: String,
    /// The input tensor.
    pub input: Tensor,
    /// Admission timestamp (end-to-end latency baseline).
    pub submitted: Instant,
    /// Absolute deadline; a request still parked behind a cold start
    /// once this passes resolves unserved (observable as
    /// `serve.expired_total`).
    pub deadline: Instant,
    /// Root trace context for this request, derived deterministically
    /// from `id`; propagated through pool → core pipeline.
    pub trace: TraceCtx,
    /// Response channel back to the caller's ticket.
    pub(crate) respond: SyncSender<InferResponse>,
    /// The request's hold on the admission bounds.
    pub(crate) slot: Slot,
}

impl InferRequest {
    /// Delivers the outcome to the caller's ticket; a dropped ticket
    /// (caller gave up) is not an error.
    pub(crate) fn resolve(self, replica: Option<usize>, outcome: RequestOutcome) {
        let latency = self.submitted.elapsed();
        let tracer = mvtee_telemetry::trace::recorder();
        if tracer.is_enabled() {
            let outcome_tag = match &outcome {
                RequestOutcome::Ok(_) => "ok",
                RequestOutcome::Failed(_) => "failed",
                RequestOutcome::Expired => "expired",
            };
            tracer
                .complete(self.trace, "serve.request", "serve", self.submitted)
                .arg("id", self.id)
                .arg("tenant", &self.tenant)
                .arg("outcome", outcome_tag);
        }
        // Given back before the caller can see the answer: a caller that
        // resubmits the instant it is answered finds its quota free.
        drop(self.slot);
        let _ = self.respond.send(InferResponse {
            id: self.id,
            tenant: self.tenant,
            replica,
            latency,
            outcome,
        });
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// The model output, byte-identical to a serial single-request run
    /// on the serving replica's configuration.
    Ok(Tensor),
    /// A checkpoint halted the request, or the replica lost its
    /// pipeline; the detail string carries the monitor's reason.
    Failed(String),
    /// The deadline passed while the request waited for a cold start.
    Expired,
}

impl RequestOutcome {
    /// Is this a successful completion?
    pub fn is_ok(&self) -> bool {
        matches!(self, RequestOutcome::Ok(_))
    }
}

/// The terminal answer for one request.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// The request id.
    pub id: u64,
    /// The submitting tenant (echoed for per-tenant accounting).
    pub tenant: String,
    /// Which pool replica served it (`None` when it never reached one).
    pub replica: Option<usize>,
    /// End-to-end latency, admission → resolution.
    pub latency: Duration,
    /// The outcome.
    pub outcome: RequestOutcome,
}

/// A caller's handle on one in-flight request.
pub struct Ticket {
    /// The request id (matches [`InferResponse::id`]).
    pub id: u64,
    pub(crate) rx: Receiver<InferResponse>,
}

impl Ticket {
    /// Blocks until the response arrives. Every admitted request is
    /// resolved — served, failed, or expired — even across replica
    /// recovery and frontend shutdown, so this cannot wait forever
    /// while the frontend lives.
    ///
    /// # Errors
    ///
    /// Returns an error only when the frontend was torn down without
    /// resolving the request (infrastructure loss).
    pub fn wait(self) -> Result<InferResponse, String> {
        self.rx.recv().map_err(|_| "serving frontend dropped the request".to_string())
    }

    /// [`Ticket::wait`] with an upper bound.
    ///
    /// # Errors
    ///
    /// Returns an error on timeout or frontend teardown.
    pub fn wait_timeout(self, timeout: Duration) -> Result<InferResponse, String> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => "timed out waiting for a response".to_string(),
            RecvTimeoutError::Disconnected => {
                "serving frontend dropped the request".to_string()
            }
        })
    }
}
