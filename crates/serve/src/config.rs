//! Serving-frontend configuration.

use std::time::Duration;

/// Tuning knobs for the serving frontend.
///
/// The defaults favour the repo's smoke workloads (tiny models, a few
/// hundred requests); production-sized deployments would raise the
/// in-flight bound and deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests admitted and not yet answered, across all
    /// tenants and models; submissions beyond this are shed with
    /// [`ShedReason::QueueFull`].
    ///
    /// [`ShedReason::QueueFull`]: crate::ShedReason::QueueFull
    pub max_queue_depth: usize,
    /// Maximum requests admitted and not yet answered per tenant;
    /// submissions beyond this are shed with [`ShedReason::Quota`] so a
    /// single hot tenant cannot fill the fleet.
    ///
    /// [`ShedReason::Quota`]: crate::ShedReason::Quota
    pub per_tenant_quota: usize,
    /// Deadline applied by [`ServeHandle::submit`] when the caller does
    /// not pick one; requests still waiting for their model's cold start
    /// past it resolve [`RequestOutcome::Expired`].
    ///
    /// [`ServeHandle::submit`]: crate::ServeHandle::submit
    /// [`RequestOutcome::Expired`]: crate::RequestOutcome::Expired
    pub default_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_queue_depth: 256,
            per_tenant_quota: 64,
            default_deadline_ms: 30_000,
        }
    }
}

impl ServeConfig {
    /// The default per-request deadline as a [`Duration`].
    pub fn default_deadline(&self) -> Duration {
        Duration::from_millis(self.default_deadline_ms)
    }
}
