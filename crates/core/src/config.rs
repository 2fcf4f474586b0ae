//! The runtime-provisioned MVX configuration (§4.3).
//!
//! "Based on a runtime-provisioned MVX configuration that specifies the
//! partition set (number and sizes of partitions) and the variant claims
//! (type and number of variants per partition), the monitor manages the
//! attestation, key distribution, binding and fault tolerance of
//! variants."

use mvtee_tensor::metrics::Metric;
use serde::{Deserialize, Serialize};

/// How many variants an individual partition runs, and how they are
/// generated — the *variant claim* for that partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionMvx {
    /// Number of variants (1 = no MVX, fast path in hybrid mode).
    pub variants: usize,
    /// When `true`, variants are identical replicas (the fundamental-
    /// performance experiments); when `false`, diversified variants are
    /// drawn from the pool (the real-setup experiments).
    pub replicated: bool,
    /// Consistency metric for this partition's checkpoint.
    pub metric: Metric,
}

impl PartitionMvx {
    /// A single-variant (fast path) claim.
    pub fn single() -> Self {
        PartitionMvx {
            variants: 1,
            replicated: true,
            metric: Metric::strict(),
        }
    }

    /// `n` identical replicas with the zero-tolerance exact metric: the
    /// deterministic runtime makes replicas value-exact, so an agreement
    /// tolerance would only mask sub-tolerance corruption.
    pub fn replicated(n: usize) -> Self {
        PartitionMvx {
            variants: n,
            replicated: true,
            metric: Metric::exact(),
        }
    }

    /// `n` diversified variants with the relaxed heterogeneous metric.
    pub fn diversified(n: usize) -> Self {
        PartitionMvx {
            variants: n,
            replicated: false,
            metric: Metric::relaxed(),
        }
    }

    /// Is MVX active here (more than one variant)?
    pub fn mvx_enabled(&self) -> bool {
        self.variants > 1
    }
}

/// Checkpoint path selection (§4.3, Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PathMode {
    /// The default: slow path on MVX-enabled partitions, fast path on
    /// single-variant partitions.
    #[default]
    Hybrid,
    /// Force the slow path (checkpoint evaluation) everywhere — used to
    /// measure checkpointing overhead (Fig 10).
    ForceSlow,
    /// Force the fast path (fall-through) everywhere.
    ForceFast,
}

/// Checkpoint synchronisation mode (§4.3, Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExecMode {
    /// Wait for every variant at each checkpoint.
    #[default]
    Sync,
    /// Asynchronous cross-validation: proceed on majority consensus,
    /// validate stragglers when they arrive, react at the next checkpoint.
    AsyncCrossValidation,
}

/// Voting strategy at checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum VotingPolicy {
    /// All variants must agree (the security-first default).
    #[default]
    Unanimous,
    /// A strict majority suffices; minority dissent is flagged.
    Majority,
}

/// What the monitor does when a checkpoint detects divergence or a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ResponsePolicy {
    /// Stop the pipeline and surface an error (safety-critical default).
    #[default]
    Halt,
    /// Record the event, adopt the majority (or first consistent) output
    /// and continue (degraded service).
    ContinueWithMajority,
}

/// What voting does while a panel is *below strength* — one or more
/// variants quarantined or crashed and not yet recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DegradationPolicy {
    /// Fail the batch outright: a below-strength panel is treated as a
    /// divergence so the response policy fires (halt by default).
    Strict,
    /// Vote with the reduced quorum of survivors (the historical
    /// behaviour, so it stays the default).
    #[default]
    Degrade,
    /// Fall through the checkpoint flagged: take the first healthy
    /// output without voting and record a `ResponseTaken` marker so the
    /// degraded span is auditable.
    FastPathFallback,
}

/// Whether quarantined variants are re-provisioned, and when a variant
/// that keeps dying is given up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Master switch: when `false` (the default) quarantined variants
    /// are dropped for the rest of the stream, matching the historical
    /// continue-with-survivors behaviour.
    pub enabled: bool,
    /// Crash-loop budget: if more than this many recovery requests for
    /// the *same* variant slot arrive inside the manager's ten-second
    /// crash-loop window, it stops respawning (the death is escalated to
    /// `RecoveryFailed` and the panel serves degraded per
    /// [`DegradationPolicy`]). `0` disables crash-loop detection — the
    /// historical respawn-forever behaviour, so it stays the default.
    pub crash_loop_budget: u32,
}

impl RecoveryPolicy {
    /// Re-provision attempts after the first (attempt 0) fails. A
    /// constant, like the backoff base: no deployment ever set either.
    pub const MAX_RETRIES: u32 = 3;

    /// Recovery switched on.
    pub fn enabled() -> Self {
        RecoveryPolicy { enabled: true, ..Self::default() }
    }

    /// Backoff before retry attempt `k`: `25 ms * 2^k`, the shift capped
    /// at 16 (attempt 0 waits one base unit).
    pub fn backoff(attempt: u32) -> std::time::Duration {
        std::time::Duration::from_millis(25 << attempt.min(16))
    }
}

/// Heartbeat-driven worker supervision and socket-drop recovery.
///
/// Supervision watches each out-of-process worker's heartbeat lane: a
/// worker that misses [`miss_budget`] consecutive deadlines is declared
/// stalled, its connection is severed, and the ordinary quarantine →
/// recovery machinery heals it. With [`reconnect`] on, a worker whose
/// *socket* dropped but whose process is alive may redial and resume
/// from the last verified checkpoint instead of being fully respawned.
///
/// [`miss_budget`]: SupervisionPolicy::miss_budget
/// [`reconnect`]: SupervisionPolicy::reconnect
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionPolicy {
    /// Master switch: when `false` (the default) no heartbeat lane is
    /// provisioned and workers are only supervised by connection loss.
    pub enabled: bool,
    /// Keepalive ping period, in ms. Also the monitor's per-ping receive
    /// deadline.
    pub heartbeat_interval_ms: u64,
    /// Consecutive missed deadlines before the worker is declared
    /// stalled.
    pub miss_budget: u32,
    /// Allow a disconnected-but-alive worker to redial, re-attest and
    /// resume (reconnect-and-resume) before falling back to a respawn.
    pub reconnect: bool,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            enabled: false,
            heartbeat_interval_ms: 100,
            miss_budget: 3,
            reconnect: false,
        }
    }
}

impl SupervisionPolicy {
    /// Supervision switched on with the default cadence.
    pub fn enabled() -> Self {
        SupervisionPolicy { enabled: true, ..Self::default() }
    }

    /// Supervision with reconnect-and-resume also enabled.
    pub fn with_reconnect() -> Self {
        SupervisionPolicy { enabled: true, reconnect: true, ..Self::default() }
    }

    /// The heartbeat interval as a [`std::time::Duration`].
    pub fn heartbeat_interval(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.heartbeat_interval_ms)
    }
}

/// How long a caller waits on the pipeline's result channel before
/// declaring the deployment wedged. A constant: no caller ever sized it.
pub(crate) const RESULT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// The complete MVX configuration provisioned by the model owner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvxConfig {
    /// Number of partitions (checkpoints = partitions − 1).
    pub partitions: usize,
    /// Seed for partition-set selection from the pool.
    pub partition_seed: u64,
    /// Per-partition variant claims; length must equal `partitions`.
    pub claims: Vec<PartitionMvx>,
    /// Path mode.
    pub path: PathMode,
    /// Synchronisation mode.
    pub exec: ExecMode,
    /// Voting policy on slow-path checkpoints.
    pub voting: VotingPolicy,
    /// Response to detected inconsistencies.
    pub response: ResponsePolicy,
    /// Whether inter-TEE traffic is encrypted (disabled only by the
    /// overhead-measurement baseline of Fig 10).
    pub encrypt: bool,
    /// Per-partition checkpoint deadline in ms: how long, measured from
    /// dispatch, a stage coordinator waits for panel outputs before the
    /// straggler watchdog escalates (timeout → late dissent → quarantine).
    /// Replaces the old hardcoded 30 s `RESPONSE_TIMEOUT`.
    pub checkpoint_deadline_ms: u64,
    /// Voting behaviour while a panel is below strength.
    pub degradation: DegradationPolicy,
    /// Automatic quarantine-and-recover policy.
    pub recovery: RecoveryPolicy,
    /// Heartbeat supervision of out-of-process workers.
    pub supervision: SupervisionPolicy,
}

impl MvxConfig {
    /// A full fast-path configuration: every partition single-variant.
    pub fn fast_path(partitions: usize) -> Self {
        MvxConfig {
            partitions,
            partition_seed: 0x5eed,
            claims: vec![PartitionMvx::single(); partitions],
            path: PathMode::Hybrid,
            exec: ExecMode::Sync,
            voting: VotingPolicy::Unanimous,
            response: ResponsePolicy::Halt,
            encrypt: true,
            checkpoint_deadline_ms: 30_000,
            degradation: DegradationPolicy::default(),
            recovery: RecoveryPolicy::default(),
            supervision: SupervisionPolicy::default(),
        }
    }

    /// The checkpoint deadline as a [`std::time::Duration`].
    pub fn checkpoint_deadline(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.checkpoint_deadline_ms)
    }

    /// The worst-case detect→react time: one checkpoint deadline to
    /// detect, each retry's backoff, one deadline of slack per allowed
    /// attempt, and the result timeout of the batch in flight. A panel
    /// that heals later than this has failed to heal.
    pub fn heal_deadline(&self) -> std::time::Duration {
        let retries = RecoveryPolicy::MAX_RETRIES;
        let backoff: std::time::Duration = (0..retries).map(RecoveryPolicy::backoff).sum();
        self.checkpoint_deadline() * (retries + 2) + backoff + RESULT_TIMEOUT
    }

    /// Selective MVX: `variants` replicas on the partitions listed in
    /// `mvx_partitions`, single variants elsewhere.
    pub fn selective(partitions: usize, mvx_partitions: &[usize], variants: usize) -> Self {
        let mut cfg = Self::fast_path(partitions);
        for &p in mvx_partitions {
            if p < partitions {
                cfg.claims[p] = PartitionMvx::replicated(variants);
            }
        }
        cfg
    }

    /// Selective MVX with diversified variants (the real-setup experiments).
    pub fn selective_diversified(
        partitions: usize,
        mvx_partitions: &[usize],
        variants: usize,
    ) -> Self {
        let mut cfg = Self::selective(partitions, mvx_partitions, variants);
        for &p in mvx_partitions {
            if p < partitions {
                cfg.claims[p] = PartitionMvx::diversified(variants);
            }
        }
        cfg
    }

    /// Does partition `p` take the slow path under this configuration?
    pub fn slow_path(&self, p: usize) -> bool {
        match self.path {
            PathMode::ForceSlow => true,
            PathMode::ForceFast => false,
            PathMode::Hybrid => self.claims.get(p).map(PartitionMvx::mvx_enabled).unwrap_or(false),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MvxError::InvalidConfig`] with the violation.
    pub fn validate(&self) -> crate::Result<()> {
        if self.partitions == 0 {
            return Err(crate::MvxError::InvalidConfig("zero partitions".into()));
        }
        if self.claims.len() != self.partitions {
            return Err(crate::MvxError::InvalidConfig(format!(
                "{} claims for {} partitions",
                self.claims.len(),
                self.partitions
            )));
        }
        if self.claims.iter().any(|c| c.variants == 0) {
            return Err(crate::MvxError::InvalidConfig("a partition claims zero variants".into()));
        }
        if self.checkpoint_deadline_ms == 0 {
            return Err(crate::MvxError::InvalidConfig("zero checkpoint deadline".into()));
        }
        if self.supervision.enabled {
            if self.supervision.heartbeat_interval_ms == 0 {
                return Err(crate::MvxError::InvalidConfig("zero heartbeat interval".into()));
            }
            if self.supervision.miss_budget == 0 {
                return Err(crate::MvxError::InvalidConfig("zero heartbeat miss budget".into()));
            }
        }
        if self.exec == ExecMode::AsyncCrossValidation && self.partitions == 1 {
            // "This mode is inherently inapplicable for full MVX without
            // partitioning."
            return Err(crate::MvxError::InvalidConfig(
                "async cross-validation requires at least two partitions".into(),
            ));
        }
        Ok(())
    }

    /// Total number of variant TEEs this configuration spawns.
    pub fn total_variants(&self) -> usize {
        self.claims.iter().map(|c| c.variants).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_config() {
        let c = MvxConfig::fast_path(5);
        c.validate().unwrap();
        assert_eq!(c.total_variants(), 5);
        assert!(!c.slow_path(0));
        assert!(!c.claims[0].mvx_enabled());
    }

    #[test]
    fn selective_config() {
        let c = MvxConfig::selective(5, &[2], 3);
        c.validate().unwrap();
        assert_eq!(c.total_variants(), 7);
        assert!(c.slow_path(2));
        assert!(!c.slow_path(1));
    }

    #[test]
    fn force_paths() {
        let mut c = MvxConfig::fast_path(3);
        c.path = PathMode::ForceSlow;
        assert!(c.slow_path(0));
        c.path = PathMode::ForceFast;
        c.claims[1] = PartitionMvx::replicated(3);
        assert!(!c.slow_path(1));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(MvxConfig::fast_path(0).validate().is_err());
        let mut c = MvxConfig::fast_path(3);
        c.claims.pop();
        assert!(c.validate().is_err());
        let mut c = MvxConfig::fast_path(3);
        c.claims[0].variants = 0;
        assert!(c.validate().is_err());
        let mut c = MvxConfig::fast_path(1);
        c.exec = ExecMode::AsyncCrossValidation;
        assert!(c.validate().is_err());
    }

    #[test]
    fn recovery_backoff_is_exponential() {
        let ms = std::time::Duration::from_millis;
        assert_eq!(RecoveryPolicy::backoff(0), ms(25));
        assert_eq!(RecoveryPolicy::backoff(1), ms(50));
        assert_eq!(RecoveryPolicy::backoff(2), ms(100));
    }

    #[test]
    fn recovery_backoff_caps_at_the_shift_limit() {
        // Every attempt beyond the cap gets the attempt-16 delay exactly:
        // the shift saturates instead of growing without bound.
        let cap = RecoveryPolicy::backoff(16);
        assert_eq!(cap, std::time::Duration::from_millis(25 << 16));
        for attempt in [17, 100, 1_000_000, u32::MAX - 1, u32::MAX] {
            assert_eq!(RecoveryPolicy::backoff(attempt), cap, "attempt {attempt} must hit the cap");
        }
    }

    #[test]
    fn recovery_backoff_is_monotone_nondecreasing() {
        let mut prev = RecoveryPolicy::backoff(0);
        for attempt in 1..40u32 {
            let next = RecoveryPolicy::backoff(attempt);
            assert!(next >= prev, "backoff regressed at attempt {attempt}");
            prev = next;
        }
    }

    #[test]
    fn crash_loop_detection_is_off_by_default() {
        assert_eq!(RecoveryPolicy::default().crash_loop_budget, 0);
        assert_eq!(RecoveryPolicy::enabled().crash_loop_budget, 0);
    }

    #[test]
    fn supervision_defaults_and_validation() {
        let c = MvxConfig::fast_path(2);
        assert!(!c.supervision.enabled);
        let mut c = MvxConfig::fast_path(2);
        c.supervision = SupervisionPolicy::enabled();
        assert_eq!(c.supervision.heartbeat_interval(), std::time::Duration::from_millis(100));
        assert_eq!(c.supervision.miss_budget, 3);
        c.validate().unwrap();
        c.supervision.heartbeat_interval_ms = 0;
        assert!(c.validate().is_err());
        assert!(SupervisionPolicy::with_reconnect().reconnect);
        let mut c = MvxConfig::fast_path(2);
        c.supervision = SupervisionPolicy::enabled();
        c.supervision.miss_budget = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_timeouts() {
        let mut c = MvxConfig::fast_path(2);
        assert_eq!(c.checkpoint_deadline(), std::time::Duration::from_secs(30));
        c.checkpoint_deadline_ms = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn diversified_claims_use_relaxed_metric() {
        let c = MvxConfig::selective_diversified(5, &[2, 3], 3);
        assert!(!c.claims[2].replicated);
        assert!(c.claims[2].metric == Metric::relaxed());
        assert!(c.claims[0].replicated);
    }
}
