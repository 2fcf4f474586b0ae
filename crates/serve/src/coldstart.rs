//! On-demand model cold start for the serving frontend.
//!
//! The frontend starts with a fixed set of replica pools; the encrypted
//! model registry makes the model population dynamic. A
//! [`ColdStartProvider`] bridges the two without making this crate
//! depend on the registry: the first admitted request naming a model key
//! with no pool has the frontend ask the provider, on a build thread of
//! its own, to build one (checkout from sealed storage, warm the session
//! caches, spin up replicas) while requests for the key park; and the
//! submission handle sheds [`ShedReason::ColdStart`] at the door when
//! the provider reports it cannot start anything right now.
//!
//! [`ShedReason::ColdStart`]: crate::queue::ShedReason::ColdStart

use crate::pool::ReplicaPool;

/// Builds replica pools on demand for model keys the frontend does not
/// yet serve. Implementations are expected to be backed by the
/// encrypted model registry (`mvtee-registry`), but anything that can
/// turn a model key into a [`ReplicaPool`] works.
pub trait ColdStartProvider: Send + Sync {
    /// Builds a pool for `model_key`.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the key is unknown, the sealed
    /// bundle fails verification, or the deployment cannot be built;
    /// every request parked for the key fails with it.
    fn cold_start(&self, model_key: &str) -> Result<ReplicaPool, String>;

    /// True when no cold start can begin right now (registry at
    /// capacity). Unknown-key submissions shed with
    /// [`ShedReason::ColdStart`](crate::queue::ShedReason::ColdStart)
    /// instead of parking toward certain expiry.
    fn saturated(&self) -> bool;
}
