//! MVTEE: Multi-Variant Trusted Execution for secure model inference.
//!
//! This crate is the paper's primary contribution: a TEE-based model
//! inference system that runs multiple, diversified inference **variants**
//! in parallel and cross-checks their outputs at **checkpoints** created by
//! random-balanced model partitioning. A defect or exploit hits one
//! variant; the others crash differently or disagree — and the monitor
//! detects it before damage propagates.
//!
//! # Architecture (paper §3–§4)
//!
//! * **Offline phase** — [`deployment::OfflinePhase`] partitions the model
//!   ([`mvtee_partition`]), generates diversified variant bundles
//!   ([`mvtee_diversify`]) and seals them with per-variant keys
//!   ([`mvtee_tee`]).
//! * **Online phase** — [`deployment::Deployment`] spawns the monitor TEE
//!   and one variant TEE per (partition, variant) pair (cross-process
//!   user-space monitoring: each simulated TEE is its own thread with its
//!   own enclave state and encrypted channels). Variants boot through the
//!   **two-stage bootstrap** of Fig 5/6: attestation → key release →
//!   bundle decryption → one-time second-stage manifest → `exec()`.
//! * **Execution** — [`pipeline`] runs batches through the partition
//!   stages **sequentially** or **pipelined**, with the slow path
//!   (checkpoint consistency checks + [`voting`]) on MVX-enabled
//!   partitions and the fast path elsewhere (hybrid mode), in **sync** or
//!   **async cross-validation** mode.
//! * **Selective MVX** — [`config::MvxConfig`] controls vertical (which
//!   partitions) and horizontal (variants per partition) scaling.
//!
//! # Quickstart
//!
//! ```
//! use mvtee::prelude::*;
//! use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 7)?;
//! let mut deployment = Deployment::builder(model)
//!     .partitions(3)
//!     .mvx_on_partition(1, 3) // 3 variants on the 2nd partition
//!     .build()?;
//! let input = mvtee_tensor::Tensor::ones(&[1, 3, 32, 32]);
//! let output = deployment.infer(&input)?;
//! assert_eq!(output.dims()[0], 1);
//! deployment.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deployment;
pub mod events;
pub mod link;
pub mod messages;
pub mod pipeline;
pub mod recovery;
pub mod supervisor;
pub mod transcript;
pub mod variant_host;
pub mod voting;
pub mod worker;

mod error;
mod provision;
mod stage;

pub use config::{
    DegradationPolicy, ExecMode, MvxConfig, PartitionMvx, PathMode, RecoveryPolicy,
    ResponsePolicy, SupervisionPolicy, VotingPolicy,
};
pub use deployment::{build_specs, select_partition_set, Deployment, DeploymentBuilder, OfflinePhase, SpecPatch};
pub use error::MvxError;
pub use events::{EventLog, MonitorEvent};
pub use recovery::ResyncPoint;
pub use supervisor::HeartbeatMonitor;
pub use transcript::{
    verify_transcript, AuditError, AuditSummary, TranscriptEntry, TranscriptLog,
    TranscriptVerdict,
};
pub use voting::Verdict;
pub use worker::{run_worker, worker_binary, VariantPlacement, WorkerPlacement};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MvxError>;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::config::{
        DegradationPolicy, ExecMode, MvxConfig, PathMode, RecoveryPolicy, ResponsePolicy,
        VotingPolicy,
    };
    pub use crate::deployment::{Deployment, DeploymentBuilder};
    pub use crate::events::MonitorEvent;
    pub use crate::MvxError;
}
