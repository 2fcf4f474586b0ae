//! Fault and vulnerability injection for MVTEE's security evaluation.
//!
//! The paper's threat model targets (i) software memory-safety/runtime
//! errors in ML frameworks (the TensorFlow CVE classes of Table 1) and
//! (ii) faults in models or framework/library code (bit-flip attacks such
//! as Terminal Brain Damage and FrameFlip). This crate simulates both so
//! the security analysis is reproducible end-to-end:
//!
//! * [`bitflip`] — weight-targeted bit flips (exponent-MSB strategy for
//!   maximal accuracy damage, or random bits),
//! * [`blasfault`] — the FrameFlip analogue: a code-level fault in one
//!   BLAS backend; variants on other backends are unaffected,
//! * [`cve`] — six CVE-class simulators (OOB, UNP, FPE, IO, UAF, ACF)
//!   that fire only on variants whose configuration is susceptible,
//!   reproducing Table 1's "defending variants" matrix,
//! * [`liveness`] — progress faults (deterministic stalls/hangs, lossy
//!   response channels) that never corrupt a value but starve a
//!   checkpoint, exercising the straggler watchdog and recovery,
//! * [`netfault`] — wire-level faults (delay, stall, drop, duplicate,
//!   truncate, corrupt, torn write, disconnect) injected under the
//!   secure channel by a seeded [`FrameTransport`] wrapper, exercising
//!   AEAD detection, heartbeat deadlines and the connection supervisor,
//! * [`provision`] — chunked-model-upload faults (corrupt, truncated,
//!   dropped or reordered chunks, torn uploads, fingerprint mismatches)
//!   that the model registry must detect at provisioning time, before a
//!   variant ever runs the model.
//!
//! [`FrameTransport`]: mvtee_crypto::channel::FrameTransport
//!
//! Faults manifest exactly like the real thing at the MVX observation
//! level: a crash (the variant's run returns
//! [`mvtee_runtime::RuntimeError::Crashed`]) or a corrupted/divergent
//! output tensor — which is what the monitor's checkpoints must catch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitflip;
pub mod blasfault;
pub mod cve;
pub mod descriptor;
pub mod liveness;
pub mod netfault;
pub mod provision;

pub use bitflip::{flip_weight_bits, BitFlipStrategy, FlippedBit};
pub use blasfault::{FaultyBlas, FrameFlip, GemmCorruption};
pub use cve::{Attack, CveClass, FaultEffect, InputTrigger, VulnerableModel};
pub use descriptor::{BitFlipFault, FaultDescriptor};
pub use liveness::{ChannelFault, ChannelFaultMode, LivenessFault, StallFault, StallMode};
pub use netfault::{FaultDirection, FaultyTransport, NetFault, NetFaultClass};
pub use provision::{ProvisionFault, FAMILY_PROVISION};
