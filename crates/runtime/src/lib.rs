//! Diversified DNN inference runtimes for the MVTEE reproduction.
//!
//! The paper's variants execute on heterogeneous inference stacks — ONNX
//! Runtime with different execution providers, TVM graph executors with
//! different auto-tuned schedules, different BLAS backends (OpenBLAS, Eigen,
//! Intel MKL). This crate rebuilds that diversity surface in Rust:
//!
//! * [`blas`] — three interchangeable GEMM backends with distinct loop
//!   orders, blocking and accumulation behaviour (the OpenBLAS / Eigen /
//!   MKL stand-ins; also the attachment point for FrameFlip-style code
//!   faults),
//! * [`kernels`] — operator kernels (direct and im2col convolutions in
//!   NCHW and NHWC, poolings, normalisations, activations, …),
//! * [`optimize`] — graph optimisation passes (BN folding, identity
//!   elimination) used both by the ORT-like executor and by the
//!   *selective optimisation* diversification of §4.2,
//! * [`engine`] — the [`Engine`]/[`PreparedModel`] abstraction with three
//!   families: [`EngineKind::Reference`] (naive interpreter),
//!   [`EngineKind::OrtLike`] (graph-optimising, im2col + blocked GEMM) and
//!   [`EngineKind::TvmLike`] ("compiled schedules": NHWC layout,
//!   tree-reduction accumulation, tunable kernels),
//! * [`strategy`] — the GEMM-family kernel axis ([`KernelStrategy`]): pinned
//!   per engine config and resolved once at [`Engine::prepare`]; the default
//!   is the BLAS path, the SIMD microkernel of [`simd`] is a variant.
//!
//! Functionally all engines are equivalent; numerically they differ in
//! floating-point rounding exactly as real heterogeneous stacks do, which is
//! the benign divergence MVTEE's thresholded checks must tolerate.
//!
//! # Example
//!
//! ```
//! use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
//! use mvtee_runtime::{Engine, EngineConfig, EngineKind};
//! use mvtee_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 1)?;
//! let engine = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
//! let prepared = engine.prepare(&model.graph)?;
//! let input = Tensor::ones(model.input_shape.dims());
//! let outputs = prepared.run(&[input])?;
//! assert_eq!(outputs.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blas;
pub mod cache;
pub mod engine;
mod error;
pub mod kernels;
pub mod optimize;
pub mod pool;
pub mod simd;
pub mod strategy;

pub use blas::{Blas, BlasKind, BlockedBlas, NaiveBlas, StridedBlas};
pub use cache::{
    graph_fingerprint, session_cache, EngineCache, KernelCtx, PackedGemm, ScratchArena,
    SharedModel,
};
pub use engine::{ConvStrategy, Engine, EngineConfig, EngineKind, PreparedModel};
pub use error::RuntimeError;
pub use kernels::Accumulation;
pub use pool::{register_runtime_metrics, RuntimeConfig, ThreadPool};
pub use strategy::{GemmStrategy, KernelStrategy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
