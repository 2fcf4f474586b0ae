//! N-dimensional `f32` tensors for the MVTEE reproduction.
//!
//! This crate is the numeric foundation of the whole stack: the graph IR
//! (`mvtee-graph`), the diversified executors (`mvtee-runtime`) and the
//! MVX monitor's checkpoint consistency checks all operate on [`Tensor`]
//! values.
//!
//! The design follows the needs of the paper rather than those of a general
//! array library:
//!
//! * dense, contiguous `f32` storage (the paper evaluates FP32 inference),
//! * explicit [`Shape`] / stride handling,
//! * the checkpoint **consistency metrics** of §5.2 of the paper
//!   (cosine similarity, MSE, max absolute difference, `allclose`) in
//!   [`metrics`].
//!
//! # Example
//!
//! ```
//! use mvtee_tensor::{Tensor, metrics};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
//! let b = Tensor::from_vec(vec![1.0, 2.0, 3.0 + 1e-7], &[3]).unwrap();
//! assert!(metrics::allclose(&a, &b, 1e-5, 1e-6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod metrics;
mod shape;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
