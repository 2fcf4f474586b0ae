//! The operator set of the IR.
//!
//! Covers everything the seven evaluation models need, plus the helper
//! operators used by graph-level diversification (Identity, Abs, dummy
//! Add/Mul by constants). Attribute semantics follow ONNX where ONNX has an
//! equivalent operator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Pooling flavour for [`Op::Pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (excluding padding from the divisor, as ONNX's
    /// default `count_include_pad = 0`).
    Average,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolKind::Max => write!(f, "Max"),
            PoolKind::Average => write!(f, "Avg"),
        }
    }
}

/// Element-wise activation flavour for [`Op::Activation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `min(max(0, x), 6)` — MobileNet/MnasNet family.
    Relu6,
    /// Logistic sigmoid.
    Sigmoid,
    /// `x * sigmoid(x)` (SiLU / swish) — EfficientNet family.
    Silu,
    /// `clamp(x/6 + 0.5, 0, 1)` — MobileNet V3.
    HardSigmoid,
    /// `x * hard_sigmoid(x)` — MobileNet V3.
    HardSwish,
    /// Hyperbolic tangent.
    Tanh,
    /// Absolute value (used by diversifying rewrites of Relu).
    Abs,
}

impl ActivationKind {
    /// Applies the activation to a scalar.
    #[inline]
    #[allow(clippy::manual_clamp)] // max/min keeps IEEE NaN laundering identical to Relu
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Relu6 => x.max(0.0).min(6.0),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Silu => x / (1.0 + (-x).exp()),
            ActivationKind::HardSigmoid => (x / 6.0 + 0.5).clamp(0.0, 1.0),
            ActivationKind::HardSwish => x * (x / 6.0 + 0.5).clamp(0.0, 1.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Abs => x.abs(),
        }
    }
}

impl fmt::Display for ActivationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ActivationKind::Relu => "Relu",
            ActivationKind::Relu6 => "Relu6",
            ActivationKind::Sigmoid => "Sigmoid",
            ActivationKind::Silu => "Silu",
            ActivationKind::HardSigmoid => "HardSigmoid",
            ActivationKind::HardSwish => "HardSwish",
            ActivationKind::Tanh => "Tanh",
            ActivationKind::Abs => "Abs",
        };
        write!(f, "{name}")
    }
}

/// A graph operator with its attributes.
///
/// Input/output arity conventions (checked by [`crate::Graph::validate`]):
///
/// | Op | Inputs | Outputs |
/// |---|---|---|
/// | `Conv` | x, w, \[b\] | y |
/// | `Gemm` | x, w, \[b\] | y |
/// | `MatMul` | a, b | y |
/// | `BatchNorm` | x, scale, bias, mean, var | y |
/// | `Activation` | x | y |
/// | `Pool` / `GlobalAvgPool` / `Lrn` / `Softmax` / `Flatten` / `Reshape` / `Identity` | x | y |
/// | `Add` / `Mul` | a, b | y |
/// | `Concat` | x0..xn | y |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// 2-D convolution over NCHW input.
    Conv {
        /// Kernel size `(kh, kw)` (must match the weight tensor).
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Symmetric zero padding `(ph, pw)`.
        padding: (usize, usize),
        /// Number of groups; `groups == in_channels` is a depthwise conv.
        groups: usize,
    },
    /// Fully connected layer: `y = x · wᵀ + b` over `[n, k]` inputs.
    Gemm,
    /// Plain matrix multiplication of two rank-2 tensors.
    MatMul,
    /// Inference-mode batch normalisation.
    BatchNorm {
        /// Numerical-stability epsilon.
        epsilon: f32,
    },
    /// Element-wise activation.
    Activation(ActivationKind),
    /// Spatial max/average pooling.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Kernel size `(kh, kw)`.
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Symmetric zero padding `(ph, pw)`.
        padding: (usize, usize),
    },
    /// Global average pooling to `[n, c, 1, 1]`.
    GlobalAvgPool,
    /// Local response normalisation (AlexNet/GoogleNet style).
    Lrn {
        /// Window size (number of adjacent channels).
        size: usize,
        /// Alpha scaling.
        alpha: f32,
        /// Beta exponent.
        beta: f32,
        /// Bias constant.
        bias: f32,
    },
    /// Element-wise addition (supports ONNX broadcasting).
    Add,
    /// Element-wise multiplication (supports ONNX broadcasting).
    Mul,
    /// Channel-axis (or arbitrary-axis) concatenation.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Softmax along `axis`.
    Softmax {
        /// Reduction axis.
        axis: usize,
    },
    /// Flattens dims `[axis..]` into one, keeping `[..axis]`.
    Flatten {
        /// First flattened axis.
        axis: usize,
    },
    /// Reshape to a fixed target shape (element count must match).
    Reshape {
        /// Target dims.
        target: Vec<usize>,
    },
    /// The identity function. Inserted by dummy-operator diversification;
    /// `Dropout` in inference mode is also lowered to this.
    Identity,
    /// Layer normalisation over the last axis (`y = (x - μ) / √(σ² + ε) · γ + β`)
    /// — the normalisation used by transformer-family foundation models
    /// (§7.4 extension).
    LayerNorm {
        /// Numerical-stability epsilon.
        epsilon: f32,
    },
}

impl Op {
    /// Short operator name (ONNX-style) for display and statistics.
    pub fn name(&self) -> String {
        match self {
            Op::Conv { groups, .. } if *groups > 1 => "ConvGrouped".to_string(),
            Op::Conv { .. } => "Conv".to_string(),
            Op::Gemm => "Gemm".to_string(),
            Op::MatMul => "MatMul".to_string(),
            Op::BatchNorm { .. } => "BatchNorm".to_string(),
            Op::Activation(k) => k.to_string(),
            Op::Pool { kind, .. } => format!("{kind}Pool"),
            Op::GlobalAvgPool => "GlobalAvgPool".to_string(),
            Op::Lrn { .. } => "LRN".to_string(),
            Op::Add => "Add".to_string(),
            Op::Mul => "Mul".to_string(),
            Op::Concat { .. } => "Concat".to_string(),
            Op::Softmax { .. } => "Softmax".to_string(),
            Op::Flatten { .. } => "Flatten".to_string(),
            Op::Reshape { .. } => "Reshape".to_string(),
            Op::Identity => "Identity".to_string(),
            Op::LayerNorm { .. } => "LayerNorm".to_string(),
        }
    }

    /// Valid input arity range `(min, max)` for the operator.
    pub fn arity(&self) -> (usize, usize) {
        match self {
            Op::Conv { .. } => (2, 3),
            Op::Gemm => (2, 3),
            Op::LayerNorm { .. } => (3, 3),
            Op::MatMul => (2, 2),
            Op::BatchNorm { .. } => (5, 5),
            Op::Activation(_)
            | Op::Pool { .. }
            | Op::GlobalAvgPool
            | Op::Lrn { .. }
            | Op::Softmax { .. }
            | Op::Flatten { .. }
            | Op::Reshape { .. }
            | Op::Identity => (1, 1),
            Op::Add | Op::Mul => (2, 2),
            Op::Concat { .. } => (1, usize::MAX),
        }
    }

    /// Rough multiply-accumulate cost estimate given the *output* element
    /// count and conv attributes. Used by partition weight functions to
    /// balance compute rather than just node counts.
    pub fn flops_per_output(&self, in_channels: usize) -> usize {
        match self {
            Op::Conv { kernel, groups, .. } => {
                (in_channels / (*groups).max(1)) * kernel.0 * kernel.1
            }
            Op::Gemm | Op::MatMul => in_channels,
            Op::BatchNorm { .. } | Op::LayerNorm { .. } => 2,
            Op::Lrn { size, .. } => *size,
            _ => 1,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_semantics() {
        assert_eq!(ActivationKind::Relu.apply(-1.0), 0.0);
        assert_eq!(ActivationKind::Relu.apply(2.0), 2.0);
        assert_eq!(ActivationKind::Relu6.apply(9.0), 6.0);
        assert!((ActivationKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert_eq!(ActivationKind::HardSigmoid.apply(3.0), 1.0);
        assert_eq!(ActivationKind::HardSigmoid.apply(-3.0), 0.0);
        assert_eq!(ActivationKind::HardSwish.apply(3.0), 3.0);
        assert_eq!(ActivationKind::Abs.apply(-2.5), 2.5);
        assert!((ActivationKind::Silu.apply(0.0)).abs() < 1e-6);
        assert!((ActivationKind::Tanh.apply(0.0)).abs() < 1e-6);
    }

    #[test]
    fn relu_from_abs_identity() {
        // relu(x) == (x + |x|) / 2, the decomposition used by the
        // equivalent-operator-replacement transform.
        for x in [-3.0f32, -0.5, 0.0, 0.5, 7.0] {
            let relu = ActivationKind::Relu.apply(x);
            let via_abs = (x + ActivationKind::Abs.apply(x)) / 2.0;
            assert_eq!(relu, via_abs);
        }
    }

    #[test]
    fn op_names() {
        let conv = Op::Conv { kernel: (3, 3), stride: (1, 1), padding: (1, 1), groups: 1 };
        assert_eq!(conv.name(), "Conv");
        let dw = Op::Conv { kernel: (3, 3), stride: (1, 1), padding: (1, 1), groups: 32 };
        assert_eq!(dw.name(), "ConvGrouped");
        assert_eq!(Op::Pool {
            kind: PoolKind::Max,
            kernel: (2, 2),
            stride: (2, 2),
            padding: (0, 0)
        }
        .name(), "MaxPool");
        assert_eq!(Op::Activation(ActivationKind::HardSwish).name(), "HardSwish");
    }

    #[test]
    fn arity_ranges() {
        assert_eq!(Op::Gemm.arity(), (2, 3));
        assert_eq!(Op::BatchNorm { epsilon: 1e-5 }.arity(), (5, 5));
        assert_eq!(Op::Concat { axis: 1 }.arity().0, 1);
        assert_eq!(Op::Identity.arity(), (1, 1));
    }

    #[test]
    fn flops_estimates_ordering() {
        let conv3 = Op::Conv { kernel: (3, 3), stride: (1, 1), padding: (1, 1), groups: 1 };
        let conv1 = Op::Conv { kernel: (1, 1), stride: (1, 1), padding: (0, 0), groups: 1 };
        assert!(conv3.flops_per_output(64) > conv1.flops_per_output(64));
        assert!(conv1.flops_per_output(64) > Op::Add.flops_per_output(64));
    }
}
