//! The model zoo: structurally faithful builders for the seven pre-trained
//! DNNs evaluated by the paper (§6.1) — EfficientNet-b7, GoogleNet,
//! Inception V3, MnasNet, MobileNet V3, ResNet-152 and ResNet-50.
//!
//! # Substitution note (see `DESIGN.md`)
//!
//! The paper loads real pre-trained ONNX models. MVTEE's behaviour depends
//! on model *structure* (node/edge topology for partitioning, operator mix
//! and compute distribution for performance, tensor shapes for checkpoint
//! payloads) — not on trained weights, so the zoo reproduces each
//! architecture block-for-block with deterministic random weights and a
//! configurable [`ScaleProfile`] that scales channel widths and input
//! resolution to keep simulation times practical. `ScaleProfile::Full`
//! reproduces the original channel counts and 3×224×224 inputs.

use crate::op::ActivationKind::{self, HardSigmoid, HardSwish, Relu, Relu6, Sigmoid, Silu};
use crate::{Graph, GraphBuilder, Result, ValueId};
use mvtee_tensor::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's evaluation models to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// EfficientNet-b7 (MBConv + squeeze-excite, SiLU).
    EfficientNetB7,
    /// GoogleNet / Inception V1 (LRN + inception blocks).
    GoogleNet,
    /// Inception V3 (factorised inception blocks A–E).
    InceptionV3,
    /// MnasNet-B1 (inverted residuals, ReLU6).
    MnasNet,
    /// MobileNet V3 Large (bneck blocks, hard-swish, squeeze-excite).
    MobileNetV3,
    /// ResNet-152 (bottleneck residuals, [3, 8, 36, 3]).
    ResNet152,
    /// ResNet-50 (bottleneck residuals, [3, 4, 6, 3]).
    ResNet50,
    /// **Extension (§7.4):** a transformer-style mixer "foundation model"
    /// — token-mixing MatMul + LayerNorm + gated MLP blocks over a
    /// `[seq, d]` embedding. Not part of the paper's seven evaluation
    /// models; included to demonstrate MVTEE beyond CNNs.
    FoundationMixer,
}

impl ModelKind {
    /// All seven models, in the paper's alphabetical presentation order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::EfficientNetB7,
        ModelKind::GoogleNet,
        ModelKind::InceptionV3,
        ModelKind::MnasNet,
        ModelKind::MobileNetV3,
        ModelKind::ResNet152,
        ModelKind::ResNet50,
    ];

    /// The paper's seven models plus the foundation-model extension.
    pub fn extended() -> Vec<ModelKind> {
        let mut all = Self::ALL.to_vec();
        all.push(ModelKind::FoundationMixer);
        all
    }

    /// Display name matching the paper's figures.
    pub fn display_name(self) -> &'static str {
        match self {
            ModelKind::EfficientNetB7 => "EfficientNet-b7",
            ModelKind::GoogleNet => "GoogleNet",
            ModelKind::InceptionV3 => "Inception V3",
            ModelKind::MnasNet => "MnasNet",
            ModelKind::MobileNetV3 => "MobileNet V3",
            ModelKind::ResNet152 => "ResNet-152",
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::FoundationMixer => "Foundation-Mixer",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// Channel-width / input-resolution scaling applied to the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScaleProfile {
    /// Tiny models for unit/integration tests (32×32 input, ~1/8 width).
    Test,
    /// Benchmark scale used by the experiment harness (64×64, ~1/4 width).
    Bench,
    /// The paper's original sizes (224×224 / 299×299, full width).
    Full,
}

impl ScaleProfile {
    /// Input spatial resolution.
    pub fn resolution(self) -> usize {
        match self {
            ScaleProfile::Test => 32,
            ScaleProfile::Bench => 64,
            ScaleProfile::Full => 224,
        }
    }

    /// Channel width multiplier.
    pub fn width(self) -> f32 {
        match self {
            ScaleProfile::Test => 0.125,
            ScaleProfile::Bench => 0.25,
            ScaleProfile::Full => 1.0,
        }
    }

    /// Classifier output classes.
    pub fn classes(self) -> usize {
        match self {
            ScaleProfile::Test => 10,
            ScaleProfile::Bench => 100,
            ScaleProfile::Full => 1000,
        }
    }

    /// Scales a channel count: multiple of 4, at least 4.
    pub fn ch(self, c: usize) -> usize {
        let scaled = (c as f32 * self.width()).round() as usize;
        (scaled.div_ceil(4) * 4).max(4)
    }
}

/// A built model: the graph plus its canonical input shape.
#[derive(Debug, Clone)]
pub struct Model {
    /// Which architecture this is.
    pub kind: ModelKind,
    /// The scale it was built at.
    pub profile: ScaleProfile,
    /// The computational graph (validated, shapes inferred).
    pub graph: Graph,
    /// The canonical `[1, 3, h, w]` input shape.
    pub input_shape: Shape,
}

/// Builds one of the paper's models at the given scale with a deterministic
/// weight seed.
///
/// # Errors
///
/// Propagates graph-construction errors (which indicate a bug in the zoo
/// itself; all architectures are covered by tests).
pub fn build(kind: ModelKind, profile: ScaleProfile, seed: u64) -> Result<Model> {
    let res = profile.resolution();
    if kind == ModelKind::FoundationMixer {
        let (seq, d) = mixer_dims(profile);
        let graph = foundation_mixer(profile, seed)?;
        return Ok(Model { kind, profile, graph, input_shape: Shape::new(&[seq, d]) });
    }
    let input_shape = Shape::new(&[1, 3, res, res]);
    let graph = match kind {
        ModelKind::ResNet50 => resnet(profile, seed, &[3, 4, 6, 3], "resnet50")?,
        ModelKind::ResNet152 => resnet(profile, seed, &[3, 8, 36, 3], "resnet152")?,
        ModelKind::GoogleNet => googlenet(profile, seed)?,
        ModelKind::InceptionV3 => inception_v3(profile, seed)?,
        ModelKind::MobileNetV3 => mobilenet_v3(profile, seed)?,
        ModelKind::MnasNet => mnasnet(profile, seed)?,
        ModelKind::EfficientNetB7 => efficientnet_b7(profile, seed)?,
        ModelKind::FoundationMixer => unreachable!("handled above"),
    };
    Ok(Model { kind, profile, graph, input_shape })
}

// ---------------------------------------------------------------------------
// ResNet family
// ---------------------------------------------------------------------------

fn resnet(profile: ScaleProfile, seed: u64, layers: &[usize; 4], name: &str) -> Result<Graph> {
    let p = profile;
    let mut b = GraphBuilder::new(name, seed);
    let x = b.input(&[1, 3, p.resolution(), p.resolution()]);
    let stem = b.conv_bn_act(x, p.ch(64), (7, 7), (2, 2), (3, 3), 1, Relu)?;
    let mut cur = b.max_pool(stem, (3, 3), (2, 2), (1, 1))?;
    let widths = [64usize, 128, 256, 512];
    for (stage, (&blocks, &width)) in layers.iter().zip(widths.iter()).enumerate() {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            cur = bottleneck(&mut b, cur, p.ch(width), p.ch(width * 4), stride)?;
        }
    }
    let gap = b.global_avg_pool(cur)?;
    let flat = b.flatten(gap)?;
    let fc = b.gemm(flat, p.classes())?;
    let out = b.softmax(fc)?;
    b.finish(vec![out])
}

fn bottleneck(
    b: &mut GraphBuilder,
    x: ValueId,
    mid: usize,
    out: usize,
    stride: usize,
) -> Result<ValueId> {
    let in_c = b.shape(x).dims()[1];
    let c1 = b.conv_bn_act(x, mid, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let c2 = b.conv_bn_act(c1, mid, (3, 3), (stride, stride), (1, 1), 1, Relu)?;
    let c3 = b.conv(c2, out, (1, 1), (1, 1), (0, 0), 1)?;
    let c3 = b.batch_norm(c3)?;
    let skip = if stride != 1 || in_c != out {
        let s = b.conv(x, out, (1, 1), (stride, stride), (0, 0), 1)?;
        b.batch_norm(s)?
    } else {
        x
    };
    let sum = b.add(c3, skip)?;
    b.activation(sum, Relu)
}

// ---------------------------------------------------------------------------
// GoogleNet (Inception V1)
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn inception_v1_block(
    b: &mut GraphBuilder,
    x: ValueId,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    pp: usize,
) -> Result<ValueId> {
    let b1 = b.conv_bn_act(x, c1, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b3 = b.conv_bn_act(x, c3r, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b3 = b.conv_bn_act(b3, c3, (3, 3), (1, 1), (1, 1), 1, Relu)?;
    let b5 = b.conv_bn_act(x, c5r, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b5 = b.conv_bn_act(b5, c5, (5, 5), (1, 1), (2, 2), 1, Relu)?;
    let bp = b.max_pool(x, (3, 3), (1, 1), (1, 1))?;
    let bp = b.conv_bn_act(bp, pp, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    b.concat(vec![b1, b3, b5, bp])
}

fn googlenet(p: ScaleProfile, seed: u64) -> Result<Graph> {
    let mut b = GraphBuilder::new("googlenet", seed);
    let x = b.input(&[1, 3, p.resolution(), p.resolution()]);
    let stem = b.conv_bn_act(x, p.ch(64), (7, 7), (2, 2), (3, 3), 1, Relu)?;
    let stem = b.max_pool(stem, (3, 3), (2, 2), (1, 1))?;
    let stem = b.lrn(stem, 5)?;
    let stem = b.conv_bn_act(stem, p.ch(64), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let stem = b.conv_bn_act(stem, p.ch(192), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    let stem = b.lrn(stem, 5)?;
    let mut cur = b.max_pool(stem, (3, 3), (2, 2), (1, 1))?;

    let c = |v: usize| p.ch(v);
    cur = inception_v1_block(&mut b, cur, c(64), c(96), c(128), c(16), c(32), c(32))?; // 3a
    cur = inception_v1_block(&mut b, cur, c(128), c(128), c(192), c(32), c(96), c(64))?; // 3b
    cur = b.max_pool(cur, (3, 3), (2, 2), (1, 1))?;
    cur = inception_v1_block(&mut b, cur, c(192), c(96), c(208), c(16), c(48), c(64))?; // 4a
    cur = inception_v1_block(&mut b, cur, c(160), c(112), c(224), c(24), c(64), c(64))?; // 4b
    cur = inception_v1_block(&mut b, cur, c(128), c(128), c(256), c(24), c(64), c(64))?; // 4c
    cur = inception_v1_block(&mut b, cur, c(112), c(144), c(288), c(32), c(64), c(64))?; // 4d
    cur = inception_v1_block(&mut b, cur, c(256), c(160), c(320), c(32), c(128), c(128))?; // 4e
    cur = b.max_pool(cur, (3, 3), (2, 2), (1, 1))?;
    cur = inception_v1_block(&mut b, cur, c(256), c(160), c(320), c(32), c(128), c(128))?; // 5a
    cur = inception_v1_block(&mut b, cur, c(384), c(192), c(384), c(48), c(128), c(128))?; // 5b

    let gap = b.global_avg_pool(cur)?;
    let flat = b.flatten(gap)?;
    let fc = b.gemm(flat, p.classes())?;
    let out = b.softmax(fc)?;
    b.finish(vec![out])
}

// ---------------------------------------------------------------------------
// Inception V3
// ---------------------------------------------------------------------------

fn inception_a(b: &mut GraphBuilder, x: ValueId, p: ScaleProfile, pool_ch: usize) -> Result<ValueId> {
    let c = |v: usize| p.ch(v);
    let b1 = b.conv_bn_act(x, c(64), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b5 = b.conv_bn_act(x, c(48), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b5 = b.conv_bn_act(b5, c(64), (5, 5), (1, 1), (2, 2), 1, Relu)?;
    let b3 = b.conv_bn_act(x, c(64), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b3 = b.conv_bn_act(b3, c(96), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    let b3 = b.conv_bn_act(b3, c(96), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    let bp = b.avg_pool(x, (3, 3), (1, 1), (1, 1))?;
    let bp = b.conv_bn_act(bp, pool_ch, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    b.concat(vec![b1, b5, b3, bp])
}

fn reduction_b(b: &mut GraphBuilder, x: ValueId, p: ScaleProfile) -> Result<ValueId> {
    let c = |v: usize| p.ch(v);
    let b3 = b.conv_bn_act(x, c(384), (3, 3), (2, 2), (1, 1), 1, Relu)?;
    let bd = b.conv_bn_act(x, c(64), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let bd = b.conv_bn_act(bd, c(96), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    let bd = b.conv_bn_act(bd, c(96), (3, 3), (2, 2), (1, 1), 1, Relu)?;
    let bp = b.max_pool(x, (3, 3), (2, 2), (1, 1))?;
    b.concat(vec![b3, bd, bp])
}

fn inception_c(b: &mut GraphBuilder, x: ValueId, p: ScaleProfile, ch7: usize) -> Result<ValueId> {
    let c = |v: usize| p.ch(v);
    let b1 = b.conv_bn_act(x, c(192), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b7 = b.conv_bn_act(x, ch7, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b7 = b.conv_bn_act(b7, ch7, (1, 7), (1, 1), (0, 3), 1, Relu)?;
    let b7 = b.conv_bn_act(b7, c(192), (7, 1), (1, 1), (3, 0), 1, Relu)?;
    let bd = b.conv_bn_act(x, ch7, (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let bd = b.conv_bn_act(bd, ch7, (7, 1), (1, 1), (3, 0), 1, Relu)?;
    let bd = b.conv_bn_act(bd, ch7, (1, 7), (1, 1), (0, 3), 1, Relu)?;
    let bd = b.conv_bn_act(bd, ch7, (7, 1), (1, 1), (3, 0), 1, Relu)?;
    let bd = b.conv_bn_act(bd, c(192), (1, 7), (1, 1), (0, 3), 1, Relu)?;
    let bp = b.avg_pool(x, (3, 3), (1, 1), (1, 1))?;
    let bp = b.conv_bn_act(bp, c(192), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    b.concat(vec![b1, b7, bd, bp])
}

fn reduction_d(b: &mut GraphBuilder, x: ValueId, p: ScaleProfile) -> Result<ValueId> {
    let c = |v: usize| p.ch(v);
    let b3 = b.conv_bn_act(x, c(192), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b3 = b.conv_bn_act(b3, c(320), (3, 3), (2, 2), (1, 1), 1, Relu)?;
    let b7 = b.conv_bn_act(x, c(192), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b7 = b.conv_bn_act(b7, c(192), (1, 7), (1, 1), (0, 3), 1, Relu)?;
    let b7 = b.conv_bn_act(b7, c(192), (7, 1), (1, 1), (3, 0), 1, Relu)?;
    let b7 = b.conv_bn_act(b7, c(192), (3, 3), (2, 2), (1, 1), 1, Relu)?;
    let bp = b.max_pool(x, (3, 3), (2, 2), (1, 1))?;
    b.concat(vec![b3, b7, bp])
}

fn inception_e(b: &mut GraphBuilder, x: ValueId, p: ScaleProfile) -> Result<ValueId> {
    let c = |v: usize| p.ch(v);
    let b1 = b.conv_bn_act(x, c(320), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b3 = b.conv_bn_act(x, c(384), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let b3a = b.conv_bn_act(b3, c(384), (1, 3), (1, 1), (0, 1), 1, Relu)?;
    let b3b = b.conv_bn_act(b3, c(384), (3, 1), (1, 1), (1, 0), 1, Relu)?;
    let bd = b.conv_bn_act(x, c(448), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    let bd = b.conv_bn_act(bd, c(384), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    let bda = b.conv_bn_act(bd, c(384), (1, 3), (1, 1), (0, 1), 1, Relu)?;
    let bdb = b.conv_bn_act(bd, c(384), (3, 1), (1, 1), (1, 0), 1, Relu)?;
    let bp = b.avg_pool(x, (3, 3), (1, 1), (1, 1))?;
    let bp = b.conv_bn_act(bp, c(192), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    b.concat(vec![b1, b3a, b3b, bda, bdb, bp])
}

fn inception_v3(p: ScaleProfile, seed: u64) -> Result<Graph> {
    let mut b = GraphBuilder::new("inception_v3", seed);
    let c = |v: usize| p.ch(v);
    let x = b.input(&[1, 3, p.resolution(), p.resolution()]);
    let mut cur = b.conv_bn_act(x, c(32), (3, 3), (2, 2), (1, 1), 1, Relu)?;
    cur = b.conv_bn_act(cur, c(32), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    cur = b.conv_bn_act(cur, c(64), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    cur = b.max_pool(cur, (3, 3), (2, 2), (1, 1))?;
    cur = b.conv_bn_act(cur, c(80), (1, 1), (1, 1), (0, 0), 1, Relu)?;
    cur = b.conv_bn_act(cur, c(192), (3, 3), (1, 1), (1, 1), 1, Relu)?;
    cur = b.max_pool(cur, (3, 3), (2, 2), (1, 1))?;

    cur = inception_a(&mut b, cur, p, c(32))?;
    cur = inception_a(&mut b, cur, p, c(64))?;
    cur = inception_a(&mut b, cur, p, c(64))?;
    cur = reduction_b(&mut b, cur, p)?;
    cur = inception_c(&mut b, cur, p, c(128))?;
    cur = inception_c(&mut b, cur, p, c(160))?;
    cur = inception_c(&mut b, cur, p, c(160))?;
    cur = inception_c(&mut b, cur, p, c(192))?;
    cur = reduction_d(&mut b, cur, p)?;
    cur = inception_e(&mut b, cur, p)?;
    cur = inception_e(&mut b, cur, p)?;

    let gap = b.global_avg_pool(cur)?;
    let flat = b.flatten(gap)?;
    let fc = b.gemm(flat, p.classes())?;
    let out = b.softmax(fc)?;
    b.finish(vec![out])
}

// ---------------------------------------------------------------------------
// MobileNet V3 Large
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn bneck(
    b: &mut GraphBuilder,
    x: ValueId,
    kernel: usize,
    expand: usize,
    out: usize,
    se: bool,
    act: ActivationKind,
    stride: usize,
) -> Result<ValueId> {
    let in_c = b.shape(x).dims()[1];
    let mut cur = x;
    if expand != in_c {
        cur = b.conv_bn_act(cur, expand, (1, 1), (1, 1), (0, 0), 1, act)?;
    }
    let pad = kernel / 2;
    cur = b.conv_bn_act(
        cur,
        expand,
        (kernel, kernel),
        (stride, stride),
        (pad, pad),
        expand,
        act,
    )?;
    if se {
        cur = b.squeeze_excite(cur, 4, Relu, HardSigmoid)?;
    }
    let proj = b.conv(cur, out, (1, 1), (1, 1), (0, 0), 1)?;
    let proj = b.batch_norm(proj)?;
    if stride == 1 && in_c == out {
        b.add(proj, x)
    } else {
        Ok(proj)
    }
}

fn mobilenet_v3(p: ScaleProfile, seed: u64) -> Result<Graph> {
    let mut b = GraphBuilder::new("mobilenet_v3", seed);
    let c = |v: usize| p.ch(v);
    let x = b.input(&[1, 3, p.resolution(), p.resolution()]);
    let mut cur = b.conv_bn_act(x, c(16), (3, 3), (2, 2), (1, 1), 1, HardSwish)?;
    // (kernel, expand, out, se, act, stride) — MobileNetV3-Large table.
    let rows: [(usize, usize, usize, bool, ActivationKind, usize); 15] = [
        (3, 16, 16, false, Relu, 1),
        (3, 64, 24, false, Relu, 2),
        (3, 72, 24, false, Relu, 1),
        (5, 72, 40, true, Relu, 2),
        (5, 120, 40, true, Relu, 1),
        (5, 120, 40, true, Relu, 1),
        (3, 240, 80, false, HardSwish, 2),
        (3, 200, 80, false, HardSwish, 1),
        (3, 184, 80, false, HardSwish, 1),
        (3, 184, 80, false, HardSwish, 1),
        (3, 480, 112, true, HardSwish, 1),
        (3, 672, 112, true, HardSwish, 1),
        (5, 672, 160, true, HardSwish, 2),
        (5, 960, 160, true, HardSwish, 1),
        (5, 960, 160, true, HardSwish, 1),
    ];
    for (k, e, o, se, act, s) in rows {
        cur = bneck(&mut b, cur, k, c(e), c(o), se, act, s)?;
    }
    cur = b.conv_bn_act(cur, c(960), (1, 1), (1, 1), (0, 0), 1, HardSwish)?;
    let gap = b.global_avg_pool(cur)?;
    let head = b.conv(gap, c(1280), (1, 1), (1, 1), (0, 0), 1)?;
    let head = b.activation(head, HardSwish)?;
    let flat = b.flatten(head)?;
    let fc = b.gemm(flat, p.classes())?;
    let out = b.softmax(fc)?;
    b.finish(vec![out])
}

// ---------------------------------------------------------------------------
// MnasNet-B1
// ---------------------------------------------------------------------------

fn mnasnet(p: ScaleProfile, seed: u64) -> Result<Graph> {
    let mut b = GraphBuilder::new("mnasnet", seed);
    let c = |v: usize| p.ch(v);
    let x = b.input(&[1, 3, p.resolution(), p.resolution()]);
    let mut cur = b.conv_bn_act(x, c(32), (3, 3), (2, 2), (1, 1), 1, Relu6)?;
    // Separable stem block.
    let dw_c = b.shape(cur).dims()[1];
    cur = b.conv_bn_act(cur, dw_c, (3, 3), (1, 1), (1, 1), dw_c, Relu6)?;
    cur = b.conv(cur, c(16), (1, 1), (1, 1), (0, 0), 1)?;
    cur = b.batch_norm(cur)?;
    // (kernel, expansion t, out channels, blocks, first-stride).
    let stages: [(usize, usize, usize, usize, usize); 6] = [
        (3, 3, 24, 3, 2),
        (5, 3, 40, 3, 2),
        (5, 6, 80, 3, 2),
        (3, 6, 96, 2, 1),
        (5, 6, 192, 4, 2),
        (3, 6, 320, 1, 1),
    ];
    for (k, t, o, blocks, first_stride) in stages {
        for i in 0..blocks {
            let stride = if i == 0 { first_stride } else { 1 };
            let in_c = b.shape(cur).dims()[1];
            cur = bneck(&mut b, cur, k, in_c * t, c(o), false, Relu6, stride)?;
        }
    }
    cur = b.conv_bn_act(cur, c(1280), (1, 1), (1, 1), (0, 0), 1, Relu6)?;
    let gap = b.global_avg_pool(cur)?;
    let flat = b.flatten(gap)?;
    let fc = b.gemm(flat, p.classes())?;
    let out = b.softmax(fc)?;
    b.finish(vec![out])
}

// ---------------------------------------------------------------------------
// EfficientNet-b7
// ---------------------------------------------------------------------------

fn mbconv(
    b: &mut GraphBuilder,
    x: ValueId,
    kernel: usize,
    expand_ratio: usize,
    out: usize,
    stride: usize,
) -> Result<ValueId> {
    let in_c = b.shape(x).dims()[1];
    let expanded = in_c * expand_ratio;
    let mut cur = x;
    if expand_ratio != 1 {
        cur = b.conv_bn_act(cur, expanded, (1, 1), (1, 1), (0, 0), 1, Silu)?;
    }
    let pad = kernel / 2;
    cur = b.conv_bn_act(
        cur,
        expanded,
        (kernel, kernel),
        (stride, stride),
        (pad, pad),
        expanded,
        Silu,
    )?;
    cur = b.squeeze_excite(cur, (4 * expand_ratio).max(4), Silu, Sigmoid)?;
    let proj = b.conv(cur, out, (1, 1), (1, 1), (0, 0), 1)?;
    let proj = b.batch_norm(proj)?;
    if stride == 1 && in_c == out {
        b.add(proj, x)
    } else {
        Ok(proj)
    }
}

fn efficientnet_b7(p: ScaleProfile, seed: u64) -> Result<Graph> {
    let mut b = GraphBuilder::new("efficientnet_b7", seed);
    let c = |v: usize| p.ch(v);
    let x = b.input(&[1, 3, p.resolution(), p.resolution()]);
    let mut cur = b.conv_bn_act(x, c(64), (3, 3), (2, 2), (1, 1), 1, Silu)?;
    // b7-scaled stages: (expand, out channels, layers, stride, kernel).
    let stages: [(usize, usize, usize, usize, usize); 7] = [
        (1, 32, 4, 1, 3),
        (6, 48, 7, 2, 3),
        (6, 80, 7, 2, 5),
        (6, 160, 10, 2, 3),
        (6, 224, 10, 1, 5),
        (6, 384, 13, 2, 5),
        (6, 640, 4, 1, 3),
    ];
    for (expand, out, layers, first_stride, kernel) in stages {
        for i in 0..layers {
            let stride = if i == 0 { first_stride } else { 1 };
            cur = mbconv(&mut b, cur, kernel, expand, c(out), stride)?;
        }
    }
    cur = b.conv_bn_act(cur, c(2560), (1, 1), (1, 1), (0, 0), 1, Silu)?;
    let gap = b.global_avg_pool(cur)?;
    let flat = b.flatten(gap)?;
    let fc = b.gemm(flat, p.classes())?;
    let out = b.softmax(fc)?;
    b.finish(vec![out])
}

// ---------------------------------------------------------------------------
// Foundation-model extension (§7.4): a transformer-style mixer
// ---------------------------------------------------------------------------

/// Sequence length and embedding width per profile.
fn mixer_dims(p: ScaleProfile) -> (usize, usize) {
    match p {
        ScaleProfile::Test => (16, 32),
        ScaleProfile::Bench => (32, 64),
        ScaleProfile::Full => (128, 512),
    }
}

/// Blocks per profile (depth).
fn mixer_depth(p: ScaleProfile) -> usize {
    match p {
        ScaleProfile::Test => 4,
        ScaleProfile::Bench => 8,
        ScaleProfile::Full => 12,
    }
}

fn foundation_mixer(p: ScaleProfile, seed: u64) -> Result<Graph> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let (seq, d) = mixer_dims(p);
    let mut b = GraphBuilder::new("foundation_mixer", seed);
    let x = b.input(&[seq, d]);
    // Token-mixing matrices are per-block initializers ("frozen attention"
    // patterns), scaled to keep activations bounded.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut cur = x;
    for _ in 0..mixer_depth(p) {
        // Token mixing: ln -> MatMul(M, ·) -> residual.
        let ln1 = b.layer_norm(cur)?;
        let mix = mvtee_tensor::Tensor::random_uniform(&mut rng, &[seq, seq], 1.0 / seq as f32);
        let mv = b.emit_initializer("token_mix", mix);
        let mixed = b.emit("tokmix", crate::Op::MatMul, vec![mv, ln1])?;
        cur = b.add(cur, mixed)?;
        // Channel MLP: ln -> Gemm(4d) -> SiLU -> Gemm(d) -> residual.
        let ln2 = b.layer_norm(cur)?;
        let up = b.gemm(ln2, 4 * d)?;
        let act = b.activation(up, Silu)?;
        let down = b.gemm(act, d)?;
        cur = b.add(cur, down)?;
    }
    let ln_f = b.layer_norm(cur)?;
    // Mean-pool over tokens via a constant [1, seq] matrix, then classify.
    let pool =
        mvtee_tensor::Tensor::full(&[1, seq], 1.0 / seq as f32);
    let pv = b.emit_initializer("mean_pool", pool);
    let pooled = b.emit("pool", crate::Op::MatMul, vec![pv, ln_f])?;
    let logits = b.gemm(pooled, p.classes())?;
    let out = b.softmax(logits)?;
    b.finish(vec![out])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_at_test_scale() {
        for kind in ModelKind::ALL {
            let model = build(kind, ScaleProfile::Test, 7).unwrap();
            model.graph.validate().unwrap();
            assert!(model.graph.node_count() > 30, "{kind} too small");
            assert_eq!(model.graph.inputs().len(), 1, "{kind}");
            assert_eq!(model.graph.outputs().len(), 1, "{kind}");
        }
    }

    #[test]
    fn depth_ordering_matches_architectures() {
        let n = |k| build(k, ScaleProfile::Test, 7).unwrap().graph.node_count();
        assert!(n(ModelKind::ResNet152) > n(ModelKind::ResNet50));
        assert!(n(ModelKind::EfficientNetB7) > n(ModelKind::ResNet50));
        assert!(n(ModelKind::InceptionV3) > n(ModelKind::GoogleNet));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = build(ModelKind::ResNet50, ScaleProfile::Test, 9).unwrap();
        let b = build(ModelKind::ResNet50, ScaleProfile::Test, 9).unwrap();
        assert_eq!(a.graph.nodes(), b.graph.nodes());
        for (x, y) in a.graph.initializers().values().zip(b.graph.initializers().values()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn scale_profile_channels() {
        assert_eq!(ScaleProfile::Full.ch(64), 64);
        assert_eq!(ScaleProfile::Test.ch(64), 8);
        assert!(ScaleProfile::Test.ch(3) >= 4);
        assert_eq!(ScaleProfile::Bench.ch(64), 16);
    }

    #[test]
    fn googlenet_uses_lrn_and_concat() {
        let m = build(ModelKind::GoogleNet, ScaleProfile::Test, 1).unwrap();
        let hist = m.graph.op_histogram();
        assert_eq!(hist.get("LRN"), Some(&2));
        assert_eq!(hist.get("Concat"), Some(&9));
    }

    #[test]
    fn mobilenet_uses_hardswish_and_se() {
        let m = build(ModelKind::MobileNetV3, ScaleProfile::Test, 1).unwrap();
        let hist = m.graph.op_histogram();
        assert!(hist.get("HardSwish").copied().unwrap_or(0) > 5);
        assert!(hist.get("HardSigmoid").copied().unwrap_or(0) >= 8);
        assert!(hist.get("ConvGrouped").copied().unwrap_or(0) >= 15);
    }

    #[test]
    fn efficientnet_b7_depth() {
        let m = build(ModelKind::EfficientNetB7, ScaleProfile::Test, 1).unwrap();
        // 55 MBConv blocks, each with SE — this is by far the deepest model.
        assert!(m.graph.node_count() > 500, "got {}", m.graph.node_count());
        let hist = m.graph.op_histogram();
        assert!(hist.get("Silu").copied().unwrap_or(0) > 100);
    }

    #[test]
    fn bench_scale_builds() {
        let m = build(ModelKind::ResNet50, ScaleProfile::Bench, 3).unwrap();
        m.graph.validate().unwrap();
        assert_eq!(m.input_shape.dims(), &[1, 3, 64, 64]);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::ResNet50.to_string(), "ResNet-50");
        assert_eq!(ModelKind::EfficientNetB7.to_string(), "EfficientNet-b7");
        assert_eq!(ModelKind::FoundationMixer.to_string(), "Foundation-Mixer");
    }

    #[test]
    fn foundation_mixer_builds_and_is_transformer_shaped() {
        let m = build(ModelKind::FoundationMixer, ScaleProfile::Test, 3).unwrap();
        m.graph.validate().unwrap();
        assert_eq!(m.input_shape.dims(), &[16, 32]);
        let hist = m.graph.op_histogram();
        assert!(hist.get("LayerNorm").copied().unwrap_or(0) >= 8);
        assert!(hist.get("MatMul").copied().unwrap_or(0) >= 5);
        assert!(hist.get("Gemm").copied().unwrap_or(0) >= 8);
        assert_eq!(ModelKind::extended().len(), 8);
    }
}
