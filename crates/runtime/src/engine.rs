//! The inference engine abstraction and its three diversified families.
//!
//! | Family | Real-world analogue | Distinguishing implementation |
//! |---|---|---|
//! | [`EngineKind::Reference`] | a framework's eager interpreter | direct NCHW kernels, naive BLAS, no optimisation |
//! | [`EngineKind::OrtLike`] | ONNX Runtime CPU EP | prepare-time graph optimisation (BN folding, identity elimination), im2col + blocked GEMM |
//! | [`EngineKind::TvmLike`] | TVM graph executor with tuned schedules | NHWC or im2col schedules, `k`-outer GEMM, pairwise-tree reductions |
//!
//! An [`Engine`] compiles a graph into a [`PreparedModel`]; prepared models
//! are `Send` so each variant TEE can own one on its own thread.

use crate::blas::{Blas, BlasKind};
use crate::cache::{KernelCtx, PackedGemm};
use crate::kernels::{self, Accumulation, ConvAttrs};
use crate::optimize;
use crate::pool::{RuntimeConfig, ThreadPool};
use crate::strategy::{GemmStrategy, KernelStrategy};
use crate::{Result, RuntimeError};
use mvtee_graph::{Graph, Node, NodeId, Op};
use mvtee_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Executor family selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EngineKind {
    /// Naive reference interpreter.
    Reference,
    /// ONNX-Runtime-like optimising executor.
    OrtLike,
    /// TVM-like compiled-schedule executor.
    TvmLike,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Reference => write!(f, "reference"),
            EngineKind::OrtLike => write!(f, "ort-like"),
            EngineKind::TvmLike => write!(f, "tvm-like"),
        }
    }
}

/// How convolutions are lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ConvStrategy {
    /// Direct NCHW loops.
    Direct,
    /// im2col + GEMM through the configured BLAS backend.
    Im2col,
    /// Direct NHWC loops with layout conversion at the boundary — the
    /// "complex diversified schedule" used by the slow TVM variant in the
    /// paper's asynchronous-execution evaluation (§6.4).
    NhwcDirect,
}

/// Full engine configuration: one point in the diversification space of
/// §4.2's inference-instance level.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Executor family.
    pub kind: EngineKind,
    /// BLAS backend.
    pub blas: BlasKind,
    /// Whether prepare-time graph optimisation runs.
    pub optimize: bool,
    /// Reduction accumulation order.
    pub accumulation: Accumulation,
    /// Convolution lowering.
    pub conv_strategy: ConvStrategy,
    /// Intra-op thread count for the deterministic kernel pool. Any value
    /// produces byte-identical outputs (chunking is a pure function of
    /// problem size, never of this count), so it is freely diversifiable
    /// per variant.
    pub intra_op_threads: usize,
    /// GEMM-family kernel strategy, resolved once at `prepare`
    /// ([`KernelStrategy::resolve`]; `Auto` is the BLAS path). Pinning
    /// variants to different values makes it a diversification axis.
    pub kernel_strategy: KernelStrategy,
}

impl EngineConfig {
    /// The idiomatic configuration for each executor family.
    pub fn of_kind(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Reference => EngineConfig {
                kind,
                blas: BlasKind::Naive,
                optimize: false,
                accumulation: Accumulation::Sequential,
                conv_strategy: ConvStrategy::Direct,
                intra_op_threads: 1,
                kernel_strategy: KernelStrategy::Auto,
            },
            EngineKind::OrtLike => EngineConfig {
                kind,
                blas: BlasKind::Blocked,
                optimize: true,
                accumulation: Accumulation::Sequential,
                conv_strategy: ConvStrategy::Im2col,
                intra_op_threads: 1,
                kernel_strategy: KernelStrategy::Auto,
            },
            EngineKind::TvmLike => EngineConfig {
                kind,
                blas: BlasKind::Strided,
                optimize: true,
                accumulation: Accumulation::Tree,
                conv_strategy: ConvStrategy::Im2col,
                intra_op_threads: 1,
                kernel_strategy: KernelStrategy::Auto,
            },
        }
    }

    /// The deliberately heavyweight TVM configuration with a complex
    /// diversified schedule (direct NHWC kernels); used to reproduce the
    /// "lagging variant" of Fig 13.
    pub fn tvm_complex() -> Self {
        EngineConfig {
            conv_strategy: ConvStrategy::NhwcDirect,
            ..Self::of_kind(EngineKind::TvmLike)
        }
    }

    /// Sets the BLAS backend.
    pub fn with_blas(mut self, blas: BlasKind) -> Self {
        self.blas = blas;
        self
    }

    /// Sets the optimisation toggle.
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Sets the intra-op thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.intra_op_threads = threads.max(1);
        self
    }

    /// Sets the GEMM-family kernel strategy override.
    pub fn with_kernel_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.kernel_strategy = strategy;
        self
    }

    /// A short human-readable descriptor (for logs and variant metadata).
    pub fn describe(&self) -> String {
        format!(
            "{}/{}/{}{}{}{}",
            self.kind,
            self.blas,
            match self.conv_strategy {
                ConvStrategy::Direct => "direct",
                ConvStrategy::Im2col => "im2col",
                ConvStrategy::NhwcDirect => "nhwc",
            },
            if self.optimize { "/opt" } else { "" },
            if self.intra_op_threads > 1 {
                format!("/t{}", self.intra_op_threads)
            } else {
                String::new()
            },
            match self.kernel_strategy {
                KernelStrategy::Auto => String::new(),
                pinned => format!("/mk-{}", pinned.token()),
            }
        )
    }
}

/// A compiled, executable model.
///
/// Inputs and outputs are positional, matching the source graph's
/// `inputs()` / `outputs()` order.
pub trait PreparedModel: Send + Sync {
    /// Runs one inference.
    ///
    /// # Errors
    ///
    /// Returns arity/shape errors for bad inputs and kernel errors for
    /// internal failures (including simulated faults).
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>>;

    /// Engine description (diagnostics).
    fn describe(&self) -> String;
}

/// A model-compiling engine.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
    blas: Arc<dyn Blas>,
    pool: Arc<ThreadPool>,
    custom_blas: bool,
}

impl fmt::Debug for dyn Blas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Blas({})", self.name())
    }
}

impl Engine {
    /// Creates an engine from a configuration with a built-in BLAS backend.
    pub fn new(config: EngineConfig) -> Self {
        let blas = config.blas.instantiate();
        let pool = ThreadPool::new(RuntimeConfig::with_threads(config.intra_op_threads));
        Engine { config, blas, pool, custom_blas: false }
    }

    /// Creates an engine with a custom BLAS implementation (used by the
    /// fault-injection crate to model code-level faults in one backend).
    ///
    /// Custom backends get a passthrough (single-chunk, inline) pool:
    /// fault models like `FrameFlip` corrupt outputs as a function of the
    /// per-call GEMM shape, so the call shapes must stay exactly those of
    /// the sequential runtime.
    pub fn with_custom_blas(config: EngineConfig, blas: Arc<dyn Blas>) -> Self {
        Engine { config, blas, pool: ThreadPool::passthrough(), custom_blas: true }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Whether this engine wraps a caller-supplied BLAS backend (such
    /// engines bypass the prepared-model cache and weight pre-packing).
    pub fn has_custom_blas(&self) -> bool {
        self.custom_blas
    }

    /// The engine's deterministic intra-op pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Compiles `graph` into an executable model.
    ///
    /// # Errors
    ///
    /// Fails when the graph is invalid or optimisation fails.
    pub fn prepare(&self, graph: &Graph) -> Result<Box<dyn PreparedModel>> {
        graph.validate()?;
        let compiled = if self.config.optimize {
            optimize::standard_pipeline(graph)?
        } else {
            graph.clone()
        };
        let order = compiled.topological_order()?;
        // Count value uses so the interpreter can free dead activations.
        let mut use_counts = vec![0u32; compiled.value_count()];
        for node in compiled.nodes() {
            for &i in &node.inputs {
                use_counts[i.0] += 1;
            }
        }
        for &o in compiled.outputs() {
            use_counts[o.0] += 1;
        }
        // Per-family telemetry handles, fetched once at prepare time so the
        // dispatch loop records without name lookups.
        let op_latency =
            mvtee_telemetry::histogram(&format!("runtime.{}.op_ns", self.config.kind));
        let gemm_calls =
            mvtee_telemetry::counter(&format!("runtime.{}.gemm_calls", self.config.kind));
        // The one kernel decision: custom BLAS backends stay on the scalar
        // path (their fault models corrupt outputs as a function of the
        // per-call GEMM shape, so call shapes must match the sequential
        // runtime); everything else runs what its config says.
        let strategy = if self.custom_blas {
            GemmStrategy::Scalar
        } else {
            self.config.kernel_strategy.resolve()
        };
        // Pre-pack FC weights once per prepare: transpose + column panels
        // keyed by the weight initializer's value id. Only the BLAS path of
        // a built-in backend reads them; the microkernel consumes the
        // `[m, k]` weight rows as they are.
        let mut packed: HashMap<usize, Arc<PackedGemm>> = HashMap::new();
        if !self.custom_blas && strategy != GemmStrategy::SimdMicrokernel {
            for node in compiled.nodes() {
                if !matches!(node.op, Op::Gemm) {
                    continue;
                }
                let Some(&wid) = node.inputs.get(1) else { continue };
                let Some(w) = compiled.initializer(wid) else { continue };
                if w.rank() == 2 {
                    packed
                        .entry(wid.0)
                        .or_insert_with(|| Arc::new(PackedGemm::pack(w, &self.pool)));
                }
            }
        }
        Ok(Box::new(Interpreter {
            graph: compiled,
            order,
            use_counts,
            blas: Arc::clone(&self.blas),
            config: self.config.clone(),
            ctx: KernelCtx::new(Arc::clone(&self.pool)),
            packed,
            strategy,
            op_latency,
            gemm_calls,
        }))
    }
}

struct Interpreter {
    graph: Graph,
    order: Vec<NodeId>,
    use_counts: Vec<u32>,
    blas: Arc<dyn Blas>,
    config: EngineConfig,
    ctx: KernelCtx,
    packed: HashMap<usize, Arc<PackedGemm>>,
    /// Resolved at `prepare`; every GEMM-family op runs this kernel.
    strategy: GemmStrategy,
    op_latency: mvtee_telemetry::Histogram,
    gemm_calls: mvtee_telemetry::Counter,
}

impl Interpreter {
    fn compute(&self, node: &Node, inputs: &[&Tensor]) -> Result<Tensor> {
        let acc = self.config.accumulation;
        match &node.op {
            Op::Conv { kernel, stride, padding, groups } => {
                let attrs = ConvAttrs {
                    kernel: *kernel,
                    stride: *stride,
                    padding: *padding,
                    groups: *groups,
                };
                let bias = inputs.get(2).copied();
                match self.config.conv_strategy {
                    ConvStrategy::Direct => kernels::conv2d_direct(inputs[0], inputs[1], bias, &attrs),
                    ConvStrategy::Im2col => {
                        self.gemm_calls.inc();
                        kernels::conv2d_im2col_with(
                            &self.ctx,
                            inputs[0],
                            inputs[1],
                            bias,
                            &attrs,
                            self.blas.as_ref(),
                            self.strategy,
                        )
                    }
                    ConvStrategy::NhwcDirect => {
                        let nhwc = inputs[0].to_nhwc()?;
                        let out = kernels::conv2d_nhwc_direct_with(
                            &self.ctx, &nhwc, inputs[1], bias, &attrs,
                        )?;
                        Ok(out.from_nhwc()?)
                    }
                }
            }
            Op::Gemm => {
                self.gemm_calls.inc();
                let packed = node
                    .inputs
                    .get(1)
                    .and_then(|wid| self.packed.get(&wid.0))
                    .map(Arc::as_ref);
                kernels::gemm_fc_with(
                    &self.ctx,
                    inputs[0],
                    inputs[1],
                    inputs.get(2).copied(),
                    self.blas.as_ref(),
                    packed,
                    self.strategy,
                )
            }
            Op::MatMul => {
                self.gemm_calls.inc();
                kernels::matmul_with(&self.ctx, inputs[0], inputs[1], self.blas.as_ref(), self.strategy)
            }
            Op::BatchNorm { epsilon } => kernels::batch_norm_with(
                &self.ctx, inputs[0], inputs[1], inputs[2], inputs[3], inputs[4], *epsilon,
            ),
            Op::Activation(kind) => Ok(kernels::activation(inputs[0], *kind)),
            Op::Pool { kind, kernel, stride, padding } => {
                kernels::pool2d_with(&self.ctx, inputs[0], *kind, *kernel, *stride, *padding, acc)
            }
            Op::GlobalAvgPool => kernels::global_avg_pool_with(&self.ctx, inputs[0], acc),
            Op::Lrn { size, alpha, beta, bias } => {
                kernels::lrn(inputs[0], *size, *alpha, *beta, *bias)
            }
            Op::Add => Ok(inputs[0].broadcast_with(inputs[1], |a, b| a + b)?),
            Op::Mul => Ok(inputs[0].broadcast_with(inputs[1], |a, b| a * b)?),
            Op::Concat { axis } => kernels::concat(inputs, *axis),
            Op::Softmax { axis } => kernels::softmax_with(&self.ctx, inputs[0], *axis, acc),
            Op::Flatten { axis } => {
                let dims = inputs[0].dims();
                let keep: usize = dims[..(*axis).min(dims.len())].iter().product();
                let flat: usize = dims[(*axis).min(dims.len())..].iter().product();
                Ok(inputs[0].reshape(&[keep.max(1), flat])?)
            }
            Op::Reshape { target } => Ok(inputs[0].reshape(target)?),
            Op::Identity => Ok(inputs[0].clone()),
            Op::LayerNorm { epsilon } => {
                kernels::layer_norm_with(&self.ctx, inputs[0], inputs[1], inputs[2], *epsilon, acc)
            }
        }
    }
}

impl PreparedModel for Interpreter {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let graph_inputs = self.graph.inputs();
        if inputs.len() != graph_inputs.len() {
            return Err(RuntimeError::InputArity {
                expected: graph_inputs.len(),
                actual: inputs.len(),
            });
        }
        let mut values: Vec<Option<Tensor>> = vec![None; self.graph.value_count()];
        let mut remaining = self.use_counts.clone();
        for (i, (&vid, tensor)) in graph_inputs.iter().zip(inputs.iter()).enumerate() {
            if let Some(expected) = &self.graph.value(vid)?.shape {
                if expected != tensor.shape() {
                    return Err(RuntimeError::InputShape {
                        index: i,
                        expected: expected.to_string(),
                        actual: tensor.shape().to_string(),
                    });
                }
            }
            values[vid.0] = Some(tensor.clone());
        }
        for &nid in &self.order {
            let node = self.graph.node(nid)?;
            let mut in_refs: Vec<&Tensor> = Vec::with_capacity(node.inputs.len());
            for &i in &node.inputs {
                let t = values[i.0]
                    .as_ref()
                    .or_else(|| self.graph.initializer(i))
                    .ok_or_else(|| RuntimeError::Kernel {
                        node: node.name.clone(),
                        reason: format!("missing value {}", i.0),
                    })?;
                in_refs.push(t);
            }
            let tracer = mvtee_telemetry::trace::recorder();
            let _op_trace = if tracer.is_enabled() {
                // One span per op under the ambient (variant-run) span,
                // annotated with shape and the intra-op thread count.
                let shape = in_refs
                    .first()
                    .map(|t| format!("{:?}", t.dims()))
                    .unwrap_or_default();
                Some(
                    tracer
                        .span(mvtee_telemetry::trace::current(), "runtime.op", "runtime")
                        .arg("node", &node.name)
                        .arg("shape", shape)
                        .arg("threads", self.config.intra_op_threads),
                )
            } else {
                None
            };
            let out = {
                let _op_span = self.op_latency.start();
                self.compute(node, &in_refs)
            }
                .map_err(|e| match e {
                    RuntimeError::Kernel { reason, .. } => {
                        RuntimeError::Kernel { node: node.name.clone(), reason }
                    }
                    other => other,
                })?;
            // Every op here has exactly one output: move, don't clone.
            debug_assert_eq!(node.outputs.len(), 1);
            values[node.outputs[0].0] = Some(out);
            // Free activations whose consumers have all run.
            for &i in &node.inputs {
                let count = &mut remaining[i.0];
                *count = count.saturating_sub(1);
                if *count == 0 && !graph_inputs.contains(&i) {
                    values[i.0] = None;
                }
            }
        }
        let mut outputs = Vec::with_capacity(self.graph.outputs().len());
        for &o in self.graph.outputs() {
            let t = values[o.0]
                .as_ref()
                .or_else(|| self.graph.initializer(o))
                .ok_or_else(|| RuntimeError::Kernel {
                    node: "<outputs>".into(),
                    reason: format!("output {} never produced", o.0),
                })?;
            outputs.push(t.clone());
        }
        Ok(outputs)
    }

    fn describe(&self) -> String {
        format!("{} on '{}'", self.config.describe(), self.graph.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_tensor::metrics;

    fn test_input(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(
            (0..n).map(|i| ((i % 101) as f32 - 50.0) / 50.0).collect(),
            dims,
        )
        .unwrap()
    }

    fn engines() -> Vec<Engine> {
        vec![
            Engine::new(EngineConfig::of_kind(EngineKind::Reference)),
            Engine::new(EngineConfig::of_kind(EngineKind::OrtLike)),
            Engine::new(EngineConfig::of_kind(EngineKind::TvmLike)),
            Engine::new(EngineConfig::tvm_complex()),
        ]
    }

    #[test]
    fn engine_families_agree_on_resnet50() {
        let m = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let input = test_input(m.input_shape.dims());
        let mut outputs = Vec::new();
        for e in engines() {
            let p = e.prepare(&m.graph).unwrap();
            outputs.push(p.run(std::slice::from_ref(&input)).unwrap().remove(0));
        }
        for pair in outputs.windows(2) {
            assert!(
                metrics::allclose(&pair[0], &pair[1], 1e-3, 1e-5),
                "engines diverged: max diff {}",
                metrics::max_abs_diff(&pair[0], &pair[1])
            );
        }
    }

    #[test]
    fn engine_families_agree_on_every_zoo_model() {
        for kind in ModelKind::ALL {
            let m = zoo::build(kind, ScaleProfile::Test, 8).unwrap();
            let input = test_input(m.input_shape.dims());
            let reference = Engine::new(EngineConfig::of_kind(EngineKind::Reference))
                .prepare(&m.graph)
                .unwrap()
                .run(std::slice::from_ref(&input))
                .unwrap()
                .remove(0);
            let ort = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike))
                .prepare(&m.graph)
                .unwrap()
                .run(std::slice::from_ref(&input))
                .unwrap()
                .remove(0);
            assert!(
                metrics::allclose(&reference, &ort, 1e-3, 1e-5),
                "{kind}: max diff {}",
                metrics::max_abs_diff(&reference, &ort)
            );
            // Softmax outputs must be a distribution.
            let s: f32 = ort.data().iter().sum();
            assert!((s - 1.0).abs() < 1e-3, "{kind}: softmax sum {s}");
        }
    }

    #[test]
    fn wrong_input_arity_rejected() {
        let m = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let p = Engine::new(EngineConfig::of_kind(EngineKind::Reference))
            .prepare(&m.graph)
            .unwrap();
        assert!(matches!(p.run(&[]), Err(RuntimeError::InputArity { expected: 1, actual: 0 })));
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let m = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let p = Engine::new(EngineConfig::of_kind(EngineKind::Reference))
            .prepare(&m.graph)
            .unwrap();
        let bad = Tensor::zeros(&[1, 3, 8, 8]);
        assert!(matches!(p.run(&[bad]), Err(RuntimeError::InputShape { .. })));
    }

    #[test]
    fn deterministic_execution() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let input = test_input(m.input_shape.dims());
        let p = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike)).prepare(&m.graph).unwrap();
        let a = p.run(std::slice::from_ref(&input)).unwrap();
        let b = p.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn optimized_engine_shrinks_graph_cost() {
        // BN folding means the OrtLike engine runs fewer nodes; verify via
        // the description (indirect) and by semantics preserved above. Here
        // just check that prepare succeeds with optimization on and off.
        let m = zoo::build(ModelKind::GoogleNet, ScaleProfile::Test, 4).unwrap();
        let opt = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
        let raw = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike).with_optimize(false));
        assert!(opt.prepare(&m.graph).is_ok());
        assert!(raw.prepare(&m.graph).is_ok());
    }

    #[test]
    fn describe_mentions_family() {
        let m = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let p = Engine::new(EngineConfig::of_kind(EngineKind::TvmLike)).prepare(&m.graph).unwrap();
        assert!(p.describe().contains("tvm-like"));
        assert!(EngineConfig::tvm_complex().describe().contains("nhwc"));
    }

    #[test]
    fn prepared_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn PreparedModel>();
    }
}
