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
use crate::cache::PackedGemm;
use crate::kernels::{self, Accumulation, ConvAttrs};
use crate::optimize;
use crate::packed::ConvRoute;
use crate::pool::{RuntimeConfig, ThreadPool};
use crate::strategy::{GemmStrategy, KernelStrategy};
use crate::{Result, RuntimeError};
use mvtee_graph::op::ActivationKind;
use mvtee_graph::{Graph, Node, Op, ValueId};
use mvtee_tensor::{Shape, Tensor};
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
    /// Custom backends get a one-thread pool whatever the config says:
    /// fault models like `FrameFlip` corrupt outputs as a function of the
    /// per-call GEMM shape, and an inline region makes one GEMM call over
    /// all its rows.
    pub fn with_custom_blas(config: EngineConfig, blas: Arc<dyn Blas>) -> Self {
        let pool = ThreadPool::new(RuntimeConfig::default());
        Engine { config, blas, pool, custom_blas: true }
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

    /// Compiles `graph` into an executable model.
    ///
    /// # Errors
    ///
    /// Fails when the graph is invalid or optimisation fails.
    pub fn prepare(&self, graph: &Graph) -> Result<Box<dyn PreparedModel>> {
        Ok(Box::new(self.compile(graph)?))
    }

    /// [`Engine::prepare`]'s interpreter, before it is boxed.
    fn compile(&self, graph: &Graph) -> Result<Interpreter> {
        graph.validate()?;
        let mut compiled = if self.config.optimize {
            optimize::standard_pipeline(graph)?
        } else {
            graph.clone()
        };
        let order = compiled.topological_order()?;
        // The one kernel decision: custom BLAS backends stay on the scalar
        // path (their fault models corrupt outputs as a function of the
        // per-call GEMM shape, so call shapes must match the sequential
        // runtime); everything else runs what its config says.
        let strategy = if self.custom_blas {
            GemmStrategy::Scalar
        } else {
            self.config.kernel_strategy.resolve()
        };
        // Pre-pack FC weights once per prepare: the transpose, keyed by
        // the weight initializer's value id. Only the BLAS path of
        // a built-in backend reads them; the microkernel consumes the
        // `[m, k]` weight rows as they are.
        let mut packed: HashMap<ValueId, Arc<PackedGemm>> = HashMap::new();
        if !self.custom_blas && strategy != GemmStrategy::SimdMicrokernel {
            for node in compiled.nodes() {
                if !matches!(node.op, Op::Gemm) {
                    continue;
                }
                let Some(&wid) = node.inputs.get(1) else { continue };
                let Some(w) = compiled.initializer(wid) else { continue };
                if w.rank() == 2 {
                    packed
                        .entry(wid)
                        .or_insert_with(|| Arc::new(PackedGemm::pack(w)));
                }
            }
        }
        // A conv absorbs the activation after it when that activation is
        // the only reader of its output and the output is not the graph's.
        let mut readers = vec![0u32; compiled.value_count()];
        for node in compiled.nodes() {
            for &i in &node.inputs {
                readers[i.0] += 1;
            }
        }
        let mut absorber: HashMap<ValueId, (&Node, ActivationKind)> = HashMap::new();
        for node in compiled.nodes() {
            if let (&Op::Activation(kind), &[x]) = (&node.op, node.inputs.as_slice()) {
                if readers[x.0] == 1 && !compiled.outputs().contains(&x) {
                    absorber.insert(x, (node, kind));
                }
            }
        }
        let mut absorbed = vec![false; compiled.node_count()];
        let mut sources = Sources::new(&compiled);
        // Everything else an op needs per call that prepare already knows:
        // where its inputs are, its conv route (weights packed here, once),
        // its absorbed activation and its trace label.
        let conv_routes = !self.custom_blas
            && strategy != GemmStrategy::SimdMicrokernel
            && self.config.conv_strategy == ConvStrategy::Im2col;
        let mut steps = Vec::with_capacity(order.len());
        for node_id in order {
            let node = compiled.node(node_id)?;
            if absorbed[node_id.0] {
                continue;
            }
            let x_dims = node
                .inputs
                .first()
                .and_then(|&x| compiled.value(x).ok()?.shape.as_ref())
                .map(|s| s.dims());
            let route = match (&node.op, x_dims) {
                (Op::Conv { kernel, stride, padding, groups }, Some(dims)) if conv_routes => {
                    let attrs = ConvAttrs {
                        kernel: *kernel,
                        stride: *stride,
                        padding: *padding,
                        groups: *groups,
                    };
                    let init = |i: usize| node.inputs.get(i).map(|&v| compiled.initializer(v));
                    match (init(1), init(2)) {
                        (Some(Some(w)), bias @ (None | Some(Some(_)))) => {
                            let order = self.blas.row_order();
                            ConvRoute::plan(dims, w, bias.flatten(), &attrs, order)
                        }
                        // A weight or bias fed at run time is not known here.
                        _ => ConvRoute::Generic,
                    }
                }
                _ => ConvRoute::Generic,
            };
            let absorbs = match node.op {
                Op::Conv { .. } => node.outputs.first().and_then(|o| absorber.get(o)),
                _ => None,
            };
            let (last, name) = match absorbs {
                Some(&(act, _)) => {
                    absorbed[act.id.0] = true;
                    (act, format!("{}+{}", node.name, act.name))
                }
                None => (node, node.name.clone()),
            };
            // Every op here has exactly one output.
            let output = last.outputs.first().ok_or_else(|| RuntimeError::Kernel {
                node: last.name.clone(),
                reason: "no output".into(),
            })?;
            let inputs = node
                .inputs
                .iter()
                .map(|&v| sources.resolve(&compiled, v, &node.name))
                .collect::<Result<_>>()?;
            steps.push(Step {
                op: node.op.clone(),
                name,
                inputs,
                output: output.0,
                route,
                fused: absorbs.map(|&(_, kind)| kind),
                gemm: match node.op {
                    Op::Gemm => node.inputs.get(1).and_then(|w| packed.get(w)).cloned(),
                    _ => None,
                },
                shape: x_dims.map(|d| format!("{d:?}")),
                frees: Vec::new(),
            });
        }
        // An activation is dropped after the last step that reads it,
        // unless the graph returns it.
        let mut last_reader = vec![None; compiled.value_count()];
        for (at, step) in steps.iter().enumerate() {
            for source in &step.inputs {
                if let Source::Slot(slot) = *source {
                    last_reader[slot] = Some(at);
                }
            }
        }
        for &o in compiled.outputs() {
            last_reader[o.0] = None;
        }
        for (slot, at) in last_reader.into_iter().enumerate() {
            if let Some(at) = at {
                steps[at].frees.push(slot);
            }
        }
        let graph_outputs = compiled.outputs();
        let outputs = graph_outputs
            .iter()
            .enumerate()
            .map(|(i, &o)| {
                let source = sources.resolve(&compiled, o, "<outputs>")?;
                // An activation moves out unless the same value is listed
                // again later.
                Ok((source, !graph_outputs[i + 1..].contains(&o)))
            })
            .collect::<Result<_>>()?;
        let input_shapes = compiled
            .inputs()
            .iter()
            .map(|&v| Ok(compiled.value(v)?.shape.clone()))
            .collect::<Result<_>>()?;
        let slots = compiled.value_count();
        let name = compiled.name.clone();
        let inits = sources.take_initializers(&mut compiled);
        Ok(Interpreter {
            name,
            steps,
            inits,
            slots,
            input_shapes,
            outputs,
            blas: Arc::clone(&self.blas),
            config: self.config.clone(),
            pool: Arc::clone(&self.pool),
            strategy,
            placeholder: Tensor::scalar(0.0),
        })
    }
}

/// Inputs an op can take without a heap-allocated list: `BatchNorm`'s
/// five, and all but the widest `Concat`s.
const INLINE_INPUTS: usize = 8;

/// Where a step reads a value during a run, resolved at prepare.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// An activation, in the run's value slot of that index.
    Slot(usize),
    /// The run's input of that index.
    Input(usize),
    /// The prepared model's initializer of that index.
    Init(usize),
}

/// Resolves value ids to [`Source`]s, numbering the initializers read.
struct Sources {
    /// Whether a node produces the value of that id.
    produced: Vec<bool>,
    /// The `Init` index of each initializer read so far.
    inits: HashMap<ValueId, usize>,
}

impl Sources {
    fn new(graph: &Graph) -> Self {
        let mut produced = vec![false; graph.value_count()];
        for node in graph.nodes() {
            for &o in &node.outputs {
                produced[o.0] = true;
            }
        }
        Sources { produced, inits: HashMap::new() }
    }

    /// Where `v` is during a run: an activation, a graph input or an
    /// initializer, in that order.
    fn resolve(&mut self, graph: &Graph, v: ValueId, reader: &str) -> Result<Source> {
        if self.produced.get(v.0).copied().unwrap_or(false) {
            Ok(Source::Slot(v.0))
        } else if let Some(i) = graph.inputs().iter().position(|&g| g == v) {
            Ok(Source::Input(i))
        } else if graph.initializer(v).is_some() {
            let next = self.inits.len();
            Ok(Source::Init(*self.inits.entry(v).or_insert(next)))
        } else {
            Err(RuntimeError::Kernel {
                node: reader.to_string(),
                reason: format!("missing value {}", v.0),
            })
        }
    }

    /// Moves the initializers read out of `graph`, in `Init` order.
    fn take_initializers(self, graph: &mut Graph) -> Vec<Tensor> {
        let mut inits: Vec<_> = self.inits.into_iter().collect();
        inits.sort_by_key(|&(_, i)| i);
        inits
            .into_iter()
            .map(|(v, _)| match graph.initializer_mut(v) {
                Some(t) => std::mem::replace(t, Tensor::scalar(0.0)),
                None => Tensor::scalar(0.0),
            })
            .collect()
    }
}

/// One op of the prepared model, in execution order, with what `prepare`
/// worked out for it.
struct Step {
    /// The op; a conv's when the step absorbed an activation.
    op: Op,
    /// The node's name, `conv+activation` when the step absorbed one: the
    /// `runtime.op` span's `node` and a kernel error's.
    name: String,
    /// Where each input is.
    inputs: Vec<Source>,
    /// The value slot the output goes to: the activation's when absorbed.
    output: usize,
    /// The kernel a conv runs; `Generic` for every other op.
    route: ConvRoute,
    /// The activation the conv absorbed, applied to its own output buffer.
    fused: Option<ActivationKind>,
    /// A `Gemm`'s weight, packed at prepare.
    gemm: Option<Arc<PackedGemm>>,
    /// The first input's dims, rendered for the `runtime.op` trace span
    /// (`None` when the graph does not record them).
    shape: Option<String>,
    /// The value slots this step reads last: dropped after it runs.
    frees: Vec<usize>,
}

struct Interpreter {
    /// The graph's name.
    name: String,
    steps: Vec<Step>,
    /// The initializers the steps read, moved out of the graph.
    inits: Vec<Tensor>,
    /// Value slots per run: the graph's value count.
    slots: usize,
    /// Each graph input's declared shape, if any.
    input_shapes: Vec<Option<Shape>>,
    /// Where each graph output is, and whether it is the last listing of
    /// its value (an activation is then moved out, not cloned).
    outputs: Vec<(Source, bool)>,
    blas: Arc<dyn Blas>,
    config: EngineConfig,
    pool: Arc<ThreadPool>,
    /// Resolved at `prepare`; every GEMM-family op runs this kernel.
    strategy: GemmStrategy,
    /// Fills the unused slots of an op's inline input array.
    placeholder: Tensor,
}

impl Interpreter {
    /// The tensor at `source` during a run.
    fn lookup<'a>(
        &'a self,
        values: &'a [Option<Tensor>],
        inputs: &'a [Tensor],
        source: Source,
    ) -> Option<&'a Tensor> {
        match source {
            Source::Slot(i) => values[i].as_ref(),
            Source::Input(i) => inputs.get(i),
            Source::Init(i) => self.inits.get(i),
        }
    }

    fn compute(&self, step: &Step, inputs: &[&Tensor]) -> Result<Tensor> {
        let acc = self.config.accumulation;
        match &step.op {
            Op::Conv { kernel, stride, padding, groups } => {
                let attrs = ConvAttrs {
                    kernel: *kernel,
                    stride: *stride,
                    padding: *padding,
                    groups: *groups,
                };
                let bias = inputs.get(2).copied();
                // A route applies the absorbed activation as it stores;
                // every other path applies it after, in place.
                let mut out = match self.config.conv_strategy {
                    ConvStrategy::Direct => kernels::conv2d_direct(inputs[0], inputs[1], bias, &attrs)?,
                    ConvStrategy::Im2col => match step.route.run(inputs[0], step.fused) {
                        Some(out) => return Ok(out),
                        None => kernels::conv2d_im2col_with(
                            &self.pool,
                            inputs[0],
                            inputs[1],
                            bias,
                            &attrs,
                            self.blas.as_ref(),
                            self.strategy,
                        )?,
                    },
                    ConvStrategy::NhwcDirect => {
                        let nhwc = inputs[0].to_nhwc()?;
                        let out = kernels::conv2d_nhwc_direct_with(
                            &self.pool, &nhwc, inputs[1], bias, &attrs,
                        )?;
                        out.from_nhwc()?
                    }
                };
                if let Some(kind) = step.fused {
                    kernels::activate_in_place(&mut out, kind);
                }
                Ok(out)
            }
            Op::Gemm => kernels::gemm_fc_with(
                &self.pool,
                inputs[0],
                inputs[1],
                inputs.get(2).copied(),
                self.blas.as_ref(),
                step.gemm.as_deref(),
                self.strategy,
            ),
            Op::MatMul => {
                kernels::matmul_with(&self.pool, inputs[0], inputs[1], self.blas.as_ref(), self.strategy)
            }
            Op::BatchNorm { epsilon } => kernels::batch_norm_with(
                &self.pool, inputs[0], inputs[1], inputs[2], inputs[3], inputs[4], *epsilon,
            ),
            Op::Activation(kind) => Ok(kernels::activation(inputs[0], *kind)),
            Op::Pool { kind, kernel, stride, padding } => {
                kernels::pool2d_with(&self.pool, inputs[0], *kind, *kernel, *stride, *padding, acc)
            }
            Op::GlobalAvgPool => kernels::global_avg_pool_with(&self.pool, inputs[0], acc),
            Op::Lrn { size, alpha, beta, bias } => {
                kernels::lrn(inputs[0], *size, *alpha, *beta, *bias)
            }
            Op::Add => Ok(inputs[0].broadcast_with(inputs[1], |a, b| a + b)?),
            Op::Mul => Ok(inputs[0].broadcast_with(inputs[1], |a, b| a * b)?),
            Op::Concat { axis } => kernels::concat(inputs, *axis),
            Op::Softmax { axis } => kernels::softmax_with(&self.pool, inputs[0], *axis, acc),
            Op::Flatten { axis } => {
                let dims = inputs[0].dims();
                let keep: usize = dims[..(*axis).min(dims.len())].iter().product();
                let flat: usize = dims[(*axis).min(dims.len())..].iter().product();
                Ok(inputs[0].reshape(&[keep.max(1), flat])?)
            }
            Op::Reshape { target } => Ok(inputs[0].reshape(target)?),
            Op::Identity => Ok(inputs[0].clone()),
            Op::LayerNorm { epsilon } => {
                kernels::layer_norm_with(&self.pool, inputs[0], inputs[1], inputs[2], *epsilon, acc)
            }
        }
    }
}

impl PreparedModel for Interpreter {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        if inputs.len() != self.input_shapes.len() {
            return Err(RuntimeError::InputArity {
                expected: self.input_shapes.len(),
                actual: inputs.len(),
            });
        }
        for (i, (expected, tensor)) in self.input_shapes.iter().zip(inputs).enumerate() {
            if let Some(expected) = expected {
                if expected != tensor.shape() {
                    return Err(RuntimeError::InputShape {
                        index: i,
                        expected: expected.to_string(),
                        actual: tensor.shape().to_string(),
                    });
                }
            }
        }
        let mut values: Vec<Option<Tensor>> = vec![None; self.slots];
        let tracer = mvtee_telemetry::trace::recorder();
        for step in &self.steps {
            let input = |source: Source| {
                self.lookup(&values, inputs, source).ok_or_else(|| RuntimeError::Kernel {
                    node: step.name.clone(),
                    reason: format!("missing value {source:?}"),
                })
            };
            // Every op but a wide `Concat` fits the inline array.
            let mut inline = [&self.placeholder; INLINE_INPUTS];
            let spilled: Vec<&Tensor>;
            let in_refs: &[&Tensor] = if step.inputs.len() <= INLINE_INPUTS {
                for (slot, &source) in inline.iter_mut().zip(&step.inputs) {
                    *slot = input(source)?;
                }
                &inline[..step.inputs.len()]
            } else {
                spilled = step.inputs.iter().map(|&source| input(source)).collect::<Result<_>>()?;
                &spilled
            };
            // The op loop reads no clock and writes no shared metric: per-op
            // time is the `runtime.op` span's, recorded only when tracing.
            let _op_trace = if tracer.is_enabled() {
                // One span per step under the ambient (variant-run) span,
                // annotated with shape and the intra-op thread count.
                let shape = match &step.shape {
                    Some(shape) => shape.clone(),
                    None => in_refs.first().map(|t| format!("{:?}", t.dims())).unwrap_or_default(),
                };
                Some(
                    tracer
                        .span(mvtee_telemetry::trace::current(), "runtime.op", "runtime")
                        .arg("node", &step.name)
                        .arg("shape", shape)
                        .arg("threads", self.config.intra_op_threads),
                )
            } else {
                None
            };
            let out = self.compute(step, in_refs).map_err(|e| match e {
                RuntimeError::Kernel { reason, .. } => {
                    RuntimeError::Kernel { node: step.name.clone(), reason }
                }
                other => other,
            })?;
            values[step.output] = Some(out);
            for &slot in &step.frees {
                values[slot] = None;
            }
        }
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for &(source, moved) in &self.outputs {
            // Graph inputs and initializers, and a value listed again
            // later, are cloned.
            let t = match source {
                Source::Slot(i) if moved => values[i].take(),
                _ => self.lookup(&values, inputs, source).cloned(),
            };
            outputs.push(t.ok_or_else(|| RuntimeError::Kernel {
                node: "<outputs>".into(),
                reason: format!("output {source:?} never produced"),
            })?);
        }
        Ok(outputs)
    }

    fn describe(&self) -> String {
        format!("{} on '{}'", self.config.describe(), self.name)
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

    /// Each `Gemm` step whose weight is a rank-2 initializer: the weight,
    /// and what prepare packed for it.
    fn fc_steps(p: &Interpreter) -> Vec<(&Tensor, Option<&PackedGemm>)> {
        let weight = |step: &Step| match step.inputs.get(1) {
            Some(&Source::Init(i)) if p.inits[i].rank() == 2 => Some(&p.inits[i]),
            _ => None,
        };
        p.steps
            .iter()
            .filter(|step| matches!(step.op, Op::Gemm))
            .filter_map(|step| Some((weight(step)?, step.gemm.as_deref())))
            .collect()
    }

    #[test]
    fn scalar_gemm_steps_carry_their_packed_weights() {
        let m = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        for blas in BlasKind::ALL {
            let cfg = EngineConfig::of_kind(EngineKind::OrtLike).with_blas(blas);
            for ks in KernelStrategy::ALL {
                let p = Engine::new(cfg.clone().with_kernel_strategy(ks)).compile(&m.graph).unwrap();
                let fcs = fc_steps(&p);
                assert!(!fcs.is_empty(), "MnasNet has a fully connected head");
                for (w, packed) in fcs {
                    match (ks.resolve(), packed) {
                        (GemmStrategy::Scalar, Some(got)) => {
                            let want = PackedGemm::pack(w);
                            assert_eq!((got.k, got.m, &got.wt), (want.k, want.m, &want.wt));
                        }
                        (GemmStrategy::SimdMicrokernel, None) => {}
                        (strategy, packed) => {
                            panic!("{blas} {ks}: {strategy:?} packed {}", packed.is_some())
                        }
                    }
                }
            }
            let custom = Engine::with_custom_blas(cfg, blas.instantiate());
            let p = custom.compile(&m.graph).unwrap();
            assert!(fc_steps(&p).iter().all(|(_, packed)| packed.is_none()), "custom {blas}");
        }
    }

    #[test]
    fn prepared_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn PreparedModel>();
    }
}
