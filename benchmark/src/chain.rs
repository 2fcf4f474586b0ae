//! The bare-engine view of a deployment: each partition's subgraph prepared
//! by `mvtee_runtime::Engine` and run one after the other with no monitor,
//! channel or vote in between. It gives the reference outputs every served
//! response is checked against, and the real boundary tensors the walk
//! replays.

use mvtee_diversify::{VariantGenerator, VariantSpec};
use mvtee_graph::zoo::Model;
use mvtee_graph::ValueId;
use mvtee_partition::{PartitionSet, StagePlan};
use mvtee_runtime::{Engine, EngineKind, PreparedModel};
use mvtee_tensor::Tensor;
use std::collections::HashMap;

/// One partition: its boundary interface and one prepared model per variant.
pub struct Stage {
    pub plan: StagePlan,
    pub variants: Vec<Box<dyn PreparedModel>>,
}

pub struct Chain {
    graph_input: ValueId,
    graph_output: ValueId,
    pub stages: Vec<Stage>,
}

/// The tensors that crossed one partition boundary for one request.
pub struct StageTrace {
    pub inputs: Vec<Tensor>,
    pub outputs: Vec<Tensor>,
}

impl Chain {
    /// Prepares every variant of every partition exactly as the variant
    /// hosts do: the spec's transforms applied to the partition subgraph,
    /// compiled by the spec's engine.
    pub fn build(
        model: &Model,
        set: &PartitionSet,
        specs: &[Vec<VariantSpec>],
        variant_seed: u64,
    ) -> Result<Chain, String> {
        let subgraphs = set
            .extract_subgraphs(&model.graph)
            .map_err(|e| e.to_string())?;
        let generator = VariantGenerator::new(variant_seed);
        let mut stages = Vec::with_capacity(set.len());
        for (p, (plan, subgraph)) in set.stages.iter().zip(&subgraphs).enumerate() {
            let mut variants = Vec::with_capacity(specs[p].len());
            for spec in &specs[p] {
                let bundle = generator
                    .materialize(subgraph, p, spec)
                    .map_err(|e| e.to_string())?;
                let prepared = Engine::new(spec.engine.clone())
                    .prepare(&bundle.graph)
                    .map_err(|e| e.to_string())?;
                variants.push(prepared);
            }
            stages.push(Stage {
                plan: plan.clone(),
                variants,
            });
        }
        let graph_input = *model.graph.inputs().first().ok_or("model has no input")?;
        let graph_output = *model.graph.outputs().first().ok_or("model has no output")?;
        Ok(Chain {
            graph_input,
            graph_output,
            stages,
        })
    }

    /// The reference chain: one plain ort-like engine per partition, no
    /// transforms — what a replicated panel's variants run.
    pub fn reference(model: &Model, set: &PartitionSet) -> Result<Chain, String> {
        let specs: Vec<Vec<VariantSpec>> = (0..set.len())
            .map(|p| vec![VariantSpec::replicated(p as u64, EngineKind::OrtLike)])
            .collect();
        Chain::build(model, set, &specs, 0)
    }

    /// Runs variant 0 of every partition and returns what crossed each
    /// boundary, in partition order.
    pub fn trace(&self, input: &Tensor) -> Result<Vec<StageTrace>, String> {
        let mut values: HashMap<ValueId, Tensor> = HashMap::new();
        values.insert(self.graph_input, input.clone());
        let mut traces = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let inputs: Vec<Tensor> = stage
                .plan
                .inputs
                .iter()
                .map(|v| {
                    values
                        .get(v)
                        .cloned()
                        .ok_or(format!("boundary value {v:?} missing"))
                })
                .collect::<Result<_, _>>()?;
            let outputs = stage.variants[0].run(&inputs).map_err(|e| e.to_string())?;
            for (v, t) in stage.plan.outputs.iter().zip(&outputs) {
                values.insert(*v, t.clone());
            }
            traces.push(StageTrace { inputs, outputs });
        }
        Ok(traces)
    }

    /// The model output for `input`.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, String> {
        let traces = self.trace(input)?;
        let last = self.stages.last().ok_or("empty chain")?;
        let pos = last
            .plan
            .outputs
            .iter()
            .position(|v| *v == self.graph_output)
            .ok_or("graph output is not an output of the last partition")?;
        Ok(traces.last().expect("one trace per stage").outputs[pos].clone())
    }
}
