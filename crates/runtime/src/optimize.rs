//! Graph optimisation passes.
//!
//! The ORT-like executor applies these at prepare time (real inference
//! runtimes optimise aggressively); the *selective optimisation*
//! diversification of §4.2 applies them selectively ("instead of
//! comprehensive optimization, selectively fusing or eliminating operators
//! as a defense"), so the passes live here where both crates can reach them.

use crate::Result;
use mvtee_graph::{Graph, GraphError, Op, ValueId};
use mvtee_tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// Rebuilds `graph` without the nodes in `removed`, substituting values per
/// `subst` (old value -> replacement value) in node inputs and graph
/// outputs. Unreferenced initializers are dropped.
fn rebuild(
    graph: &Graph,
    removed: &HashSet<mvtee_graph::NodeId>,
    subst: &HashMap<ValueId, ValueId>,
    weight_override: &HashMap<ValueId, Tensor>,
) -> Result<Graph> {
    let resolve = |mut v: ValueId| {
        // Follow substitution chains (identity of identity, ...).
        let mut hops = 0;
        while let Some(&next) = subst.get(&v) {
            v = next;
            hops += 1;
            if hops > subst.len() {
                break; // defensive: cycles cannot happen by construction
            }
        }
        v
    };
    let mut out = Graph::new(graph.name.clone());
    let mut value_map: HashMap<ValueId, ValueId> = HashMap::new();
    let map_value = |g: &mut Graph, vm: &mut HashMap<ValueId, ValueId>, v: ValueId| {
        if let Some(&m) = vm.get(&v) {
            return Ok::<ValueId, GraphError>(m);
        }
        let info = graph.value(v)?;
        let nv = g.add_value(info.name.clone());
        if let Some(shape) = info.shape.clone() {
            g.value_mut(nv)?.shape = Some(shape);
        }
        vm.insert(v, nv);
        Ok(nv)
    };
    for &inp in graph.inputs() {
        let m = map_value(&mut out, &mut value_map, inp)?;
        out.mark_input(m);
    }
    for node in graph.nodes() {
        if removed.contains(&node.id) {
            continue;
        }
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &i in &node.inputs {
            let r = resolve(i);
            let m = map_value(&mut out, &mut value_map, r)?;
            if out.initializer(m).is_none() {
                if let Some(t) = weight_override.get(&r).or_else(|| graph.initializer(r)) {
                    out.set_initializer(m, t.clone());
                }
            }
            inputs.push(m);
        }
        let mut outputs = Vec::with_capacity(node.outputs.len());
        for &o in &node.outputs {
            outputs.push(map_value(&mut out, &mut value_map, o)?);
        }
        out.add_node(node.name.clone(), node.op.clone(), inputs, outputs)?;
    }
    let mut new_outputs = Vec::with_capacity(graph.outputs().len());
    for &o in graph.outputs() {
        let r = resolve(o);
        new_outputs.push(map_value(&mut out, &mut value_map, r)?);
    }
    out.set_outputs(new_outputs);
    out.validate()?;
    Ok(out)
}

/// Removes `Identity` nodes, rewiring their consumers to the identity's
/// input.
///
/// # Errors
///
/// Propagates graph rebuilding failures.
pub fn eliminate_identities(graph: &Graph) -> Result<Graph> {
    let mut removed = HashSet::new();
    let mut subst = HashMap::new();
    for node in graph.nodes() {
        if matches!(node.op, Op::Identity) {
            removed.insert(node.id);
            subst.insert(node.outputs[0], node.inputs[0]);
        }
    }
    if removed.is_empty() {
        return Ok(graph.clone());
    }
    rebuild(graph, &removed, &subst, &HashMap::new())
}

/// Folds `BatchNorm` into a preceding `Conv` when the conv's output feeds
/// only that BN: the classic inference-time fusion.
///
/// `conv(x, w, b)` followed by `bn(·, γ, β, μ, σ²)` becomes
/// `conv(x, w·a, b·a + (β − μ·a))` with `a = γ / sqrt(σ² + ε)` per output
/// channel.
///
/// # Errors
///
/// Propagates graph rebuilding failures.
pub fn fold_batch_norm(graph: &Graph) -> Result<Graph> {
    let producers = graph.producers();
    let consumers = graph.consumers();
    let mut removed = HashSet::new();
    let mut subst: HashMap<ValueId, ValueId> = HashMap::new();
    let mut weight_override: HashMap<ValueId, Tensor> = HashMap::new();

    for node in graph.nodes() {
        let Op::BatchNorm { epsilon } = node.op else { continue };
        let bn_in = node.inputs[0];
        let Some(&conv_id) = producers.get(&bn_in) else { continue };
        let conv = match graph.node(conv_id) {
            Ok(n) => n,
            Err(_) => continue,
        };
        if !matches!(conv.op, Op::Conv { .. }) {
            continue;
        }
        // The conv output must feed only this BN.
        let conv_out = conv.outputs[0];
        let only_consumer = consumers
            .get(&conv_out)
            .map(|cs| cs.len() == 1 && cs[0] == node.id)
            .unwrap_or(false);
        if !only_consumer || graph.outputs().contains(&conv_out) {
            continue;
        }
        // All five BN params and the conv weight must be initializers.
        let w_id = conv.inputs[1];
        let Some(w) = weight_override.get(&w_id).cloned().or_else(|| graph.initializer(w_id).cloned()) else {
            continue;
        };
        let params: Option<Vec<&Tensor>> =
            node.inputs[1..5].iter().map(|v| graph.initializer(*v)).collect();
        let Some(params) = params else { continue };
        let (scale, beta, mean, var) = (params[0], params[1], params[2], params[3]);
        let oc = w.dims()[0];
        if scale.len() != oc {
            continue;
        }
        let bias_id = conv.inputs.get(2).copied();
        let old_bias = bias_id.and_then(|b| graph.initializer(b).cloned());

        let mut new_w = w.clone();
        let per_out = new_w.len() / oc;
        let mut new_bias = vec![0.0f32; oc];
        for (o, nb) in new_bias.iter_mut().enumerate() {
            let a = scale.data()[o] / (var.data()[o] + epsilon).sqrt();
            let shift = beta.data()[o] - mean.data()[o] * a;
            for v in &mut new_w.data_mut()[o * per_out..(o + 1) * per_out] {
                *v *= a;
            }
            let ob = old_bias.as_ref().map(|t| t.data()[o]).unwrap_or(0.0);
            *nb = ob * a + shift;
        }
        weight_override.insert(w_id, new_w);
        if let Some(bid) = bias_id {
            weight_override
                .insert(bid, Tensor::from_vec(new_bias, &[oc]).expect("bias shape"));
        }
        // Remove the BN node; the conv's output replaces the BN's output.
        removed.insert(node.id);
        subst.insert(node.outputs[0], conv_out);
    }
    if removed.is_empty() {
        return Ok(graph.clone());
    }
    rebuild(graph, &removed, &subst, &weight_override)
}

/// The standard optimisation pipeline applied by the ORT-like executor.
///
/// # Errors
///
/// Propagates pass failures.
pub fn standard_pipeline(graph: &Graph) -> Result<Graph> {
    let g = eliminate_identities(graph)?;
    fold_batch_norm(&g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtee_graph::op::ActivationKind;
    use mvtee_graph::GraphBuilder;
    use mvtee_tensor::metrics;

    fn run_reference(graph: &Graph, input: &Tensor) -> Tensor {
        use crate::engine::{Engine, EngineConfig, EngineKind};
        let engine = Engine::new(EngineConfig::of_kind(EngineKind::Reference));
        let prepared = engine.prepare(graph).unwrap();
        prepared.run(std::slice::from_ref(input)).unwrap().remove(0)
    }

    fn conv_bn_graph() -> Graph {
        let mut b = GraphBuilder::new("cb", 11);
        let x = b.input(&[1, 3, 8, 8]);
        let c = b.conv(x, 6, (3, 3), (1, 1), (1, 1), 1).unwrap();
        let bn = b.batch_norm(c).unwrap();
        let r = b.activation(bn, ActivationKind::Relu).unwrap();
        b.finish(vec![r]).unwrap()
    }

    #[test]
    fn bn_folding_removes_bn_and_preserves_output() {
        let g = conv_bn_graph();
        let folded = fold_batch_norm(&g).unwrap();
        assert_eq!(folded.op_histogram().get("BatchNorm"), None);
        assert_eq!(folded.node_count(), g.node_count() - 1);

        let input = Tensor::from_vec(
            (0..192).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[1, 3, 8, 8],
        )
        .unwrap();
        let y1 = run_reference(&g, &input);
        let y2 = run_reference(&folded, &input);
        assert!(
            metrics::allclose(&y1, &y2, 1e-4, 1e-5),
            "max diff {}",
            metrics::max_abs_diff(&y1, &y2)
        );
    }

    #[test]
    fn bn_folding_skips_shared_conv_output() {
        // conv output feeds both BN and a residual add: folding must skip.
        let mut b = GraphBuilder::new("shared", 3);
        let x = b.input(&[1, 4, 4, 4]);
        let c = b.conv(x, 4, (3, 3), (1, 1), (1, 1), 1).unwrap();
        let bn = b.batch_norm(c).unwrap();
        let sum = b.add(bn, c).unwrap();
        let g = b.finish(vec![sum]).unwrap();
        let folded = fold_batch_norm(&g).unwrap();
        assert_eq!(folded.op_histogram().get("BatchNorm"), Some(&1));
    }

    #[test]
    fn identity_elimination() {
        let mut g = Graph::new("ids");
        let x = g.add_value("x");
        let a = g.add_value("a");
        let b = g.add_value("b");
        let y = g.add_value("y");
        g.mark_input(x);
        g.add_node("i1", Op::Identity, vec![x], vec![a]).unwrap();
        g.add_node("i2", Op::Identity, vec![a], vec![b]).unwrap();
        g.add_node("relu", Op::Activation(ActivationKind::Relu), vec![b], vec![y]).unwrap();
        g.mark_output(y);
        let opt = eliminate_identities(&g).unwrap();
        opt.validate().unwrap();
        assert_eq!(opt.node_count(), 1);
        assert_eq!(opt.op_histogram().get("Identity"), None);
    }

    #[test]
    fn identity_elimination_preserves_graph_output() {
        // An identity directly producing the graph output.
        let mut g = Graph::new("idout");
        let x = g.add_value("x");
        let y = g.add_value("y");
        let z = g.add_value("z");
        g.mark_input(x);
        g.add_node("relu", Op::Activation(ActivationKind::Relu), vec![x], vec![y]).unwrap();
        g.add_node("id", Op::Identity, vec![y], vec![z]).unwrap();
        g.mark_output(z);
        let opt = eliminate_identities(&g).unwrap();
        opt.validate().unwrap();
        assert_eq!(opt.node_count(), 1);
        assert_eq!(opt.outputs().len(), 1);
        let input = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let y1 = run_reference(&g, &input);
        let y2 = run_reference(&opt, &input);
        assert_eq!(y1, y2);
    }

    #[test]
    fn pipeline_on_zoo_model_preserves_semantics() {
        use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
        let m = zoo::build(ModelKind::MobileNetV3, ScaleProfile::Test, 5).unwrap();
        let opt = standard_pipeline(&m.graph).unwrap();
        assert!(opt.node_count() < m.graph.node_count());
        let input = Tensor::from_vec(
            (0..3 * 32 * 32).map(|i| ((i % 37) as f32 - 18.0) / 18.0).collect(),
            &[1, 3, 32, 32],
        )
        .unwrap();
        let y1 = run_reference(&m.graph, &input);
        let y2 = run_reference(&opt, &input);
        assert!(
            metrics::allclose(&y1, &y2, 1e-3, 1e-5),
            "max diff {}",
            metrics::max_abs_diff(&y1, &y2)
        );
    }

    #[test]
    fn noop_passes_return_clones() {
        let mut b = GraphBuilder::new("plain", 2);
        let x = b.input(&[1, 3, 4, 4]);
        let c = b.conv(x, 4, (1, 1), (1, 1), (0, 0), 1).unwrap();
        let g = b.finish(vec![c]).unwrap();
        let e = eliminate_identities(&g).unwrap();
        assert_eq!(e.node_count(), g.node_count());
        let f = fold_batch_norm(&g).unwrap();
        assert_eq!(f.node_count(), g.node_count());
    }
}
