//! Mixed-thread-count MVX panels: a variant's intra-op thread count is a
//! field of its `EngineConfig`, set through an engine patch like every
//! other engine field, and because the runtime pool is bit-deterministic
//! a replicated panel where one variant runs 1 thread and another runs 4
//! must pass every checkpoint with **zero** divergences under the strict
//! (replica-grade) metric.

use mvtee::build_specs;
use mvtee::config::PartitionMvx;
use mvtee::prelude::*;
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_runtime::{EngineConfig, EngineKind};
use mvtee_tensor::{metrics, Tensor};
use std::collections::HashMap;

/// The variant seed every deployment in this file is built with.
const VARIANT_SEED: u64 = 0xd1ce;

fn model_input(model: &Model) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 79) as f32 - 39.0) / 39.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

/// Patches variant `v` of `partition` (claimed as `claim`) to run the
/// engine `build_specs` gives it, at `threads[v]` intra-op threads.
fn with_threads(
    mut builder: DeploymentBuilder,
    partition: usize,
    claim: &PartitionMvx,
    threads: &[usize],
) -> DeploymentBuilder {
    let specs = build_specs(partition, claim, VARIANT_SEED, &HashMap::new());
    assert_eq!(specs.len(), threads.len(), "one thread count per variant");
    for (v, (spec, &t)) in specs.iter().zip(threads).enumerate() {
        builder = builder.engine_override(partition, v, spec.engine.clone().with_threads(t));
    }
    builder
}

#[test]
fn mixed_thread_replicated_panel_has_zero_divergences() {
    // Replicated 3-panel on the middle partition, strict metric, with the
    // three variants running 1 / 4 / 8 intra-op threads respectively.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 37).expect("builds");
    let input = model_input(&model);
    let builder = Deployment::builder(model)
        .variant_seed(VARIANT_SEED)
        .partitions(3)
        .mvx_on_partition(1, 3);
    let mut d = with_threads(builder, 1, &PartitionMvx::replicated(3), &[1, 4, 8])
        .build()
        .expect("deploys");
    for _ in 0..3 {
        let out = d.infer(&input).expect("inference succeeds");
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
    assert_eq!(
        d.events().detection_count(),
        0,
        "mixed thread counts must not trip the strict replicated checkpoint"
    );
    d.shutdown();
}

#[test]
fn partition_wide_thread_default_preserves_outputs() {
    // Same model once with everything single-threaded and once with every
    // variant of both partitions at threads=4: the pipeline output must be
    // byte-identical (same engines, deterministic pool).
    let model = zoo::build(ModelKind::MobileNetV3, ScaleProfile::Test, 41).expect("builds");
    let input = model_input(&model);

    let mut base = Deployment::builder(model.clone())
        .variant_seed(VARIANT_SEED)
        .partitions(2)
        .mvx_on_partition(0, 2)
        .build()
        .expect("deploys");
    let expected = base.infer(&input).expect("runs");
    base.shutdown();

    let builder = Deployment::builder(model)
        .variant_seed(VARIANT_SEED)
        .partitions(2)
        .mvx_on_partition(0, 2);
    let builder = with_threads(builder, 0, &PartitionMvx::replicated(2), &[4, 4]);
    let mut threaded = with_threads(builder, 1, &PartitionMvx::single(), &[4])
        .build()
        .expect("deploys");
    let out = threaded.infer(&input).expect("runs");
    assert_eq!(
        threaded.events().detection_count(),
        0,
        "threads=4 panel tripped a checkpoint"
    );
    threaded.shutdown();

    assert_eq!(expected, out, "partition-wide threading changed pipeline bytes");
}

#[test]
fn mixed_thread_diversified_panel_stays_within_metric() {
    // Diversified panels already differ in rounding; adding per-variant
    // thread-count diversity must not widen the spread past the relaxed
    // metric (zero detections under majority-free unanimous voting).
    let model = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 43).expect("builds");
    let input = model_input(&model);
    let builder = Deployment::builder(model)
        .variant_seed(VARIANT_SEED)
        .partitions(2)
        .diversified_mvx(1, 3);
    let mut d = with_threads(builder, 1, &PartitionMvx::diversified(3), &[2, 1, 8])
        .build()
        .expect("deploys");
    let out = d.infer(&input).expect("inference succeeds");
    assert!(out.data().iter().all(|v| v.is_finite()));
    assert_eq!(d.events().detection_count(), 0, "thread diversity widened the panel spread");
    d.shutdown();
}

#[test]
fn spec_patch_thread_override_composes_with_engine_swap() {
    // An engine swap and a thread count on the same variant are one
    // engine configuration.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 47).expect("builds");
    let input = model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(0, 2)
        .engine_override(0, 1, EngineConfig::of_kind(EngineKind::OrtLike).with_threads(4))
        .build()
        .expect("deploys");
    let out = d.infer(&input).expect("runs");
    assert!(metrics::allclose(&out, &out, 1e-6, 1e-9));
    assert_eq!(d.events().detection_count(), 0);
    d.shutdown();
}
