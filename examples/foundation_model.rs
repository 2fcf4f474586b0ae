//! §7.4 extension: MVTEE protecting a transformer-style "foundation model"
//! (token-mixing + LayerNorm + gated-MLP blocks) instead of a CNN.
//!
//! The same machinery applies unchanged: random-balanced partitioning over
//! the block structure, diversified variants per sensitive partition, and
//! checkpoint voting — demonstrating the paper's claim that "running large
//! Foundation Models within CPU TEEs is also practical".
//!
//! ```text
//! cargo run --release --example foundation_model
//! ```

use mvtee::prelude::*;
use mvtee_faults::{Attack, CveClass, FaultDescriptor};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::{EngineConfig, EngineKind};
use mvtee_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::build(ModelKind::FoundationMixer, ScaleProfile::Bench, 17)?;
    println!("model: {}", model.graph);
    println!("op histogram: {:?}", model.graph.op_histogram());

    // A [seq, d] embedding input (the tokenizer/embedding lives outside the
    // protected inference path, as the paper's DNN input does).
    let (seq, d) = (model.input_shape.dims()[0], model.input_shape.dims()[1]);
    let input = Tensor::from_vec(
        (0..seq * d).map(|i| (((i * 37) % 113) as f32 - 56.0) / 56.0).collect(),
        &[seq, d],
    )?;

    // Harden the middle of the stack with 3 diversified variants.
    let mut deployment = Deployment::builder(model)
        .partitions(4)
        .diversified_mvx(1, 3)
        .diversified_mvx(2, 3)
        .build()?;
    let out = deployment.infer(&input)?;
    println!(
        "clean inference: {} classes, argmax {}, detections {}",
        out.len(),
        out.argmax().expect("non-empty"),
        deployment.events().detection_count()
    );
    deployment.shutdown();

    // Same model under an integer-overflow CVE exploit: caught.
    let model = zoo::build(ModelKind::FoundationMixer, ScaleProfile::Bench, 17)?;
    let mut attacked = Deployment::builder(model)
        .partitions(4)
        .mvx_on_partition(1, 2)
        .engine_override(1, 1, EngineConfig::of_kind(EngineKind::TvmLike))
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::Cve(Attack::new(CveClass::Io)), None)
        .build()?;
    let result = attacked.infer(&input);
    println!(
        "under IO-class exploit: result = {:?}, detections = {}",
        result.err().map(|e| e.to_string()),
        attacked.events().detection_count()
    );
    assert!(attacked.events().detection_count() > 0);
    attacked.shutdown();
    Ok(())
}
