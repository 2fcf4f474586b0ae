//! End-to-end integration: every zoo model deployed through the full MVX
//! stack (offline partitioning → sealed variants → attested bootstrap →
//! encrypted pipeline) must reproduce the reference engine's outputs.

use mvtee::prelude::*;
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_runtime::{Engine, EngineConfig, EngineKind};
use mvtee_tensor::{metrics, Tensor};

fn model_input(model: &Model) -> Tensor {
    let n = model.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 83) as f32 - 41.0) / 41.0).collect(),
        model.input_shape.dims(),
    )
    .expect("static shape")
}

fn reference_output(model: &Model, input: &Tensor) -> Tensor {
    Engine::new(EngineConfig::of_kind(EngineKind::OrtLike))
        .prepare(&model.graph)
        .expect("prepares")
        .run(std::slice::from_ref(input))
        .expect("runs")
        .remove(0)
}

#[test]
fn every_zoo_model_survives_the_full_mvx_stack() {
    for kind in ModelKind::ALL {
        let model = zoo::build(kind, ScaleProfile::Test, 19).expect("builds");
        let input = model_input(&model);
        let expected = reference_output(&model, &input);
        let mut d = Deployment::builder(model)
            .partitions(3)
            .mvx_on_partition(1, 2)
            .build()
            .unwrap_or_else(|e| panic!("{kind}: deployment failed: {e}"));
        let out = d.infer(&input).unwrap_or_else(|e| panic!("{kind}: inference failed: {e}"));
        assert!(
            metrics::allclose(&out, &expected, 1e-3, 1e-4),
            "{kind}: output diverged from reference by {}",
            metrics::max_abs_diff(&out, &expected)
        );
        assert_eq!(d.events().detection_count(), 0, "{kind}: spurious detection");
        d.shutdown();
    }
}

#[test]
fn partition_counts_preserve_semantics() {
    let model = zoo::build(ModelKind::GoogleNet, ScaleProfile::Test, 23).expect("builds");
    let input = model_input(&model);
    let expected = reference_output(&model, &input);
    for partitions in [1usize, 2, 4, 6] {
        let mut d = Deployment::builder(model.clone()).partitions(partitions).build().unwrap();
        let out = d.infer(&input).unwrap();
        assert!(
            metrics::allclose(&out, &expected, 1e-3, 1e-4),
            "{partitions} partitions diverged"
        );
        assert_eq!(d.partition_set().len(), partitions);
        d.shutdown();
    }
}

#[test]
fn diversified_panels_agree_across_models() {
    for kind in [ModelKind::ResNet50, ModelKind::MobileNetV3] {
        let model = zoo::build(kind, ScaleProfile::Test, 31).expect("builds");
        let input = model_input(&model);
        let mut d = Deployment::builder(model)
            .partitions(3)
            .diversified_mvx(0, 3)
            .diversified_mvx(1, 3)
            .diversified_mvx(2, 3)
            .build()
            .unwrap();
        let out = d.infer(&input).unwrap();
        assert!(out.data().iter().all(|v| v.is_finite()), "{kind}");
        assert_eq!(
            d.events().detection_count(),
            0,
            "{kind}: diversified variants disagreed: {:?}",
            d.events().events()
        );
        d.shutdown();
    }
}

#[test]
fn kernel_strategy_diversified_panel_passes_relaxed_checkpoints() {
    // The kernel-strategy axis as a diversification dimension: one panel
    // member keeps the default (BLAS path) while the others pin different
    // microkernels. Same weights, different inner-loop accumulation order
    // — so the panel opts into the heterogeneous tolerance through
    // `checkpoint_metric` and must sail through without detections.
    use mvtee::SpecPatch;
    use mvtee_runtime::KernelStrategy;
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 43).expect("builds");
    let input = model_input(&model);
    let expected = reference_output(&model, &input);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(1, 3)
        .spec_patch(1, 1, SpecPatch::kernel(KernelStrategy::SimdMicrokernel))
        .spec_patch(1, 2, SpecPatch::kernel(KernelStrategy::Scalar))
        .checkpoint_metric(1, metrics::Metric::relaxed())
        .build()
        .unwrap();
    let out = d.infer(&input).unwrap();
    assert!(
        metrics::allclose(&out, &expected, 1e-3, 1e-4),
        "strategy-diverse output diverged from reference by {}",
        metrics::max_abs_diff(&out, &expected)
    );
    assert_eq!(
        d.events().detection_count(),
        0,
        "strategy-diverse panel disagreed: {:?}",
        d.events().events()
    );
    d.shutdown();
}

#[test]
fn same_strategy_replicas_stay_bit_identical_under_exact_metric() {
    // Pinning every panel member to the same strategy keeps the claim
    // homogeneous: the default exact metric must hold (byte-identical
    // replicas), with no tolerance opt-in needed.
    use mvtee::SpecPatch;
    use mvtee_runtime::KernelStrategy;
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 43).expect("builds");
    let input = model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .spec_patch(1, 0, SpecPatch::kernel(KernelStrategy::SimdMicrokernel))
        .spec_patch(1, 1, SpecPatch::kernel(KernelStrategy::SimdMicrokernel))
        .build()
        .unwrap();
    let out = d.infer(&input).unwrap();
    assert!(out.data().iter().all(|v| v.is_finite()));
    assert_eq!(
        d.events().detection_count(),
        0,
        "same-strategy replicas must agree exactly: {:?}",
        d.events().events()
    );
    d.shutdown();
}

#[test]
fn healthy_traffic_leaves_the_event_log_flat() {
    // The event log keeps incidents and lifecycle; a passed checkpoint is
    // traffic and lives only in the audit transcript.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 59).expect("builds");
    let input = model_input(&model);
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(0, 3)
        .mvx_on_partition(1, 3)
        .build()
        .unwrap();
    d.infer(&input).unwrap();
    let after_first = d.events().len();
    for _ in 1..40 {
        d.infer(&input).unwrap();
    }
    let grown = d.events().render();
    assert_eq!(d.events().len(), after_first, "healthy traffic grew the log:\n{grown}");
    let every_pass: Vec<(usize, u64, usize)> =
        (0..40).flat_map(|batch| (0..2).map(move |partition| (partition, batch, 3))).collect();
    assert_eq!(d.transcript().passes(), every_pass);
    d.shutdown();
}

#[test]
fn pipelined_stream_matches_sequential_stream() {
    let model = zoo::build(ModelKind::InceptionV3, ScaleProfile::Test, 37).expect("builds");
    let inputs: Vec<Tensor> = (0..5)
        .map(|i| {
            let mut t = model_input(&model);
            t.data_mut()[i] += 0.5;
            t
        })
        .collect();
    let mut d = Deployment::builder(model).partitions(4).build().unwrap();
    let seq = d.infer_sequential(&inputs).unwrap();
    let pipe = d.infer_stream(&inputs).unwrap();
    assert_eq!(seq.failures() + pipe.failures(), 0);
    for (i, (a, b)) in seq.outputs.iter().zip(pipe.outputs.iter()).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert!(metrics::allclose(a, b, 1e-4, 1e-5), "batch {i} diverged");
    }
    d.shutdown();
}

#[test]
fn distinct_inputs_produce_distinct_outputs_in_order() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 41).expect("builds");
    // Direct single-engine outputs for three distinguishable inputs.
    let mk = |scale: f32| {
        let mut t = model_input(&model);
        t.map_inplace(|v| v * scale);
        t
    };
    let inputs = vec![mk(0.2), mk(0.7), mk(1.0)];
    let expected: Vec<Tensor> = inputs.iter().map(|i| reference_output(&model, i)).collect();
    let mut d = Deployment::builder(model).partitions(3).build().unwrap();
    let stats = d.infer_stream(&inputs).unwrap();
    for (i, (got, want)) in stats.outputs.iter().zip(expected.iter()).enumerate() {
        let got = got.as_ref().unwrap();
        assert!(
            metrics::allclose(got, want, 1e-3, 1e-4),
            "stream order violated at {i}"
        );
    }
    d.shutdown();
}

#[test]
fn unencrypted_and_encrypted_paths_agree() {
    let model = zoo::build(ModelKind::EfficientNetB7, ScaleProfile::Test, 43).expect("builds");
    let input = model_input(&model);
    let mut enc = Deployment::builder(model.clone()).partitions(2).encrypt(true).build().unwrap();
    let mut plain = Deployment::builder(model).partitions(2).encrypt(false).build().unwrap();
    let a = enc.infer(&input).unwrap();
    let b = plain.infer(&input).unwrap();
    assert!(metrics::allclose(&a, &b, 1e-4, 1e-5));
    enc.shutdown();
    plain.shutdown();
}

#[test]
fn monitor_attestation_binds_nonce() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 47).expect("builds");
    let d = Deployment::builder(model).partitions(2).build().unwrap();
    let report = d.attest_monitor(b"fresh-nonce");
    d.verify_monitor_report(&report, b"fresh-nonce").unwrap();
    assert!(d.verify_monitor_report(&report, b"replayed-nonce").is_err());
}

#[test]
fn foundation_mixer_extension_runs_under_mvx() {
    // §7.4 future-work extension: a transformer-style foundation model
    // through the same partition + diversified-MVX machinery.
    let model = zoo::build(ModelKind::FoundationMixer, ScaleProfile::Test, 53).expect("builds");
    let input = model_input(&model);
    let expected = reference_output(&model, &input);
    let mut d = Deployment::builder(model)
        .partitions(3)
        .diversified_mvx(1, 3)
        .build()
        .unwrap();
    let out = d.infer(&input).unwrap();
    assert!(
        metrics::allclose(&out, &expected, 1e-3, 1e-4),
        "mixer output diverged by {}",
        metrics::max_abs_diff(&out, &expected)
    );
    assert_eq!(d.events().detection_count(), 0);
    // Output is a distribution over classes.
    let sum: f32 = out.data().iter().sum();
    assert!((sum - 1.0).abs() < 1e-3);
    d.shutdown();
}
