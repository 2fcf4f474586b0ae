//! Security integration tests: the Table 1 CVE matrix, fault injection,
//! and the attack surfaces analysed in §6.5 — all against the real
//! threaded system.

use mvtee::prelude::*;
use mvtee::SpecPatch;
use mvtee_faults::{Attack, CveClass, FaultDescriptor, FrameFlip, InputTrigger};
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_runtime::{BlasKind, EngineConfig, EngineKind};
use mvtee_tensor::Tensor;

fn model() -> Model {
    zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 51).expect("builds")
}

fn model_input(m: &Model) -> Tensor {
    let n = m.input_shape.num_elements();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 71) as f32 - 35.0) / 35.0).collect(),
        m.input_shape.dims(),
    )
    .expect("static shape")
}

/// Deploys a 2-variant MVX partition: variant 0 susceptible, variant 1
/// patched with `defender`; returns (inference result ok?, detections).
fn cve_trial(class: CveClass, defender: SpecPatch) -> (bool, usize) {
    let m = model();
    let input = model_input(&m);
    let mut d = Deployment::builder(m)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .spec_patch(1, 1, defender)
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::Cve(Attack::new(class)), None)
        .build()
        .expect("deploys");
    let ok = d.infer(&input).is_ok();
    let detections = d.events().detection_count();
    d.shutdown();
    (ok, detections)
}

#[test]
fn different_rt_detects_every_cve_class() {
    for class in CveClass::ALL {
        let (ok, detections) = cve_trial(
            class,
            SpecPatch::engine(EngineConfig::of_kind(EngineKind::TvmLike)),
        );
        assert!(detections > 0, "{class}: exploit not detected");
        assert!(!ok, "{class}: halted batch must fail");
    }
}

#[test]
fn class_specific_hardening_detects_matching_classes() {
    let cases: [(CveClass, &str); 5] = [
        (CveClass::Oob, "bounds-check"),
        (CveClass::Unp, "sanitizer-address"),
        (CveClass::Io, "sanitizer-address"),
        (CveClass::Uaf, "sanitizer-address"),
        (CveClass::Acf, "error-handling"),
    ];
    for (class, hardening) in cases {
        let patch = SpecPatch {
            hardening: Some(vec![hardening.to_string()]),
            ..Default::default()
        };
        let (_, detections) = cve_trial(class, patch);
        assert!(detections > 0, "{class} with {hardening}: not detected");
    }
}

#[test]
fn aslr_defends_the_oob_exploit_chain() {
    let patch = SpecPatch { aslr_seed: Some(0x1517), ..Default::default() };
    let (_, detections) = cve_trial(CveClass::Oob, patch);
    assert!(detections > 0, "ASLR-diversified variant must survive and dissent");
}

#[test]
fn without_mvx_the_exploit_wins_silently_or_kills_service() {
    let m = model();
    let input = model_input(&m);
    for class in [CveClass::Oob, CveClass::Acf] {
        let mut d = Deployment::builder(m.clone())
            .partitions(2)
            .fault(FaultDescriptor::Cve(Attack::new(class)), None)
            .build()
            .expect("deploys");
        let result = d.infer(&input);
        match class.effect() {
            mvtee_faults::FaultEffect::Crash => {
                assert!(result.is_err(), "{class}: crash class should kill the batch")
            }
            _ => {
                // Silent corruption: inference "succeeds" — the exact false
                // sense of security the paper's introduction warns about.
                assert!(result.is_ok(), "{class}: corruption should be silent");
            }
        }
        d.shutdown();
    }
}

#[test]
fn marker_triggered_exploit_fires_only_on_crafted_input() {
    // The marker must reach the vulnerable component's own input parser,
    // so the MVX panel sits on the first partition (which sees the raw
    // model input).
    let m = model();
    let benign = model_input(&m);
    let mut crafted = model_input(&m);
    crafted.data_mut()[0] = 1337.0;
    let mut d = Deployment::builder(m)
        .partitions(2)
        .mvx_on_partition(0, 2)
        .engine_override(0, 1, EngineConfig::of_kind(EngineKind::TvmLike))
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::Cve(Attack::with_marker(CveClass::Io, 1337.0)), None)
        .build()
        .expect("deploys");
    assert!(d.infer(&benign).is_ok(), "benign traffic must pass");
    assert_eq!(d.events().detection_count(), 0);
    let result = d.infer(&crafted);
    assert!(d.events().detection_count() > 0, "crafted input must be detected");
    assert!(result.is_err());
    d.shutdown();
}

#[test]
fn frameflip_detected_by_blas_diverse_panel() {
    let m = model();
    let input = model_input(&m);
    let mut d = Deployment::builder(m)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .engine_override(
            1,
            1,
            EngineConfig::of_kind(EngineKind::OrtLike).with_blas(BlasKind::Strided),
        )
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::BlasFault(FrameFlip::against(BlasKind::Blocked)), None)
        .build()
        .expect("deploys");
    assert!(d.infer(&input).is_err());
    assert!(d.events().detection_count() > 0);
    d.shutdown();
}

#[test]
fn frameflip_invisible_without_blas_diversity() {
    // Both variants on the attacked backend: their corrupted outputs agree
    // — replication without diversity is not a defense.
    let m = model();
    let input = model_input(&m);
    let mut d = Deployment::builder(m)
        .partitions(2)
        .mvx_on_partition(1, 2)
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::BlasFault(FrameFlip::against(BlasKind::Blocked)), None)
        .build()
        .expect("deploys");
    let result = d.infer(&input);
    assert!(result.is_ok(), "identical corrupted replicas agree");
    assert_eq!(d.events().detection_count(), 0);
    d.shutdown();
}

#[test]
fn continue_with_majority_survives_a_minority_exploit() {
    let m = model();
    let input = model_input(&m);
    let expected = {
        use mvtee_runtime::{Engine, PreparedModel};
        let e = Engine::new(EngineConfig::of_kind(EngineKind::TvmLike));
        let p: Box<dyn PreparedModel> = e.prepare(&m.graph).expect("prepares");
        p.run(std::slice::from_ref(&input)).expect("runs").remove(0)
    };
    // The healthy engines agree within the heterogeneous tolerance.
    let mut d = Deployment::builder(m)
        .partitions(2)
        .mvx_on_partition(1, 3)
        // Keep the single-variant first partition off the vulnerable
        // runtime so only one panel member is exploitable.
        .engine_override(0, 0, EngineConfig::of_kind(EngineKind::TvmLike))
        // Two healthy diverse-RT variants out-vote the exploited one.
        .engine_override(1, 1, EngineConfig::of_kind(EngineKind::TvmLike))
        .engine_override(1, 2, EngineConfig::of_kind(EngineKind::Reference))
        // The overrides turned the replicated claim into a heterogeneous
        // panel; its checkpoint must tolerate benign cross-engine drift.
        .checkpoint_metric(1, mvtee_tensor::metrics::Metric::relaxed())
        .voting(VotingPolicy::Majority)
        .response(ResponsePolicy::ContinueWithMajority)
        .fault(FaultDescriptor::Cve(Attack::new(CveClass::Uaf)), None)
        .build()
        .expect("deploys");
    let out = d.infer(&input).expect("degraded service continues");
    assert!(d.events().detection_count() > 0, "the exploit is still reported");
    assert!(
        mvtee_tensor::metrics::allclose(&out, &expected, 1e-3, 1e-4),
        "the adopted majority output must be the healthy one"
    );
    d.shutdown();
}

#[test]
fn sealed_bundle_tampering_blocks_bootstrap() {
    // The untrusted orchestrator flips a byte in a sealed variant bundle:
    // decryption fails inside the init-variant and the deployment cannot
    // come online — integrity property (ii)/(vii) of §6.5.
    let m = model();
    let offline = mvtee::OfflinePhase::run(
        &m.graph,
        &MvxConfig::fast_path(2),
        7,
        &Default::default(),
    )
    .expect("offline phase");
    // Tamper with one artifact and attempt a manual decrypt as the variant
    // would: the protected-FS open must fail closed.
    let artifact = &offline.artifacts[0][0];
    let mut fs = mvtee_tee::ProtectedFs::new();
    let (salt, mut blob) = artifact.sealed.clone();
    let mid = blob.len() / 2;
    blob[mid] ^= 0xff;
    fs.import(&artifact.bundle_path, salt, blob);
    assert!(
        fs.read(&artifact.variant_key, &artifact.bundle_path).is_err(),
        "tampered sealed bundle must not decrypt"
    );
}

#[test]
fn exploits_on_nonfinal_partitions_are_caught_before_output() {
    // Attack the FIRST partition; the halt must prevent any final output.
    let m = model();
    let input = model_input(&m);
    let mut d = Deployment::builder(m)
        .partitions(2)
        .mvx_on_partition(0, 2)
        .engine_override(0, 1, EngineConfig::of_kind(EngineKind::TvmLike))
        .response(ResponsePolicy::Halt)
        .fault(
            FaultDescriptor::Cve(Attack { class: CveClass::Io, trigger: InputTrigger::Always }),
            None,
        )
        .build()
        .expect("deploys");
    assert!(d.infer(&input).is_err());
    assert!(d.events().detection_count() > 0);
    d.shutdown();
}
