//! Attack detection demo: a FrameFlip-style code fault in one BLAS
//! backend, and a CVE-class exploit in the inference runtime — both caught
//! by MVX checkpoints that a plain TEE deployment would miss.
//!
//! ```text
//! cargo run --release --example fault_detection
//! ```

use mvtee::prelude::*;
use mvtee_faults::{Attack, CveClass, FaultDescriptor, FrameFlip};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_runtime::{BlasKind, EngineConfig, EngineKind};
use mvtee_tensor::Tensor;

fn input() -> Tensor {
    let n = 3 * 32 * 32;
    Tensor::from_vec(
        (0..n).map(|i| ((i % 89) as f32 - 44.0) / 44.0).collect(),
        &[1, 3, 32, 32],
    )
    .expect("static shape")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Scenario 1: FrameFlip — a bit flip in the "OpenBLAS" stand-in's
    // code pages corrupts every GEMM routed through it. -------------------
    println!("== FrameFlip (code-level fault in one BLAS backend) ==");
    let frameflip = FrameFlip::against(BlasKind::Blocked);

    // Without MVX: the single variant silently returns corrupted results.
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5)?;
    let mut undefended = Deployment::builder(model.clone())
        .partitions(2)
        .fault(FaultDescriptor::BlasFault(frameflip.clone()), None)
        .build()?;
    let corrupted = undefended.infer(&input())?;
    println!(
        "  without MVX: inference 'succeeds' — corrupted output served silently \
         (detections: {})",
        undefended.events().detection_count()
    );
    undefended.shutdown();

    // With MVX: pair the attacked backend with a different BLAS; the
    // checkpoint diverges and the monitor halts.
    let mut defended = Deployment::builder(model.clone())
        .partitions(2)
        .mvx_on_partition(1, 2)
        .engine_override(
            1,
            1,
            EngineConfig::of_kind(EngineKind::OrtLike).with_blas(BlasKind::Strided),
        )
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::BlasFault(frameflip), None)
        .build()?;
    let result = defended.infer(&input());
    println!("  with MVX   : inference result = {:?}", result.err().map(|e| e.to_string()));
    for (t, e) in defended.events().snapshot() {
        println!("    [{t:.3}s] {e}");
    }
    assert!(defended.events().detection_count() > 0, "attack must be detected");
    defended.shutdown();

    // Show the corruption was real.
    let clean = {
        use mvtee_runtime::{Engine, PreparedModel};
        let e = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
        let p: Box<dyn PreparedModel> = e.prepare(&model.graph)?;
        p.run(std::slice::from_ref(&input()))?.remove(0)
    };
    println!(
        "  (silent corruption magnitude: max |Δ| = {:.3})",
        mvtee_tensor::metrics::max_abs_diff(&clean, &corrupted)
    );

    // --- Scenario 2: a UAF-class CVE exploit in the vulnerable runtime. ---
    println!("\n== CVE exploit (use-after-free class, Table 1) ==");
    let attack = Attack::new(CveClass::Uaf);
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 5)?;
    let mut d = Deployment::builder(model)
        .partitions(2)
        .mvx_on_partition(1, 2)
        // The defender runs a different runtime family ("Different RT").
        .engine_override(1, 1, EngineConfig::of_kind(EngineKind::TvmLike))
        .response(ResponsePolicy::Halt)
        .fault(FaultDescriptor::Cve(attack), None)
        .build()?;
    let result = d.infer(&input());
    println!("  with MVX   : inference result = {:?}", result.err().map(|e| e.to_string()));
    for (t, e) in d.events().snapshot() {
        println!("    [{t:.3}s] {e}");
    }
    assert!(d.events().detection_count() > 0, "exploit must be detected");
    d.shutdown();

    println!("\nboth attacks detected at MVX checkpoints before any output left the system");
    Ok(())
}
