//! Attestable runtime variant initialization and updates (Fig 6).
//!
//! Shows the two-stage bootstrap evidence trail, then performs a *partial*
//! update (scaling one partition's variants) and a *full* update
//! (reshuffling the partition set) — with append-only binding history.
//!
//! ```text
//! cargo run --release --example variant_update
//! ```

use mvtee::config::PartitionMvx;
use mvtee::prelude::*;
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::build(ModelKind::GoogleNet, ScaleProfile::Test, 3)?;
    let mut deployment = Deployment::builder(model).partitions(3).build()?;

    let input = Tensor::ones(&[1, 3, 32, 32]);
    let baseline = deployment.infer(&input)?;
    println!("initial deployment:");
    for b in deployment.bindings() {
        println!(
            "  gen {} partition {} variant {} -> id {} (measurement {:02x}{:02x}…)",
            b.generation, b.partition, b.variant, b.variant_id, b.measurement[0], b.measurement[1]
        );
    }

    // Partial update: scale partition 1 up to 3 replicated variants
    // ("vertical/horizontal scaling ... adapt to dynamic online
    // environments"). Old TEEs are never reused; fresh keys and bindings.
    println!("\npartial update: partition 1 -> 3 variants");
    deployment.partial_update(1, PartitionMvx::replicated(3))?;
    let after_partial = deployment.infer(&input)?;
    assert!(mvtee_tensor::metrics::allclose(&baseline, &after_partial, 1e-3, 1e-4));
    assert_eq!(binding_updates(&deployment).len(), 1);
    println!(
        "  inference preserved; bindings now {} (append-only), updates: {:?}",
        deployment.bindings().len(),
        binding_updates(&deployment)
    );

    // Full update: reshuffle the partition set itself.
    println!("\nfull update: reshuffling the partition set");
    let old_checkpoints = deployment.partition_set().checkpoint_count();
    deployment.full_update(fresh_seed_u64())?;
    let after_full = deployment.infer(&input)?;
    assert!(mvtee_tensor::metrics::allclose(&baseline, &after_full, 1e-3, 1e-4));
    assert_eq!(binding_updates(&deployment).len(), 2);
    println!(
        "  checkpoints before/after: {} / {}",
        old_checkpoints,
        deployment.partition_set().checkpoint_count()
    );
    println!("  updates: {:?}", binding_updates(&deployment));

    // Proactive key rotation (§6.5): every variant key is re-derived and
    // the payloads re-sealed; service is uninterrupted after re-attestation.
    println!("\nkey rotation");
    deployment.rotate_keys()?;
    let after_rotation = deployment.infer(&input)?;
    assert!(mvtee_tensor::metrics::allclose(&baseline, &after_rotation, 1e-3, 1e-4));
    println!("  all variant keys rotated; inference preserved");

    // The audit trail records every binding generation.
    let bound_events = deployment
        .events()
        .events()
        .iter()
        .filter(|e| matches!(e, mvtee::MonitorEvent::VariantBound { .. }))
        .count();
    println!("\naudit log: {bound_events} variant-bound events across all generations");

    deployment.shutdown();
    Ok(())
}

/// The binding updates the audit event log holds, in recording order.
fn binding_updates(deployment: &Deployment) -> Vec<String> {
    deployment
        .events()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            mvtee::MonitorEvent::BindingUpdated { description, .. } => Some(description),
            _ => None,
        })
        .collect()
}

fn fresh_seed_u64() -> u64 {
    0x1234_5678
}
