//! One partition-set selection per replica pool: the replicas of
//! `build_many` share the partition seed, so they share one selection
//! (`core.offline.partition_plans` counts them), and a replica the hook
//! moves to another seed selects its own.
//!
//! One test in its own binary: the counter is process-wide, so no other
//! test may build while it counts.

use mvtee::config::{MvxConfig, PartitionMvx};
use mvtee::{Deployment, DeploymentBuilder};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;

const SEED: u64 = 31;

fn builder() -> DeploymentBuilder {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, SEED).expect("model builds");
    let mut cfg = MvxConfig::fast_path(2);
    cfg.claims[1] = PartitionMvx::diversified(3);
    Deployment::builder(model).config(cfg).partition_seed(SEED).variant_seed(SEED)
}

fn plans() -> u64 {
    mvtee_telemetry::counter("core.offline.partition_plans").get()
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

#[test]
fn a_replica_pool_selects_its_partition_set_once() {
    let before = plans();
    let mut pool = builder().build_many(3).expect("pool builds");
    assert_eq!(plans() - before, 1, "three replicas, one partition-set selection");

    // Each replica is exactly the plain build with its derived seed.
    let input = Tensor::ones(&[1, 3, 32, 32]);
    for (r, replica) in pool.iter_mut().enumerate() {
        let mut alone = builder()
            .variant_seed(DeploymentBuilder::replica_variant_seed(SEED, r))
            .build()
            .expect("replica builds alone");
        assert_eq!(replica.partition_set(), alone.partition_set(), "replica {r}");
        assert_eq!(replica.variant_specs(), alone.variant_specs(), "replica {r}");
        let (a, b) =
            (replica.infer(&input).expect("answers"), alone.infer(&input).expect("answers"));
        assert!(bits_equal(&a, &b), "replica {r}: outputs differ");
        alone.shutdown();
    }
    for d in &mut pool {
        d.shutdown();
    }

    // A replica the hook moves to another partition seed selects its own
    // set; the other two still share one.
    let before = plans();
    let mut hooked = builder()
        .build_many_with(3, |r, b| if r == 1 { b.partition_seed(SEED + 1) } else { b })
        .expect("hooked pool builds");
    assert_eq!(plans() - before, 2);
    assert_eq!(hooked[0].partition_set(), hooked[2].partition_set());
    assert_ne!(hooked[0].partition_set(), hooked[1].partition_set());
    for d in &mut hooked {
        d.shutdown();
    }
}
