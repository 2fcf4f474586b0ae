//! Thread census: what a deployment runs, counted from the process's own
//! task list rather than assumed.
//!
//! The monitor side of a deployment is one `monitor` thread, whatever its
//! number of stages, and a replica pool runs one per replica; a variant
//! costs one host thread in-process, and out-of-process only the
//! demultiplexer pump of its worker's connection (plus a heartbeat
//! watcher when supervised). Nothing on the monitor side runs per stage or
//! per variant beyond that — recovery included: a quarantined variant is
//! re-provisioned on the `monitor` thread itself — and `shutdown` leaves
//! no thread behind, even with a recovery still queued.
//!
//! One test in its own binary, so the census sees no other test's
//! threads.

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy, SupervisionPolicy};
use mvtee::deployment::{Deployment, DeploymentBuilder};
use mvtee_faults::{BitFlipFault, BitFlipStrategy, FaultDescriptor};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

type Census = BTreeMap<String, usize>;

/// Live threads of this process by name prefix: the name up to its first
/// digit, so `variant-p0-v2` counts as `variant-p`.
fn census() -> Census {
    let mut census = Census::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let Ok(comm) = std::fs::read_to_string(task.expect("task").path().join("comm")) else {
            continue; // exited while listed
        };
        let prefix = comm
            .trim_end()
            .split(|c: char| c.is_ascii_digit())
            .next()
            .unwrap_or("");
        *census.entry(prefix.to_string()).or_default() += 1;
    }
    census
}

/// Polls until the census reads `want` — a thread names itself only after
/// it starts, and leaves the task list only once it has exited — or ten
/// seconds pass; returns the last reading.
fn settle(want: &Census) -> Census {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = census();
        if &now == want || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn plus(base: &Census, threads: &[(&str, usize)]) -> Census {
    let mut census = base.clone();
    for &(prefix, n) in threads {
        *census.entry(prefix.to_string()).or_default() += n;
    }
    census.retain(|_, n| *n > 0);
    census
}

fn builder(
    partitions: usize,
    variants: usize,
    supervision: SupervisionPolicy,
) -> DeploymentBuilder {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).expect("model");
    let mut cfg = MvxConfig::fast_path(partitions);
    cfg.claims = vec![PartitionMvx::replicated(variants); partitions];
    cfg.supervision = supervision;
    Deployment::builder(model).config(cfg)
}

/// Builds `replicas` replicas (the plain build for one), takes the census
/// once it settles on `expected` over the pre-build census, then shuts
/// them down and expects the pre-build census back.
fn census_of(what: &str, builder: DeploymentBuilder, replicas: usize, expected: &[(&str, usize)]) {
    let before = census();
    let mut deployments = match replicas {
        1 => vec![builder.build().expect("deploys")],
        n => builder.build_many(n).expect("deploys"),
    };
    let want = plus(&before, expected);
    assert_eq!(
        settle(&want),
        want,
        "{what}: running (left) vs expected (right)"
    );
    deployments.iter_mut().for_each(Deployment::shutdown);
    assert_eq!(
        settle(&before),
        before,
        "{what}: after shutdown (left) vs before build (right)"
    );
}

#[test]
fn a_deployment_runs_no_monitor_thread_per_variant() {
    let unsupervised = SupervisionPolicy::default;
    // 6 partitions x 3 variants in-process: 18 hosts, one monitor.
    let in_process = builder(6, 3, unsupervised());
    census_of(
        "6x3 in-process",
        in_process,
        1,
        &[("variant-p", 18), ("monitor", 1)],
    );
    // A pool of two 2x3 replicas: one monitor per replica.
    let pool = builder(2, 3, unsupervised());
    census_of("two 2x3 replicas", pool, 2, &[("variant-p", 12), ("monitor", 2)]);

    // One of a 2x2 panel's variants in a worker process: its host thread
    // gives way to the pump of the worker's connection, and supervision
    // adds the heartbeat watcher.
    let worker = env!("CARGO_BIN_EXE_mvtee-variantd");
    let placed = |supervision| {
        builder(2, 2, supervision)
            .worker_binary(worker)
            .out_of_process(1, 1)
    };
    let one_out = [("variant-p", 3), ("monitor", 1), ("mux-pump", 1)];
    census_of("2x2, one out-of-process", placed(unsupervised()), 1, &one_out);
    let supervised = [&one_out[..], &[("hb-watch-p", 1)]].concat();
    census_of(
        "2x2, one supervised out-of-process",
        placed(SupervisionPolicy::enabled()),
        1,
        &supervised,
    );
    recovery_census();
}

/// A deployment of one variant and a panel of three whose variant (1, 0) carries flipped weights: its first
/// batch quarantines it and files its recovery. While the replacement
/// comes up and after it rejoins, the deployment runs its four hosts and
/// its monitor and nothing else; shut down right behind the quarantine,
/// it leaves nothing either.
fn recovery_census() {
    let flip = BitFlipFault { strategy: BitFlipStrategy::ExponentMsb, count: 3, seed: 2 };
    let healing = || {
        let mut cfg = MvxConfig::fast_path(2);
        cfg.claims[1] = PartitionMvx::replicated(3);
        cfg.response = ResponsePolicy::ContinueWithMajority;
        cfg.recovery = RecoveryPolicy::enabled();
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).expect("model");
        Deployment::builder(model)
            .config(cfg)
            .fault(FaultDescriptor::WeightBitFlip(flip), Some((1, 0)))
            .build()
            .expect("deploys")
    };
    let input = Tensor::ones(&[1, 3, 32, 32]);
    let before = census();
    let want = plus(&before, &[("variant-p", 4), ("monitor", 1)]);

    let mut healed = healing();
    healed.infer(&input).expect("the majority serves");
    let deadline = Instant::now() + Duration::from_secs(10);
    while healed.events().recoveries().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(healed.events().recoveries(), [(1, 0)], "{}", healed.events().render());
    assert_eq!(settle(&want), want, "healed 1+3: running (left) vs expected (right)");
    healed.shutdown();
    assert_eq!(settle(&before), before, "healed 1+3: after shutdown (left) vs before build (right)");

    let mut stopped = healing();
    stopped.infer(&input).expect("the majority serves");
    stopped.shutdown();
    assert_eq!(
        settle(&before),
        before,
        "1+3 stopped mid-recovery: after shutdown (left) vs before build (right)"
    );
}
