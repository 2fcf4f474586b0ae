//! The `core.pipeline.p<P>.queue_depth` gauges count jobs: whoever sends a
//! job into a stage's queue adds one, the stage takes it back when it
//! takes the job. Sampled while a stream of batches runs through a
//! 2-partition deployment, no gauge goes negative or past a full queue
//! plus the one job its blocked sender has counted, and every gauge reads
//! 0 once the last batch is answered.
//!
//! One test in its own binary: the gauges are process-wide, so no other
//! test may run a pipeline while it samples.

use mvtee::config::MvxConfig;
use mvtee::Deployment;
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_telemetry::trace::TraceCtx;
use mvtee_telemetry::Gauge;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

const BATCHES: usize = 64;

/// A stage queue's bound (1024), plus the job a sender blocked on a full
/// queue has already counted.
const MAX_DEPTH: i64 = 1025;

#[test]
fn queue_depth_gauges_count_the_jobs_in_each_queue() {
    let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 7).expect("model");
    let input = mvtee_tensor::Tensor::ones(model.input_shape.dims());
    let cfg = MvxConfig::fast_path(2);
    let mut deployment = Deployment::builder(model).config(cfg).build().expect("deploys");
    let gauges = [0, 1].map(|p| mvtee_telemetry::gauge(&format!("core.pipeline.p{p}.queue_depth")));
    assert_eq!(gauges.each_ref().map(Gauge::get), [0, 0], "an idle pipeline queues nothing");

    let answered = AtomicBool::new(false);
    let (lowest, highest) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut lowest, mut highest) = (i64::MAX, i64::MIN);
            while !answered.load(Ordering::Acquire) {
                for depth in gauges.iter().map(Gauge::get) {
                    (lowest, highest) = (lowest.min(depth), highest.max(depth));
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            (lowest, highest)
        });
        let (tx, answers) = channel();
        for _ in 0..BATCHES {
            let tx = tx.clone();
            let reply = move |out: Result<_, String>| {
                let _ = tx.send(out.is_ok());
            };
            deployment.submit(input.clone(), TraceCtx::NONE, reply).expect("submits");
        }
        for b in 0..BATCHES {
            let ok = answers.recv_timeout(Duration::from_secs(120)).expect("answered");
            assert!(ok, "batch {b} failed");
        }
        answered.store(true, Ordering::Release);
        sampler.join().expect("sampler")
    });
    assert!(lowest >= 0, "a queue-depth sample read {lowest}");
    assert!(highest <= MAX_DEPTH, "a queue-depth sample read {highest}");
    assert!(highest > 0, "no sample saw a queued job");
    assert_eq!(gauges.each_ref().map(Gauge::get), [0, 0], "jobs still counted once answered");
    deployment.shutdown();
    assert_eq!(gauges.each_ref().map(Gauge::get), [0, 0], "shutdown left jobs counted");
}
