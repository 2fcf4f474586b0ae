//! What the benchmark is: its workloads, its metrics with their bounds, and
//! the `BENCHMARK.json` body generated from them (`bench spec`), so the file
//! at the repository root and the code can never drift (`check.sh` compares).

use crate::json::Json;
use crate::stats::Better;
use mvtee::config::{MvxConfig, PartitionMvx, SupervisionPolicy};
use mvtee_graph::zoo::{ModelKind, ScaleProfile};

/// How long one driver run measures, seconds: the contract's longest. With
/// two gated workloads the driver makes 48 runs, and 48 × ~57 s plus two
/// builds stay inside its 3420 s with a margin.
pub const RUN_SECONDS: u64 = 60;

/// Partition seed and variant seed of every deployment. They are deployment
/// configuration, not workload input: the `--seed` argument draws weights,
/// inputs and the request order, while the partition set and the diversified
/// variants stay the ones named in the workload's `why`.
pub const PARTITION_SEED: u64 = 0x5eed;
pub const VARIANT_SEED: u64 = 0xd1ce;

/// How a workload's MVX panels are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panels {
    /// Every partition runs `n` identical in-process replicas (exact metric).
    Replicated(usize),
    /// Every partition runs `n` diversified in-process variants (relaxed metric).
    Diversified(usize),
    /// Partition 0 is a single in-process variant (fast path); the last
    /// partition is `n` replicas, each an `mvtee-variantd` process over
    /// loopback TCP with the heartbeat lane on.
    DistTail(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelKind,
    pub profile: ScaleProfile,
    pub replicas: usize,
    pub partitions: usize,
    pub panels: Panels,
    /// Tickets the closed-loop generator keeps outstanding.
    pub closed_outstanding: usize,
    /// Open-loop arrival rate, requests per second: a constant of about a
    /// third of the closed-loop throughput measured when the benchmark was
    /// defined. Never computed at run time, so the offered load is the same
    /// on every commit.
    pub open_rate_rps: f64,
}

/// The workloads `BENCHMARK.json` names: the driver runs and gates these.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-small",
        why: "MnasNet@Test, 2 replicas x (2 partitions x 3 replicas), closed 8 / open 200 rps: kernels ~10% of a request, so admission, batching, pool and hand-offs carry it",
        model: ModelKind::MnasNet,
        profile: ScaleProfile::Test,
        replicas: 2,
        partitions: 2,
        panels: Panels::Replicated(3),
        closed_outstanding: 8,
        open_rate_rps: 200.0,
    },
    Workload {
        name: "checkpoint-heavy",
        why: "MnasNet@Test, 1 replica x (6 partitions x 3 replicas), closed 8 / open 110 rps: 36 channel messages per request, so codec, AES-GCM, link and vote carry it",
        model: ModelKind::MnasNet,
        profile: ScaleProfile::Test,
        replicas: 1,
        partitions: 6,
        panels: Panels::Replicated(3),
        closed_outstanding: 8,
        open_rate_rps: 110.0,
    },
];

/// Runnable by name like the others, but not in `BENCHMARK.json`, so the
/// driver neither runs nor gates them (README, "Why two workloads are not
/// gated"): `serve-compute`'s two compute-bound variants each need a whole
/// vCPU and the slower one sets every request's time, and `dist-loopback`
/// keeps four processes runnable on two cores, so both follow the host's
/// spare capacity more closely than any bound the contract allows.
pub const BY_HAND: [Workload; 2] = [
    Workload {
        name: "serve-compute",
        why: "ResNet-50@Bench, 1 replica x (2 partitions x ort-like+tvm-like), closed 4 / open 16 rps: the runtime is the blocking path and the panel width equals nproc; serve and crypto changes must not show",
        model: ModelKind::ResNet50,
        profile: ScaleProfile::Bench,
        replicas: 1,
        partitions: 2,
        panels: Panels::Diversified(2),
        closed_outstanding: 4,
        open_rate_rps: 16.0,
    },
    Workload {
        name: "dist-loopback",
        why: "MnasNet@Test, partition 0 in-process, partition 1 = 3 mvtee-variantd processes over loopback TCP + mux + heartbeat, closed 8 / open 270 rps: the only one with sockets on the blocking path",
        model: ModelKind::MnasNet,
        profile: ScaleProfile::Test,
        replicas: 1,
        partitions: 2,
        panels: Panels::DistTail(3),
        closed_outstanding: 8,
        open_rate_rps: 270.0,
    },
];

/// Every workload `--workload` accepts.
pub fn all_workloads() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().chain(BY_HAND.iter())
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        all_workloads().find(|w| w.name == name)
    }

    /// The MVX configuration every replica runs: the crate's defaults with
    /// this workload's panels.
    pub fn mvx_config(&self) -> MvxConfig {
        let mut cfg = MvxConfig::fast_path(self.partitions);
        cfg.partition_seed = PARTITION_SEED;
        match self.panels {
            Panels::Replicated(n) => {
                cfg.claims
                    .iter_mut()
                    .for_each(|c| *c = PartitionMvx::replicated(n));
            }
            Panels::Diversified(n) => {
                cfg.claims
                    .iter_mut()
                    .for_each(|c| *c = PartitionMvx::diversified(n));
            }
            Panels::DistTail(n) => {
                cfg.claims[self.partitions - 1] = PartitionMvx::replicated(n);
                cfg.supervision = SupervisionPolicy::enabled();
            }
        }
        cfg
    }

    /// `(partition, variant)` pairs that run as worker processes.
    pub fn out_of_process(&self) -> Vec<(usize, usize)> {
        match self.panels {
            Panels::DistTail(n) => (0..n).map(|v| (self.partitions - 1, v)).collect(),
            _ => Vec::new(),
        }
    }

    /// Are responses bit-exact against the bare-engine reference?
    pub fn exact(&self) -> bool {
        !matches!(self.panels, Panels::Diversified(_))
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// The five end-to-end metrics, reported for every workload. Bounds come from
/// the A/A study in NOISE.md and the driver's own A/A check by the rule in
/// README.md ("Bounds"). CPU per request was the sixth and is now the
/// per-layer row `load.cpu_ms_per_request` (README, "Demoted").
pub const END_TO_END: [Metric; 5] = [
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.20),
    e2e("upload_mb_s", "MB/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// The per-layer rows of a traced run, grouped by the crate they measure.
pub const PER_LAYER: [Metric; 92] = [
    // onion: the same inputs through three nested entry points
    lo("onion.engine_ms", "ms"),
    lo("onion.deployment_ms", "ms"),
    lo("onion.serve_ms", "ms"),
    lo("core.overhead_ms", "ms"),
    lo("core.overhead_x", "x"),
    lo("serve.overhead_ms", "ms"),
    // walk: one request replayed step by step
    lo("walk.encode_us", "us"),
    lo("walk.seal_us", "us"),
    lo("walk.transport_us", "us"),
    lo("walk.open_us", "us"),
    lo("walk.decode_us", "us"),
    lo("walk.infer_us", "us"),
    lo("walk.vote_us", "us"),
    lo("walk.total_us", "us"),
    lo("walk.unattributed_share", "share"),
    // serve
    lo("serve.submit_us", "us"),
    lo("serve.queue_wait_ms.p50", "ms"),
    hi("serve.batch_size.mean.closed", "count"),
    hi("serve.batch_size.mean.open", "count"),
    lo("serve.shed_share", "share"),
    // core
    lo("core.checkpoint_ms.p50", "ms"),
    lo("core.voting.evaluate_us.3x64k", "us"),
    hi("core.voting.fast_path_share", "share"),
    lo("core.link.mem_rtt_us.1k", "us"),
    lo("core.link.mem_rtt_us.64k", "us"),
    lo("core.offline_ms", "ms"),
    lo("core.build_ms", "ms"),
    lo("core.bootstrap_ms.p50", "ms"),
    lo("core.worker.spawn_ms", "ms"),
    // codec
    hi("codec.encode_mb_s.1k", "MB/s"),
    hi("codec.encode_mb_s.64k", "MB/s"),
    hi("codec.encode_mb_s.1m", "MB/s"),
    hi("codec.decode_mb_s.1k", "MB/s"),
    hi("codec.decode_mb_s.64k", "MB/s"),
    hi("codec.decode_mb_s.1m", "MB/s"),
    // crypto
    hi("crypto.gcm.seal_mb_s.1k", "MB/s"),
    hi("crypto.gcm.seal_mb_s.64k", "MB/s"),
    hi("crypto.gcm.seal_mb_s.1m", "MB/s"),
    hi("crypto.gcm.open_mb_s.1k", "MB/s"),
    hi("crypto.gcm.open_mb_s.64k", "MB/s"),
    hi("crypto.gcm.open_mb_s.1m", "MB/s"),
    lo("crypto.gcm.new_us", "us"),
    hi("crypto.sha256.mb_s", "MB/s"),
    hi("crypto.x25519.ops_s", "1/s"),
    lo("crypto.handshake_us", "us"),
    lo("crypto.channel.mem_rtt_us.1k", "us"),
    lo("crypto.channel.mem_rtt_us.64k", "us"),
    lo("crypto.mux_tcp.rtt_us.1k", "us"),
    lo("crypto.mux_tcp.rtt_us.64k", "us"),
    lo("crypto.channel.bytes_per_request", "B"),
    lo("crypto.channel.msgs_per_request", "count"),
    lo("crypto.mux.bytes_per_request", "B"),
    // tensor
    lo("tensor.compare_us.64k.exact", "us"),
    lo("tensor.compare_us.64k.tolerance", "us"),
    // runtime
    lo("runtime.engine.infer_ms.reference", "ms"),
    lo("runtime.engine.infer_ms.ort-like", "ms"),
    lo("runtime.engine.infer_ms.tvm-like", "ms"),
    lo("runtime.engine.prepare_ms", "ms"),
    lo("runtime.cache.prepare_warm_ms", "ms"),
    hi("runtime.threads.speedup_x.t2", "x"),
    hi("runtime.gemm.gflops.blocked.sq96", "GFLOP/s"),
    hi("runtime.gemm.gflops.blocked.im2col-16x1024x144", "GFLOP/s"),
    hi("runtime.gemm.gflops.blocked.fc-1x256x1000", "GFLOP/s"),
    hi("runtime.gemm.gflops.simd.sq96", "GFLOP/s"),
    hi("runtime.gemm.gflops.simd.im2col-16x1024x144", "GFLOP/s"),
    hi("runtime.gemm.gflops.simd.fc-1x256x1000", "GFLOP/s"),
    hi("runtime.conv.gflops.im2col.3x3-16c-32px", "GFLOP/s"),
    hi("runtime.conv.gflops.im2col.1x1-64c-16px", "GFLOP/s"),
    hi("runtime.conv.gflops.nhwc-direct.3x3-16c-32px", "GFLOP/s"),
    hi("runtime.conv.gflops.nhwc-direct.1x1-64c-16px", "GFLOP/s"),
    // registry, tee, partition, diversify
    hi("registry.upload_mb_s.mem", "MB/s"),
    hi("registry.upload_mb_s.tcp", "MB/s"),
    lo("registry.upload.roundtrips_per_mb", "1/MB"),
    hi("registry.store.put_mb_s", "MB/s"),
    hi("registry.store.get_mb_s", "MB/s"),
    lo("registry.checkout_ms", "ms"),
    lo("tee.attest_verify_us", "us"),
    lo("partition.plan_ms", "ms"),
    lo("diversify.materialize_ms", "ms"),
    // cross-cutting
    lo("alloc.calls_per_request", "count"),
    lo("alloc.bytes_per_request", "B"),
    lo("alloc.live_peak_mb", "MB"),
    lo("telemetry.trace_overhead_pct", "%"),
    lo("telemetry.span_record_ns", "ns"),
    hi("load.throughput_rps.all", "1/s"),
    lo("load.latency_p50_ms.all", "ms"),
    lo("load.latency_p95_ms", "ms"),
    lo("load.closed_latency_p50_ms", "ms"),
    lo("load.open_late_p95_ms", "ms"),
    lo("load.cpu_ms_per_request", "ms"),
    lo("host.probe_ms", "ms"),
    lo("host.probe_spread_pct", "%"),
];

/// The `BENCHMARK.json` body.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in all_workloads() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
            // The literal open-loop rate is part of the recorded reason.
            assert!(
                w.why.contains(&format!("open {} rps", w.open_rate_rps)),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn workload_configs_validate() {
        for w in all_workloads() {
            let cfg = w.mvx_config();
            cfg.validate().unwrap();
            assert_eq!(cfg.claims.len(), w.partitions);
            for (p, v) in w.out_of_process() {
                assert!(v < cfg.claims[p].variants);
            }
        }
    }
}
