//! One micro-benchmark per layer: each crate's public functions called in
//! isolation, inputs and outputs through `black_box`, the median reported
//! with its sample count.

use crate::span;
use crate::spec::{Workload, PARTITION_SEED, VARIANT_SEED};
use crate::stats::{median, quantile};
use crate::system::{self, Inputs, MODEL_KEY};
use mvtee::config::VotingPolicy;
use mvtee::deployment::{select_partition_set, Deployment, OfflinePhase};
use mvtee::link::link_pair;
use mvtee::voting::{evaluate, VariantOutput};
use mvtee_crypto::channel::{memory_pair, FrameTransport, Handshake, Role, SecureChannel};
use mvtee_crypto::gcm::{nonce_from_sequence, AesGcm};
use mvtee_crypto::mux::{split, LANE_REQUEST};
use mvtee_crypto::sha256::sha256;
use mvtee_crypto::tcp::loopback_pair;
use mvtee_crypto::x25519::{x25519, BASE_POINT};
use mvtee_diversify::VariantGenerator;
use mvtee_registry::{
    encode_model, prepare_upload, BundleMeta, Registry, RegistryConfig, SealedStore,
    DEFAULT_CHUNK_LEN,
};
use mvtee_runtime::kernels::{conv2d_im2col, conv2d_nhwc_direct, ConvAttrs};
use mvtee_runtime::{simd, Blas, BlockedBlas, Engine, EngineConfig, EngineKind};
use mvtee_tee::{Platform, TeeKind};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Samples a micro row takes unless its time cap ends it first.
const SAMPLES: usize = 200;
/// Samples a row takes even when one call exceeds the time cap.
const MIN_SAMPLES: usize = 3;

/// The rows of a traced run: name → (value, samples, note).
#[derive(Default)]
pub struct Rows(pub Vec<(String, f64, usize, String)>);

impl Rows {
    pub fn put(&mut self, name: &str, value: f64, n: usize, note: &str) {
        self.0.push((name.to_string(), value, n, note.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|r| r.1)
    }
}

/// Times `f` until [`SAMPLES`] samples or `cap` has passed; seconds per call.
pub fn sample(cap: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::with_capacity(SAMPLES);
    while out.len() < SAMPLES && (out.len() < MIN_SAMPLES || started.elapsed() < cap) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// [`sample`] for calls too short for one clock reading each: every sample
/// times `batch` calls and reports the time of one.
fn sample_batched(cap: Duration, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    sample(cap, || (0..batch).for_each(|_| f()))
        .into_iter()
        .map(|s| s / batch as f64)
        .collect()
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
}

fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, dims).expect("dims match the data length")
}

/// Payload sizes of the size-indexed rows.
const SIZES: [(&str, usize); 3] = [("1k", 1 << 10), ("64k", 64 << 10), ("1m", 1 << 20)];

fn codec_rows(rows: &mut Rows, rng: &mut StdRng, cap: Duration) {
    for (label, bytes) in SIZES {
        let tensor = random_tensor(rng, &[bytes / 4]);
        let encoded = mvtee_codec::to_bytes(&tensor).expect("tensor encodes");
        let enc = sample(cap, || {
            black_box(mvtee_codec::to_bytes(black_box(&tensor)).expect("tensor encodes"));
        });
        let dec = sample(cap, || {
            black_box(mvtee_codec::from_bytes::<Tensor>(black_box(&encoded)).expect("decodes"));
        });
        let mb = bytes as f64 / 1e6;
        rows.put(
            &format!("codec.encode_mb_s.{label}"),
            mb / median(&enc),
            enc.len(),
            "Tensor of f32 via to_bytes",
        );
        rows.put(
            &format!("codec.decode_mb_s.{label}"),
            mb / median(&dec),
            dec.len(),
            "from_bytes::<Tensor>",
        );
    }
}

/// An echo peer for the round-trip rows: runs `serve` on its own thread
/// until the measuring side drops its end.
fn with_echo<R>(serve: impl FnOnce() + Send, measure: impl FnOnce() -> R) -> R {
    std::thread::scope(|scope| {
        scope.spawn(serve);
        measure()
    })
}

fn channel_rtt<T: FrameTransport + 'static>(a: T, b: T, payload: &[u8], cap: Duration) -> Vec<f64> {
    let secret = b"benchmark-rtt";
    let mut near = SecureChannel::new(a, &Handshake::from_pre_shared(secret, Role::Initiator), 7);
    let mut far = SecureChannel::new(b, &Handshake::from_pre_shared(secret, Role::Responder), 7);
    with_echo(
        move || {
            while let Ok(msg) = far.recv() {
                if far.send(&msg).is_err() {
                    break;
                }
            }
        },
        move || {
            let samples = sample(cap, || {
                near.send(black_box(payload)).expect("echo peer is alive");
                black_box(near.recv().expect("echo peer answers"));
            });
            drop(near);
            samples
        },
    )
}

fn crypto_rows(rows: &mut Rows, rng: &mut StdRng, cap: Duration) {
    let key: [u8; 32] = random_bytes(rng, 32).try_into().expect("32 bytes");
    let cipher = AesGcm::new_256(&key);
    let aad = [0u8; 12];
    for (i, (label, bytes)) in SIZES.into_iter().enumerate() {
        let plain = random_bytes(rng, bytes);
        let nonce = nonce_from_sequence(1, i as u64);
        let sealed = cipher.seal(&nonce, &plain, &aad);
        let seal = sample(cap, || {
            black_box(cipher.seal(&nonce, black_box(&plain), &aad));
        });
        let open = sample(cap, || {
            black_box(
                cipher
                    .open(&nonce, black_box(&sealed), &aad)
                    .expect("authentic"),
            );
        });
        let mb = bytes as f64 / 1e6;
        rows.put(
            &format!("crypto.gcm.seal_mb_s.{label}"),
            mb / median(&seal),
            seal.len(),
            "AesGcm::seal, AES-256",
        );
        rows.put(
            &format!("crypto.gcm.open_mb_s.{label}"),
            mb / median(&open),
            open.len(),
            "AesGcm::open",
        );
    }
    let new = sample(cap, || {
        black_box(AesGcm::new_256(black_box(&key)));
    });
    rows.put(
        "crypto.gcm.new_us",
        median(&new) * 1e6,
        new.len(),
        "key schedule + GHASH table per key",
    );

    let megabyte = random_bytes(rng, 1 << 20);
    let sha = sample(cap, || {
        black_box(sha256(black_box(&megabyte)));
    });
    rows.put(
        "crypto.sha256.mb_s",
        (1 << 20) as f64 / 1e6 / median(&sha),
        sha.len(),
        "1 MiB message",
    );

    let scalar: [u8; 32] = random_bytes(rng, 32).try_into().expect("32 bytes");
    let dh = sample(cap, || {
        black_box(x25519(black_box(&scalar), &BASE_POINT));
    });
    rows.put(
        "crypto.x25519.ops_s",
        1.0 / median(&dh),
        dh.len(),
        "scalar multiplication",
    );

    // A full ephemeral handshake, both roles, over an in-memory wire.
    let (a, b) = memory_pair();
    let hs = with_echo(
        move || while Handshake::run(Role::Responder, &b).is_ok() {},
        move || {
            let samples = sample(cap, || {
                black_box(Handshake::run(Role::Initiator, &a).expect("responder is alive"));
            });
            drop(a);
            samples
        },
    );
    rows.put(
        "crypto.handshake_us",
        median(&hs) * 1e6,
        hs.len(),
        "Handshake::run, initiator side, memory wire",
    );

    for (label, bytes) in &SIZES[..2] {
        let payload = random_bytes(rng, *bytes);
        let (a, b) = memory_pair();
        let mem = channel_rtt(a, b, &payload, cap);
        rows.put(
            &format!("crypto.channel.mem_rtt_us.{label}"),
            median(&mem) * 1e6,
            mem.len(),
            "SecureChannel echo over memory_pair",
        );
        let (client, server) = loopback_pair().expect("loopback TCP pair");
        let near = split(client, &[LANE_REQUEST]).remove(0);
        let far = split(server, &[LANE_REQUEST]).remove(0);
        let tcp = channel_rtt(near, far, &payload, cap);
        rows.put(
            &format!("crypto.mux_tcp.rtt_us.{label}"),
            median(&tcp) * 1e6,
            tcp.len(),
            "SecureChannel echo over a mux lane of loopback TCP",
        );

        let (mut near, mut far) = link_pair(true, b"benchmark-link", 9);
        let link = with_echo(
            move || {
                while let Ok(msg) = far.recv() {
                    if far.send(&msg).is_err() {
                        break;
                    }
                }
            },
            || {
                let samples = sample(cap, || {
                    near.send(black_box(&payload)).expect("echo peer is alive");
                    black_box(near.recv().expect("echo peer answers"));
                });
                drop(near);
                samples
            },
        );
        rows.put(
            &format!("core.link.mem_rtt_us.{label}"),
            median(&link) * 1e6,
            link.len(),
            "encrypted DataLink echo (link_pair)",
        );
    }
}

fn voting_and_tensor_rows(rows: &mut Rows, rng: &mut StdRng, cap: Duration) {
    let a = random_tensor(rng, &[(64 << 10) / 4]);
    let b = a.clone();
    for (label, metric) in [("exact", Metric::exact()), ("tolerance", Metric::relaxed())] {
        let s = sample_batched(cap, 8, || {
            black_box(metric.check(black_box(&a), black_box(&b)));
        });
        rows.put(
            &format!("tensor.compare_us.64k.{label}"),
            median(&s) * 1e6,
            s.len(),
            "Metric::check on equal 64 KB tensors",
        );
    }
    let outputs: Vec<VariantOutput> = (0..3).map(|_| VariantOutput::Ok(vec![a.clone()])).collect();
    let s = sample(cap, || {
        black_box(evaluate(
            black_box(&outputs),
            Metric::exact(),
            VotingPolicy::Unanimous,
        ));
    });
    rows.put(
        "core.voting.evaluate_us.3x64k",
        median(&s) * 1e6,
        s.len(),
        "3 agreeing variants, exact metric, unanimous",
    );
}

/// GEMM shapes `(label, m, n, k)`: a square one, the im2col product of a 3x3
/// convolution over 16 channels at 32x32, and a batch-1 classifier layer.
const GEMM_SHAPES: [(&str, usize, usize, usize); 3] = [
    ("sq96", 96, 96, 96),
    ("im2col-16x1024x144", 16, 1024, 144),
    ("fc-1x256x1000", 1, 1000, 256),
];

/// Convolution shapes `(label, channels, pixels per side, kernel side)`.
const CONV_SHAPES: [(&str, usize, usize, usize); 2] =
    [("3x3-16c-32px", 16, 32, 3), ("1x1-64c-16px", 64, 16, 1)];

fn kernel_rows(rows: &mut Rows, rng: &mut StdRng, cap: Duration) {
    let blocked = BlockedBlas::default();
    for (label, m, n, k) in GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        let flop = 2.0 * (m * n * k) as f64;
        let s = sample(cap, || {
            blocked.gemm(m, n, k, black_box(&a), black_box(&b), &mut c);
            black_box(&c);
        });
        rows.put(
            &format!("runtime.gemm.gflops.blocked.{label}"),
            flop / median(&s) / 1e9,
            s.len(),
            "BlockedBlas::gemm",
        );
        // The microkernel takes the right-hand side transposed; `b` read as
        // an [n, k] matrix is as good a random operand as any.
        let s = sample(cap, || {
            simd::gemm_bt(m, n, k, black_box(&a), black_box(&b), &mut c);
            black_box(&c);
        });
        rows.put(
            &format!("runtime.gemm.gflops.simd.{label}"),
            flop / median(&s) / 1e9,
            s.len(),
            "simd::gemm_bt",
        );
    }
    for (label, ch, px, ks) in CONV_SHAPES {
        let attrs = ConvAttrs {
            kernel: (ks, ks),
            stride: (1, 1),
            padding: (ks / 2, ks / 2),
            groups: 1,
        };
        let x = random_tensor(rng, &[1, ch, px, px]);
        let x_nhwc = x.to_nhwc().expect("rank-4 input");
        let w = random_tensor(rng, &[ch, ch, ks, ks]);
        let flop = 2.0 * (ch * ch * ks * ks * px * px) as f64;
        let s = sample(cap, || {
            black_box(
                conv2d_im2col(black_box(&x), &w, None, &attrs, &blocked).expect("shapes agree"),
            );
        });
        rows.put(
            &format!("runtime.conv.gflops.im2col.{label}"),
            flop / median(&s) / 1e9,
            s.len(),
            "conv2d_im2col, blocked BLAS",
        );
        let s = sample(cap, || {
            black_box(
                conv2d_nhwc_direct(black_box(&x_nhwc), &w, None, &attrs).expect("shapes agree"),
            );
        });
        rows.put(
            &format!("runtime.conv.gflops.nhwc-direct.{label}"),
            flop / median(&s) / 1e9,
            s.len(),
            "conv2d_nhwc_direct",
        );
    }
}

fn engine_rows(rows: &mut Rows, inputs: &Inputs, cap: Duration) {
    let graph = &inputs.model.graph;
    let x = std::slice::from_ref(&inputs.inputs[0]);
    let mut ort_ms = 0.0;
    for kind in [
        EngineKind::Reference,
        EngineKind::OrtLike,
        EngineKind::TvmLike,
    ] {
        let prepared = Engine::new(EngineConfig::of_kind(kind))
            .prepare(graph)
            .expect("zoo model prepares");
        let s = sample(cap, || {
            black_box(prepared.run(black_box(x)).expect("zoo model runs"));
        });
        if kind == EngineKind::OrtLike {
            ort_ms = median(&s) * 1e3;
        }
        rows.put(
            &format!("runtime.engine.infer_ms.{kind}"),
            median(&s) * 1e3,
            s.len(),
            "whole model, one thread",
        );
    }
    let threaded = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike).with_threads(2))
        .prepare(graph)
        .expect("zoo model prepares");
    let s = sample(cap, || {
        black_box(threaded.run(black_box(x)).expect("zoo model runs"));
    });
    rows.put(
        "runtime.threads.speedup_x.t2",
        ort_ms / (median(&s) * 1e3),
        s.len(),
        "ort-like infer time at 1 thread over 2 threads",
    );

    let engine = Engine::new(EngineConfig::of_kind(EngineKind::OrtLike));
    let s = sample(cap, || {
        black_box(
            engine
                .prepare(black_box(graph))
                .expect("zoo model prepares"),
        );
    });
    rows.put(
        "runtime.engine.prepare_ms",
        median(&s) * 1e3,
        s.len(),
        "Engine::prepare, ort-like, no cache",
    );
    let cache = mvtee_runtime::session_cache();
    cache.prepare(&engine, graph).expect("zoo model prepares");
    let s = sample(cap, || {
        black_box(cache.prepare(&engine, black_box(graph)).expect("cached"));
    });
    rows.put(
        "runtime.cache.prepare_warm_ms",
        median(&s) * 1e3,
        s.len(),
        "EngineCache::prepare on a hit",
    );
}

fn fresh_registry() -> Arc<Mutex<Registry>> {
    Arc::new(Mutex::new(Registry::new(
        [0x17; 32],
        RegistryConfig::default(),
    )))
}

fn registry_rows(rows: &mut Rows, inputs: &Inputs, cap: Duration) {
    let mb = inputs.blob_bytes as f64 / 1e6;
    // Every sample uploads into an empty registry, so nothing deduplicates.
    let mut mem = Vec::new();
    sample(cap, || {
        mem.push(system::upload(&fresh_registry(), &inputs.model).expect("upload succeeds"))
    });
    rows.put(
        "registry.upload_mb_s.mem",
        mb / median(&mem),
        mem.len(),
        "upload_model over a memory mux lane",
    );
    let mut tcp = Vec::new();
    sample(cap, || {
        let (client, server) = loopback_pair().expect("loopback TCP pair");
        let upload = system::upload_over(&fresh_registry(), client, server, &inputs.model);
        tcp.push(upload.expect("upload succeeds"));
    });
    rows.put(
        "registry.upload_mb_s.tcp",
        mb / median(&tcp),
        tcp.len(),
        "upload_model over a mux lane of loopback TCP",
    );
    let chunks = prepare_upload(&inputs.model, MODEL_KEY, DEFAULT_CHUNK_LEN)
        .expect("prepares")
        .chunks
        .len();
    rows.put(
        "registry.upload.roundtrips_per_mb",
        (chunks + 2) as f64 / mb,
        1,
        "begin + one lock-step ack per chunk + finalize; a count, not a timing",
    );

    let (blob, _, digest) = encode_model(&inputs.model).expect("zoo model encodes");
    let mut store = SealedStore::new([0x29; 32], 4);
    let mut next = 0u64;
    let put = sample(cap, || {
        next += 1;
        let meta = BundleMeta {
            digest,
            len: blob.len() as u64,
            model_name: MODEL_KEY.into(),
        };
        black_box(
            store
                .put(next, meta, black_box(&blob))
                .expect("distinct fingerprints"),
        );
    });
    rows.put(
        "registry.store.put_mb_s",
        mb / median(&put),
        put.len(),
        "SealedStore::put of the model blob",
    );
    let get = sample(cap, || {
        black_box(store.get(black_box(next)).expect("just stored"));
    });
    rows.put(
        "registry.store.get_mb_s",
        mb / median(&get),
        get.len(),
        "SealedStore::get (unseal)",
    );

    let registry = fresh_registry();
    system::upload(&registry, &inputs.model).expect("upload succeeds");
    let s = sample(cap, || {
        let mut reg = registry.lock().expect("registry lock");
        black_box(reg.checkout_named(black_box(MODEL_KEY)).expect("stored"));
    });
    rows.put(
        "registry.checkout_ms",
        median(&s) * 1e3,
        s.len(),
        "Registry::checkout_named: unseal + digest + fingerprint",
    );
}

fn offline_rows(rows: &mut Rows, w: &Workload, inputs: &Inputs, cap: Duration) {
    let platform = Platform::new();
    let s = sample_batched(cap, 8, || {
        let report = platform.sign_report(TeeKind::Sgx, [1; 32], [2; 32], black_box(&[3u8; 64]));
        black_box(platform.verify_report(black_box(&report)));
    });
    rows.put(
        "tee.attest_verify_us",
        median(&s) * 1e6,
        s.len(),
        "Platform::sign_report + verify_report",
    );

    let graph = &inputs.model.graph;
    let s = sample(cap, || {
        black_box(
            select_partition_set(black_box(graph), w.partitions, PARTITION_SEED)
                .expect("partitions"),
        );
    });
    rows.put(
        "partition.plan_ms",
        median(&s) * 1e3,
        s.len(),
        "select_partition_set, best of 4",
    );

    let cfg = w.mvx_config();
    let set = select_partition_set(graph, w.partitions, PARTITION_SEED).expect("partitions");
    let subgraphs = set.extract_subgraphs(graph).expect("subgraphs extract");
    let last = w.partitions - 1;
    let specs = mvtee::build_specs(last, &cfg.claims[last], VARIANT_SEED, &HashMap::new());
    let generator = VariantGenerator::new(VARIANT_SEED);
    let spec = specs.last().expect("a claim has at least one variant");
    let s = sample(cap, || {
        black_box(
            generator
                .materialize(black_box(&subgraphs[last]), last, spec)
                .expect("materializes"),
        );
    });
    rows.put(
        "diversify.materialize_ms",
        median(&s) * 1e3,
        s.len(),
        "last variant of the last partition",
    );

    let s = sample(cap, || {
        black_box(
            OfflinePhase::run(black_box(graph), &cfg, VARIANT_SEED, &HashMap::new())
                .expect("offline phase"),
        );
    });
    rows.put(
        "core.offline_ms",
        median(&s) * 1e3,
        s.len(),
        "OfflinePhase::run: partition, generate, seal",
    );
}

/// Builds (and shuts down) one deployment of `w`; seconds `build` took.
fn timed_build(w: &Workload, inputs: &Inputs, out_of_process: &[(usize, usize)]) -> f64 {
    let mut builder = Deployment::builder(inputs.model.clone())
        .config(w.mvx_config())
        .partition_seed(PARTITION_SEED)
        .variant_seed(VARIANT_SEED)
        .worker_binary(&inputs.worker_binary);
    for &(p, v) in out_of_process {
        builder = builder.out_of_process(p, v);
    }
    let t = Instant::now();
    let mut dep = span::within("core.build", || builder.build()).expect("deployment builds");
    let s = t.elapsed().as_secs_f64();
    dep.shutdown();
    s
}

/// Build times of repeated [`timed_build`]s; tear-down is not counted.
fn build_samples(
    w: &Workload,
    inputs: &Inputs,
    placed: &[(usize, usize)],
    cap: Duration,
) -> Vec<f64> {
    let mut builds = Vec::new();
    sample(cap, || builds.push(timed_build(w, inputs, placed)));
    builds
}

fn build_rows(rows: &mut Rows, w: &Workload, inputs: &Inputs, cap: Duration) {
    let build = build_samples(w, inputs, &w.out_of_process(), cap);
    rows.put(
        "core.build_ms",
        median(&build) * 1e3,
        build.len(),
        "DeploymentBuilder::build of one replica, this workload's placements",
    );
    // The extra cost of hosting one variant in a worker process: the same
    // deployment built with and without that one placement.
    let inproc = build_samples(w, inputs, &[], cap);
    let outproc = build_samples(w, inputs, &[(w.partitions - 1, 0)], cap);
    rows.put(
        "core.worker.spawn_ms",
        (median(&outproc) - median(&inproc)) * 1e3,
        outproc.len().min(inproc.len()),
        "build with one variant out of process minus the all-in-process build",
    );
}

/// A fixed piece of arithmetic timed across the run: how fast and how steady
/// the host was while the other rows were taken.
pub fn host_probe() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for _ in 0..400_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc += (x >> 40) as f64 * 1e-9;
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

pub fn probe_rows(rows: &mut Rows, probes: &[f64]) {
    rows.put(
        "host.probe_ms",
        median(probes),
        probes.len(),
        "fixed arithmetic loop, sampled across the run",
    );
    let spread = (quantile(probes, 0.9) - quantile(probes, 0.1)) / median(probes) * 100.0;
    rows.put(
        "host.probe_spread_pct",
        spread,
        probes.len(),
        "p90 minus p10 of the probe, as a share of its median",
    );
}

/// `telemetry.span_record_ns`: one repo-telemetry span opened and recorded.
fn telemetry_rows(rows: &mut Rows, cap: Duration) {
    let recorder = mvtee_telemetry::trace::recorder();
    let was = recorder.is_enabled();
    recorder.set_enabled(true);
    let ctx = mvtee_telemetry::trace::TraceCtx::for_request(1);
    let s = sample_batched(cap, 64, || {
        drop(black_box(recorder.span(ctx, "bench.probe", "bench")));
    });
    recorder.set_enabled(was);
    rows.put(
        "telemetry.span_record_ns",
        median(&s) * 1e9,
        s.len(),
        "mvtee_telemetry recorder span, enabled",
    );
}

/// All isolated-layer rows, with a host probe after each group.
pub fn all(rows: &mut Rows, w: &Workload, inputs: &Inputs, cap: Duration, probes: &mut Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x6d1c_c0de);
    codec_rows(rows, &mut rng, cap);
    probes.push(host_probe());
    crypto_rows(rows, &mut rng, cap);
    probes.push(host_probe());
    voting_and_tensor_rows(rows, &mut rng, cap);
    kernel_rows(rows, &mut rng, cap);
    probes.push(host_probe());
    engine_rows(rows, inputs, cap);
    probes.push(host_probe());
    registry_rows(rows, inputs, cap);
    probes.push(host_probe());
    offline_rows(rows, w, inputs, cap);
    build_rows(rows, w, inputs, cap);
    probes.push(host_probe());
    telemetry_rows(rows, cap);
}
