//! The traced run (`--trace 1`): the per-layer rows. The same system is
//! brought up as in an untraced run, then measured three ways — the onion
//! (the same inputs through engine, deployment and frontend), the walk (one
//! request replayed step by step over its real boundary tensors) and short
//! load windows with this file's spans and the repository's trace recorder
//! switched on and off — followed by the isolated rows of `micro.rs`.

use crate::chain::{Chain, StageTrace};
use crate::load::Tally;
use crate::micro::{self, host_probe, sample, Rows};
use crate::run::{fail_before_measuring, result_line, Live, RunArgs};
use crate::spec::{Workload, PARTITION_SEED, PER_LAYER, VARIANT_SEED};
use crate::stats::{median, quantile, tail};
use crate::system::{tenant, Inputs, MODEL_KEY};
use crate::{alloc, procstat, span};
use mvtee::config::VotingPolicy;
use mvtee::link::DataLink;
use mvtee::messages::{StageRequest, StageResponse};
use mvtee::voting::{evaluate, VariantOutput};
use mvtee::Deployment;
use mvtee_crypto::channel::memory_pair;
use mvtee_crypto::gcm::{nonce_from_sequence, AesGcm};
use mvtee_crypto::mux::{split, LANE_REQUEST, LANE_RESPONSE};
use mvtee_crypto::tcp::loopback_pair;
use mvtee_telemetry::Snapshot;
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The step rows of the walk, in path order.
const WALK_STEPS: [&str; 7] = [
    "walk.encode",
    "walk.seal",
    "walk.transport",
    "walk.open",
    "walk.decode",
    "walk.infer",
    "walk.vote",
];

/// One partition as the walk replays it.
struct WalkStage {
    /// The request's real boundary tensors here.
    inputs: Vec<Tensor>,
    /// Panel width.
    variants: usize,
    /// Index of the slowest variant: the lane charged to the blocking path.
    lane: usize,
    /// Every variant's real outputs, for the vote.
    outputs: Vec<Vec<Tensor>>,
    metric: Metric,
    request_link: (DataLink, DataLink),
    response_link: (DataLink, DataLink),
}

/// A pair of plaintext links over the transport the partition's panel uses:
/// an in-memory wire, or two lanes of a multiplexed loopback TCP connection
/// for a panel of worker processes. The walk seals by hand, so the links
/// carry the sealed bytes as they are.
fn transport_pairs(tcp: bool) -> ((DataLink, DataLink), (DataLink, DataLink)) {
    if tcp {
        let (monitor, worker) = loopback_pair().expect("loopback TCP pair");
        let mut m = split(monitor, &[LANE_REQUEST, LANE_RESPONSE]);
        let mut w = split(worker, &[LANE_REQUEST, LANE_RESPONSE]);
        let (m_resp, m_req) = (m.remove(1), m.remove(0));
        let (w_resp, w_req) = (w.remove(1), w.remove(0));
        (
            (DataLink::plain(m_req), DataLink::plain(w_req)),
            (DataLink::plain(w_resp), DataLink::plain(m_resp)),
        )
    } else {
        let (a, b) = memory_pair();
        let (c, d) = memory_pair();
        (
            (DataLink::plain(a), DataLink::plain(b)),
            (DataLink::plain(c), DataLink::plain(d)),
        )
    }
}

fn aad(channel: u32, seq: u64) -> [u8; 12] {
    let mut aad = [0u8; 12];
    aad[..4].copy_from_slice(&channel.to_be_bytes());
    aad[4..].copy_from_slice(&seq.to_be_bytes());
    aad
}

/// Replays one request along its blocking path. Per partition the
/// coordinator encodes the request once and seals and sends it to each of
/// the `k` variants in turn (one thread does this, so all `k` are charged);
/// the variants work in parallel, so only the slowest one's
/// open → decode → infer → encode → seal → send and the receiver thread's
/// open → decode are charged; then the vote.
fn walk_once(chain: &Chain, stages: &mut [WalkStage], cipher: &AesGcm, request: u64) {
    span::set_request(request);
    let _root = span::span("walk.request");
    for (p, stage) in stages.iter_mut().enumerate() {
        let _partition = span::span("walk.partition");
        let channel = p as u32;
        let message = StageRequest::Input {
            batch: request,
            trace: (0, 0),
            tensors: stage.inputs.clone(),
        };
        let frame = span::within("walk.encode", || {
            mvtee_codec::to_bytes(&message).expect("request encodes")
        });
        let nonce = nonce_from_sequence(channel, request);
        let mut arrived = Vec::new();
        for _ in 0..stage.variants {
            let sealed = span::within("walk.seal", || {
                cipher.seal(&nonce, &frame, &aad(channel, request))
            });
            arrived = span::within("walk.transport", || {
                stage.request_link.0.send(&sealed).expect("link is up");
                stage.request_link.1.recv().expect("frame arrives")
            });
        }
        // The slowest variant's side.
        let opened = span::within("walk.open", || {
            cipher
                .open(&nonce, &arrived, &aad(channel, request))
                .expect("authentic")
        });
        let decoded: StageRequest = span::within("walk.decode", || {
            mvtee_codec::from_bytes(&opened).expect("request decodes")
        });
        let StageRequest::Input { tensors, .. } = decoded else {
            unreachable!("an Input was sent")
        };
        let outputs = span::within("walk.infer", || {
            chain.stages[p].variants[stage.lane]
                .run(&tensors)
                .expect("partition runs")
        });
        let reply = StageResponse::Output {
            batch: request,
            tensors: outputs,
        };
        let frame = span::within("walk.encode", || {
            mvtee_codec::to_bytes(&reply).expect("response encodes")
        });
        let sealed = span::within("walk.seal", || {
            cipher.seal(&nonce, &frame, &aad(channel, request))
        });
        let arrived = span::within("walk.transport", || {
            stage.response_link.0.send(&sealed).expect("link is up");
            stage.response_link.1.recv().expect("frame arrives")
        });
        // The coordinator's receiver thread for that variant.
        let opened = span::within("walk.open", || {
            cipher
                .open(&nonce, &arrived, &aad(channel, request))
                .expect("authentic")
        });
        let decoded: StageResponse = span::within("walk.decode", || {
            mvtee_codec::from_bytes(&opened).expect("response decodes")
        });
        black_box(&decoded);
        if stage.variants > 1 {
            let votes: Vec<VariantOutput> = stage
                .outputs
                .iter()
                .map(|o| VariantOutput::Ok(o.clone()))
                .collect();
            let verdict = span::within("walk.vote", || {
                evaluate(&votes, stage.metric, VotingPolicy::Unanimous)
            });
            assert!(verdict.is_agreement(), "the walk's own panel must agree");
        }
    }
}

/// Prepares the walk of input 0 and replays it; returns the step rows of the
/// median replay (so the rows sum to the total) in µs, with the sample count.
fn walk(
    w: &Workload,
    inputs: &Inputs,
    chain: &Chain,
    cap: Duration,
) -> (Vec<(&'static str, f64)>, f64, usize) {
    let traces: Vec<StageTrace> = chain.trace(&inputs.inputs[0]).expect("chain runs");
    let cfg = w.mvx_config();
    let remote: Vec<usize> = w.out_of_process().iter().map(|(p, _)| *p).collect();
    let mut stages: Vec<WalkStage> = traces
        .into_iter()
        .enumerate()
        .map(|(p, trace)| {
            let variants = &chain.stages[p].variants;
            // Every variant's real outputs and speed on these inputs.
            let mut outputs = Vec::new();
            let mut slowest = (0, 0.0);
            for (v, model) in variants.iter().enumerate() {
                outputs.push(model.run(&trace.inputs).expect("variant runs"));
                let t = median(&sample(Duration::from_millis(5), || {
                    black_box(model.run(&trace.inputs).expect("variant runs"));
                }));
                if t > slowest.1 {
                    slowest = (v, t);
                }
            }
            let (request_link, response_link) = transport_pairs(remote.contains(&p));
            WalkStage {
                inputs: trace.inputs,
                variants: variants.len(),
                lane: slowest.0,
                outputs,
                metric: cfg.claims[p].metric,
                request_link,
                response_link,
            }
        })
        .collect();
    let cipher = AesGcm::new_256(&[0x5a; 32]);
    // Request ids far from the load generators' so the spans are easy to find.
    const FIRST: u64 = 1 << 40;
    let mut request = FIRST;
    let totals = sample(cap, || {
        walk_once(chain, &mut stages, &cipher, request);
        request += 1;
    });
    span::set_request(0);

    // The median replay by total step time; its own rows are reported.
    let spans = span::snapshot();
    let mut per_replay: Vec<(u64, [f64; 7])> = (FIRST..request).map(|r| (r, [0.0; 7])).collect();
    for s in spans.iter().filter(|s| s.request >= FIRST) {
        if let Some(step) = WALK_STEPS.iter().position(|n| *n == s.name) {
            per_replay[(s.request - FIRST) as usize].1[step] +=
                (s.end_ns - s.start_ns) as f64 / 1e3;
        }
    }
    per_replay.sort_by(|a, b| a.1.iter().sum::<f64>().total_cmp(&b.1.iter().sum::<f64>()));
    let (_, steps) = per_replay[per_replay.len() / 2];
    let rows = WALK_STEPS.iter().copied().zip(steps).collect();
    (rows, steps.iter().sum(), totals.len())
}

/// The onion: the same inputs through the bare engines, through one
/// `Deployment`, and through the live frontend one request at a time.
fn onion(rows: &mut Rows, w: &Workload, live: &mut Live, reference: &Chain, cap: Duration) {
    let Live {
        inputs,
        system,
        checker,
        phases,
        problems,
        ..
    } = live;
    let xs = &inputs.inputs;
    let mut i = 0;
    let engine = sample(cap, || {
        black_box(
            span::within("onion.engine", || reference.run(&xs[i % xs.len()])).expect("chain runs"),
        );
        i += 1;
    });

    let mut builder = Deployment::builder(inputs.model.clone())
        .config(w.mvx_config())
        .partition_seed(PARTITION_SEED)
        .variant_seed(VARIANT_SEED)
        .worker_binary(&inputs.worker_binary);
    for (p, v) in w.out_of_process() {
        builder = builder.out_of_process(p, v);
    }
    let mut dep = builder.build().expect("deployment builds");
    let mut ok = true;
    let deployment = sample(cap, || {
        let out = span::within("onion.deployment", || dep.infer(&xs[i % xs.len()]))
            .expect("infer succeeds");
        ok &= checker.matches(i % xs.len(), &out);
        i += 1;
    });
    dep.shutdown();
    if !ok {
        problems.push("onion: Deployment::infer disagreed with the bare-engine reference".into());
    }

    let mut tally = Tally::default();
    let serve = sample(cap, || {
        let index = i % xs.len();
        tally.attempted += 1;
        let resp = span::within("onion.serve", || {
            system
                .handle
                .submit(tenant(i), MODEL_KEY, xs[index].clone())
                .map_err(|shed| format!("{shed:?}"))
                .and_then(|ticket| ticket.wait())
        });
        tally.record(checker, index, &resp);
        i += 1;
    });
    phases.add("onion", &tally);

    let (e, d, s) = (
        median(&engine) * 1e3,
        median(&deployment) * 1e3,
        median(&serve) * 1e3,
    );
    rows.put(
        "onion.engine_ms",
        e,
        engine.len(),
        "bare engines, one per partition, chained",
    );
    rows.put(
        "onion.deployment_ms",
        d,
        deployment.len(),
        "Deployment::infer, same inputs",
    );
    rows.put(
        "onion.serve_ms",
        s,
        serve.len(),
        "ServeHandle::submit -> Ticket::wait, one at a time",
    );
    rows.put(
        "core.overhead_ms",
        d - e,
        deployment.len(),
        "onion.deployment_ms - onion.engine_ms",
    );
    rows.put(
        "core.overhead_x",
        d / e,
        deployment.len(),
        "onion.deployment_ms / onion.engine_ms",
    );
    rows.put(
        "serve.overhead_ms",
        s - d,
        serve.len(),
        "onion.serve_ms - onion.deployment_ms",
    );
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn hist_count(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms.get(name).map_or(0, |h| h.count) as f64
}

/// Repository telemetry counters over one window, per request.
struct WindowCounters {
    before: Snapshot,
    alloc_before: (u64, u64),
}

impl WindowCounters {
    fn start() -> Self {
        WindowCounters {
            before: mvtee_telemetry::snapshot(),
            alloc_before: alloc::totals(),
        }
    }

    /// `(mean batch size, sealed bytes, sealed messages, mux bytes, allocation
    /// calls, allocated bytes)` — all but the first per completed request.
    fn finish(self, completed: u64) -> [f64; 6] {
        let after = mvtee_telemetry::snapshot();
        let delta = |name: &str| counter(&after, name) - counter(&self.before, name);
        let per_request = |v: f64| v / completed.max(1) as f64;
        let (calls, bytes) = alloc::totals();
        let msgs = hist_count(&after, "crypto.channel.seal_ns")
            - hist_count(&self.before, "crypto.channel.seal_ns");
        [
            delta("serve.pool.dispatched_total") / delta("serve.batches_total").max(1.0),
            per_request(delta("crypto.channel.bytes_out")),
            per_request(msgs),
            per_request(delta("crypto.mux.bytes_out") + delta("crypto.mux.bytes_in")),
            per_request((calls - self.alloc_before.0) as f64),
            per_request((bytes - self.alloc_before.1) as f64),
        ]
    }
}

/// Switches this file's spans and the repository's trace recorder together.
fn set_tracing(on: bool) {
    span::set_enabled(on);
    mvtee_telemetry::trace::recorder().set_enabled(on);
}

/// The load part of a traced run: one closed and one open window with this
/// file's spans on (the repository recorder off, so the per-request counts
/// are the system's own), then closed windows alternating both on and off.
fn load_rows(rows: &mut Rows, w: &Workload, live: &mut Live, seconds: f64, probes: &mut Vec<f64>) {
    let window = Duration::from_secs_f64((seconds / 15.0).max(0.25));
    let short = Duration::from_secs_f64((seconds / 24.0).max(0.25));
    let warm = live.closed(w, short, 0);
    live.phases.add("warmup", &warm.tally);
    probes.push(host_probe());

    let counters = WindowCounters::start();
    let closed = live.closed(w, window, 1);
    let [batch_closed, bytes, msgs, mux_bytes, alloc_calls, alloc_bytes] =
        counters.finish(closed.tally.succeeded);
    live.phases.add("closed", &closed.tally);
    probes.push(host_probe());

    let counters = WindowCounters::start();
    let cpu_before = procstat::cpu_seconds(&live.system.worker_pids);
    let open = live.open(w, window, 1);
    let cpu_s = procstat::cpu_seconds(&live.system.worker_pids) - cpu_before;
    let [batch_open, ..] = counters.finish(open.tally.succeeded);
    live.phases.add("open", &open.tally);
    probes.push(host_probe());

    // Tracing overhead: the closed-loop rate with this file's spans and the
    // repository recorder on, against the same windows with both off.
    let mut on: Vec<f64> = Vec::new();
    let mut off: Vec<f64> = Vec::new();
    for pair in 0..3u64 {
        set_tracing(false);
        let quiet = live.closed(w, short, 10 + pair);
        set_tracing(true);
        let traced = live.closed(w, short, 20 + pair);
        live.phases.add("closed", &quiet.tally);
        live.phases.add("closed", &traced.tally);
        off.push(quiet.throughput_rps());
        on.push(traced.throughput_rps());
        probes.push(host_probe());
    }
    mvtee_telemetry::trace::recorder().set_enabled(false);
    rows.put(
        "telemetry.trace_overhead_pct",
        (median(&off) - median(&on)) / median(&off) * 100.0,
        on.len() + off.len(),
        &format!(
            "closed-loop rate, tracing off {:.1} vs on {:.1} 1/s",
            median(&off),
            median(&on)
        ),
    );

    let n_closed = closed.tally.succeeded as usize;
    rows.put(
        "serve.batch_size.mean.closed",
        batch_closed,
        n_closed,
        "requests dispatched / batches, closed window",
    );
    rows.put(
        "serve.batch_size.mean.open",
        batch_open,
        open.tally.succeeded as usize,
        "requests dispatched / batches, open window",
    );
    rows.put(
        "crypto.channel.bytes_per_request",
        bytes,
        n_closed,
        "payload bytes sealed in this process (worker processes seal their own)",
    );
    rows.put(
        "crypto.channel.msgs_per_request",
        msgs,
        n_closed,
        "SecureChannel sends in this process",
    );
    rows.put(
        "crypto.mux.bytes_per_request",
        mux_bytes,
        n_closed,
        "bytes on this process's mux lanes, both directions",
    );
    rows.put(
        "alloc.calls_per_request",
        alloc_calls,
        n_closed,
        "allocator calls, closed window, whole process",
    );
    rows.put(
        "alloc.bytes_per_request",
        alloc_bytes,
        n_closed,
        "bytes requested from the allocator, closed window",
    );

    let attempted = closed.tally.attempted + open.tally.attempted;
    rows.put(
        "serve.shed_share",
        (closed.tally.shed + open.tally.shed) as f64 / attempted.max(1) as f64,
        attempted as usize,
        "requests refused at admission",
    );
    let (label, tail_ms) = tail(&open.latencies_ms);
    rows.put(
        "load.throughput_rps.all",
        closed.throughput_rps(),
        n_closed,
        "traced closed window",
    );
    rows.put(
        "load.latency_p50_ms.all",
        median(&open.latencies_ms),
        open.latencies_ms.len(),
        "traced open window, from due time",
    );
    rows.put(
        "load.latency_p95_ms",
        tail_ms,
        open.latencies_ms.len(),
        &format!("reported percentile: {label}"),
    );
    rows.put(
        "load.closed_latency_p50_ms",
        median(&closed.latencies_ms),
        closed.latencies_ms.len(),
        "from admission",
    );
    let late = quantile(&open.lateness_ms, 0.95);
    let note = if late > 1.0 {
        "generator lateness ABOVE the 1 ms limit"
    } else {
        "generator lateness"
    };
    rows.put("load.open_late_p95_ms", late, open.lateness_ms.len(), note);
    rows.put(
        "load.cpu_ms_per_request",
        cpu_s * 1e3 / open.tally.succeeded.max(1) as f64,
        open.tally.succeeded as usize,
        "process + worker CPU over the traced open window / requests completed",
    );
}

/// Rows read from the repository's own telemetry at the end of the run.
fn telemetry_rows(rows: &mut Rows, w: &Workload) {
    let snap = mvtee_telemetry::snapshot();
    let hist = |name: &str| snap.histograms.get(name);
    if let Some(h) = hist("serve.queue_wait_ns") {
        rows.put(
            "serve.queue_wait_ms.p50",
            h.p50 as f64 / 1e6,
            h.count as usize,
            "serve.queue_wait_ns, whole run",
        );
    }
    let checkpoints: Vec<f64> = (0..w.partitions)
        .filter_map(|p| hist(&format!("core.pipeline.p{p}.checkpoint_latency_ns")))
        .map(|h| h.p50 as f64 / 1e6)
        .collect();
    rows.put(
        "core.checkpoint_ms.p50",
        checkpoints.iter().sum::<f64>() / checkpoints.len().max(1) as f64,
        checkpoints.len(),
        "mean over partitions of the checkpoint latency p50 (dispatch through selection)",
    );
    let (fast, slow) = (
        counter(&snap, "core.voting.fast_path"),
        counter(&snap, "core.voting.slow_path"),
    );
    rows.put(
        "core.voting.fast_path_share",
        fast / (fast + slow).max(1.0),
        (fast + slow) as usize,
        "checkpoints that skipped the vote",
    );
    if let Some(h) = hist("core.deployment.bootstrap_ns") {
        rows.put(
            "core.bootstrap_ms.p50",
            h.p50 as f64 / 1e6,
            h.count as usize,
            "attested bootstrap of one variant",
        );
    }
}

/// Self time per span name, printed; and `serve.submit_us` from it.
fn span_rows(rows: &mut Rows) {
    let spans = span::snapshot();
    println!("spans: {} recorded; self time by name:", spans.len());
    for (name, (count, self_ns)) in span::self_time_by_name(&spans) {
        println!(
            "  span {name}: n={count} self={:.3} ms mean={:.2} us",
            self_ns as f64 / 1e6,
            self_ns as f64 / count as f64 / 1e3
        );
        if name == "serve.submit" {
            rows.put(
                "serve.submit_us",
                self_ns as f64 / count as f64 / 1e3,
                count as usize,
                "mean self time of ServeHandle::submit",
            );
        }
    }
}

/// A traced run: every per-layer row. Returns the process exit code.
pub fn run_traced(args: &RunArgs) -> i32 {
    let run_start = Instant::now();
    let w = args.workload;
    alloc::set_enabled(true);
    span::set_enabled(true);
    let mut probes = vec![host_probe()];
    let mut live = match Live::start(args) {
        Ok(live) => live,
        Err(e) => return fail_before_measuring(&e, &PER_LAYER),
    };
    let cap = Duration::from_secs_f64((args.seconds / 100.0).clamp(0.02, 0.3));
    println!(
        "traced run {}: seed={} seconds={} nproc={} micro cap={:.0} ms",
        w.name,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        cap.as_secs_f64() * 1e3
    );
    let mut rows = Rows::default();

    load_rows(&mut rows, w, &mut live, args.seconds, &mut probes);

    let reference =
        Chain::reference(&live.inputs.model, &live.system.partition_set).expect("reference chain");
    onion(&mut rows, w, &mut live, &reference, cap * 2);
    probes.push(host_probe());

    let chain = Chain::build(
        &live.inputs.model,
        &live.system.partition_set,
        &live.system.specs,
        VARIANT_SEED,
    )
    .expect("variant chain");
    let (steps, total_us, n) = walk(w, &live.inputs, &chain, cap * 2);
    for (name, us) in steps {
        rows.put(&format!("{name}_us"), us, n, "median replay, blocking path");
    }
    rows.put("walk.total_us", total_us, n, "sum of the seven step rows");
    let deployment_us = rows.get("onion.deployment_ms").unwrap_or(0.0) * 1e3;
    rows.put(
        "walk.unattributed_share",
        1.0 - total_us / deployment_us,
        n,
        "1 - walk.total_us / onion.deployment_ms",
    );
    probes.push(host_probe());

    telemetry_rows(&mut rows, w);
    span_rows(&mut rows);
    // The system is torn down before the isolated rows so that nothing else
    // runs beside them.
    let (inputs, phases, problems, _) = live.finish();
    span::set_enabled(false);
    micro::all(&mut rows, w, &inputs, cap, &mut probes);
    micro::probe_rows(&mut rows, &probes);
    rows.put(
        "alloc.live_peak_mb",
        alloc::live_peak_mb(),
        1,
        "highest live heap while counting, whole run",
    );

    let trace_path = args.out_dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, span::chrome_trace(&span::snapshot()).pretty()));
    match &written {
        Ok(()) => println!("trace written to {}", trace_path.display()),
        Err(e) => println!("PROBLEM: cannot write {}: {e}", trace_path.display()),
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    let mut missing = Vec::new();
    for m in &PER_LAYER {
        match rows.0.iter().find(|(name, ..)| name == m.name) {
            Some((_, value, n, note)) => {
                println!("layer {} = {value:.4} {}  (n={n}; {note})", m.name, m.unit);
                metrics.push((m.name, *value, m.unit));
            }
            None => missing.push(m.name),
        }
    }
    phases.print();
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    if !missing.is_empty() {
        println!("PROBLEM: rows not measured: {}", missing.join(", "));
    }
    let tally = phases.total();
    let correct =
        problems.is_empty() && missing.is_empty() && written.is_ok() && tally.not_ok() == 0;
    println!("wall {:.2} s", run_start.elapsed().as_secs_f64());
    println!("{}", result_line(correct, &tally, &metrics));
    0
}
