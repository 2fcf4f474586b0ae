//! Stage coordinators: the monitor's data plane.
//!
//! Variant TEEs are organised into a pipeline mirroring the partition
//! order. One coordinator thread per partition (all "inside" the monitor
//! TEE — the cross-process monitor is multithreaded) dispatches batches to
//! that partition's variant TEEs, gathers their encrypted outputs,
//! evaluates checkpoints (slow path) or falls through (fast path), and
//! sends the selected result straight into the next stage's job queue (the
//! last stage into the results channel). Sequential and pipelined
//! execution use the same plumbing: sequential submits one batch and
//! waits; pipelined streams batches so stages overlap
//! (compute-communication overlapping, §4.1).

use crate::config::{DegradationPolicy, ExecMode, MvxConfig, ResponsePolicy, VotingPolicy};
use crate::events::EventLog;
use crate::link::DataLink;
use crate::messages::{decode, encode, StageRequest, StageResponse};
use crate::recovery::RecoveryRequest;
use crate::stage::{step, Action, Event, Path, Sink, StageConfig, StageState};
use crate::transcript::TranscriptLog;
use crate::voting::VariantOutput;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use mvtee_graph::ValueId;
use mvtee_telemetry::trace::{self, TraceCtx};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use std::collections::{HashMap, HashSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work flowing through the pipeline.
#[derive(Debug, Clone)]
pub struct StageJob {
    /// Monotone batch id.
    pub batch: u64,
    /// Live boundary values (parent-graph value id → tensor).
    pub env: HashMap<ValueId, Tensor>,
    /// Set when an upstream stage failed this batch; downstream stages
    /// pass it through untouched.
    pub poisoned: Option<String>,
    /// Submission timestamp (for latency accounting).
    pub submitted: Instant,
    /// Trace context this batch runs under ([`TraceCtx::NONE`] when the
    /// caller did not start a trace).
    pub trace: TraceCtx,
}

/// Events from the per-variant receiver threads, merged into one queue.
///
/// Every event carries the sender's *channel epoch*: quarantining a
/// variant bumps its epoch, so frames still in flight from the abandoned
/// pre-quarantine channel are recognisably stale and discarded instead of
/// being attributed to the recovered replacement.
#[derive(Debug)]
pub enum RxEvent {
    /// A decoded stage response from a variant.
    Msg {
        /// Variant index within the partition.
        variant: usize,
        /// Channel epoch the frame was received under.
        epoch: u64,
        /// The decoded response.
        response: StageResponse,
    },
    /// A variant's response channel died.
    Disconnected {
        /// Variant index within the partition.
        variant: usize,
        /// Channel epoch of the dead channel.
        epoch: u64,
    },
    /// The recovery manager re-provisioned a quarantined variant: it
    /// passed probation against the last verified checkpoint payload and
    /// is ready to rejoin the panel on the next batch.
    Recovered {
        /// Variant index within the partition.
        variant: usize,
        /// The post-quarantine epoch assigned at quarantine time.
        epoch: u64,
        /// Fresh request link to the replacement variant.
        link: VariantLink,
        /// Receiver thread already feeding this merged queue under the
        /// new epoch.
        rx_thread: JoinHandle<()>,
    },
}

/// Monitor-side state for one variant TEE's data plane.
#[derive(Debug)]
pub struct VariantLink {
    /// Request link (coordinator → variant).
    pub tx: DataLink,
    /// Human-readable description (for events).
    pub description: String,
}

/// Everything a coordinator needs for its partition.
pub struct StageRuntime {
    /// Partition index.
    pub partition: usize,
    /// Request links to this partition's variants.
    pub links: Vec<VariantLink>,
    /// Merged response queue.
    pub responses: Receiver<RxEvent>,
    /// Sender side of `responses` — cloned into recovery requests so the
    /// manager can feed a replacement variant's frames back in.
    pub merged_tx: Sender<RxEvent>,
    /// Receiver threads feeding `responses` (joined on drop).
    pub rx_threads: Vec<JoinHandle<()>>,
    /// Subgraph boundary inputs (parent value ids, in input order).
    pub inputs: Vec<ValueId>,
    /// Subgraph boundary outputs (parent value ids, in output order).
    pub outputs: Vec<ValueId>,
    /// Values still needed by later stages (env garbage collection).
    pub needed_downstream: HashSet<ValueId>,
    /// Whether this checkpoint takes the slow path.
    pub slow: bool,
    /// Channel to the recovery manager; `None` disables quarantine-and-
    /// recover (quarantined variants are dropped for good, the historical
    /// behaviour).
    pub recovery: Option<Sender<RecoveryRequest>>,
    /// Shared audit transcript; every voted checkpoint verdict appends
    /// one Merkle-chained entry.
    pub transcript: TranscriptLog,
}

/// Per-stage copy of the execution-relevant configuration.
#[derive(Debug, Clone, Copy)]
pub struct StagePolicy {
    /// Sync vs async cross-validation.
    pub exec: ExecMode,
    /// Voting policy.
    pub voting: VotingPolicy,
    /// Response policy.
    pub response: ResponsePolicy,
    /// Voting behaviour while the panel is below strength.
    pub degradation: DegradationPolicy,
    /// Straggler watchdog: checkpoint deadline before escalation.
    pub deadline: Duration,
}

// Constants, not policy: no caller ever sized any of the three.

/// Shutdown drain window for outstanding async stragglers.
const DRAIN_WINDOW: Duration = Duration::from_millis(500);

/// Poll interval within the drain window.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// Bound of each coordinator's inbound job queue: the sender — the
/// submitter for the first stage, the upstream coordinator for every
/// other — blocks when a stage is this many batches behind (backpressure
/// under sustained load).
const STAGE_QUEUE_DEPTH: usize = 1024;

impl StagePolicy {
    /// Extracts the per-stage policy from a deployment configuration.
    pub fn from_config(cfg: &MvxConfig) -> Self {
        StagePolicy {
            exec: cfg.exec,
            voting: cfg.voting,
            response: cfg.response,
            degradation: cfg.degradation,
            deadline: cfg.checkpoint_deadline(),
        }
    }
}

/// Control messages into a coordinator.
pub enum CoordMsg {
    /// Process a job.
    Job(StageJob),
    /// Shut down (variants get [`StageRequest::Shutdown`]).
    Stop,
}

impl From<StageJob> for CoordMsg {
    fn from(job: StageJob) -> Self {
        CoordMsg::Job(job)
    }
}

/// Spawns the receiver thread for one variant's response link. Every
/// event it emits is stamped with `epoch` so the coordinator can discard
/// frames from channels abandoned by a quarantine.
pub fn spawn_rx_thread(
    variant_idx: usize,
    epoch: u64,
    mut link: DataLink,
    merged: Sender<RxEvent>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("rx-v{variant_idx}e{epoch}"))
        .spawn(move || loop {
            match link.recv() {
                Ok(frame) => match decode::<StageResponse>(&frame) {
                    Ok(response) => {
                        if merged
                            .send(RxEvent::Msg { variant: variant_idx, epoch, response })
                            .is_err()
                        {
                            break;
                        }
                    }
                    Err(_) => {
                        let _ =
                            merged.send(RxEvent::Disconnected { variant: variant_idx, epoch });
                        break;
                    }
                },
                Err(_) => {
                    let _ = merged.send(RxEvent::Disconnected { variant: variant_idx, epoch });
                    break;
                }
            }
        })
        .expect("thread spawn cannot fail")
}

/// The effectful half of a coordinator: owns the channels, links, clock,
/// telemetry and trace spans; turns channel traffic into [`Event`]s and
/// performs the [`Action`]s [`step`] answers with. It decides nothing.
struct Shell<T> {
    runtime: StageRuntime,
    out_tx: Sender<T>,
    events: EventLog,
    // Fetched and formatted once: recording is lock-free afterwards.
    checkpoint_latency: mvtee_telemetry::Histogram,
    fast_path: mvtee_telemetry::Counter,
    slow_path: mvtee_telemetry::Counter,
    span_name: String,
    track: String,
    /// The job in hand until its `Forward`, and its batch id.
    job: Option<StageJob>,
    batch: u64,
    /// The open checkpoint: latency timer (dispatch through selection),
    /// trace span, and the dispatch instant the watchdog counts from.
    checkpoint: Option<(mvtee_telemetry::Span, trace::SpanGuard<'static>, Instant)>,
    /// Request links a dispatch found closed, fed back after the step.
    send_failed: Vec<Event>,
    /// The replacement carried by the `Recovered` event being stepped.
    offered: Option<(VariantLink, JoinHandle<()>)>,
    downstream_gone: bool,
}

/// The coordinator loop for one stage. Finished jobs leave through
/// `out_tx`: the next stage's job queue (`T` = [`CoordMsg`]) or the
/// results channel (`T` = [`StageJob`]); once its receiver is gone the
/// stage stops taking jobs. Returns the runtime when stopped so the
/// deployment can reuse or update it.
pub fn run_stage<T: From<StageJob>>(
    runtime: StageRuntime,
    policy: StagePolicy,
    metric: Metric,
    in_rx: Receiver<CoordMsg>,
    out_tx: Sender<T>,
    events: EventLog,
) -> StageRuntime {
    let partition = runtime.partition;
    let mut state = StageState::new(StageConfig {
        partition,
        variants: runtime.links.len(),
        outputs: runtime.outputs.len(),
        slow: runtime.slow,
        recovery: runtime.recovery.is_some(),
        policy,
        metric,
    });
    let latency = format!("core.pipeline.p{partition}.checkpoint_latency_ns");
    let queue_depth = mvtee_telemetry::gauge(&format!("core.pipeline.p{partition}.queue_depth"));
    let mut shell = Shell {
        runtime,
        out_tx,
        events,
        checkpoint_latency: mvtee_telemetry::histogram(&latency),
        fast_path: mvtee_telemetry::counter("core.voting.fast_path"),
        slow_path: mvtee_telemetry::counter("core.voting.slow_path"),
        span_name: format!("core.p{partition}.checkpoint"),
        track: format!("p{partition}"),
        job: None,
        batch: 0,
        checkpoint: None,
        send_failed: Vec::new(),
        offered: None,
        downstream_gone: false,
    };
    while !shell.downstream_gone {
        let Ok(CoordMsg::Job(job)) = in_rx.recv() else { break };
        queue_depth.set(in_rx.len() as i64);
        shell.run_job(&mut state, job, policy.deadline);
    }
    // Drain outstanding stragglers briefly, then shut the variants down.
    shell.feed(&mut state, Event::Stop);
    let drain_deadline = Instant::now() + DRAIN_WINDOW;
    while state.owes_late_validation() && Instant::now() < drain_deadline {
        if let Ok(ev) = shell.runtime.responses.recv_timeout(DRAIN_POLL) {
            shell.feed_rx(&mut state, ev);
        }
    }
    shell.feed(&mut state, Event::Deadline);
    let shutdown = encode(&StageRequest::Shutdown).expect("static message encodes");
    for (v, link) in shell.runtime.links.iter_mut().enumerate() {
        if state.is_live(v) {
            let _ = link.tx.send(&shutdown);
        }
    }
    shell.runtime
}

impl<T: From<StageJob>> Shell<T> {
    fn feed(&mut self, state: &mut StageState, event: Event) {
        step(state, event, self);
        for failed in std::mem::take(&mut self.send_failed) {
            step(state, failed, self);
        }
    }

    fn feed_rx(&mut self, state: &mut StageState, ev: RxEvent) {
        let event = match ev {
            RxEvent::Msg { variant, epoch, response } => {
                let (batch, output) = match response {
                    StageResponse::Output { batch, tensors } => (batch, VariantOutput::Ok(tensors)),
                    StageResponse::Crashed { batch, reason } => {
                        (batch, VariantOutput::Crashed(reason))
                    }
                };
                Event::Reply { variant, epoch, batch, output }
            }
            RxEvent::Disconnected { variant, epoch } => {
                Event::Disconnected { variant, epoch, batch: self.batch }
            }
            RxEvent::Recovered { variant, epoch, link, rx_thread } => {
                self.offered = Some((link, rx_thread));
                Event::Recovered { variant, epoch }
            }
        };
        self.feed(state, event);
        // Not adopted: dropped, and the fresh variant exits on a closed link.
        self.offered = None;
    }

    fn run_job(&mut self, state: &mut StageState, job: StageJob, deadline: Duration) {
        // Whatever is recorded from here on is in this batch's causal chain.
        trace::set_current(job.trace);
        self.batch = job.batch;
        // Drain what arrived between batches before this dispatch, so a
        // variant that recovered in the meantime votes on this very batch.
        while let Ok(ev) = self.runtime.responses.try_recv() {
            self.feed_rx(state, ev);
        }
        if job.poisoned.is_some() {
            // An upstream stage failed it: passed through untouched.
            self.downstream_gone |= self.out_tx.send(job.into()).is_err();
            return;
        }
        let inputs = self.runtime.inputs.iter().map(|v| job.env.get(v).cloned().ok_or(*v)).collect();
        self.job = Some(job);
        self.feed(state, Event::Job { batch: self.batch, inputs });
        while state.awaiting() {
            // Anchored at dispatch: no frame, of any kind, re-arms it.
            let left = self.checkpoint.as_ref().map_or(Duration::ZERO, |(_, _, dispatched_at)| {
                (*dispatched_at + deadline).saturating_duration_since(Instant::now())
            });
            // (`runtime.merged_tx` keeps the queue open: errors are timeouts.)
            match (!left.is_zero()).then(|| self.runtime.responses.recv_timeout(left)) {
                Some(Ok(ev)) => self.feed_rx(state, ev),
                _ => self.feed(state, Event::Deadline),
            }
        }
    }
}

impl<T: From<StageJob>> Sink for Shell<T> {
    fn act(&mut self, action: Action) {
        match action {
            Action::Dispatch { batch, to, tensors } => {
                let timer = self.checkpoint_latency.start();
                let parent = self.job.as_ref().map_or(TraceCtx::NONE, |job| job.trace);
                let span = trace::recorder().span(parent, &self.span_name, &self.track);
                let span = span.arg("batch", batch).arg("live", to.len());
                let ctx = span.ctx();
                trace::set_current(ctx);
                let request = StageRequest::Input { batch, trace: ctx.as_pair(), tensors };
                let frame = encode(&request).expect("stage requests always encode");
                for v in to {
                    let link = &mut self.runtime.links[v];
                    if link.tx.send(&frame).is_err() {
                        let link = link.description.clone();
                        self.send_failed.push(Event::SendFailed { variant: v, link });
                    }
                }
                self.checkpoint = Some((timer, span, Instant::now()));
            }
            Action::Forward { result, path } => {
                let Some(mut job) = self.job.take() else { return };
                // Without a verdict (no variant left) it is no latency sample.
                let span = self.checkpoint.take().map(|(timer, span, _)| {
                    if path.is_some() { timer.finish() } else { timer.cancel() }
                    span
                });
                match path {
                    Some(Path::Fast) => self.fast_path.inc(),
                    Some(Path::Slow) => self.slow_path.inc(),
                    None => {}
                }
                match result {
                    Err(reason) => job.poisoned = Some(reason),
                    Ok(outputs) => {
                        for (v, t) in self.runtime.outputs.iter().zip(outputs) {
                            job.env.insert(*v, t);
                        }
                        job.env.retain(|v, _| self.runtime.needed_downstream.contains(v));
                    }
                }
                self.downstream_gone |= self.out_tx.send(job.into()).is_err();
                drop(span); // the span covers the hand-off
            }
            Action::Record(event) => self.events.record(event),
            Action::Transcript(entry) => self.runtime.transcript.record(entry),
            Action::Recover { variant, epoch, reason, resync } => {
                let Some(tx) = &self.runtime.recovery else { return };
                let (partition, merged_tx) = (self.runtime.partition, self.runtime.merged_tx.clone());
                let _ =
                    tx.send(RecoveryRequest { partition, variant, epoch, reason, resync, merged_tx });
            }
            Action::Adopt { variant } => {
                let Some((link, rx_thread)) = self.offered.take() else { return };
                self.runtime.links[variant] = link;
                self.runtime.rx_threads.push(rx_thread);
            }
        }
    }
}

/// A handle to the running pipeline: per-stage input senders plus the
/// final results receiver.
pub struct PipelineHandles {
    /// Sender into the first stage.
    pub first_stage: Sender<CoordMsg>,
    /// Senders into every stage (for Stop broadcasts), first included.
    pub all_stages: Vec<Sender<CoordMsg>>,
    /// Completed jobs out of the last stage.
    pub results: Receiver<StageJob>,
    /// Coordinator join handles (return their runtimes).
    pub threads: Vec<JoinHandle<StageRuntime>>,
}

/// Wires coordinators into a linear pipeline and spawns them.
///
/// Stage `i` sends its finished jobs straight into stage `i + 1`'s job
/// queue (bounded at `STAGE_QUEUE_DEPTH`, so a slow stage pushes back on
/// the one before it), the last stage into the unbounded `results`. A
/// stopped stage drops its queue's receiver: the upstream send fails and
/// the upstream coordinator stops taking jobs in turn.
pub fn spawn_pipeline(
    runtimes: Vec<StageRuntime>,
    policy: StagePolicy,
    metrics: Vec<Metric>,
    events: EventLog,
) -> PipelineHandles {
    let n = runtimes.len();
    assert!(n > 0, "pipeline needs at least one stage");
    assert_eq!(metrics.len(), n, "one metric per stage");
    let (stage_inputs, stage_rxs): (Vec<Sender<CoordMsg>>, Vec<Receiver<CoordMsg>>) =
        (0..n).map(|_| bounded(STAGE_QUEUE_DEPTH)).unzip();
    let (final_tx, results) = unbounded::<StageJob>();
    let mut threads = Vec::with_capacity(n);
    for (i, (runtime, rx)) in runtimes.into_iter().zip(stage_rxs).enumerate() {
        let (metric, ev) = (metrics[i], events.clone());
        threads.push(match stage_inputs.get(i + 1) {
            Some(next) => spawn_stage(i, runtime, policy, metric, rx, next.clone(), ev),
            None => spawn_stage(i, runtime, policy, metric, rx, final_tx.clone(), ev),
        });
    }
    drop(final_tx);
    PipelineHandles {
        first_stage: stage_inputs[0].clone(),
        all_stages: stage_inputs,
        results,
        threads,
    }
}

fn spawn_stage<T: From<StageJob> + Send + 'static>(
    index: usize,
    runtime: StageRuntime,
    policy: StagePolicy,
    metric: Metric,
    in_rx: Receiver<CoordMsg>,
    out_tx: Sender<T>,
    events: EventLog,
) -> JoinHandle<StageRuntime> {
    std::thread::Builder::new()
        .name(format!("stage-{index}"))
        .spawn(move || run_stage(runtime, policy, metric, in_rx, out_tx, events))
        .expect("thread spawn cannot fail")
}

#[cfg(test)]
mod tests {
    //! Shell smoke tests over real threads and links. The coordinator's
    //! decisions are tested (and enumerated) in [`crate::stage`].

    use super::*;
    use crate::events::MonitorEvent;
    use crate::link::link_pair;

    /// Scripted fake variant behaviours.
    #[derive(Clone, Copy)]
    enum Behaviour {
        /// Return the input unchanged.
        Echo,
        /// From the given batch on, never answer the batch asked for but
        /// keep the channel busy: send an answer for a batch nobody asked
        /// about every `every`, `times` times per request.
        ChatterFrom { batch: u64, every: Duration, times: u32 },
    }

    /// Spawns a fake variant thread and returns the monitor-side links.
    fn fake_variant(behaviour: Behaviour) -> (DataLink, DataLink) {
        let (req_monitor, req_variant) = link_pair(false, b"", 0);
        let (resp_variant, resp_monitor) = link_pair(false, b"", 1);
        std::thread::spawn(move || {
            let mut rx = req_variant;
            let mut tx = resp_variant;
            while let Ok(frame) = rx.recv() {
                let Ok(StageRequest::Input { batch, tensors, .. }) = decode(&frame) else { break };
                let (answer_for, every, times) = match behaviour {
                    Behaviour::ChatterFrom { batch: from, every, times } if batch >= from => {
                        (u64::MAX, every, times)
                    }
                    _ => (batch, Duration::ZERO, 1),
                };
                let resp = StageResponse::Output { batch: answer_for, tensors };
                let frame = encode(&resp).expect("encodes");
                for _ in 0..times {
                    if tx.send(&frame).is_err() {
                        return;
                    }
                    std::thread::sleep(every);
                }
            }
        });
        (req_monitor, resp_monitor)
    }

    fn fake_stage(partition: usize, behaviours: &[Behaviour], slow: bool) -> StageRuntime {
        let (merged_tx, merged_rx) = unbounded::<RxEvent>();
        let mut links = Vec::new();
        let mut rx_threads = Vec::new();
        for (i, &b) in behaviours.iter().enumerate() {
            let (tx, rx) = fake_variant(b);
            rx_threads.push(spawn_rx_thread(i, 0, rx, merged_tx.clone()));
            links.push(VariantLink { tx, description: format!("fake-{i}") });
        }
        // Stage `p` consumes value `p` and emits value `p + 1`.
        StageRuntime {
            partition,
            links,
            responses: merged_rx,
            merged_tx,
            rx_threads,
            inputs: vec![ValueId(partition)],
            outputs: vec![ValueId(partition + 1)],
            needed_downstream: HashSet::from([ValueId(partition + 1)]),
            slow,
            recovery: None,
            transcript: TranscriptLog::new(),
        }
    }

    fn job(batch: u64, value: f32) -> StageJob {
        let input = Tensor::from_vec(vec![value; 4], &[4]).expect("static shape");
        StageJob {
            batch,
            env: HashMap::from([(ValueId(0), input)]),
            poisoned: None,
            submitted: Instant::now(),
            trace: TraceCtx::NONE,
        }
    }

    fn policy(response: ResponsePolicy, deadline: Duration) -> StagePolicy {
        StagePolicy {
            exec: ExecMode::Sync,
            voting: VotingPolicy::Unanimous,
            response,
            degradation: DegradationPolicy::Degrade,
            deadline,
        }
    }

    /// A variant that answers with other batch ids at a third of the
    /// deadline hangs the checkpoint exactly like a silent one: the
    /// watchdog is anchored at dispatch and escalates it within about one
    /// deadline, chatter or not.
    #[test]
    fn watchdog_escalates_chattering_variant_within_one_deadline() {
        let deadline = Duration::from_millis(240);
        let chatter = Behaviour::ChatterFrom { batch: 1, every: deadline / 3, times: 30 };
        let runtime = fake_stage(0, &[Behaviour::Echo, Behaviour::Echo, chatter], true);
        let (in_tx, in_rx) = bounded::<CoordMsg>(64);
        let (out_tx, out_rx) = unbounded::<StageJob>();
        let events = EventLog::new();
        let ev = events.clone();
        let p = policy(ResponsePolicy::ContinueWithMajority, deadline);
        let stage =
            std::thread::spawn(move || run_stage(runtime, p, Metric::strict(), in_rx, out_tx, ev));

        in_tx.send(CoordMsg::Job(job(0, 1.0))).expect("sends");
        let healthy = out_rx.recv_timeout(Duration::from_secs(10)).expect("result");
        assert!(healthy.poisoned.is_none());

        let start = Instant::now();
        in_tx.send(CoordMsg::Job(job(1, 2.0))).expect("sends");
        let hung = out_rx.recv_timeout(Duration::from_secs(20)).expect("result");
        let waited = start.elapsed();
        // Ten deadlines of chatter were on offer; one was waited out.
        assert!(waited >= deadline, "escalated before the deadline: {waited:?}");
        assert!(waited < deadline * 3, "chatter re-armed the watchdog: {waited:?}");
        assert_eq!(hung.env[&ValueId(1)].data(), &[2.0; 4], "the majority carries the batch");
        let escalated = events
            .events()
            .iter()
            .any(|e| matches!(e, MonitorEvent::LateDissent { variant: 2, batch: 1, .. }));
        assert!(escalated, "watchdog must flag the chattering variant: {:?}", events.events());

        // Batch 2 runs on the reduced panel.
        in_tx.send(CoordMsg::Job(job(2, 3.0))).expect("sends");
        let after = out_rx.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(after.env[&ValueId(1)].data(), &[3.0; 4]);
        in_tx.send(CoordMsg::Stop).expect("stops");
        let _ = stage.join().expect("joins");
    }

    #[test]
    fn pipeline_of_two_stages_chains_jobs() {
        let stages =
            vec![fake_stage(0, &[Behaviour::Echo], false), fake_stage(1, &[Behaviour::Echo], false)];
        let events = EventLog::new();
        let handles = spawn_pipeline(
            stages,
            policy(ResponsePolicy::Halt, Duration::from_secs(30)),
            vec![Metric::strict(), Metric::strict()],
            events.clone(),
        );
        handles.first_stage.send(CoordMsg::Job(job(0, 6.0))).expect("sends");
        let result = handles.results.recv_timeout(Duration::from_secs(10)).expect("result");
        assert!(result.poisoned.is_none());
        assert_eq!(result.env[&ValueId(2)].data(), &[6.0; 4]);
        // A job an upstream stage failed passes through every stage
        // untouched and unaudited.
        let poisoned = StageJob { poisoned: Some("upstream failure".into()), ..job(1, 7.0) };
        handles.first_stage.send(CoordMsg::Job(poisoned)).expect("sends");
        let result = handles.results.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(result.poisoned.as_deref(), Some("upstream failure"));
        assert!(result.env.contains_key(&ValueId(0)) && events.is_empty());
        for tx in &handles.all_stages {
            let _ = tx.send(CoordMsg::Stop);
        }
        for t in handles.threads {
            let _ = t.join();
        }
    }
}
