//! Stage coordinators: the monitor's data plane.
//!
//! Variant TEEs are organised into a pipeline mirroring the partition
//! order. One coordinator thread per partition (all "inside" the monitor
//! TEE — the cross-process monitor is multithreaded) dispatches batches to
//! that partition's variant TEEs, gathers their encrypted outputs,
//! evaluates checkpoints (slow path) or falls through (fast path), and
//! sends the selected result straight into the next stage's job queue; the
//! last stage answers the job's own reply. Sequential and pipelined
//! execution use the same plumbing: sequential submits one batch and
//! waits; pipelined streams batches so stages overlap
//! (compute-communication overlapping, §4.1).
//!
//! A coordinator has one inbox. Its variants' sealed answers land there
//! from the thread that produced them — the variant thread, or the mux
//! pump of a worker's socket ([`crate::link::ResponsePort`]) — and so do
//! their hang-ups and the recovery manager's replacements. The
//! coordinator opens and decodes each answer on its own thread, under the
//! response link's sequence state it owns.

use crate::config::{DegradationPolicy, ExecMode, MvxConfig, ResponsePolicy, VotingPolicy};
use crate::events::EventLog;
use crate::link::DataLink;
use crate::messages::{decode, encode, StageRequest, StageResponse};
use crate::recovery::RecoveryRequest;
use crate::stage::{step, Action, Event, Path, Sink, StageConfig, StageState};
use crate::transcript::TranscriptLog;
use crate::voting::VariantOutput;
use crossbeam::channel::{bounded, Receiver, Sender};
use mvtee_graph::ValueId;
use mvtee_telemetry::trace::{self, TraceCtx};
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use std::collections::{HashMap, HashSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a batch is answered once it leaves the last stage: with its final
/// environment, or with the reason a checkpoint halted it. A job the
/// pipeline loses is dropped with its reply uncalled.
pub type Reply = Box<dyn FnOnce(Result<HashMap<ValueId, Tensor>, String>) + Send>;

/// A unit of work flowing through the pipeline.
pub struct StageJob {
    /// Monotone batch id.
    pub batch: u64,
    /// Live boundary values (parent-graph value id → tensor).
    pub env: HashMap<ValueId, Tensor>,
    /// Set when an upstream stage failed this batch; downstream stages
    /// pass it through untouched.
    pub poisoned: Option<String>,
    /// Trace context this batch runs under ([`TraceCtx::NONE`] when the
    /// caller did not start a trace).
    pub trace: TraceCtx,
    /// Called by the last stage, exactly once.
    pub reply: Reply,
}

/// What lands in a coordinator's inbox. Everything from a variant carries
/// its response link's *channel epoch*: quarantine bumps the epoch, so
/// frames still in flight on the abandoned channel are recognisably stale
/// instead of being attributed to the recovered replacement.
pub enum Inbound {
    /// A sealed stage response, not yet opened.
    Frame {
        /// Variant index within the partition.
        variant: usize,
        /// Channel epoch the frame was sent under.
        epoch: u64,
        /// The frame as sealed on the response link.
        frame: Vec<u8>,
    },
    /// The variant's response port closed: its host exited, or its
    /// worker's connection died.
    Closed {
        /// Variant index within the partition.
        variant: usize,
        /// Channel epoch of the dead channel.
        epoch: u64,
    },
    /// A quarantined variant's replacement passed probation and rejoins
    /// the panel on the next batch; its response port already points here.
    Recovered {
        /// Variant index within the partition.
        variant: usize,
        /// The post-quarantine epoch assigned at quarantine time.
        epoch: u64,
        /// The replacement's links.
        link: VariantLink,
    },
}

/// Monitor-side state for one variant TEE's data plane.
pub struct VariantLink {
    /// Request link (coordinator → variant).
    pub tx: DataLink,
    /// Receive half of the response link (variant → coordinator), whose
    /// frames arrive through the inbox ([`DataLink::inbound`]).
    pub rx: DataLink,
    /// Human-readable description (for events).
    pub description: String,
}

/// Everything a coordinator needs for its partition.
pub struct StageRuntime {
    /// Partition index.
    pub partition: usize,
    /// Links to this partition's variants.
    pub links: Vec<VariantLink>,
    /// The inbox every variant's [`ResponsePort`](crate::link::ResponsePort)
    /// sends into; cloned into recovery requests. Held here, it keeps the
    /// inbox open: a receive only ever times out.
    pub inbox: Sender<Inbound>,
    /// The inbox's receiving end.
    pub responses: Receiver<Inbound>,
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
    /// No more jobs. It queues behind the jobs already handed in, and each
    /// stage forwards it after its last `Forward`; then the stage drains
    /// and its variants get [`StageRequest::Shutdown`].
    Stop,
}

/// The effectful half of a coordinator: owns the channels, links, clock,
/// telemetry and trace spans; turns channel traffic into [`Event`]s and
/// performs the [`Action`]s [`step`] answers with. It decides nothing.
struct Shell {
    runtime: StageRuntime,
    /// Per variant, the epoch its response link is open under; `None`
    /// once that link has failed or closed. Anything else from a variant
    /// is dropped unopened.
    listening: Vec<Option<u64>>,
    /// The next stage's job queue; `None` for the last stage.
    next: Option<Sender<CoordMsg>>,
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
    /// The replacement carried by the `Recovered` event being stepped,
    /// and its epoch.
    offered: Option<(VariantLink, u64)>,
    downstream_gone: bool,
}

/// The coordinator loop for one stage. Finished jobs go into `next`, the
/// next stage's job queue — once its receiver is gone the stage stops
/// taking jobs — or, with `None`, to their own replies. Returns the
/// runtime when stopped so the deployment can reuse or update it.
pub fn run_stage(
    runtime: StageRuntime,
    policy: StagePolicy,
    metric: Metric,
    in_rx: Receiver<CoordMsg>,
    next: Option<Sender<CoordMsg>>,
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
        listening: vec![Some(0); runtime.links.len()],
        runtime,
        next,
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
    // Every job this stage took is forwarded: the stop follows them.
    if let Some(next) = shell.next.take() {
        let _ = next.send(CoordMsg::Stop);
    }
    // Drain outstanding stragglers briefly, then shut the variants down.
    shell.feed(&mut state, Event::Stop);
    let drain_deadline = Instant::now() + DRAIN_WINDOW;
    while state.owes_late_validation() && Instant::now() < drain_deadline {
        if let Ok(inbound) = shell.runtime.responses.recv_timeout(DRAIN_POLL) {
            shell.feed_inbound(&mut state, inbound);
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

impl Shell {
    fn feed(&mut self, state: &mut StageState, event: Event) {
        step(state, event, self);
        for failed in std::mem::take(&mut self.send_failed) {
            step(state, failed, self);
        }
    }

    fn feed_inbound(&mut self, state: &mut StageState, inbound: Inbound) {
        let event = match inbound {
            Inbound::Frame { variant, epoch, frame } if self.listening[variant] == Some(epoch) => {
                let link = &mut self.runtime.links[variant].rx;
                let opened = link.open(frame).and_then(|payload| decode(&payload));
                match opened {
                    Ok(StageResponse::Output { batch, tensors }) => {
                        Event::Reply { variant, epoch, batch, output: VariantOutput::Ok(tensors) }
                    }
                    Ok(StageResponse::Crashed { batch, reason }) => {
                        let output = VariantOutput::Crashed(reason);
                        Event::Reply { variant, epoch, batch, output }
                    }
                    // A frame that does not open or decode ends the link.
                    Err(_) => self.link_lost(variant, epoch),
                }
            }
            Inbound::Closed { variant, epoch } if self.listening[variant] == Some(epoch) => {
                self.link_lost(variant, epoch)
            }
            Inbound::Recovered { variant, epoch, link } => {
                self.offered = Some((link, epoch));
                Event::Recovered { variant, epoch }
            }
            // From a link already reported lost, or replaced: nothing for
            // `step` to act on.
            Inbound::Frame { .. } | Inbound::Closed { .. } => return,
        };
        self.feed(state, event);
        // Not adopted: dropped, and the fresh variant exits on a closed link.
        self.offered = None;
    }

    /// Stops listening to a variant's response link; the crash it means
    /// is attributed to the job in hand.
    fn link_lost(&mut self, variant: usize, epoch: u64) -> Event {
        self.listening[variant] = None;
        Event::Disconnected { variant, epoch, batch: self.batch }
    }

    fn run_job(&mut self, state: &mut StageState, job: StageJob, deadline: Duration) {
        // Whatever is recorded from here on is in this batch's causal chain.
        trace::set_current(job.trace);
        self.batch = job.batch;
        // Drain what arrived between batches before this dispatch, so a
        // variant that recovered in the meantime votes on this very batch.
        while let Ok(inbound) = self.runtime.responses.try_recv() {
            self.feed_inbound(state, inbound);
        }
        if job.poisoned.is_some() {
            // An upstream stage failed it: passed through untouched.
            self.pass_on(job);
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
            // (`runtime.inbox` keeps the inbox open: errors are timeouts.)
            match (!left.is_zero()).then(|| self.runtime.responses.recv_timeout(left)) {
                Some(Ok(inbound)) => self.feed_inbound(state, inbound),
                _ => self.feed(state, Event::Deadline),
            }
        }
    }

    /// Hands a finished job to the next stage or, from the last, answers
    /// it. A job the next stage can no longer take is dropped unanswered.
    fn pass_on(&mut self, job: StageJob) {
        match &self.next {
            Some(next) => self.downstream_gone |= next.send(CoordMsg::Job(job)).is_err(),
            None => (job.reply)(match job.poisoned {
                Some(reason) => Err(reason),
                None => Ok(job.env),
            }),
        }
    }
}

impl Sink for Shell {
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
                self.pass_on(job);
                drop(span); // the span covers the hand-off
            }
            Action::Record(event) => self.events.record(event),
            Action::Transcript(entry) => self.runtime.transcript.record(entry),
            Action::Recover { variant, epoch, reason, resync } => {
                let Some(tx) = &self.runtime.recovery else { return };
                let (partition, inbox) = (self.runtime.partition, self.runtime.inbox.clone());
                let _ = tx.send(RecoveryRequest { partition, variant, epoch, reason, resync, inbox });
            }
            Action::Adopt { variant } => {
                let Some((link, epoch)) = self.offered.take() else { return };
                self.runtime.links[variant] = link;
                self.listening[variant] = Some(epoch);
            }
        }
    }
}

/// A handle to the running pipeline.
pub struct PipelineHandles {
    /// Sender into the first stage: jobs, then one [`CoordMsg::Stop`].
    pub first_stage: Sender<CoordMsg>,
    /// Coordinator join handles (return their runtimes).
    pub threads: Vec<JoinHandle<StageRuntime>>,
}

/// Wires coordinators into a linear pipeline and spawns them.
///
/// Stage `i` sends its finished jobs straight into stage `i + 1`'s job
/// queue (bounded at `STAGE_QUEUE_DEPTH`, so a slow stage pushes back on
/// the one before it); the last stage answers each job's reply. A
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
    let first_stage = stage_inputs[0].clone();
    let downstream = stage_inputs.into_iter().skip(1).map(Some).chain([None]);
    let threads = runtimes
        .into_iter()
        .zip(stage_rxs)
        .zip(downstream)
        .zip(metrics)
        .enumerate()
        .map(|(i, (((runtime, in_rx), next), metric))| {
            let events = events.clone();
            std::thread::Builder::new()
                .name(format!("stage-{i}"))
                .spawn(move || run_stage(runtime, policy, metric, in_rx, next, events))
                .expect("thread spawn cannot fail")
        })
        .collect();
    PipelineHandles { first_stage, threads }
}

#[cfg(test)]
mod tests {
    //! Shell smoke tests over real threads and links. The coordinator's
    //! decisions are tested (and enumerated) in [`crate::stage`].

    use super::*;
    use crate::events::MonitorEvent;
    use crate::link::{link_pair, ResponsePort};
    use crossbeam::channel::unbounded;
    use mvtee_crypto::channel::Role;

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

    /// Spawns a fake variant thread answering into `port` and returns the
    /// monitor-side links.
    fn fake_variant(behaviour: Behaviour, port: ResponsePort) -> VariantLink {
        let (req_monitor, req_variant) = link_pair(false, b"", 0);
        std::thread::spawn(move || {
            let mut rx = req_variant;
            let mut tx = DataLink::plain(port);
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
        let rx = DataLink::inbound(false, b"", Role::Initiator, 1);
        VariantLink { tx: req_monitor, rx, description: "fake".into() }
    }

    fn fake_stage(partition: usize, behaviours: &[Behaviour], slow: bool) -> StageRuntime {
        let (inbox, responses) = unbounded();
        let links = behaviours
            .iter()
            .enumerate()
            .map(|(v, &b)| fake_variant(b, ResponsePort::new(inbox.clone(), v, 0)))
            .collect();
        // Stage `p` consumes value `p` and emits value `p + 1`.
        StageRuntime {
            partition,
            links,
            inbox,
            responses,
            inputs: vec![ValueId(partition)],
            outputs: vec![ValueId(partition + 1)],
            needed_downstream: HashSet::from([ValueId(partition + 1)]),
            slow,
            recovery: None,
            transcript: TranscriptLog::new(),
        }
    }

    type Answer = Result<HashMap<ValueId, Tensor>, String>;

    /// A job whose reply lands in `answers`.
    fn job(batch: u64, value: f32, answers: &Sender<Answer>) -> StageJob {
        let input = Tensor::from_vec(vec![value; 4], &[4]).expect("static shape");
        let answers = answers.clone();
        StageJob {
            batch,
            env: HashMap::from([(ValueId(0), input)]),
            poisoned: None,
            trace: TraceCtx::NONE,
            reply: Box::new(move |answer| {
                let _ = answers.send(answer);
            }),
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
        let (out_tx, out_rx) = unbounded::<Answer>();
        let events = EventLog::new();
        let ev = events.clone();
        let p = policy(ResponsePolicy::ContinueWithMajority, deadline);
        let stage =
            std::thread::spawn(move || run_stage(runtime, p, Metric::strict(), in_rx, None, ev));

        in_tx.send(CoordMsg::Job(job(0, 1.0, &out_tx))).expect("sends");
        let healthy = out_rx.recv_timeout(Duration::from_secs(10)).expect("result");
        assert!(healthy.is_ok());

        let start = Instant::now();
        in_tx.send(CoordMsg::Job(job(1, 2.0, &out_tx))).expect("sends");
        let hung = out_rx.recv_timeout(Duration::from_secs(20)).expect("result");
        let waited = start.elapsed();
        // Ten deadlines of chatter were on offer; one was waited out.
        assert!(waited >= deadline, "escalated before the deadline: {waited:?}");
        assert!(waited < deadline * 3, "chatter re-armed the watchdog: {waited:?}");
        let hung = hung.expect("the majority carries the batch");
        assert_eq!(hung[&ValueId(1)].data(), &[2.0; 4]);
        let escalated = events
            .events()
            .iter()
            .any(|e| matches!(e, MonitorEvent::LateDissent { variant: 2, batch: 1, .. }));
        assert!(escalated, "watchdog must flag the chattering variant: {:?}", events.events());

        // Batch 2 runs on the reduced panel.
        in_tx.send(CoordMsg::Job(job(2, 3.0, &out_tx))).expect("sends");
        let after = out_rx.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(after.expect("answered")[&ValueId(1)].data(), &[3.0; 4]);
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
        let (answers, answered) = unbounded::<Answer>();
        handles.first_stage.send(CoordMsg::Job(job(0, 6.0, &answers))).expect("sends");
        let result = answered.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(result.expect("answered")[&ValueId(2)].data(), &[6.0; 4]);
        // A job an upstream stage failed passes through every stage
        // untouched and unaudited.
        let poisoned =
            StageJob { poisoned: Some("upstream failure".into()), ..job(1, 7.0, &answers) };
        handles.first_stage.send(CoordMsg::Job(poisoned)).expect("sends");
        let result = answered.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(result.err().as_deref(), Some("upstream failure"));
        assert!(events.is_empty());
        // A stop right behind a run of jobs answers every one of them.
        for b in 2..8 {
            handles.first_stage.send(CoordMsg::Job(job(b, b as f32, &answers))).expect("sends");
        }
        handles.first_stage.send(CoordMsg::Stop).expect("stops");
        for t in handles.threads {
            let _ = t.join();
        }
        let values: Vec<f32> = std::iter::from_fn(|| answered.try_recv().ok())
            .map(|a| a.expect("answered")[&ValueId(2)].data()[0])
            .collect();
        assert_eq!(values, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }
}
