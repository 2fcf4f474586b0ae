//! The monitor's data plane: one `monitor` thread per replica, the monitor
//! TEE, owning every partition's `StageState` and its shell. A stage
//! dispatches a batch to its variants, votes on their answers at a
//! checkpoint (slow path) or falls through (fast path), and queues the
//! result for the next stage; the last answers the job's reply. A stage has
//! at most one checkpoint in flight, so streamed batches overlap across
//! stages (§4.1). The loop's one unbounded inbox takes submitted jobs, the
//! stop, and every variant's traffic tagged with its partition
//! ([`crate::link::ResponsePort`]): nothing on the variant side waits on
//! the monitor. With recovery on, the loop also re-provisions quarantined
//! variants itself ([`crate::recovery`]), one attempt per turn.

use crate::config::{DegradationPolicy, ExecMode, MvxConfig, ResponsePolicy, VotingPolicy};
use crate::events::EventLog;
use crate::link::VariantLink;
use crate::messages::{decode, encode, StageRequest, StageResponse};
use crate::recovery::{Recovery, RecoveryContext, RecoveryRequest, Rejoin};
use crate::stage::{step, Action, Event, Path, Sink, StageConfig, StageState};
use crate::transcript::TranscriptLog;
use crate::voting::VariantOutput;
use mvtee_graph::ValueId;
use mvtee_telemetry::trace::{self, TraceCtx};
use mvtee_telemetry::Gauge;
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
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

/// What lands in the monitor's inbox. A variant's messages carry its
/// partition and its response link's *channel epoch*: quarantine bumps it,
/// so frames in flight on the abandoned channel are recognisably stale.
pub enum Inbound {
    /// A batch for the first stage, sent by [`MonitorHandle::submit`].
    Job(StageJob),
    /// No more jobs: once all are answered, the variants get a shutdown.
    Stop,
    /// A sealed stage response, not yet opened.
    Frame {
        /// Partition index, and variant index within the partition.
        at: (usize, usize),
        /// Channel epoch the frame was sent under.
        epoch: u64,
        /// The frame as sealed on the response link.
        frame: Vec<u8>,
    },
    /// The variant's response port closed: its host or connection died.
    Closed {
        /// Partition index, and variant index within the partition.
        at: (usize, usize),
        /// Channel epoch of the dead channel.
        epoch: u64,
    },
}

/// Everything a stage needs for its partition.
pub struct StageRuntime {
    /// Partition index.
    pub partition: usize,
    /// Links to this partition's variants.
    pub links: Vec<VariantLink>,
    /// Subgraph boundary inputs (parent value ids, in input order).
    pub inputs: Vec<ValueId>,
    /// Subgraph boundary outputs (parent value ids, in output order).
    pub outputs: Vec<ValueId>,
    /// Values still needed by later stages (env garbage collection).
    pub needed_downstream: HashSet<ValueId>,
    /// Whether this checkpoint takes the slow path.
    pub slow: bool,
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

/// Shutdown drain window for every stage's outstanding async stragglers.
const DRAIN_WINDOW: Duration = Duration::from_millis(500);

/// Bound of every stage's job queue (backpressure under sustained load):
/// the submitter blocks while the first stage holds this many jobs, and a
/// stage starts no job while the next stage's queue is full.
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

/// One stage of the loop: its decisions, its effects, and the jobs handed
/// to it and not yet taken, oldest first, counted on its queue-depth gauge.
struct Stage {
    state: StageState,
    shell: Shell,
    queue: VecDeque<StageJob>,
    depth: Gauge,
}

/// The effectful half of a stage: owns its links, telemetry and trace
/// spans; turns inbox traffic into [`Event`]s and performs the
/// [`Action`]s [`step`] answers with. It decides nothing.
struct Shell {
    runtime: StageRuntime,
    /// The partition's consistency metric, for a replacement's probation.
    metric: Metric,
    /// Per variant, the epoch its response link is open under; `None` once
    /// it has failed or closed. Anything else is dropped unopened.
    listening: Vec<Option<u64>>,
    events: EventLog,
    // Fetched and formatted once: recording is lock-free afterwards.
    checkpoint_latency: mvtee_telemetry::Histogram,
    fast_path: mvtee_telemetry::Counter,
    slow_path: mvtee_telemetry::Counter,
    span_name: String,
    track: String,
    /// The job in hand until its `Forward`, and its batch id — between
    /// jobs, the id of the batch the stage takes next.
    job: Option<StageJob>,
    batch: u64,
    /// What the stage records under: its job's trace, then its span's.
    trace: TraceCtx,
    /// The open checkpoint: latency timer (dispatch through selection),
    /// trace span, and the dispatch instant the watchdog counts from.
    checkpoint: Option<(mvtee_telemetry::Span, trace::SpanGuard<'static>, Instant)>,
    /// Request links a dispatch found closed, fed back after the step.
    send_failed: Vec<Event>,
    /// Recovery requests the step filed, handed to the loop after it.
    filed: Vec<RecoveryRequest>,
    /// The replacement the `Recovered` event being stepped offers.
    offered: Option<(VariantLink, u64)>,
    /// The job the step forwarded, and the span that covers its hand-off.
    forwarded: Option<(StageJob, Option<trace::SpanGuard<'static>>)>,
}

/// The event loop over every stage of a replica.
struct Monitor {
    stages: Vec<Stage>,
    inbox: Receiver<Inbound>,
    /// One slot per job the first stage holds, given back as it takes one.
    slots: Receiver<()>,
    deadline: Duration,
    stopping: bool,
    /// `None`: quarantined variants are dropped for good.
    recovery: Option<Recovery>,
    /// A replacement waiting for its stage to close a checkpoint.
    parked: Option<Rejoin>,
}

impl Monitor {
    fn run(mut self) {
        loop {
            // Everything already waiting is fed before a stage takes a
            // job.
            while let Ok(inbound) = self.inbox.try_recv() {
                self.handle(inbound);
            }
            // The watchdog, anchored at dispatch: no frame re-arms it.
            let (now, deadline) = (Instant::now(), self.deadline);
            let due = |s: &Stage| {
                s.state.awaiting().then(|| s.shell.checkpoint.as_ref().map_or(now, |c| c.2 + deadline))
            };
            for i in 0..self.stages.len() {
                if due(&self.stages[i]).is_some_and(|due| due <= now) {
                    self.feed(i, Event::Deadline);
                }
            }
            // So is a due recovery: its replacement votes on that job.
            let recovery_due = if self.recovery.is_some() { self.recover() } else { None };
            if self.take_job() {
                continue;
            }
            let idle = |s: &Stage| s.queue.is_empty() && !s.state.awaiting();
            if self.stopping
                && self.stages.iter().all(idle)
                && self.recovery.as_ref().is_none_or(|r| r.state.is_empty())
            {
                return self.drain();
            }
            let due = self.stages.iter().filter_map(due).chain(recovery_due).min();
            let wait = due.map_or(Duration::MAX, |due| due.saturating_duration_since(Instant::now()));
            match self.inbox.recv_timeout(wait) {
                Ok(inbound) => self.handle(inbound),
                // Nothing can arrive any more: as good as a stop.
                Err(RecvTimeoutError::Disconnected) => self.stopping = true,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    fn handle(&mut self, inbound: Inbound) {
        match inbound {
            Inbound::Job(job) => self.stages[0].queue.push_back(job),
            Inbound::Stop => self.stopping = true,
            Inbound::Frame { at: (p, _), .. } | Inbound::Closed { at: (p, _), .. } => {
                if let Some(event) = self.stages[p].shell.event(inbound) {
                    self.feed(p, event);
                }
            }
        }
    }

    /// Runs the recovery attempt due, if any, and offers a replacement
    /// that passed probation to its stage before the inbox is read again —
    /// unless the stage has a checkpoint in flight: adopted there, it would
    /// be charged with its predecessor's crash vote and quarantined again,
    /// so it is parked until the stage closes it. Returns when the next
    /// attempt is due (`None` while one is parked).
    fn recover(&mut self) -> Option<Instant> {
        let Monitor { stages, recovery, deadline, parked, .. } = self;
        let recovery = recovery.as_mut()?;
        let metric = |p: usize| stages[p].shell.metric;
        let rejoin = parked.take().or_else(|| recovery.run_due(metric, *deadline));
        let Some(((p, variant), epoch, link)) = rejoin else { return recovery.state.due() };
        if stages[p].state.awaiting() {
            *parked = Some(((p, variant), epoch, link));
            return None;
        }
        self.stages[p].shell.offered = Some((link, epoch));
        self.feed(p, Event::Recovered { variant, epoch });
        // Not adopted: dropped, and the fresh variant exits.
        self.stages[p].shell.offered = None;
        self.recovery.as_ref()?.state.due()
    }

    /// Starts a job at the first stage with none in flight whose next
    /// stage's queue has room. `false`: no stage can take one.
    fn take_job(&mut self) -> bool {
        let stages = &self.stages;
        let room = |i: usize| stages.get(i + 1).is_none_or(|s| s.queue.len() < STAGE_QUEUE_DEPTH);
        let ready = |&i: &usize| !stages[i].state.awaiting() && !stages[i].queue.is_empty();
        let Some(i) = (0..stages.len()).find(|i| ready(i) && room(*i)) else { return false };
        let stage = &mut self.stages[i];
        let job = stage.queue.pop_front().expect("a ready stage holds a job");
        stage.depth.add(-1);
        if i == 0 {
            let _ = self.slots.try_recv();
        }
        // Whatever is recorded from here on is in this batch's causal chain.
        (stage.shell.batch, stage.shell.trace) = (job.batch, job.trace);
        if job.poisoned.is_some() {
            // An upstream stage failed it: passed through untouched.
            self.pass_on(i, job);
        } else {
            let inputs = stage.shell.runtime.inputs.iter();
            let inputs = inputs.map(|v| job.env.get(v).cloned().ok_or(*v)).collect();
            stage.shell.job = Some(job);
            self.feed(i, Event::Job { batch: self.stages[i].shell.batch, inputs });
        }
        true
    }

    /// Steps stage `i` through `event` and the send failures its dispatch
    /// runs into, then passes on the job it forwarded.
    fn feed(&mut self, i: usize, event: Event) {
        let Stage { state, shell, .. } = &mut self.stages[i];
        trace::set_current(shell.trace);
        step(state, event, shell);
        for failed in std::mem::take(&mut shell.send_failed) {
            step(state, failed, shell);
        }
        for request in shell.filed.drain(..) {
            self.recovery.as_mut().expect("only a recovering stage files").file(request);
        }
        if let Some((job, span)) = shell.forwarded.take() {
            self.pass_on(i, job);
            drop(span); // the span covers the hand-off
        }
    }

    /// Queues stage `i`'s finished job for the next stage or, from the
    /// last, answers it.
    fn pass_on(&mut self, i: usize, job: StageJob) {
        self.stages[i].shell.batch = job.batch + 1;
        match self.stages.get_mut(i + 1) {
            Some(next) => {
                next.depth.add(1);
                next.queue.push_back(job);
            }
            None => (job.reply)(job.poisoned.map_or(Ok(job.env), Err)),
        }
    }

    /// The stop: one drain window for every stage's async stragglers, then
    /// each stage's live variants are shut down. A recovery the drain filed
    /// is still carried out; no stopped stage adopts its replacement. The
    /// links drop with the monitor, so every variant exits.
    fn drain(mut self) {
        for i in 0..self.stages.len() {
            self.feed(i, Event::Stop);
        }
        let until = Instant::now() + DRAIN_WINDOW;
        while self.stages.iter().any(|s| s.state.owes_late_validation()) {
            let Some(left) = until.checked_duration_since(Instant::now()) else { break };
            if let Ok(inbound) = self.inbox.recv_timeout(left) {
                self.handle(inbound);
            }
        }
        let shutdown = encode(&StageRequest::Shutdown).expect("static message encodes");
        for i in 0..self.stages.len() {
            self.feed(i, Event::Deadline);
            let Stage { state, shell, .. } = &mut self.stages[i];
            let links = shell.runtime.links.iter_mut().enumerate();
            for (_, link) in links.filter(|(v, _)| state.is_live(*v)) {
                let _ = link.tx.send(&shutdown);
            }
        }
        while let Some(due) = self.recovery.as_ref().and_then(|r| r.state.due()) {
            let _ = self.inbox.recv_timeout(due.saturating_duration_since(Instant::now()));
            self.recover();
        }
    }
}

impl Shell {
    /// What a variant's message means to `step`; `None` for one from a
    /// link already reported lost, or replaced.
    fn event(&mut self, inbound: Inbound) -> Option<Event> {
        Some(match inbound {
            Inbound::Frame { at: (_, variant), epoch, frame }
                if self.listening[variant] == Some(epoch) =>
            {
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
            Inbound::Closed { at: (_, variant), epoch } if self.listening[variant] == Some(epoch) => {
                self.link_lost(variant, epoch)
            }
            _ => return None,
        })
    }

    /// Stops listening to a variant's response link; the crash it means
    /// is attributed to the job in hand, or the one taken next.
    fn link_lost(&mut self, variant: usize, epoch: u64) -> Event {
        self.listening[variant] = None;
        Event::Disconnected { variant, epoch, batch: self.batch }
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
                self.trace = span.ctx();
                trace::set_current(self.trace);
                let request = StageRequest::Input { batch, trace: self.trace.as_pair(), tensors };
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
                if let Some(path) = path {
                    (if path == Path::Fast { &self.fast_path } else { &self.slow_path }).inc();
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
                self.forwarded = Some((job, span));
            }
            Action::Record(event) => self.events.record(event),
            Action::Transcript(entry) => self.runtime.transcript.record(entry),
            Action::Recover { variant, epoch, reason, resync } => {
                let partition = self.runtime.partition;
                self.filed.push(RecoveryRequest { partition, variant, epoch, reason, resync });
            }
            Action::Adopt { variant } => {
                let Some((link, epoch)) = self.offered.take() else { return };
                self.runtime.links[variant] = link;
                self.listening[variant] = Some(epoch);
            }
        }
    }
}

/// A running monitor: where jobs go in, and the thread that answers them.
pub struct MonitorHandle {
    inbox: Sender<Inbound>,
    /// The first stage's `STAGE_QUEUE_DEPTH` job slots and depth gauge.
    slots: SyncSender<()>,
    depth: Gauge,
    thread: JoinHandle<()>,
}

impl MonitorHandle {
    /// Hands `job` to the first stage, counted on its queue-depth gauge
    /// until the stage takes it; blocks while that stage holds
    /// `STAGE_QUEUE_DEPTH` jobs. `false`: the monitor is gone, the job
    /// dropped unanswered and the count taken back.
    pub fn submit(&self, job: StageJob) -> bool {
        self.depth.add(1);
        let sent = self.slots.send(()).is_ok() && self.inbox.send(Inbound::Job(job)).is_ok();
        if !sent {
            self.depth.add(-1);
        }
        sent
    }

    /// Stops the monitor once every job handed in is answered and every
    /// recovery filed is carried out; its links drop with it. `Err`: the
    /// monitor thread panicked.
    pub fn stop(self) -> std::thread::Result<()> {
        let _ = self.inbox.send(Inbound::Stop);
        self.thread.join()
    }
}

/// Spawns the `monitor` thread over `runtimes`, stage `i` running
/// partition `i`, with `inbox` the channel their variants' response ports
/// send into. With `recovery`, the loop re-provisions quarantined
/// variants; without, they are dropped for good.
pub fn spawn_monitor(
    runtimes: Vec<StageRuntime>,
    policy: StagePolicy,
    metrics: Vec<Metric>,
    events: EventLog,
    (sender, inbox): (Sender<Inbound>, Receiver<Inbound>),
    recovery: Option<RecoveryContext>,
) -> MonitorHandle {
    assert!(!runtimes.is_empty(), "pipeline needs at least one stage");
    assert_eq!(metrics.len(), runtimes.len(), "one metric per stage");
    // Jobs handed to stage `P` and not yet taken, a blocked submitter's
    // included; every replica's stage `P` counts into the same gauge.
    let depth = |p: usize| mvtee_telemetry::gauge(&format!("core.pipeline.p{p}.queue_depth"));
    let stages = (runtimes.into_iter().zip(metrics).enumerate())
        .map(|(p, (runtime, metric))| {
            assert_eq!(runtime.partition, p, "stage {p} runs partition {p}");
            let (variants, outputs) = (runtime.links.len(), runtime.outputs.len());
            let (slow, recovery) = (runtime.slow, recovery.is_some());
            let config = StageConfig { partition: p, variants, outputs, slow, recovery, policy, metric };
            let latency = format!("core.pipeline.p{p}.checkpoint_latency_ns");
            let shell = Shell {
                runtime,
                metric,
                listening: vec![Some(0); variants],
                events: events.clone(),
                checkpoint_latency: mvtee_telemetry::histogram(&latency),
                fast_path: mvtee_telemetry::counter("core.voting.fast_path"),
                slow_path: mvtee_telemetry::counter("core.voting.slow_path"),
                span_name: format!("core.p{p}.checkpoint"),
                track: format!("p{p}"),
                job: None,
                batch: 0,
                trace: TraceCtx::NONE,
                checkpoint: None,
                send_failed: Vec::new(),
                filed: Vec::new(),
                offered: None,
                forwarded: None,
            };
            Stage { state: StageState::new(config), shell, queue: VecDeque::new(), depth: depth(p) }
        })
        .collect();
    let (slots, taken) = sync_channel(STAGE_QUEUE_DEPTH);
    let monitor = Monitor {
        stages,
        inbox,
        slots: taken,
        deadline: policy.deadline,
        stopping: false,
        recovery: recovery.map(Recovery::new),
        parked: None,
    };
    let thread = std::thread::Builder::new()
        .name("monitor".into())
        .spawn(move || monitor.run())
        .expect("thread spawn cannot fail");
    MonitorHandle { inbox: sender, slots, depth: depth(0), thread }
}

#[cfg(test)]
mod tests {
    //! Shell smoke tests over real threads and links. A stage's decisions
    //! are tested (and enumerated) in [`crate::stage`].

    use super::*;
    use crate::events::MonitorEvent;
    use crate::link::{link_pair, DataLink, ResponsePort};
    use mvtee_crypto::channel::Role;
    use std::sync::mpsc::channel;

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

    fn fake_stage(
        partition: usize,
        behaviours: &[Behaviour],
        slow: bool,
        inbox: &Sender<Inbound>,
    ) -> StageRuntime {
        let links = behaviours
            .iter()
            .enumerate()
            .map(|(v, &b)| fake_variant(b, ResponsePort::new(inbox.clone(), (partition, v), 0)))
            .collect();
        // Stage `p` consumes value `p` and emits value `p + 1`.
        StageRuntime {
            partition,
            links,
            inputs: vec![ValueId(partition)],
            outputs: vec![ValueId(partition + 1)],
            needed_downstream: HashSet::from([ValueId(partition + 1)]),
            slow,
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
        let (inbox, responses) = channel();
        let runtime = fake_stage(0, &[Behaviour::Echo, Behaviour::Echo, chatter], true, &inbox);
        let (out_tx, out_rx) = channel::<Answer>();
        let events = EventLog::new();
        let p = policy(ResponsePolicy::ContinueWithMajority, deadline);
        let inbox = (inbox, responses);
        let monitor = spawn_monitor(vec![runtime], p, vec![Metric::strict()], events.clone(), inbox, None);

        assert!(monitor.submit(job(0, 1.0, &out_tx)), "sends");
        let healthy = out_rx.recv_timeout(Duration::from_secs(10)).expect("result");
        assert!(healthy.is_ok());

        let start = Instant::now();
        assert!(monitor.submit(job(1, 2.0, &out_tx)), "sends");
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
        assert!(monitor.submit(job(2, 3.0, &out_tx)), "sends");
        let after = out_rx.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(after.expect("answered")[&ValueId(1)].data(), &[3.0; 4]);
        monitor.stop().expect("joins");
    }

    #[test]
    fn pipeline_of_two_stages_chains_jobs() {
        let (inbox, responses) = channel();
        let stages = vec![
            fake_stage(0, &[Behaviour::Echo], false, &inbox),
            fake_stage(1, &[Behaviour::Echo], false, &inbox),
        ];
        let events = EventLog::new();
        let monitor = spawn_monitor(
            stages,
            policy(ResponsePolicy::Halt, Duration::from_secs(30)),
            vec![Metric::strict(), Metric::strict()],
            events.clone(),
            (inbox, responses),
            None,
        );
        let (answers, answered) = channel::<Answer>();
        assert!(monitor.submit(job(0, 6.0, &answers)));
        let result = answered.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(result.expect("answered")[&ValueId(2)].data(), &[6.0; 4]);
        // A job an upstream stage failed passes through every stage
        // untouched and unaudited.
        let poisoned =
            StageJob { poisoned: Some("upstream failure".into()), ..job(1, 7.0, &answers) };
        assert!(monitor.submit(poisoned));
        let result = answered.recv_timeout(Duration::from_secs(10)).expect("result");
        assert_eq!(result.err().as_deref(), Some("upstream failure"));
        assert!(events.is_empty());
        // A stop right behind a run of jobs answers every one of them.
        for b in 2..8 {
            assert!(monitor.submit(job(b, b as f32, &answers)));
        }
        let _ = monitor.stop();
        let values: Vec<f32> = std::iter::from_fn(|| answered.try_recv().ok())
            .map(|a| a.expect("answered")[&ValueId(2)].data()[0])
            .collect();
        assert_eq!(values, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    /// Holds a fake variant's answers until released, counting the
    /// requests it has been sent.
    #[derive(Default)]
    struct Gate {
        requests: std::sync::atomic::AtomicUsize,
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl Gate {
        fn requests(&self) -> usize {
            self.requests.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    /// An echoing fake variant that answers nothing until `gate` opens.
    fn held_variant(gate: std::sync::Arc<Gate>, port: ResponsePort) -> VariantLink {
        let (req_monitor, req_variant) = link_pair(false, b"", 0);
        std::thread::spawn(move || {
            let mut rx = req_variant;
            let mut tx = DataLink::plain(port);
            while let Ok(frame) = rx.recv() {
                let Ok(StageRequest::Input { batch, tensors, .. }) = decode(&frame) else { break };
                gate.requests.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut open = gate.open.lock().unwrap();
                while !*open {
                    open = gate.opened.wait(open).unwrap();
                }
                drop(open);
                let frame = encode(&StageResponse::Output { batch, tensors }).expect("encodes");
                if tx.send(&frame).is_err() {
                    return;
                }
            }
        });
        let rx = DataLink::inbound(false, b"", Role::Initiator, 1);
        VariantLink { tx: req_monitor, rx, description: "held".into() }
    }

    /// Polls `f` until it holds or ten seconds pass.
    fn eventually(f: impl Fn() -> bool) -> bool {
        let until = Instant::now() + Duration::from_secs(10);
        while !f() && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(5));
        }
        f()
    }

    /// With every answer held, the submitter blocks once the first stage
    /// holds `STAGE_QUEUE_DEPTH` jobs behind the one in flight; with only
    /// the second stage's held, its queue fills to the bound and no
    /// further (a stage blocked handing one more over counts as holding
    /// it). Opened, every job is answered in order.
    #[test]
    fn back_pressure_bounds_every_stage_queue() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let gates = [Arc::new(Gate::default()), Arc::new(Gate::default())];
        let (inbox, responses) = channel();
        let stages = (0..2)
            .map(|p| {
                let port = ResponsePort::new(inbox.clone(), (p, 0), 0);
                StageRuntime {
                    links: vec![held_variant(Arc::clone(&gates[p]), port)],
                    ..fake_stage(p, &[], false, &inbox)
                }
            })
            .collect();
        let policy = policy(ResponsePolicy::Halt, Duration::from_secs(600));
        let metrics = vec![Metric::strict(), Metric::strict()];
        let inbox = (inbox, responses);
        let monitor = Arc::new(spawn_monitor(stages, policy, metrics, EventLog::new(), inbox, None));
        let jobs = 3 * STAGE_QUEUE_DEPTH;
        let submitted = Arc::new(AtomicUsize::new(0));
        let (answers, answered) = channel::<Answer>();
        let submitter = std::thread::spawn({
            let (monitor, submitted) = (Arc::clone(&monitor), Arc::clone(&submitted));
            move || {
                for b in 0..jobs {
                    assert!(monitor.submit(job(b as u64, b as f32, &answers)));
                    submitted.fetch_add(1, Ordering::SeqCst);
                }
            }
        });

        // One job in flight at the first stage, the bound queued behind it.
        let first_full = 1 + STAGE_QUEUE_DEPTH;
        assert!(eventually(|| submitted.load(Ordering::SeqCst) == first_full));
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(submitted.load(Ordering::SeqCst), first_full, "the submitter blocks");
        assert_eq!((gates[0].requests(), gates[1].requests()), (1, 0));

        // The first stage drains into the second until that one is full.
        gates[0].open();
        let second = || gates[0].requests() - gates[1].requests();
        assert!(eventually(|| gates[1].requests() == 1 && second() >= STAGE_QUEUE_DEPTH));
        std::thread::sleep(Duration::from_millis(200));
        assert!(second() <= STAGE_QUEUE_DEPTH + 1, "second stage holds {}", second());
        assert_eq!(gates[1].requests(), 1);

        gates[1].open();
        submitter.join().expect("every job submitted");
        let monitor = Arc::into_inner(monitor).expect("the submitter is done");
        let _ = monitor.stop();
        let values: Vec<f32> = std::iter::from_fn(|| answered.try_recv().ok())
            .map(|a| a.expect("answered")[&ValueId(2)].data()[0])
            .collect();
        assert_eq!(values, (0..jobs).map(|b| b as f32).collect::<Vec<_>>());
    }
}
