//! Recovery: closes the detect→react loop.
//!
//! Detection alone (PR 2's campaign engine) leaves a deployment that
//! permanently degrades on the first fault: a crashed or divergent
//! variant is dropped and later batches "continue with survivors"
//! forever, quietly shrinking the panel until the security guarantee
//! becomes a fast path. Recovery restores full panel strength
//! mid-stream, on the replica's `monitor` loop itself:
//!
//! 1. a stage **quarantines** the offending variant (bumping its
//!    channel epoch so in-flight pre-quarantine frames are recognisably
//!    stale) and files a request carrying the last *verified* checkpoint
//!    payload,
//! 2. the loop **re-provisions** a replacement through the very
//!    function launch, updates and key rotation use
//!    (`Provisioner::bring_up` in `provision.rs`) — fresh sealed bundle
//!    under a fresh variant key, fresh enclave, full Fig 6
//!    re-attestation and re-binding (append-only, generation-scoped
//!    anti-fork ids) — with a retry budget and exponential backoff,
//! 3. the replacement serves a **probation** batch: within one
//!    checkpoint deadline it must reproduce the last verified checkpoint
//!    outputs under the partition's consistency metric,
//! 4. it answers probation into a channel of its own; on success its
//!    response port is re-pointed, once, at the monitor's inbox and the
//!    stage adopts its link before the loop reads that inbox again. It
//!    votes from the next batch on, without replaying batch history.
//!
//! Which request runs next, whether a slot is crash-looping, when a retry
//! is due and when to give up are `RecoveryState`'s decisions, a pure
//! state over the instants it is handed; `Recovery` runs its attempts.

use crate::config::RecoveryPolicy;
use crate::deployment::seal_artifact;
use crate::events::MonitorEvent;
use crate::link::{DataLink, ResponsePort, VariantLink};
use crate::messages::{decode, encode, StageRequest, StageResponse};
use crate::pipeline::Inbound;
use crate::provision::Provisioner;
use crate::variant_host::HostFaults;
use crate::{MvxError, Result};
use mvtee_diversify::{VariantGenerator, VariantId, VariantSpec};
use mvtee_graph::Graph;
use mvtee_telemetry::trace::{self, SpanGuard, TraceCtx};
use mvtee_tensor::metrics::Metric;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Width of the crash-loop detection window. A constant: no deployment
/// ever sized it — callers size the *budget* of deaths inside it.
const CRASH_LOOP_WINDOW: Duration = Duration::from_secs(10);

/// The newest checkpoint payload that verified (quorum or full
/// agreement): the resynchronisation point a recovered variant must
/// reproduce during probation before rejoining mid-stream.
#[derive(Debug, Clone)]
pub struct ResyncPoint {
    /// Batch id of the verified checkpoint.
    pub batch: u64,
    /// The stage inputs that produced it.
    pub inputs: Vec<mvtee_tensor::Tensor>,
    /// The verified stage outputs (the majority/agreed value).
    pub outputs: Vec<mvtee_tensor::Tensor>,
}

/// A stage's request to re-provision one quarantined variant: its slot,
/// the post-quarantine epoch the replacement answers under, why it was
/// quarantined, and the last verified checkpoint (`None`: nothing
/// verified yet, so the replacement rejoins without probation).
pub(crate) struct RecoveryRequest {
    pub partition: usize,
    pub variant: usize,
    pub epoch: u64,
    pub reason: String,
    pub resync: Option<ResyncPoint>,
}

/// Every re-provisioning decision of one replica: filed requests run one
/// at a time, oldest first, each judged against the crash-loop budget when
/// it reaches the head; a failed attempt is retried
/// [`RecoveryPolicy::backoff`] later, up to [`RecoveryPolicy::MAX_RETRIES`]
/// times. Each method takes the instant it acts at and returns the events
/// to record; nothing in it reads a clock, sleeps or spawns.
#[derive(Default)]
pub(crate) struct RecoveryState {
    /// More deaths of one slot than this inside the window abandon it;
    /// `0`: never.
    crash_loop_budget: u32,
    queue: VecDeque<RecoveryRequest>,
    /// Per slot, when its requests reached the head, inside the window.
    deaths: HashMap<(usize, usize), VecDeque<Instant>>,
    /// The head's attempts; `None` while the queue is empty.
    head: Option<Head>,
    /// Attempts started, ever: each replacement's recovery id.
    seq: u64,
}

/// The head request's next attempt, when it is due, when the request
/// reached the head (time to recovery counts from there) and why its last
/// attempt failed (before the first: why its variant was quarantined).
struct Head {
    attempt: u32,
    due: Instant,
    started: Instant,
    last_error: String,
}

impl RecoveryState {
    pub(crate) fn new(crash_loop_budget: u32) -> Self {
        RecoveryState { crash_loop_budget, ..Self::default() }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// When the head's next attempt is due.
    pub(crate) fn due(&self) -> Option<Instant> {
        self.head.as_ref().map(|head| head.due)
    }

    /// Files `request` at `now`, behind every request filed before it.
    pub(crate) fn file(&mut self, request: RecoveryRequest, now: Instant) -> Vec<MonitorEvent> {
        self.queue.push_back(request);
        self.advance(now)
    }

    /// The head's next attempt if it is due at `now`: the request, the
    /// replacement's recovery id, and `RecoveryStarted`.
    pub(crate) fn begin(&mut self, now: Instant) -> Option<(&RecoveryRequest, u64, MonitorEvent)> {
        let attempt = self.head.as_ref().filter(|head| head.due <= now)?.attempt;
        let request = self.queue.front().expect("a head is queued");
        self.seq += 1;
        let (partition, variant) = (request.partition, request.variant);
        Some((request, self.seq, MonitorEvent::RecoveryStarted { partition, variant, attempt }))
    }

    /// The attempt begun last ended at `now` with `result`. Returns how
    /// long a recovered request took from the head, and the events: none
    /// for a retry; else the request's end, then any crash-loop trips of
    /// the requests behind it.
    pub(crate) fn finish(
        &mut self,
        now: Instant,
        result: std::result::Result<(), String>,
    ) -> (Option<Duration>, Vec<MonitorEvent>) {
        let head = self.head.as_mut().expect("an attempt was begun");
        let request = self.queue.front().expect("a head is queued");
        let (partition, variant) = (request.partition, request.variant);
        let (healed_in, end) = match result {
            Ok(()) => (Some(now - head.started), MonitorEvent::Recovered { partition, variant }),
            Err(error) => {
                head.last_error = error;
                if head.attempt < RecoveryPolicy::MAX_RETRIES {
                    head.due = now + RecoveryPolicy::backoff(head.attempt);
                    head.attempt += 1;
                    return (None, Vec::new());
                }
                let (attempts, reason) = (head.attempt + 1, std::mem::take(&mut head.last_error));
                (None, MonitorEvent::RecoveryFailed { partition, variant, attempts, reason })
            }
        };
        self.queue.pop_front();
        self.head = None;
        let mut events = vec![end];
        events.extend(self.advance(now));
        (healed_in, events)
    }

    /// Judges each request that reaches the head at `now`, until one
    /// passes the crash-loop budget (its first attempt due at once) or
    /// none is left.
    fn advance(&mut self, now: Instant) -> Vec<MonitorEvent> {
        let mut tripped = Vec::new();
        while let (None, Some(request)) = (&self.head, self.queue.front()) {
            let (slot, last_error) = ((request.partition, request.variant), request.reason.clone());
            match self.crash_loop(slot, now) {
                Some(trip) => {
                    tripped.push(trip);
                    self.queue.pop_front();
                }
                None => self.head = Some(Head { attempt: 0, due: now, started: now, last_error }),
            }
        }
        tripped
    }

    /// A variant dying faster than it heals would otherwise respawn
    /// forever, soaking the retry budget and masking a persistent fault:
    /// once more than `crash_loop_budget` deaths land inside the window,
    /// the slot is abandoned to the degradation policy.
    fn crash_loop(&mut self, (partition, variant): (usize, usize), now: Instant) -> Option<MonitorEvent> {
        let budget = self.crash_loop_budget;
        if budget == 0 {
            return None;
        }
        let deaths = self.deaths.entry((partition, variant)).or_default();
        while deaths.front().is_some_and(|t| now - *t > CRASH_LOOP_WINDOW) {
            deaths.pop_front();
        }
        deaths.push_back(now);
        let reason = format!(
            "crash-loop budget exhausted: {} deaths inside {CRASH_LOOP_WINDOW:?} (budget {budget})",
            deaths.len()
        );
        (deaths.len() as u64 > u64::from(budget))
            .then_some(MonitorEvent::RecoveryFailed { partition, variant, attempts: 0, reason })
    }
}

/// What only recovery knows on top of the bring-up state it shares with
/// the deployment. Only a deployment builds one.
pub struct RecoveryContext {
    /// The running generation's bring-up state.
    pub(crate) provisioner: Arc<Provisioner>,
    /// Per-partition subgraphs: the clean copies, so a replacement never
    /// inherits a predecessor's sealed-memory faults.
    pub(crate) subgraphs: Vec<Graph>,
    /// Per-(partition, variant) base specs.
    pub(crate) specs: Vec<Vec<VariantSpec>>,
    /// See [`RecoveryPolicy::crash_loop_budget`].
    pub(crate) crash_loop_budget: u32,
    /// The platform-wide simulated faults (a CVE, a FrameFlip). They
    /// persist across re-provisioning — the host software stack does not
    /// change when an enclave restarts — whereas liveness and wire faults
    /// are transient: a fresh enclave gets a fresh channel.
    pub(crate) platform_faults: HostFaults,
    /// The monitor's inbox, where a replacement rejoins.
    pub(crate) inbox: Sender<Inbound>,
}

/// A replacement that passed probation: its `(partition, variant)`, epoch
/// and links, its port already pointing at the monitor's inbox.
pub(crate) type Rejoin = ((usize, usize), u64, VariantLink);

/// The monitor loop's half of recovery: runs the attempts its state
/// schedules and records what it decides.
pub(crate) struct Recovery {
    ctx: RecoveryContext,
    pub state: RecoveryState,
    /// The head request's `core.recovery` span, over all its attempts.
    span: Option<SpanGuard<'static>>,
    time_to_recovery: mvtee_telemetry::Histogram,
    crash_loop_trips: mvtee_telemetry::Counter,
}

impl Recovery {
    pub(crate) fn new(ctx: RecoveryContext) -> Self {
        Recovery {
            state: RecoveryState::new(ctx.crash_loop_budget),
            ctx,
            span: None,
            time_to_recovery: mvtee_telemetry::histogram("core.recovery.time_to_recovery_ns"),
            crash_loop_trips: mvtee_telemetry::counter("core.recovery.crash_loop_trips"),
        }
    }

    pub(crate) fn file(&mut self, request: RecoveryRequest) {
        let events = self.state.file(request, Instant::now());
        self.record(events);
    }

    /// Runs the head's attempt if it is due; returns the replacement if it
    /// passed probation, which `metric` (per partition) and `deadline`
    /// bound.
    pub(crate) fn run_due(&mut self, metric: impl Fn(usize) -> Metric, deadline: Duration) -> Option<Rejoin> {
        let (request, seq, started) = self.state.begin(Instant::now())?;
        let (at, epoch) = ((request.partition, request.variant), request.epoch);
        // Recovery work forms its own trace keyed by the quarantined
        // variant's coordinates and channel epoch; probation replay spans
        // nest under it via the ambient context.
        let span = self.span.get_or_insert_with(|| {
            let ctx = TraceCtx::for_recovery(at.0, at.1, epoch);
            let span = trace::recorder().span(ctx, "core.recovery", "recovery");
            span.arg("partition", at.0).arg("variant", at.1).arg("epoch", epoch)
        });
        trace::set_current(span.ctx());
        self.ctx.provisioner.events.record(started);
        let link = attempt_recovery(&self.ctx, request, seq, (metric(at.0), deadline));
        let result = link.as_ref().map(|_| ()).map_err(ToString::to_string);
        let (healed_in, events) = self.state.finish(Instant::now(), result);
        if !events.is_empty() {
            self.span = None; // the request is done with
        }
        if let Some(healed_in) = healed_in {
            self.time_to_recovery.record_duration(healed_in);
        }
        self.record(events);
        link.ok().map(|link| (at, epoch, link))
    }

    fn record(&self, events: Vec<MonitorEvent>) {
        for event in events {
            let tripped = matches!(event, MonitorEvent::RecoveryFailed { attempts: 0, .. });
            // Logged before it is counted: whoever sees the trip counted
            // finds its reason in the log.
            self.ctx.provisioner.events.record(event);
            if tripped {
                self.crash_loop_trips.inc();
            }
        }
    }
}

/// One re-provisioning attempt: seal a fresh bundle, bring a fresh
/// enclave up on probation, point its answers at the monitor's inbox.
fn attempt_recovery(
    ctx: &RecoveryContext,
    req: &RecoveryRequest,
    seq: u64,
    bound: (Metric, Duration),
) -> Result<VariantLink> {
    let (p, v) = (req.partition, req.variant);
    let provisioner = &ctx.provisioner;
    let mut spec = ctx.specs[p][v].clone();
    // Recovery ids live in their own generation-scoped space so they can
    // never collide with launch ids (p*1000+v) or update ids
    // ((gen+1)*1_000_000 + …) under the anti-fork uniqueness check.
    spec.id = VariantId(900_000_000 + provisioner.generation * 1_000_000 + seq);
    let generator = VariantGenerator::new(spec.id.0 ^ 0x5eed_4eca);
    let artifact = seal_artifact(
        &provisioner.init_code,
        &ctx.subgraphs[p],
        &generator,
        p,
        &spec,
        format!("/enc/p{p}/v{v}/r{seq}"),
        &format!("p{p}-v{v}-recovered-{seq}"),
    )?;
    // It answers probation into a channel of its own, and the stage only
    // once re-pointed. It sends only what it is asked: no frame falls
    // between.
    let (private, answers) = channel();
    let port = ResponsePort::new(private, (p, v), req.epoch);
    let repoint = port.repoint_handle();
    let faults = ctx.platform_faults.clone();
    let on_probation = |tx: &mut _, rx: &mut _| probation(req, bound, tx, rx, &answers);
    let mut link = provisioner.bring_up((p, v), &artifact, faults, None, port, on_probation)?;
    link.description.push_str(" (recovered)");
    let gone = || MvxError::Transport("replacement gone before rejoin".into());
    repoint.to(ctx.inbox.clone()).then_some(link).ok_or_else(gone)
}

/// Probation: replay the last verified checkpoint inputs and demand the
/// verified outputs back (on `answers`, within `deadline`) under `metric`
/// before the replacement is allowed to vote on live traffic. Nothing
/// verified yet: the freshly attested variant rejoins directly.
fn probation(
    req: &RecoveryRequest,
    (metric, deadline): (Metric, Duration),
    tx: &mut DataLink,
    rx: &mut DataLink,
    answers: &Receiver<Inbound>,
) -> Result<()> {
    let (p, v) = (req.partition, req.variant);
    let Some(resync) = &req.resync else { return Ok(()) };
    tx.send(&encode(&StageRequest::Input {
        batch: resync.batch,
        trace: trace::current().as_pair(),
        tensors: resync.inputs.clone(),
    })?)?;
    let Ok(Inbound::Frame { frame, .. }) = answers.recv_timeout(deadline) else {
        let why = format!("probation failed: p{p}v{v} hung up or stayed silent for {deadline:?}");
        return Err(MvxError::Transport(why));
    };
    let failure = match decode::<StageResponse>(&rx.open(frame)?)? {
        StageResponse::Output { tensors, .. }
            if tensors.len() == resync.outputs.len()
                && tensors.iter().zip(&resync.outputs).all(|(a, b)| metric.check(a, b)) =>
        {
            return Ok(())
        }
        StageResponse::Output { .. } => {
            format!("diverged from the verified checkpoint at batch {}", resync.batch)
        }
        StageResponse::Crashed { reason, .. } => format!("crashed: {reason}"),
    };
    Err(MvxError::Tee(format!("probation failed: replacement p{p}v{v} {failure}")))
}

#[cfg(test)]
mod tests {
    //! [`RecoveryState`] driven by explicit instants: no clock, no thread.

    use super::*;

    fn request(partition: usize, variant: usize) -> RecoveryRequest {
        RecoveryRequest { partition, variant, epoch: 1, reason: "quarantined".into(), resync: None }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Begins the head's attempt at `now`: its slot and attempt number.
    fn begin(state: &mut RecoveryState, now: Instant) -> Option<(usize, usize, u32)> {
        state.begin(now).map(|(_, _, started)| match started {
            MonitorEvent::RecoveryStarted { partition, variant, attempt } => (partition, variant, attempt),
            other => panic!("began with {other:?}"),
        })
    }

    /// Each request's end, in order: its slot and, if it was given up, its
    /// attempt count.
    fn ends(events: &[MonitorEvent]) -> Vec<(usize, usize, Option<u32>)> {
        let end = |e: &MonitorEvent| match *e {
            MonitorEvent::Recovered { partition, variant } => (partition, variant, None),
            MonitorEvent::RecoveryFailed { partition, variant, attempts, .. } => (partition, variant, Some(attempts)),
            ref other => panic!("unexpected {other:?}"),
        };
        events.iter().map(end).collect()
    }

    /// More than `budget` deaths of one slot inside the window trip the
    /// budget; deaths older than the window no longer count, and another
    /// slot's deaths never do.
    #[test]
    fn budget_plus_one_deaths_inside_the_window_trip_it_and_older_ones_expire() {
        let t0 = Instant::now();
        let secs = |s: u64| t0 + Duration::from_secs(s);
        let mut state = RecoveryState::new(2);
        for (slot, at) in [((1, 0), secs(0)), ((1, 0), secs(1)), ((0, 0), secs(2))] {
            assert!(state.file(request(slot.0, slot.1), at).is_empty(), "inside the budget");
            assert_eq!(begin(&mut state, at), Some((slot.0, slot.1, 0)));
            assert_eq!(ends(&state.finish(at, Ok(())).1), [(slot.0, slot.1, None)]);
        }
        let tripped = state.file(request(1, 0), secs(2));
        assert_eq!(ends(&tripped), [(1, 0, Some(0))], "the third death inside ten seconds");
        assert!(matches!(&tripped[0], MonitorEvent::RecoveryFailed { reason, .. } if reason.contains("crash-loop")));
        assert!(state.is_empty() && state.due().is_none(), "a tripped request is dropped");
        // At 11.5 s the deaths at 0 s and 1 s have left the window; the
        // tripped one at 2 s is still in it, and one more fits the budget.
        let later = t0 + ms(11_500);
        assert!(state.file(request(1, 0), later).is_empty());
        assert_eq!(begin(&mut state, later), Some((1, 0, 0)));
    }

    /// A failed attempt is retried 25, 50 and 100 ms after it failed, and
    /// not a moment sooner.
    #[test]
    fn retries_fall_due_25_50_and_100_ms_after_each_failure() {
        let mut now = Instant::now();
        let mut state = RecoveryState::new(0);
        assert!(state.file(request(1, 0), now).is_empty());
        assert_eq!(state.due(), Some(now));
        for (attempt, backoff) in [(0, 25), (1, 50), (2, 100)] {
            assert_eq!(begin(&mut state, now), Some((1, 0, attempt)));
            now += ms(3); // the attempt's own run time
            assert_eq!(state.finish(now, Err(format!("attempt {attempt}"))), (None, Vec::new()));
            assert_eq!(state.due(), Some(now + ms(backoff)));
            assert!(begin(&mut state, now + ms(backoff - 1)).is_none(), "due early");
            now += ms(backoff);
        }
        assert_eq!(begin(&mut state, now), Some((1, 0, 3)));
    }

    /// One attempt at a time, first filed first: a second slot's request
    /// waits out the first slot's backoff, however ready it is.
    #[test]
    fn a_second_slots_request_waits_behind_the_first_slots_backoff() {
        let t0 = Instant::now();
        let mut state = RecoveryState::new(0);
        assert!(state.file(request(1, 0), t0).is_empty());
        assert!(state.file(request(1, 2), t0).is_empty());
        assert_eq!(begin(&mut state, t0), Some((1, 0, 0)));
        assert!(state.finish(t0, Err("no".into())).1.is_empty());
        assert!(begin(&mut state, t0 + ms(24)).is_none(), "the second slot jumped the queue");
        assert_eq!(begin(&mut state, t0 + ms(25)), Some((1, 0, 1)));
        let (healed_in, events) = state.finish(t0 + ms(30), Ok(()));
        assert_eq!(healed_in, Some(ms(30)), "timed from the head");
        assert_eq!(ends(&events), [(1, 0, None)]);
        assert_eq!(state.due(), Some(t0 + ms(30)), "the next request reaches the head");
        assert_eq!(begin(&mut state, t0 + ms(30)), Some((1, 2, 0)));
    }

    /// `MAX_RETRIES + 1` failed attempts give the request up with the
    /// last attempt's error; the replacement ids keep counting.
    #[test]
    fn recovery_fails_after_max_retries_plus_one_attempts_with_the_last_error() {
        let mut now = Instant::now();
        let mut state = RecoveryState::new(0);
        assert!(state.file(request(0, 2), now).is_empty());
        let attempts = RecoveryPolicy::MAX_RETRIES + 1;
        let mut events = Vec::new();
        for attempt in 0..attempts {
            now = now.max(state.due().expect("the request is still queued"));
            assert_eq!(state.begin(now).expect("due").1, u64::from(attempt) + 1);
            events = state.finish(now, Err(format!("error {attempt}"))).1;
        }
        let reason = format!("error {}", attempts - 1);
        assert_eq!(events, [MonitorEvent::RecoveryFailed { partition: 0, variant: 2, attempts, reason }]);
        assert!(state.is_empty() && state.due().is_none());
    }

    /// The loop stops only once the state is empty, so every request filed
    /// before a stop still gets its outcome: while anything is queued an
    /// attempt is due at some instant, and requests end in filing order —
    /// a crash-looping one at the head too.
    #[test]
    fn a_stop_still_drains_the_queue() {
        let mut now = Instant::now();
        let mut state = RecoveryState::new(1);
        let mut events = Vec::new();
        for (p, v) in [(1, 0), (1, 1), (1, 0), (0, 0)] {
            events.extend(state.file(request(p, v), now));
        }
        // Stopping now: drive the queue until it is empty, nothing filed.
        for _ in 0..100 {
            if state.is_empty() {
                break;
            }
            now = now.max(state.due().expect("a queued request is always due at some instant"));
            let failing = state.begin(now).expect("due").0.variant == 1;
            events.extend(state.finish(now, if failing { Err("down".into()) } else { Ok(()) }).1);
        }
        let given_up = Some(RecoveryPolicy::MAX_RETRIES + 1);
        assert_eq!(ends(&events), [(1, 0, None), (1, 1, given_up), (1, 0, Some(0)), (0, 0, None)]);
    }
}
