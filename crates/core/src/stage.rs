//! The stage coordinator's decisions as a pure state machine (§4.3).
//!
//! [`StageState`] is what one partition's monitor remembers between events
//! and [`step`] its only transition. `step` reads no clock and touches no
//! channel, log or telemetry handle: the shell in [`crate::pipeline`] turns
//! channel traffic and timeouts into [`Event`]s and performs the
//! [`Action`]s handed to its [`Sink`], in order. A verdict is thus a
//! function of event order alone, which the tests enumerate.

use crate::config::{DegradationPolicy, ExecMode, ResponsePolicy};
use crate::events::MonitorEvent;
use crate::pipeline::StagePolicy;
use crate::recovery::ResyncPoint;
use crate::transcript::{payload_digest, TranscriptEntry, TranscriptVerdict};
use crate::voting::{evaluate, has_quorum, VariantOutput, Verdict};
use mvtee_graph::ValueId;
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;
use std::collections::{BTreeMap, HashSet};

/// What the shell observed.
pub(crate) enum Event {
    /// A job came off the queue (every waiting response event was fed
    /// first) with these stage inputs, or lacking this boundary value.
    Job { batch: u64, inputs: Result<Vec<Tensor>, ValueId> },
    /// A variant answered for `batch` on its channel of `epoch`.
    Reply { variant: usize, epoch: u64, batch: u64, output: VariantOutput },
    /// A dispatch found `variant`'s request link closed.
    SendFailed { variant: usize, link: String },
    /// The response channel of `epoch` died; the crash is attributed to
    /// `batch`, the job the shell holds (in flight or just dequeued).
    Disconnected { variant: usize, epoch: u64, batch: u64 },
    /// The monitor's recovery offers a probation-passed replacement.
    Recovered { variant: usize, epoch: u64 },
    /// The timed wait ran out: the in-flight checkpoint's deadline or,
    /// after [`Event::Stop`], the drain window.
    Deadline,
    /// No more jobs will come; what follows is the shutdown drain.
    Stop,
}

/// What the shell must do, in the order handed over.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Open the checkpoint and send `tensors` to the variants in `to`.
    Dispatch { batch: u64, to: Vec<usize>, tensors: Vec<Tensor> },
    /// Pass the held job downstream with the selected outputs or a poison.
    /// `path`: how a checkpoint completed; `None` if none did.
    Forward { result: Result<Vec<Tensor>, String>, path: Option<Path> },
    /// Append to the audit event log / the audit transcript.
    Record(MonitorEvent),
    Transcript(TranscriptEntry),
    /// File a request to re-provision a quarantined variant.
    Recover { variant: usize, epoch: u64, reason: String, resync: Option<ResyncPoint> },
    /// Install the link the current [`Event::Recovered`] offers.
    Adopt { variant: usize },
}

/// The voting path a completed checkpoint took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    Fast,
    Slow,
}

/// Batches whose async late-validation state is retained while stragglers
/// are outstanding; beyond it the oldest entry is dropped (and audited).
/// A constant: no caller ever sized it.
const LATE_VALIDATION_WINDOW: usize = 256;

/// Receives [`step`]'s actions.
pub(crate) trait Sink {
    fn act(&mut self, action: Action);
}

/// The per-stage constants `step` decides under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageConfig {
    pub partition: usize,
    pub variants: usize,
    /// Number of outputs a selected result must have.
    pub outputs: usize,
    pub slow: bool,
    /// Recovery is on: quarantines are audited and filed.
    pub recovery: bool,
    pub policy: StagePolicy,
    pub metric: Metric,
}

#[derive(Clone)]
struct InFlight {
    batch: u64,
    /// Variants the batch went out to, ascending (the voting order).
    live: Vec<usize>,
    /// Votes in so far, by variant index.
    arrived: Vec<Option<VariantOutput>>,
    /// Degraded fall-through: first healthy output wins, unvoted.
    fallthrough: bool,
    /// The dispatched inputs (kept only with recovery): half of the
    /// resync point a verified checkpoint becomes.
    resync_inputs: Option<Vec<Tensor>>,
}

#[derive(Clone)]
struct Outstanding {
    chosen: Vec<Tensor>,
    remaining: HashSet<usize>,
}

/// One partition's monitor state.
#[derive(Clone)]
pub(crate) struct StageState {
    cfg: StageConfig,
    dead: Vec<bool>,
    /// Per-variant channel epoch: quarantine bumps it, so frames still in
    /// flight from the abandoned channel are recognisably stale.
    epochs: Vec<u64>,
    in_flight: Option<InFlight>,
    /// Async quorum forwards whose stragglers have not all answered.
    outstanding: BTreeMap<u64, Outstanding>,
    /// Async-mode reaction deferred to the earliest next checkpoint.
    pending_reaction: Option<String>,
    /// Inputs + outputs of the newest checkpoint that verified — what a
    /// replacement must reproduce in probation before it rejoins.
    last_verified: Option<ResyncPoint>,
    stopping: bool,
    /// The current step's actions (one buffer, reused).
    out: Vec<Action>,
}

/// Advances the state by one event and hands every effect to `sink`.
pub(crate) fn step(state: &mut StageState, event: Event, sink: &mut impl Sink) {
    state.handle(event);
    state.try_complete();
    state.out.drain(..).for_each(|action| sink.act(action));
}

impl StageState {
    pub(crate) fn new(cfg: StageConfig) -> Self {
        StageState {
            cfg,
            dead: vec![false; cfg.variants],
            epochs: vec![0; cfg.variants],
            in_flight: None,
            outstanding: BTreeMap::new(),
            pending_reaction: None,
            last_verified: None,
            stopping: false,
            out: Vec::new(),
        }
    }

    pub(crate) fn awaiting(&self) -> bool {
        self.in_flight.is_some()
    }

    pub(crate) fn owes_late_validation(&self) -> bool {
        !self.outstanding.is_empty()
    }

    pub(crate) fn is_live(&self, variant: usize) -> bool {
        !self.dead[variant]
    }

    fn record(&mut self, event: MonitorEvent) {
        self.out.push(Action::Record(event));
    }

    fn respond(&mut self, action: String) {
        self.record(MonitorEvent::ResponseTaken { partition: self.cfg.partition, action });
    }

    fn poison(&mut self, reason: String) {
        self.out.push(Action::Forward { result: Err(reason), path: None });
    }

    fn handle(&mut self, event: Event) {
        let partition = self.cfg.partition;
        match event {
            Event::Job { batch, inputs } => self.admit(batch, inputs),
            Event::Reply { variant, epoch, batch, output } => {
                if epoch != self.epochs[variant] {
                    return; // stale pre-quarantine frame
                }
                match &mut self.in_flight {
                    Some(f) if f.batch == batch => f.arrived[variant] = Some(output),
                    _ => self.late_cross_validate(batch, variant, output),
                }
            }
            Event::SendFailed { variant, link } => {
                let Some(f) = &mut self.in_flight else { return };
                f.live.retain(|&v| v != variant);
                let (batch, now) = (f.batch, f.live.len());
                let reason = format!("request channel closed ({link})");
                self.record(MonitorEvent::VariantCrashed { partition, variant, batch, reason });
                self.quarantine(variant, batch, "request channel closed");
                // `Strict` runs no batch below strength, however late the
                // loss is discovered: the survivors' answers go unvoted.
                let strict = self.cfg.policy.degradation == DegradationPolicy::Strict;
                if strict && self.cfg.slow && self.cfg.variants > 1 && now > 0 {
                    self.in_flight = None;
                    self.fail_below_strength(batch, now);
                }
            }
            Event::Disconnected { variant, epoch, batch } => {
                if epoch != self.epochs[variant] {
                    return; // the abandoned channel died, as expected
                }
                let gone = || VariantOutput::Crashed("disconnected".into());
                if !self.stopping {
                    self.crashed(variant, batch, "response channel closed");
                    if let Some(f) = &mut self.in_flight {
                        f.arrived[variant].get_or_insert_with(gone);
                    }
                }
                // It will never deliver the late answers it still owed.
                let owes = |o: &Outstanding| o.remaining.contains(&variant);
                let owed: Vec<u64> =
                    self.outstanding.iter().filter(|(_, o)| owes(o)).map(|(&b, _)| b).collect();
                for b in owed {
                    self.late_cross_validate(b, variant, gone());
                }
            }
            Event::Recovered { variant, epoch } => {
                // Votes from the next dispatch on; too late during shutdown.
                if !self.stopping && epoch == self.epochs[variant] && self.dead[variant] {
                    self.dead[variant] = false;
                    self.out.push(Action::Adopt { variant });
                }
            }
            Event::Deadline if self.stopping => {
                if let Some(detail) = self.pending_reaction.take() {
                    self.respond(format!("late-dissent reaction at shutdown: {detail}"));
                }
            }
            Event::Deadline => {
                // Watchdog: a hung variant escalates to late dissent and
                // quarantine, and votes as a crash.
                let Some(mut f) = self.in_flight.take() else { return };
                let batch = f.batch;
                for &variant in &f.live {
                    if f.arrived[variant].is_none() {
                        self.record(MonitorEvent::LateDissent { partition, batch, variant });
                        self.quarantine(variant, batch, "checkpoint deadline exceeded");
                        let late = VariantOutput::Crashed("checkpoint deadline exceeded".into());
                        f.arrived[variant] = Some(late);
                    }
                }
                self.in_flight = Some(f);
            }
            Event::Stop => self.stopping = true,
        }
    }

    /// `Strict`: fails `batch` instead of voting it on `now` variants.
    fn fail_below_strength(&mut self, batch: u64, now: usize) {
        let (full, partition) = (self.cfg.variants, self.cfg.partition);
        self.respond(format!(
            "strict degradation: failing batch {batch} with panel below strength ({now}/{full})"
        ));
        self.poison(format!("panel below strength at partition {partition} ({now}/{full})"));
    }

    /// Job admission: deferred reaction, degradation policy, dispatch.
    fn admit(&mut self, batch: u64, inputs: Result<Vec<Tensor>, ValueId>) {
        if let Some(detail) = self.pending_reaction.take() {
            self.respond(format!("late-dissent reaction: {detail}"));
            if self.cfg.policy.response == ResponsePolicy::Halt {
                return self.poison(format!("halted after late dissent: {detail}"));
            }
        }
        let tensors = match inputs {
            Ok(tensors) => tensors,
            Err(v) => return self.poison(format!("missing boundary value {v}")),
        };
        // Below strength: a member is quarantined and not yet recovered.
        let live: Vec<usize> = (0..self.cfg.variants).filter(|&v| !self.dead[v]).collect();
        let (now, full) = (live.len(), self.cfg.variants);
        let mut fallthrough = false;
        if self.cfg.slow && full > 1 && now > 0 && now < full {
            match self.cfg.policy.degradation {
                DegradationPolicy::Strict => return self.fail_below_strength(batch, now),
                DegradationPolicy::Degrade => {}
                DegradationPolicy::FastPathFallback => {
                    fallthrough = true;
                    self.respond(format!(
                        "fast-path fallback: batch {batch} forwarded unvoted with panel below strength ({now}/{full})"
                    ));
                }
            }
        }
        self.in_flight = Some(InFlight {
            batch,
            live: live.clone(),
            arrived: vec![None; full],
            fallthrough,
            resync_inputs: self.cfg.recovery.then(|| tensors.clone()),
        });
        self.out.push(Action::Dispatch { batch, to: live, tensors });
    }

    /// Closes the in-flight checkpoint if the votes in so far allow it.
    fn try_complete(&mut self) {
        let Some(mut f) = self.in_flight.take() else { return };
        if f.live.is_empty() {
            self.respond("halt: no live variants".into());
            return self.poison("all variants dead".into());
        }
        let all_in = f.live.iter().all(|&v| f.arrived[v].is_some());
        let is_async = self.cfg.policy.exec == ExecMode::AsyncCrossValidation;
        let quorum_exit = is_async && self.cfg.slow && f.live.len() > 1;
        let done = if f.fallthrough {
            let healthy =
                f.live.iter().find(|&&v| matches!(f.arrived[v], Some(VariantOutput::Ok(_))));
            match healthy.and_then(|&v| f.arrived[v].take()) {
                Some(VariantOutput::Ok(t)) => Some(Some(t)),
                _ => all_in.then_some(None),
            }
        } else if all_in {
            Some(self.vote(&mut f))
        } else if quorum_exit {
            self.async_quorum(&mut f).map(Some)
        } else {
            None
        };
        let Some(selected) = done else {
            self.in_flight = Some(f);
            return;
        };
        let path = if f.fallthrough || !self.cfg.slow { Path::Fast } else { Path::Slow };
        let (want, partition) = (self.cfg.outputs, self.cfg.partition);
        let result = match selected {
            Some(t) if t.len() == want => Ok(t),
            Some(t) => Err(format!("variant returned {} outputs, stage expects {want}", t.len())),
            None => Err(format!("checkpoint at partition {partition} failed")),
        };
        self.out.push(Action::Forward { result, path: Some(path) });
    }

    /// Every live vote is in: fall through (fast) or evaluate (slow).
    fn vote(&mut self, f: &mut InFlight) -> Option<Vec<Tensor>> {
        let outputs: Vec<VariantOutput> =
            f.live.iter().map(|&v| f.arrived[v].take().expect("all votes are in")).collect();
        if !self.cfg.slow {
            // Unevaluated: the first healthy output wins. A lone variant's
            // crash still surfaces; its success is the best resync point.
            if let [VariantOutput::Crashed(reason)] = outputs.as_slice() {
                self.crashed(f.live[0], f.batch, reason);
            }
            let selected = outputs.into_iter().find_map(|o| match o {
                VariantOutput::Ok(t) => Some(t),
                VariantOutput::Crashed(_) => None,
            });
            if let (Some(t), 1) = (&selected, f.live.len()) {
                self.set_resync(f, t);
            }
            return selected;
        }
        for (pos, o) in outputs.iter().enumerate() {
            if let VariantOutput::Crashed(reason) = o {
                self.crashed(f.live[pos], f.batch, reason);
            }
        }
        let batch = f.batch;
        match evaluate(&outputs, self.cfg.metric, self.cfg.policy.voting) {
            Verdict::Agree { selected, agreeing } => {
                self.passed(f, agreeing.len(), &selected);
                Some(selected)
            }
            Verdict::Diverged { majority, dissenting, detail } => {
                let dissenting: Vec<usize> = dissenting.iter().map(|&pos| f.live[pos]).collect();
                let digest = majority.as_deref().map(payload_digest).unwrap_or([0u8; 32]);
                // Transcribed under the epochs it was voted under (pinned
                // by the transcript format): before any quarantine.
                let verdict = TranscriptVerdict::Diverged { dissenting: dissenting.clone() };
                self.transcript(batch, verdict, digest);
                self.dissent(batch, &dissenting, detail, "checkpoint divergence");
                let halt = self.cfg.policy.response == ResponsePolicy::Halt;
                self.respond(if halt { "halt" } else { "continue-with-majority" }.into());
                majority.filter(|_| !halt)
            }
        }
    }

    /// Async fast-exit: forward as soon as the votes in so far hold a
    /// majority of the panel; the stragglers are cross-validated late.
    fn async_quorum(&mut self, f: &mut InFlight) -> Option<Vec<Tensor>> {
        let (ids, votes): (Vec<usize>, Vec<VariantOutput>) =
            f.live.iter().filter_map(|&v| f.arrived[v].clone().map(|o| (v, o))).unzip();
        let chosen = has_quorum(&votes, f.live.len(), self.cfg.metric)?;
        let (batch, metric) = (f.batch, self.cfg.metric);
        // Quorum forwarding never swallows a divergence: an outvoted
        // arrival is still detected, a crashed one quarantined right now.
        let outvoted = |(_, o): &(&usize, &VariantOutput)| !o.agrees_with(&chosen, metric);
        let dissenting: Vec<usize> =
            ids.iter().zip(&votes).filter(outvoted).map(|(&v, _)| v).collect();
        for (&v, o) in ids.iter().zip(&votes) {
            if let VariantOutput::Crashed(reason) = o {
                self.crashed(v, batch, reason);
            }
        }
        if dissenting.is_empty() {
            self.passed(f, ids.len(), &chosen);
        } else {
            self.pending_reaction =
                Some(format!("variants {dissenting:?} dissented at quorum on batch {batch}"));
            let why = "outvoted at async quorum";
            self.dissent(batch, &dissenting, why.into(), why);
            let digest = payload_digest(&chosen);
            self.transcript(batch, TranscriptVerdict::Diverged { dissenting }, digest);
            // The quorum output is majority-verified all the same.
            self.set_resync(f, &chosen);
        }
        let remaining = f.live.iter().copied().filter(|&v| f.arrived[v].is_none()).collect();
        self.outstanding.insert(batch, Outstanding { chosen: chosen.clone(), remaining });
        // A straggler that never answers must not grow state forever.
        if self.outstanding.len() > LATE_VALIDATION_WINDOW {
            let (oldest, _) = self.outstanding.pop_first().expect("just inserted into");
            self.respond(format!("dropped late-validation state for batch {oldest} (window full)"));
        }
        Some(chosen)
    }

    /// Audits a divergence; only with recovery on are dissenters quarantined.
    fn dissent(&mut self, batch: u64, dissenting: &[usize], detail: String, reason: &str) {
        let (partition, named) = (self.cfg.partition, dissenting.to_vec());
        self.record(MonitorEvent::DivergenceDetected { partition, batch, dissenting: named, detail });
        if self.cfg.recovery {
            for &v in dissenting {
                self.quarantine(v, batch, reason);
            }
        }
    }

    /// A checkpoint verified: transcribe it and make it the resync point.
    fn passed(&mut self, f: &mut InFlight, agreeing: usize, chosen: &[Tensor]) {
        let batch = f.batch;
        self.transcript(batch, TranscriptVerdict::Pass { agreeing }, payload_digest(chosen));
        self.set_resync(f, chosen);
    }

    fn transcript(&mut self, batch: u64, verdict: TranscriptVerdict, payload_digest: [u8; 32]) {
        let (partition, epoch) = (self.cfg.partition, self.epochs.iter().sum());
        let entry = TranscriptEntry { partition, batch, epoch, verdict, payload_digest };
        self.out.push(Action::Transcript(entry));
    }

    fn set_resync(&mut self, f: &mut InFlight, outputs: &[Tensor]) {
        if let Some(inputs) = f.resync_inputs.take() {
            let outputs = outputs.to_vec();
            self.last_verified = Some(ResyncPoint { batch: f.batch, inputs, outputs });
        }
    }

    /// A live variant was seen to crash: audited, then quarantined.
    fn crashed(&mut self, variant: usize, batch: u64, reason: &str) {
        if !self.dead[variant] {
            let (partition, why) = (self.cfg.partition, reason.to_string());
            self.record(MonitorEvent::VariantCrashed { partition, variant, batch, reason: why });
            self.quarantine(variant, batch, reason);
        }
    }

    /// Marks a variant dead and bumps its epoch; with recovery on,
    /// audits it and files a request carrying the last verified payload.
    fn quarantine(&mut self, variant: usize, batch: u64, reason: &str) {
        if self.dead[variant] {
            return;
        }
        self.dead[variant] = true;
        self.epochs[variant] += 1;
        if self.cfg.recovery {
            let (partition, epoch) = (self.cfg.partition, self.epochs[variant]);
            let (reason, why) = (reason.to_string(), reason.to_string());
            self.record(MonitorEvent::Quarantined { partition, variant, batch, reason: why });
            let resync = self.last_verified.clone();
            self.out.push(Action::Recover { variant, epoch, reason, resync });
        }
    }

    /// Async cross-validation (Fig 8) of a late vote against the forward.
    fn late_cross_validate(&mut self, batch: u64, variant: usize, output: VariantOutput) {
        let Some(entry) = self.outstanding.get_mut(&batch) else {
            return; // unknown batch (already fully validated or pre-crash noise)
        };
        if !entry.remaining.remove(&variant) {
            return;
        }
        let dissents = !output.agrees_with(&entry.chosen, self.cfg.metric);
        if entry.remaining.is_empty() {
            self.outstanding.remove(&batch);
        }
        if dissents {
            let partition = self.cfg.partition;
            self.record(MonitorEvent::LateDissent { partition, batch, variant });
            self.pending_reaction =
                Some(format!("variant {variant} dissented late on batch {batch}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VotingPolicy;
    use std::time::Duration;

    impl Sink for Vec<Action> {
        fn act(&mut self, action: Action) {
            self.push(action);
        }
    }

    fn policy(exec: ExecMode, response: ResponsePolicy) -> StagePolicy {
        StagePolicy {
            exec,
            voting: VotingPolicy::Unanimous,
            response,
            degradation: DegradationPolicy::Degrade,
            deadline: Duration::from_secs(30),
        }
    }

    fn stage(variants: usize, slow: bool, policy: StagePolicy) -> StageState {
        StageState::new(StageConfig {
            partition: 0,
            variants,
            outputs: 1,
            slow,
            recovery: false,
            policy,
            metric: Metric::strict(),
        })
    }

    fn payload(value: f32) -> Vec<Tensor> {
        vec![Tensor::from_vec(vec![value; 4], &[4]).expect("static shape")]
    }

    fn job(batch: u64, value: f32) -> Event {
        Event::Job { batch, inputs: Ok(payload(value)) }
    }

    fn reply(variant: usize, batch: u64, value: f32) -> Event {
        Event::Reply { variant, epoch: 0, batch, output: VariantOutput::Ok(payload(value)) }
    }

    fn crash(variant: usize, batch: u64) -> Event {
        let output = VariantOutput::Crashed("scripted crash".into());
        Event::Reply { variant, epoch: 0, batch, output }
    }

    /// Steps `events` in order; returns every action handed to the sink.
    fn drive(state: &mut StageState, events: Vec<Event>) -> Vec<Action> {
        let mut actions = Vec::new();
        for event in events {
            step(state, event, &mut actions);
        }
        actions
    }

    fn records(actions: &[Action]) -> Vec<&MonitorEvent> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Record(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// The transcribed `Pass` verdicts among `actions`: `(batch, agreeing)`.
    fn passes(actions: &[Action]) -> Vec<(u64, usize)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Transcript(TranscriptEntry {
                    batch,
                    verdict: TranscriptVerdict::Pass { agreeing },
                    ..
                }) => Some((*batch, *agreeing)),
                _ => None,
            })
            .collect()
    }

    fn detections(actions: &[Action]) -> usize {
        records(actions)
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    MonitorEvent::DivergenceDetected { .. }
                        | MonitorEvent::VariantCrashed { .. }
                        | MonitorEvent::LateDissent { .. }
                )
            })
            .count()
    }

    /// The forwards among `actions`: `Ok(first element)` or the poison.
    fn forwards(actions: &[Action]) -> Vec<Result<f32, String>> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Forward { result, .. } => {
                    Some(result.as_ref().map(|t| t[0].data()[0]).map_err(String::clone))
                }
                _ => None,
            })
            .collect()
    }

    fn dispatched_to(actions: &[Action]) -> Vec<Vec<usize>> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Dispatch { to, .. } => Some(to.clone()),
                _ => None,
            })
            .collect()
    }

    fn response_taken(actions: &[Action], needle: &str) -> bool {
        records(actions).iter().any(|e| {
            matches!(e, MonitorEvent::ResponseTaken { action, .. } if action.contains(needle))
        })
    }

    #[test]
    fn fast_path_forwards_single_variant_output() {
        let mut s = stage(1, false, policy(ExecMode::Sync, ResponsePolicy::Halt));
        let actions = drive(&mut s, vec![job(0, 2.0), reply(0, 0, 2.0)]);
        assert_eq!(forwards(&actions), vec![Ok(2.0)]);
        assert!(matches!(actions.last(), Some(Action::Forward { path: Some(Path::Fast), .. })));
        assert_eq!(detections(&actions), 0);
    }

    #[test]
    fn slow_path_detects_corrupt_variant_and_halts() {
        let mut s = stage(3, true, policy(ExecMode::Sync, ResponsePolicy::Halt));
        let actions =
            drive(&mut s, vec![job(0, 1.0), reply(0, 0, 1.0), reply(1, 0, 6.0), reply(2, 0, 1.0)]);
        assert!(matches!(forwards(&actions)[..], [Err(_)]));
        let dissent = records(&actions).iter().any(|e| {
            matches!(e, MonitorEvent::DivergenceDetected { dissenting, .. } if dissenting == &vec![1])
        });
        assert!(dissent, "variant 1 must be identified: {actions:?}");
    }

    #[test]
    fn slow_path_continue_with_majority_adopts_healthy_output() {
        let mut s = stage(3, true, policy(ExecMode::Sync, ResponsePolicy::ContinueWithMajority));
        let actions =
            drive(&mut s, vec![job(0, 3.0), reply(0, 0, 3.0), reply(1, 0, 12.0), reply(2, 0, 3.0)]);
        assert_eq!(forwards(&actions), vec![Ok(3.0)]);
        assert!(detections(&actions) > 0);
    }

    #[test]
    fn crash_is_reported_and_subsequent_batches_continue_with_survivors() {
        let mut s = stage(2, true, policy(ExecMode::Sync, ResponsePolicy::ContinueWithMajority));
        let actions = drive(
            &mut s,
            vec![
                job(0, 1.0),
                reply(0, 0, 1.0),
                reply(1, 0, 1.0),
                job(1, 2.0),
                crash(0, 1),
                Event::Disconnected { variant: 0, epoch: 0, batch: 1 },
                reply(1, 1, 2.0),
                job(2, 3.0),
                reply(1, 2, 3.0),
            ],
        );
        let crashes = records(&actions)
            .iter()
            .filter(|e| matches!(e, MonitorEvent::VariantCrashed { variant: 0, batch: 1, .. }))
            .count();
        assert_eq!(crashes, 1, "the crash is recorded once: {actions:?}");
        // 1 of 2 is no majority, so batch 1 fails; batch 2 runs on the
        // survivor alone.
        assert!(matches!(forwards(&actions)[..], [Ok(_), Err(_), Ok(_)]));
        assert_eq!(dispatched_to(&actions), vec![vec![0, 1], vec![0, 1], vec![1]]);
    }

    fn async_majority() -> StagePolicy {
        StagePolicy {
            voting: VotingPolicy::Majority,
            ..policy(ExecMode::AsyncCrossValidation, ResponsePolicy::ContinueWithMajority)
        }
    }

    #[test]
    fn async_mode_forwards_on_quorum_before_the_laggard() {
        let mut s = stage(3, true, async_majority());
        let early = drive(&mut s, vec![job(0, 4.0), reply(0, 0, 4.0), reply(1, 0, 4.0)]);
        assert_eq!(forwards(&early), vec![Ok(4.0)], "forwarded without the laggard");
        assert!(s.owes_late_validation());
        let late = drive(&mut s, vec![reply(2, 0, 4.0)]);
        assert!(late.is_empty() && !s.owes_late_validation());
        assert_eq!(detections(&early), 0, "benign laggard must not alarm");
    }

    #[test]
    fn async_mode_flags_late_dissent_and_reacts_at_the_next_checkpoint() {
        let mut s = stage(3, true, async_majority());
        let actions = drive(
            &mut s,
            vec![job(0, 1.0), reply(0, 0, 1.0), reply(1, 0, 1.0), reply(2, 0, 8.0), job(1, 2.0)],
        );
        assert_eq!(forwards(&actions)[0], Ok(1.0), "quorum output forwarded");
        let late = records(&actions)
            .iter()
            .any(|e| matches!(e, MonitorEvent::LateDissent { variant: 2, batch: 0, .. }));
        assert!(late, "late dissent must be flagged: {actions:?}");
        assert!(response_taken(&actions, "late-dissent reaction"));
    }

    /// A straggler that never answers must not grow state forever: past
    /// the window the oldest owed validation is dropped, once, audibly.
    #[test]
    fn async_late_validation_state_is_capped_at_the_window() {
        let mut s = stage(3, true, async_majority());
        let window = LATE_VALIDATION_WINDOW as u64;
        // Variant 2 owes every batch its late validation.
        let quorum = |b: u64| vec![job(b, 1.0), reply(0, b, 1.0), reply(1, b, 1.0)];
        let within = drive(&mut s, (0..window).flat_map(quorum).collect());
        assert_eq!(forwards(&within).len(), LATE_VALIDATION_WINDOW);
        assert!(!response_taken(&within, "window full"), "nothing dropped inside the window");
        assert_eq!(s.outstanding.len(), LATE_VALIDATION_WINDOW);

        let over = drive(&mut s, quorum(window));
        let dropped = "dropped late-validation state for batch 0 (window full)";
        assert!(response_taken(&over, dropped), "the drop is audited: {over:?}");
        assert_eq!(passes(&over), vec![(window, 2)], "one pass: {over:?}");
        assert_eq!(records(&over).len(), 1, "one drop: {over:?}");
        assert_eq!(s.outstanding.len(), LATE_VALIDATION_WINDOW, "state stays at the window");

        // Batch 0's straggler is no longer validated; batch 1's still is.
        assert!(drive(&mut s, vec![reply(2, 0, 8.0)]).is_empty());
        let late = drive(&mut s, vec![reply(2, 1, 8.0)]);
        let flagged = |e: &&MonitorEvent| {
            matches!(e, MonitorEvent::LateDissent { variant: 2, batch: 1, .. })
        };
        assert!(records(&late).iter().any(flagged), "batch 1 is still owed: {late:?}");
    }

    #[test]
    fn deadline_escalates_hung_variant() {
        let mut s = stage(3, true, policy(ExecMode::Sync, ResponsePolicy::ContinueWithMajority));
        let actions = drive(
            &mut s,
            vec![
                job(0, 1.0),
                reply(0, 0, 1.0),
                reply(1, 0, 1.0),
                reply(2, 0, 1.0),
                job(1, 2.0),
                reply(0, 1, 2.0),
                reply(1, 1, 2.0),
                Event::Deadline,
                // The hung variant's answer arrives under its old epoch.
                reply(2, 1, 2.0),
                job(2, 3.0),
                reply(0, 2, 3.0),
                reply(1, 2, 3.0),
            ],
        );
        assert_eq!(forwards(&actions), vec![Ok(1.0), Ok(2.0), Ok(3.0)]);
        let escalated = records(&actions)
            .iter()
            .any(|e| matches!(e, MonitorEvent::LateDissent { variant: 2, batch: 1, .. }));
        assert!(escalated, "watchdog must flag the hung variant: {actions:?}");
        assert_eq!(dispatched_to(&actions)[2], vec![0, 1], "batch 2 runs on the reduced panel");
    }

    #[test]
    fn strict_degradation_fails_batches_while_below_strength() {
        let p = StagePolicy {
            degradation: DegradationPolicy::Strict,
            ..policy(ExecMode::Sync, ResponsePolicy::ContinueWithMajority)
        };
        let mut s = stage(2, true, p);
        let actions = drive(&mut s, vec![job(0, 1.0), crash(0, 0), reply(1, 0, 1.0), job(1, 2.0)]);
        let failed = &forwards(&actions)[1];
        assert!(
            matches!(failed, Err(why) if why.contains("below strength")),
            "strict policy must fail the batch: {failed:?}"
        );
        assert!(response_taken(&actions, "strict degradation"), "must be audited: {actions:?}");
        assert_eq!(dispatched_to(&actions).len(), 1, "batch 1 is never dispatched");
    }

    #[test]
    fn fast_path_fallback_forwards_flagged_while_below_strength() {
        let p = StagePolicy {
            degradation: DegradationPolicy::FastPathFallback,
            ..policy(ExecMode::Sync, ResponsePolicy::ContinueWithMajority)
        };
        let mut s = stage(3, true, p);
        let actions = drive(
            &mut s,
            vec![
                job(0, 1.0),
                crash(0, 0),
                reply(1, 0, 1.0),
                reply(2, 0, 1.0),
                job(1, 2.0),
                reply(2, 1, 2.0),
            ],
        );
        // Batch 1 falls through on the first healthy answer, unvoted but
        // flagged, and claims no passed checkpoint.
        assert_eq!(forwards(&actions)[1], Ok(2.0));
        assert!(matches!(actions.last(), Some(Action::Forward { path: Some(Path::Fast), .. })));
        assert!(response_taken(&actions, "fast-path fallback"), "must be audited: {actions:?}");
        let claimed = passes(&actions).iter().any(|&(batch, _)| batch == 1);
        assert!(!claimed, "an unvoted batch must not claim a passed checkpoint");
    }

    #[test]
    fn missing_boundary_value_poisons_the_job() {
        let mut s = stage(1, false, policy(ExecMode::Sync, ResponsePolicy::Halt));
        let actions = drive(&mut s, vec![Event::Job { batch: 0, inputs: Err(ValueId(0)) }]);
        assert!(matches!(&forwards(&actions)[..], [Err(why)] if why.contains("missing")));
    }

    #[test]
    fn closed_request_links_are_quarantined_and_an_empty_panel_halts() {
        let mut s = stage(2, true, policy(ExecMode::Sync, ResponsePolicy::Halt));
        let actions = drive(
            &mut s,
            vec![
                job(0, 1.0),
                Event::SendFailed { variant: 0, link: "fake-0".into() },
                Event::SendFailed { variant: 1, link: "fake-1".into() },
            ],
        );
        assert_eq!(forwards(&actions), vec![Err("all variants dead".to_string())]);
        assert!(matches!(actions.last(), Some(Action::Forward { path: None, .. })));
        assert!(response_taken(&actions, "halt: no live variants"));
        assert!(!s.is_live(0) && !s.is_live(1));
    }

    // ---- Small-scope enumeration ------------------------------------
    //
    // A model of everything outside `step` — variant channels that answer
    // in any order, corrupt, crash, die or hang, a recovery that offers
    // replacements, a shell that feeds jobs one at a time and
    // drains at shutdown — explored depth-first over *every* interleaving
    // within a fault budget, checking on each path what the campaign only
    // samples.

    /// What a variant sends for one batch.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Vote {
        Good,
        Corrupt,
        Crash,
    }

    #[derive(Debug, Clone, Copy)]
    enum Move {
        Job,
        Reply { variant: usize, chan: usize, vote: Vote },
        /// The channel's far end dies (pending answers are lost).
        Die { variant: usize, chan: usize },
        /// The shell notices a dead channel.
        Disconnect { variant: usize, chan: usize },
        /// Recovery delivers a replacement.
        Rejoin { offer: usize },
        Deadline,
        Stop,
        /// The drain window closes.
        Finish,
    }

    /// One response link of a variant, as the shell sees it through the
    /// frames and the hang-up its port puts in the inbox.
    #[derive(Clone)]
    struct Chan {
        epoch: u64,
        alive: bool,
        /// Noticed-dead already (the shell reports it once, then stops
        /// listening to the link).
        reported: bool,
        /// Batches dispatched on it and not yet answered, oldest first.
        pending: Vec<u64>,
    }

    /// The job the shell holds.
    #[derive(Clone)]
    struct Held {
        batch: u64,
        /// Variants the dispatch reached.
        panel: Vec<usize>,
        /// First healthy answer wins, unvoted: a fast-path stage, or
        /// `FastPathFallback` below strength.
        fallthrough: bool,
        /// Non-stale answers fed so far.
        votes: Vec<(usize, VariantOutput)>,
    }

    #[derive(Clone)]
    struct World {
        state: StageState,
        jobs: u64,
        next_batch: u64,
        chans: Vec<Vec<Chan>>,
        /// Which of a variant's channels its request link points at.
        link: Vec<usize>,
        /// Unanswered recovery requests: (variant, epoch).
        offers: Vec<(usize, u64)>,
        faults_left: u32,
        held: Option<Held>,
        stopping: bool,
        /// Batches forwarded unvoted: fall-throughs, or failed by `Strict`
        /// when the dispatch found the panel short.
        unvoted: Vec<u64>,
        /// Batches with a transcript entry.
        transcribed: Vec<u64>,
        /// Every non-stale vote fed on a voted batch.
        ballots: Vec<(u64, Vote)>,
        /// Batches whose fed votes disagree and no record says so yet:
        /// (batch, the job by the end of whose admission it is due).
        owed: Vec<(u64, u64)>,
        forwards: u64,
        path: Vec<Move>,
    }

    fn good(batch: u64) -> f32 {
        batch as f32 + 1.0
    }

    impl World {
        fn new(cfg: StageConfig, jobs: u64, faults: u32) -> World {
            let chan = Chan { epoch: 0, alive: true, reported: false, pending: Vec::new() };
            World {
                state: StageState::new(cfg),
                jobs,
                next_batch: 0,
                chans: vec![vec![chan]; cfg.variants],
                link: vec![0; cfg.variants],
                offers: Vec::new(),
                faults_left: faults,
                held: None,
                stopping: false,
                unvoted: Vec::new(),
                transcribed: Vec::new(),
                ballots: Vec::new(),
                owed: Vec::new(),
                forwards: 0,
                path: Vec::new(),
            }
        }

        fn moves(&self) -> Vec<Move> {
            // A channel abandoned by a quarantine stays stale for good
            // (epochs only grow) and `apply` checks that nothing it
            // delivers has any effect, so its traffic commutes with every
            // other move: deliver it at once instead of at every position.
            for (variant, chans) in self.chans.iter().enumerate() {
                for (chan, c) in chans.iter().enumerate() {
                    if c.epoch == self.state.epochs[variant] {
                        continue;
                    }
                    if c.alive && !c.pending.is_empty() {
                        return vec![Move::Reply { variant, chan, vote: Vote::Corrupt }];
                    }
                    if !c.alive && !c.reported {
                        return vec![Move::Disconnect { variant, chan }];
                    }
                }
            }
            let mut moves = Vec::new();
            if self.stopping {
                moves.push(Move::Finish);
            } else if self.held.is_some() {
                if self.faults_left > 0 {
                    moves.push(Move::Deadline);
                }
            } else if self.next_batch < self.jobs {
                moves.push(Move::Job);
            } else {
                // Idle with no job left: the shell only drains after Stop.
                return vec![Move::Stop];
            }
            for (variant, chans) in self.chans.iter().enumerate() {
                for (chan, c) in chans.iter().enumerate() {
                    if c.alive && !c.pending.is_empty() {
                        moves.push(Move::Reply { variant, chan, vote: Vote::Good });
                        if self.faults_left > 0 {
                            moves.push(Move::Reply { variant, chan, vote: Vote::Corrupt });
                            moves.push(Move::Reply { variant, chan, vote: Vote::Crash });
                        }
                    }
                    // Dying instead of answering can happen any time; an
                    // idle channel's death matters at job boundaries.
                    let dies = (!c.pending.is_empty() || self.held.is_none())
                        && c.epoch == self.state.epochs[variant];
                    if c.alive && dies && self.faults_left > 0 {
                        moves.push(Move::Die { variant, chan });
                    }
                    if !c.alive && !c.reported {
                        moves.push(Move::Disconnect { variant, chan });
                    }
                }
            }
            moves.extend((0..self.offers.len()).map(|offer| Move::Rejoin { offer }));
            moves
        }

        fn fail(&self, what: &str) -> ! {
            panic!("{what}\n  config: {:?}\n  path: {:#?}", self.state.cfg, self.path)
        }

        /// Steps one event and the send failures its dispatch runs into,
        /// like the shell's `feed`, interpreting every action.
        fn feed(&mut self, event: Event) -> usize {
            let mut actions = Vec::new();
            step(&mut self.state, event, &mut actions);
            let mut seen = actions.len();
            let mut queue: std::collections::VecDeque<Action> = actions.into();
            while let Some(action) = queue.pop_front() {
                for failed in self.perform(action) {
                    let mut more = Vec::new();
                    step(&mut self.state, failed, &mut more);
                    seen += more.len();
                    queue.extend(more);
                }
            }
            seen
        }

        /// Performs one action on the model; returns the send failures a
        /// dispatch ran into.
        fn perform(&mut self, action: Action) -> Vec<Event> {
            let mut failed = Vec::new();
            match action {
                Action::Dispatch { batch, to, .. } => {
                    let cfg = self.state.cfg;
                    let degraded = !to.is_empty() && to.len() < cfg.variants;
                    if degraded && self.strict() {
                        self.fail("strict degradation dispatched a batch below strength");
                    }
                    let held = self.held.as_mut().expect("dispatch without a job in hand");
                    assert_eq!(held.batch, batch);
                    let fallback = cfg.policy.degradation == DegradationPolicy::FastPathFallback;
                    held.fallthrough = !cfg.slow || degraded && fallback;
                    for v in to {
                        if !self.state.is_live(v) {
                            self.fail("dispatched to a quarantined variant");
                        }
                        let chan = &mut self.chans[v][self.link[v]];
                        if chan.alive {
                            chan.pending.push(batch);
                            held.panel.push(v);
                        } else {
                            failed.push(Event::SendFailed { variant: v, link: format!("v{v}") });
                        }
                    }
                }
                Action::Forward { result, .. } => {
                    let Some(held) = self.held.take() else {
                        self.fail("forward without a job in hand");
                    };
                    self.forwards += 1;
                    let short = self.short(&held);
                    // Answers to a batch that is not voted are not ballots.
                    let unvoted = held.fallthrough || short;
                    if unvoted {
                        self.unvoted.push(held.batch);
                    }
                    if let Ok(out) = result {
                        if short {
                            self.fail("strict degradation forwarded a batch voted below strength");
                        }
                        // The transcript is the only record of a vote.
                        if !unvoted && !self.transcribed.contains(&held.batch) {
                            let batch = held.batch;
                            self.fail(&format!("voted batch {batch} forwarded untranscribed"));
                        }
                        self.check_quorum(&held, &out);
                    }
                }
                Action::Record(
                    MonitorEvent::DivergenceDetected { batch, .. }
                    | MonitorEvent::LateDissent { batch, .. }
                    | MonitorEvent::VariantCrashed { batch, .. },
                ) => self.owed.retain(|&(b, _)| b != batch),
                Action::Record(_) => {}
                Action::Transcript(entry) => self.check_transcript(&entry),
                Action::Recover { variant, epoch, .. } => {
                    if !self.state.cfg.recovery || self.state.is_live(variant) {
                        self.fail("recovery requested without a manager or for a live variant");
                    }
                    self.offers.push((variant, epoch));
                }
                Action::Adopt { variant } => self.link[variant] = self.chans[variant].len() - 1,
            }
            failed
        }

        /// `Strict` degradation binds: only a slow stage votes.
        fn strict(&self) -> bool {
            let cfg = self.state.cfg;
            cfg.slow && cfg.policy.degradation == DegradationPolicy::Strict
        }

        /// `Strict` and the dispatch found the panel short.
        fn short(&self, held: &Held) -> bool {
            self.strict() && held.panel.len() < self.state.cfg.variants
        }

        /// A verdict is transcribed only for the voted batch in hand, at
        /// most once, and never counts more agreeing votes than the panel.
        fn check_transcript(&mut self, entry: &TranscriptEntry) {
            let Some(held) = self.held.as_ref().filter(|h| h.batch == entry.batch) else {
                self.fail(&format!("batch {} transcribed while not in hand", entry.batch));
            };
            if held.fallthrough || self.short(held) {
                self.fail(&format!("unvoted batch {} transcribed", entry.batch));
            }
            if self.transcribed.contains(&entry.batch) {
                self.fail(&format!("batch {} transcribed twice", entry.batch));
            }
            if let TranscriptVerdict::Pass { agreeing } = entry.verdict {
                if agreeing > held.panel.len() {
                    self.fail(&format!("{agreeing} agreeing in a panel of {}", held.panel.len()));
                }
            }
            self.transcribed.push(entry.batch);
        }

        /// No batch is forwarded without its policy's quorum: enough
        /// counted (non-stale, this-batch) votes equal the forwarded value.
        fn check_quorum(&self, held: &Held, out: &[Tensor]) {
            let agreeing = held
                .votes
                .iter()
                .filter(|(_, vote)| vote.agrees_with(out, Metric::exact()))
                .count();
            let panel = held.panel.len();
            let policy = self.state.cfg.policy;
            let need = if held.fallthrough {
                1
            } else if policy.exec == ExecMode::Sync && policy.response == ResponsePolicy::Halt {
                panel
            } else {
                panel / 2 + 1
            };
            if agreeing < need.max(1) {
                self.fail(&format!(
                    "batch {} forwarded on {agreeing} agreeing votes of a panel of {panel} (needs {need})",
                    held.batch
                ));
            }
        }

        /// A dissent exists once a batch's fed votes include a crash, or a
        /// corrupt answer next to any other (a lone answer has no peer to
        /// dissent from).
        fn count_ballot(&mut self, batch: u64, vote: Vote) {
            self.ballots.push((batch, vote));
            let of_batch = || self.ballots.iter().filter(|(b, _)| *b == batch);
            let dissent = of_batch().any(|(_, v)| *v == Vote::Crash)
                || (of_batch().any(|(_, v)| *v == Vote::Corrupt) && of_batch().count() > 1);
            if dissent && vote != Vote::Good {
                self.owed.push((batch, self.next_batch));
            }
        }

        /// The batch a disconnect is attributed to, as the shell does it.
        fn batch_in_hand(&self) -> u64 {
            self.held.as_ref().map_or(self.next_batch, |h| h.batch)
        }

        fn apply(&mut self, mv: Move) {
            self.path.push(mv);
            match mv {
                Move::Job => {
                    let batch = self.next_batch;
                    self.next_batch += 1;
                    let held =
                        Held { batch, panel: Vec::new(), fallthrough: false, votes: Vec::new() };
                    self.held = Some(held);
                    self.feed(job(batch, good(batch)));
                    // Every dissent is on record no later than here.
                    if let Some((b, _)) = self.owed.iter().find(|&&(_, due)| due <= batch) {
                        self.fail(&format!("dissent on batch {b} unrecorded after job {batch}"));
                    }
                }
                Move::Reply { variant, chan, vote } => {
                    let c = &mut self.chans[variant][chan];
                    let (epoch, batch) = (c.epoch, c.pending.remove(0));
                    let stale = epoch != self.state.epochs[variant];
                    if vote != Vote::Good && !stale {
                        self.faults_left -= 1;
                    }
                    let output = match vote {
                        Vote::Good => VariantOutput::Ok(payload(good(batch))),
                        // Distinct per variant: corrupt variants never collude.
                        Vote::Corrupt => {
                            VariantOutput::Ok(payload(good(batch) + 10.0 * (variant + 1) as f32))
                        }
                        Vote::Crash => VariantOutput::Crashed("scripted crash".into()),
                    };
                    if !stale {
                        let mut voted = !self.unvoted.contains(&batch);
                        if let Some(held) = self.held.as_mut().filter(|h| h.batch == batch) {
                            held.votes.push((variant, output.clone()));
                            voted = !held.fallthrough;
                        }
                        if voted {
                            self.count_ballot(batch, vote);
                        }
                    }
                    let was_awaiting = self.state.awaiting();
                    let acted = self.feed(Event::Reply { variant, epoch, batch, output });
                    // No stale-epoch reply is ever counted.
                    if stale && (acted > 0 || self.state.awaiting() != was_awaiting) {
                        self.fail("a stale-epoch reply had an effect");
                    }
                }
                Move::Die { variant, chan } => {
                    self.faults_left -= 1;
                    let c = &mut self.chans[variant][chan];
                    c.alive = false;
                    c.pending.clear();
                }
                Move::Disconnect { variant, chan } => {
                    let c = &mut self.chans[variant][chan];
                    c.reported = true;
                    let (epoch, batch) = (c.epoch, self.batch_in_hand());
                    let stale = epoch != self.state.epochs[variant];
                    let acted = self.feed(Event::Disconnected { variant, epoch, batch });
                    if stale && acted > 0 {
                        self.fail("a stale-epoch disconnect had an effect");
                    }
                }
                Move::Rejoin { offer } => {
                    let (variant, epoch) = self.offers.remove(offer);
                    let chan = Chan { epoch, alive: true, reported: false, pending: Vec::new() };
                    self.chans[variant].push(chan);
                    self.feed(Event::Recovered { variant, epoch });
                }
                Move::Deadline => {
                    self.faults_left -= 1;
                    self.feed(Event::Deadline);
                    if self.held.is_some() {
                        self.fail("the deadline did not close the checkpoint");
                    }
                }
                Move::Stop => {
                    self.stopping = true;
                    self.feed(Event::Stop);
                }
                Move::Finish => {
                    self.feed(Event::Deadline);
                }
            }
        }

        /// Explores every continuation; returns the number of complete paths.
        fn explore(self) -> u64 {
            if let Some(Move::Finish) = self.path.last() {
                // Every admitted job yielded exactly one forward, and no
                // dissent is left unrecorded.
                if self.forwards != self.jobs || self.held.is_some() {
                    self.fail("a job was not forwarded exactly once");
                }
                if let Some((batch, _)) = self.owed.first() {
                    self.fail(&format!("dissent on batch {batch} never recorded"));
                }
                return 1;
            }
            let moves = self.moves();
            let (last, rest) = moves.split_last().expect("Finish ends every path");
            let mut paths = 0;
            for &mv in rest {
                let mut next = self.clone();
                next.apply(mv);
                paths += next.explore();
            }
            let mut next = self;
            next.apply(*last);
            paths + next.explore()
        }
    }

    /// Explores one scope under every policy combination.
    fn enumerate(variants: usize, slow: bool, jobs: u64, faults: u32, recovery: bool) -> u64 {
        let mut paths = 0;
        for degradation in [
            DegradationPolicy::Strict,
            DegradationPolicy::Degrade,
            DegradationPolicy::FastPathFallback,
        ] {
            for exec in [ExecMode::Sync, ExecMode::AsyncCrossValidation] {
                for response in [ResponsePolicy::Halt, ResponsePolicy::ContinueWithMajority] {
                    let voting = match exec {
                        ExecMode::Sync => VotingPolicy::Unanimous,
                        ExecMode::AsyncCrossValidation => VotingPolicy::Majority,
                    };
                    let policy = StagePolicy { degradation, voting, ..policy(exec, response) };
                    let cfg = StageConfig {
                        partition: 0,
                        variants,
                        outputs: 1,
                        slow,
                        recovery,
                        policy,
                        metric: Metric::exact(),
                    };
                    paths += World::new(cfg, jobs, faults).explore();
                }
            }
        }
        paths
    }

    #[test]
    fn every_small_interleaving_keeps_the_monitor_invariants() {
        // (variants, slow path, batches, fault budget, recovery on)
        let scopes = [
            (2, true, 3, 2, false),
            (2, true, 3, 1, true),
            (3, true, 2, 2, false),
            (3, true, 2, 1, true),
            (3, true, 3, 1, false),
            // Five is the smallest panel in which an async quorum can
            // outvote an answer that has already arrived.
            (5, true, 1, 1, true),
            // A fast-path stage forwards unvoted and transcribes nothing.
            (2, false, 2, 2, true),
        ];
        let mut paths = 0;
        for (variants, slow, jobs, faults, recovery) in scopes {
            let n = enumerate(variants, slow, jobs, faults, recovery);
            println!("{variants} variants (slow {slow}) x {jobs} batches, <= {faults} faults, recovery {recovery}: {n} paths");
            paths += n;
        }
        assert!(paths > 100_000, "the scopes shrank: {paths} paths");
    }
}
