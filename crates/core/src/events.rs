//! The monitor's audit event log.
//!
//! Every security-relevant observation — checkpoint divergences, crashes,
//! late dissent in async mode, responses taken, binding updates — is
//! appended here. The update log is append-only "for auditing purposes"
//! (§4.3); experiments and tests assert detection through this log.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Increments the global counter `$name` through a handle resolved once
/// per call site: registry lookups take a lock, and the monitor records
/// events per checkpoint.
macro_rules! count {
    ($name:literal) => {{
        static HANDLE: std::sync::OnceLock<mvtee_telemetry::Counter> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| mvtee_telemetry::counter($name)).inc()
    }};
}
pub(crate) use count;

/// A security- or lifecycle-relevant monitor observation.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// A variant TEE completed attested bootstrap and was bound.
    VariantBound {
        /// Partition index.
        partition: usize,
        /// Variant index within the partition.
        variant: usize,
        /// Post-exec measurement.
        measurement: [u8; 32],
    },
    /// A slow-path checkpoint evaluated the panel and every live variant
    /// agreed — the per-checkpoint "all clear" verdict. Recorded so
    /// campaign/invariant checkers can prove a checkpoint actually ran
    /// (absence of an alarm alone cannot distinguish "checked and passed"
    /// from "never checked").
    CheckpointPassed {
        /// Partition whose checkpoint evaluated.
        partition: usize,
        /// Batch id.
        batch: u64,
        /// Number of agreeing variants.
        agreeing: usize,
    },
    /// Checkpoint divergence detected by the slow path.
    DivergenceDetected {
        /// Partition whose checkpoint fired.
        partition: usize,
        /// Batch id.
        batch: u64,
        /// Dissenting variant indices.
        dissenting: Vec<usize>,
        /// Detail string from the voting verdict.
        detail: String,
    },
    /// A variant crashed (DoS-class exploit, fault, or channel loss).
    VariantCrashed {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
        /// Batch id being processed.
        batch: u64,
        /// Reason.
        reason: String,
    },
    /// A straggler's late output dissented in async cross-validation
    /// mode; the reaction happens at the next checkpoint.
    LateDissent {
        /// Partition index.
        partition: usize,
        /// Batch id the late output belonged to.
        batch: u64,
        /// The late variant index.
        variant: usize,
    },
    /// A response action was taken.
    ResponseTaken {
        /// Partition index.
        partition: usize,
        /// Action description (halt, continue-with-majority, drop).
        action: String,
    },
    /// A partial or full variant update was applied (append-only).
    BindingUpdated {
        /// Partition index.
        partition: usize,
        /// Description of the update.
        description: String,
    },
    /// A variant was quarantined after a detection (divergence, crash,
    /// or watchdog escalation): its channel is abandoned and stale frames
    /// from its pre-quarantine epoch are discarded.
    Quarantined {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
        /// Batch id being processed when the quarantine fired.
        batch: u64,
        /// Why the variant was quarantined.
        reason: String,
    },
    /// The recovery manager began re-provisioning a quarantined variant
    /// (fresh enclave, re-attestation, re-keying, re-sealed bundle).
    RecoveryStarted {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
        /// Zero-based attempt number within the retry budget.
        attempt: u32,
    },
    /// A quarantined variant passed probation against the last verified
    /// checkpoint payload and rejoined its panel.
    Recovered {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
    },
    /// The retry budget was exhausted without a successful rejoin; the
    /// panel stays below strength under the degradation policy.
    RecoveryFailed {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// Last failure reason.
        reason: String,
    },
    /// A supervised worker missed a heartbeat deadline (not yet fatal).
    HeartbeatMissed {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
        /// Consecutive misses so far (1-based).
        missed: u32,
    },
    /// A supervised worker exhausted its heartbeat miss budget and was
    /// declared stalled; its connection is severed so the ordinary
    /// quarantine → recovery machinery takes over.
    WorkerStalled {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
        /// Consecutive misses at escalation.
        missed: u32,
    },
    /// A live worker whose socket dropped redialed, re-attested and
    /// resumed from the last verified checkpoint — no respawn needed.
    WorkerReconnected {
        /// Partition index.
        partition: usize,
        /// Variant index.
        variant: usize,
    },
}

impl fmt::Display for MonitorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorEvent::VariantBound { partition, variant, .. } => {
                write!(f, "bound variant {variant} of partition {partition}")
            }
            MonitorEvent::CheckpointPassed { partition, batch, agreeing } => write!(
                f,
                "checkpoint passed at partition {partition} batch {batch}: {agreeing} agreeing"
            ),
            MonitorEvent::DivergenceDetected { partition, batch, dissenting, .. } => write!(
                f,
                "divergence at partition {partition} batch {batch}: dissenting {dissenting:?}"
            ),
            MonitorEvent::VariantCrashed { partition, variant, batch, reason } => write!(
                f,
                "variant {variant} of partition {partition} crashed at batch {batch}: {reason}"
            ),
            MonitorEvent::LateDissent { partition, batch, variant } => write!(
                f,
                "late dissent from variant {variant} of partition {partition} at batch {batch}"
            ),
            MonitorEvent::ResponseTaken { partition, action } => {
                write!(f, "response at partition {partition}: {action}")
            }
            MonitorEvent::BindingUpdated { partition, description } => {
                write!(f, "binding update at partition {partition}: {description}")
            }
            MonitorEvent::Quarantined { partition, variant, batch, reason } => write!(
                f,
                "quarantined variant {variant} of partition {partition} at batch {batch}: {reason}"
            ),
            MonitorEvent::RecoveryStarted { partition, variant, attempt } => write!(
                f,
                "recovery attempt {attempt} for variant {variant} of partition {partition}"
            ),
            MonitorEvent::Recovered { partition, variant } => {
                write!(f, "variant {variant} of partition {partition} recovered and rejoined")
            }
            MonitorEvent::RecoveryFailed { partition, variant, attempts, reason } => write!(
                f,
                "recovery failed for variant {variant} of partition {partition} after {attempts} attempts: {reason}"
            ),
            MonitorEvent::HeartbeatMissed { partition, variant, missed } => write!(
                f,
                "variant {variant} of partition {partition} missed heartbeat deadline ({missed} consecutive)"
            ),
            MonitorEvent::WorkerStalled { partition, variant, missed } => write!(
                f,
                "worker for variant {variant} of partition {partition} stalled after {missed} missed heartbeats"
            ),
            MonitorEvent::WorkerReconnected { partition, variant } => write!(
                f,
                "worker for variant {variant} of partition {partition} reconnected and resumed"
            ),
        }
    }
}

/// One log entry: an event plus the wall-clock offset (seconds since the
/// monitor's epoch) at which it was recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Seconds elapsed since [`EventLog::new`] when the event fired.
    pub elapsed_secs: f64,
    /// The event itself.
    pub event: MonitorEvent,
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[+{:>9.3}s] {}", self.elapsed_secs, self.event)
    }
}

/// Thread-safe, append-only event log shared between the monitor's stage
/// coordinators.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<Mutex<Vec<(f64, MonitorEvent)>>>,
    start: Option<Instant>,
}

impl EventLog {
    /// Creates an empty log with a fresh epoch.
    pub fn new() -> Self {
        EventLog { inner: Arc::new(Mutex::new(Vec::new())), start: Some(Instant::now()) }
    }

    /// Appends an event, stamped with the offset from the log's epoch.
    /// Divergence-class events are mirrored onto the global telemetry
    /// counters (`core.events.{divergence,crash,late_dissent}`), emitted
    /// as trace instants under the recording thread's ambient context,
    /// and — for divergences, crashes and recovery outcomes — trigger a
    /// flight-recorder dump so the causal chain into the incident is
    /// preserved.
    pub fn record(&self, event: MonitorEvent) {
        let mut trace_name: Option<&'static str> = None;
        let mut dump = false;
        match &event {
            MonitorEvent::CheckpointPassed { .. } => {
                count!("core.events.checkpoint_pass");
                trace_name = Some("core.event.checkpoint_pass");
            }
            MonitorEvent::DivergenceDetected { .. } => {
                count!("core.events.divergence");
                trace_name = Some("core.event.divergence");
                dump = true;
            }
            MonitorEvent::VariantCrashed { .. } => {
                count!("core.events.crash");
                trace_name = Some("core.event.crash");
                dump = true;
            }
            MonitorEvent::LateDissent { .. } => {
                count!("core.events.late_dissent");
                trace_name = Some("core.event.late_dissent");
                dump = true;
            }
            MonitorEvent::Quarantined { .. } => {
                count!("core.recovery.quarantined");
                trace_name = Some("core.event.quarantined");
            }
            MonitorEvent::RecoveryStarted { .. } => {
                count!("core.recovery.started");
                trace_name = Some("core.event.recovery_started");
            }
            MonitorEvent::Recovered { .. } => {
                count!("core.recovery.recovered");
                trace_name = Some("core.event.recovered");
                dump = true;
            }
            MonitorEvent::RecoveryFailed { .. } => {
                count!("core.recovery.failed");
                trace_name = Some("core.event.recovery_failed");
                dump = true;
            }
            MonitorEvent::HeartbeatMissed { .. } => {
                count!("core.supervisor.heartbeat_missed");
            }
            MonitorEvent::WorkerStalled { .. } => {
                count!("core.supervisor.stalled");
                trace_name = Some("core.event.worker_stalled");
                dump = true;
            }
            MonitorEvent::WorkerReconnected { .. } => {
                count!("core.worker.reconnected");
                trace_name = Some("core.event.worker_reconnected");
            }
            _ => {}
        }
        let tracer = mvtee_telemetry::trace::recorder();
        if tracer.is_enabled() {
            if let Some(name) = trace_name {
                // The instant must land in the ring before a triggered
                // dump snapshots it.
                drop(
                    tracer
                        .instant(mvtee_telemetry::trace::current(), name, "events")
                        .arg("detail", &event),
                );
            }
            if dump {
                tracer.dump(&format!("monitor event: {event}"));
            }
        }
        let t = self.start.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0);
        self.inner.lock().push((t, event));
    }

    /// Snapshot of all events (timestamp seconds, event).
    pub fn snapshot(&self) -> Vec<(f64, MonitorEvent)> {
        self.inner.lock().clone()
    }

    /// All entries as [`TimedEvent`]s, in recording order.
    pub fn entries(&self) -> Vec<TimedEvent> {
        self.inner
            .lock()
            .iter()
            .map(|(t, e)| TimedEvent { elapsed_secs: *t, event: e.clone() })
            .collect()
    }

    /// Renders the log as one `[+N.NNNs] message` line per entry.
    pub fn render(&self) -> String {
        self.entries().iter().map(|e| format!("{e}\n")).collect()
    }

    /// All events without timestamps.
    pub fn events(&self) -> Vec<MonitorEvent> {
        self.inner.lock().iter().map(|(_, e)| e.clone()).collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// What `pick` makes of each event it matches, in recording order.
    fn select<T>(&self, pick: impl FnMut(&MonitorEvent) -> Option<T>) -> Vec<T> {
        self.inner.lock().iter().map(|(_, e)| e).filter_map(pick).collect()
    }

    /// Checkpoint verdicts that passed: `(partition, batch, agreeing)`
    /// per slow-path checkpoint whose panel agreed.
    pub fn checkpoint_passes(&self) -> Vec<(usize, u64, usize)> {
        self.select(|e| match *e {
            MonitorEvent::CheckpointPassed { partition, batch, agreeing } => {
                Some((partition, batch, agreeing))
            }
            _ => None,
        })
    }

    /// Divergence detections: `(partition, batch, dissenting variants)`.
    /// Late dissent counts as a divergence at its partition.
    pub fn divergences(&self) -> Vec<(usize, u64, Vec<usize>)> {
        self.select(|e| match e {
            MonitorEvent::DivergenceDetected { partition, batch, dissenting, .. } => {
                Some((*partition, *batch, dissenting.clone()))
            }
            MonitorEvent::LateDissent { partition, batch, variant } => {
                Some((*partition, *batch, vec![*variant]))
            }
            _ => None,
        })
    }

    /// Recorded variant crashes: `(partition, variant, batch)`.
    pub fn crashes(&self) -> Vec<(usize, usize, u64)> {
        self.select(|e| match *e {
            MonitorEvent::VariantCrashed { partition, variant, batch, .. } => {
                Some((partition, variant, batch))
            }
            _ => None,
        })
    }

    /// Reconnect-and-resume events: `(partition, variant)`.
    pub fn reconnections(&self) -> Vec<(usize, usize)> {
        self.select(|e| match *e {
            MonitorEvent::WorkerReconnected { partition, variant } => Some((partition, variant)),
            _ => None,
        })
    }

    /// Worker-stall escalations: `(partition, variant)`.
    pub fn stalls(&self) -> Vec<(usize, usize)> {
        self.select(|e| match *e {
            MonitorEvent::WorkerStalled { partition, variant, .. } => Some((partition, variant)),
            _ => None,
        })
    }

    /// Quarantine events: `(partition, variant, batch)`.
    pub fn quarantines(&self) -> Vec<(usize, usize, u64)> {
        self.select(|e| match *e {
            MonitorEvent::Quarantined { partition, variant, batch, .. } => {
                Some((partition, variant, batch))
            }
            _ => None,
        })
    }

    /// Successful recoveries: `(partition, variant)` per rejoined variant.
    pub fn recoveries(&self) -> Vec<(usize, usize)> {
        self.select(|e| match *e {
            MonitorEvent::Recovered { partition, variant } => Some((partition, variant)),
            _ => None,
        })
    }

    /// Healed: the slot quarantined at `quarantined_at_batch` was recovered
    /// *and* a later checkpoint of its partition passed with all `panel`
    /// members agreeing.
    pub fn healed_after(
        &self,
        partition: usize,
        variant: usize,
        quarantined_at_batch: u64,
        panel: usize,
    ) -> bool {
        self.recoveries().contains(&(partition, variant))
            && self.checkpoint_passes().iter().any(|&(p, batch, agreeing)| {
                p == partition && batch > quarantined_at_batch && agreeing == panel
            })
    }

    /// The partition of every detection-class event (divergence, crash
    /// or late dissent), in recording order.
    fn detections(&self) -> Vec<usize> {
        self.select(|e| match *e {
            MonitorEvent::DivergenceDetected { partition, .. }
            | MonitorEvent::VariantCrashed { partition, .. }
            | MonitorEvent::LateDissent { partition, .. } => Some(partition),
            _ => None,
        })
    }

    /// The earliest partition ≥ `partition` at which a detection-class
    /// event fired — the signal the campaign's detection invariant checks
    /// against the first checkpoint at-or-after the injection point.
    pub fn first_detection_at_or_after(&self, partition: usize) -> Option<usize> {
        self.detections().into_iter().filter(|&p| p >= partition).min()
    }

    /// Count of detection-class events — the detection signal asserted by
    /// the security tests.
    pub fn detection_count(&self) -> usize {
        self.detections().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_and_counts() {
        let log = EventLog::new();
        assert!(log.is_empty());
        log.record(MonitorEvent::ResponseTaken { partition: 0, action: "halt".into() });
        log.record(MonitorEvent::DivergenceDetected {
            partition: 1,
            batch: 3,
            dissenting: vec![2],
            detail: "x".into(),
        });
        log.record(MonitorEvent::VariantCrashed {
            partition: 1,
            variant: 2,
            batch: 3,
            reason: "oob".into(),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.detection_count(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn log_is_shared_across_clones() {
        let log = EventLog::new();
        let clone = log.clone();
        clone.record(MonitorEvent::LateDissent { partition: 0, batch: 1, variant: 2 });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn events_display() {
        let events = [
            MonitorEvent::VariantBound { partition: 0, variant: 1, measurement: [0; 32] },
            MonitorEvent::DivergenceDetected {
                partition: 0,
                batch: 0,
                dissenting: vec![],
                detail: "d".into(),
            },
            MonitorEvent::VariantCrashed {
                partition: 0,
                variant: 0,
                batch: 0,
                reason: "r".into(),
            },
            MonitorEvent::LateDissent { partition: 0, batch: 0, variant: 0 },
            MonitorEvent::ResponseTaken { partition: 0, action: "a".into() },
            MonitorEvent::BindingUpdated { partition: 0, description: "d".into() },
            MonitorEvent::Quarantined { partition: 0, variant: 0, batch: 0, reason: "q".into() },
            MonitorEvent::RecoveryStarted { partition: 0, variant: 0, attempt: 0 },
            MonitorEvent::Recovered { partition: 0, variant: 0 },
            MonitorEvent::RecoveryFailed {
                partition: 0,
                variant: 0,
                attempts: 4,
                reason: "probation".into(),
            },
            MonitorEvent::HeartbeatMissed { partition: 0, variant: 0, missed: 1 },
            MonitorEvent::WorkerStalled { partition: 0, variant: 0, missed: 3 },
            MonitorEvent::WorkerReconnected { partition: 0, variant: 0 },
        ];
        for e in events {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn supervisor_events_do_not_count_as_detections() {
        let log = EventLog::new();
        log.record(MonitorEvent::HeartbeatMissed { partition: 0, variant: 1, missed: 1 });
        log.record(MonitorEvent::WorkerStalled { partition: 0, variant: 1, missed: 3 });
        log.record(MonitorEvent::WorkerReconnected { partition: 0, variant: 1 });
        assert_eq!(log.detection_count(), 0);
        assert_eq!(log.stalls(), vec![(0, 1)]);
        assert_eq!(log.reconnections(), vec![(0, 1)]);
    }

    #[test]
    fn recovery_events_render_and_do_not_count_as_detections() {
        let log = EventLog::new();
        log.record(MonitorEvent::Quarantined {
            partition: 1,
            variant: 2,
            batch: 5,
            reason: "divergence".into(),
        });
        log.record(MonitorEvent::RecoveryStarted { partition: 1, variant: 2, attempt: 0 });
        log.record(MonitorEvent::Recovered { partition: 1, variant: 2 });
        log.record(MonitorEvent::RecoveryFailed {
            partition: 3,
            variant: 0,
            attempts: 4,
            reason: "probation mismatch".into(),
        });
        let rendered = log.render();
        assert!(rendered.contains("quarantined variant 2 of partition 1 at batch 5"));
        assert!(rendered.contains("recovery attempt 0 for variant 2 of partition 1"));
        assert!(rendered.contains("variant 2 of partition 1 recovered and rejoined"));
        assert!(rendered
            .contains("recovery failed for variant 0 of partition 3 after 4 attempts"));
        // Recovery lifecycle events are *reactions*, not detections:
        // `RecoveryFailed` at partition 3 must not register as a
        // detection there, and none of the four inflate the count.
        assert_eq!(log.first_detection_at_or_after(0), None);
        assert_eq!(log.first_detection_at_or_after(3), None);
        assert_eq!(log.detection_count(), 0);
        assert_eq!(log.quarantines(), vec![(1, 2, 5)]);
        assert_eq!(log.recoveries(), vec![(1, 2)]);
    }

    #[test]
    fn recovery_events_mirror_to_telemetry_counters() {
        let before = mvtee_telemetry::snapshot();
        let log = EventLog::new();
        log.record(MonitorEvent::Quarantined {
            partition: 0,
            variant: 1,
            batch: 0,
            reason: "crash".into(),
        });
        log.record(MonitorEvent::RecoveryStarted { partition: 0, variant: 1, attempt: 0 });
        log.record(MonitorEvent::RecoveryStarted { partition: 0, variant: 1, attempt: 1 });
        log.record(MonitorEvent::Recovered { partition: 0, variant: 1 });
        log.record(MonitorEvent::RecoveryFailed {
            partition: 0,
            variant: 1,
            attempts: 4,
            reason: "r".into(),
        });
        let after = mvtee_telemetry::snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        assert_eq!(delta("core.recovery.quarantined"), 1);
        assert_eq!(delta("core.recovery.started"), 2);
        assert_eq!(delta("core.recovery.recovered"), 1);
        assert_eq!(delta("core.recovery.failed"), 1);
    }

    #[test]
    fn timestamps_monotone() {
        let log = EventLog::new();
        log.record(MonitorEvent::ResponseTaken { partition: 0, action: "a".into() });
        log.record(MonitorEvent::ResponseTaken { partition: 0, action: "b".into() });
        let snap = log.snapshot();
        assert!(snap[0].0 <= snap[1].0);
    }

    #[test]
    fn entries_carry_wall_clock_offsets() {
        let log = EventLog::new();
        log.record(MonitorEvent::ResponseTaken { partition: 3, action: "halt".into() });
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].elapsed_secs >= 0.0);
        let line = entries[0].to_string();
        assert!(line.starts_with("[+"), "missing timestamp prefix: {line}");
        assert!(line.contains("s] response at partition 3: halt"), "bad line: {line}");
    }

    #[test]
    fn render_emits_one_line_per_event() {
        let log = EventLog::new();
        log.record(MonitorEvent::ResponseTaken { partition: 0, action: "a".into() });
        log.record(MonitorEvent::BindingUpdated { partition: 1, description: "d".into() });
        let rendered = log.render();
        assert_eq!(rendered.lines().count(), 2);
        assert!(rendered.lines().all(|l| l.starts_with("[+")));
    }

    #[test]
    fn checkpoint_introspection_helpers() {
        let log = EventLog::new();
        log.record(MonitorEvent::CheckpointPassed { partition: 0, batch: 0, agreeing: 3 });
        log.record(MonitorEvent::VariantCrashed {
            partition: 1,
            variant: 2,
            batch: 0,
            reason: "boom".into(),
        });
        log.record(MonitorEvent::DivergenceDetected {
            partition: 2,
            batch: 0,
            dissenting: vec![1],
            detail: "d".into(),
        });
        log.record(MonitorEvent::LateDissent { partition: 3, batch: 1, variant: 0 });
        assert_eq!(log.checkpoint_passes(), vec![(0, 0, 3)]);
        assert_eq!(log.crashes(), vec![(1, 2, 0)]);
        assert_eq!(
            log.divergences(),
            vec![(2, 0, vec![1]), (3, 1, vec![0])]
        );
        assert_eq!(log.first_detection_at_or_after(0), Some(1));
        assert_eq!(log.first_detection_at_or_after(2), Some(2));
        assert_eq!(log.first_detection_at_or_after(4), None);
        // A passed checkpoint is not a detection.
        assert_eq!(log.detection_count(), 3);
    }

    #[test]
    fn detections_mirror_to_telemetry_counters() {
        let before = mvtee_telemetry::snapshot();
        let log = EventLog::new();
        log.record(MonitorEvent::DivergenceDetected {
            partition: 0,
            batch: 0,
            dissenting: vec![1],
            detail: "d".into(),
        });
        log.record(MonitorEvent::VariantCrashed {
            partition: 0,
            variant: 1,
            batch: 0,
            reason: "r".into(),
        });
        log.record(MonitorEvent::LateDissent { partition: 0, batch: 0, variant: 1 });
        log.record(MonitorEvent::ResponseTaken { partition: 0, action: "halt".into() });
        let after = mvtee_telemetry::snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        assert_eq!(delta("core.events.divergence"), 1);
        assert_eq!(delta("core.events.crash"), 1);
        assert_eq!(delta("core.events.late_dissent"), 1);
    }
}
