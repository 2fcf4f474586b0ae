//! The recovery manager: closes the detect→react loop.
//!
//! Detection alone (PR 2's campaign engine) leaves a deployment that
//! permanently degrades on the first fault: a crashed or divergent
//! variant is dropped and later batches "continue with survivors"
//! forever, quietly shrinking the panel until the security guarantee
//! becomes a fast path. The recovery manager restores full panel
//! strength mid-stream:
//!
//! 1. a coordinator **quarantines** the offending variant (bumping its
//!    channel epoch so in-flight pre-quarantine frames are recognisably
//!    stale) and files a [`RecoveryRequest`] carrying the last *verified*
//!    checkpoint payload,
//! 2. the manager **re-provisions** a replacement through the very
//!    function launch, updates and key rotation use
//!    (`Provisioner::bring_up` in `provision.rs`) — fresh sealed bundle
//!    under a fresh variant key, fresh enclave, full Fig 6
//!    re-attestation and re-binding (append-only, generation-scoped
//!    anti-fork ids) — with a retry budget and exponential backoff,
//! 3. the replacement serves a **probation** batch: it must reproduce
//!    the last verified checkpoint outputs under the partition's
//!    consistency metric before it is allowed anywhere near live
//!    traffic,
//! 4. the replacement answers probation into a channel of the manager's
//!    own; on success the manager re-points its response port, once, at
//!    the coordinator's inbox and hands the coordinator its links there
//!    via [`Inbound::Recovered`]. The variant rejoins the panel on the
//!    next batch without replaying batch history.

use crate::config::RecoveryPolicy;
use crate::deployment::seal_artifact;
use crate::events::MonitorEvent;
use crate::link::{DataLink, ResponsePort};
use crate::messages::{decode, encode, StageRequest, StageResponse};
use crate::pipeline::Inbound;
use crate::provision::Provisioner;
use crate::variant_host::HostFaults;
use crate::{MvxError, Result};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mvtee_diversify::{VariantGenerator, VariantId, VariantSpec};
use mvtee_graph::Graph;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// A coordinator's request to re-provision one quarantined variant.
pub struct RecoveryRequest {
    /// Partition index.
    pub partition: usize,
    /// Variant index within the partition.
    pub variant: usize,
    /// The post-quarantine channel epoch the replacement must emit under.
    pub epoch: u64,
    /// Why the variant was quarantined.
    pub reason: String,
    /// Last verified checkpoint payload (`None` if nothing verified yet —
    /// probation is skipped and the freshly attested variant rejoins
    /// directly).
    pub resync: Option<ResyncPoint>,
    /// The coordinator's inbox.
    pub inbox: Sender<Inbound>,
}

/// What only recovery knows on top of the bring-up state it shares with
/// the deployment.
pub(crate) struct RecoveryContext {
    /// The running generation's bring-up state.
    pub provisioner: Arc<Provisioner>,
    /// Per-partition subgraphs (the clean copies — a replacement never
    /// inherits a predecessor's sealed-memory faults).
    pub subgraphs: Vec<Graph>,
    /// Per-(partition, variant) base specs.
    pub specs: Vec<Vec<VariantSpec>>,
    /// Per-partition consistency metrics (probation comparison).
    pub metrics: Vec<mvtee_tensor::metrics::Metric>,
    /// Whether and how stubbornly to recover.
    pub policy: RecoveryPolicy,
    /// The platform-wide simulated faults (a CVE, a FrameFlip). They
    /// persist across re-provisioning — the host software stack does not
    /// change when an enclave restarts — whereas liveness and wire faults
    /// are transient (scheduler stalls, lossy channels): a fresh enclave
    /// gets a fresh channel and does not re-inherit them.
    pub platform_faults: HostFaults,
}

/// Spawns the recovery-manager thread. It exits when every
/// [`RecoveryRequest`] sender (one per coordinator plus the deployment's
/// own) has been dropped.
pub(crate) fn spawn_recovery_manager(
    ctx: RecoveryContext,
    requests: Receiver<RecoveryRequest>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("recovery-manager".into())
        .spawn(move || {
            let events = &ctx.provisioner.events;
            let mut seq: u64 = 0;
            let time_to_recovery =
                mvtee_telemetry::histogram("core.recovery.time_to_recovery_ns");
            let crash_loop_trips = mvtee_telemetry::counter("core.recovery.crash_loop_trips");
            // Per-variant death timestamps inside the crash-loop window.
            let mut death_log: HashMap<(usize, usize), VecDeque<Instant>> = HashMap::new();
            while let Ok(req) = requests.recv() {
                let started = Instant::now();
                // Crash-loop detection: a variant dying faster than it
                // heals would otherwise respawn forever, soaking the
                // retry budget and masking a persistent fault. Once more
                // than `crash_loop_budget` deaths land inside the window
                // the variant is abandoned to the degradation policy.
                if ctx.policy.crash_loop_budget > 0 {
                    let deaths = death_log.entry((req.partition, req.variant)).or_default();
                    let now = Instant::now();
                    let expired = |t: &Instant| now.duration_since(*t) > CRASH_LOOP_WINDOW;
                    while deaths.front().is_some_and(expired) {
                        deaths.pop_front();
                    }
                    deaths.push_back(now);
                    if deaths.len() as u64 > u64::from(ctx.policy.crash_loop_budget) {
                        crash_loop_trips.inc();
                        events.record(MonitorEvent::RecoveryFailed {
                            partition: req.partition,
                            variant: req.variant,
                            attempts: 0,
                            reason: format!(
                                "crash-loop budget exhausted: {} deaths inside {:?} \
                                 (budget {})",
                                deaths.len(),
                                CRASH_LOOP_WINDOW,
                                ctx.policy.crash_loop_budget
                            ),
                        });
                        continue;
                    }
                }
                // Recovery work forms its own trace keyed by the
                // quarantined variant's coordinates and channel epoch;
                // probation replay spans nest under it via the ambient
                // context.
                let tracer = mvtee_telemetry::trace::recorder();
                let recovery_ctx =
                    mvtee_telemetry::trace::TraceCtx::for_recovery(req.partition, req.variant, req.epoch);
                let recovery_span = tracer
                    .span(recovery_ctx, "core.recovery", "recovery")
                    .arg("partition", req.partition)
                    .arg("variant", req.variant)
                    .arg("epoch", req.epoch);
                mvtee_telemetry::trace::set_current(recovery_span.ctx());
                let attempts_allowed = RecoveryPolicy::MAX_RETRIES + 1;
                let mut last_err = req.reason.clone();
                let mut recovered = false;
                for attempt in 0..attempts_allowed {
                    if attempt > 0 {
                        std::thread::sleep(RecoveryPolicy::backoff(attempt - 1));
                    }
                    events.record(MonitorEvent::RecoveryStarted {
                        partition: req.partition,
                        variant: req.variant,
                        attempt,
                    });
                    seq += 1;
                    match attempt_recovery(&ctx, &req, seq) {
                        Ok(()) => {
                            recovered = true;
                            break;
                        }
                        Err(e) => last_err = e.to_string(),
                    }
                }
                drop(recovery_span);
                if recovered {
                    time_to_recovery.record_duration(started.elapsed());
                    events.record(MonitorEvent::Recovered {
                        partition: req.partition,
                        variant: req.variant,
                    });
                } else {
                    events.record(MonitorEvent::RecoveryFailed {
                        partition: req.partition,
                        variant: req.variant,
                        attempts: attempts_allowed,
                        reason: last_err,
                    });
                }
            }
        })
        .expect("thread spawn cannot fail")
}

/// One re-provisioning attempt: seal a fresh bundle, bring a fresh
/// enclave up on probation, hand its link to the coordinator.
fn attempt_recovery(ctx: &RecoveryContext, req: &RecoveryRequest, seq: u64) -> Result<()> {
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
    // It answers probation to the manager alone, and the stage only behind
    // the rejoin. It sends only what it is asked: no frame falls between.
    let (private, answers) = unbounded();
    let port = ResponsePort::new(private, v, req.epoch);
    let repoint = port.repoint_handle();
    let faults = ctx.platform_faults.clone();
    let on_probation = |tx: &mut _, rx: &mut _| probation(ctx, req, tx, rx, &answers);
    let mut link = provisioner.bring_up((p, v), &artifact, faults, None, port, on_probation)?;
    link.description.push_str(" (recovered)");
    let rejoin = Inbound::Recovered { variant: v, epoch: req.epoch, link };
    let gone = || MvxError::Transport("replacement or pipeline gone before rejoin".into());
    repoint.to(req.inbox.clone(), rejoin).then_some(()).ok_or_else(gone)
}

/// Probation: replay the last verified checkpoint inputs and demand the
/// verified outputs back (on `answers`) under the partition's metric
/// before the replacement is allowed to vote on live traffic. Nothing
/// verified yet: the freshly attested variant rejoins directly.
fn probation(
    ctx: &RecoveryContext,
    req: &RecoveryRequest,
    tx: &mut DataLink,
    rx: &mut DataLink,
    answers: &Receiver<Inbound>,
) -> Result<()> {
    let (p, v) = (req.partition, req.variant);
    let Some(resync) = &req.resync else { return Ok(()) };
    tx.send(&encode(&StageRequest::Input {
        batch: resync.batch,
        trace: mvtee_telemetry::trace::current().as_pair(),
        tensors: resync.inputs.clone(),
    })?)?;
    let Ok(Inbound::Frame { frame, .. }) = answers.recv() else {
        return Err(MvxError::Transport(format!("probation failed: p{p}v{v} hung up")));
    };
    match decode::<StageResponse>(&rx.open(frame)?)? {
        StageResponse::Output { tensors, .. } => {
            let metric = ctx.metrics[p];
            let matches = tensors.len() == resync.outputs.len()
                && tensors.iter().zip(&resync.outputs).all(|(a, b)| metric.check(a, b));
            if matches {
                Ok(())
            } else {
                Err(MvxError::Tee(format!(
                    "probation failed: replacement p{p}v{v} diverged from the \
                     verified checkpoint at batch {}",
                    resync.batch
                )))
            }
        }
        StageResponse::Crashed { reason, .. } => Err(MvxError::Tee(format!(
            "probation failed: replacement p{p}v{v} crashed: {reason}"
        ))),
    }
}
