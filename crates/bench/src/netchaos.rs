//! The `netchaos` experiment: adversarial-transport storms.
//!
//! Four phases, all seeded and replayable:
//!
//! * **Wire gauntlet** — a [`SecureChannel`] pair with a seeded
//!   [`FaultyTransport`] between them, per wire-fault class × trials.
//!   Every injected perturbation must surface as an AEAD, sequence, or
//!   transport error — a receiver that *accepts wrong bytes* is an
//!   instant gate failure, and byte corruption specifically must be
//!   rejected by AEAD authentication at 100%.
//! * **Deployment storms** — the real threaded panel with the fault
//!   wrapped around panel variant 0's response wire, per class × seeds.
//!   Every storm must end Detected-or-Healed: corruption and liveness
//!   classes quarantine and re-provision back to full strength; only a
//!   sub-deadline delay may end masked. Outputs are checked bit-for-bit
//!   against a fault-free oracle on every batch, and the rendered audit
//!   transcript must be byte-identical to the oracle's for storms that
//!   never degraded (degraded storms self-audit instead — quarantine
//!   entries make full transcript identity impossible by design).
//! * **Flap probe** — a worker process killed repeatedly until the
//!   crash-loop budget trips: the recovery manager must record
//!   `RecoveryFailed` with a crash-loop reason, stop respawning, and the
//!   panel must keep serving correct outputs degraded.
//! * **Reconnect probe** — an abrupt wire disconnect under heartbeat
//!   supervision with reconnect-and-resume: the same worker process must
//!   redial and rejoin (a reconnect heal, not a respawn heal).
//!
//! Artifact: `BENCH_netchaos.json` — per-class heal-latency p50/p95,
//! injected-vs-detected counts, and the reconnect-vs-respawn split.

use mvtee::config::{MvxConfig, PartitionMvx, RecoveryPolicy, ResponsePolicy, SupervisionPolicy};
use mvtee::transcript::verify_transcript;
use mvtee::{DegradationPolicy, Deployment, MonitorEvent, MvxError};
use mvtee_crypto::channel::{memory_pair, Handshake, Role, SecureChannel};
use mvtee_crypto::CryptoError;
use mvtee_faults::{
    FaultDescriptor, FaultDirection, FaultyTransport, NetFault, NetFaultClass,
};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Partitions in the storm deployments.
const PARTITIONS: usize = 2;
/// The MVX partition carrying the panel (and the faulted wire).
const MVX_PARTITION: usize = 1;
/// Panel size: 2-of-3 keeps voting while one member is out.
const PANEL: usize = 3;
/// Frames pushed through each gauntlet trial.
const GAUNTLET_FRAMES: usize = 6;
/// Distinct inputs cycled through a storm stream.
const INPUT_PERIOD: u64 = 3;
/// Batches a storm must stream before terminal-state classification.
const STORM_MIN_BATCHES: u64 = 6;
/// Hard cap on batches per storm (a heal that has not landed by then is
/// a finding, not a wait).
const STORM_BATCH_CAP: u64 = 40;
/// Checkpoint deadline of the storm deployments, ms.
const STORM_DEADLINE_MS: u64 = 300;
/// Crash-loop budget of the flap probe: the third death inside the
/// window must trip it.
const FLAP_BUDGET: u32 = 2;
/// Monitor-side inbound frame index at which the reconnect probe tears
/// the wire: past the bootstrap exchange, inside the response stream.
const RECONNECT_FROM_FRAME: u64 = 8;

/// Netchaos experiment parameters.
#[derive(Debug, Clone)]
pub struct NetchaosSettings {
    /// Master seed: weights, inputs, schedules derive from it.
    pub seed: u64,
    /// Deployment storms per wire-fault class.
    pub storms_per_class: usize,
    /// Wire-gauntlet trials per class.
    pub gauntlet_trials: usize,
    /// Run the crash-loop flap probe (spawns and kills worker processes).
    pub probe_flap: bool,
    /// Run the reconnect-and-resume probe (spawns a worker process).
    pub probe_reconnect: bool,
    /// Zoo model under test.
    pub model: ModelKind,
    /// Zoo scale.
    pub profile: ScaleProfile,
}

impl NetchaosSettings {
    /// CI smoke configuration.
    pub fn quick(seed: u64) -> Self {
        NetchaosSettings {
            seed,
            storms_per_class: 1,
            gauntlet_trials: 4,
            probe_flap: true,
            probe_reconnect: true,
            model: ModelKind::MnasNet,
            profile: ScaleProfile::Test,
        }
    }

    /// Full configuration: more storms and trials through the same gates.
    pub fn full(seed: u64) -> Self {
        NetchaosSettings { storms_per_class: 3, gauntlet_trials: 16, ..Self::quick(seed) }
    }
}

/// Per-class tallies of the wire gauntlet.
#[derive(Debug, Clone, Default)]
pub struct GauntletRow {
    /// Class token (`delay`, `stall`, …).
    pub class: String,
    /// Trials run.
    pub trials: usize,
    /// Perturbations the wrapper injected across the trials.
    pub injected: u64,
    /// Trials ending in an AEAD authentication failure.
    pub detected_auth: usize,
    /// Trials ending in a sequence mismatch (drop/duplicate exposure).
    pub detected_seq: usize,
    /// Trials ending in a transport error or a short stream.
    pub detected_transport: usize,
    /// Trials where every frame arrived intact and in order.
    pub intact: usize,
    /// Trials where the receiver ACCEPTED wrong bytes (must be zero).
    pub masked_accepts: usize,
}

impl GauntletRow {
    fn detected(&self) -> usize {
        self.detected_auth + self.detected_seq + self.detected_transport
    }
}

/// One deployment storm.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Class token.
    pub class: String,
    /// The replayable fault spec (`net:…`).
    pub spec: String,
    /// Batches streamed.
    pub batches: u64,
    /// Batches whose forwarded output was lost or wrong (must be zero).
    pub lost_batches: u64,
    /// Perturbations injected on the wire during the storm.
    pub injected: u64,
    /// The panel quarantined the faulted member (detection).
    pub detected: bool,
    /// The panel returned to full strength after a quarantine.
    pub healed: bool,
    /// The fault raised no alarm and provably had no effect (delay only).
    pub masked: bool,
    /// Latency from the observed quarantine to full strength, ns.
    pub heal_ns: u64,
    /// Rendered audit transcript byte-identical to the fault-free
    /// oracle's (expected only for storms that never degraded).
    pub transcript_identical: bool,
    /// The storm transcript passed its own Merkle self-audit.
    pub audit_ok: bool,
}

/// What the crash-loop flap probe observed.
#[derive(Debug, Clone, Default)]
pub struct FlapProbe {
    /// Worker kills delivered.
    pub kills: usize,
    /// Respawn heals before the budget tripped.
    pub respawn_heals: usize,
    /// The crash-loop budget tripped.
    pub tripped: bool,
    /// `RecoveryFailed` with a crash-loop reason was recorded.
    pub recovery_failed_logged: bool,
    /// Post-trip batches still served bit-correct on the survivors.
    pub degraded_service_ok: bool,
    /// Infrastructure failure, if any.
    pub error: Option<String>,
}

/// What the reconnect probe observed.
#[derive(Debug, Clone, Default)]
pub struct ReconnectProbe {
    /// The severed worker rejoined over its retained listener.
    pub reconnected: bool,
    /// Fresh worker processes spawned during the heal (must be zero —
    /// a reconnect heal reuses the live process).
    pub respawns_during_heal: u64,
    /// The panel returned to full strength.
    pub full_strength: bool,
    /// Batches lost or wrong across the probe (must be zero).
    pub lost_batches: u64,
    /// Infrastructure failure, if any.
    pub error: Option<String>,
}

/// Everything the netchaos experiment produced.
#[derive(Debug, Clone)]
pub struct NetchaosReport {
    /// The master seed.
    pub seed: u64,
    /// The run-configuration fingerprint welded into the transcripts.
    pub fingerprint: String,
    /// Wire-gauntlet tallies, one row per class.
    pub gauntlet: Vec<GauntletRow>,
    /// Deployment storms, in run order.
    pub storms: Vec<Storm>,
    /// The flap probe, when requested.
    pub flap: Option<FlapProbe>,
    /// The reconnect probe, when requested.
    pub reconnect: Option<ReconnectProbe>,
}

impl NetchaosReport {
    /// Heal-latency percentile over the healed storms of `class`.
    pub fn heal_percentile(&self, class: &str, q: f64) -> u64 {
        let mut ns: Vec<u64> = self
            .storms
            .iter()
            .filter(|s| s.class == class && s.healed)
            .map(|s| s.heal_ns)
            .collect();
        ns.sort_unstable();
        percentile(&ns, q)
    }

    /// The gate CI holds the run to.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for row in &self.gauntlet {
            if row.masked_accepts > 0 {
                failures.push(format!(
                    "gauntlet/{}: {} trial(s) ACCEPTED wrong bytes",
                    row.class, row.masked_accepts
                ));
            }
            if row.class == "delay" {
                if row.intact != row.trials {
                    failures.push(format!(
                        "gauntlet/delay: {}/{} trials arrived intact",
                        row.intact, row.trials
                    ));
                }
            } else if row.detected() != row.trials {
                failures.push(format!(
                    "gauntlet/{}: {}/{} trials detected (missed {})",
                    row.class,
                    row.detected(),
                    row.trials,
                    row.trials - row.detected() - row.masked_accepts
                ));
            }
            if row.class == "corrupt" && row.detected_auth != row.trials {
                failures.push(format!(
                    "gauntlet/corrupt: only {}/{} trials rejected by AEAD authentication",
                    row.detected_auth, row.trials
                ));
            }
            if row.injected == 0 {
                failures.push(format!("gauntlet/{}: nothing was injected", row.class));
            }
        }
        for s in &self.storms {
            if s.lost_batches > 0 {
                failures.push(format!(
                    "storm {}: {} batch(es) lost or wrong",
                    s.spec, s.lost_batches
                ));
            }
            if s.injected == 0 {
                failures.push(format!("storm {}: nothing was injected", s.spec));
            }
            if !s.audit_ok {
                failures.push(format!("storm {}: transcript failed its self-audit", s.spec));
            }
            if s.class == "delay" {
                if !s.masked && !s.healed {
                    failures.push(format!("storm {}: neither masked nor healed", s.spec));
                }
                if s.masked && !s.transcript_identical {
                    failures.push(format!(
                        "storm {}: masked but transcript differs from the oracle",
                        s.spec
                    ));
                }
            } else if !(s.detected && s.healed) {
                failures.push(format!(
                    "storm {}: must be detected and healed (detected={}, healed={})",
                    s.spec, s.detected, s.healed
                ));
            }
        }
        if let Some(f) = &self.flap {
            if let Some(e) = &f.error {
                failures.push(format!("flap probe aborted: {e}"));
            } else {
                if !f.tripped {
                    failures.push("flap probe: the crash-loop budget never tripped".into());
                }
                if !f.recovery_failed_logged {
                    failures
                        .push("flap probe: no RecoveryFailed with a crash-loop reason".into());
                }
                if !f.degraded_service_ok {
                    failures.push("flap probe: degraded service served wrong outputs".into());
                }
            }
        }
        if let Some(r) = &self.reconnect {
            if let Some(e) = &r.error {
                failures.push(format!("reconnect probe aborted: {e}"));
            } else {
                if !r.reconnected {
                    failures.push("reconnect probe: the severed worker never rejoined".into());
                }
                if r.respawns_during_heal > 0 {
                    failures.push(format!(
                        "reconnect probe: {} respawn(s) — the heal must reuse the live worker",
                        r.respawns_during_heal
                    ));
                }
                if !r.full_strength {
                    failures.push("reconnect probe: panel never returned to full strength".into());
                }
                if r.lost_batches > 0 {
                    failures.push(format!(
                        "reconnect probe: {} batch(es) lost or wrong",
                        r.lost_batches
                    ));
                }
            }
        }
        failures
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# netchaos seed={} fingerprint={} storms={} gauntlet-trials/class={}",
            self.seed,
            self.fingerprint,
            self.storms.len(),
            self.gauntlet.first().map_or(0, |r| r.trials)
        );
        for r in &self.gauntlet {
            let _ = writeln!(
                out,
                "gauntlet {:>7}: injected={} detected={} (auth={} seq={} transport={}) intact={} masked-accepts={}",
                r.class,
                r.injected,
                r.detected(),
                r.detected_auth,
                r.detected_seq,
                r.detected_transport,
                r.intact,
                r.masked_accepts
            );
        }
        for s in &self.storms {
            let _ = writeln!(
                out,
                "storm {:<18} batches={} lost={} injected={} detected={} healed={} masked={} \
                 heal {:.1} ms transcript-identical={} audit-ok={}",
                s.spec,
                s.batches,
                s.lost_batches,
                s.injected,
                s.detected,
                s.healed,
                s.masked,
                s.heal_ns as f64 / 1e6,
                s.transcript_identical,
                s.audit_ok
            );
        }
        for class in NetFaultClass::ALL_TOKENS {
            let healed = self.storms.iter().filter(|s| s.class == class && s.healed).count();
            if healed > 0 {
                let _ = writeln!(
                    out,
                    "heal {:>7}: p50 {:.1} ms, p95 {:.1} ms over {healed} heal(s)",
                    class,
                    self.heal_percentile(class, 0.50) as f64 / 1e6,
                    self.heal_percentile(class, 0.95) as f64 / 1e6
                );
            }
        }
        if let Some(f) = &self.flap {
            let _ = writeln!(
                out,
                "flap: kills={} respawn-heals={} tripped={} recovery-failed-logged={} degraded-ok={}{}",
                f.kills,
                f.respawn_heals,
                f.tripped,
                f.recovery_failed_logged,
                f.degraded_service_ok,
                f.error.as_deref().map(|e| format!(" ABORTED: {e}")).unwrap_or_default()
            );
        }
        if let Some(r) = &self.reconnect {
            let _ = writeln!(
                out,
                "reconnect: reconnected={} respawns-during-heal={} full-strength={} lost={}{}",
                r.reconnected,
                r.respawns_during_heal,
                r.full_strength,
                r.lost_batches,
                r.error.as_deref().map(|e| format!(" ABORTED: {e}")).unwrap_or_default()
            );
        }
        for f in self.gate_failures() {
            let _ = writeln!(out, "GATE: {f}");
        }
        out
    }

    /// The `BENCH_netchaos.json` artifact.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&crate::meta_json_line("mvtee-netchaos-v1", self.seed, &self.fingerprint));
        out.push_str("  \"gauntlet\": [\n");
        for (i, r) in self.gauntlet.iter().enumerate() {
            let comma = if i + 1 == self.gauntlet.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"class\": \"{}\", \"trials\": {}, \"injected\": {}, \
                 \"detected_auth\": {}, \"detected_seq\": {}, \"detected_transport\": {}, \
                 \"intact\": {}, \"masked_accepts\": {}}}{comma}",
                r.class,
                r.trials,
                r.injected,
                r.detected_auth,
                r.detected_seq,
                r.detected_transport,
                r.intact,
                r.masked_accepts
            );
        }
        out.push_str("  ],\n  \"storms\": [\n");
        for (i, s) in self.storms.iter().enumerate() {
            let comma = if i + 1 == self.storms.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"class\": \"{}\", \"spec\": \"{}\", \"batches\": {}, \
                 \"lost_batches\": {}, \"injected\": {}, \"detected\": {}, \"healed\": {}, \
                 \"masked\": {}, \"heal_ns\": {}, \"transcript_identical\": {}, \
                 \"audit_ok\": {}}}{comma}",
                s.class,
                s.spec,
                s.batches,
                s.lost_batches,
                s.injected,
                s.detected,
                s.healed,
                s.masked,
                s.heal_ns,
                s.transcript_identical,
                s.audit_ok
            );
        }
        out.push_str("  ],\n  \"heal_latency\": {\n");
        let classes: Vec<&str> = NetFaultClass::ALL_TOKENS
            .iter()
            .copied()
            .filter(|c| self.storms.iter().any(|s| s.class == *c && s.healed))
            .collect();
        for (i, class) in classes.iter().enumerate() {
            let comma = if i + 1 == classes.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"p50_ns\": {}, \"p95_ns\": {}}}{comma}",
                class,
                self.heal_percentile(class, 0.50),
                self.heal_percentile(class, 0.95)
            );
        }
        out.push_str("  },\n");
        match &self.flap {
            None => out.push_str("  \"flap\": null,\n"),
            Some(f) => {
                let _ = writeln!(
                    out,
                    "  \"flap\": {{\"kills\": {}, \"respawn_heals\": {}, \"tripped\": {}, \
                     \"recovery_failed_logged\": {}, \"degraded_service_ok\": {}, \"error\": {}}},",
                    f.kills,
                    f.respawn_heals,
                    f.tripped,
                    f.recovery_failed_logged,
                    f.degraded_service_ok,
                    match &f.error {
                        None => "null".to_string(),
                        Some(e) => format!("{e:?}"),
                    }
                );
            }
        }
        match &self.reconnect {
            None => out.push_str("  \"reconnect\": null,\n"),
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  \"reconnect\": {{\"reconnected\": {}, \"respawns_during_heal\": {}, \
                     \"full_strength\": {}, \"lost_batches\": {}, \"error\": {}}},",
                    r.reconnected,
                    r.respawns_during_heal,
                    r.full_strength,
                    r.lost_batches,
                    match &r.error {
                        None => "null".to_string(),
                        Some(e) => format!("{e:?}"),
                    }
                );
            }
        }
        let failures = self.gate_failures();
        let _ = writeln!(
            out,
            "  \"gate_failures\": [{}]",
            failures.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>().join(", ")
        );
        out.push_str("}\n");
        out
    }
}

/// `v` of the sorted slice at quantile `q`.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The seeded fault of trial/storm `index` of `class`.
fn fault_for(class: &str, rng: &mut StdRng) -> NetFault {
    let from_frame = rng.gen_range(1..=2);
    let class = match class {
        "delay" => NetFaultClass::Delay { ms: rng.gen_range(10..=40) },
        "stall" => NetFaultClass::Stall,
        "drop" => NetFaultClass::Drop,
        "dup" => NetFaultClass::Duplicate,
        "trunc" => NetFaultClass::Truncate,
        "corrupt" => NetFaultClass::Corrupt { seed: rng.next_u64() },
        "torn" => NetFaultClass::Torn,
        "disc" => NetFaultClass::Disconnect,
        other => unreachable!("unknown class token {other}"),
    };
    NetFault { class, from_frame }
}

/// One wire-gauntlet trial: pushes [`GAUNTLET_FRAMES`] seeded payloads
/// through a faulted [`SecureChannel`] and tallies how the fault
/// surfaced.
fn gauntlet_trial(row: &mut GauntletRow, fault: NetFault, rng: &mut StdRng) {
    let payloads: Vec<Vec<u8>> = (0..GAUNTLET_FRAMES)
        .map(|_| (0..64).map(|_| rng.next_u32() as u8).collect())
        .collect();
    let hs_i = Handshake::from_pre_shared(b"netchaos-gauntlet", Role::Initiator);
    let hs_r = Handshake::from_pre_shared(b"netchaos-gauntlet", Role::Responder);
    let (a, b) = memory_pair();
    let faulty = FaultyTransport::new(a, fault, FaultDirection::Send);
    let injected = faulty.injected_handle();
    let mut tx = SecureChannel::new(faulty, &hs_i, 9);
    let mut rx = SecureChannel::new(b, &hs_r, 9);

    for p in &payloads {
        if tx.send(p).is_err() {
            // The sender's wire died (torn / disconnect): a loud,
            // sender-visible failure, never silent corruption.
            break;
        }
    }
    drop(tx); // end of stream: a starved receiver unblocks with Err

    let mut received = 0usize;
    loop {
        if received == payloads.len() {
            row.intact += 1;
            break;
        }
        match rx.recv() {
            Ok(p) if p == payloads[received] => received += 1,
            Ok(_) => {
                row.masked_accepts += 1;
                break;
            }
            Err(CryptoError::AuthenticationFailed) => {
                row.detected_auth += 1;
                break;
            }
            Err(CryptoError::SequenceMismatch { .. }) => {
                row.detected_seq += 1;
                break;
            }
            Err(_) => {
                row.detected_transport += 1;
                break;
            }
        }
    }
    row.trials += 1;
    row.injected += injected.load(Ordering::SeqCst);
}

/// The wire gauntlet: every class × `trials` seeded trials.
fn run_gauntlet(s: &NetchaosSettings) -> Vec<GauntletRow> {
    NetFaultClass::ALL_TOKENS
        .iter()
        .map(|class| {
            let mut row = GauntletRow { class: class.to_string(), ..Default::default() };
            for trial in 0..s.gauntlet_trials {
                let mut rng =
                    StdRng::seed_from_u64(s.seed ^ 0xAE7_u64 ^ ((trial as u64) << 8));
                let fault = fault_for(class, &mut rng);
                gauntlet_trial(&mut row, fault, &mut rng);
            }
            row
        })
        .collect()
}

/// The storm deployment configuration: replicated 3-variant panel with a
/// tight deadline, majority response, graceful degradation, and recovery.
fn storm_config() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(PARTITIONS);
    cfg.claims[MVX_PARTITION] = PartitionMvx::replicated(PANEL);
    cfg.checkpoint_deadline_ms = STORM_DEADLINE_MS;
    cfg.response = ResponsePolicy::ContinueWithMajority;
    cfg.degradation = DegradationPolicy::Degrade;
    cfg.recovery = RecoveryPolicy::enabled();
    cfg
}

/// The run-configuration fingerprint welded into the transcript header.
fn config_fingerprint(model: &zoo::Model) -> String {
    format!(
        "{}-{:016x}-netchaos-p{}x{}",
        model.kind.display_name(),
        mvtee_runtime::graph_fingerprint(&model.graph),
        PARTITIONS,
        PANEL
    )
}

/// The deterministic input of storm batch `index`.
fn storm_input(seed: u64, model: &zoo::Model, index: u64) -> Tensor {
    let n = model.input_shape.num_elements();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5707_u64 ^ (index % INPUT_PERIOD));
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, model.input_shape.dims()).expect("static input shape")
}

/// Bit-exact tensor equality (NaN-safe).
fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data().iter()).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// One deployment storm: streams batches with the fault on panel variant
/// 0's response wire until the panel heals (or the delay provably masks),
/// then replays the same batch count fault-free for transcript identity.
fn run_storm(s: &NetchaosSettings, class: &str, storm_idx: usize) -> Result<Storm, MvxError> {
    let storm_seed = s.seed ^ ((storm_idx as u64 + 1) << 16);
    let mut rng = StdRng::seed_from_u64(storm_seed ^ 0x5707_u64);
    let fault = fault_for(class, &mut rng);
    let injected0 = mvtee_telemetry::counter("faults.net.injected").get();

    let model = zoo::build(s.model, s.profile, s.seed).expect("zoo model builds");
    let fingerprint = config_fingerprint(&model);
    let inputs: Vec<Tensor> =
        (0..INPUT_PERIOD).map(|i| storm_input(s.seed, &model, i)).collect();
    let cfg = storm_config();

    // The correctness oracle fixes the expected output of each input.
    let mut oracle = Deployment::builder(model)
        .config(cfg.clone())
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .build()?;
    let expected: Vec<Tensor> =
        inputs.iter().map(|i| oracle.infer(i)).collect::<Result<_, _>>()?;
    oracle.shutdown();

    let mut dep = Deployment::builder(zoo::build(s.model, s.profile, s.seed).expect("model"))
        .config(cfg.clone())
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .fault(FaultDescriptor::Net(fault), Some((MVX_PARTITION, 0)))
        .build()?;

    let mut storm = Storm {
        class: class.to_string(),
        spec: fault.to_string(),
        batches: 0,
        lost_batches: 0,
        injected: 0,
        detected: false,
        healed: false,
        masked: false,
        heal_ns: 0,
        transcript_identical: false,
        audit_ok: false,
    };
    let mut quarantined_at: Option<Instant> = None;
    for b in 0..STORM_BATCH_CAP {
        let idx = (b % INPUT_PERIOD) as usize;
        match dep.infer(&inputs[idx]) {
            Ok(out) if bits_equal(&out, &expected[idx]) => {}
            _ => storm.lost_batches += 1,
        }
        storm.batches += 1;
        if b + 1 < STORM_MIN_BATCHES {
            continue;
        }
        let events = dep.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            storm.detected = true;
            let seen = *quarantined_at.get_or_insert_with(Instant::now);
            let full = events.recoveries().contains(&(qp, qv))
                && events.checkpoint_passes().iter().any(|&(pp, pb, agreeing)| {
                    pp == qp && pb > qb && agreeing == PANEL
                });
            if full {
                storm.healed = true;
                storm.heal_ns = seen.elapsed().as_nanos() as u64;
                break;
            }
            // Recovery is asynchronous: give the manager a beat.
            std::thread::sleep(Duration::from_millis(20));
        } else if matches!(fault.class, NetFaultClass::Delay { .. }) {
            // Every output matched and no alarm fired: a sub-deadline
            // delay, provably without effect. No other class may end
            // here — the gate catches it.
            storm.masked = true;
            break;
        }
    }
    storm.injected = mvtee_telemetry::counter("faults.net.injected").get() - injected0;
    let transcript = dep.transcript().render(s.seed, &fingerprint);
    dep.shutdown();
    storm.audit_ok = verify_transcript(&transcript).is_ok();

    // The transcript oracle: the identical stream on a clean wire.
    let mut clean = Deployment::builder(zoo::build(s.model, s.profile, s.seed).expect("model"))
        .config(cfg)
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .build()?;
    for b in 0..storm.batches {
        let idx = (b % INPUT_PERIOD) as usize;
        let _ = clean.infer(&inputs[idx])?;
    }
    let reference = clean.transcript().render(s.seed, &fingerprint);
    clean.shutdown();
    storm.transcript_identical = transcript == reference;
    Ok(storm)
}

/// The crash-loop flap probe: one out-of-process panel member killed
/// after every heal until the budget trips.
fn run_flap_probe(s: &NetchaosSettings) -> FlapProbe {
    let mut probe = FlapProbe::default();
    let mut cfg = storm_config();
    cfg.recovery.crash_loop_budget = FLAP_BUDGET;

    let model = zoo::build(s.model, s.profile, s.seed).expect("zoo model builds");
    let inputs: Vec<Tensor> =
        (0..INPUT_PERIOD).map(|i| storm_input(s.seed, &model, i)).collect();
    let mut oracle = match Deployment::builder(model)
        .config(cfg.clone())
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .build()
    {
        Ok(d) => d,
        Err(e) => {
            probe.error = Some(format!("oracle failed: {e}"));
            return probe;
        }
    };
    let expected: Vec<Tensor> = match inputs.iter().map(|i| oracle.infer(i)).collect() {
        Ok(v) => v,
        Err(e) => {
            probe.error = Some(format!("oracle run failed: {e}"));
            return probe;
        }
    };
    oracle.shutdown();

    let mut dep = match Deployment::builder(
        zoo::build(s.model, s.profile, s.seed).expect("model"),
    )
    .config(cfg.clone())
    .partition_seed(s.seed)
    .variant_seed(s.seed)
    .out_of_process(MVX_PARTITION, 0)
    .build()
    {
        Ok(d) => d,
        Err(e) => {
            probe.error = Some(format!("worker deployment failed: {e}"));
            return probe;
        }
    };

    let trips = mvtee_telemetry::counter("core.recovery.crash_loop_trips");
    let trips0 = trips.get();
    let mut served = 0u64;
    let mut infer_ok = |dep: &mut Deployment, lost: &mut u64| {
        let idx = (served % INPUT_PERIOD) as usize;
        match dep.infer(&inputs[idx]) {
            Ok(out) if bits_equal(&out, &expected[idx]) => {}
            _ => *lost += 1,
        }
        served += 1;
    };
    let mut lost = 0u64;
    // Warm up: two verified batches before the first kill.
    for _ in 0..2 {
        infer_ok(&mut dep, &mut lost);
    }
    // Kill → heal → kill again, until the budget trips (third death).
    let deadline = Instant::now() + Duration::from_secs(30);
    while trips.get() == trips0 && Instant::now() < deadline {
        if dep.kill_worker(MVX_PARTITION, 0) {
            probe.kills += 1;
        }
        let heals_before = dep.events().recoveries().len();
        while trips.get() == trips0
            && dep.events().recoveries().len() == heals_before
            && Instant::now() < deadline
        {
            infer_ok(&mut dep, &mut lost);
            std::thread::sleep(Duration::from_millis(20));
        }
        if dep.events().recoveries().len() > heals_before {
            probe.respawn_heals += 1;
        }
    }
    probe.tripped = trips.get() > trips0;
    probe.recovery_failed_logged = dep.events().events().iter().any(|e| {
        matches!(e, MonitorEvent::RecoveryFailed { reason, .. } if reason.contains("crash-loop"))
    });
    // Post-trip: the panel must keep serving, degraded but correct.
    let mut post_lost = 0u64;
    for _ in 0..3 {
        infer_ok(&mut dep, &mut post_lost);
    }
    probe.degraded_service_ok = probe.tripped && post_lost == 0;
    dep.shutdown();
    probe
}

/// The reconnect probe: an abrupt monitor-side wire disconnect under
/// heartbeat supervision with reconnect-and-resume enabled.
fn run_reconnect_probe(s: &NetchaosSettings) -> ReconnectProbe {
    let mut probe = ReconnectProbe::default();
    let mut cfg = storm_config();
    cfg.supervision = SupervisionPolicy::with_reconnect();

    let model = zoo::build(s.model, s.profile, s.seed).expect("zoo model builds");
    let inputs: Vec<Tensor> =
        (0..INPUT_PERIOD).map(|i| storm_input(s.seed, &model, i)).collect();
    let mut oracle = match Deployment::builder(model)
        .config(cfg.clone())
        .partition_seed(s.seed)
        .variant_seed(s.seed)
        .build()
    {
        Ok(d) => d,
        Err(e) => {
            probe.error = Some(format!("oracle failed: {e}"));
            return probe;
        }
    };
    let expected: Vec<Tensor> = match inputs.iter().map(|i| oracle.infer(i)).collect() {
        Ok(v) => v,
        Err(e) => {
            probe.error = Some(format!("oracle run failed: {e}"));
            return probe;
        }
    };
    oracle.shutdown();

    let fault =
        NetFault { class: NetFaultClass::Disconnect, from_frame: RECONNECT_FROM_FRAME };
    let spawned = mvtee_telemetry::counter("core.worker.spawned");
    let reconnected = mvtee_telemetry::counter("core.worker.reconnected");
    let mut dep = match Deployment::builder(
        zoo::build(s.model, s.profile, s.seed).expect("model"),
    )
    .config(cfg.clone())
    .partition_seed(s.seed)
    .variant_seed(s.seed)
    .out_of_process(MVX_PARTITION, 0)
    .fault(FaultDescriptor::Net(fault), Some((MVX_PARTITION, 0)))
    .build()
    {
        Ok(d) => d,
        Err(e) => {
            probe.error = Some(format!("worker deployment failed: {e}"));
            return probe;
        }
    };
    let spawned0 = spawned.get();
    let reconnected0 = reconnected.get();

    let mut served = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let idx = (served % INPUT_PERIOD) as usize;
        match dep.infer(&inputs[idx]) {
            Ok(out) if bits_equal(&out, &expected[idx]) => {}
            _ => probe.lost_batches += 1,
        }
        served += 1;
        let events = dep.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            probe.full_strength = events.recoveries().contains(&(qp, qv))
                && events.checkpoint_passes().iter().any(|&(pp, pb, agreeing)| {
                    pp == qp && pb > qb && agreeing == PANEL
                });
            if probe.full_strength {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    probe.reconnected = reconnected.get() > reconnected0
        && !dep.events().reconnections().is_empty();
    probe.respawns_during_heal = spawned.get() - spawned0;
    dep.shutdown();
    probe
}

/// Runs the netchaos experiment.
pub fn run_netchaos(s: &NetchaosSettings) -> NetchaosReport {
    let model = zoo::build(s.model, s.profile, s.seed).expect("zoo model builds");
    let fingerprint = config_fingerprint(&model);
    drop(model);

    let mut report = NetchaosReport {
        seed: s.seed,
        fingerprint,
        gauntlet: run_gauntlet(s),
        storms: Vec::new(),
        flap: None,
        reconnect: None,
    };
    for class in NetFaultClass::ALL_TOKENS {
        for storm_idx in 0..s.storms_per_class {
            match run_storm(s, class, storm_idx) {
                Ok(storm) => report.storms.push(storm),
                Err(_) => report.storms.push(Storm {
                    class: class.to_string(),
                    spec: format!("net:{class}:?"),
                    batches: 0,
                    lost_batches: 1,
                    injected: 0,
                    detected: false,
                    healed: false,
                    masked: false,
                    heal_ns: 0,
                    transcript_identical: false,
                    audit_ok: false,
                }),
            }
        }
    }
    if s.probe_flap {
        report.flap = Some(run_flap_probe(s));
    }
    if s.probe_reconnect {
        report.reconnect = Some(run_reconnect_probe(s));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauntlet_detects_every_class_and_accepts_nothing_wrong() {
        let mut s = NetchaosSettings::quick(7);
        s.gauntlet_trials = 3;
        let rows = run_gauntlet(&s);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.masked_accepts, 0, "{}: wrong bytes accepted", row.class);
            assert!(row.injected > 0, "{}: nothing injected", row.class);
            if row.class == "delay" {
                assert_eq!(row.intact, row.trials, "{}: delay must arrive intact", row.class);
            } else {
                assert_eq!(
                    row.detected(),
                    row.trials,
                    "{}: every trial must surface loudly",
                    row.class
                );
            }
        }
        let corrupt = rows.iter().find(|r| r.class == "corrupt").unwrap();
        assert_eq!(corrupt.detected_auth, corrupt.trials, "corruption must be AEAD-rejected");
    }

    #[test]
    fn corrupt_storm_heals_with_correct_outputs() {
        let s = NetchaosSettings::quick(7);
        let storm = run_storm(&s, "corrupt", 0).expect("storm infrastructure");
        assert!(storm.detected, "corrupt wire must be detected: {storm:?}");
        assert!(storm.healed, "corrupt storm must heal: {storm:?}");
        assert_eq!(storm.lost_batches, 0, "no batch may be lost: {storm:?}");
        assert!(storm.audit_ok, "transcript must self-audit: {storm:?}");
        assert!(storm.injected > 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = NetchaosReport {
            seed: 1,
            fingerprint: "f".into(),
            gauntlet: vec![GauntletRow {
                class: "delay".into(),
                trials: 1,
                injected: 1,
                intact: 1,
                ..Default::default()
            }],
            storms: vec![],
            flap: None,
            reconnect: None,
        };
        let json = report.render_json();
        assert!(json.contains("\"mvtee-netchaos-v1\""));
        assert!(json.contains("\"gate_failures\": []"));
    }
}
