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

use crate::cli::{CommonArgs, Outcome};
use crate::fixture::{self, Json};
use mvtee::config::{MvxConfig, SupervisionPolicy};
use mvtee::transcript::verify_transcript;
use mvtee::{Deployment, MonitorEvent, MvxError};
use mvtee_crypto::channel::{memory_pair, Handshake, Role, SecureChannel};
use mvtee_crypto::CryptoError;
use mvtee_faults::{
    FaultDescriptor, FaultDirection, FaultyTransport, NetFault, NetFaultClass,
};
use mvtee_graph::zoo::Model;
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
/// Salt of the storm input stream (and of each storm's fault schedule).
const STORM_SALT: u64 = 0x5707;
/// Where the report lands unless `--out` says otherwise.
pub const ARTIFACT: &str = "BENCH_netchaos.json";
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
#[derive(Debug, Clone, Default)]
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
        let healed = self.storms.iter().filter(|s| s.class == class && s.healed);
        fixture::quantile(&healed.map(|s| s.heal_ns).collect::<Vec<_>>(), q)
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
        out
    }

    /// The `BENCH_netchaos.json` artifact.
    pub fn render_json(&self) -> String {
        let gauntlet = |r: &GauntletRow| {
            Json::obj([
                ("class", r.class.as_str().into()),
                ("trials", r.trials.into()),
                ("injected", r.injected.into()),
                ("detected_auth", r.detected_auth.into()),
                ("detected_seq", r.detected_seq.into()),
                ("detected_transport", r.detected_transport.into()),
                ("intact", r.intact.into()),
                ("masked_accepts", r.masked_accepts.into()),
            ])
        };
        let storm = |s: &Storm| {
            Json::obj([
                ("class", s.class.as_str().into()),
                ("spec", s.spec.as_str().into()),
                ("batches", s.batches.into()),
                ("lost_batches", s.lost_batches.into()),
                ("injected", s.injected.into()),
                ("detected", s.detected.into()),
                ("healed", s.healed.into()),
                ("masked", s.masked.into()),
                ("heal_ns", s.heal_ns.into()),
                ("transcript_identical", s.transcript_identical.into()),
                ("audit_ok", s.audit_ok.into()),
            ])
        };
        let heal_latency = NetFaultClass::ALL_TOKENS
            .iter()
            .filter(|c| self.storms.iter().any(|s| s.class == **c && s.healed))
            .map(|class| {
                let p = |q| Json::from(self.heal_percentile(class, q));
                (class, Json::obj([("p50_ns", p(0.50)), ("p95_ns", p(0.95))]))
            });
        let flap = self.flap.as_ref().map(|f| {
            Json::obj([
                ("kills", f.kills.into()),
                ("respawn_heals", f.respawn_heals.into()),
                ("tripped", f.tripped.into()),
                ("recovery_failed_logged", f.recovery_failed_logged.into()),
                ("degraded_service_ok", f.degraded_service_ok.into()),
                ("error", f.error.as_deref().into()),
            ])
        });
        let reconnect = self.reconnect.as_ref().map(|r| {
            Json::obj([
                ("reconnected", r.reconnected.into()),
                ("respawns_during_heal", r.respawns_during_heal.into()),
                ("full_strength", r.full_strength.into()),
                ("lost_batches", r.lost_batches.into()),
                ("error", r.error.as_deref().into()),
            ])
        });
        Json::obj([
            ("meta", Json::meta("mvtee-netchaos-v1", self.seed, &self.fingerprint)),
            ("gauntlet", Json::arr(self.gauntlet.iter().map(gauntlet))),
            ("storms", Json::arr(self.storms.iter().map(storm))),
            ("heal_latency", Json::obj(heal_latency)),
            ("flap", flap.into()),
            ("reconnect", reconnect.into()),
            ("gate_failures", Json::arr(self.gate_failures().iter().map(String::as_str))),
        ])
        .render()
    }
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

/// The storm deployment configuration: the healing panel on the MVX
/// partition.
fn storm_config() -> MvxConfig {
    fixture::healing_panel(PARTITIONS, &[MVX_PARTITION], PANEL)
}

/// The model under test and the inputs every storm and probe cycles.
fn storm_fixture(s: &NetchaosSettings) -> (Model, Vec<Tensor>) {
    let model = fixture::model(s.seed);
    let inputs = fixture::inputs(&model, s.seed ^ STORM_SALT, INPUT_PERIOD);
    (model, inputs)
}

/// One deployment storm: streams batches with the fault on panel variant
/// 0's response wire until the panel heals (or the delay provably masks),
/// then replays the same batch count fault-free for transcript identity.
fn run_storm(s: &NetchaosSettings, class: &str, storm_idx: usize) -> Result<Storm, MvxError> {
    let storm_seed = s.seed ^ ((storm_idx as u64 + 1) << 16);
    let mut rng = StdRng::seed_from_u64(storm_seed ^ STORM_SALT);
    let fault = fault_for(class, &mut rng);
    let injected0 = mvtee_telemetry::counter("faults.net.injected").get();

    let (model, inputs) = storm_fixture(s);
    let fingerprint = fixture::fingerprint(&model, "netchaos", PARTITIONS, PANEL);
    let clean = fixture::builder(&model, &storm_config(), s.seed);
    let expected = fixture::oracle(clean.clone(), &inputs)?;
    let mut dep =
        clean.clone().fault(FaultDescriptor::Net(fault), Some((MVX_PARTITION, 0))).build()?;

    let mut storm =
        Storm { class: class.to_string(), spec: fault.to_string(), ..Storm::default() };
    let mut quarantined_at: Option<Instant> = None;
    for b in 0..STORM_BATCH_CAP {
        let idx = (b % INPUT_PERIOD) as usize;
        storm.lost_batches += u64::from(!fixture::serves(&mut dep, &inputs[idx], &expected[idx]));
        storm.batches += 1;
        if b + 1 < STORM_MIN_BATCHES {
            continue;
        }
        let events = dep.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            storm.detected = true;
            let seen = *quarantined_at.get_or_insert_with(Instant::now);
            if events.healed_after(qp, qv, qb, PANEL) {
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
    let mut clean = clean.build()?;
    for b in 0..storm.batches {
        let _ = clean.infer(&inputs[(b % INPUT_PERIOD) as usize])?;
    }
    let reference = clean.transcript().render(s.seed, &fingerprint);
    clean.shutdown();
    storm.transcript_identical = transcript == reference;
    Ok(storm)
}

/// What a worker probe starts from: the inputs, their oracle answers, and
/// the deployment under `cfg` with panel variant 0 out-of-process (and
/// `fault`, if any, on its wire).
fn probe_deployment(
    s: &NetchaosSettings,
    cfg: &MvxConfig,
    fault: Option<NetFault>,
) -> Result<(Vec<Tensor>, Vec<Tensor>, Deployment), String> {
    let (model, inputs) = storm_fixture(s);
    let clean = fixture::builder(&model, cfg, s.seed);
    let expected =
        fixture::oracle(clean.clone(), &inputs).map_err(|e| format!("oracle failed: {e}"))?;
    let mut worker = clean.out_of_process(MVX_PARTITION, 0);
    if let Some(fault) = fault {
        worker = worker.fault(FaultDescriptor::Net(fault), Some((MVX_PARTITION, 0)));
    }
    let dep = worker.build().map_err(|e| format!("worker deployment failed: {e}"))?;
    Ok((inputs, expected, dep))
}

/// The crash-loop flap probe: one out-of-process panel member killed
/// after every heal until the budget trips.
fn run_flap_probe(s: &NetchaosSettings) -> FlapProbe {
    let mut probe = FlapProbe::default();
    let mut cfg = storm_config();
    cfg.recovery.crash_loop_budget = FLAP_BUDGET;
    let (inputs, expected, mut dep) = match probe_deployment(s, &cfg, None) {
        Ok(started) => started,
        Err(e) => return FlapProbe { error: Some(e), ..probe },
    };

    let trips = mvtee_telemetry::counter("core.recovery.crash_loop_trips");
    let trips0 = trips.get();
    let mut served = 0u64;
    let mut infer_ok = |dep: &mut Deployment, lost: &mut u64| {
        let idx = (served % INPUT_PERIOD) as usize;
        *lost += u64::from(!fixture::serves(dep, &inputs[idx], &expected[idx]));
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
    let fault =
        NetFault { class: NetFaultClass::Disconnect, from_frame: RECONNECT_FROM_FRAME };
    let spawned = mvtee_telemetry::counter("core.worker.spawned");
    let reconnected = mvtee_telemetry::counter("core.worker.reconnected");
    let (inputs, expected, mut dep) = match probe_deployment(s, &cfg, Some(fault)) {
        Ok(started) => started,
        Err(e) => return ReconnectProbe { error: Some(e), ..probe },
    };
    let spawned0 = spawned.get();
    let reconnected0 = reconnected.get();

    let mut served = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let idx = (served % INPUT_PERIOD) as usize;
        probe.lost_batches += u64::from(!fixture::serves(&mut dep, &inputs[idx], &expected[idx]));
        served += 1;
        let events = dep.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            probe.full_strength = events.healed_after(qp, qv, qb, PANEL);
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
    let model = fixture::model(s.seed);
    let mut report = NetchaosReport {
        seed: s.seed,
        fingerprint: fixture::fingerprint(&model, "netchaos", PARTITIONS, PANEL),
        gauntlet: run_gauntlet(s),
        storms: Vec::new(),
        flap: None,
        reconnect: None,
    };
    for class in NetFaultClass::ALL_TOKENS {
        for storm_idx in 0..s.storms_per_class {
            // A storm whose infrastructure failed counts as a lost batch.
            report.storms.push(run_storm(s, class, storm_idx).unwrap_or_else(|_| Storm {
                class: class.to_string(),
                spec: format!("net:{class}:?"),
                lost_batches: 1,
                ..Storm::default()
            }));
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

/// The `netchaos` subcommand: fails on any byte mismatch, lost batch,
/// missed detection, or failed heal.
pub fn command(common: &CommonArgs, _args: &[String]) -> Outcome {
    let report = run_netchaos(&common.pick(NetchaosSettings::quick, NetchaosSettings::full));
    Outcome {
        status: report.render_text(),
        artifacts: vec![(common.out_or(ARTIFACT), report.render_json())],
        failures: report.gate_failures(),
        ..Outcome::default()
    }
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
