//! The `dist` experiment: distributed MVX over attested TCP.
//!
//! Runs the same 3-variant panel twice — all-in-process reference, then
//! with two variants hosted by real `mvtee-variantd` worker processes —
//! and holds the run to the conformance gates of
//! `tests/dist_conformance.rs`, plus the counts the test cannot produce:
//!
//! * **Byte identity** — outputs bit-for-bit and the rendered audit
//!   transcript byte-for-byte identical across placements. Any mismatch
//!   is a gate failure (the CLI exits non-zero).
//! * **Wire cost** — per-batch bytes on the multiplexed worker
//!   connections (from the `crypto.mux.bytes_*` counters) and the
//!   average bytes per voted checkpoint.
//! * **Heal after kill** — a worker process killed mid-stream must
//!   quarantine, respawn, re-attest, and return the panel to full
//!   strength with zero lost batches; the latency from kill to full
//!   strength is reported (no benchmark row measures a heal).
//!
//! Artifact: `BENCH_dist.json`. The round trip through an out-of-process
//! panel is the benchmark's by-hand `dist-loopback` workload, not timed
//! here.

use crate::cli::{CommonArgs, Outcome};
use crate::fixture::{self, Json};
use mvtee::config::{MvxConfig, PartitionMvx};
use mvtee::transcript::verify_transcript;
use mvtee::MvxError;
use mvtee_tensor::Tensor;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Partitions in the panel (partition [`MVX_PARTITION`] carries MVX).
const PARTITIONS: usize = 2;
/// The MVX partition.
const MVX_PARTITION: usize = 1;
/// Panel size on the MVX partition.
const PANEL: usize = 3;
/// Variants hosted out-of-process in the conformance run.
const OUT_OF_PROCESS: [(usize, usize); 2] = [(MVX_PARTITION, 1), (MVX_PARTITION, 2)];
/// Salt of this experiment's input stream.
const INPUT_SALT: u64 = 0xd157;
/// Where the report lands unless `--out` says otherwise.
pub const ARTIFACT: &str = "BENCH_dist.json";

/// Dist experiment parameters.
#[derive(Debug, Clone)]
pub struct DistSettings {
    /// Master seed: weights, inputs, and diversification derive from it.
    pub seed: u64,
    /// Batches streamed through each conformance run.
    pub batches: usize,
    /// Run the kill/heal probe (spawns and kills a worker process).
    pub probe_heal: bool,
}

impl DistSettings {
    /// CI smoke configuration.
    pub fn quick(seed: u64) -> Self {
        DistSettings { seed, batches: 6, probe_heal: true }
    }

    /// Full configuration: more batches through the same gates.
    pub fn full(seed: u64) -> Self {
        DistSettings { batches: 16, ..Self::quick(seed) }
    }
}

/// Wire traffic of one batch through the worker connections.
#[derive(Debug, Clone, Copy)]
pub struct WireSample {
    /// Batch index.
    pub batch: usize,
    /// Bytes the monitor sent to workers during this batch.
    pub bytes_out: u64,
    /// Bytes the monitor received from workers during this batch.
    pub bytes_in: u64,
}

/// What the kill/heal probe observed.
#[derive(Debug, Clone, Default)]
pub struct HealProbe {
    /// The worker process was killed.
    pub killed: bool,
    /// The monitor quarantined the killed variant.
    pub quarantined: bool,
    /// The recovery manager brought a replacement online.
    pub recovered: bool,
    /// A post-recovery checkpoint passed with the full panel agreeing.
    pub full_strength: bool,
    /// A fresh worker process was spawned for the replacement
    /// (placement is sticky across recovery).
    pub respawned: bool,
    /// Batches served between the kill and full strength.
    pub served_after_kill: usize,
    /// Batches lost or wrong after the kill (must be zero).
    pub lost_batches: usize,
    /// Latency from the kill to the full-strength checkpoint.
    pub heal_ns: u64,
}

/// Everything the dist experiment produced.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// The master seed.
    pub seed: u64,
    /// The run-configuration fingerprint welded into the transcript.
    pub fingerprint: String,
    /// Batches per conformance run.
    pub batches: usize,
    /// Worker processes the distributed run spawned.
    pub workers: usize,
    /// Outputs matched the in-process reference bit-for-bit.
    pub outputs_identical: bool,
    /// Audit transcripts were byte-identical across placements.
    pub transcript_identical: bool,
    /// Entries the distributed transcript's self-audit verified.
    pub audit_entries: usize,
    /// The self-audit failure, if any.
    pub audit_error: Option<String>,
    /// Per-batch wire traffic of the distributed run.
    pub wire: Vec<WireSample>,
    /// The kill/heal probe, when requested.
    pub heal: Option<HealProbe>,
    /// Infrastructure failure that aborted a phase (e.g. the
    /// `mvtee-variantd` binary was not built), if any.
    pub error: Option<String>,
}

impl DistReport {
    /// Total bytes the monitor sent to workers across the sampled
    /// batches.
    pub fn wire_bytes_out(&self) -> u64 {
        self.wire.iter().map(|w| w.bytes_out).sum()
    }

    /// Total bytes the monitor received from workers across the sampled
    /// batches.
    pub fn wire_bytes_in(&self) -> u64 {
        self.wire.iter().map(|w| w.bytes_in).sum()
    }

    /// Average wire bytes (both directions) per voted checkpoint entry.
    pub fn bytes_per_checkpoint(&self) -> u64 {
        if self.audit_entries == 0 {
            return 0;
        }
        (self.wire_bytes_out() + self.wire_bytes_in()) / self.audit_entries as u64
    }

    /// The gate CI holds the run to.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(e) = &self.error {
            failures.push(format!("experiment aborted: {e}"));
            return failures;
        }
        if self.workers != OUT_OF_PROCESS.len() {
            failures.push(format!(
                "expected {} worker process(es), saw {}",
                OUT_OF_PROCESS.len(),
                self.workers
            ));
        }
        if !self.outputs_identical {
            failures.push("out-of-process outputs differ from the in-process reference".into());
        }
        if !self.transcript_identical {
            failures.push("audit transcript differs across placements".into());
        }
        if let Some(e) = &self.audit_error {
            failures.push(format!("self-audit rejected the transcript: {e}"));
        }
        if self.wire_bytes_out() == 0 || self.wire_bytes_in() == 0 {
            failures.push("no wire traffic recorded — checkpoints did not cross the TCP boundary".into());
        }
        if let Some(h) = &self.heal {
            if !h.killed {
                failures.push("the worker process could not be killed".into());
            }
            if !h.quarantined {
                failures.push("the killed worker was never quarantined".into());
            }
            if !h.recovered {
                failures.push("the quarantined variant never recovered".into());
            }
            if !h.full_strength {
                failures.push("no post-recovery checkpoint reached full panel strength".into());
            }
            if !h.respawned {
                failures.push("recovery did not respawn an out-of-process worker".into());
            }
            if h.lost_batches > 0 {
                failures.push(format!(
                    "{} batch(es) lost or wrong after the worker kill",
                    h.lost_batches
                ));
            }
        }
        failures
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# dist seed={} fingerprint={} batches={} workers={}",
            self.seed, self.fingerprint, self.batches, self.workers
        );
        if let Some(e) = &self.error {
            let _ = writeln!(out, "ABORTED: {e}");
            return out;
        }
        let _ = writeln!(
            out,
            "conformance: outputs-identical={} transcript-identical={} audit-entries={}",
            self.outputs_identical, self.transcript_identical, self.audit_entries
        );
        let _ = writeln!(
            out,
            "wire: {} B out / {} B in over {} batch(es); {} B per checkpoint",
            self.wire_bytes_out(),
            self.wire_bytes_in(),
            self.wire.len(),
            self.bytes_per_checkpoint()
        );
        if let Some(h) = &self.heal {
            let _ = writeln!(
                out,
                "heal: killed={} quarantined={} recovered={} full-strength={} respawned={} \
                 served-after-kill={} lost={} heal {:.1} ms",
                h.killed,
                h.quarantined,
                h.recovered,
                h.full_strength,
                h.respawned,
                h.served_after_kill,
                h.lost_batches,
                h.heal_ns as f64 / 1e6
            );
        }
        out
    }

    /// The `BENCH_dist.json` artifact.
    pub fn render_json(&self) -> String {
        let per_batch = |w: &WireSample| {
            Json::obj([
                ("batch", w.batch.into()),
                ("bytes_out", w.bytes_out.into()),
                ("bytes_in", w.bytes_in.into()),
            ])
        };
        let heal = self.heal.as_ref().map(|h| {
            Json::obj([
                ("killed", h.killed.into()),
                ("quarantined", h.quarantined.into()),
                ("recovered", h.recovered.into()),
                ("full_strength", h.full_strength.into()),
                ("respawned", h.respawned.into()),
                ("served_after_kill", h.served_after_kill.into()),
                ("lost_batches", h.lost_batches.into()),
                ("heal_ns", h.heal_ns.into()),
            ])
        });
        let conformance = Json::obj([
            ("workers", self.workers.into()),
            ("outputs_identical", self.outputs_identical.into()),
            ("transcript_identical", self.transcript_identical.into()),
            ("audit_entries", self.audit_entries.into()),
            ("audit_error", self.audit_error.as_deref().into()),
        ]);
        let wire = Json::obj([
            ("bytes_out", self.wire_bytes_out().into()),
            ("bytes_in", self.wire_bytes_in().into()),
            ("bytes_per_checkpoint", self.bytes_per_checkpoint().into()),
            ("per_batch", Json::arr(self.wire.iter().map(per_batch))),
        ]);
        Json::obj([
            ("meta", Json::meta("mvtee-dist-v2", self.seed, &self.fingerprint)),
            ("conformance", conformance),
            ("wire", wire),
            ("heal", heal.into()),
            ("gate_failures", Json::arr(self.gate_failures().iter().map(String::as_str))),
        ])
        .render()
    }
}

/// The conformance panel: diversified 3-variant MVX on partition 1.
fn panel_config() -> MvxConfig {
    let mut cfg = MvxConfig::fast_path(PARTITIONS);
    cfg.claims[MVX_PARTITION] = PartitionMvx::diversified(PANEL);
    cfg
}

/// One conformance run with the given placements; returns outputs, the
/// rendered transcript, the worker count, and per-batch wire samples.
fn conformance_run(
    s: &DistSettings,
    out_of_process: &[(usize, usize)],
) -> Result<(Vec<Tensor>, String, usize, Vec<WireSample>), MvxError> {
    let model = fixture::model(s.seed);
    let fingerprint = fixture::fingerprint(&model, "dist", PARTITIONS, PANEL);
    let inputs = fixture::inputs(&model, s.seed ^ INPUT_SALT, s.batches as u64);
    let mut builder = fixture::builder(&model, &panel_config(), s.seed);
    for &(p, v) in out_of_process {
        builder = builder.out_of_process(p, v);
    }
    let mut dep = builder.build()?;
    let workers = dep.worker_pids().len();
    let tx = mvtee_telemetry::counter("crypto.mux.bytes_out");
    let rx = mvtee_telemetry::counter("crypto.mux.bytes_in");
    let mut outputs = Vec::with_capacity(inputs.len());
    let mut wire = Vec::with_capacity(inputs.len());
    for (batch, input) in inputs.iter().enumerate() {
        let (out0, in0) = (tx.get(), rx.get());
        outputs.push(dep.infer(input)?);
        wire.push(WireSample { batch, bytes_out: tx.get() - out0, bytes_in: rx.get() - in0 });
    }
    let transcript = dep.transcript().render(s.seed, &fingerprint);
    dep.shutdown();
    Ok((outputs, transcript, workers, wire))
}

/// The kill/heal probe: one out-of-process variant of the healing panel,
/// killed after two verified batches; streams until the panel is back at
/// full strength, counting lost batches (there must be none).
fn run_heal_probe(s: &DistSettings) -> Result<HealProbe, MvxError> {
    let cfg = fixture::healing_panel(PARTITIONS, &[MVX_PARTITION], PANEL);
    let spawned0 = mvtee_telemetry::counter("core.worker.spawned").get();
    let model = fixture::model(s.seed);
    let inputs = fixture::inputs(&model, s.seed ^ INPUT_SALT, 3);
    let clean = fixture::builder(&model, &cfg, s.seed);
    let expected = fixture::oracle(clean.clone(), &inputs)?;
    let mut dep = clean.out_of_process(MVX_PARTITION, 0).build()?;

    let mut probe = HealProbe::default();
    let mut served = 0usize;
    let mut serve_next = |dep: &mut mvtee::Deployment, lost: &mut usize| {
        let idx = served % inputs.len();
        *lost += usize::from(!fixture::serves(dep, &inputs[idx], &expected[idx]));
        served += 1;
    };
    for _ in 0..2 {
        serve_next(&mut dep, &mut probe.lost_batches);
    }

    probe.killed = dep.kill_worker(MVX_PARTITION, 0);
    let kill_instant = Instant::now();
    let deadline = kill_instant + cfg.heal_deadline();
    while Instant::now() < deadline {
        serve_next(&mut dep, &mut probe.lost_batches);
        probe.served_after_kill += 1;
        let events = dep.events();
        if let Some(&(qp, qv, qb)) = events.quarantines().first() {
            probe.quarantined = qp == MVX_PARTITION && qv == 0;
            probe.recovered = events.recoveries().contains(&(qp, qv));
            probe.full_strength = events.healed_after(qp, qv, qb, PANEL);
            if probe.quarantined && probe.full_strength {
                probe.heal_ns = kill_instant.elapsed().as_nanos() as u64;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    probe.respawned =
        mvtee_telemetry::counter("core.worker.spawned").get() >= spawned0 + 2;
    dep.shutdown();
    Ok(probe)
}

/// Runs the dist experiment; an infrastructure failure that aborts a phase
/// (e.g. the `mvtee-variantd` binary was not built) lands in `error`.
pub fn run_dist(s: &DistSettings) -> DistReport {
    let model = fixture::model(s.seed);
    let mut report = DistReport {
        seed: s.seed,
        fingerprint: fixture::fingerprint(&model, "dist", PARTITIONS, PANEL),
        batches: s.batches,
        ..DistReport::default()
    };
    report.error = run_phases(s, &mut report).err();
    report
}

fn run_phases(s: &DistSettings, report: &mut DistReport) -> Result<(), String> {
    let (ref_outputs, ref_transcript, ref_workers, _) =
        conformance_run(s, &[]).map_err(|e| format!("in-process reference failed: {e}"))?;
    debug_assert_eq!(ref_workers, 0);
    let (dist_outputs, dist_transcript, workers, wire) = conformance_run(s, &OUT_OF_PROCESS)
        .map_err(|e| format!("distributed run failed: {e}"))?;

    report.workers = workers;
    report.outputs_identical = fixture::all_bits_equal(&ref_outputs, &dist_outputs);
    report.transcript_identical = ref_transcript == dist_transcript;
    match verify_transcript(&dist_transcript) {
        Ok(summary) => report.audit_entries = summary.entries,
        Err(e) => report.audit_error = Some(e.to_string()),
    }
    report.wire = wire;
    if s.probe_heal {
        let probe = run_heal_probe(s).map_err(|e| format!("heal probe failed: {e}"))?;
        report.heal = Some(probe);
    }
    Ok(())
}

/// The `dist` subcommand: fails on any byte mismatch across placements,
/// lost batch, or failed heal.
pub fn command(common: &CommonArgs, _args: &[String]) -> Outcome {
    let report = run_dist(&common.pick(DistSettings::quick, DistSettings::full));
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
    fn conformance_phase_passes_every_gate() {
        // The heal probe kills and respawns a worker process — the CLI
        // (and CI's dist-smoke job) runs it in its own process; the unit
        // test holds the byte-identity gates with real workers.
        let mut s = DistSettings::quick(7);
        s.batches = 2;
        s.probe_heal = false;
        let report = run_dist(&s);
        assert!(
            report.gate_failures().is_empty(),
            "gate failures: {:?}\n{}",
            report.gate_failures(),
            report.render_text()
        );
        assert_eq!(report.workers, OUT_OF_PROCESS.len());
        assert!(report.wire_bytes_out() > 0 && report.wire_bytes_in() > 0);
        let json = report.render_json();
        assert!(json.contains("\"mvtee-dist-v2\""));
        assert!(json.contains("\"gate_failures\": []"));
    }
}
