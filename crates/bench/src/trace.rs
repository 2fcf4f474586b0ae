//! The `trace` experiment: end-to-end tracing, flight recorder, and
//! Merkle-chained audit transcripts.
//!
//! Three gates, all of which must hold for the run to pass:
//!
//! * **Transcript determinism** — the rendered audit transcript of a
//!   fault-free run is byte-identical across two independent builds of
//!   the same seed, and identical whether tracing is on or off.
//! * **Tracing is inert** — inference outputs are byte-identical with
//!   the recorder enabled and disabled; tracing observes, never
//!   perturbs.
//! * **Self-audit** — the produced transcript replays cleanly through
//!   [`mvtee::transcript::verify_transcript`], and a divergence-injected
//!   serve run leaves a flight-recorder dump whose events link the
//!   serve-side request root (`serve.submit`) to the quarantining
//!   checkpoint verdict (`core.event.divergence`) by shared trace id.
//!
//! Artifacts: the Merkle transcript (`AUDIT_transcript.jsonl`, verified
//! by `experiments audit`) and a Chrome-trace/Perfetto timeline
//! (`TRACE_run.json`).

use crate::cli::{self, CommonArgs, Outcome};
use crate::fixture;
use mvtee::config::MvxConfig;
use mvtee::transcript::verify_transcript;
use mvtee_faults::{BitFlipFault, BitFlipStrategy, FaultDescriptor};
use mvtee_serve::{ReplicaPool, RequestOutcome, ServeConfig, ServeFrontend};
use mvtee_telemetry::trace::{self, FlightDump, TraceEvent};
use mvtee_tensor::Tensor;
use std::fmt::Write as _;

/// Partitions in the traced deployment.
const PARTITIONS: usize = 2;
/// Replicated panel size per partition.
const PANEL: usize = 3;
/// Model key of the divergence-probe pool.
const MODEL_KEY: &str = "traced";
/// Salt of this experiment's input stream.
const INPUT_SALT: u64 = 0x7ace;
/// Where the Merkle transcript (`--out`) and the Chrome-trace timeline
/// (`--trace-out`) land by default.
pub const ARTIFACTS: [&str; 2] = ["AUDIT_transcript.jsonl", "TRACE_run.json"];

/// Trace experiment parameters.
#[derive(Debug, Clone)]
pub struct TraceSettings {
    /// Master seed: weights, inputs, and diversification derive from it.
    pub seed: u64,
    /// Batches pushed through the traced fault-free deployment.
    pub batches: usize,
    /// Run the divergence-injected serve probe (flight-recorder gate).
    pub probe_divergence: bool,
}

impl TraceSettings {
    /// CI smoke configuration.
    pub fn quick(seed: u64) -> Self {
        TraceSettings { seed, batches: 6, probe_divergence: true }
    }

    /// Full configuration: more batches through the same gates.
    pub fn full(seed: u64) -> Self {
        TraceSettings { batches: 16, ..Self::quick(seed) }
    }
}

/// What the divergence-injected serve probe observed.
#[derive(Debug, Clone)]
pub struct DivergenceProbe {
    /// Quarantines recorded on the faulted replica.
    pub quarantines: usize,
    /// A flight dump containing the divergence verdict was captured.
    pub dump_found: bool,
    /// That dump also contains the serve-side request root with the
    /// same trace id — the chain reaches Ticket → verdict.
    pub chain_linked: bool,
    /// The matched dump (for the artifact), when found.
    pub dump: Option<FlightDump>,
}

/// Everything the trace experiment produced.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The master seed.
    pub seed: u64,
    /// The run-configuration fingerprint welded into the transcript.
    pub fingerprint: String,
    /// Batches in the fault-free run.
    pub batches: usize,
    /// The rendered Merkle transcript of the traced run.
    pub transcript: String,
    /// Transcript of an independent second build was byte-identical.
    pub transcript_repeatable: bool,
    /// Transcript of an untraced run was byte-identical (the chain does
    /// not depend on the recorder).
    pub transcript_tracing_invariant: bool,
    /// Outputs with tracing on matched the untraced run bit-for-bit.
    pub outputs_inert: bool,
    /// Entries the self-audit verified (0 when the audit failed).
    pub audit_entries: usize,
    /// The self-audit failure, if any.
    pub audit_error: Option<String>,
    /// Trace events captured during the traced run.
    pub events_recorded: usize,
    /// The captured events (for the Chrome-trace artifact).
    pub events: Vec<TraceEvent>,
    /// The divergence probe, when requested.
    pub probe: Option<DivergenceProbe>,
}

impl TraceReport {
    /// The gate CI holds the run to.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.transcript_repeatable {
            failures.push("transcript differs across two builds of the same seed".into());
        }
        if !self.transcript_tracing_invariant {
            failures.push("transcript differs between traced and untraced runs".into());
        }
        if !self.outputs_inert {
            failures.push("tracing perturbed inference outputs".into());
        }
        if let Some(e) = &self.audit_error {
            failures.push(format!("self-audit rejected the transcript: {e}"));
        }
        if self.events_recorded == 0 {
            failures.push("traced run recorded no events".into());
        }
        if let Some(probe) = &self.probe {
            if probe.quarantines == 0 {
                failures.push("divergence probe produced no quarantine".into());
            }
            if !probe.dump_found {
                failures.push("no flight dump captured the divergence verdict".into());
            }
            if !probe.chain_linked {
                failures.push(
                    "flight dump does not link the serve request root to the verdict".into(),
                );
            }
        }
        failures
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# trace seed={} fingerprint={} batches={}",
            self.seed, self.fingerprint, self.batches
        );
        let _ = writeln!(
            out,
            "transcript: {} line(s); repeatable={} tracing-invariant={} outputs-inert={}",
            self.transcript.lines().count(),
            self.transcript_repeatable,
            self.transcript_tracing_invariant,
            self.outputs_inert
        );
        match &self.audit_error {
            None => {
                let _ = writeln!(out, "self-audit: ok ({} entries)", self.audit_entries);
            }
            Some(e) => {
                let _ = writeln!(out, "self-audit: FAILED ({e})");
            }
        }
        let _ = writeln!(out, "trace events recorded: {}", self.events_recorded);
        if let Some(p) = &self.probe {
            let _ = writeln!(
                out,
                "divergence probe: {} quarantine(s); dump_found={} chain_linked={}",
                p.quarantines, p.dump_found, p.chain_linked
            );
        }
        out
    }

    /// The Chrome-trace/Perfetto artifact (`TRACE_run.json`) with a
    /// metadata stamp in `otherData`, plus the flight-dump events of the
    /// divergence probe appended on their own track when present.
    pub fn render_chrome_trace(&self) -> String {
        let mut events = self.events.clone();
        if let Some(DivergenceProbe { dump: Some(dump), .. }) = &self.probe {
            for e in &dump.events {
                let mut e = e.clone();
                e.track = format!("flight:{}", e.track);
                events.push(e);
            }
        }
        let body = trace::chrome_trace(&events);
        let stamped = body
            .strip_suffix('}')
            .map(|prefix| {
                format!(
                    "{prefix},\"otherData\":{{\"schema\":\"mvtee-trace-v1\",\"seed\":{},\
                     \"fingerprint\":\"{}\",\"threads\":{}}}}}",
                    self.seed,
                    self.fingerprint,
                    std::thread::available_parallelism().map_or(1, usize::from)
                )
            })
            .unwrap_or(body);
        stamped
    }
}

/// The MVX config under trace: the serve experiment's healing panel (so
/// traced spans cover the paths CI already exercises) under the default
/// checkpoint deadline — a fault-free transcript must not depend on how
/// loaded the host is.
fn trace_mvx() -> MvxConfig {
    let relaxed = MvxConfig::fast_path(PARTITIONS).checkpoint_deadline_ms;
    MvxConfig {
        checkpoint_deadline_ms: relaxed,
        ..fixture::healing_panel(PARTITIONS, &[0, 1], PANEL)
    }
}

/// One fault-free run: builds a fresh deployment, pushes `batches`
/// inputs through it (recorder enabled or not), and returns the outputs,
/// the rendered transcript, and the captured trace events.
fn traced_run(s: &TraceSettings, enable: bool) -> (Vec<Tensor>, String, Vec<TraceEvent>) {
    let model = fixture::model(s.seed);
    let fingerprint = fixture::fingerprint(&model, "", PARTITIONS, PANEL);
    let inputs = fixture::inputs(&model, s.seed ^ INPUT_SALT, s.batches as u64);
    let mut dep = fixture::builder(&model, &trace_mvx(), s.seed)
        .build()
        .expect("traced deployment builds");
    let tracer = trace::recorder();
    tracer.clear();
    tracer.set_enabled(enable);
    let outputs: Vec<Tensor> =
        inputs.iter().map(|input| dep.infer(input).expect("traced inference")).collect();
    tracer.set_enabled(false);
    let events = tracer.snapshot();
    let transcript = dep.transcript().render(s.seed, &fingerprint);
    dep.shutdown();
    (outputs, transcript, events)
}

/// The divergence-injected serve probe: a 2-replica pool whose replica 0
/// carries weight bit flips on partition 1, driven until the checkpoint
/// quarantines the corrupted variant. Returns what the flight recorder
/// kept of the incident.
fn run_divergence_probe(s: &TraceSettings) -> DivergenceProbe {
    let model = fixture::model(s.seed);
    let input = fixture::inputs(&model, s.seed ^ INPUT_SALT, 1).remove(0);
    let flip = BitFlipFault { strategy: BitFlipStrategy::ExponentMsb, count: 3, seed: s.seed };
    let deployments = fixture::builder(&model, &trace_mvx(), s.seed)
        .build_many_with(2, move |r, b| {
            if r == 0 {
                b.fault(FaultDescriptor::WeightBitFlip(flip), Some((1, 0)))
            } else {
                b
            }
        })
        .expect("probe pool builds");
    let pool = ReplicaPool::new(MODEL_KEY, deployments).expect("pool wraps deployments");
    let frontend = ServeFrontend::start(vec![pool], ServeConfig::default());
    let faulted = frontend.replica_events(MODEL_KEY, 0).expect("replica 0 exists");

    let tracer = trace::recorder();
    tracer.clear();
    tracer.set_enabled(true);
    // Sequential single requests tie-break to replica 0 (lowest index),
    // so the corrupted panel sees traffic immediately; majority response
    // keeps every request answered while the variant is quarantined.
    for _ in 0..8 {
        if let Ok(ticket) = frontend.handle().submit("auditor", MODEL_KEY, input.clone()) {
            if let Ok(resp) = ticket.wait() {
                let _ = matches!(resp.outcome, RequestOutcome::Ok(_));
            }
        }
        if !faulted.quarantines().is_empty() {
            break;
        }
    }
    tracer.set_enabled(false);
    let quarantines = faulted.quarantines().len();
    let dumps = tracer.dumps();
    frontend.shutdown();

    // The incident dump: it must hold the divergence verdict instant,
    // and the serve-side request root with the same trace id.
    let mut dump_found = false;
    let mut chain_linked = false;
    let mut matched = None;
    for dump in dumps {
        let Some(verdict) =
            dump.events.iter().find(|e| e.name == "core.event.divergence").cloned()
        else {
            continue;
        };
        dump_found = true;
        let linked = dump
            .events
            .iter()
            .any(|e| e.name == "serve.submit" && e.trace == verdict.trace);
        if linked {
            chain_linked = true;
            matched = Some(dump);
            break;
        }
        matched.get_or_insert(dump);
    }
    DivergenceProbe { quarantines, dump_found, chain_linked, dump: matched }
}

/// Runs the trace experiment.
pub fn run_trace(s: &TraceSettings) -> TraceReport {
    mvtee_telemetry::trace::register_trace_metrics();
    mvtee::transcript::register_audit_metrics();

    let model = fixture::model(s.seed);
    let fingerprint = fixture::fingerprint(&model, "", PARTITIONS, PANEL);

    let (outputs_on, transcript_a, events) = traced_run(s, true);
    let (_, transcript_b, _) = traced_run(s, true);
    let (outputs_off, transcript_off, _) = traced_run(s, false);

    let (audit_entries, audit_error) = match verify_transcript(&transcript_a) {
        Ok(summary) => (summary.entries, None),
        Err(e) => (0, Some(e.to_string())),
    };

    let probe = s.probe_divergence.then(|| run_divergence_probe(s));

    TraceReport {
        seed: s.seed,
        fingerprint,
        batches: s.batches,
        transcript_repeatable: transcript_a == transcript_b,
        transcript_tracing_invariant: transcript_a == transcript_off,
        outputs_inert: fixture::all_bits_equal(&outputs_on, &outputs_off),
        transcript: transcript_a,
        audit_entries,
        audit_error,
        events_recorded: events.len(),
        events,
        probe,
    }
}

/// The `trace` subcommand: writes both artifacts, fails on any trace gate.
pub fn command(common: &CommonArgs, args: &[String]) -> Outcome {
    let report = run_trace(&common.pick(TraceSettings::quick, TraceSettings::full));
    let trace_out = cli::flag_path(args, "--trace-out", ARTIFACTS[1]);
    Outcome {
        status: report.render_text(),
        artifacts: vec![
            (common.out_or(ARTIFACTS[0]), report.transcript.clone()),
            (trace_out, report.render_chrome_trace()),
        ],
        failures: report.gate_failures(),
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes_every_gate() {
        // The divergence probe shares the process-global flight recorder
        // with other tests in this binary, so the unit test holds only
        // the deterministic gates; the CLI (and CI's trace-smoke job)
        // runs the full probe in its own process.
        let mut s = TraceSettings::quick(7);
        s.batches = 3;
        s.probe_divergence = false;
        let report = run_trace(&s);
        assert!(
            report.gate_failures().is_empty(),
            "gate failures: {:?}\n{}",
            report.gate_failures(),
            report.render_text()
        );
        assert!(report.transcript.contains("mvtee-audit-v1"));
        assert!(report.audit_entries >= 2 * s.batches, "one entry per partition per batch");
        let chrome = report.render_chrome_trace();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"otherData\""));
    }
}
