//! The chaos storm experiment: simultaneous multi-family faults against a
//! self-healing deployment.
//!
//! Each seeded scenario launches one deployment with a replicated panel of
//! three on *every* partition and injects three faults at once, one family
//! per partition:
//!
//! * a **weight bit flip** sealed into one variant's bundle (a value
//!   fault: divergence → quarantine → clean re-provision),
//! * a **scheduling stall** (hang) on one variant host (a liveness fault:
//!   watchdog deadline → late dissent → quarantine),
//! * a **lossy response channel** (drop or truncation) on one variant
//!   host (a one-shot liveness fault).
//!
//! The scenario then streams batches and holds the deployment to the
//! self-healing invariant: every forwarded output stays bit-identical to
//! an unfaulted oracle, every quarantined variant is re-provisioned
//! ([`mvtee::MonitorEvent::Recovered`]), no recovery exhausts its retry
//! budget, and every faulted partition records a post-quarantine
//! checkpoint pass at **full** panel strength. A scenario that has not
//! healed within the batch cap is a finding, not a wait.

use crate::cli::{self, CommonArgs, Outcome};
use crate::fixture;
use mvtee::deployment::Deployment;
use mvtee::MonitorEvent;
use mvtee_faults::{
    BitFlipFault, BitFlipStrategy, ChannelFault, ChannelFaultMode, FaultDescriptor, StallFault,
    StallMode,
};
use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Partitions per chaos deployment (one fault family each).
const PARTITIONS: usize = 3;
/// Panel size on every partition.
const PANEL: usize = 3;
/// Batches streamed before the heal check starts.
const MIN_BATCHES: u64 = 6;
/// Hard cap on batches streamed while waiting for the panel to heal.
const BATCH_CAP: u64 = 48;
/// Inputs cycle with this period (stale frames cannot impersonate fresh
/// ones; the oracle stays a constant-size prefix).
const INPUT_PERIOD: u64 = 3;

/// Chaos experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed: determines every scenario.
    pub seed: u64,
    /// Number of seeded storm scenarios.
    pub scenarios: u64,
    /// Zoo scale.
    pub profile: ScaleProfile,
}

impl ChaosConfig {
    /// The default chaos campaign: 32 seeded storms at test scale.
    pub fn new(seed: u64) -> Self {
        ChaosConfig { seed, scenarios: 32, profile: ScaleProfile::Test }
    }
}

/// One scenario's result.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Scenario index.
    pub index: u64,
    /// Batches streamed before the panel healed (or the cap).
    pub batches: u64,
    /// Quarantine events observed.
    pub quarantined: usize,
    /// Recovery completions observed.
    pub recovered: usize,
    /// Failure description; `None` when the invariant held.
    pub failure: Option<String>,
}

/// Full chaos campaign result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The master seed.
    pub seed: u64,
    /// Per-scenario outcomes, in order.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// The failed scenarios.
    pub fn failures(&self) -> Vec<&ChaosOutcome> {
        self.outcomes.iter().filter(|o| o.failure.is_some()).collect()
    }

    /// Human-readable summary, one line per scenario.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# chaos seed={} scenarios={} → {} failed",
            self.seed,
            self.outcomes.len(),
            self.failures().len()
        );
        for o in &self.outcomes {
            let verdict = match &o.failure {
                None => "healed".to_string(),
                Some(reason) => format!("FAILED: {reason}"),
            };
            let _ = writeln!(
                out,
                "scenario {:>3}: batches={:<3} quarantined={} recovered={} → {}",
                o.index, o.batches, o.quarantined, o.recovered, verdict
            );
        }
        out
    }
}

/// Runs one seeded storm. Returns `Ok(batches_streamed)` once the panel
/// healed, `Err(reason)` on any invariant violation.
fn run_storm(cfg: &ChaosConfig, index: u64, events_out: &mut (usize, usize)) -> Result<u64, String> {
    let scenario_seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index);
    let mut rng = StdRng::seed_from_u64(scenario_seed);

    const KINDS: [ModelKind; 3] = [ModelKind::MnasNet, ModelKind::GoogleNet, ModelKind::MobileNetV3];
    let kind = KINDS[(index % KINDS.len() as u64) as usize];

    // One fault family per partition, assignment shuffled by the seed.
    let mut slots = [0usize, 1, 2];
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    let (p_flip, p_stall, p_chan) = (slots[0], slots[1], slots[2]);
    let flip = BitFlipFault {
        strategy: BitFlipStrategy::ExponentMsb,
        count: 3,
        seed: rng.gen_range(0..1024),
    };
    let stall = StallFault { from_batch: rng.gen_range(1..=2), mode: StallMode::Hang };
    let chan = ChannelFault {
        on_batch: rng.gen_range(1..=3),
        mode: if rng.gen_bool(0.5) { ChannelFaultMode::Drop } else { ChannelFaultMode::Truncate },
    };
    let v_stall = rng.gen_range(0..PANEL);
    let v_chan = rng.gen_range(0..PANEL);

    let model = zoo::build(kind, cfg.profile, scenario_seed).map_err(|e| e.to_string())?;
    let inputs = fixture::inputs(&model, scenario_seed ^ 0xc4a05, INPUT_PERIOD);

    // The correctness oracle: the identical deployment without the storm.
    let mvx = fixture::healing_panel(PARTITIONS, &[0, 1, 2], PANEL);
    let clean = Deployment::builder(model).config(mvx);
    let expected = fixture::oracle(clean.clone(), &inputs)
        .map_err(|e| format!("oracle run failed: {e}"))?;

    let mut d = clean
        .fault(FaultDescriptor::WeightBitFlip(flip), Some((p_flip, 0)))
        .fault(FaultDescriptor::Stall(stall), Some((p_stall, v_stall)))
        .fault(FaultDescriptor::Channel(chan), Some((p_chan, v_chan)))
        .build()
        .map_err(|e| e.to_string())?;

    let mut result: Option<Result<u64, String>> = None;
    for b in 0..BATCH_CAP {
        let idx = (b % INPUT_PERIOD) as usize;
        match d.infer(&inputs[idx]) {
            Ok(out) if !fixture::bits_equal(&out, &expected[idx]) => {
                result = Some(Err(format!("batch {b} output diverged from the oracle")));
                break;
            }
            Ok(_) => {}
            Err(e) => {
                result = Some(Err(format!("batch {b} failed: {e}")));
                break;
            }
        }
        if b + 1 < MIN_BATCHES {
            continue;
        }
        let events = d.events();
        if let Some(failed) = events.events().iter().find_map(|e| match e {
            MonitorEvent::RecoveryFailed { partition, variant, attempts, reason } => {
                Some(format!("recovery of p{partition}v{variant} exhausted {attempts} attempts: {reason}"))
            }
            _ => None,
        }) {
            result = Some(Err(failed));
            break;
        }
        let quarantines = events.quarantines();
        events_out.0 = quarantines.len();
        events_out.1 = events.recoveries().len();
        // Both liveness faults must have tripped the watchdog, and every
        // quarantined slot must have been re-provisioned and followed by
        // a checkpoint of its partition at full strength (so each wounded
        // partition passed one after its *last* quarantine).
        let liveness_fired = quarantines.iter().any(|&(p, _, _)| p == p_stall)
            && quarantines.iter().any(|&(p, _, _)| p == p_chan);
        let healed = quarantines.iter().all(|&(p, v, qb)| d.healed_after(p, v, qb, PANEL));
        if liveness_fired && healed {
            result = Some(Ok(b + 1));
            break;
        }
        // Pacing: the monitor runs a due recovery attempt before it
        // takes the next batch, but a failed attempt's retry waits out its
        // backoff (25 ms and up) while batches flow.
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    d.shutdown();
    result.unwrap_or_else(|| {
        Err(format!("panel never healed within {BATCH_CAP} batches"))
    })
}

/// Runs the chaos campaign: `cfg.scenarios` seeded storms, outcomes
/// mirrored onto the `chaos.*` telemetry counters.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let scenarios_ctr = mvtee_telemetry::counter("chaos.scenarios");
    let healed_ctr = mvtee_telemetry::counter("chaos.healed");
    let failed_ctr = mvtee_telemetry::counter("chaos.failed");
    let mut outcomes = Vec::with_capacity(cfg.scenarios as usize);
    for index in 0..cfg.scenarios {
        let mut counts = (0usize, 0usize);
        let (batches, failure) = match run_storm(cfg, index, &mut counts) {
            Ok(batches) => (batches, None),
            Err(reason) => (BATCH_CAP, Some(reason)),
        };
        scenarios_ctr.inc();
        if failure.is_none() { &healed_ctr } else { &failed_ctr }.inc();
        outcomes.push(ChaosOutcome {
            index,
            batches,
            quarantined: counts.0,
            recovered: counts.1,
            failure,
        });
    }
    ChaosReport { seed: cfg.seed, outcomes }
}

/// The `chaos` subcommand (`--scenarios N`; `--quick` runs 4): fails
/// unless every storm heals.
pub fn command(common: &CommonArgs, args: &[String]) -> Outcome {
    let mut cfg = ChaosConfig::new(common.seed);
    if common.quick {
        cfg.scenarios = 4; // CI smoke
    }
    cfg.scenarios = cli::flag_value(args, "--scenarios", cfg.scenarios);
    let report = run_chaos(&cfg);
    let failed = report.failures().len();
    let failure = (failed > 0).then(|| format!("{failed} storm(s) failed to heal"));
    Outcome {
        report: report.render_text(),
        failures: failure.into_iter().collect(),
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_storm_heals_and_returns_to_full_strength() {
        let cfg = ChaosConfig { seed: 7, scenarios: 1, profile: ScaleProfile::Test };
        let report = run_chaos(&cfg);
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.failure.is_none(), "storm failed: {:?}", o.failure);
        assert!(o.quarantined >= 2, "both liveness faults must trip the watchdog");
        assert_eq!(o.quarantined, o.recovered, "every quarantine must be recovered");
    }
}
