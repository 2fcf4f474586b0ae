//! The campaign driver: generate → run → classify → aggregate → (shrink).

use crate::matrix::CoverageMatrix;
use crate::runner::{run_scenario, Outcome};
use crate::scenario::{generate_scenario, Scenario};
use crate::shrink::{shrink_missed, ShrinkResult};
use mvtee_graph::zoo::ScaleProfile;
use std::fmt::Write as _;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed: determines every scenario.
    pub seed: u64,
    /// Number of scenarios.
    pub count: u64,
    /// Zoo scale (campaigns run real deployments; `Test` keeps dozens of
    /// scenarios within a CI budget).
    pub profile: ScaleProfile,
    /// Shrink MISSED scenarios to minimal repro specs.
    pub shrink: bool,
}

impl CampaignConfig {
    /// Test-scale campaign with shrinking enabled.
    pub fn new(seed: u64, count: u64) -> Self {
        CampaignConfig { seed, count, profile: ScaleProfile::Test, shrink: true }
    }
}

/// One scenario's record in the report.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Its classified outcome.
    pub outcome: Outcome,
    /// Present when the outcome was MISSED and shrinking was enabled.
    pub shrunk: Option<ShrinkResult>,
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign configuration that produced the report.
    pub seed: u64,
    /// Scenario count.
    pub count: u64,
    /// The coverage matrix.
    pub matrix: CoverageMatrix,
    /// Per-scenario records, in generation order.
    pub records: Vec<ScenarioRecord>,
}

impl CampaignReport {
    /// The MISSED records.
    pub fn missed(&self) -> Vec<&ScenarioRecord> {
        self.records.iter().filter(|r| r.outcome.is_missed()).collect()
    }

    /// Machine-readable JSON: campaign header, sorted matrix rows, and
    /// per-scenario outcomes. Deterministic — byte-identical for the same
    /// seed and count.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"campaign\":{{\"seed\":{},\"count\":{},\"missed\":{}}},\"matrix\":{},\"scenarios\":[",
            self.seed,
            self.count,
            self.matrix.total_missed(),
            self.matrix.render_json()
        );
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"spec\":\"{}\",\"outcome\":\"{}\"",
                r.scenario.to_spec(),
                r.outcome
            );
            if let Some(s) = &r.shrunk {
                let _ = write!(out, ",\"repro\":\"{}\"", s.repro_spec());
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Human-readable summary: the matrix table plus any MISSED repros.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# campaign seed={} count={} → {} MISSED",
            self.seed,
            self.count,
            self.matrix.total_missed()
        );
        out.push_str(&self.matrix.render_table());
        for r in self.missed() {
            let _ = writeln!(out, "MISSED: {}", r.outcome);
            let _ = writeln!(out, "  scenario: {}", r.scenario.to_spec());
            if let Some(s) = &r.shrunk {
                let _ = writeln!(out, "  minimal repro: {}", s.repro_spec());
            }
        }
        out
    }
}

/// Runs a full campaign: `count` seeded scenarios through the real
/// pipeline, outcomes aggregated into the coverage matrix and mirrored
/// onto the `campaign.*` telemetry counters. MISSED scenarios are greedily
/// shrunk to minimal repro specs when `cfg.shrink` is set.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let scenarios_ctr = mvtee_telemetry::counter("campaign.scenarios");
    let latency = mvtee_telemetry::histogram("campaign.scenario_nanos");
    // Register every outcome counter and the recovery metrics up front so
    // the telemetry report shows explicit zeros — "no recoveries happened"
    // and "recovery was never exercised" must read differently.
    for name in [
        "campaign.detected",
        "campaign.crashed",
        "campaign.masked",
        "campaign.recovered",
        "campaign.degraded",
        "campaign.missed",
        "core.recovery.quarantined",
        "core.recovery.started",
        "core.recovery.recovered",
        "core.recovery.failed",
    ] {
        mvtee_telemetry::counter(name);
    }
    mvtee_telemetry::histogram("core.recovery.time_to_recovery_ns");
    let mut matrix = CoverageMatrix::new();
    let mut records = Vec::with_capacity(cfg.count as usize);
    for i in 0..cfg.count {
        let scenario = generate_scenario(cfg.seed, i);
        let started = std::time::Instant::now();
        let outcome = match run_scenario(&scenario, cfg.profile) {
            Ok(o) => o,
            Err(e) => Outcome::Missed { reason: format!("runner error: {e}") },
        };
        latency.record_duration(started.elapsed());
        scenarios_ctr.inc();
        mvtee_telemetry::counter(match outcome {
            Outcome::Detected { .. } => "campaign.detected",
            Outcome::Crashed { .. } => "campaign.crashed",
            Outcome::Masked => "campaign.masked",
            Outcome::Recovered { .. } => "campaign.recovered",
            Outcome::DegradedButCorrect => "campaign.degraded",
            Outcome::Missed { .. } => "campaign.missed",
        })
        .inc();
        matrix.add(&scenario.fault.class_name(), &scenario.defender.family(), &outcome);
        let shrunk = if cfg.shrink && outcome.is_missed() {
            Some(shrink_missed(&scenario, cfg.profile))
        } else {
            None
        };
        records.push(ScenarioRecord { scenario, outcome, shrunk });
    }
    CampaignReport { seed: cfg.seed, count: cfg.count, matrix, records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_has_zero_missed_and_is_deterministic() {
        // 10 scenarios span the full family cycle, including both
        // liveness slots (stall-hang and lossy-channel).
        let cfg = CampaignConfig::new(7, 10);
        let a = run_campaign(&cfg);
        assert_eq!(a.missed().len(), 0, "MISSED scenarios:\n{}", a.render_text());
        let b = run_campaign(&cfg);
        assert_eq!(a.render_json(), b.render_json(), "campaign not deterministic");
    }

    #[test]
    fn recovery_metrics_are_registered_even_when_untouched() {
        run_campaign(&CampaignConfig::new(23, 1));
        let snap = mvtee_telemetry::snapshot();
        for name in [
            "campaign.recovered",
            "campaign.degraded",
            "core.recovery.quarantined",
            "core.recovery.started",
            "core.recovery.recovered",
            "core.recovery.failed",
        ] {
            assert!(snap.counters.contains_key(name), "counter {name} not registered");
        }
        assert!(snap.histograms.contains_key("core.recovery.time_to_recovery_ns"));
    }
}
