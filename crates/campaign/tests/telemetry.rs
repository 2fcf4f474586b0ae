//! Exact deltas on the process-global telemetry registry: an integration
//! test has the process to itself, so no sibling test runs a campaign
//! between the two snapshots.

use mvtee_campaign::{run_campaign, CampaignConfig};

#[test]
fn campaign_feeds_telemetry() {
    let before = mvtee_telemetry::snapshot();
    let report = run_campaign(&CampaignConfig::new(19, 2));
    let after = mvtee_telemetry::snapshot();
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    assert_eq!(delta("campaign.scenarios"), 2);
    let outcomes = delta("campaign.detected")
        + delta("campaign.crashed")
        + delta("campaign.masked")
        + delta("campaign.recovered")
        + delta("campaign.degraded")
        + delta("campaign.missed");
    assert_eq!(outcomes, 2);
    assert_eq!(report.records.len(), 2);
}
