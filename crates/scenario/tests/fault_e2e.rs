//! End-to-end tests for the dynamic fault schedule: a scenario mixing a
//! mid-run crash, a WAL-backed recovery and a partition must execute,
//! recover, analyze — and produce byte-identical JSON on one worker and
//! four.

use hh_scenario::{report_json, run_plan_with, ExecOptions, PlanOptions, RunLimit, ScenarioSpec};

/// A small recovery + partition scenario: v3 crashes at 1.5s and
/// restarts at 3s (WAL replay); v0 is cut off from everyone between 4s
/// and 5s. Two systems × two seeds = four runs.
const DYNAMIC_FAULTS: &str = r#"
name = "fault-e2e"
[committee]
size = 7
[load]
tps = 150
[run]
duration_secs = 8
warmup_secs = 1
seeds = [7, 11]
[network]
model = "flat"
flat_ms = 10
[systems]
run = ["bullshark", "hammerhead"]
[hammerhead]
period_rounds = 10
[[faults.crash]]
nodes = [3]
at_secs = 1
recover_at_secs = 3
[[faults.partition]]
a = [0]
b = [1, 2, 3, 4, 5, 6]
from_secs = 4
until_secs = 5
"#;

#[test]
fn recovery_and_partition_json_is_identical_across_worker_counts() {
    let plan = ScenarioSpec::parse(DYNAMIC_FAULTS)
        .expect("parses")
        .plan(&PlanOptions::default())
        .expect("plans");
    assert_eq!(plan.runs.len(), 4);

    let serial = report_json(&run_plan_with(
        &plan,
        RunLimit::Duration,
        &ExecOptions { jobs: 1, verbose: false, profile: false },
    ))
    .render();
    let pooled = report_json(&run_plan_with(
        &plan,
        RunLimit::Duration,
        &ExecOptions { jobs: 4, verbose: false, profile: false },
    ))
    .render();
    assert_eq!(serial, pooled, "--jobs must never change report bytes, even with dynamic faults");
}

#[test]
fn recovery_runs_restart_without_divergence_and_report_reinclusion() {
    let plan = ScenarioSpec::parse(DYNAMIC_FAULTS)
        .expect("parses")
        .plan(&PlanOptions::default())
        .expect("plans");
    let report = run_plan_with(
        &plan,
        RunLimit::Duration,
        &ExecOptions { jobs: 2, verbose: false, profile: false },
    );
    for row in &report.rows {
        assert!(row.result.agreement_ok);
        assert_eq!(row.result.restarts, 1, "v3 restarts exactly once per run");
        assert!(!row.result.recovery_divergence, "WAL replay must match the checkpoint");
        assert_eq!(row.analysis.reinclusion.len(), 1, "one recovery event, one row");
        let r = &row.analysis.reinclusion[0];
        assert_eq!(r.validator, 3);
        assert_eq!(r.recovered_at_us, 3_000_000);
        assert!(r.recovery_round > 0);
        if row.run.system == "hammerhead" {
            assert!(!r.score_trajectory.is_empty(), "HammerHead rows carry the score trajectory");
        }
    }
    // The JSON surfaces the recovery block and the reinclusion analysis.
    let json = report_json(&report).render();
    assert!(json.contains("\"recovery\""));
    assert!(json.contains("\"recovery_divergence\": false"));
    assert!(json.contains("\"reinclusion\""));
    assert!(json.contains("\"rounds_to_first_leader\""));
}

#[test]
fn round_robin_reschedules_recovered_validator_within_one_cycle() {
    // Round-robin keeps the recovered validator in rotation, so its first
    // slot after recovery arrives within one full cycle (2n rounds).
    let plan = ScenarioSpec::parse(DYNAMIC_FAULTS)
        .expect("parses")
        .plan(&PlanOptions { seed_override: Some(7), ..PlanOptions::default() })
        .expect("plans");
    let report = run_plan_with(&plan, RunLimit::Duration, &ExecOptions::default());
    let row =
        report.rows.iter().find(|r| r.run.system == "bullshark").expect("bullshark row present");
    let rounds = row.analysis.reinclusion[0].rounds_to_first_leader.expect("always scheduled");
    assert!(rounds <= 14, "2n rounds for n = 7, got {rounds}");
}
