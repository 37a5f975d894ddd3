//! What the reports of four checked-in scenarios must show, asserted on
//! the typed rows of their `--quick` plans: reputation scheduling demotes
//! a lazy leader that round-robin keeps (byzantine), safety holds and the
//! codec turns corrupted frames away while commits keep flowing under
//! chaos across three seeds, goodput has a knee with nothing shed below
//! it (saturation), and a bursty workload across a crash reports its
//! goodput and restarts the crashed validator.
//!
//! (The recovery report's gate is
//! `fault_e2e.rs::recovery_runs_restart_without_divergence_and_report_reinclusion`.)

use hh_scenario::{
    load_scenario, repo_scenarios_dir, run_plan_with, ExecOptions, PlanOptions, RunLimit,
    ScenarioReport, ScenarioSpec, SystemSpec,
};

/// Runs `scenarios/<file>` as `hh-cli run <file> --quick [--seed <seed>]`
/// does, after `patch` (the `--set` of the command line).
fn quick_report(
    file: &str,
    seed: Option<u64>,
    patch: impl FnOnce(&mut ScenarioSpec),
) -> ScenarioReport {
    let mut spec =
        load_scenario(&repo_scenarios_dir().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    patch(&mut spec);
    let opts = PlanOptions { quick: true, seed_override: seed, ..PlanOptions::default() };
    let plan = spec.plan(&opts).unwrap_or_else(|e| panic!("{file}: {e}"));
    run_plan_with(&plan, RunLimit::Duration, &ExecOptions::default())
}

#[test]
fn byzantine_vote_scorers_demote_the_lazy_leader_and_round_robin_never_does() {
    let report = quick_report("byzantine.toml", None, |_| {});
    let mut demoting_scorers = 0;
    for row in &report.rows {
        let variant = row.run.variant.as_str();
        let adversary = &row.analysis.adversary;
        let lazy = adversary
            .iter()
            .find(|a| a.strategy == "lazy_leader")
            .unwrap_or_else(|| panic!("{variant}: no row for the lazy leader in {adversary:?}"));
        match variant {
            "round-robin" => assert_eq!(lazy.rounds_to_demotion, None, "round-robin demoted it"),
            "vote-based" | "vote-ema-30" => {
                assert!(lazy.rounds_to_demotion.is_some(), "{variant} never demoted it");
                demoting_scorers += 1;
            }
            _ => {}
        }
    }
    assert_eq!(demoting_scorers, 2, "both vote scorers are part of the quick plan");
}

#[test]
fn chaos_runs_stay_safe_reject_corruption_and_keep_committing() {
    let mut corrupt_rejected = 0;
    for seed in [7, 11, 13] {
        let report = quick_report("chaos.toml", Some(seed), |_| {});
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            let variant = row.run.variant.as_str();
            assert_eq!(row.result.safety_violations, 0, "seed {seed}, {variant}");
            assert!(
                row.result.commits >= 10,
                "seed {seed}, {variant}: stalled at {} commits",
                row.result.commits
            );
            corrupt_rejected += row.result.chaos_corrupt_rejected;
        }
    }
    assert!(corrupt_rejected > 0, "no corrupted frame was ever rejected at the codec");
}

#[test]
fn saturation_goodput_has_a_knee_with_nothing_shed_below_it() {
    let report =
        quick_report("saturation.toml", None, |spec| spec.systems = vec![SystemSpec::Hammerhead]);
    let points: Vec<(f64, f64, u64)> = report
        .rows
        .iter()
        .map(|row| (row.run.config.load_tps as f64, row.result.throughput_tps, row.result.shed))
        .collect();
    assert!(points.len() >= 3, "{points:?}");
    assert!(points.windows(2).all(|pair| pair[0].0 < pair[1].0), "loads ascend: {points:?}");
    let goodput = |i: usize| points[i].1;
    let knee =
        (0..points.len()).fold(0, |best, i| if goodput(i) > goodput(best) { i } else { best });
    assert!(knee > 0, "goodput never rose above the first load: {points:?}");
    // Monotone (within 3 %) up to the knee, never above it afterwards.
    for i in 0..knee {
        assert!(goodput(i) <= goodput(i + 1) * 1.03, "dip below the knee at {i}: {points:?}");
        assert_eq!(points[i].2, 0, "shed below the knee at load {}: {points:?}", points[i].0);
    }
    for i in knee + 1..points.len() {
        assert!(goodput(i) <= goodput(knee) * 1.03, "rise past the knee at {i}: {points:?}");
    }
    let (top_load, top_goodput, _) = points[points.len() - 1];
    assert!(top_goodput < top_load * 0.9, "the top load did not saturate: {points:?}");
}

#[test]
fn bursty_report_carries_the_goodput_and_the_restart() {
    let report = quick_report("bursty.toml", None, |_| {});
    assert!(!report.rows.is_empty());
    for row in &report.rows {
        assert_eq!(row.result.restarts, 1, "{}", row.run.variant);
        assert!(row.result.submitted > 0 && row.result.throughput_tps > 0.0);
    }
}
