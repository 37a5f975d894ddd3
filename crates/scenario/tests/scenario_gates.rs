//! What the reports of four checked-in scenarios must show, asserted on
//! the typed rows of their `--quick` plans: vote-based scores demote every
//! attacker at the first epoch boundary, which leader-outcome scores and
//! round-robin never do (byzantine), safety holds and the codec turns
//! corrupted frames away while commits keep flowing under chaos across
//! three seeds, goodput has a knee with nothing shed below it
//! (saturation), and a bursty workload across a crash reports its goodput
//! and restarts the crashed validator.
//!
//! (The recovery report's gate is
//! `fault_e2e.rs::recovery_runs_restart_without_divergence_and_report_reinclusion`.)

use hh_scenario::{
    load_with_sets, parse_set, repo_scenarios_dir, run_plan, ExecOptions, PlanOptions, RunLimit,
    ScenarioReport,
};

/// Runs `scenarios/<file>` as `hh-cli run <file> --quick [--seed <seed>]
/// [--set <set>]...` does.
fn quick_report(file: &str, seed: Option<u64>, sets: &[&str]) -> ScenarioReport {
    let sets: Vec<_> = sets.iter().map(|set| parse_set(set).unwrap()).collect();
    let spec = load_with_sets(&repo_scenarios_dir().join(file), &sets)
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    let opts = PlanOptions { quick: true, seed_override: seed, ..PlanOptions::default() };
    let plan = spec.plan(&opts).unwrap_or_else(|e| panic!("{file}: {e}"));
    run_plan(&plan, RunLimit::Duration, &ExecOptions::default())
}

/// README: vote-based scores demote every attacker at the first epoch
/// boundary; leader-outcome scores and round-robin never demote one.
#[test]
fn byzantine_vote_based_demotes_every_attacker_at_the_first_boundary_and_no_other_rule_does() {
    let report = quick_report("byzantine.toml", None, &[]);
    let variants: Vec<&str> = report.rows.iter().map(|row| row.run.variant.as_str()).collect();
    assert_eq!(variants, ["vote-based", "leader-outcome", "round-robin"]);
    for row in &report.rows {
        let variant = row.run.variant.as_str();
        let adversary = &row.result.adversary;
        let strategies: Vec<&str> = adversary.iter().map(|a| a.strategy.as_str()).collect();
        assert_eq!(strategies, ["equivocate", "withhold_votes", "lazy_leader", "flip_flop"]);
        let first_boundary = (variant == "vote-based").then_some(0);
        for attacker in adversary {
            assert_eq!(attacker.epochs_to_demotion, first_boundary, "{variant}: {attacker:?}");
        }
    }
}

#[test]
fn chaos_runs_stay_safe_reject_corruption_and_keep_committing() {
    let mut corrupt_rejected = 0;
    for seed in [7, 11, 13] {
        let report = quick_report("chaos.toml", Some(seed), &[]);
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
    let report = quick_report("saturation.toml", None, &["systems.run=hammerhead"]);
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
    let report = quick_report("bursty.toml", None, &[]);
    assert!(!report.rows.is_empty());
    for row in &report.rows {
        assert_eq!(row.result.restarts, 1, "{}", row.run.variant);
        assert!(row.result.submitted > 0 && row.result.throughput_tps > 0.0);
    }
}
