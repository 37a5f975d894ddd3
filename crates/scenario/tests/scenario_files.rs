//! Tests over the checked-in `scenarios/*.toml` files: every file must
//! parse, expand, survive a serialize/parse round trip that plans to the
//! same runs, and the fig2 scenario must lower to exactly the
//! configuration built by hand.

use hh_scenario::{load_scenario, repo_scenarios_dir, PlanOptions, ScenarioSpec};
use hh_sim::{run_experiment, ExperimentConfig, FaultSchedule, SystemKind};
use std::path::PathBuf;

fn checked_in_scenarios() -> Vec<PathBuf> {
    let dir = repo_scenarios_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert_eq!(
        files.len(),
        13,
        "expected the seven paper scenarios plus recovery, partition, saturation, bursty, \
         byzantine and chaos, found {files:?}"
    );
    files
}

#[test]
fn every_checked_in_scenario_parses_and_plans() {
    for path in checked_in_scenarios() {
        let spec = load_scenario(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for quick in [false, true] {
            let opts = PlanOptions { quick, ..PlanOptions::default() };
            let plan = spec
                .plan(&opts)
                .unwrap_or_else(|e| panic!("{} (quick={quick}): {e}", path.display()));
            assert!(!plan.runs.is_empty(), "{} expanded to no runs", path.display());
        }
    }
}

/// The canonical form (`hh-cli validate --dump`) re-parses to an equal
/// spec, and — since equal rows alone do not prove the lowering unchanged —
/// plans, full and `--quick`, to runs whose configurations print the same.
#[test]
fn every_checked_in_scenario_round_trips() {
    let configs = |spec: &ScenarioSpec, quick: bool| -> Vec<String> {
        let plan = spec.plan(&PlanOptions { quick, ..PlanOptions::default() }).expect("plans");
        plan.runs.iter().map(|run| format!("{:?}", run.config)).collect()
    };
    for path in checked_in_scenarios() {
        let spec = load_scenario(&path).expect("parses");
        let canonical = spec.to_toml();
        let again = ScenarioSpec::parse(&canonical).unwrap_or_else(|e| {
            panic!("{} canonical form does not re-parse: {e}\n{canonical}", path.display())
        });
        assert_eq!(spec, again, "{} round trip changed the spec", path.display());
        for quick in [false, true] {
            assert_eq!(
                configs(&spec, quick),
                configs(&again, quick),
                "{} (quick={quick}) plans differently from its canonical form",
                path.display()
            );
        }
    }
}

/// `ScenarioSpec::plan` must lower the Figure 2 scenario file to the
/// config one would build by hand for the same point, knob for knob —
/// same seeds, same simulation, identical results.
#[test]
fn fig2_scenario_lowers_to_the_hand_built_config() {
    let spec = load_scenario(&repo_scenarios_dir().join("fig2_faults.toml")).expect("parses");
    let plan = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).expect("plans");

    // Quick axes: 1 committee × 2 systems × 3 loads.
    assert_eq!(plan.runs.len(), 6);
    let run = plan
        .runs
        .iter()
        .find(|r| r.system == "bullshark" && r.config.load_tps == 500)
        .expect("bullshark @ 500 tps is part of the quick sweep");

    // The same point built by hand (quick axes: duration 15,
    // warmup 15/6 = 2, seed 42).
    let committee = 10;
    let mut by_hand = ExperimentConfig::paper(SystemKind::Bullshark, committee, 500);
    by_hand.duration_secs = 15;
    by_hand.warmup_secs = 2;
    by_hand.seed = 42;
    by_hand.faults = FaultSchedule::crash_last(committee, committee / 3).expect("f < n");

    assert_eq!(run.config.committee_size, by_hand.committee_size);
    assert_eq!(run.config.duration_secs, by_hand.duration_secs);
    assert_eq!(run.config.warmup_secs, by_hand.warmup_secs);
    assert_eq!(run.config.seed, by_hand.seed);
    assert_eq!(run.config.faults.crashed_nodes(), by_hand.faults.crashed_nodes());
    assert_eq!(run.config.validator, by_hand.validator);
    assert_eq!(run.config.network, by_hand.network);

    // And the simulations agree bit for bit.
    let from_scenario = run_experiment(&run.config);
    let from_hand = run_experiment(&by_hand);
    assert_eq!(from_scenario.chain_hash, from_hand.chain_hash);
    assert_eq!(from_scenario.commits, from_hand.commits);
    assert_eq!(from_scenario.throughput_tps, from_hand.throughput_tps);
    assert_eq!(from_scenario.latency, from_hand.latency);
}
