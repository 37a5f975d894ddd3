//! Liveness and Leader Utilization integration tests (Lemmas 3, 4, 6).

use hammerhead_repro::hammerhead::{HammerheadConfig, ScheduleConfig};
use hammerhead_repro::hh_net::SimTime;
use hammerhead_repro::hh_sim::{build_sim, ExperimentConfig, FaultSchedule, SystemKind};

#[test]
fn commits_progress_after_gst() {
    // Adversarial network until t=3s. Within a bounded time after GST,
    // every honest validator must keep committing (Lemma 4).
    for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
        let mut config = ExperimentConfig::quick_test(system);
        config.committee_size = 4;
        config.duration_secs = 10;
        config.gst_secs = 3;
        let mut handle = build_sim(&config);

        handle.sim.run_until(SimTime::from_secs(4));
        let at_gst: Vec<u64> = (0..4).map(|i| handle.validator(i).commit_count()).collect();
        handle.sim.run_until(SimTime::from_secs(10));
        let at_end: Vec<u64> = (0..4).map(|i| handle.validator(i).commit_count()).collect();
        for i in 0..4 {
            assert!(
                at_end[i] > at_gst[i] + 5,
                "{system:?}: validator {i} stalled after GST ({} -> {})",
                at_gst[i],
                at_end[i]
            );
        }
    }
}

#[test]
fn rounds_advance_with_maximum_faults() {
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.committee_size = 7;
    config.duration_secs = 8;
    config.faults = FaultSchedule::crash_last(7, 2).expect("2 of 7 is a valid crash spec");
    let mut handle = build_sim(&config);
    handle.sim.run_until(SimTime::from_secs(8));
    for i in 0..5 {
        let round = handle.validator(i).current_round();
        assert!(round.0 > 40, "validator {i} stuck at round {round}");
    }
}

#[test]
fn leader_utilization_bound_holds() {
    // Lemma 6: HammerHead's skipped-leader-round count must not grow with
    // run length (crashed validators leave the schedule and stay out),
    // while the static baseline accumulates skips forever.
    let run = |system: SystemKind, secs: u64| -> u64 {
        let mut config = ExperimentConfig::quick_test(system);
        config.committee_size = 7;
        config.duration_secs = secs;
        config.load_tps = 70;
        config.faults = FaultSchedule::crash_last(7, 2).expect("2 of 7 is a valid crash spec");
        if let ScheduleConfig::Hammerhead(hammerhead) = &mut config.validator.schedule {
            hammerhead.period_rounds = 6;
        }
        let mut handle = build_sim(&config);
        handle.sim.run_until(SimTime::from_secs(secs));
        let most_advanced =
            (0..5).map(|i| handle.validator(i)).max_by_key(|v| v.commit_count()).unwrap();
        most_advanced.passed_over_candidates()
    };

    let hh_short = run(SystemKind::Hammerhead, 6);
    let hh_long = run(SystemKind::Hammerhead, 18);
    let bs_short = run(SystemKind::Bullshark, 6);
    let bs_long = run(SystemKind::Bullshark, 18);

    // Baseline grows roughly linearly with duration.
    assert!(bs_long >= bs_short * 2, "baseline skips should accumulate: {bs_short} -> {bs_long}");
    // HammerHead is bounded: tripling the run adds at most a small constant
    // (epoch-boundary effects), far below the baseline's growth.
    assert!(hh_long <= hh_short + 4, "hammerhead skips must plateau: {hh_short} -> {hh_long}");
    assert!(hh_long < bs_long, "hammerhead must skip fewer rounds overall");
}

#[test]
fn crashed_validators_leave_schedule_and_return_on_recovery_of_scores() {
    // After the first epoch with a crashed validator, HammerHead's active
    // schedule must not contain it; healthy validators keep all slots
    // covered (slot conservation).
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.committee_size = 5;
    config.duration_secs = 8;
    config.faults = FaultSchedule::crash_last(5, 1).expect("1 of 5 is a valid crash spec");
    config.validator.schedule =
        ScheduleConfig::Hammerhead(HammerheadConfig { period_rounds: 6, ..Default::default() });
    let mut handle = build_sim(&config);
    handle.sim.run_until(SimTime::from_secs(8));

    let policy = handle.validator(0).hammerhead_policy().unwrap();
    let schedule = policy.active_schedule();
    assert_eq!(
        schedule.slot_count(hammerhead_repro::hh_types::ValidatorId(4)),
        0,
        "crashed validator still scheduled"
    );
    let total: usize =
        (0..5).map(|i| schedule.slot_count(hammerhead_repro::hh_types::ValidatorId(i))).sum();
    assert_eq!(total, 5, "slots must be conserved");
}

#[test]
fn throughput_sustained_under_faults_with_hammerhead() {
    // C3: no visible throughput degradation despite crash faults.
    let mut faultless = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    faultless.committee_size = 7;
    faultless.duration_secs = 10;
    faultless.load_tps = 500;
    let clean = hammerhead_repro::hh_sim::run_experiment(&faultless);

    let mut faulted = faultless.clone();
    faulted.faults = FaultSchedule::crash_last(7, 2).expect("2 of 7 is a valid crash spec");
    let dirty = hammerhead_repro::hh_sim::run_experiment(&faulted);

    assert!(clean.agreement_ok && dirty.agreement_ok);
    assert!(
        dirty.throughput_tps > clean.throughput_tps * 0.85,
        "hammerhead throughput degraded: {} vs {}",
        dirty.throughput_tps,
        clean.throughput_tps
    );
}
