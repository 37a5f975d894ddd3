//! Liveness and Leader Utilization integration tests (Lemmas 3, 4, 6).

use hammerhead_repro::hammerhead::{HammerheadConfig, ScheduleConfig};
use hammerhead_repro::hh_net::SimTime;
use hammerhead_repro::hh_sim::{
    build_sim, ChaosEntry, ChaosSchedule, ExperimentConfig, FaultSchedule, SimHandle, SystemKind,
};

#[test]
fn commits_progress_after_gst() {
    // Asynchronous until GST at t=3s: an all-links window delays every
    // frame by up to 500 ms and loses 5%. Within a bounded time after GST,
    // every honest validator must keep committing (Lemma 4).
    for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
        let mut config = ExperimentConfig::quick_test(system);
        config.committee_size = 4;
        config.duration_secs = 10;
        config.chaos = ChaosSchedule::new().entry(ChaosEntry {
            drop: 0.05,
            reorder_us: 500_000,
            ..ChaosEntry::all_links(0, 3_000_000)
        });
        let mut handle = build_sim(&config);

        handle.sim.run_until(SimTime::from_secs(3));
        let stats = handle.sim.stats();
        assert!(stats.chaos_dropped > 0, "{system:?}: the window dropped nothing");
        assert!(stats.chaos_reordered > 0, "{system:?}: the window delayed nothing");
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

/// A committee of `n` whose last `crashed` validators are down from t = 0,
/// at 70 tx/s with HammerHead epochs of `period_rounds`, built and not yet
/// run.
fn crashed_from_start(
    system: SystemKind,
    n: usize,
    crashed: usize,
    period_rounds: u64,
) -> SimHandle {
    let mut config = ExperimentConfig::quick_test(system);
    config.committee_size = n;
    config.load_tps = 70;
    config.faults = FaultSchedule::crash_last(n, crashed).expect("a valid crash spec");
    if let ScheduleConfig::Hammerhead(hammerhead) = &mut config.validator.schedule {
        hammerhead.period_rounds = period_rounds;
    }
    build_sim(&config)
}

/// Leader timeouts summed over the first `live` validators.
fn leader_timeouts(handle: &SimHandle, live: usize) -> u64 {
    (0..live).map(|i| handle.validator(i).metrics().leader_timeouts).sum()
}

#[test]
fn leader_utilization_bound_holds() {
    // Lemma 6: HammerHead's skipped-leader-round count must not grow with
    // run length (crashed validators leave the schedule and stay out),
    // while the static baseline accumulates skips forever.
    let run = |system: SystemKind, secs: u64| -> u64 {
        let mut handle = crashed_from_start(system, 7, 2, 6);
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
fn no_leader_timeout_survives_the_first_switch() {
    // Under crash faults from t = 0, HammerHead's every leader timeout
    // falls before the first schedule switch, at the paper's 20-round
    // epochs and at short ones: a crashed validator is not awaited once
    // round 0 has closed, and it has no slot after the switch.
    for (n, crashed, period_rounds) in [(7, 2, 20), (10, 3, 20), (7, 2, 6)] {
        let live = n - crashed;
        let mut handle = crashed_from_start(SystemKind::Hammerhead, n, crashed, period_rounds);
        let mut t = 0;
        while (0..live).any(|i| handle.epoch_summaries(i).is_empty()) {
            t += 10;
            assert!(t < 10_000, "n = {n}: no first switch within 10 s");
            handle.sim.run_until(SimTime::from_millis(t));
        }
        let at_switch = leader_timeouts(&handle, live);
        handle.sim.run_until(SimTime::from_secs(12));
        assert!(handle.epoch_summaries(0).len() > 5);
        assert_eq!(leader_timeouts(&handle, live), at_switch, "n = {n}: a timeout after {t} ms");
    }
}

#[test]
fn epoch_zero_anchors_every_round_once_round_zero_closes() {
    // The paper's shape at n = 10 with the last 3 crashed from t = 0 (its
    // 20-round epochs, geo latency, 3,000 tx/s). When round 0 closes the
    // seven live validators earn candidacy for the rest of epoch 0 and a
    // crashed leader's slot is skipped at the quorum of the round above,
    // so from the first committed anchor on every round anchors commits
    // of its own (its live leader's, then its earned anchors'), and the
    // first switch is the anchor of round 20.
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, 10, 3_000);
    config.faults = FaultSchedule::crash_last(10, 3).expect("3 of 10 is a valid crash spec");
    let mut handle = build_sim(&config);
    handle.sim.run_until(SimTime::from_secs(6));
    let commits = handle.validator(0).commit_count();
    let mut rounds: Vec<u64> =
        handle.safety.anchor_prefix(commits).iter().map(|a| a.round.0).collect();
    assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "{rounds:?}");
    rounds.dedup();
    assert!(rounds.len() > 20, "{rounds:?}");
    let first = rounds[0];
    assert_eq!(rounds, (first..first + rounds.len() as u64).collect::<Vec<_>>());
    assert_eq!(handle.epoch_summaries(0)[0].new_initial_round.0, 20);
}

#[test]
fn hammerhead_leader_timeouts_stop_while_round_robins_keep_growing() {
    // Under HammerHead only rounds led by a crashed validator before round
    // 0 closes wait out the timeout, at most two per live validator, however
    // long epoch 0 is (the paper's 20 rounds here); round-robin waits out
    // every crashed slot for as long as it runs.
    let timeouts = |system: SystemKind, secs: u64| -> u64 {
        let mut handle = crashed_from_start(system, 7, 2, 20);
        handle.sim.run_until(SimTime::from_secs(secs));
        leader_timeouts(&handle, 5)
    };
    let (hh_short, hh_long) =
        (timeouts(SystemKind::Hammerhead, 6), timeouts(SystemKind::Hammerhead, 18));
    assert_eq!(hh_short, hh_long);
    assert!(hh_long <= 2 * 5, "{hh_long} timeouts");
    let (bs_short, bs_long) =
        (timeouts(SystemKind::Bullshark, 6), timeouts(SystemKind::Bullshark, 18));
    assert!(bs_long >= bs_short * 2, "round-robin timeouts: {bs_short} -> {bs_long}");
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
