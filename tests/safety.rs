//! Safety (Total Order / Proposition 1) integration tests.
//!
//! Every test runs full validator networks on the simulated network and
//! asserts that all live validators' commit sequences are prefix-consistent
//! — the Byzantine Atomic Broadcast Total Order property, plus Schedule
//! Agreement for the HammerHead runs. The network is synchronous unless a
//! test makes it partially synchronous: asynchronous until GST under an
//! all-links chaos window.

use hammerhead_repro::hh_consensus::SchedulePolicy;
use hammerhead_repro::hh_sim::{
    build_sim, run_experiment, ChaosEntry, ChaosSchedule, ExperimentConfig, FaultSchedule, Network,
    SystemKind,
};

/// Prefix-checks anchors across all live validators of a run: the run's
/// checker saw no fork, and every validator's last anchor sits at its
/// commit index in the checker's sequence.
fn assert_agreement(handle: &hammerhead_repro::hh_sim::SimHandle, crashed: &[u16]) {
    handle.safety.assert_clean();
    let sequence = handle.safety.anchor_prefix(u64::MAX);
    for i in (0..handle.n_validators).filter(|i| !crashed.contains(&(*i as u16))) {
        let v = handle.validator(i);
        let last = (v.commit_count() as usize).checked_sub(1).map(|k| &sequence[k]);
        assert_eq!(v.last_anchor(), last, "validator {i} diverged from the common prefix");
    }
}

#[test]
fn agreement_across_seeds_faultless() {
    for seed in [1u64, 7, 99] {
        for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
            let mut config = ExperimentConfig::quick_test(system);
            config.seed = seed;
            config.duration_secs = 4;
            let r = run_experiment(&config);
            assert!(r.agreement_ok, "seed {seed} {system:?}");
            assert!(r.commits > 10, "seed {seed} {system:?}: {} commits", r.commits);
        }
    }
}

#[test]
fn agreement_with_maximum_crash_faults() {
    for seed in [3u64, 11] {
        for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
            let mut config = ExperimentConfig::quick_test(system);
            config.committee_size = 7;
            config.duration_secs = 6;
            config.seed = seed;
            config.faults = FaultSchedule::crash_last(7, 2).expect("2 of 7 is a valid crash spec");
            let r = run_experiment(&config);
            assert!(r.agreement_ok, "seed {seed} {system:?}");
            assert!(r.commits > 0);
        }
    }
}

#[test]
fn agreement_across_an_asynchronous_window() {
    // Asynchronous until GST at t=3s: every frame waits up to 500 ms more
    // and 5% are lost, left to the broadcast layer's retransmission; the
    // run ends at t=8s. Safety must hold throughout, including before GST.
    for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
        let mut config = ExperimentConfig::quick_test(system);
        config.committee_size = 4;
        config.duration_secs = 8;
        config.chaos = ChaosSchedule::new().entry(ChaosEntry {
            drop: 0.05,
            reorder_us: 500_000,
            ..ChaosEntry::all_links(0, 3_000_000)
        });
        config.load_tps = 100;
        let mut handle = build_sim(&config);
        // Check agreement at several points in time, not just the end.
        for checkpoint_s in [2u64, 3, 4, 6, 8] {
            handle.sim.run_until(hammerhead_repro::hh_net::SimTime::from_secs(checkpoint_s));
            assert_agreement(&handle, &[]);
            if checkpoint_s == 3 {
                let stats = handle.sim.stats();
                assert!(stats.chaos_dropped > 0, "{system:?}: the window dropped nothing");
                assert!(stats.chaos_reordered > 0, "{system:?}: the window delayed nothing");
            }
        }
    }
}

#[test]
fn agreement_with_geo_latency_and_faults() {
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, 13, 300);
    config.duration_secs = 20;
    config.warmup_secs = 2;
    config.faults = FaultSchedule::crash_last(13, 4).expect("4 of 13 is a valid crash spec");
    let r = run_experiment(&config);
    assert!(r.agreement_ok);
    assert!(r.schedule_epochs >= 1, "schedule must rotate under faults");
}

#[test]
fn hammerhead_schedule_agreement_across_validators() {
    // Proposition 1 end-to-end: all validators walk through identical
    // schedules even while committing at different times. The run's
    // checker holds every commit's switches to the first write of its
    // index (invariant 5); each validator's live schedule is the one the
    // record names.
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.committee_size = 5;
    config.duration_secs = 6;
    let mut handle = build_sim(&config);
    handle.sim.run_until(hammerhead_repro::hh_net::SimTime::from_secs(6));

    assert_agreement(&handle, &[]);
    for i in 0..5 {
        let v = handle.validator(i);
        let switched = handle.epoch_summaries(i).len() as u64;
        assert!(switched >= 1, "v{i}: every validator switched at least once");
        assert_eq!(v.hammerhead_policy().expect("hammerhead configured").epoch(), switched);
        let anchors = handle.safety.anchor_prefix(v.commit_count());
        for anchor in anchors.iter().filter(|a| a.round >= v.dag().gc_round()) {
            assert_eq!(v.leader_at(anchor.round), handle.leader_at(anchor.round), "v{i}");
        }
    }
}

#[test]
fn per_commit_history_ends_at_the_gc_horizon() {
    // A validator keeps its last anchor, and the checker the slots of the
    // rounds nobody has collected: neither grows with the commit count.
    // The checker's window runs from the previous
    // anchor's horizon to the latest anchor, and it drops what falls
    // below every `WINDOW_SLACK` rounds (the checker's pruning slack);
    // `ANCHOR_GAP` bounds how far apart consecutive anchors are in a
    // faultless run.
    const GC_DEPTH: u64 = 10;
    const WINDOW_SLACK: u64 = 32;
    const ANCHOR_GAP: u64 = 2;
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.validator.gc_depth = GC_DEPTH;
    config.duration_secs = 8;
    let mut handle = build_sim(&config);
    let n = handle.n_validators;
    for second in 1..=config.duration_secs {
        handle.sim.run_until(hammerhead_repro::hh_net::SimTime::from_secs(second));
        let slots = handle.safety.retained_slots();
        let bound = (GC_DEPTH + WINDOW_SLACK + ANCHOR_GAP + 2) as usize * n;
        assert!(slots <= bound, "t = {second} s: the checker holds {slots} slots, bound {bound}");
        for i in 0..n {
            let kept = handle.validator(i).committed_anchors().len();
            assert_eq!(kept, 1, "t = {second} s, v{i}: {kept} anchors kept");
        }
    }
    assert_agreement(&handle, &[]);
    for i in 0..n {
        let v = handle.validator(i);
        assert!(v.current_round().0 >= 300, "v{i} reached round {}", v.current_round());
        assert!(v.commit_count() > 10, "v{i}: {} commits", v.commit_count());
    }
}

#[test]
fn schedule_history_lives_in_the_run_record() {
    // A validator keeps only the schedules that govern a round at or above
    // its GC horizon: the one covering the horizon, at most
    // ⌈gc_depth / period_rounds⌉ more up to the active one, and one of
    // slack for a switch whose anchor sits a round or two above the last.
    // The run's checker holds the one copy of the history, one summary
    // per switch.
    use hammerhead_repro::hammerhead::{HammerheadConfig, ScheduleConfig};
    const GC_DEPTH: u64 = 10;
    const PERIOD: u64 = 5;
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.validator.gc_depth = GC_DEPTH;
    config.validator.schedule = ScheduleConfig::Hammerhead(HammerheadConfig {
        period_rounds: PERIOD,
        ..Default::default()
    });
    config.duration_secs = 8;
    let mut handle = build_sim(&config);
    let n = handle.n_validators;
    let bound = GC_DEPTH.div_ceil(PERIOD) as usize + 2;
    for second in 1..=config.duration_secs {
        handle.sim.run_until(hammerhead_repro::hh_net::SimTime::from_secs(second));
        let summaries = handle.safety.epoch_summaries(u64::MAX);
        for (k, summary) in summaries.iter().enumerate() {
            assert_eq!(summary.epoch, k as u64, "t = {second} s: one summary per switch");
        }
        for i in 0..n {
            let policy = handle.validator(i).hammerhead_policy().unwrap();
            let kept = policy.retained_schedules();
            assert!(kept <= bound, "t = {second} s, v{i}: {kept} schedules, bound {bound}");
            assert_eq!(policy.epoch(), handle.epoch_summaries(i).len() as u64, "v{i}");
        }
    }
    assert_agreement(&handle, &[]);
    let epochs = handle.safety.epoch_summaries(u64::MAX).len();
    assert!(epochs >= 50, "{epochs} switches");
}

#[test]
fn chaos_free_runs_take_zero_delivery_path_rng_draws() {
    use hammerhead_repro::hh_net::SimTime;
    // The event-queue/fan-out hot path is draw-free by design: with a
    // constant-latency link model and no chaos windows, routing a frame
    // never touches the PRNG. Event order —
    // and therefore every scenario JSON byte — can then never hinge on
    // a silently added or re-ordered sample; if someone lands a draw on
    // the delivery path, this fails loudly instead.
    let config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    let mut handle = build_sim(&config);
    handle.sim.run_until(SimTime::from_secs(3));
    let stats = handle.sim.stats();
    assert!(stats.delivered > 0, "run must actually deliver traffic");
    assert_eq!(
        stats.delivery_rng_draws, 0,
        "chaos-free constant-latency runs must take zero delivery-path RNG draws"
    );

    // Control: the geo model draws jitter once per routed frame, so the
    // counter demonstrably counts — the zero above is not vacuous.
    let mut geo = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    geo.network = Network::Geo;
    let mut handle = build_sim(&geo);
    handle.sim.run_until(SimTime::from_secs(3));
    assert!(
        handle.sim.stats().delivery_rng_draws > 0,
        "geo-jitter runs must register delivery-path draws"
    );
}

#[test]
fn determinism_full_stack() {
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.committee_size = 5;
    config.duration_secs = 5;
    config.faults = FaultSchedule::crash_last(5, 1).expect("1 of 5 is a valid crash spec");
    let a = run_experiment(&config);
    let b = run_experiment(&config);
    assert_eq!(a.chain_hash, b.chain_hash);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.latency.mean, b.latency.mean);
}

#[test]
fn epoch_histories_match_schedule_policy_state() {
    use hammerhead_repro::hammerhead::{
        compute_next_schedule, HammerheadConfig, HammerheadPolicy, ReputationScores,
    };
    use hammerhead_repro::hh_types::Round;
    // The schedules the full stack switched through, as the run records
    // them, must equal those recomputed offline from S0 and each epoch's
    // recorded scores — schedules are a function of the committed prefix
    // only.
    let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    config.committee_size = 4;
    config.duration_secs = 5;
    let mut handle = build_sim(&config);
    handle.sim.run_until(hammerhead_repro::hh_net::SimTime::from_secs(5));

    let committee = handle.committee.clone();
    let reference = handle.validator(0).hammerhead_policy().unwrap();
    let offline = HammerheadPolicy::new(
        committee.clone(),
        HammerheadConfig { period_rounds: 8, ..HammerheadConfig::default() },
    );
    // Same construction parameters ⇒ same S0, which leads every round
    // below the first switch.
    assert_eq!(offline.initial_schedule(), reference.initial_schedule());
    let summaries = handle.epoch_summaries(0);
    assert!(!summaries.is_empty() && reference.epoch() >= 1);
    for r in 0..summaries[0].new_initial_round.0 {
        assert_eq!(handle.leader_at(Round(r)), offline.leader_at(Round(r)));
    }
    for summary in &summaries {
        let mut scores = ReputationScores::new(&committee);
        for (id, score) in committee.ids().zip(&summary.final_scores) {
            scores.add(id, *score);
        }
        let change = compute_next_schedule(
            offline.initial_schedule(),
            &scores,
            &committee,
            committee.max_faulty_stake(),
        );
        assert_eq!(summary.slots, change.schedule, "epoch {}", summary.epoch);
        assert_eq!(summary.excluded, change.excluded, "epoch {}", summary.epoch);
        assert_eq!(summary.promoted, change.promoted, "epoch {}", summary.epoch);
    }
}
