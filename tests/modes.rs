//! End-to-end runs under non-default configurations: certified broadcast,
//! weighted stake, network partitions.

use hammerhead_repro::hammerhead::{Validator, ValidatorConfig};
use hammerhead_repro::hh_net::{
    Duration, FaultSchedule, LatencyModel, NetworkConfig, NodeId, SimTime, Simulator,
};
use hammerhead_repro::hh_rbc::BroadcastMode;
use hammerhead_repro::hh_sim::{Actor, Client, SafetyChecker};
use hammerhead_repro::hh_storage::MemBackend;
use hammerhead_repro::hh_types::{Committee, CommitteeBuilder, Stake, ValidatorId};

fn fast_config() -> ValidatorConfig {
    ValidatorConfig {
        min_round_delay_us: 20_000,
        leader_timeout_us: 150_000,
        sync_tick_us: 80_000,
        ..ValidatorConfig::default()
    }
}

/// The simulator, and the one checker every validator's commits feed.
fn build_network(
    committee: &Committee,
    config: &ValidatorConfig,
    faults: FaultSchedule,
    seed: u64,
) -> (Simulator<Actor>, SafetyChecker) {
    let n = committee.size();
    let safety = SafetyChecker::new();
    let mut actors: Vec<Actor> = (0..n)
        .map(|i| {
            let v = Validator::<MemBackend>::new(
                committee.clone(),
                ValidatorId(i as u16),
                config.clone(),
                None,
            );
            Actor::honest(v, safety.clone())
        })
        .collect();
    actors.push(Actor::Client(Client::new(0, NodeId(0), 120.0)));
    let net = NetworkConfig {
        latency: LatencyModel::Constant(Duration::from_millis(5)),
        faults,
        ..NetworkConfig::default()
    };
    (Simulator::new(actors, net, seed), safety)
}

fn commits(sim: &Simulator<Actor>, i: usize) -> u64 {
    sim.node(NodeId(i)).as_validator().unwrap().commit_count()
}

/// No fork anywhere, and every validator's last anchor sits at its commit
/// index in the checker's sequence.
fn assert_prefix_agreement(sim: &Simulator<Actor>, safety: &SafetyChecker, n: usize) {
    safety.assert_clean();
    let sequence = safety.anchor_prefix(u64::MAX);
    for i in 0..n {
        let v = sim.node(NodeId(i)).as_validator().unwrap();
        let last = (v.commit_count() as usize).checked_sub(1).map(|k| &sequence[k]);
        assert_eq!(v.last_anchor(), last, "validator {i} diverged");
    }
}

#[test]
fn certified_broadcast_mode_commits_end_to_end() {
    // The full Narwhal-style header → acks → certificate path on the DES:
    // one extra round-trip per vertex, but equivocation-proof.
    let committee = Committee::new_equal_stake(4);
    let config = ValidatorConfig { broadcast_mode: BroadcastMode::Certified, ..fast_config() };
    let (mut sim, safety) = build_network(&committee, &config, FaultSchedule::new(), 5);
    sim.run_until(SimTime::from_secs(6));
    for i in 0..4 {
        assert!(commits(&sim, i) > 20, "validator {i}: {} commits", commits(&sim, i));
    }
    assert_prefix_agreement(&sim, &safety, 4);
    // Certified transactions flow end to end.
    let recs = sim.node(NodeId(0)).as_validator().unwrap().metrics().exec_records.len();
    assert!(recs > 300, "exec records: {recs}");
}

#[test]
fn certified_mode_survives_crash_faults() {
    let committee = Committee::new_equal_stake(4);
    let config = ValidatorConfig { broadcast_mode: BroadcastMode::Certified, ..fast_config() };
    let faults = FaultSchedule::new().crash(3, 0);
    let (mut sim, safety) = build_network(&committee, &config, faults, 6);
    sim.run_until(SimTime::from_secs(8));
    for i in 0..3 {
        assert!(commits(&sim, i) > 10, "validator {i}");
    }
    assert_prefix_agreement(&sim, &safety, 3);
}

#[test]
fn weighted_stake_committee_runs_and_respects_stake() {
    // A whale (stake 5) plus small validators: leader slots are stake-
    // weighted, and quorum math follows stake, not counts.
    let committee = CommitteeBuilder::new()
        .add(Stake(5))
        .add(Stake(2))
        .add(Stake(1))
        .add(Stake(1))
        .add(Stake(1))
        .build()
        .unwrap();
    let config = fast_config();
    let (mut sim, safety) = build_network(&committee, &config, FaultSchedule::new(), 7);
    sim.run_until(SimTime::from_secs(6));
    assert_prefix_agreement(&sim, &safety, 5);

    // The whale leads half the slots: count anchors per author.
    let anchors = safety.anchor_prefix(commits(&sim, 0));
    assert!(anchors.len() > 20);
    let whale_anchors = anchors.iter().filter(|a| a.author == ValidatorId(0)).count();
    let share = whale_anchors as f64 / anchors.len() as f64;
    assert!(
        (0.35..0.65).contains(&share),
        "whale share {share:.2} should be near its stake share 0.5"
    );
}

#[test]
fn partition_heals_and_liveness_resumes() {
    // Minority {v3} cut off from {v0,v1,v2} between t=2s and t=4s. The
    // majority side keeps committing (it retains quorum 3 of 4); the
    // minority stalls, then catches up after the heal.
    let committee = Committee::new_equal_stake(4);
    let faults = FaultSchedule::new().partition(vec![0, 1, 2], vec![3], 2_000_000, 4_000_000);
    let (mut sim, safety) = build_network(&committee, &fast_config(), faults, 8);

    sim.run_until(SimTime::from_secs(4));
    let majority_mid = commits(&sim, 0);
    let minority_mid = commits(&sim, 3);
    assert!(majority_mid > minority_mid, "majority progressed through the partition");

    sim.run_until(SimTime::from_secs(10));
    let majority_end = commits(&sim, 0);
    let minority_end = commits(&sim, 3);
    assert!(majority_end > majority_mid + 10);
    assert!(
        minority_end + 15 >= majority_end,
        "minority failed to catch up: {minority_end} vs {majority_end}"
    );
    assert_prefix_agreement(&sim, &safety, 4);
}

#[test]
fn majority_partition_stalls_and_recovers_total_order() {
    // A 2/2 split destroys quorum on both sides: commits stop entirely,
    // then resume after the heal with no divergence — the safety-over-
    // liveness trade every BFT protocol must make.
    let committee = Committee::new_equal_stake(4);
    let faults = FaultSchedule::new().partition(vec![0, 1], vec![2, 3], 2_000_000, 5_000_000);
    let (mut sim, safety) = build_network(&committee, &fast_config(), faults, 9);

    sim.run_until(SimTime::from_secs(2));
    let before: Vec<u64> = (0..4).map(|i| commits(&sim, i)).collect();
    sim.run_until(SimTime::from_secs(5));
    let during: Vec<u64> = (0..4).map(|i| commits(&sim, i)).collect();
    // No side can commit more than a round or two past the cut.
    for (i, commits_during) in during.iter().enumerate() {
        assert!(
            *commits_during <= before[i] + 3,
            "validator {i} committed through a quorumless partition"
        );
    }
    sim.run_until(SimTime::from_secs(12));
    for (i, commits_during) in during.iter().enumerate() {
        assert!(commits(&sim, i) > commits_during + 10, "validator {i} did not resume");
    }
    assert_prefix_agreement(&sim, &safety, 4);
}
