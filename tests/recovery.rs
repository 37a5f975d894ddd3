//! Crash-recovery integration tests: a validator crashes mid-run, loses all
//! volatile state, restarts from its write-ahead log, resyncs, and rejoins
//! consensus — the "production-ready and fully-featured (crash-recovery)"
//! behaviour §4 claims.

use hammerhead_repro::hammerhead::{Validator, ValidatorConfig};
use hammerhead_repro::hh_net::{
    Duration, FaultSchedule, LatencyModel, NetworkConfig, NodeId, SimTime, Simulator,
};
use hammerhead_repro::hh_sim::{Actor, Client};
use hammerhead_repro::hh_storage::MemBackend;
use hammerhead_repro::hh_types::{Committee, ValidatorId};

fn fast_config() -> ValidatorConfig {
    ValidatorConfig {
        min_round_delay_us: 20_000,
        leader_timeout_us: 150_000,
        sync_tick_us: 80_000,
        gc_depth: 1_000, // keep history so the rejoiner can sync the gap
        ..ValidatorConfig::default()
    }
}

/// Builds a 4-validator network with persistent backends, one client, and
/// a crash/recovery window for validator 3.
fn build(crash_at: SimTime, recover_at: SimTime) -> (Simulator<Actor>, Vec<MemBackend>) {
    let committee = Committee::new_equal_stake(4);
    let backends: Vec<MemBackend> = (0..4).map(|_| MemBackend::new()).collect();
    let mut actors: Vec<Actor> = (0..4)
        .map(|i| {
            Actor::honest(Validator::new(
                committee.clone(),
                ValidatorId(i as u16),
                fast_config(),
                Some(backends[i].clone()),
            ))
        })
        .collect();
    actors.push(Actor::Client(Client::new(0, NodeId(0), 150.0, 10.0)));

    let net = NetworkConfig {
        latency: LatencyModel::Constant(Duration::from_millis(5)),
        faults: FaultSchedule::new().crash(3, crash_at.0).recover(3, recover_at.0),
        ..NetworkConfig::default()
    };
    (Simulator::new(actors, net, 17), backends)
}

fn commits(sim: &Simulator<Actor>, i: usize) -> u64 {
    sim.node(NodeId(i)).as_validator().unwrap().commit_count()
}

#[test]
fn validator_recovers_and_catches_up() {
    let crash_at = SimTime::from_secs(3);
    let recover_at = SimTime::from_secs(6);
    let (mut sim, _backends) = build(crash_at, recover_at);

    sim.run_until(SimTime::from_secs(3));
    let before_crash = commits(&sim, 3);
    assert!(before_crash > 10, "v3 was committing before the crash");

    // While crashed, the rest keep going.
    sim.run_until(SimTime::from_secs(6));
    assert_eq!(commits(&sim, 3), before_crash, "crashed node is frozen");
    assert!(commits(&sim, 0) > before_crash + 10, "survivors progressed");

    // After recovery, v3 replays its WAL and resyncs the gap.
    sim.run_until(SimTime::from_secs(14));
    let v3 = sim.node(NodeId(3)).as_validator().unwrap();
    assert_eq!(v3.metrics().restarts, 1);
    assert!(!v3.metrics().recovery_divergence, "checkpoint cross-check failed");
    let v0_commits = commits(&sim, 0);
    let v3_commits = commits(&sim, 3);
    assert!(v3_commits + 20 >= v0_commits, "v3 failed to catch up: {v3_commits} vs {v0_commits}");

    // Safety: the recovered node's sequence is a prefix of the leader's.
    let reference = sim.node(NodeId(0)).as_validator().unwrap().committed_anchors();
    let recovered = v3.committed_anchors();
    let shared = reference.len().min(recovered.len());
    assert_eq!(&reference[..shared], &recovered[..shared]);
    // Anchors of odd rounds included, among those the replay recomputed
    // from the WAL and among those committed since: the restart rebuilt
    // the engine's commit instance along with the order.
    let (replayed, since) = recovered[..shared].split_at(before_crash as usize);
    for (what, anchors) in [("replayed", replayed), ("since the restart", since)] {
        let odd = anchors.iter().filter(|a| !a.round.is_even()).count();
        assert!(odd * 3 > anchors.len(), "{odd} of {} {what} anchors on odd rounds", anchors.len());
    }
}

#[test]
fn recovery_preserves_pre_crash_prefix() {
    let crash_at = SimTime::from_secs(3);
    let recover_at = SimTime::from_secs(5);
    let (mut sim, _backends) = build(crash_at, recover_at);

    sim.run_until(SimTime::from_secs(3));
    let pre_crash: Vec<_> =
        sim.node(NodeId(3)).as_validator().unwrap().committed_anchors().to_vec();
    assert!(!pre_crash.is_empty());

    sim.run_until(SimTime::from_secs(10));
    let post: Vec<_> = sim.node(NodeId(3)).as_validator().unwrap().committed_anchors().to_vec();
    assert!(
        post.len() >= pre_crash.len(),
        "recovery lost commits: {} -> {}",
        pre_crash.len(),
        post.len()
    );
    assert_eq!(
        &post[..pre_crash.len()],
        &pre_crash[..],
        "recovered sequence must extend the pre-crash prefix"
    );
}

#[test]
fn repeated_crashes_survive() {
    let committee = Committee::new_equal_stake(4);
    let backends: Vec<MemBackend> = (0..4).map(|_| MemBackend::new()).collect();
    let mut actors: Vec<Actor> = (0..4)
        .map(|i| {
            Actor::honest(Validator::new(
                committee.clone(),
                ValidatorId(i as u16),
                fast_config(),
                Some(backends[i].clone()),
            ))
        })
        .collect();
    actors.push(Actor::Client(Client::new(0, NodeId(1), 100.0, 10.0)));

    let net = NetworkConfig {
        latency: LatencyModel::Constant(Duration::from_millis(5)),
        faults: FaultSchedule::new()
            .crash(3, 2_000_000)
            .recover(3, 4_000_000)
            .crash(3, 6_000_000)
            .recover(3, 8_000_000),
        ..NetworkConfig::default()
    };
    let mut sim = Simulator::new(actors, net, 23);
    sim.run_until(SimTime::from_secs(14));

    let v3 = sim.node(NodeId(3)).as_validator().unwrap();
    assert_eq!(v3.metrics().restarts, 2);
    assert!(!v3.metrics().recovery_divergence);
    assert!(commits(&sim, 3) + 30 >= commits(&sim, 0), "double-crashed node caught up");

    let reference = sim.node(NodeId(0)).as_validator().unwrap().committed_anchors();
    let recovered = v3.committed_anchors();
    let shared = reference.len().min(recovered.len());
    assert_eq!(&reference[..shared], &recovered[..shared]);
}

#[test]
fn hammerhead_node_recovers_with_schedule_state() {
    // Recovery rebuilds the HammerHead policy by replaying the committed
    // sequence: epochs and schedules must match the survivors'.
    use hammerhead_repro::hammerhead::{HammerheadConfig, ScheduleConfig};
    use hammerhead_repro::hh_consensus::SchedulePolicy;

    let committee = Committee::new_equal_stake(4);
    let config = ValidatorConfig {
        schedule: ScheduleConfig::Hammerhead(HammerheadConfig {
            period_rounds: 8,
            ..Default::default()
        }),
        ..fast_config()
    };
    let backends: Vec<MemBackend> = (0..4).map(|_| MemBackend::new()).collect();
    let mut actors: Vec<Actor> = (0..4)
        .map(|i| {
            Actor::honest(Validator::new(
                committee.clone(),
                ValidatorId(i as u16),
                config.clone(),
                Some(backends[i].clone()),
            ))
        })
        .collect();
    actors.push(Actor::Client(Client::new(0, NodeId(0), 100.0, 10.0)));

    let net = NetworkConfig {
        latency: LatencyModel::Constant(Duration::from_millis(5)),
        faults: FaultSchedule::new().crash(2, 3_000_000).recover(2, 5_000_000),
        ..NetworkConfig::default()
    };
    let mut sim = Simulator::new(actors, net, 31);
    sim.run_until(SimTime::from_secs(12));

    let survivor = sim.node(NodeId(0)).as_validator().unwrap();
    let recovered = sim.node(NodeId(2)).as_validator().unwrap();
    let se = survivor.hammerhead_policy().unwrap();
    let re = recovered.hammerhead_policy().unwrap();
    assert!(se.epoch() >= 2, "schedules rotated during the test");
    let shared = se.epoch_history().len().min(re.epoch_history().len());
    for e in 0..shared {
        assert_eq!(
            se.epoch_history()[e].new_initial_round,
            re.epoch_history()[e].new_initial_round
        );
        assert_eq!(se.epoch_history()[e].excluded, re.epoch_history()[e].excluded);
    }
}
