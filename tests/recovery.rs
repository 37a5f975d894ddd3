//! Crash-recovery integration tests: a validator crashes mid-run, loses all
//! volatile state, restarts from its write-ahead log, resyncs, and rejoins
//! consensus — the "production-ready and fully-featured (crash-recovery)"
//! behaviour §4 claims.

use hammerhead_repro::hammerhead::{SafetyChecker, Validator, ValidatorConfig};
use hammerhead_repro::hh_crypto::Digest;
use hammerhead_repro::hh_net::{
    Duration, FaultSchedule, LatencyModel, NetworkConfig, NodeId, SimTime, Simulator,
};
use hammerhead_repro::hh_rbc::BroadcastMode;
use hammerhead_repro::hh_sim::{Actor, Client};
use hammerhead_repro::hh_storage::{FileBackend, LogBackend, MemBackend};
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

/// Validators on `backends` under one checker, with `config`, beside
/// `client`, over a flat 5 ms network with `faults`.
fn network<B: LogBackend>(
    backends: Vec<B>,
    config: &ValidatorConfig,
    client: Client,
    faults: FaultSchedule,
    seed: u64,
) -> (Simulator<Actor<B>>, SafetyChecker) {
    let committee = Committee::new_equal_stake(backends.len());
    let safety = SafetyChecker::new();
    let mut actors: Vec<Actor<B>> = (0..)
        .zip(backends)
        .map(|(i, backend)| {
            let v =
                Validator::new(committee.clone(), ValidatorId(i), config.clone(), Some(backend));
            Actor::honest(v, safety.clone())
        })
        .collect();
    actors.push(Actor::Client(client));
    let net = NetworkConfig {
        latency: LatencyModel::Constant(Duration::from_millis(5)),
        faults,
        ..NetworkConfig::default()
    };
    (Simulator::new(actors, net, seed), safety)
}

fn in_memory() -> Vec<MemBackend> {
    (0..4).map(|_| MemBackend::new()).collect()
}

/// Four validators, one client, and a crash/recovery window for
/// validator 3.
fn build(crash_at: SimTime, recover_at: SimTime) -> Simulator<Actor> {
    let client = Client::new(0, NodeId(0), 150.0, 10.0);
    let faults = FaultSchedule::new().crash(3, crash_at.0).recover(3, recover_at.0);
    network(in_memory(), &fast_config(), client, faults, 17).0
}

fn commits(sim: &Simulator<Actor>, i: usize) -> u64 {
    sim.node(NodeId(i)).as_validator().unwrap().commit_count()
}

#[test]
fn validator_recovers_and_catches_up() {
    let crash_at = SimTime::from_secs(3);
    let recover_at = SimTime::from_secs(6);
    let mut sim = build(crash_at, recover_at);

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
    let mut sim = build(crash_at, recover_at);

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
    let faults = FaultSchedule::new()
        .crash(3, 2_000_000)
        .recover(3, 4_000_000)
        .crash(3, 6_000_000)
        .recover(3, 8_000_000);
    let client = Client::new(0, NodeId(1), 100.0, 10.0);
    let (mut sim, _) = network(in_memory(), &fast_config(), client, faults, 23);
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
    // sequence: the switches its replayed and live commits carry must be
    // the survivors', which the run's one checker holds them to.
    use hammerhead_repro::hammerhead::{HammerheadConfig, ScheduleConfig};
    use hammerhead_repro::hh_consensus::SchedulePolicy;

    let config = ValidatorConfig {
        schedule: ScheduleConfig::Hammerhead(HammerheadConfig {
            period_rounds: 8,
            ..Default::default()
        }),
        ..fast_config()
    };
    let client = Client::new(0, NodeId(0), 100.0, 10.0);
    let faults = FaultSchedule::new().crash(2, 3_000_000).recover(2, 5_000_000);
    let (mut sim, safety) = network(in_memory(), &config, client, faults, 31);
    sim.run_until(SimTime::from_secs(12));

    safety.assert_clean();
    let survivor = sim.node(NodeId(0)).as_validator().unwrap();
    let recovered = sim.node(NodeId(2)).as_validator().unwrap();
    assert_eq!(recovered.metrics().restarts, 1);
    assert!(survivor.hammerhead_policy().unwrap().epoch() >= 2, "schedules rotated");
    // The recovered policy made every switch its commits carried, and at
    // most one more, which its next commit will carry.
    let carried = safety.epoch_summaries(recovered.commit_count());
    let epoch = recovered.hammerhead_policy().unwrap().epoch();
    assert!(carried.len() >= 2, "the recovered node's commits carried {} switches", carried.len());
    assert!((carried.len() as u64..=carried.len() as u64 + 1).contains(&epoch), "epoch {epoch}");
    // And it names the run's leader for the round it last committed.
    let last = recovered.committed_anchors().last().expect("it commits again").round;
    assert_eq!(Some(recovered.leader_at(last)), safety.leader_at(last));
}

/// Under `broadcast_mode`, v1, which the client submits to, crashes for
/// 1 ms at 1 s + k · 3.137 ms, k = 0..39, on seed k, and its restarts
/// leave no equivocation evidence against it: a certified proposal in
/// flight at the crash, transactions and all, is proposed again, the same
/// vertex, instead of a second one for its round.
fn restarts_never_equivocate(broadcast_mode: BroadcastMode) {
    let config = ValidatorConfig { broadcast_mode, ..fast_config() };
    for k in 0..40 {
        let crash_at = 1_000_000 + k * 3_137;
        let faults = FaultSchedule::new().crash(1, crash_at).recover(1, crash_at + 1_000);
        let client = Client::new(0, NodeId(1), 200.0, 10.0);
        let (mut sim, safety) = network(in_memory(), &config, client, faults, k);
        sim.run_until(SimTime::from_secs(6));
        safety.assert_clean();
        for (i, v) in sim.nodes().filter_map(Actor::as_validator).enumerate() {
            let evidence = v.equivocation_evidence().count_for(ValidatorId(1));
            assert_eq!(evidence, 0, "{broadcast_mode:?}, k = {k}: v{i} holds evidence against v1");
        }
    }
}

#[test]
fn a_best_effort_restart_never_equivocates() {
    restarts_never_equivocate(BroadcastMode::BestEffort);
}

#[test]
fn a_certified_restart_never_equivocates() {
    restarts_never_equivocate(BroadcastMode::Certified);
}

/// Four validators on `backends`, one client, and v3 down from 1 s to
/// 2 s, run for 5 s. Returns the simulation, its checker and v3's commit
/// count at the crash.
fn crash_v3_for_a_second<B: LogBackend>(
    backends: Vec<B>,
) -> (Simulator<Actor<B>>, SafetyChecker, u64) {
    let client = Client::new(0, NodeId(0), 150.0, 10.0);
    let faults = FaultSchedule::new().crash(3, 1_000_000).recover(3, 2_000_000);
    let (mut sim, safety) = network(backends, &fast_config(), client, faults, 17);
    sim.run_until(SimTime::from_secs(1));
    let at_crash = sim.node(NodeId(3)).as_validator().unwrap().commit_count();
    sim.run_until(SimTime::from_secs(5));
    (sim, safety, at_crash)
}

/// Each validator's commit count and chain hash.
fn chains<B: LogBackend>(sim: &Simulator<Actor<B>>) -> Vec<(u64, Digest)> {
    let validators = sim.nodes().filter_map(Actor::as_validator);
    validators.map(|v| (v.commit_count(), v.chain_hash())).collect()
}

#[test]
fn the_node_backend_recovers_under_the_simulators_crash() {
    // The WAL files `hh-node` opens, under the simulator's own actor.
    let dir = std::env::temp_dir().join(format!("hh-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let files: Vec<FileBackend> =
        (0..4).map(|i| FileBackend::open(dir.join(format!("wal-{i}.log"))).unwrap()).collect();
    let (on_files, safety, at_crash) = crash_v3_for_a_second(files);
    safety.assert_clean();

    let v3 = on_files.node(NodeId(3)).as_validator().unwrap();
    assert_eq!(v3.metrics().restarts, 1);
    assert!(!v3.metrics().recovery_divergence);
    let v0 = on_files.node(NodeId(0)).as_validator().unwrap();
    assert!(at_crash > 10, "v3 was committing before the crash");
    assert!(
        v3.commit_count() + 20 >= v0.commit_count() && v3.commit_count() > at_crash + 20,
        "v3 caught up: {at_crash} at the crash, {} of {}",
        v3.commit_count(),
        v0.commit_count()
    );

    // The medium changes nothing the validators do.
    let (on_memory, _, _) = crash_v3_for_a_second(in_memory());
    assert_eq!(chains(&on_files), chains(&on_memory));
    std::fs::remove_dir_all(&dir).unwrap();
}
