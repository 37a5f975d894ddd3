//! Experiment configuration and the run loop producing the paper's data
//! rows.

use crate::actor::{Actor, Client};
use crate::byzantine::ByzantineSchedule;
use crate::metrics::LatencySummary;
use crate::sink::MetricsSink;
use crate::workload::Workload;
use hammerhead::{HammerheadConfig, SafetyChecker, ScheduleConfig, Validator, ValidatorConfig};
use hh_consensus::SchedulePolicy;
use hh_crypto::Digest;
use hh_net::{
    ChaosSchedule, Duration, FaultSchedule, GeoLatency, LatencyModel, NetworkConfig, NodeId,
    Region, SimTime, Simulator, REGION_COUNT,
};
use hh_storage::MemBackend;
use hh_types::{Committee, ValidatorId};

/// Which system a run benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// Baseline: Bullshark with static stake-weighted round-robin.
    Bullshark,
    /// HammerHead reputation scheduling.
    Hammerhead,
}

impl SystemKind {
    /// Label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Bullshark => "bullshark",
            SystemKind::Hammerhead => "hammerhead",
        }
    }

    /// The leader schedule this system runs, with `hammerhead` as the
    /// reputation parameters.
    fn schedule(self, hammerhead: HammerheadConfig) -> ScheduleConfig {
        match self {
            SystemKind::Bullshark => ScheduleConfig::RoundRobin,
            SystemKind::Hammerhead => ScheduleConfig::Hammerhead(hammerhead),
        }
    }
}

/// The link-latency model of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Network {
    /// The paper's 13-region AWS matrix.
    Geo,
    /// A flat network with the given constant one-way delay.
    Flat {
        /// One-way delay in milliseconds.
        ms: u64,
    },
}

/// Full description of one benchmark run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of validators (equal stake).
    pub committee_size: usize,
    /// The configuration every validator of the run is built from: the
    /// leader schedule (the system under test), pacing, block bounds and
    /// the execution-rate calibration.
    pub validator: ValidatorConfig,
    /// Total offered load, transactions per second, split across one
    /// client per live validator.
    pub load_tps: u64,
    /// The workload shape the clients execute: arrival-process timeline,
    /// open- vs closed-loop submission, modeled payload size, per-client
    /// heterogeneity. [`Workload::constant`] (the default) reproduces
    /// the historical fixed-rate windowed client bit for bit.
    pub workload: Workload,
    /// Measured run length (simulated seconds).
    pub duration_secs: u64,
    /// Initial window excluded from latency statistics.
    pub warmup_secs: u64,
    /// Named submission-time windows `(name, from_us, to_us)`, the end
    /// exclusive: the end-to-end latency of the post-warmup transactions
    /// submitted inside each is summarised on its own, as
    /// [`RunResult::windows`]. Empty by default.
    pub windows: Vec<(String, u64, u64)>,
    /// The fault schedule: crashes, recoveries, slowdowns, partitions.
    pub faults: FaultSchedule,
    /// The byzantine schedule: strategic adversaries (equivocation, vote
    /// withholding, lazy leadership, flip-flopping) attacking the
    /// reputation mechanism. Empty by default — and an empty schedule
    /// changes nothing about the run, bit for bit.
    pub byzantine: ByzantineSchedule,
    /// The chaos schedule: per-window message drop, duplication,
    /// corruption and reordering on selected links (adverse-network
    /// model). Empty by default — and an empty schedule draws no
    /// randomness, so it changes nothing about the run, bit for bit.
    pub chaos: ChaosSchedule,
    /// Link latencies: the paper's geo matrix, or a flat network (fast
    /// unit tests).
    pub network: Network,
    /// Client in-flight window, expressed in seconds of offered rate
    /// (window = per-client rate × this). Models the bounded concurrency of
    /// real benchmark drivers; see [`crate::Client`].
    pub client_window_secs: f64,
    /// Global Stabilization Time in seconds. Before it the simulated
    /// adversary adds arbitrary bounded delays and defers a fraction of
    /// messages (§2.1's partial synchrony); 0 = synchronous from the start
    /// (the benchmark setting).
    pub gst_secs: u64,
    /// Simulation seed (identical seeds reproduce identical runs).
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's benchmark shape: geo network, 60 simulated seconds
    /// (scaled down from the paper's 10 minutes), 10-second warmup,
    /// schedule recomputed every ~10 commits, bottom-f exclusion.
    ///
    /// Calibration (`docs/architecture.md` §6): the execution drain rate
    /// models the Sui execution pipeline and carries a mild committee-size
    /// penalty, `4200 − 7·n` tps, reproducing the paper's observed peaks
    /// (≈4k tx/s at 10–50 validators, ≈3.5k at 100). It is written into
    /// [`ExperimentConfig::validator`] here, for this `committee_size`.
    pub fn paper(system: SystemKind, committee_size: usize, load_tps: u64) -> Self {
        ExperimentConfig {
            committee_size,
            validator: ValidatorConfig {
                schedule: system.schedule(HammerheadConfig::default()),
                exec_rate_tps: 4_200u64.saturating_sub(7 * committee_size as u64).max(500),
                ..ValidatorConfig::default()
            },
            load_tps,
            workload: Workload::constant(),
            duration_secs: 60,
            warmup_secs: 10,
            windows: Vec::new(),
            faults: FaultSchedule::default(),
            byzantine: ByzantineSchedule::default(),
            chaos: ChaosSchedule::default(),
            network: Network::Geo,
            client_window_secs: 2.0,
            gst_secs: 0,
            seed: 42,
        }
    }

    /// A small, fast configuration for unit tests: 4 validators, flat
    /// network, aggressive timeouts, 3 simulated seconds.
    pub fn quick_test(system: SystemKind) -> Self {
        ExperimentConfig {
            committee_size: 4,
            validator: ValidatorConfig {
                schedule: system
                    .schedule(HammerheadConfig { period_rounds: 8, ..HammerheadConfig::default() }),
                min_round_delay_us: 20_000,
                leader_timeout_us: 150_000,
                sync_tick_us: 100_000,
                ..ValidatorConfig::default()
            },
            load_tps: 200,
            workload: Workload::constant(),
            duration_secs: 3,
            warmup_secs: 0,
            windows: Vec::new(),
            faults: FaultSchedule::default(),
            byzantine: ByzantineSchedule::default(),
            chaos: ChaosSchedule::default(),
            network: Network::Flat { ms: 5 },
            client_window_secs: 10.0,
            gst_secs: 0,
            seed: 42,
        }
    }
}

/// Measurements from one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Distinct transactions reaching execution finality, divided by the
    /// run duration (the paper's throughput metric).
    pub throughput_tps: f64,
    /// Distinct transactions reaching execution finality (the numerator
    /// of `throughput_tps`).
    pub executed: u64,
    /// End-to-end latency (submission → execution finality), post-warmup.
    pub latency: LatencySummary,
    /// Submission → consensus commit latency, post-warmup.
    pub commit_latency: LatencySummary,
    /// One `(name, end-to-end latency)` per entry of
    /// [`ExperimentConfig::windows`], in that order.
    pub windows: Vec<(String, LatencySummary)>,
    /// Highest commit count across live validators.
    pub commits: u64,
    /// Sum of leader-await timeouts across live validators.
    pub leader_timeouts: u64,
    /// Total transactions submitted by clients.
    pub submitted: u64,
    /// Client ticks skipped with a full in-flight window (latency-throttled
    /// demand; the Little's-law effect behind Fig. 2's throughput loss).
    pub client_skipped: u64,
    /// Transactions shed by full pools (backpressure).
    pub shed: u64,
    /// Modeled wire bytes submitted by clients.
    pub bytes_submitted: u64,
    /// Modeled wire bytes reaching execution finality (byte goodput).
    pub bytes_committed: u64,
    /// The measured window in seconds (actual stop time — shorter than
    /// `duration_secs` for round-limited runs).
    pub elapsed_secs: f64,
    /// Highest HammerHead epoch reached (0 for the baseline).
    pub schedule_epochs: u64,
    /// Restarts executed across live validators (crash-recovery runs).
    pub restarts: u64,
    /// Whether any live validator's post-restart recomputation diverged
    /// from its last durable checkpoint (should never happen; the WAL
    /// replay tripwire).
    pub recovery_divergence: bool,
    /// Every pair of commit sequences is prefix-consistent: the
    /// [`SafetyChecker`]'s no-fork verdict over every commit index of
    /// every validator, crashed ones and WAL replays included.
    pub agreement_ok: bool,
    /// Commit chain hash of the most advanced validator.
    pub chain_hash: Digest,
    /// Frames the simulated network delivered (after chaos effects).
    pub frames_delivered: u64,
    /// Frames dropped by chaos windows.
    pub chaos_dropped: u64,
    /// Frames delivered twice by chaos windows.
    pub chaos_duplicated: u64,
    /// Corrupted frames rejected at decode (the CRC trailer or the codec
    /// caught the flip — the only acceptable fate of a corrupt frame).
    pub chaos_corrupt_rejected: u64,
    /// Frames delayed by chaos reorder windows.
    pub chaos_reordered: u64,
    /// RBC retransmissions across live validators: adaptive sync
    /// re-requests plus uncertified proposal rebroadcasts.
    pub rbc_retransmits: u64,
    /// Commit records audited by the always-on [`SafetyChecker`].
    pub safety_records: u64,
    /// Safety violations detected. Always zero on a result of [`run_sim`]
    /// — it aborts the run with a diagnostic dump on any violation — but
    /// reported so scenario output can gate on it.
    pub safety_violations: u64,
}

/// The network round observed when a scheduled recovery fired — the
/// baseline the re-inclusion analysis measures from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoverySample {
    /// The recovered validator.
    pub validator: u16,
    /// Recovery instant (µs).
    pub at_us: u64,
    /// Highest DAG round across validators at that instant.
    pub network_round: u64,
}

/// A built simulation plus its committee, for tests that need to drive the
/// run manually (custom fault timing, bespoke assertions).
pub struct SimHandle {
    /// The underlying simulator; validators occupy ids `0..n_validators`.
    pub sim: Simulator<Actor>,
    /// The committee shared by all validators.
    pub committee: Committee,
    /// Number of validator nodes.
    pub n_validators: usize,
    /// One sample per scheduled recovery, filled as [`run_sim`] passes each
    /// recovery instant (empty until then, and for schedules without
    /// recoveries).
    pub recovery_samples: Vec<RecoverySample>,
    /// The always-on safety invariant checker: the one every validator
    /// actor of this simulation hands its commit records to as it
    /// commits, so it is up to date — and the validators' commit logs
    /// empty — whenever [`Simulator::run_until`] returns. [`run_sim`]
    /// aborts on a violation with [`SafetyChecker::diagnostic_dump`].
    pub safety: SafetyChecker,
}

impl SimHandle {
    /// Borrows validator `i`.
    ///
    /// # Panics
    ///
    /// Panics if node `i` is not a validator.
    pub fn validator(&self, i: usize) -> &Validator<hh_storage::MemBackend> {
        self.sim.node(NodeId(i)).as_validator().expect("node is a validator")
    }

    /// Records the network round for every recovery scheduled at exactly
    /// `at_us` (call after the simulator has processed that instant).
    fn sample_recoveries(&mut self, config: &ExperimentConfig, at_us: u64) {
        let network_round =
            (0..self.n_validators).map(|i| self.validator(i).current_round().0).max().unwrap_or(0);
        for (validator, t) in config.faults.recoveries() {
            if t == at_us {
                self.recovery_samples.push(RecoverySample { validator, at_us, network_round });
            }
        }
    }
}

/// Builds the simulation described by `config` without running it.
///
/// Schedules containing recovery events wire every validator to a
/// WAL-backed [`hh_storage::ValidatorStore`] (over a [`MemBackend`]
/// whose handle survives the crash), so a scheduled recovery replays
/// `Validator::on_restart` from real persisted state instead of
/// restarting empty.
pub fn build_sim(config: &ExperimentConfig) -> SimHandle {
    let n = config.committee_size;
    let committee = Committee::new_equal_stake(n);
    let mut validator_config = config.validator.clone();
    if let Err(e) = config.byzantine.validate(n) {
        panic!("invalid byzantine schedule: {e}");
    }
    if let Err(e) = config.chaos.validate(n) {
        panic!("invalid chaos schedule: {e}");
    }
    if config.byzantine.has_equivocation() {
        // Equivocation is only a *detected* attack in certified mode,
        // where honest validators ack one header per (round, author) and
        // the twin can never gather a certificate.
        validator_config.broadcast_mode = hh_rbc::BroadcastMode::Certified;
    }

    // Clients attach to validators that are up at t=0.
    let live: Vec<usize> = config.faults.live_at(n, 0);
    assert!(!live.is_empty(), "at least one live validator required");
    // The scenario layer validates workloads at plan time; programmatic
    // configs get the same up-front rejection here instead of a
    // mid-run surprise.
    if let Err(e) = config.workload.validate() {
        panic!("invalid workload: {e}");
    }
    let persist = config.faults.has_recoveries();
    let safety = SafetyChecker::new();

    // Validators at ids 0..n, one client per live validator above them.
    let mut actors: Vec<Actor> = (0..n)
        .map(|i| {
            let id = ValidatorId(i as u16);
            Actor::Validator(
                Box::new(Validator::new(
                    committee.clone(),
                    id,
                    validator_config.clone(),
                    persist.then(MemBackend::new),
                )),
                config.byzantine.behavior_for(id, &committee),
                safety.clone(),
            )
        })
        .collect();
    let rates = config.workload.client_rates(config.load_tps as f64, live.len());
    let duration_us = config.duration_secs.saturating_mul(1_000_000);
    for (k, v) in live.iter().enumerate() {
        if rates[k] > 0.0 {
            actors.push(Actor::Client(Client::with_workload(
                k as u32,
                NodeId(*v),
                rates[k],
                config.client_window_secs,
                config.workload.clone(),
                duration_us,
            )));
        }
    }

    // Latency: validators round-robin over regions; each client co-located
    // with its target validator.
    let latency = match config.network {
        Network::Geo => {
            let mut assignment: Vec<Region> =
                (0..n).map(|i| Region::ALL[i % REGION_COUNT]).collect();
            for v in &live {
                assignment.push(Region::ALL[*v % REGION_COUNT]);
            }
            LatencyModel::Geo(GeoLatency::with_assignment(assignment))
        }
        Network::Flat { ms } => LatencyModel::Constant(Duration::from_millis(ms)),
    };

    let net = NetworkConfig {
        latency,
        faults: config.faults.clone(),
        // Co-simulated clients (ids at and above `n`) keep clean links.
        chaos: config.chaos.clone().restrict_to(n),
        gst: SimTime::from_secs(config.gst_secs),
        ..NetworkConfig::default()
    };
    let mut sim = Simulator::new(actors, net, config.seed);
    sim.set_profiling(crate::prof::enabled());
    SimHandle { sim, committee, n_validators: n, recovery_samples: Vec::new(), safety }
}

/// When a run stops (see [`run_sim`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunLimit {
    /// Run for the config's full `duration_secs` of simulated time — the
    /// paper's measurement mode.
    Duration,
    /// Stop as soon as the most advanced live validator passes this DAG
    /// round (or at `duration_secs`, whichever comes first). Smoke-test
    /// mode: "give me 50 rounds of activity" without guessing a duration.
    Rounds(u64),
}

/// Runs the experiment for its full duration and gathers the paper's
/// metrics: [`run_sim`] with [`RunLimit::Duration`], the result alone.
pub fn run_experiment(config: &ExperimentConfig) -> RunResult {
    run_sim(config, RunLimit::Duration).1
}

/// The scheduled recovery instants at or below `cap_us`, ascending and
/// deduplicated — extra driver boundaries so the network round can be
/// sampled at exactly each recovery.
fn recovery_times(config: &ExperimentConfig, cap_us: u64) -> Vec<u64> {
    let mut times: Vec<u64> =
        config.faults.recoveries().iter().map(|(_, t)| *t).filter(|t| *t <= cap_us).collect();
    times.sort_unstable();
    times.dedup();
    times
}

/// The next driver stop: the following 250 ms grid point, the next
/// scheduled recovery, or the cap — whichever comes first. Slicing
/// `run_until` never reorders events, so boundary choice cannot change
/// results; it only controls where the driver samples recoveries, audits
/// safety and checks a [`RunLimit::Rounds`] stop.
fn next_boundary(now_us: u64, cap_us: u64, recoveries: &[u64]) -> u64 {
    const SLICE_US: u64 = 250_000;
    let grid = ((now_us / SLICE_US) + 1) * SLICE_US;
    let recovery = recoveries.iter().copied().find(|t| *t > now_us).unwrap_or(u64::MAX);
    grid.min(recovery).min(cap_us)
}

/// The run driver: builds the simulation, drives it until `limit` and
/// gathers the paper's metrics over the actually-elapsed window (the
/// handle's `sim.now()` is the stop time) with [`collect_metrics`],
/// returning the live handle for post-run analyses beside them.
///
/// The simulation advances from one [`next_boundary`] to the next, so a
/// [`RunLimit::Rounds`] stop is prompt. After each slice the recoveries
/// scheduled at that instant are sampled and the run aborts if the
/// slice's commits broke a safety invariant ([`SimHandle::safety`] saw
/// each of them as it happened). A `Rounds` stop looks at the validators
/// that are up at the configured cap.
///
/// # Panics
///
/// Panics with the checker's per-validator diagnostic dump if any
/// safety invariant is violated.
pub fn run_sim(config: &ExperimentConfig, limit: RunLimit) -> (SimHandle, RunResult) {
    let mut handle = build_sim(config);
    let cap_us = SimTime::from_secs(config.duration_secs).as_micros();
    let recoveries = recovery_times(config, cap_us);
    let up_at_cap = config.faults.live_at(handle.n_validators, cap_us);
    let mut now_us = 0u64;
    // A recovery at t=0 is a boundary the loop below never visits (it
    // only moves forward from 0).
    if recoveries.first() == Some(&0) {
        handle.sim.run_until(SimTime(0));
        handle.sample_recoveries(config, 0);
    }
    while now_us < cap_us {
        now_us = next_boundary(now_us, cap_us, &recoveries);
        handle.sim.run_until(SimTime(now_us));
        if recoveries.binary_search(&now_us).is_ok() {
            handle.sample_recoveries(config, now_us);
        }
        handle.safety.assert_clean();
        if let RunLimit::Rounds(target) = limit {
            let best =
                up_at_cap.iter().map(|i| handle.validator(*i).current_round().0).max().unwrap_or(0);
            if best >= target {
                break;
            }
        }
    }
    let result = collect_metrics(config, &handle, now_us);
    (handle, result)
}

/// Gathers the paper's metrics from a handle driven — by [`run_sim`], or
/// by hand with [`build_sim`] and [`Simulator::run_until`] — up to
/// `end_us`.
///
/// Every validator keeps the latency records of its whole run (two to
/// four bytes each). The ones that count are those of the validators
/// live at `end_us` — a run stopped before a scheduled crash counts that
/// (never-crashed) validator — that executed at or before it; the rest
/// never reached finality inside the run. The run counters and the
/// safety verdict come from the same handle.
pub fn collect_metrics(config: &ExperimentConfig, handle: &SimHandle, end_us: u64) -> RunResult {
    let live = config.faults.live_at(handle.n_validators, end_us);
    let mut sink = MetricsSink::new(config);
    for &i in &live {
        for rec in &handle.validator(i).metrics().exec_records {
            if rec.executed_at <= end_us {
                sink.observe(rec);
            }
        }
    }
    let net_stats = handle.sim.stats();

    let mut commits = 0u64;
    let mut leader_timeouts = 0u64;
    let mut shed = 0u64;
    let mut epochs = 0u64;
    let mut restarts = 0u64;
    let mut recovery_divergence = false;
    let mut rbc_retransmits = 0u64;
    for &i in &live {
        let v = handle.validator(i);
        let m = v.metrics();
        leader_timeouts += m.leader_timeouts;
        shed += m.txs_shed;
        commits = commits.max(v.commit_count());
        restarts += m.restarts;
        recovery_divergence |= m.recovery_divergence;
        rbc_retransmits += v.rbc_retransmits();
        if let Some(p) = v.hammerhead_policy() {
            epochs = epochs.max(p.epoch());
        }
    }

    let mut submitted = 0u64;
    let mut client_skipped = 0u64;
    let mut bytes_submitted = 0u64;
    for i in handle.n_validators..handle.sim.len() {
        if let Some(c) = handle.sim.node(NodeId(i)).as_client() {
            submitted += c.submitted();
            client_skipped += c.skipped();
            bytes_submitted += c.bytes_submitted();
        }
    }

    let chain_hash = live
        .iter()
        .map(|i| handle.validator(*i))
        .max_by_key(|v| v.commit_count())
        .map(|v| v.chain_hash())
        .unwrap_or(Digest::ZERO);

    RunResult {
        throughput_tps: sink.executed as f64 / (end_us as f64 / 1e6).max(1e-6),
        executed: sink.executed,
        latency: sink.latency.summary(),
        commit_latency: sink.commit_latency.summary(),
        windows: sink.window_summaries(),
        commits,
        leader_timeouts,
        submitted,
        client_skipped,
        shed,
        bytes_submitted,
        bytes_committed: sink.executed_bytes,
        elapsed_secs: end_us as f64 / 1e6,
        schedule_epochs: epochs,
        restarts,
        recovery_divergence,
        agreement_ok: handle.safety.fork_free(),
        chain_hash,
        frames_delivered: net_stats.delivered,
        chaos_dropped: net_stats.chaos_dropped,
        chaos_duplicated: net_stats.chaos_duplicated,
        chaos_corrupt_rejected: net_stats.chaos_corrupt_rejected,
        chaos_reordered: net_stats.chaos_reordered,
        rbc_retransmits,
        safety_records: handle.safety.records_seen(),
        safety_violations: handle.safety.violations().len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// HammerHead with the schedule recomputed every `period_rounds`.
    fn hammerhead_every(period_rounds: u64) -> ScheduleConfig {
        ScheduleConfig::Hammerhead(HammerheadConfig {
            period_rounds,
            ..HammerheadConfig::default()
        })
    }

    #[test]
    fn paper_writes_the_calibration_into_the_validator_config() {
        for (n, exec_rate_tps) in
            [(10, 4_130), (50, 3_850), (100, 3_500), (528, 504), (529, 500), (1_000, 500)]
        {
            // The default schedule is the baseline's round-robin.
            let bullshark = ValidatorConfig { exec_rate_tps, ..ValidatorConfig::default() };
            let hammerhead = ValidatorConfig {
                schedule: ScheduleConfig::Hammerhead(HammerheadConfig::default()),
                ..bullshark.clone()
            };
            let paper = |system| ExperimentConfig::paper(system, n, 1_000).validator;
            assert_eq!(paper(SystemKind::Bullshark), bullshark, "n = {n}");
            assert_eq!(paper(SystemKind::Hammerhead), hammerhead, "n = {n}");
        }
        let quick = |system| ExperimentConfig::quick_test(system).validator;
        assert_eq!(quick(SystemKind::Bullshark).schedule, ScheduleConfig::RoundRobin);
        assert_eq!(quick(SystemKind::Hammerhead).schedule, hammerhead_every(8));
        assert_eq!(quick(SystemKind::Hammerhead).exec_rate_tps, 4_200, "not calibrated");
    }

    #[test]
    fn quick_bullshark_run_commits_and_agrees() {
        let config = ExperimentConfig::quick_test(SystemKind::Bullshark);
        let r = run_experiment(&config);
        assert!(r.agreement_ok);
        assert!(r.commits > 10, "commits: {}", r.commits);
        assert!(r.throughput_tps > 50.0, "tps: {}", r.throughput_tps);
        assert!(r.latency.count > 0);
        assert!(r.latency.mean > 0.0 && r.latency.mean < 2.0, "latency: {}", r.latency.mean);
        assert_eq!(r.schedule_epochs, 0, "baseline never rotates");
    }

    #[test]
    fn quick_hammerhead_run_rotates_schedules() {
        let config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        let r = run_experiment(&config);
        assert!(r.agreement_ok);
        assert!(r.commits > 10);
        assert!(r.schedule_epochs >= 1, "epochs: {}", r.schedule_epochs);
    }

    #[test]
    fn crash_fault_degrades_bullshark_more_than_hammerhead() {
        let mut base = ExperimentConfig::quick_test(SystemKind::Bullshark);
        base.committee_size = 4;
        base.duration_secs = 8;
        base.faults = FaultSchedule::crash_last(4, 1).expect("1 of 4 is a valid crash spec");

        let bullshark = run_experiment(&base);

        let mut hh = base.clone();
        hh.validator.schedule = hammerhead_every(6);
        let hammerhead = run_experiment(&hh);

        assert!(bullshark.agreement_ok && hammerhead.agreement_ok);
        // The baseline keeps electing the crashed leader: it must hit
        // strictly more leader timeouts than HammerHead, which rotates the
        // crashed validator out after the first epoch.
        assert!(
            hammerhead.leader_timeouts < bullshark.leader_timeouts,
            "hammerhead {} vs bullshark {}",
            hammerhead.leader_timeouts,
            bullshark.leader_timeouts
        );
        assert!(hammerhead.schedule_epochs >= 1);
    }

    #[test]
    fn rounds_limit_stops_early_with_consistent_metrics() {
        let mut config = ExperimentConfig::quick_test(SystemKind::Bullshark);
        config.duration_secs = 30;
        let (_, r) = run_sim(&config, RunLimit::Rounds(10));
        assert!(r.agreement_ok);
        assert!(r.commits > 0, "should have committed by round 10");
        // A 10-round run at ~20ms/round finishes far before the 30s cap,
        // so the full-duration run commits strictly more.
        let full = run_experiment(&config);
        assert!(full.commits > r.commits, "full {} vs limited {}", full.commits, r.commits);
        assert!(r.throughput_tps > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn build_sim_rejects_unvalidated_workloads_up_front() {
        // A programmatic config can skip the scenario layer; the sim
        // must still refuse a malformed workload at build time instead
        // of underflowing mid-run.
        let mut config = ExperimentConfig::quick_test(SystemKind::Bullshark);
        config.workload.phases = vec![crate::Phase {
            from_us: 5_000_000,
            arrival: crate::Arrival::Constant { scale: 1.0 },
        }];
        build_sim(&config);
    }

    #[test]
    fn crash_last_rejects_oversized_counts_instead_of_panicking() {
        // Regression: `count > committee_size` used to underflow
        // `committee_size - count` and panic in release-unfriendly ways.
        assert!(FaultSchedule::crash_last(4, 5).is_err());
        assert!(FaultSchedule::crash_last(4, 4).is_err(), "crashing everyone is unrunnable too");
        assert!(FaultSchedule::crash_last(0, 0).is_err());
        let ok = FaultSchedule::crash_last(4, 1).expect("valid spec");
        assert_eq!(ok.crashed_nodes(), vec![3]);
    }

    #[test]
    fn mid_run_crash_recovers_via_wal_replay() {
        // One validator crashes mid-run and recovers: the run must wire a
        // WAL-backed store, execute `on_restart`, replay without
        // divergence, and keep Total Order across the whole committee.
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        config.duration_secs = 6;
        config.faults = FaultSchedule::new().crash(3, 1_500_000).recover(3, 3_000_000);
        config.faults.validate(config.committee_size).expect("runnable schedule");

        let (handle, r) = run_sim(&config, RunLimit::Duration);
        assert!(r.agreement_ok, "recovered validator must stay prefix-consistent");
        assert_eq!(r.restarts, 1, "exactly one restart scheduled");
        assert!(!r.recovery_divergence, "WAL replay must match the checkpoint");
        assert!(r.commits > 10);

        // The recovery instant was sampled with a sensible network round.
        assert_eq!(handle.recovery_samples.len(), 1);
        let sample = handle.recovery_samples[0];
        assert_eq!(sample.validator, 3);
        assert_eq!(sample.at_us, 3_000_000);
        assert!(sample.network_round > 0);

        // The recovered validator kept committing after its restart: its
        // commit count must be close to the most advanced validator's.
        let recovered = handle.validator(3);
        assert_eq!(recovered.metrics().restarts, 1);
        assert!(
            recovered.commit_count() * 2 > r.commits,
            "recovered validator resynced ({} of {} commits)",
            recovered.commit_count(),
            r.commits
        );
    }

    #[test]
    fn partition_buffers_and_heals() {
        // Isolating one validator for a second must not violate safety,
        // and the isolated validator catches back up after the heal.
        let mut config = ExperimentConfig::quick_test(SystemKind::Bullshark);
        config.duration_secs = 6;
        config.faults =
            FaultSchedule::new().partition(vec![0], vec![1, 2, 3], 1_000_000, 2_000_000);
        config.faults.validate(config.committee_size).expect("runnable schedule");
        let r = run_experiment(&config);
        assert!(r.agreement_ok);
        assert!(r.commits > 10, "commits: {}", r.commits);
        assert_eq!(r.restarts, 0);
    }

    #[test]
    fn a_hand_driven_handle_collects_what_the_driver_reports() {
        // `run_sim` stops on its own boundaries; perfbench drives a handle
        // in one-second slices. Slicing `run_until` never reorders events,
        // so the two must report the same result, windows included.
        let mut quick = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        quick.warmup_secs = 1;
        quick.windows = vec![("early".into(), 0, 2_000_000), ("late".into(), 2_000_000, 3_000_000)];
        let mut recovering = quick.clone();
        recovering.duration_secs = 5;
        recovering.faults = FaultSchedule::new().crash(2, 1_100_000).recover(2, 2_700_000);
        // A crash scheduled just before the cap, with a Rounds limit that
        // stops long before it: the validator was healthy for the whole
        // actual run, so it must be counted live.
        let mut stops_early = ExperimentConfig::quick_test(SystemKind::Bullshark);
        stops_early.duration_secs = 30;
        stops_early.faults = FaultSchedule::new().crash(3, 29_000_000);

        for (config, limit) in [
            (quick, RunLimit::Duration),
            (recovering, RunLimit::Duration),
            (stops_early, RunLimit::Rounds(10)),
        ] {
            let (driven, reported) = run_sim(&config, limit);
            let end_us = driven.sim.now().as_micros();

            let mut handle = build_sim(&config);
            for t in (1..).map(|s| s * 1_000_000).take_while(|t| *t < end_us) {
                handle.sim.run_until(SimTime(t));
            }
            handle.sim.run_until(SimTime(end_us));
            let collected = collect_metrics(&config, &handle, end_us);

            assert!(reported.latency.count > 0 && reported.commits > 0, "{reported:?}");
            assert_eq!(reported.windows.len(), config.windows.len());
            assert!(reported.windows.iter().all(|(_, w)| w.count > 0), "{:?}", reported.windows);
            assert_eq!(collected, reported, "{limit:?}");
            if limit != RunLimit::Duration {
                assert!(end_us < 29_000_000, "the run stopped before the scheduled crash");
                assert!(!handle.validator(3).metrics().exec_records.is_empty());
                let by_all_four: usize = (0..4)
                    .map(|i| &handle.validator(i).metrics().exec_records)
                    .map(|log| log.iter().filter(|r| r.executed_at <= end_us).count())
                    .sum();
                assert_eq!(reported.executed, by_all_four as u64, "validator 3 counts as live");
            }
            if config.faults.has_recoveries() {
                assert_eq!(reported.restarts, 1);
                assert_eq!(driven.recovery_samples.len(), 1);
                assert_eq!(driven.recovery_samples[0].at_us, 2_700_000);
            }
        }
    }

    /// Rounds the attacker held leader slots: under round-robin that is
    /// every round where the static schedule elects it; under HammerHead
    /// epochs where the attacker sits in the excluded set contribute
    /// nothing. Computed from the epoch history so past epochs keep their
    /// own schedules (the active schedule only describes the present).
    fn attacker_slot_rounds(handle: &SimHandle, observer: usize, attacker: u16, n: usize) -> u64 {
        let v = handle.validator(observer);
        let last_round = v.committed_anchors().last().map(|a| a.round.0).unwrap_or(0);
        match v.hammerhead_policy() {
            None => last_round / n as u64,
            Some(p) => {
                // Epoch k spans [boundary k-1's new round, boundary k's).
                // The attacker holds ~1/n of the rounds of every epoch
                // whose *schedule* includes it, i.e. where the previous
                // boundary did not exclude it.
                let mut held = 0u64;
                let mut span_start = 0u64;
                let mut excluded_now = false;
                for summary in p.epoch_history() {
                    let span = summary.new_initial_round.0.saturating_sub(span_start);
                    if !excluded_now {
                        held += span / n as u64;
                    }
                    excluded_now = summary.excluded.contains(&ValidatorId(attacker));
                    span_start = summary.new_initial_round.0;
                }
                if !excluded_now {
                    held += last_round.saturating_sub(span_start) / n as u64;
                }
                held
            }
        }
    }

    /// How often each validator was excluded across the epoch history.
    fn exclusion_counts(handle: &SimHandle, observer: usize, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n];
        if let Some(p) = handle.validator(observer).hammerhead_policy() {
            for summary in p.epoch_history() {
                for v in &summary.excluded {
                    counts[v.0 as usize] += 1;
                }
            }
        }
        counts
    }

    /// Satellite: for each strategy, HammerHead must strip the attacker
    /// of leader slots strictly faster than round-robin under the same
    /// seed — round-robin never demotes, so the attacker keeps its slot
    /// share for the whole run there.
    fn assert_demoted_faster_than_round_robin(
        schedule: ByzantineSchedule,
        duration_secs: u64,
        label: &str,
    ) {
        let attacker: u16 = 3;
        let mut base = ExperimentConfig::quick_test(SystemKind::Bullshark);
        base.duration_secs = duration_secs;
        base.byzantine = schedule;
        base.byzantine.validate(base.committee_size).expect("runnable byzantine schedule");

        let (rr_handle, rr) = run_sim(&base, RunLimit::Duration);

        let mut hh_config = base.clone();
        hh_config.validator.schedule = hammerhead_every(6);
        let (hh_handle, hh) = run_sim(&hh_config, RunLimit::Duration);

        assert!(rr.agreement_ok && hh.agreement_ok, "{label}: safety must hold under attack");
        assert!(hh.schedule_epochs >= 2, "{label}: epochs: {}", hh.schedule_epochs);

        // The observer is the most advanced honest validator.
        let observer = (0..3usize)
            .max_by_key(|i| hh_handle.validator(*i).commit_count())
            .expect("honest validators exist");
        let n = base.committee_size;
        let rr_rounds = attacker_slot_rounds(&rr_handle, observer, attacker, n);
        let hh_rounds = attacker_slot_rounds(&hh_handle, observer, attacker, n);
        assert!(
            hh_rounds < rr_rounds,
            "{label}: hammerhead must strip the attacker's slots faster \
             (hh {hh_rounds} vs rr {rr_rounds} rounds held)"
        );

        // And the demotions must actually target the attacker: it is
        // excluded more often than any honest validator.
        let counts = exclusion_counts(&hh_handle, observer, n);
        for honest in 0..3usize {
            assert!(
                counts[attacker as usize] > counts[honest],
                "{label}: attacker excluded {} times vs honest {honest}'s {} — \
                 the mechanism must single out the attacker ({counts:?})",
                counts[attacker as usize],
                counts[honest]
            );
        }
    }

    #[test]
    fn equivocator_is_demoted_faster_than_round_robin() {
        let s = ByzantineSchedule::new().equivocate(3, 0, u64::MAX);
        assert_demoted_faster_than_round_robin(s, 8, "equivocate");
    }

    #[test]
    fn lazy_leader_is_demoted_faster_than_round_robin() {
        let s = ByzantineSchedule::new().lazy_leader(3, 400_000, 0, u64::MAX);
        assert_demoted_faster_than_round_robin(s, 8, "lazy_leader");
    }

    #[test]
    fn flip_flopper_is_demoted_faster_than_round_robin() {
        // 1-second phases: honest, lazy, honest, lazy... The lazy epochs
        // must drag the attacker's score under the honest floor.
        let s = ByzantineSchedule::new().flip_flop(3, 1_000_000, 400_000, 0, u64::MAX);
        assert_demoted_faster_than_round_robin(s, 10, "flip_flop");
    }

    #[test]
    fn vote_withholder_is_demoted_faster_than_round_robin() {
        // Withholding constrains the attacker's parent choice to a fixed
        // quorum — it must await specific vertices where honest nodes take
        // the fastest quorum, so its own proposals run systematically
        // late. The geo network makes that lateness visible to scoring.
        let mut base = ExperimentConfig::quick_test(SystemKind::Bullshark);
        base.committee_size = 7;
        base.network = Network::Geo;
        // Paper-calibrated vote windows.
        base.validator = ExperimentConfig::paper(SystemKind::Bullshark, 7, 100).validator;
        base.duration_secs = 20;
        base.load_tps = 100;
        let attacker: u16 = 6;
        base.byzantine = ByzantineSchedule::new().withhold_votes(attacker, vec![0, 1], 0, u64::MAX);
        base.byzantine.validate(base.committee_size).expect("runnable byzantine schedule");

        let (rr_handle, rr) = run_sim(&base, RunLimit::Duration);

        let mut hh_config = base.clone();
        hh_config.validator.schedule = hammerhead_every(6);
        let (hh_handle, hh) = run_sim(&hh_config, RunLimit::Duration);

        assert!(rr.agreement_ok && hh.agreement_ok, "withhold: safety must hold under attack");
        assert!(hh.schedule_epochs >= 2, "withhold: epochs: {}", hh.schedule_epochs);
        let observer = (0..6usize)
            .max_by_key(|i| hh_handle.validator(*i).commit_count())
            .expect("honest validators exist");
        let n = base.committee_size;
        let rr_rounds = attacker_slot_rounds(&rr_handle, observer, attacker, n);
        let hh_rounds = attacker_slot_rounds(&hh_handle, observer, attacker, n);
        assert!(
            hh_rounds < rr_rounds,
            "withhold: hammerhead must strip the attacker's slots faster \
             (hh {hh_rounds} vs rr {rr_rounds} rounds held)"
        );
    }

    /// Satellite: equivocation evidence is charged exactly once per twin
    /// pair — across RBC retransmits, garbage collection, and a WAL
    /// recovery replay. Node 3 equivocates all run; honest node 1 crashes
    /// and recovers mid-run, so its ledger must survive the replay
    /// without re-counting replayed slots.
    #[test]
    fn equivocation_evidence_counts_each_twin_pair_exactly_once() {
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        config.duration_secs = 6;
        config.byzantine = ByzantineSchedule::new().equivocate(3, 0, u64::MAX);
        config.faults = FaultSchedule::new().crash(1, 1_500_000).recover(1, 3_000_000);
        config.faults.validate(config.committee_size).expect("runnable schedule");

        let (handle, r) = run_sim(&config, RunLimit::Duration);
        assert!(r.agreement_ok, "equivocation must not break safety");
        assert_eq!(r.restarts, 1);
        assert!(!r.recovery_divergence);

        // The attacker rebroadcast uncertified headers every sync tick, so
        // raw twin emissions far exceed distinct twinned slots — the
        // deduplication below is load-bearing, not vacuous.
        let behavior =
            handle.sim.node(NodeId(3)).behavior().expect("attacker carries its behavior");
        assert!(behavior.twins_sent() > 0, "the attacker actually equivocated");

        let attacker = ValidatorId(3);
        for honest in [0usize, 2] {
            let ledger = handle.validator(honest).equivocation_evidence();
            let units = ledger.count_for(attacker);
            assert!(units > 3, "honest {honest} must hold evidence, has {units}");
            // A crash-recovered validator may accidentally equivocate: a
            // proposal broadcast but not yet certified is not in the WAL,
            // so after replay it re-proposes that round with a different
            // block. The evidence channel cannot tell that from malice —
            // but it is bounded by the restart count, where the attacker
            // equivocates every round.
            assert!(
                ledger.total() - units <= r.restarts,
                "honest {honest}: non-attacker evidence exceeds the restart bound \
                 ({:?})",
                ledger.by_author().collect::<Vec<_>>()
            );
            // Exactly once per twin pair: one unit per (round, author)
            // slot, no matter how many retransmits re-delivered the pair.
            assert_eq!(
                ledger.slot_count() as u64,
                ledger.total(),
                "honest {honest}: every slot charged exactly one unit"
            );
        }
        let v0 = handle.validator(0).equivocation_evidence().count_for(attacker);
        let v2 = handle.validator(2).equivocation_evidence().count_for(attacker);
        assert_eq!(v0, v2, "never-crashed validators observed the same twinned slots");

        // The recovered validator: no loss before the crash, no
        // double-count from the WAL replay (replay inserts straight into
        // the DAG, never through the broadcast layer).
        let recovered = handle.validator(1).equivocation_evidence();
        let units = recovered.count_for(attacker);
        assert!(units > 0, "evidence survives the restart");
        assert!(units <= v0, "a crashed window cannot observe more than an always-up node");
        assert_eq!(recovered.slot_count() as u64, units, "replay must not inflate any slot");
    }

    #[test]
    fn all_honest_run_is_unchanged_by_the_byzantine_hook() {
        // The byzantine plumbing (actor indirection, empty schedule) must
        // leave an all-honest run bit-identical: chain hash, commits,
        // throughput. This is the programmatic face of the scenario
        // byte-identity gate.
        let config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        assert!(config.byzantine.is_empty());
        let a = run_experiment(&config);
        let mut with_empty = config.clone();
        with_empty.byzantine = ByzantineSchedule::new();
        let b = run_experiment(&with_empty);
        assert_eq!(a.chain_hash, b.chain_hash);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn all_honest_run_is_unchanged_by_the_chaos_hook() {
        // The chaos plumbing (delivery-path hook, empty plan) must leave
        // a chaos-free run bit-identical — an empty plan draws no
        // randomness, so nothing downstream can shift.
        let config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        assert!(config.chaos.is_empty());
        let a = run_experiment(&config);
        let mut with_empty = config.clone();
        with_empty.chaos = ChaosSchedule::new();
        let b = run_experiment(&with_empty);
        assert_eq!(a.chain_hash, b.chain_hash);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.throughput_tps, b.throughput_tps);
        assert_eq!(a.chaos_dropped + a.chaos_duplicated + a.chaos_reordered, 0);
        assert_eq!(a.chaos_corrupt_rejected, 0);
        assert!(a.safety_records > 0, "the checker audited the run");
        assert_eq!(a.safety_violations, 0);
    }

    #[test]
    #[should_panic(expected = "invalid chaos schedule")]
    fn build_sim_rejects_invalid_chaos_schedules_up_front() {
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        let mut entry = crate::ChaosEntry::all_links(0, u64::MAX);
        entry.drop = 1.5;
        config.chaos = ChaosSchedule::new().entry(entry);
        build_sim(&config);
    }

    /// Satellite: self-healing delivery under heavy symmetric loss. At
    /// 50% drop the run must still converge (commit progress, Total
    /// Order, clean safety audit), and the adaptive backoff must keep
    /// total retransmits within a constant factor of the no-loss
    /// baseline instead of storming.
    #[test]
    fn heavy_loss_converges_without_a_retry_storm() {
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        config.duration_secs = 6;
        let clean = run_experiment(&config);

        let mut lossy_config = config.clone();
        let mut entry = crate::ChaosEntry::all_links(0, u64::MAX);
        entry.drop = 0.5;
        lossy_config.chaos = ChaosSchedule::new().entry(entry);
        lossy_config.chaos.validate(lossy_config.committee_size).expect("runnable chaos");
        let lossy = run_experiment(&lossy_config);

        assert!(lossy.agreement_ok, "loss must never break Total Order");
        assert_eq!(lossy.safety_violations, 0);
        assert!(lossy.chaos_dropped > 100, "the window actually dropped: {}", lossy.chaos_dropped);
        assert!(lossy.commits > 5, "50% loss still converges: {} commits", lossy.commits);
        // The no-loss baseline: a healthy network resolves everything
        // before any retry comes due, so the adaptive layer sends
        // nothing at all.
        assert_eq!(clean.rbc_retransmits, 0, "healthy runs never retransmit");
        // Retry-storm regression: recovery work stays bounded by a small
        // constant per node per sync tick. A storming implementation
        // (every outstanding item re-sent every tick) accumulates
        // dozens of digests per node under 50% loss and blows far past
        // this line; the backoff keeps it near one send per node-tick.
        let ticks = config.duration_secs * 1_000_000 / config.validator.sync_tick_us;
        let budget = ticks * config.committee_size as u64 * 4;
        assert!(
            lossy.rbc_retransmits <= budget,
            "retry storm: {} retransmits under loss vs budget {}",
            lossy.rbc_retransmits,
            budget
        );
    }

    #[test]
    fn mixed_chaos_exercises_every_fault_and_stays_safe() {
        // Duplication, corruption and reordering together: duplicates
        // must be absorbed idempotently, corrupt frames must die at the
        // codec (counted, never delivered as a different valid message),
        // and the safety audit must stay clean throughout.
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        config.duration_secs = 6;
        let mut entry = crate::ChaosEntry::all_links(0, u64::MAX);
        entry.drop = 0.1;
        entry.duplicate = 0.2;
        entry.corrupt = 0.15;
        entry.reorder_us = 40_000;
        config.chaos = ChaosSchedule::new().entry(entry);
        config.chaos.validate(config.committee_size).expect("runnable chaos");

        let r = run_experiment(&config);
        assert!(r.agreement_ok);
        assert_eq!(r.safety_violations, 0);
        assert!(r.safety_records > 0);
        assert!(r.chaos_dropped > 0);
        assert!(r.chaos_duplicated > 0);
        assert!(r.chaos_corrupt_rejected > 0, "corrupt frames must be rejected at decode");
        assert!(r.chaos_reordered > 0);
        assert!(r.commits > 10, "mixed chaos still converges: {} commits", r.commits);
    }

    #[test]
    fn commits_are_audited_where_they_happen() {
        // Whoever drives `run_until`, the checker has seen every commit —
        // live and replayed — and no validator holds a record when it
        // returns. Millisecond slices: a record left behind by one handler
        // would be swept up by the validator's next message within five.
        let quick = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        let mut recovering = quick.clone();
        recovering.duration_secs = 6;
        recovering.faults = FaultSchedule::new().crash(3, 1_500_000).recover(3, 3_000_000);
        for config in [quick, recovering] {
            let mut handle = build_sim(&config);
            for slice in 1..=config.duration_secs * 1_000 {
                handle.sim.run_until(SimTime(slice * 1_000));
                let mut reported = 0;
                for i in 0..handle.n_validators {
                    let v = handle.sim.node_mut(NodeId(i)).as_validator_mut().expect("validator");
                    assert!(v.take_commit_records().is_empty(), "validator {i}, slice {slice}");
                    reported += v.metrics().commits;
                }
                assert_eq!(handle.safety.records_seen(), reported, "slice {slice}");
            }
            assert!(handle.safety.records_seen() > 40, "{}", handle.safety.records_seen());
            handle.safety.assert_clean();
            if config.faults.has_recoveries() {
                // `metrics().commits` survives the restart and the engine's
                // count does not: the difference is what the replay
                // committed a second time.
                let recovered = handle.validator(3);
                assert_eq!(recovered.metrics().restarts, 1);
                assert!(recovered.metrics().commits > recovered.commit_count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "safety invariant violated")]
    fn injected_fork_fails_the_run_with_a_diagnostic() {
        // Acceptance gate: a forked history must abort the run. Two runs
        // under different seeds commit different chains; offering one
        // run's history to the other run's checker as a validator's WAL
        // replay is exactly a fork, and the checker must kill it.
        let config_a = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        let mut config_b = config_a.clone();
        config_b.seed = 43;
        let (mut handle_a, clean) = run_sim(&config_a, RunLimit::Duration);
        let (handle_b, _) = run_sim(&config_b, RunLimit::Duration);
        assert!(clean.agreement_ok);
        let end_us = handle_a.sim.now().as_micros();

        let rewrite: Vec<hammerhead::CommitRecord> = handle_b
            .validator(0)
            .committed_anchors()
            .iter()
            .enumerate()
            .map(|(i, a)| hammerhead::CommitRecord {
                index: i as u64,
                anchor: *a,
                vertices: vec![*a],
                replayed: true,
            })
            .collect();
        handle_a.safety.observe_all(0, &rewrite);
        let r = collect_metrics(&config_a, &handle_a, end_us);
        assert!(!r.agreement_ok, "different seeds commit different anchors");
        assert!(r.safety_violations > 0);
        handle_a.safety.assert_clean();
    }

    #[test]
    #[should_panic(expected = "invalid byzantine schedule")]
    fn build_sim_rejects_invalid_byzantine_schedules_up_front() {
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        // n = 4 → f = 1: two byzantine validators are unrunnable.
        config.byzantine = ByzantineSchedule::new().equivocate(2, 0, u64::MAX).lazy_leader(
            3,
            400_000,
            0,
            u64::MAX,
        );
        build_sim(&config);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        let a = run_experiment(&config);
        let b = run_experiment(&config);
        assert_eq!(a.chain_hash, b.chain_hash);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn seeds_change_executions_but_not_safety() {
        let mut config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
        config.seed = 1;
        let a = run_experiment(&config);
        config.seed = 2;
        let b = run_experiment(&config);
        assert!(a.agreement_ok && b.agreement_ok);
    }
}
