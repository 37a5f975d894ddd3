//! The benchmark's declaration: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is `--manifest` output, and a
//! test keeps the two identical, so the binary can never print a metric
//! the declaration does not name.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 40;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is `Some` for end-to-end metrics only.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the simulator gets from an experiment and pays for it:
/// the simulated latency and throughput (seed-exact: an optimisation must
/// leave them identical, a protocol change may not worsen them), memory
/// and set-up time. Every gated workload reports every one.
///
/// The event loop's processor time is not here, although it is what an
/// optimisation is after: the shared sizing host has phases of minutes in
/// which the same run takes 1.5 to 2.3 times the processor time, so no
/// bound of at most a quarter can hold for it and a gate on it would
/// reject innocent changes. It is the per-layer `sim.cpu_us_per_tx`, to
/// be compared in alternating pairs (README, "Host phases").
///
/// Nothing measured on the real node is here, although client-visible
/// confirm latency is what the node exists to deliver: at this commit the
/// `hh-node` committee flips between a healthy pace and episodes of
/// 400 ms leader-timeout stalls that outlast a run (a lagging validator
/// skips a round it leads), so its latency percentiles repeat no better
/// than 10–75 % from run to run and even its CPU per transaction moved
/// by a quarter between back-to-back sets (README, "Why the node
/// workloads are not gated"). They are the `node.*` scenario metrics.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("sim_latency_p50_ms", "ms", Lower, 0.05),
    e2e("sim_throughput_tps", "1/s", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics of the gated workloads, `<crate-dir>.<metric>`:
/// the simulator's event loop and the in-process layer pipeline.
pub const PER_LAYER: &[MetricSpec] = &[
    // Simulator event loop (hh_sim::prof counters on one extra repetition).
    layer("sim.cpu_us_per_tx", "us", Lower),
    layer("sim.wall_s", "s", Lower),
    layer("sim.latency_p99_ms", "ms", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.queue_share", "ratio", Lower),
    layer("sim.deliver_share", "ratio", Lower),
    layer("sim.timers_share", "ratio", Lower),
    layer("sim.digest_share", "ratio", Lower),
    layer("sim.sig_share", "ratio", Lower),
    layer("sim.commits", "count", Higher),
    layer("sim.leader_timeouts", "count", Lower),
    layer("sim.msgs_per_commit", "count", Lower),
    layer("sim.trace_overhead_ratio", "ratio", Lower),
    // In-process layer pipeline at the workload's committee and block shape.
    layer("types.encode_ns_per_vertex", "ns", Lower),
    layer("types.decode_ns_per_vertex", "ns", Lower),
    layer("types.frame_bytes_per_vertex", "B", Lower),
    layer("crypto.sha256_ns_per_kib", "ns", Lower),
    layer("crypto.crc32_ns_per_kib", "ns", Lower),
    layer("crypto.sign_ns", "ns", Lower),
    layer("crypto.verify_ns", "ns", Lower),
    layer("net.tcp_frame_ns", "ns", Lower),
    layer("net.tcp_rtt_us", "us", Lower),
    layer("net.tcp_frames_per_s", "1/s", Higher),
    layer("rbc.handle_ns_per_msg", "ns", Lower),
    layer("rbc.out_msgs_per_vertex", "count", Lower),
    layer("dag.try_insert_ns", "ns", Lower),
    layer("dag.reachable_ns", "ns", Lower),
    layer("dag.sub_dag_ns_per_vertex", "ns", Lower),
    layer("consensus.process_vertex_ns", "ns", Lower),
    layer("consensus.commits", "count", Higher),
    layer("core.on_message_vertex_ns", "ns", Lower),
    layer("core.on_message_submit_ns", "ns", Lower),
    layer("core.schedule_switch_ns", "ns", Lower),
    layer("storage.append_ns_per_vertex", "ns", Lower),
    layer("storage.sync_ns", "ns", Lower),
    layer("storage.replay_ns_per_record", "ns", Lower),
    layer("storage.wal_bytes_per_vertex", "B", Lower),
    layer("types.share", "ratio", Lower),
    layer("crypto.share", "ratio", Lower),
    layer("net.share", "ratio", Lower),
    layer("rbc.share", "ratio", Lower),
    layer("dag.share", "ratio", Lower),
    layer("consensus.share", "ratio", Lower),
    layer("core.share", "ratio", Lower),
    layer("storage.share", "ratio", Lower),
];

/// What the ungated `node4_*` scenarios report: the `hh-node` committee
/// observed from outside the processes.
pub const NODE_METRICS: &[MetricSpec] = &[
    layer("node.cpu_us_per_tx", "us", Lower),
    layer("node.peak_rss_mb", "MB", Lower),
    layer("node.setup_s", "s", Lower),
    layer("node.rounds_per_s", "1/s", Higher),
    layer("node.commits_per_s", "1/s", Higher),
    layer("node.stall_intervals", "count", Lower),
    layer("node.commit_skew_rounds", "count", Lower),
    layer("node.cpu_us_per_round", "us", Lower),
    layer("node.cpu_user_us_per_tx", "us", Lower),
    layer("node.cpu_system_us_per_tx", "us", Lower),
    layer("node.wal_bytes_per_tx", "B", Lower),
    layer("node.confirm_samples", "count", Higher),
    layer("node.committed_tps", "1/s", Higher),
    layer("node.confirm_p10_ms", "ms", Lower),
    layer("node.confirm_p50_ms", "ms", Lower),
    layer("node.confirm_p90_ms", "ms", Lower),
    layer("node.confirm_p99_ms", "ms", Lower),
    layer("node.confirm_p99_sliced_ms", "ms", Lower),
    layer("node.confirm_mean_ms", "ms", Lower),
    layer("node.gen_late_max_ms", "ms", Lower),
    layer("node.gen_cpu_share", "ratio", Lower),
    layer("node.audit_replay_ns_per_record", "ns", Lower),
    layer("node.kill_no_service_ms", "ms", Lower),
    layer("node.kill_wedged", "flag", Lower),
    layer("node.restart_catchup_ms", "ms", Lower),
];

/// The gated workloads and why each exists (one line each).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim_n100_f33",
        "the paper's headline point in the simulator (n=100, 33 crashed, geo latency): the \
         deliver path core/rbc/dag/consensus/crypto is ~90% of the event loop; the queue does little",
    ),
    (
        "sim_n10_long",
        "n=10, 3 crashed, 600 simulated seconds: event queue and timers dominate and the protocol \
         layers do little, the mirror image of sim_n100_f33; exposes growth over a long run",
    ),
];

/// Runs that report their numbers but are never gated, because at this
/// commit nothing timed on the real node repeats within a quarter (README).
pub const SCENARIOS: &[(&str, &str)] = &[
    (
        "node4_loaded",
        "4 hh-node processes on loopback at 8000 tx/s (~80 tx per vertex): TCP frame I/O, codec, \
         SHA-256/CRC and WAL append do the node's work, so CPU per transaction is measurable",
    ),
    (
        "node4_steady",
        "the committee at 400 tx/s, where nothing queues: round pacing, timers and transport \
         stalls set every number",
    ),
    (
        "node4_restart",
        "600 tx/s, SIGKILL validator 3 at 6 s, respawn it on its WAL at 10 s: time without \
         service and catch-up time",
    ),
];

/// Looks a declared metric up by name.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).chain(NODE_METRICS).find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let metric = |m: &MetricSpec| {
        let base = Json::obj()
            .with("name", Json::str(m.name))
            .with("unit", Json::str(m.unit))
            .with("better", Json::str(m.better.label()));
        match m.bound {
            Some(bound) => base.with("bound", Json::Num(bound)),
            None => base,
        }
    };
    Json::obj()
        .with("command", strings(&["bash", "perfbench/run.sh"]))
        .with("paths", strings(&["perfbench"]))
        .with("run_seconds", Json::Num(RUN_SECONDS as f64))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj().with("name", Json::str(name)).with("why", Json::str(why))
                    })
                    .collect(),
            ),
        )
        .with("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect()))
        .with("per_layer", Json::Arr(PER_LAYER.iter().map(metric).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest().pretty(),
            "regenerate with `benchmark --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn declaration_obeys_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        for m in END_TO_END.iter().chain(PER_LAYER).chain(NODE_METRICS) {
            assert!(unit_ok(m.unit), "unit {:?}", m.unit);
            names.push(m.name);
        }
        for n in &names {
            assert!(name_ok(n), "name {n:?}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {} chars", why.len());
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = spec("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }
}
