//! Replay of the §1 Sui mainnet incident at example scale: a healthy
//! committee suddenly has 10% of its validators turn slow (not crashed —
//! just +800 ms on every message), exactly the "less responsive" failure
//! mode the paper opens with.
//!
//! Watch Bullshark's tail latency jump while HammerHead's reputation
//! mechanism rotates the degraded validators out of the leader schedule
//! within one epoch.
//!
//! ```sh
//! cargo run --release --example incident_replay
//! ```

use hammerhead_repro::hh_sim::{run_sim, ExperimentConfig, FaultSchedule, RunLimit, SystemKind};

fn main() {
    let committee = 13; // one validator per AWS region
    let degraded = 2;
    let onset_s = 30u64;
    let end_s = 60u64;

    println!(
        "{committee} validators; at t={onset_s}s validators v0,v1 gain +800ms latency \
         (the Aug 29 incident shape)\n"
    );

    for system in [SystemKind::Bullshark, SystemKind::Hammerhead] {
        let mut config = ExperimentConfig::paper(system, committee, 150);
        config.duration_secs = end_s;
        config.warmup_secs = 5;
        config.faults = (0..degraded).fold(FaultSchedule::new(), |faults, v| {
            faults.slowdown_from(v, onset_s * 1_000_000, 800_000)
        });
        // The two submission-time windows of `scenarios/incident_replay.toml`.
        config.windows = vec![
            ("healthy".into(), 0, onset_s * 1_000_000),
            ("incident".into(), onset_s * 1_000_000, end_s * 1_000_000),
        ];
        let (handle, result) = run_sim(&config, RunLimit::Duration);
        let (healthy, incident) = (result.windows[0].1, result.windows[1].1);
        println!("{}:", system.label());
        println!(
            "  healthy window : p50 {:>5.2}s  p95 {:>5.2}s  ({} txs)",
            healthy.p50, healthy.p95, healthy.count
        );
        println!(
            "  incident window: p50 {:>5.2}s  p95 {:>5.2}s  ({} txs)   p95 {:+.0}%",
            incident.p50,
            incident.p95,
            incident.count,
            (incident.p95 / healthy.p95.max(1e-9) - 1.0) * 100.0
        );
        if system == SystemKind::Hammerhead {
            if let Some(last) = handle.epoch_summaries(2).last() {
                println!(
                    "  last schedule switch excluded {:?} (degraded validators leave the rotation)",
                    last.excluded
                );
            }
        }
        println!();
    }
    println!(
        "paper reference (100 validators, production deployment): Bullshark p50 1.9→2.2s, \
         p95 3.0→4.6s; HammerHead's design goal is a flat incident window."
    );
}
