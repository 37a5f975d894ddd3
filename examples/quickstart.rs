//! Quickstart: run a 7-validator HammerHead committee on the simulated
//! geo network for 20 seconds and watch it commit.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hammerhead_repro::hh_consensus::SchedulePolicy;
use hammerhead_repro::hh_net::SimTime;
use hammerhead_repro::hh_sim::{build_sim, ExperimentConfig, SystemKind};

fn main() {
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, 7, 300);
    config.duration_secs = 20;
    config.warmup_secs = 2;

    println!("committee of {} validators, {} tx/s offered load, geo-distributed", 7, 300);
    let mut handle = build_sim(&config);

    // Drive the simulation in 5-second slices, reporting progress.
    for slice in 1..=4u64 {
        handle.sim.run_until(SimTime::from_secs(slice * 5));
        let v0 = handle.validator(0);
        println!(
            "t={:>2}s  commits={:<4} round={:<4} chain={}",
            slice * 5,
            v0.commit_count(),
            v0.current_round(),
            v0.chain_hash(),
        );
    }

    // Inspect the reputation machinery.
    let v0 = handle.validator(0);
    let policy = v0.hammerhead_policy().expect("hammerhead is configured");
    println!("\nschedule epochs completed: {}", policy.epoch());
    println!("live reputation scores:    {}", policy.scores());
    if let Some(last) = handle.epoch_summaries(0).last() {
        println!(
            "last switch at round {}: excluded {:?}, promoted {:?}",
            last.new_initial_round.0, last.excluded, last.promoted
        );
    }

    // Every validator agrees on the committed prefix: the run's safety
    // checker held each commit to the first one exposed at its index.
    assert!(handle.safety.fork_free(), "total order violated");
    println!(
        "\ntotal-order audit across {} validators: OK ({} commit records)",
        handle.n_validators,
        handle.safety.records_seen()
    );
}
