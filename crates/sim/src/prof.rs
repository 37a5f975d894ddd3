//! The one profiling registry, `hh_crypto::prof`, under the names the
//! benchmark reads (`NetProf` and `CryptoProf` are its one snapshot
//! type). The switch is read at every op, so it may flip mid-run.

pub use hh_crypto::prof::{
    enabled, set_enabled, snapshot, snapshot as crypto_snapshot, snapshot as net_snapshot, Prof,
    Prof as CryptoProf, Prof as NetProf,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_sim, ExperimentConfig, SystemKind};
    use hh_net::SimTime;

    /// The only test in this crate that flips the process-wide switch.
    #[test]
    fn a_switch_flipped_mid_run_times_the_loop_and_the_crypto() {
        set_enabled(false);
        let mut handle = build_sim(&ExperimentConfig::quick_test(SystemKind::Hammerhead));
        handle.sim.run_until(SimTime::from_millis(500));

        let before = snapshot();
        set_enabled(true);
        handle.sim.run_until(SimTime::from_millis(1_000));
        set_enabled(false);
        let m = snapshot().since(&before);
        let ops = [m.queue_ops, m.deliver_ops, m.timer_ops, m.digest_ops, m.sig_ops];
        assert!(ops.iter().all(|&ops| ops > 0), "a site counted nothing: {m:?}");
    }
}
