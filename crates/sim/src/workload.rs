//! Workload generation: deterministic arrival processes driving the
//! benchmark clients.
//!
//! A [`Workload`] describes the *shape* of offered load, independent of
//! its magnitude: an ordered timeline of [`Phase`]s, each with an
//! [`Arrival`] process (constant, Poisson, on/off bursts, linear ramp),
//! a submission mode (closed-loop windowed vs open-loop), a modeled
//! transaction payload size, and a per-client heterogeneity `spread`.
//! The magnitude — the run's total offered rate — stays on
//! [`ExperimentConfig::load_tps`](crate::ExperimentConfig::load_tps):
//! every rate in a workload is a dimensionless *scale* multiplied by
//! each client's share of that axis, so one workload shape sweeps
//! cleanly across a load axis.
//!
//! Every process is deterministic: all randomness (jitter, exponential
//! inter-arrivals, start staggering) comes from the simulation's seeded
//! RNG, so identical seeds reproduce identical arrival sequences. The
//! default workload ([`Workload::constant`]) reproduces the historical
//! fixed-rate client bit for bit — scenario files without a
//! `[workload]` table keep their exact output bytes.
//!
//! # Example
//!
//! ```
//! use hh_sim::{Arrival, Phase, SubmissionMode, Workload};
//!
//! // Steady half load, then 2s-on/2s-off bursts at full rate, open loop.
//! let workload = Workload {
//!     phases: vec![
//!         Phase { from_us: 0, arrival: Arrival::Constant { scale: 0.5 } },
//!         Phase {
//!             from_us: 10_000_000,
//!             arrival: Arrival::OnOff { scale: 1.0, burst_secs: 2.0, idle_secs: 2.0 },
//!         },
//!     ],
//!     mode: SubmissionMode::Open,
//!     payload_bytes: 512,
//!     spread: 1.0,
//! };
//! workload.validate().unwrap();
//! // 11s into the run: inside the first burst of the on/off phase.
//! match workload.rate_at(100.0, 11_000_000, 40_000_000) {
//!     hh_sim::RateNow::Active { tps, .. } => assert!((tps - 100.0).abs() < 1e-9),
//!     other => panic!("expected an active burst, got {other:?}"),
//! }
//! ```

/// How a client paces its submissions against confirmations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmissionMode {
    /// Bounded in-flight window (today's benchmark-driver behavior):
    /// the client skips ticks while `window` of its transactions await
    /// finality confirmation, converting latency degradation into
    /// throughput loss by Little's law.
    Closed,
    /// No window: the client fires at its configured rate regardless of
    /// confirmations. The right mode for saturation sweeps, where the
    /// offered rate must stay independent of the system's latency.
    Open,
}

/// The arrival process of one workload phase.
///
/// Rates are dimensionless scales on the client's base rate (its share
/// of the run's `load_tps`), so a shape composes with the load axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Fixed-rate arrivals with ±10% uniform jitter — the historical
    /// client, and the `[load] tps` sugar at `scale = 1`.
    Constant {
        /// Rate multiplier on the client's base rate.
        scale: f64,
    },
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1 / (scale × base rate)`, sampled by inverse CDF from one
    /// uniform draw per submission.
    Poisson {
        /// Rate multiplier on the client's base rate.
        scale: f64,
    },
    /// A square wave anchored at the phase start: `burst_secs` of
    /// constant-with-jitter arrivals at the scaled rate, then
    /// `idle_secs` of silence, repeating until the phase ends.
    OnOff {
        /// Rate multiplier during bursts.
        scale: f64,
        /// Burst length in seconds (> 0).
        burst_secs: f64,
        /// Idle gap between bursts in seconds (0 degenerates to
        /// constant).
        idle_secs: f64,
    },
    /// Instantaneous rate interpolated linearly from `from_scale` at
    /// the phase start to `to_scale` at the phase end (the next phase's
    /// start, or the nominal run duration for the last phase), with the
    /// constant process's ±10% jitter at each instant.
    Ramp {
        /// Rate multiplier at the phase start.
        from_scale: f64,
        /// Rate multiplier at the phase end.
        to_scale: f64,
    },
}

impl Arrival {
    /// The largest scale this process ever reaches (validation).
    fn peak_scale(&self) -> f64 {
        match *self {
            Arrival::Constant { scale } | Arrival::Poisson { scale } => scale,
            Arrival::OnOff { scale, .. } => scale,
            Arrival::Ramp { from_scale, to_scale } => from_scale.max(to_scale),
        }
    }
}

/// One entry of a workload timeline: from `from_us` (simulated
/// microseconds) until the next phase starts (or the run ends), clients
/// follow `arrival`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Phase start, in simulated microseconds.
    pub from_us: u64,
    /// The arrival process in force.
    pub arrival: Arrival,
}

/// A full workload description. See the module docs for the model.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// The timeline, ordered by `from_us`, first phase at 0.
    pub phases: Vec<Phase>,
    /// Closed-loop (windowed) or open-loop submission.
    pub mode: SubmissionMode,
    /// Modeled payload size per transaction, bytes. Purely an
    /// accounting weight (batching bounds, byte metrics): the codec and
    /// vertex digests never carry it, so payload size cannot change a
    /// run's chain hashes.
    pub payload_bytes: u32,
    /// Per-client heterogeneity: the ratio between the heaviest and
    /// lightest client's base rate (≥ 1; 1 = uniform). Rates are
    /// assigned deterministically by client index and normalized so
    /// they still sum to the run's total offered rate.
    pub spread: f64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload::constant()
    }
}

/// The instantaneous demand a client sees at some instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateNow {
    /// Submit at `tps`, drawing the next inter-arrival from `process`.
    Active {
        /// The client's current offered rate, tx/s.
        tps: f64,
        /// Which inter-arrival distribution to sample.
        process: ArrivalKind,
    },
    /// No demand until `until_us` (an off-burst gap, a zero-rate phase,
    /// or the end of all activity when `until_us == u64::MAX`).
    Idle {
        /// First instant demand may resume.
        until_us: u64,
    },
}

/// The inter-arrival distribution of an active instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Fixed interval with ±10% uniform jitter.
    Jittered,
    /// Exponential inter-arrival (Poisson process).
    Exponential,
}

/// The maximum modeled payload size (1 MiB) — anything larger is a
/// configuration mistake, not a workload.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

impl Workload {
    /// The default workload: one constant full-rate phase, closed loop,
    /// zero payload, uniform clients — exactly the historical client
    /// shape, and what a bare `[load] tps` scenario key desugars to.
    pub fn constant() -> Self {
        Workload {
            phases: vec![Phase { from_us: 0, arrival: Arrival::Constant { scale: 1.0 } }],
            mode: SubmissionMode::Closed,
            payload_bytes: 0,
            spread: 1.0,
        }
    }

    /// Checks the workload describes something runnable: a non-empty
    /// timeline starting at 0 with each phase later than the one before,
    /// non-negative finite scales with at least one positive, no ramp
    /// from 0 to 0, positive burst lengths, `spread ≥ 1`, payload within
    /// [`MAX_PAYLOAD_BYTES`].
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("at least one phase is required".into());
        }
        if self.phases[0].from_us != 0 {
            return Err("the first phase must start at 0".into());
        }
        for pair in self.phases.windows(2) {
            if pair[1].from_us <= pair[0].from_us {
                return Err(format!(
                    "phase starts must be strictly ascending ({} then {})",
                    pair[0].from_us, pair[1].from_us
                ));
            }
        }
        let mut any_active = false;
        for phase in &self.phases {
            // The peak is the scale of every arrival but a ramp.
            let peak = phase.arrival.peak_scale();
            if !peak.is_finite() || peak < 0.0 {
                return Err(format!("bad rate scale {peak}"));
            }
            any_active |= peak > 0.0;
            match phase.arrival {
                Arrival::Constant { .. } | Arrival::Poisson { .. } => {}
                Arrival::OnOff { burst_secs, idle_secs, .. } => {
                    // Below 1 µs the burst truncates to zero simulated
                    // time and the phase would be silently idle forever.
                    if burst_secs * 1e6 < 1.0 || !burst_secs.is_finite() {
                        return Err(format!(
                            "on/off burst_secs must be at least 1 µs, got {burst_secs}"
                        ));
                    }
                    if idle_secs < 0.0 || !idle_secs.is_finite() {
                        return Err(format!(
                            "on/off idle_secs must be non-negative, got {idle_secs}"
                        ));
                    }
                }
                Arrival::Ramp { from_scale, to_scale } => {
                    // `peak_scale` is a max, which skips a NaN end.
                    if [from_scale, to_scale].iter().any(|s| *s < 0.0 || !s.is_finite()) {
                        return Err("ramp scales must be non-negative".into());
                    }
                    if peak == 0.0 {
                        return Err("ramp never leaves zero".into());
                    }
                }
            }
        }
        if !any_active {
            return Err("every phase has zero rate — nothing ever arrives".into());
        }
        if self.spread < 1.0 || !self.spread.is_finite() {
            return Err(format!("spread must be ≥ 1, got {}", self.spread));
        }
        if self.payload_bytes > MAX_PAYLOAD_BYTES {
            return Err(format!(
                "payload_bytes {} exceeds the {MAX_PAYLOAD_BYTES} cap",
                self.payload_bytes
            ));
        }
        Ok(())
    }

    /// The phase in force at `at_us` (the last phase whose start is at
    /// or before it).
    fn phase_index(&self, at_us: u64) -> usize {
        match self.phases.partition_point(|p| p.from_us <= at_us) {
            0 => 0,
            k => k - 1,
        }
    }

    /// The demand a client with base rate `base_tps` sees at `at_us`,
    /// for a run of nominal length `duration_us` (which bounds the last
    /// phase for ramps; on/off and constant phases never read it).
    pub fn rate_at(&self, base_tps: f64, at_us: u64, duration_us: u64) -> RateNow {
        let i = self.phase_index(at_us);
        let phase = &self.phases[i];
        let phase_end =
            self.phases.get(i + 1).map(|p| p.from_us).unwrap_or_else(|| duration_us.max(at_us + 1));
        let active = |scale: f64, process: ArrivalKind| {
            let tps = base_tps * scale;
            if tps > 0.0 {
                RateNow::Active { tps, process }
            } else {
                RateNow::Idle { until_us: phase_end }
            }
        };
        match phase.arrival {
            Arrival::Constant { scale } => active(scale, ArrivalKind::Jittered),
            Arrival::Poisson { scale } => active(scale, ArrivalKind::Exponential),
            Arrival::OnOff { scale, burst_secs, idle_secs } => {
                let burst_us = (burst_secs * 1e6) as u64;
                let idle_us = (idle_secs * 1e6) as u64;
                let period = burst_us + idle_us;
                // saturating_sub keeps this total for unvalidated
                // workloads whose first phase starts after `at_us`.
                let pos = at_us.saturating_sub(phase.from_us) % period.max(1);
                if pos < burst_us || idle_us == 0 {
                    active(scale, ArrivalKind::Jittered)
                } else {
                    // Sleep to the next burst start, or hand over to the
                    // next phase if it begins first.
                    let next_burst = at_us + (period - pos);
                    RateNow::Idle { until_us: next_burst.min(phase_end) }
                }
            }
            Arrival::Ramp { from_scale, to_scale } => {
                let span = phase_end.saturating_sub(phase.from_us).max(1) as f64;
                let progress = (at_us.saturating_sub(phase.from_us) as f64 / span).clamp(0.0, 1.0);
                let scale = from_scale + (to_scale - from_scale) * progress;
                // Under a changing rate the next inter-arrival must solve
                // ∫ r(t) dt = 1, not invert the instantaneous rate —
                // inverting r at the foot of a rising ramp sleeps far
                // past the ramp and underdrives its integral. For a
                // linear r(t) = r₀ + b·t the solution is the quadratic
                // root dt = (−r₀ + √(r₀² + 2b)) / b. The reported rate is
                // the *effective* one (1/dt), which the client jitters
                // like any constant interval.
                let r0 = (base_tps * scale / 1e6).max(0.0); // tx/µs now
                let slope = base_tps * (to_scale - from_scale) / span / 1e6; // tx/µs per µs
                let dt_us = if slope.abs() < 1e-18 {
                    if r0 > 0.0 {
                        1.0 / r0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    let disc = r0 * r0 + 2.0 * slope;
                    if disc > 0.0 {
                        (-r0 + disc.sqrt()) / slope
                    } else {
                        // Falling ramp that hits zero before the next
                        // arrival was due.
                        f64::INFINITY
                    }
                };
                let arrival_at = at_us as f64 + dt_us;
                if !arrival_at.is_finite() || arrival_at >= phase_end as f64 {
                    // No arrival before the phase hands over.
                    RateNow::Idle { until_us: phase_end }
                } else {
                    RateNow::Active { tps: 1e6 / dt_us.max(1.0), process: ArrivalKind::Jittered }
                }
            }
        }
    }

    /// Splits a total offered rate across `clients` clients.
    ///
    /// With `spread == 1` every client gets `total / clients` — the
    /// exact historical expression, preserving output bytes for legacy
    /// scenarios. With `spread > 1`, client `k` of `C` gets a weight
    /// interpolated linearly from 1 (client 0) to `spread` (client
    /// `C−1`), normalized so the weights still sum to `total` — the
    /// heterogeneous-demand shape of the dynamic-scheduling literature.
    pub fn client_rates(&self, total_tps: f64, clients: usize) -> Vec<f64> {
        if clients == 0 {
            return Vec::new();
        }
        if self.spread == 1.0 || clients == 1 {
            return vec![total_tps / clients as f64; clients];
        }
        let weights: Vec<f64> = (0..clients)
            .map(|k| 1.0 + (self.spread - 1.0) * k as f64 / (clients - 1) as f64)
            .collect();
        let sum: f64 = weights.iter().sum();
        weights.into_iter().map(|w| total_tps * w / sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(from_us: u64, arrival: Arrival) -> Phase {
        Phase { from_us, arrival }
    }

    #[test]
    fn default_workload_is_the_legacy_shape() {
        let w = Workload::constant();
        w.validate().unwrap();
        assert_eq!(w.mode, SubmissionMode::Closed);
        assert_eq!(w.payload_bytes, 0);
        match w.rate_at(350.0, 5_000_000, 60_000_000) {
            RateNow::Active { tps, process } => {
                assert!((tps - 350.0).abs() < 1e-12);
                assert_eq!(process, ArrivalKind::Jittered);
            }
            other => panic!("constant workload must always be active, got {other:?}"),
        }
    }

    #[test]
    fn uniform_split_matches_legacy_expression() {
        let w = Workload::constant();
        let rates = w.client_rates(1000.0, 7);
        // Exactly `total / clients`, the historical per-client formula.
        assert!(rates.iter().all(|r| *r == 1000.0 / 7.0));
    }

    #[test]
    fn spread_splits_sum_to_total_and_order_by_index() {
        let w = Workload { spread: 4.0, ..Workload::constant() };
        let rates = w.client_rates(1000.0, 5);
        let sum: f64 = rates.iter().sum();
        assert!((sum - 1000.0).abs() < 1e-9, "sum {sum}");
        for pair in rates.windows(2) {
            assert!(pair[0] < pair[1], "rates must ascend with client index: {rates:?}");
        }
        assert!((rates[4] / rates[0] - 4.0).abs() < 1e-9, "heaviest/lightest = spread");
    }

    #[test]
    fn phases_resolve_by_time() {
        let w = Workload {
            phases: vec![
                phase(0, Arrival::Constant { scale: 0.5 }),
                phase(10_000_000, Arrival::Poisson { scale: 2.0 }),
            ],
            ..Workload::constant()
        };
        w.validate().unwrap();
        match w.rate_at(100.0, 9_999_999, 40_000_000) {
            RateNow::Active { tps, process } => {
                assert!((tps - 50.0).abs() < 1e-9);
                assert_eq!(process, ArrivalKind::Jittered);
            }
            other => panic!("{other:?}"),
        }
        match w.rate_at(100.0, 10_000_000, 40_000_000) {
            RateNow::Active { tps, process } => {
                assert!((tps - 200.0).abs() < 1e-9);
                assert_eq!(process, ArrivalKind::Exponential);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn onoff_square_wave_idles_between_bursts() {
        let w = Workload {
            phases: vec![phase(0, Arrival::OnOff { scale: 1.0, burst_secs: 2.0, idle_secs: 3.0 })],
            ..Workload::constant()
        };
        w.validate().unwrap();
        assert!(matches!(w.rate_at(100.0, 1_500_000, 60_000_000), RateNow::Active { .. }));
        match w.rate_at(100.0, 2_500_000, 60_000_000) {
            RateNow::Idle { until_us } => assert_eq!(until_us, 5_000_000, "next burst start"),
            other => panic!("{other:?}"),
        }
        // Second cycle.
        assert!(matches!(w.rate_at(100.0, 5_000_001, 60_000_000), RateNow::Active { .. }));
    }

    #[test]
    fn ramp_interpolates_linearly_to_the_phase_end() {
        let w = Workload {
            phases: vec![phase(0, Arrival::Ramp { from_scale: 0.0, to_scale: 2.0 })],
            ..Workload::constant()
        };
        w.validate().unwrap();
        // Midpoint of a 40s run: instantaneous scale 1.0, and the
        // effective (integrated) rate is within a fraction of it.
        match w.rate_at(100.0, 20_000_000, 40_000_000) {
            RateNow::Active { tps, .. } => {
                assert!((tps - 100.0).abs() / 100.0 < 0.01, "tps {tps}")
            }
            other => panic!("{other:?}"),
        }
        // At t=0 the instantaneous rate is zero, but a rising ramp still
        // has a finite first arrival (∫ r = 1 is solvable).
        match w.rate_at(100.0, 0, 40_000_000) {
            RateNow::Active { tps, .. } => assert!(tps > 0.0 && tps < 10.0, "tps {tps}"),
            other => panic!("{other:?}"),
        }
        // A falling ramp that dies before its next arrival idles to the
        // phase end.
        let falling = Workload {
            phases: vec![phase(0, Arrival::Ramp { from_scale: 2.0, to_scale: 0.0 })],
            ..Workload::constant()
        };
        falling.validate().unwrap();
        match falling.rate_at(100.0, 39_990_000, 40_000_000) {
            RateNow::Idle { until_us } => assert_eq!(until_us, 40_000_000),
            RateNow::Active { tps, .. } => {
                panic!("a nearly dead falling ramp should idle, got {tps} tx/s")
            }
        }
    }

    #[test]
    fn zero_rate_phase_idles_until_the_next_phase() {
        let w = Workload {
            phases: vec![
                phase(0, Arrival::Constant { scale: 0.0 }),
                phase(5_000_000, Arrival::Constant { scale: 1.0 }),
            ],
            ..Workload::constant()
        };
        w.validate().unwrap();
        match w.rate_at(100.0, 1_000_000, 60_000_000) {
            RateNow::Idle { until_us } => assert_eq!(until_us, 5_000_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn validation_rejects_malformed_workloads() {
        let bad = |w: Workload| w.validate().unwrap_err();

        let mut w = Workload::constant();
        w.phases.clear();
        assert!(bad(w).contains("at least one phase"));

        let w = Workload {
            phases: vec![phase(5, Arrival::Constant { scale: 1.0 })],
            ..Workload::constant()
        };
        assert!(bad(w).contains("start at 0"));

        let w = Workload {
            phases: vec![
                phase(0, Arrival::Constant { scale: 1.0 }),
                phase(0, Arrival::Constant { scale: 2.0 }),
            ],
            ..Workload::constant()
        };
        assert!(bad(w).contains("ascending"));

        let w = Workload {
            phases: vec![phase(0, Arrival::Constant { scale: 0.0 })],
            ..Workload::constant()
        };
        assert!(bad(w).contains("zero rate"));

        let w = Workload {
            phases: vec![phase(0, Arrival::OnOff { scale: 1.0, burst_secs: 0.0, idle_secs: 1.0 })],
            ..Workload::constant()
        };
        assert!(bad(w).contains("burst_secs"));

        // A burst below the 1 µs simulation grain would truncate to zero
        // simulated time and leave the phase silently idle forever.
        let w = Workload {
            phases: vec![phase(0, Arrival::OnOff { scale: 1.0, burst_secs: 1e-7, idle_secs: 1.0 })],
            ..Workload::constant()
        };
        assert!(bad(w).contains("at least 1 µs"));

        // A flat-zero ramp is a mistake even beside an active phase.
        let w = Workload {
            phases: vec![
                phase(0, Arrival::Ramp { from_scale: 0.0, to_scale: 0.0 }),
                phase(5, Arrival::Constant { scale: 1.0 }),
            ],
            ..Workload::constant()
        };
        assert!(bad(w).contains("ramp never leaves zero"));

        let w = Workload {
            phases: vec![phase(0, Arrival::Ramp { from_scale: f64::NAN, to_scale: 1.0 })],
            ..Workload::constant()
        };
        assert!(bad(w).contains("ramp scales"));

        let w = Workload { spread: 0.5, ..Workload::constant() };
        assert!(bad(w).contains("spread"));

        let w = Workload { payload_bytes: MAX_PAYLOAD_BYTES + 1, ..Workload::constant() };
        assert!(bad(w).contains("payload_bytes"));
    }
}
