//! Adapters putting validators and clients on the discrete-event network.

use crate::byzantine::ByzantineBehavior;
use crate::workload::{ArrivalKind, RateNow, SubmissionMode, Workload};
use hammerhead::{Output, SafetyChecker, Validator, ValidatorMessage};
use hh_net::{Context, Node, NodeId};
use hh_storage::MemBackend;
use hh_types::{Transaction, ValidatorId};
use rand::Rng;
use std::sync::Arc;

/// Wire messages on the simulated network. A broadcast enqueues one
/// `Arc`'d message (`Context::broadcast_to_first`); the runtime's
/// fan-out then bumps the refcount once per recipient, so no path —
/// emit, routing, or delivery — deep-copies a frame. Chaos corruption
/// is the only place an owned frame is materialized.
pub type NetMessage = Arc<ValidatorMessage>;

/// Timer token for client submission ticks (distinct from validator
/// tokens, which are < 100).
const TOKEN_CLIENT_SUBMIT: u64 = 1_000;

/// The floor on a closed-loop client's in-flight window.
///
/// Commits deliver confirmations in bursty per-anchor batches, so a
/// low-rate client whose nominal window (`rate × window_secs`) is only a
/// handful of transactions would throttle on that batching pattern
/// rather than on real latency — an artifact of the confirmation
/// cadence, not a property of the system. The paper's clients (350 tx/s
/// against seconds of latency) ran with thousands in flight; the floor
/// keeps scaled-down runs in the same regime.
pub const MIN_CLIENT_WINDOW: u64 = 64;

/// A load generator (§5: "benchmark clients submitting transactions at a
/// fixed rate"), co-located with one validator.
///
/// The client executes a [`Workload`]: its timeline of arrival processes
/// (constant, Poisson, on/off bursts, linear ramps) decides *when* the
/// next transaction fires, and its [`SubmissionMode`] decides whether
/// ticks are gated by a bounded in-flight window (closed loop — how real
/// benchmark drivers and the Sui orchestrator's clients behave; by
/// Little's law the window converts latency degradation into the
/// throughput loss the paper's Figure 2 shows for Bullshark under
/// faults) or fire unconditionally (open loop — the saturation-sweep
/// mode, where offered load must not depend on observed latency).
///
/// The default [`Workload::constant`] reproduces the historical
/// fixed-rate windowed client bit for bit, including its RNG draw
/// sequence.
#[derive(Debug)]
pub struct Client {
    /// This client's id (tags its transactions).
    client_id: u32,
    /// The validator it submits to.
    target: NodeId,
    /// This client's share of the run's offered rate (scale 1.0), tx/s.
    base_tps: f64,
    /// The workload shape being executed.
    workload: Workload,
    /// Nominal run length (µs), bounding the last phase for ramps.
    duration_us: u64,
    /// Maximum unconfirmed transactions in flight (`u64::MAX` when the
    /// workload is open-loop).
    window: u64,
    /// Next sequence number.
    seq: u64,
    /// Total submitted.
    submitted: u64,
    /// Ticks skipped because the window was full.
    skipped: u64,
    /// Modeled wire bytes of all submitted transactions.
    bytes_submitted: u64,
    /// Currently unconfirmed transactions.
    outstanding: u64,
    /// Sub-microsecond remainder carried between high-rate ticks (see
    /// [`Client::jittered_delay_us`]).
    carry_ns: u64,
    /// Future execution-completion instants from confirmations.
    confirm_queue: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
}

impl Client {
    /// A client submitting a constant `rate_tps` transactions per second
    /// to `target` with an in-flight window of `rate × window_secs`
    /// transactions — the historical shape, equivalent to
    /// [`Client::with_workload`] over [`Workload::constant`].
    ///
    /// # Panics
    ///
    /// Panics if `rate_tps` is zero.
    pub fn new(client_id: u32, target: NodeId, rate_tps: f64, window_secs: f64) -> Self {
        Client::with_workload(client_id, target, rate_tps, window_secs, Workload::constant(), 0)
    }

    /// A client executing `workload` at a base rate of `rate_tps` (phase
    /// scales multiply it) for a run of `duration_us` simulated
    /// microseconds. `window_secs` sizes the in-flight window when the
    /// workload is closed-loop; open-loop workloads ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `rate_tps` is zero.
    pub fn with_workload(
        client_id: u32,
        target: NodeId,
        rate_tps: f64,
        window_secs: f64,
        workload: Workload,
        duration_us: u64,
    ) -> Self {
        assert!(rate_tps > 0.0, "client rate must be positive");
        let window = match workload.mode {
            SubmissionMode::Closed => ((rate_tps * window_secs) as u64).max(MIN_CLIENT_WINDOW),
            SubmissionMode::Open => u64::MAX,
        };
        Client {
            client_id,
            target,
            base_tps: rate_tps,
            workload,
            duration_us,
            window,
            seq: 0,
            submitted: 0,
            skipped: 0,
            bytes_submitted: 0,
            outstanding: 0,
            carry_ns: 0,
            confirm_queue: std::collections::BinaryHeap::new(),
        }
    }

    /// Transactions submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Ticks skipped with a full window (latency-throttled demand).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Transactions the workload offered: submitted plus window-skipped.
    pub fn offered(&self) -> u64 {
        self.submitted + self.skipped
    }

    /// Modeled wire bytes of everything submitted.
    pub fn bytes_submitted(&self) -> u64 {
        self.bytes_submitted
    }

    /// The tick interval the start-stagger draws over: the inter-arrival
    /// of the workload's rate at t = 0 (the base rate if t = 0 is idle).
    fn initial_interval_us(&self) -> u64 {
        let tps = match self.workload.rate_at(self.base_tps, 0, self.duration_us) {
            RateNow::Active { tps, .. } => tps,
            RateNow::Idle { .. } => self.base_tps,
        };
        (1e6 / tps).max(1.0) as u64
    }

    fn on_confirm(&mut self, executed_at: u64, now: u64) {
        // Shed transactions (executed_at == MAX) release immediately.
        let at = if executed_at == u64::MAX { now } else { executed_at };
        self.confirm_queue.push(std::cmp::Reverse(at));
    }

    fn drain_confirms(&mut self, now: u64) {
        while matches!(self.confirm_queue.peek(), Some(std::cmp::Reverse(at)) if *at <= now) {
            self.confirm_queue.pop();
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// The next inter-arrival delay for a jittered (constant-family)
    /// process at `tps`, in µs.
    ///
    /// At intervals of 10 µs and above this is the historical
    /// computation, bit for bit: truncate the interval to µs, jitter
    /// ±10% of the truncated value with one uniform draw. Below 10 µs
    /// (rates above ~100k tx/s per client) that integer jitter
    /// truncated to zero — silently disabling jitter — and the
    /// truncated interval overstated the rate by up to 2×; here both
    /// are derived from the f64 rate in nanoseconds and the sub-µs
    /// remainder carries across ticks, so jitter survives and the
    /// long-run rate stays exact.
    fn jittered_delay_us(&mut self, tps: f64, rng: &mut rand::StdRng) -> u64 {
        let interval_f = (1e6 / tps).max(1.0);
        let interval_us = interval_f as u64;
        let jitter = interval_us / 10;
        if jitter > 0 {
            return interval_us - jitter + rng.gen_range(0..=2 * jitter);
        }
        let interval_ns = (interval_f * 1000.0) as u64;
        let jitter_ns = interval_ns / 10;
        let drawn = if jitter_ns > 0 {
            interval_ns - jitter_ns + rng.gen_range(0..=2 * jitter_ns)
        } else {
            interval_ns
        };
        self.carry_to_us(drawn)
    }

    /// The next inter-arrival delay for a Poisson process at `tps`:
    /// exponential with mean `1/tps`, via inverse CDF on one uniform
    /// draw. The same ns carry as the jittered path keeps the realized
    /// mean exact — flooring each exponential to µs independently would
    /// shave ~0.5 µs per arrival, overstating high rates just like the
    /// truncation bug the jittered path fixes.
    fn exponential_delay_us(&mut self, tps: f64, rng: &mut rand::StdRng) -> u64 {
        let u: f64 = rng.gen();
        let delay_ns = -(1.0 - u).ln() * (1e9 / tps);
        self.carry_to_us(delay_ns.min(u64::MAX as f64) as u64)
    }

    /// Converts a drawn delay in ns to µs, carrying the sub-µs
    /// remainder to the next tick so long-run rates stay exact.
    fn carry_to_us(&mut self, drawn_ns: u64) -> u64 {
        let total = drawn_ns + self.carry_ns;
        if total < 1_000 {
            // The µs timer grain forces a 1 µs sleep; dropping the
            // remainder bounds the error instead of accumulating debt.
            self.carry_ns = 0;
            1
        } else {
            self.carry_ns = total % 1_000;
            total / 1_000
        }
    }

    fn tick(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let now = ctx.now().as_micros();
        match self.workload.rate_at(self.base_tps, now, self.duration_us) {
            RateNow::Idle { until_us } => {
                // No demand (off-burst gap or zero-rate phase): sleep to
                // the next activity instant. Idle gaps cost zero RNG
                // draws — part of the determinism contract.
                let delay = until_us.saturating_sub(now).max(1);
                ctx.set_timer(hh_net::Duration::from_micros(delay), TOKEN_CLIENT_SUBMIT);
            }
            RateNow::Active { tps, process } => {
                self.drain_confirms(now);
                if self.outstanding < self.window {
                    let tx = Transaction::with_payload(
                        self.client_id,
                        self.seq,
                        now,
                        self.workload.payload_bytes,
                    );
                    self.seq += 1;
                    self.submitted += 1;
                    self.outstanding += 1;
                    self.bytes_submitted += tx.wire_bytes() as u64;
                    ctx.send(self.target, Arc::new(ValidatorMessage::Submit(tx)));
                } else {
                    self.skipped += 1;
                }
                let delay = match process {
                    ArrivalKind::Jittered => self.jittered_delay_us(tps, ctx.rng()),
                    ArrivalKind::Exponential => self.exponential_delay_us(tps, ctx.rng()),
                };
                ctx.set_timer(hh_net::Duration::from_micros(delay.max(1)), TOKEN_CLIENT_SUBMIT);
            }
        }
    }
}

/// A simulation participant: validator or load generator.
///
/// Validators occupy node ids `0..n`; clients live above them. Broadcasts
/// from validators go to validators only.
///
/// A validator may carry a [`ByzantineBehavior`]: the adversarial shim
/// that filters its inbound messages and rewrites its outbound ones. The
/// validator logic itself stays honest — the behavior models what a real
/// attacker controls, the network boundary.
///
/// A validator always carries a [`SafetyChecker`] handle and gives it the
/// commit records of each handler call before that call returns: the
/// validators of one run share the run's checker, so the audit happens at
/// the commit and a validator's commit log is empty between events.
pub enum Actor {
    /// A consensus validator, optionally byzantine, and the checker that
    /// audits its commits.
    Validator(Box<Validator<MemBackend>>, Option<Box<ByzantineBehavior>>, SafetyChecker),
    /// A load generator.
    Client(Client),
}

impl Actor {
    /// An honest validator actor audited by a checker of its own (build
    /// the variant directly to share one across a committee).
    pub fn honest(v: Validator<MemBackend>) -> Self {
        Actor::Validator(Box::new(v), None, SafetyChecker::new())
    }

    /// The validator inside, if this actor is one.
    pub fn as_validator(&self) -> Option<&Validator<MemBackend>> {
        match self {
            Actor::Validator(v, ..) => Some(v),
            Actor::Client(_) => None,
        }
    }

    /// Mutable access to the validator inside, if this actor is one
    /// (streaming harnesses draining latency records mid-run).
    pub fn as_validator_mut(&mut self) -> Option<&mut Validator<MemBackend>> {
        match self {
            Actor::Validator(v, ..) => Some(v),
            Actor::Client(_) => None,
        }
    }

    /// The byzantine behavior attached to this validator, if any.
    pub fn behavior(&self) -> Option<&ByzantineBehavior> {
        match self {
            Actor::Validator(_, b, _) => b.as_deref(),
            Actor::Client(_) => None,
        }
    }

    /// The client inside, if this actor is one.
    pub fn as_client(&self) -> Option<&Client> {
        match self {
            Actor::Client(c) => Some(c),
            Actor::Validator(..) => None,
        }
    }
}

/// Routes validator outputs onto the network. Broadcast targets are
/// validators only (`committee_size` of them, ids `0..committee_size`).
fn emit(outputs: Vec<Output>, committee_size: usize, ctx: &mut Context<'_, NetMessage>) {
    for output in outputs {
        match output {
            Output::Send(to, msg) => ctx.send(NodeId(to.0 as usize), Arc::new(msg)),
            Output::Broadcast(msg) => {
                // One queued action; the runtime fans out per recipient
                // with an `Arc` bump each — no deep copies, no per-peer
                // queue entries at emit time.
                ctx.broadcast_to_first(committee_size, Arc::new(msg));
            }
            Output::SetTimer { delay_us, token } => {
                ctx.set_timer(hh_net::Duration::from_micros(delay_us), token);
            }
            Output::StorageError { .. } => {
                // The validator has fail-stopped and recorded the fault in
                // its metrics (`storage_errors`); nothing to route. The
                // harness keeps the rest of the committee running.
            }
        }
    }
}

/// How every validator handler call ends. The commit records it produced
/// go to the checker first — a violation is recorded at the event that
/// caused it, and no record outlives that event — then the outputs pass
/// the byzantine shim, if any, and are routed.
fn finish(
    v: &mut Validator<MemBackend>,
    behavior: &mut Option<Box<ByzantineBehavior>>,
    safety: &mut SafetyChecker,
    mut out: Vec<Output>,
    now: u64,
    ctx: &mut Context<'_, NetMessage>,
) {
    let records = v.take_commit_records();
    if !records.is_empty() {
        safety.observe_all(v.id().0, &records);
    }
    if let Some(b) = behavior {
        out = b.process_outbound(out, now);
    }
    emit(out, v.dag().committee().size(), ctx);
}

impl Node for Actor {
    type Message = NetMessage;

    /// Chaos-layer corruption: flip 1–3 random bits in the message's
    /// CRC-framed wire encoding and try to decode the damaged frame. The
    /// checksum rejects essentially every flip, so corrupt frames die
    /// here (counted by the simulator) exactly as a real transport would
    /// discard them — honest validator logic never sees damaged input.
    /// A flip that somehow survived framing would surface as a decoded
    /// (still signature-checked) message, not as silent memory
    /// corruption.
    fn corrupt_message(msg: &NetMessage, rng: &mut rand::StdRng) -> Option<NetMessage> {
        let mut frame = hh_types::codec::encode_framed(&**msg);
        let flips = rng.gen_range(1..=3usize);
        for _ in 0..flips {
            let byte = rng.gen_range(0..frame.len());
            let bit = rng.gen_range(0..8u32);
            frame[byte] ^= 1 << bit;
        }
        hh_types::codec::decode_framed::<ValidatorMessage>(&frame).ok().map(Arc::new)
    }

    fn on_start(&mut self, ctx: &mut Context<'_, NetMessage>) {
        match self {
            Actor::Validator(v, behavior, safety) => {
                let now = ctx.now().as_micros();
                let out = v.on_start(now);
                finish(v, behavior, safety, out, now, ctx);
            }
            Actor::Client(c) => {
                // Stagger client starts across one interval to avoid a
                // synchronized burst at t=0.
                let offset = ctx.rng().gen_range(0..=c.initial_interval_us());
                ctx.set_timer(hh_net::Duration::from_micros(offset.max(1)), TOKEN_CLIENT_SUBMIT);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NetMessage, ctx: &mut Context<'_, NetMessage>) {
        match self {
            Actor::Validator(v, behavior, safety) => {
                let now = ctx.now().as_micros();
                if let Some(b) = behavior {
                    if !b.allows_inbound(&msg, now) {
                        // A withholding attacker pretends it never saw
                        // this vertex.
                        return;
                    }
                }
                let sender = ValidatorId(from.0.min(u16::MAX as usize) as u16);
                // Borrowed dispatch: the shared frame is handed to the
                // validator as-is; `Arc`'d vertex payloads inside make
                // retention a refcount bump, so no deep copy happens here.
                let out = v.on_message(sender, &msg, now);
                finish(v, behavior, safety, out, now, ctx);
            }
            Actor::Client(c) => {
                if let ValidatorMessage::Confirm { executed_at, .. } = &*msg {
                    c.on_confirm(*executed_at, ctx.now().as_micros());
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetMessage>) {
        match self {
            Actor::Validator(v, behavior, safety) => {
                let now = ctx.now().as_micros();
                if ByzantineBehavior::owns_token(token) {
                    // A release timer: emit the held outputs verbatim —
                    // they were already processed when first produced.
                    if let Some(b) = behavior {
                        let held = b.release(token);
                        emit(held, v.dag().committee().size(), ctx);
                    }
                    return;
                }
                let out = v.on_timer(token, now);
                finish(v, behavior, safety, out, now, ctx);
            }
            Actor::Client(c) => {
                if token == TOKEN_CLIENT_SUBMIT {
                    c.tick(ctx);
                }
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, NetMessage>) {
        match self {
            Actor::Validator(v, behavior, safety) => {
                let now = ctx.now().as_micros();
                let out = v.on_restart(now);
                finish(v, behavior, safety, out, now, ctx);
            }
            Actor::Client(_) => self.on_start(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Arrival, Phase};
    use hammerhead::ValidatorConfig;
    use hh_net::{NetworkConfig, SimTime, Simulator};
    use hh_types::Committee;
    use rand::SeedableRng;

    #[test]
    fn four_validators_commit_on_a_flat_network() {
        let committee = Committee::new_equal_stake(4);
        let config = ValidatorConfig {
            min_round_delay_us: 20_000,
            leader_timeout_us: 200_000,
            sync_tick_us: 100_000,
            ..ValidatorConfig::default()
        };
        let mut actors: Vec<Actor> = (0..4)
            .map(|i| {
                Actor::honest(Validator::new(
                    committee.clone(),
                    ValidatorId(i),
                    config.clone(),
                    None,
                ))
            })
            .collect();
        // One client targeting validator 0.
        actors.push(Actor::Client(Client::new(0, NodeId(0), 200.0, 5.0)));

        let net = NetworkConfig {
            latency: hh_net::LatencyModel::Constant(hh_net::Duration::from_millis(5)),
            ..NetworkConfig::default()
        };
        let mut sim = Simulator::new(actors, net, 7);
        sim.run_until(SimTime::from_secs(5));

        let commit_counts: Vec<u64> =
            (0..4).map(|i| sim.node(NodeId(i)).as_validator().unwrap().commit_count()).collect();
        assert!(commit_counts.iter().all(|c| *c > 10), "commits: {commit_counts:?}");

        // Agreement: equal-length prefixes match.
        let anchors: Vec<_> = (0..4)
            .map(|i| sim.node(NodeId(i)).as_validator().unwrap().committed_anchors().to_vec())
            .collect();
        let min_len = anchors.iter().map(|a| a.len()).min().unwrap();
        for v in 1..4 {
            assert_eq!(&anchors[0][..min_len], &anchors[v][..min_len]);
        }

        // The client's transactions flowed through to execution records.
        let recs = sim.node(NodeId(0)).as_validator().unwrap().metrics().exec_records.len();
        assert!(recs > 100, "exec records: {recs}");
    }

    /// Regression for the jitter bug: `interval_us / 10` truncates to
    /// zero below 10 µs, which silently disabled jitter for per-client
    /// rates above ~100k tx/s. Deriving jitter from the f64 rate (in ns,
    /// with a carry) must produce varying delays whose mean tracks the
    /// true interval — not the truncated one.
    #[test]
    fn sub_10us_intervals_keep_jitter_and_exact_rate() {
        // 150k tx/s: true interval 6.667 µs, truncated 6 µs (an 11% rate
        // error under the old code), jitter formerly zero.
        let mut client = Client::new(0, NodeId(0), 150_000.0, 2.0);
        let mut rng = rand::StdRng::seed_from_u64(7);
        let n = 10_000u64;
        let mut sum = 0u64;
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..n {
            let d = client.jittered_delay_us(150_000.0, &mut rng);
            sum += d;
            distinct.insert(d);
        }
        assert!(distinct.len() >= 2, "jitter must survive sub-10µs intervals: {distinct:?}");
        let mean = sum as f64 / n as f64;
        let true_interval = 1e6 / 150_000.0;
        assert!(
            (mean - true_interval).abs() / true_interval < 0.01,
            "mean inter-arrival {mean:.4} µs must track the true {true_interval:.4} µs"
        );
    }

    /// The Poisson sampler must not lose the sub-µs part of each draw:
    /// flooring exponentials independently shaves ~0.5 µs per arrival,
    /// which at high rates overstates the offered load the same way the
    /// old jitter truncation did. The ns carry keeps the realized mean
    /// on the true interval.
    #[test]
    fn exponential_delays_keep_an_exact_mean_at_high_rates() {
        let rate = 125_000.0; // true interval 8 µs
        let mut client = Client::new(0, NodeId(0), rate, 2.0);
        let mut rng = rand::StdRng::seed_from_u64(9);
        let n = 200_000u64;
        let sum: u64 = (0..n).map(|_| client.exponential_delay_us(rate, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        let true_interval = 1e6 / rate;
        assert!(
            (mean - true_interval).abs() / true_interval < 0.01,
            "mean exponential delay {mean:.4} µs must track the true {true_interval:.4} µs"
        );
    }

    /// The ≥10 µs path must stay the historical computation bit for bit
    /// (fig2 byte-identity rides on this): same truncated interval, same
    /// `interval/10` jitter bound, same single draw.
    #[test]
    fn legacy_jitter_path_is_bit_identical() {
        let rate = 350.0;
        let mut client = Client::new(0, NodeId(0), rate, 2.0);
        let mut rng = rand::StdRng::seed_from_u64(42);
        let mut oracle_rng = rand::StdRng::seed_from_u64(42);
        for _ in 0..1_000 {
            let got = client.jittered_delay_us(rate, &mut rng);
            // The historical computation, verbatim.
            let interval_us = (1e6 / rate).max(1.0) as u64;
            let jitter = interval_us / 10;
            let expected = interval_us - jitter + oracle_rng.gen_range(0..=2 * jitter);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn open_loop_client_never_skips() {
        let workload = Workload { mode: crate::SubmissionMode::Open, ..Workload::constant() };
        let client = Client::with_workload(0, NodeId(0), 100.0, 2.0, workload, 10_000_000);
        assert_eq!(client.window, u64::MAX, "open loop has no in-flight bound");
    }

    #[test]
    fn closed_loop_window_has_the_historical_floor() {
        let client = Client::new(0, NodeId(0), 10.0, 2.0);
        assert_eq!(client.window, MIN_CLIENT_WINDOW, "10 tx/s × 2 s = 20 floors to 64");
        let client = Client::new(0, NodeId(0), 1_000.0, 2.0);
        assert_eq!(client.window, 2_000);
    }

    /// Drives one client alone on the network and returns its submission
    /// count after `secs` simulated seconds.
    fn run_solo_client(workload: Workload, base_tps: f64, secs: u64, seed: u64) -> u64 {
        // A validator to receive submissions (it need not commit).
        let committee = Committee::new_equal_stake(1);
        let v = Validator::new(committee, ValidatorId(0), ValidatorConfig::default(), None);
        let client = Client::with_workload(0, NodeId(0), base_tps, 2.0, workload, secs * 1_000_000);
        let actors = vec![Actor::honest(v), Actor::Client(client)];
        let net = NetworkConfig {
            latency: hh_net::LatencyModel::Constant(hh_net::Duration::from_millis(1)),
            ..NetworkConfig::default()
        };
        let mut sim = Simulator::new(actors, net, seed);
        sim.run_until(SimTime::from_secs(secs));
        sim.node(NodeId(1)).as_client().unwrap().submitted()
    }

    #[test]
    fn poisson_arrivals_track_the_configured_rate() {
        let workload = Workload {
            phases: vec![Phase { from_us: 0, arrival: Arrival::Poisson { scale: 1.0 } }],
            mode: crate::SubmissionMode::Open,
            ..Workload::constant()
        };
        let submitted = run_solo_client(workload, 500.0, 20, 3);
        let expected = 500.0 * 20.0;
        assert!(
            (submitted as f64 - expected).abs() / expected < 0.05,
            "poisson client submitted {submitted}, expected ≈{expected}"
        );
    }

    #[test]
    fn onoff_bursts_submit_roughly_the_duty_cycle() {
        let workload = Workload {
            phases: vec![Phase {
                from_us: 0,
                arrival: Arrival::OnOff { scale: 1.0, burst_secs: 1.0, idle_secs: 1.0 },
            }],
            mode: crate::SubmissionMode::Open,
            ..Workload::constant()
        };
        let submitted = run_solo_client(workload, 400.0, 20, 5);
        // 50% duty cycle: about half the constant volume.
        let expected = 400.0 * 20.0 * 0.5;
        assert!(
            (submitted as f64 - expected).abs() / expected < 0.1,
            "on/off client submitted {submitted}, expected ≈{expected}"
        );
    }

    #[test]
    fn ramp_submits_the_integral_of_the_rate() {
        let workload = Workload {
            phases: vec![Phase {
                from_us: 0,
                arrival: Arrival::Ramp { from_scale: 0.0, to_scale: 2.0 },
            }],
            mode: crate::SubmissionMode::Open,
            ..Workload::constant()
        };
        // Linear 0 → 800 tx/s over 20 s: integral = 800/2 × 20 = 8000.
        let submitted = run_solo_client(workload, 400.0, 20, 11);
        let expected = 8_000.0;
        assert!(
            (submitted as f64 - expected).abs() / expected < 0.1,
            "ramp client submitted {submitted}, expected ≈{expected}"
        );
    }
}
