//! The deterministic discrete-event simulator.
//!
//! Protocol logic is written as [`Node`] state machines; the [`Simulator`]
//! owns the clock, the pseudo-random source, the event queue, and the
//! network model. Given the same seed and configuration, two runs produce
//! bit-identical executions — the foundation for the reproducible
//! experiments and the safety property tests.

use crate::chaos::{ChaosEntry, ChaosSchedule};
use crate::fault::FaultSchedule;
use crate::latency::LatencyModel;
use crate::time::{Duration, SimTime};
use crate::wheel::TimingWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifies a node within the simulation (dense indices `0..n`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol state machine driven by the simulator.
///
/// Handlers receive a [`Context`] for sending messages, arming timers and
/// reading the clock. Handlers must not block; all effects go through the
/// context.
pub trait Node {
    /// The message type exchanged between nodes.
    type Message: Clone;

    /// Invoked once at simulation start (unless the node is crashed at t=0;
    /// then it runs on recovery).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Invoked when a message arrives.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Invoked when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Self::Message>);

    /// Invoked when the node restarts after a crash.
    ///
    /// The default re-runs [`Node::on_start`]. Implementations modelling
    /// real crash-recovery should discard volatile state and rebuild from
    /// their persistent storage here.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.on_start(ctx);
    }

    /// Produces the in-flight-corrupted form of `msg` under a chaos
    /// window, or `None` when the mangled frame would fail to decode at
    /// the receiver — it then vanishes, counted in
    /// [`SimStats::chaos_corrupt_rejected`], exactly like a real frame
    /// dying at the codec. Implementations with a wire codec should
    /// encode, flip random bytes with `rng`, and re-decode, so
    /// corruption is only survivable when the codec genuinely accepts
    /// the flipped bytes. The default — untyped messages carry no codec
    /// — rejects every corruption.
    fn corrupt_message(msg: &Self::Message, rng: &mut StdRng) -> Option<Self::Message> {
        let _ = (msg, rng);
        None
    }
}

/// The effect interface handed to [`Node`] handlers.
pub struct Context<'a, M> {
    id: NodeId,
    now: SimTime,
    num_nodes: usize,
    rng: &'a mut StdRng,
    actions: Vec<Action<M>>,
}

enum Action<M> {
    Send {
        to: NodeId,
        msg: M,
    },
    /// One queued action fanning `msg` out to nodes `0..to_first`
    /// (excluding self). The runtime clones per recipient at routing
    /// time — a cheap handle copy when `M` is an `Arc` (the zero-copy
    /// fan-out path).
    Broadcast {
        msg: M,
        to_first: usize,
    },
    Timer {
        delay: Duration,
        token: u64,
    },
}

impl<'a, M: Clone> Context<'a, M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of nodes in the simulation.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The deterministic random source (shared, seeded by the simulator).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to `to` over the simulated network.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every *other* node. Self-delivery is the protocol's
    /// job (processing a locally-created message directly is free and
    /// avoids a queue round-trip).
    ///
    /// Enqueues a single action; the runtime fans out per recipient in
    /// ascending node order (identical delivery and RNG-draw order to a
    /// loop of [`Context::send`] calls), cloning the message handle per
    /// peer — one `Arc` bump each for `Arc`'d message types, never a
    /// deep copy.
    pub fn broadcast(&mut self, msg: M) {
        let to_first = self.num_nodes;
        self.actions.push(Action::Broadcast { msg, to_first });
    }

    /// Sends `msg` to every other node with id below `k` — a committee
    /// broadcast in simulations where load generators occupy the ids
    /// above the validators. Same single-action, ascending-order,
    /// handle-clone fan-out as [`Context::broadcast`].
    pub fn broadcast_to_first(&mut self, k: usize, msg: M) {
        self.actions.push(Action::Broadcast { msg, to_first: k });
    }

    /// Arms a one-shot timer firing after `delay` with the given `token`.
    ///
    /// Timers cannot be cancelled; nodes ignore stale tokens (cheap and
    /// keeps the event queue simple).
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }
}

/// How the adversary treats messages before GST.
#[derive(Clone, Debug)]
pub struct PreGstAdversary {
    /// Maximum extra delay added to each pre-GST message.
    pub max_extra_delay: Duration,
    /// Probability a pre-GST message is "lost" and only arrives via
    /// retransmission at GST + Δ (links stay reliable).
    pub loss_probability: f64,
}

impl Default for PreGstAdversary {
    fn default() -> Self {
        PreGstAdversary { max_extra_delay: Duration::from_millis(500), loss_probability: 0.05 }
    }
}

/// Post-GST delivery bound Δ (400 ms): a message the pre-GST adversary
/// "loses" is retransmitted and arrives by GST + Δ.
const DELTA: Duration = Duration(400_000);

/// Delay of a node's message to itself (50 µs), should any be sent.
const LOOPBACK: Duration = Duration(50);

/// Network model configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Per-link latency model.
    pub latency: LatencyModel,
    /// Global Stabilization Time. Defaults to [`SimTime::ZERO`]
    /// (synchronous from the start), which is the benchmark setting.
    pub gst: SimTime,
    /// Adversarial behaviour before GST.
    pub pre_gst: PreGstAdversary,
    /// The fault schedule.
    pub faults: FaultSchedule,
    /// Scheduled link chaos (drop / duplicate / reorder / corrupt).
    /// Empty by default; an empty schedule draws nothing from the RNG.
    pub chaos: ChaosSchedule,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: LatencyModel::default(),
            gst: SimTime::ZERO,
            pre_gst: PreGstAdversary::default(),
            faults: FaultSchedule::new(),
            chaos: ChaosSchedule::new(),
        }
    }
}

/// Counters describing a finished (or in-progress) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total events processed.
    pub events: u64,
    /// PRNG draws made by the routing machinery itself (latency jitter,
    /// pre-GST adversary, chaos windows) — *not* draws actors make via
    /// [`Context::rng`]. The event-queue/fan-out hot path is draw-free by
    /// design, so a chaos-free constant-latency run reports zero; the
    /// determinism suite asserts on this so an accidentally introduced
    /// draw (which silently re-orders every later sample, changing run
    /// bytes) fails loudly instead.
    pub delivery_rng_draws: u64,
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Messages dropped because the destination was crashed.
    pub dropped_crashed: u64,
    /// Messages the pre-GST adversary deferred to GST + Δ.
    pub adversary_deferred: u64,
    /// Frames a chaos window dropped outright.
    pub chaos_dropped: u64,
    /// Frames a chaos window delivered twice.
    pub chaos_duplicated: u64,
    /// Frames a chaos window flipped bytes in (whether or not the
    /// result decoded).
    pub chaos_corrupted: u64,
    /// Corrupted frames that failed to decode at the receiver and were
    /// discarded (the codec catching the flip).
    pub chaos_corrupt_rejected: u64,
    /// Frames a chaos window delayed by a non-zero reorder draw.
    pub chaos_reordered: u64,
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, token: u64 },
    Crash(NodeId),
    Recover(NodeId),
}

/// The simulator's PRNG with a draw counter on top.
///
/// The routing machinery draws through the wrapper (each `next_*` call
/// bumps the count), while actor handlers reach the `inner` generator
/// directly via [`Context::rng`], uncounted. The counter therefore
/// measures exactly the delivery-path draws surfaced as
/// [`SimStats::delivery_rng_draws`]. Delegation is transparent: the
/// stream of values is bit-identical to the bare [`StdRng`].
#[derive(Debug)]
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl Rng for CountingRng {
    // `gen`, `gen_range` and `gen_bool` all derive from this one raw
    // output, so every sample is counted no matter which helper drew it.
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// The deterministic discrete-event simulator.
///
/// See the crate docs for a complete example.
pub struct Simulator<N: Node> {
    nodes: Vec<N>,
    crashed: Vec<bool>,
    config: NetworkConfig,
    /// The event queue: exact `(at, seq)` order (see [`crate::wheel`]).
    queue: TimingWheel<EventKind<N::Message>>,
    now: SimTime,
    seq: u64,
    rng: CountingRng,
    stats: SimStats,
    started: bool,
    /// Whether queue ops and dispatches accrue their wall time to
    /// [`crate::prof`] (see [`Simulator::set_profiling`]).
    profiling: bool,
    /// Reused [`Context`] action buffer: `invoke` is not reentrant, so
    /// one scratch allocation serves every event instead of a fresh
    /// `Vec` per dispatch.
    action_scratch: Vec<Action<N::Message>>,
}

impl<N: Node> Simulator<N> {
    /// Builds a simulator over `nodes` with the given network `config` and
    /// deterministic `seed`.
    pub fn new(nodes: Vec<N>, config: NetworkConfig, seed: u64) -> Self {
        let n = nodes.len();
        let mut sim = Simulator {
            crashed: vec![false; n],
            nodes,
            queue: TimingWheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: CountingRng { inner: StdRng::seed_from_u64(seed), draws: 0 },
            stats: SimStats::default(),
            started: false,
            profiling: false,
            action_scratch: Vec::new(),
            config,
        };
        // Crash/recovery schedules become ordinary events: every crash in
        // insertion order, then every recovery in insertion order. The
        // sequence numbers break same-instant ties, so this seeding order
        // is part of the byte-identity contract.
        for (node, at_us) in sim.config.faults.crashes() {
            sim.push(SimTime(at_us), EventKind::Crash(NodeId(node as usize)));
        }
        for (node, at_us) in sim.config.faults.recoveries() {
            sim.push(SimTime(at_us), EventKind::Recover(NodeId(node as usize)));
        }
        sim
    }

    /// Makes the event loop time its queue operations and dispatches into
    /// this thread's [`crate::prof`] counters (off by default). Wall time
    /// never reaches a node, so the execution is the same either way.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        stats.delivery_rng_draws = self.rng.draws;
        stats
    }

    /// Immutable access to a node (for post-run inspection).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (for harness wiring between phases).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.0]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[id.0]
    }

    /// Injects a raw message delivered to `to` at exactly `at` (no latency
    /// model applied), appearing to come `from`. Used by tests and by
    /// harnesses injecting external inputs.
    pub fn schedule_message(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: N::Message) {
        self.push(at.max(self.now), EventKind::Deliver { to, from, msg });
    }

    /// Runs `f`, charging its wall time to `accrue` when profiling is on.
    /// `f` has one call site, so each use compiles to the plain call with a
    /// clock read on either side (two call sites cost the n = 10 event loop
    /// 2.7 % of its host time).
    #[inline]
    fn timed<R>(&mut self, accrue: fn(u64), f: impl FnOnce(&mut Self) -> R) -> R {
        let started = self.profiling.then(std::time::Instant::now);
        let r = f(self);
        if let Some(t) = started {
            accrue(t.elapsed().as_nanos() as u64);
        }
        r
    }

    fn push(&mut self, at: SimTime, kind: EventKind<N::Message>) {
        let seq = self.seq;
        self.seq += 1;
        self.timed(crate::prof::accrue_queue, |sim| sim.queue.push(at, seq, kind));
    }

    /// [`TimingWheel::pop_if_at_most`], a queue op like [`Simulator::push`].
    fn pop_at_most(&mut self, deadline: SimTime) -> Option<(SimTime, u64, EventKind<N::Message>)> {
        self.timed(crate::prof::accrue_queue, |sim| sim.queue.pop_if_at_most(deadline))
    }

    /// Processes all events up to and including `deadline`, then advances
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some((at, _, kind)) = self.pop_at_most(deadline) {
            self.now = at;
            self.dispatch(kind);
        }
        self.now = deadline;
        self.queue.advance_to(deadline);
    }

    /// Runs until the event queue drains or `deadline` passes; returns the
    /// final simulation time. Useful for tests that want quiescence.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        loop {
            match self.pop_at_most(deadline) {
                Some((at, _, kind)) => {
                    self.now = at;
                    self.dispatch(kind);
                }
                None if self.queue.is_empty() => return self.now,
                None => {
                    self.now = deadline;
                    self.queue.advance_to(deadline);
                    return self.now;
                }
            }
        }
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Nodes crashed at t=0 don't start; they start on recovery.
        for i in 0..self.nodes.len() {
            if u16::try_from(i).is_ok_and(|id| self.config.faults.crashed_at(id, 0)) {
                self.crashed[i] = true;
            }
        }
        for i in 0..self.nodes.len() {
            if !self.crashed[i] {
                self.invoke(NodeId(i), |node, ctx| node.on_start(ctx));
            }
        }
    }

    fn dispatch(&mut self, kind: EventKind<N::Message>) {
        self.stats.events += 1;
        match kind {
            EventKind::Deliver { to, from, msg } => {
                if self.crashed[to.0] {
                    self.stats.dropped_crashed += 1;
                    return;
                }
                self.stats.delivered += 1;
                self.timed(crate::prof::accrue_deliver, |sim| {
                    sim.invoke(to, |node, ctx| node.on_message(from, msg, ctx))
                });
            }
            EventKind::Timer { node, token } => {
                if self.crashed[node.0] {
                    return;
                }
                self.timed(crate::prof::accrue_timer, |sim| {
                    sim.invoke(node, |n, ctx| n.on_timer(token, ctx))
                });
            }
            EventKind::Crash(node) => {
                self.crashed[node.0] = true;
            }
            EventKind::Recover(node) => {
                if self.crashed[node.0] {
                    self.crashed[node.0] = false;
                    self.invoke(node, |n, ctx| n.on_restart(ctx));
                }
            }
        }
    }

    fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Context<'_, N::Message>)) {
        let mut ctx = Context {
            id,
            now: self.now,
            num_nodes: self.nodes.len(),
            rng: &mut self.rng.inner,
            actions: std::mem::take(&mut self.action_scratch),
        };
        f(&mut self.nodes[id.0], &mut ctx);
        let mut actions = ctx.actions;
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.route(id, to, msg),
                Action::Broadcast { msg, to_first } => {
                    // Ascending-peer fan-out: the same per-recipient
                    // routing (and RNG draw) order as the equivalent
                    // sequence of sends.
                    for i in 0..to_first.min(self.nodes.len()) {
                        if i != id.0 {
                            self.route(id, NodeId(i), msg.clone());
                        }
                    }
                }
                Action::Timer { delay, token } => {
                    let at = self.now + delay;
                    self.push(at, EventKind::Timer { node: id, token });
                }
            }
        }
        self.action_scratch = actions;
    }

    /// Computes the delivery time of a message per the network model and
    /// enqueues it.
    fn route(&mut self, from: NodeId, to: NodeId, msg: N::Message) {
        let base =
            if from == to { LOOPBACK } else { self.config.latency.sample(from, to, &mut self.rng) };
        let delay = base + self.config.faults.slowdown_delay(from, to, self.now);
        let mut at = self.now + delay;

        if self.now < self.config.gst {
            // Adversary-controlled period: arbitrary bounded extra delay,
            // plus probabilistic deferral to GST + Δ ("lost" then
            // retransmitted — links are reliable).
            let extra = self.rng.gen_range(0..=self.config.pre_gst.max_extra_delay.as_micros());
            at = self.now + delay + Duration::from_micros(extra);
            if self.rng.gen::<f64>() < self.config.pre_gst.loss_probability {
                self.stats.adversary_deferred += 1;
                at = at.max(self.config.gst + DELTA);
            }
        }

        if let Some(heal) = self.config.faults.partition_release(from, to, self.now) {
            // Buffered until the partition heals, then delivered after one
            // fresh link latency.
            at = at.max(heal + base);
        }

        if let Some(w) = self.config.chaos.window_at(from, to, self.now).copied() {
            self.route_chaotic(from, to, msg, at, w);
            return;
        }
        self.push(at, EventKind::Deliver { to, from, msg });
    }

    /// Applies one chaos window to a frame already scheduled for `at`:
    /// drop, duplicate, corrupt and reorder draws, in that fixed order.
    /// Zero-rate effects draw nothing, so a window only perturbs the
    /// RNG stream for the effects it actually declares.
    fn route_chaotic(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: N::Message,
        at: SimTime,
        w: ChaosEntry,
    ) {
        if w.drop > 0.0 && self.rng.gen::<f64>() < w.drop {
            self.stats.chaos_dropped += 1;
            return;
        }
        let copies = if w.duplicate > 0.0 && self.rng.gen::<f64>() < w.duplicate {
            self.stats.chaos_duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut frame = msg.clone();
            if w.corrupt > 0.0 && self.rng.gen::<f64>() < w.corrupt {
                self.stats.chaos_corrupted += 1;
                // Corruption draws go to the inner generator uncounted:
                // this is a chaos-only path, and the draw-free assertion
                // only covers chaos-free runs.
                match N::corrupt_message(&frame, &mut self.rng.inner) {
                    Some(mangled) => frame = mangled,
                    None => {
                        // The flipped frame died at the receiver's codec.
                        self.stats.chaos_corrupt_rejected += 1;
                        continue;
                    }
                }
            }
            let mut deliver_at = at;
            if w.reorder_us > 0 {
                let extra = self.rng.gen_range(0..=w.reorder_us);
                if extra > 0 {
                    self.stats.chaos_reordered += 1;
                }
                deliver_at = at + Duration::from_micros(extra);
            }
            self.push(deliver_at, EventKind::Deliver { to, from, msg: frame });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test node: replies "pong" to "ping"; records everything it sees.
    struct Echo {
        log: Vec<(SimTime, NodeId, &'static str)>,
        timer_fired: Vec<u64>,
        started: u32,
    }

    impl Echo {
        fn new() -> Self {
            Echo { log: Vec::new(), timer_fired: Vec::new(), started: 0 }
        }
    }

    impl Node for Echo {
        type Message = &'static str;

        fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
            self.started += 1;
            if ctx.id() == NodeId(0) {
                ctx.broadcast("ping");
                ctx.set_timer(Duration::from_millis(100), 7);
            }
        }

        fn on_message(
            &mut self,
            from: NodeId,
            msg: Self::Message,
            ctx: &mut Context<'_, Self::Message>,
        ) {
            self.log.push((ctx.now(), from, msg));
            if msg == "ping" {
                ctx.send(from, "pong");
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Self::Message>) {
            self.timer_fired.push(token);
        }
    }

    fn constant_net(ms: u64) -> NetworkConfig {
        NetworkConfig {
            latency: LatencyModel::Constant(Duration::from_millis(ms)),
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let nodes = (0..3).map(|_| Echo::new()).collect();
        let mut sim = Simulator::new(nodes, constant_net(10), 1);
        sim.run_until(SimTime::from_secs(1));
        // Nodes 1,2 each got one ping at t=10ms.
        for i in 1..3 {
            let log = &sim.node(NodeId(i)).log;
            assert_eq!(log.len(), 1);
            assert_eq!(log[0], (SimTime::from_millis(10), NodeId(0), "ping"));
        }
        // Node 0 got two pongs at t=20ms.
        let log = &sim.node(NodeId(0)).log;
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|(t, _, m)| *t == SimTime::from_millis(20) && *m == "pong"));
        assert_eq!(sim.node(NodeId(0)).timer_fired, vec![7]);
    }

    #[test]
    fn determinism_same_seed_same_execution() {
        let run = |seed| {
            let nodes = (0..5).map(|_| Echo::new()).collect();
            let cfg = NetworkConfig {
                latency: LatencyModel::Uniform(Duration::from_millis(1), Duration::from_millis(50)),
                ..NetworkConfig::default()
            };
            let mut sim = Simulator::new(nodes, cfg, seed);
            sim.run_until(SimTime::from_secs(1));
            sim.nodes().map(|n| n.log.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn crashed_node_receives_nothing_until_recovery() {
        let nodes = (0..3).map(|_| Echo::new()).collect();
        let mut cfg = constant_net(10);
        cfg.faults = FaultSchedule::new().crash(1, 0).recover(1, 500_000);
        let mut sim = Simulator::new(nodes, cfg, 1);
        sim.run_until(SimTime::from_secs(1));
        // The ping at t=10ms was dropped; node 1 only started on recovery.
        assert!(sim.node(NodeId(1)).log.is_empty());
        assert_eq!(sim.node(NodeId(1)).started, 1);
        assert_eq!(sim.stats().dropped_crashed, 1);
        // Node 0 therefore got exactly one pong (from node 2).
        assert_eq!(sim.node(NodeId(0)).log.len(), 1);
    }

    #[test]
    fn slowdown_delays_messages() {
        let nodes = (0..2).map(|_| Echo::new()).collect();
        let mut cfg = constant_net(10);
        cfg.faults = FaultSchedule::new().slowdown_from(1, 0, 90_000);
        let mut sim = Simulator::new(nodes, cfg, 1);
        sim.run_until(SimTime::from_secs(1));
        // ping took 10 + 90 = 100ms.
        assert_eq!(sim.node(NodeId(1)).log[0].0, SimTime::from_millis(100));
    }

    #[test]
    fn pre_gst_messages_arrive_by_gst_plus_delta() {
        let nodes = (0..4).map(|_| Echo::new()).collect();
        let cfg = NetworkConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            gst: SimTime::from_secs(2),
            pre_gst: PreGstAdversary {
                max_extra_delay: Duration::from_millis(800),
                loss_probability: 0.5,
            },
            ..NetworkConfig::default()
        };
        let mut sim = Simulator::new(nodes, cfg, 99);
        sim.run_until(SimTime::from_secs(5));
        let bound = SimTime::from_secs(2) + DELTA + Duration::from_millis(900);
        for i in 1..4 {
            for (t, _, _) in &sim.node(NodeId(i)).log {
                assert!(*t <= bound, "delivered at {t}");
            }
            assert_eq!(sim.node(NodeId(i)).log.len(), 1, "reliable delivery");
        }
    }

    #[test]
    fn schedule_message_injects_at_exact_time() {
        let nodes = (0..2).map(|_| Echo::new()).collect();
        let mut sim = Simulator::new(nodes, constant_net(10), 1);
        sim.schedule_message(SimTime::from_millis(123), NodeId(99), NodeId(1), "external");
        sim.run_until(SimTime::from_secs(1));
        let log = &sim.node(NodeId(1)).log;
        assert!(log.contains(&(SimTime::from_millis(123), NodeId(99), "external")));
    }

    #[test]
    fn run_until_idle_stops_at_quiescence() {
        let nodes = (0..2).map(|_| Echo::new()).collect();
        let mut sim = Simulator::new(nodes, constant_net(10), 1);
        let end = sim.run_until_idle(SimTime::from_secs(60));
        // Last event is the 100ms timer on node 0.
        assert_eq!(end, SimTime::from_millis(100));
    }

    #[test]
    fn clock_advances_to_deadline_even_without_events() {
        let nodes: Vec<Echo> = vec![];
        let mut sim: Simulator<Echo> = Simulator::new(nodes, constant_net(1), 0);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    fn chaos(drop: f64, duplicate: f64, corrupt: f64, reorder_ms: u64) -> ChaosSchedule {
        ChaosSchedule::new().entry(ChaosEntry {
            drop,
            duplicate,
            corrupt,
            reorder_us: reorder_ms * 1_000,
            ..ChaosEntry::all_links(0, u64::MAX)
        })
    }

    #[test]
    fn chaos_drop_all_silences_every_link() {
        let nodes = (0..3).map(|_| Echo::new()).collect();
        let mut cfg = constant_net(10);
        cfg.chaos = chaos(1.0, 0.0, 0.0, 0);
        let mut sim = Simulator::new(nodes, cfg, 1);
        sim.run_until(SimTime::from_secs(1));
        for i in 0..3 {
            assert!(sim.node(NodeId(i)).log.is_empty());
        }
        assert_eq!(sim.stats().chaos_dropped, 2, "both pings dropped");
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn chaos_duplicate_all_delivers_every_frame_twice() {
        let nodes = (0..2).map(|_| Echo::new()).collect();
        let mut cfg = constant_net(10);
        cfg.chaos = chaos(0.0, 1.0, 0.0, 0);
        let mut sim = Simulator::new(nodes, cfg, 1);
        sim.run_until(SimTime::from_secs(1));
        // 1 ping -> 2 copies; each ping triggers a pong -> 2 pongs, each
        // duplicated -> 4 pongs at node 0.
        assert_eq!(sim.node(NodeId(1)).log.len(), 2);
        assert_eq!(sim.node(NodeId(0)).log.len(), 4);
        assert!(sim.stats().chaos_duplicated >= 3);
    }

    #[test]
    fn chaos_corruption_dies_at_the_default_codec() {
        // Echo has no codec, so the default hook rejects every flip: a
        // corrupt-all window behaves like drop-all but counts rejects.
        let nodes = (0..3).map(|_| Echo::new()).collect();
        let mut cfg = constant_net(10);
        cfg.chaos = chaos(0.0, 0.0, 1.0, 0);
        let mut sim = Simulator::new(nodes, cfg, 1);
        sim.run_until(SimTime::from_secs(1));
        for i in 1..3 {
            assert!(sim.node(NodeId(i)).log.is_empty());
        }
        assert_eq!(sim.stats().chaos_corrupted, 2);
        assert_eq!(sim.stats().chaos_corrupt_rejected, 2);
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn chaos_reorder_delays_within_bound() {
        let nodes = (0..2).map(|_| Echo::new()).collect();
        let mut cfg = constant_net(10);
        cfg.chaos = chaos(0.0, 0.0, 0.0, 200);
        let mut sim = Simulator::new(nodes, cfg, 7);
        sim.run_until(SimTime::from_secs(1));
        let log = &sim.node(NodeId(1)).log;
        assert_eq!(log.len(), 1);
        let at = log[0].0;
        assert!(at >= SimTime::from_millis(10), "latency still applies");
        assert!(at <= SimTime::from_millis(210), "reorder bounded, got {at}");
    }

    #[test]
    fn chaos_windows_do_not_touch_frames_outside_them() {
        // Window covers [5s, 6s); the ping/pong exchange at t=0 must be
        // untouched and, with the same seed, bit-identical to a run with
        // no chaos at all (no RNG draw happens outside the window).
        let run = |chaos: ChaosSchedule| {
            let nodes = (0..3).map(|_| Echo::new()).collect();
            let mut cfg = NetworkConfig {
                latency: LatencyModel::Uniform(Duration::from_millis(1), Duration::from_millis(50)),
                ..NetworkConfig::default()
            };
            cfg.chaos = chaos;
            let mut sim = Simulator::new(nodes, cfg, 42);
            sim.run_until(SimTime::from_secs(1));
            sim.nodes().map(|n| n.log.clone()).collect::<Vec<_>>()
        };
        let late = ChaosSchedule::new().entry(ChaosEntry {
            drop: 1.0,
            duplicate: 1.0,
            corrupt: 1.0,
            reorder_us: 100_000,
            ..ChaosEntry::all_links(5_000_000, 6_000_000)
        });
        assert_eq!(run(late), run(ChaosSchedule::new()));
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed| {
            let nodes = (0..5).map(|_| Echo::new()).collect();
            let mut cfg = constant_net(10);
            cfg.chaos = chaos(0.3, 0.3, 0.0, 50);
            let mut sim = Simulator::new(nodes, cfg, seed);
            sim.run_until(SimTime::from_secs(1));
            sim.nodes().map(|n| n.log.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }
}
