//! Byzantine adversary schedules and the actor-level behaviors they
//! lower to.
//!
//! A [`ByzantineSchedule`] is the strategic-adversary counterpart of the
//! crash/partition [`FaultSchedule`](crate::FaultSchedule): an ordered
//! list of per-validator attack windows, validated up front
//! ([`ByzantineSchedule::validate`]) and lowered by
//! [`build_sim`](crate::build_sim) into a [`ByzantineBehavior`] attached
//! to the attacker's actor. The behavior rewrites the honest validator's
//! *inputs and outputs at the network boundary* — the validator itself
//! runs unmodified `hammerhead` code, so the attack surface is exactly
//! what a real adversary controls: which messages it sends, when, and
//! which received messages it pretends not to have seen.
//!
//! The four strategies attack the reputation mechanism from different
//! angles:
//!
//! * [`ByzantineStrategy::Equivocate`] — broadcast a deterministic twin
//!   (see [`hh_dag::testkit::twin_of`]) alongside every own vertex.
//!   Runs with an equivocator force certified broadcast, where honest
//!   validators ack only the first header per `(round, author)` — the
//!   twin can never certify, and every honest node records
//!   [`hh_dag::EquivocationEvidence`] against the attacker.
//! * [`ByzantineStrategy::WithholdVotes`] — ignore vertex pushes
//!   authored by targeted validators, so the attacker's proposals omit
//!   parent edges (votes) toward them: an attempt to *drive honest
//!   validators' scores down*. Sync responses still pass, keeping the
//!   attacker's ancestry (and the run) live.
//! * [`ByzantineStrategy::LazyLeader`] — hold every own-vertex broadcast
//!   for a fixed delay: free-ride on others' proposals while arriving
//!   too late to be voted for (the score-farming shape; an empty or
//!   late block contributes equally little).
//! * [`ByzantineStrategy::FlipFlop`] — alternate honest and lazy
//!   half-periods, hovering at the edge of the good set to dodge
//!   demotion.
//!
//! Behaviors draw no randomness and allocate timer tokens from a private
//! range, so a run with an empty schedule is bit-identical to one built
//! before this module existed.

use hammerhead::{Output, ValidatorMessage};
use hh_crypto::Keypair;
use hh_dag::testkit::twin_of;
use hh_net::{in_committee, max_faulty, non_empty};
use hh_rbc::RbcMessage;
use hh_types::{Committee, ValidatorId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// First timer token owned by byzantine behaviors. Validator tokens are
/// small constants (< 100) and client ticks use 1_000; everything at or
/// above this base is routed to the actor's behavior, never the
/// validator.
pub const BYZANTINE_TOKEN_BASE: u64 = 2_000;

/// One adversarial strategy, active inside its entry's window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ByzantineStrategy {
    /// Broadcast a deterministic twin alongside every own vertex.
    Equivocate,
    /// Ignore vertex pushes authored by `targets`, omitting vote edges
    /// toward them in own proposals.
    WithholdVotes {
        /// The validators whose vertices are ignored.
        targets: Vec<u16>,
    },
    /// Delay every own-vertex broadcast by `delay_us`.
    LazyLeader {
        /// Added broadcast delay (µs).
        delay_us: u64,
    },
    /// Alternate honest and lazy half-periods of `flip_us` each,
    /// starting honest at the window's start.
    FlipFlop {
        /// Length of each half-period (µs).
        flip_us: u64,
        /// Added broadcast delay during lazy half-periods (µs).
        delay_us: u64,
    },
}

impl ByzantineStrategy {
    /// Stable label used in reports and scenario files.
    pub fn label(&self) -> &'static str {
        match self {
            ByzantineStrategy::Equivocate => "equivocate",
            ByzantineStrategy::WithholdVotes { .. } => "withhold_votes",
            ByzantineStrategy::LazyLeader { .. } => "lazy_leader",
            ByzantineStrategy::FlipFlop { .. } => "flip_flop",
        }
    }
}

/// One validator's attack window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByzantineEntry {
    /// The adversarial validator.
    pub node: u16,
    /// The strategy it runs.
    pub strategy: ByzantineStrategy,
    /// Window start (inclusive, µs).
    pub from_us: u64,
    /// Window end (exclusive, µs); `u64::MAX` for "until the end".
    pub until_us: u64,
}

/// The byzantine schedule of a run: per-validator attack windows, in
/// insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ByzantineSchedule {
    entries: Vec<ByzantineEntry>,
}

impl ByzantineSchedule {
    /// An empty schedule (everyone honest).
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[ByzantineEntry] {
        &self.entries
    }

    /// Whether the schedule contains no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an arbitrary entry.
    #[must_use]
    pub fn entry(mut self, entry: ByzantineEntry) -> Self {
        self.entries.push(entry);
        self
    }

    /// `node` equivocates during `[from_us, until_us)`.
    #[must_use]
    pub fn equivocate(self, node: u16, from_us: u64, until_us: u64) -> Self {
        self.entry(ByzantineEntry {
            node,
            strategy: ByzantineStrategy::Equivocate,
            from_us,
            until_us,
        })
    }

    /// `node` withholds votes from `targets` during `[from_us, until_us)`.
    #[must_use]
    pub fn withhold_votes(self, node: u16, targets: Vec<u16>, from_us: u64, until_us: u64) -> Self {
        self.entry(ByzantineEntry {
            node,
            strategy: ByzantineStrategy::WithholdVotes { targets },
            from_us,
            until_us,
        })
    }

    /// `node` delays its broadcasts by `delay_us` during
    /// `[from_us, until_us)`.
    #[must_use]
    pub fn lazy_leader(self, node: u16, delay_us: u64, from_us: u64, until_us: u64) -> Self {
        self.entry(ByzantineEntry {
            node,
            strategy: ByzantineStrategy::LazyLeader { delay_us },
            from_us,
            until_us,
        })
    }

    /// `node` alternates honest and lazy half-periods of `flip_us`
    /// during `[from_us, until_us)`.
    #[must_use]
    pub fn flip_flop(
        self,
        node: u16,
        flip_us: u64,
        delay_us: u64,
        from_us: u64,
        until_us: u64,
    ) -> Self {
        self.entry(ByzantineEntry {
            node,
            strategy: ByzantineStrategy::FlipFlop { flip_us, delay_us },
            from_us,
            until_us,
        })
    }

    /// Distinct adversarial validators, ascending.
    pub fn nodes(&self) -> Vec<u16> {
        let mut nodes: Vec<u16> = self.entries.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Whether any entry runs [`ByzantineStrategy::Equivocate`] (such
    /// runs force certified broadcast, the mode that can refuse twins).
    pub fn has_equivocation(&self) -> bool {
        self.entries.iter().any(|e| matches!(e.strategy, ByzantineStrategy::Equivocate))
    }

    /// Checks the schedule against a committee of `committee_size`:
    ///
    /// * every referenced validator (and withhold target) exists;
    /// * at most `f = (n - 1) / 3` distinct validators are byzantine —
    ///   beyond that no BFT guarantee holds and the run measures nothing;
    /// * windows are non-empty and per-node windows do not overlap;
    /// * `withhold_votes` targets are non-empty, distinct from the
    ///   attacker, and at most `f` of them — withholding a quorum's worth
    ///   of ancestry would stall the attacker itself, not the victims;
    /// * delays and flip periods are positive.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn validate(&self, committee_size: usize) -> Result<(), String> {
        let n = committee_size;
        let f = max_faulty(n);
        for e in &self.entries {
            in_committee(e.node, n)?;
            let node = e.node;
            non_empty(format_args!("byzantine window of validator {node}"), e.from_us, e.until_us)?;
            match &e.strategy {
                ByzantineStrategy::Equivocate => {}
                ByzantineStrategy::WithholdVotes { targets } => {
                    if targets.is_empty() {
                        return Err(format!(
                            "withhold_votes by validator {} names no targets",
                            e.node
                        ));
                    }
                    let mut distinct = targets.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    for t in &distinct {
                        in_committee(*t, n)?;
                        if *t == e.node {
                            return Err(format!(
                                "validator {} cannot withhold votes from itself",
                                e.node
                            ));
                        }
                    }
                    if distinct.len() > f {
                        return Err(format!(
                            "withhold_votes by validator {} targets {} validators, above f = {f} \
                             for a committee of {n} — the attacker would starve its own \
                             quorum ancestry",
                            e.node,
                            distinct.len()
                        ));
                    }
                }
                ByzantineStrategy::LazyLeader { delay_us } => {
                    if *delay_us == 0 {
                        return Err(format!("lazy_leader by validator {} has zero delay", e.node));
                    }
                }
                ByzantineStrategy::FlipFlop { flip_us, delay_us } => {
                    if *flip_us == 0 {
                        return Err(format!(
                            "flip_flop by validator {} has a zero flip period",
                            e.node
                        ));
                    }
                    if *delay_us == 0 {
                        return Err(format!("flip_flop by validator {} has zero delay", e.node));
                    }
                }
            }
        }

        // More than f byzantine validators voids every guarantee.
        let byzantine = self.nodes();
        if byzantine.len() > f {
            return Err(format!(
                "{} byzantine validators exceeds f = {f} for a committee of {n}",
                byzantine.len()
            ));
        }

        // Per-node windows must not overlap (one strategy at a time).
        let mut windows: Vec<(u16, u64, u64)> =
            self.entries.iter().map(|e| (e.node, e.from_us, e.until_us)).collect();
        windows.sort_unstable();
        for pair in windows.windows(2) {
            let (node_a, _, until_a) = pair[0];
            let (node_b, from_b, _) = pair[1];
            if node_a == node_b && from_b < until_a {
                return Err(format!(
                    "validator {node_a} has overlapping byzantine windows \
                     (one ends at {until_a}µs, the next starts at {from_b}µs)"
                ));
            }
        }
        Ok(())
    }

    /// The behavior for `node`, when the schedule makes it adversarial.
    pub fn behavior_for(
        &self,
        node: ValidatorId,
        committee: &Committee,
    ) -> Option<Box<ByzantineBehavior>> {
        let entries: Vec<ByzantineEntry> =
            self.entries.iter().filter(|e| e.node == node.0).cloned().collect();
        if entries.is_empty() {
            return None;
        }
        Some(Box::new(ByzantineBehavior {
            me: node,
            keypair: committee.keypair(node),
            entries,
            held: BTreeMap::new(),
            next_token: BYZANTINE_TOKEN_BASE,
            twins_sent: 0,
        }))
    }
}

/// The runtime hook rewriting one adversarial validator's network
/// boundary (see the module docs for the strategy semantics).
#[derive(Debug)]
pub struct ByzantineBehavior {
    me: ValidatorId,
    keypair: Keypair,
    /// This validator's windows, in schedule order.
    entries: Vec<ByzantineEntry>,
    /// Held own-vertex broadcasts awaiting their release timer.
    held: BTreeMap<u64, Vec<Output>>,
    /// Next release-timer token (deterministic allocation).
    next_token: u64,
    /// Twin broadcasts emitted so far (diagnostics).
    twins_sent: u64,
}

impl ByzantineBehavior {
    /// The entry whose window covers `now`, if any.
    fn active_entry(&self, now: u64) -> Option<&ByzantineEntry> {
        self.entries.iter().find(|e| e.from_us <= now && now < e.until_us)
    }

    /// Twin broadcasts emitted so far.
    pub fn twins_sent(&self) -> u64 {
        self.twins_sent
    }

    /// Whether `token` belongs to this behavior's release timers.
    pub fn owns_token(token: u64) -> bool {
        token >= BYZANTINE_TOKEN_BASE
    }

    /// Whether an inbound message may reach the validator. Only
    /// `withhold_votes` filters: vertex payloads (push, proposal or
    /// certified) authored by a target are dropped, so the attacker's DAG
    /// — and therefore its proposals' parent edges — omit them. Sync
    /// responses pass, healing ancestry the slow way.
    pub fn allows_inbound(&self, msg: &ValidatorMessage, now: u64) -> bool {
        let Some(entry) = self.active_entry(now) else {
            return true;
        };
        let ByzantineStrategy::WithholdVotes { targets } = &entry.strategy else {
            return true;
        };
        match msg {
            ValidatorMessage::Rbc(
                RbcMessage::Vertex(v) | RbcMessage::Propose(v) | RbcMessage::Certified(v, _),
            ) => !targets.contains(&v.author().0),
            _ => true,
        }
    }

    /// Rewrites the validator's outputs according to the active strategy.
    pub fn process_outbound(&mut self, outputs: Vec<Output>, now: u64) -> Vec<Output> {
        let Some(entry) = self.active_entry(now) else {
            return outputs;
        };
        match entry.strategy.clone() {
            ByzantineStrategy::Equivocate => self.add_twins(outputs),
            ByzantineStrategy::WithholdVotes { .. } => outputs,
            ByzantineStrategy::LazyLeader { delay_us } => {
                self.delay_own_broadcasts(outputs, delay_us)
            }
            ByzantineStrategy::FlipFlop { flip_us, delay_us } => {
                // Half-periods count from the window start; the first is
                // honest, so a flip_flop attacker starts indistinguishable
                // from a correct validator.
                let lazy = ((now - entry.from_us) / flip_us) % 2 == 1;
                if lazy {
                    self.delay_own_broadcasts(outputs, delay_us)
                } else {
                    outputs
                }
            }
        }
    }

    /// Releases the outputs held under `token` (empty if none — e.g. a
    /// timer surviving a window that already closed).
    pub fn release(&mut self, token: u64) -> Vec<Output> {
        self.held.remove(&token).unwrap_or_default()
    }

    /// Inserts a deterministic twin broadcast *ahead of* every own-vertex
    /// broadcast. The twin shares round, author and parents but not the
    /// digest; re-broadcasts of the same vertex produce the same twin, so
    /// honest evidence ledgers charge the pair once.
    ///
    /// Sending the twin first is the aggressive ordering: honest
    /// validators ack the first header they see per `(round, author)`,
    /// so every ack lands on the twin while the attacker's RBC awaits
    /// acks on the genuine digest — neither header certifies, the
    /// attacker's slot burns, and the second (genuine) header arriving
    /// right behind the twin is what every honest node records as
    /// equivocation evidence.
    fn add_twins(&mut self, outputs: Vec<Output>) -> Vec<Output> {
        let mut result = Vec::with_capacity(outputs.len());
        for output in outputs {
            let twin_msg = match &output {
                Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Propose(v)))
                    if v.author() == self.me =>
                {
                    Some(RbcMessage::Propose(Arc::new(twin_of(v, &self.keypair))))
                }
                Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(v)))
                    if v.author() == self.me =>
                {
                    Some(RbcMessage::Vertex(Arc::new(twin_of(v, &self.keypair))))
                }
                _ => None,
            };
            if let Some(msg) = twin_msg {
                self.twins_sent += 1;
                result.push(Output::Broadcast(ValidatorMessage::Rbc(msg)));
            }
            result.push(output);
        }
        result
    }

    /// Moves own-vertex broadcasts into the held map behind one release
    /// timer; everything else (sends, timers, sync traffic) passes
    /// through untouched.
    fn delay_own_broadcasts(&mut self, outputs: Vec<Output>, delay_us: u64) -> Vec<Output> {
        let mut passed = Vec::with_capacity(outputs.len());
        let mut held = Vec::new();
        for output in outputs {
            let own_broadcast = matches!(
                &output,
                Output::Broadcast(ValidatorMessage::Rbc(
                    RbcMessage::Vertex(v) | RbcMessage::Propose(v) | RbcMessage::Certified(v, _),
                )) if v.author() == self.me
            );
            if own_broadcast {
                held.push(output);
            } else {
                passed.push(output);
            }
        }
        if !held.is_empty() {
            let token = self.next_token;
            self.next_token += 1;
            self.held.insert(token, held);
            passed.push(Output::SetTimer { delay_us: delay_us.max(1), token });
        }
        passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_types::{Block, Round, Vertex};

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    fn own_vertex(c: &Committee, round: u64, author: u16) -> Arc<Vertex> {
        Arc::new(Vertex::new(
            Round(round),
            ValidatorId(author),
            Block::empty(),
            vec![],
            &c.keypair(ValidatorId(author)),
        ))
    }

    fn behavior(schedule: &ByzantineSchedule, node: u16) -> Box<ByzantineBehavior> {
        schedule.behavior_for(ValidatorId(node), &committee4()).expect("entry for node")
    }

    #[test]
    fn validate_accepts_a_full_sweep() {
        let s = ByzantineSchedule::new()
            .equivocate(1, 0, u64::MAX)
            .withhold_votes(2, vec![0], 1_000_000, 5_000_000)
            .lazy_leader(2, 400_000, 5_000_000, 9_000_000)
            .flip_flop(3, 2_000_000, 400_000, 0, u64::MAX);
        // n = 13 → f = 4: three byzantine nodes are allowed.
        assert!(s.validate(13).is_ok());
        assert_eq!(s.nodes(), vec![1, 2, 3]);
        assert!(s.has_equivocation());
    }

    #[test]
    fn validate_rejects_more_than_f_byzantine_nodes() {
        // n = 4 → f = 1.
        let s = ByzantineSchedule::new().equivocate(1, 0, u64::MAX).lazy_leader(
            2,
            400_000,
            0,
            u64::MAX,
        );
        let err = s.validate(4).unwrap_err();
        assert!(err.contains("exceeds f = 1"), "{err}");
        // The same two attackers are fine in a bigger committee.
        assert!(s.validate(7).is_ok());
    }

    #[test]
    fn validate_rejects_overlapping_windows_per_node() {
        let s = ByzantineSchedule::new()
            .equivocate(1, 0, 5_000_000)
            .lazy_leader(1, 400_000, 4_000_000, 9_000_000);
        let err = s.validate(13).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
        // Back-to-back windows (until == next from) are fine.
        let s = ByzantineSchedule::new()
            .equivocate(1, 0, 4_000_000)
            .lazy_leader(1, 400_000, 4_000_000, 9_000_000);
        assert!(s.validate(13).is_ok());
    }

    #[test]
    fn validate_rejects_bad_targets_ranges_and_params() {
        let out = ByzantineSchedule::new().equivocate(9, 0, u64::MAX);
        assert!(out.validate(4).unwrap_err().contains("outside"));

        let empty_window = ByzantineSchedule::new().equivocate(1, 5_000_000, 5_000_000);
        assert!(empty_window.validate(4).unwrap_err().contains("empty"));

        let no_targets = ByzantineSchedule::new().withhold_votes(1, vec![], 0, u64::MAX);
        assert!(no_targets.validate(4).unwrap_err().contains("no targets"));

        let self_target = ByzantineSchedule::new().withhold_votes(1, vec![1], 0, u64::MAX);
        assert!(self_target.validate(4).unwrap_err().contains("itself"));

        // n = 7 → f = 2: three targets would starve the attacker's quorum.
        let too_many = ByzantineSchedule::new().withhold_votes(1, vec![0, 2, 3], 0, u64::MAX);
        assert!(too_many.validate(7).unwrap_err().contains("starve"));

        let zero_delay = ByzantineSchedule::new().lazy_leader(1, 0, 0, u64::MAX);
        assert!(zero_delay.validate(4).unwrap_err().contains("zero delay"));

        let zero_flip = ByzantineSchedule::new().flip_flop(1, 0, 400_000, 0, u64::MAX);
        assert!(zero_flip.validate(4).unwrap_err().contains("flip period"));
    }

    #[test]
    fn behavior_only_exists_for_scheduled_nodes() {
        let s = ByzantineSchedule::new().equivocate(2, 0, u64::MAX);
        assert!(s.behavior_for(ValidatorId(2), &committee4()).is_some());
        assert!(s.behavior_for(ValidatorId(1), &committee4()).is_none());
    }

    #[test]
    fn equivocator_twins_every_own_broadcast_deterministically() {
        let c = committee4();
        let s = ByzantineSchedule::new().equivocate(0, 0, u64::MAX);
        let mut b = behavior(&s, 0);
        let v = own_vertex(&c, 2, 0);
        let outputs =
            vec![Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Propose(v.clone())))];
        let rewritten = b.process_outbound(outputs.clone(), 1_000_000);
        assert_eq!(rewritten.len(), 2, "twin plus original");
        // The twin races ahead of the genuine header.
        let twin = match &rewritten[0] {
            Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Propose(t))) => t.clone(),
            other => panic!("expected a twin proposal, got {other:?}"),
        };
        match &rewritten[1] {
            Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Propose(orig))) => {
                assert_eq!(orig.digest(), v.digest(), "the genuine header follows");
            }
            other => panic!("expected the genuine proposal, got {other:?}"),
        }
        assert_eq!(twin.round(), v.round());
        assert_eq!(twin.author(), v.author());
        assert_ne!(twin.digest(), v.digest());
        assert_eq!(b.twins_sent(), 1);
        // Re-broadcasting the same vertex yields the same twin digest.
        let again = b.process_outbound(outputs, 2_000_000);
        match &again[0] {
            Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Propose(t))) => {
                assert_eq!(t.digest(), twin.digest());
            }
            other => panic!("expected a twin proposal, got {other:?}"),
        }
    }

    #[test]
    fn equivocator_leaves_other_authors_and_closed_windows_alone() {
        let c = committee4();
        let s = ByzantineSchedule::new().equivocate(0, 0, 5_000_000);
        let mut b = behavior(&s, 0);
        // Someone else's vertex passes untouched (sync relays).
        let other = own_vertex(&c, 2, 1);
        let outputs = vec![Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(other)))];
        assert_eq!(b.process_outbound(outputs, 1_000_000).len(), 1);
        // Outside the window, own vertices pass untouched too.
        let own = own_vertex(&c, 2, 0);
        let outputs = vec![Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(own)))];
        assert_eq!(b.process_outbound(outputs, 6_000_000).len(), 1);
        assert_eq!(b.twins_sent(), 0, "neither case should have twinned");
    }

    #[test]
    fn lazy_leader_holds_and_releases_own_broadcasts() {
        let c = committee4();
        let s = ByzantineSchedule::new().lazy_leader(0, 400_000, 0, u64::MAX);
        let mut b = behavior(&s, 0);
        let own = own_vertex(&c, 2, 0);
        let keep = Output::Send(
            ValidatorId(1),
            ValidatorMessage::Rbc(RbcMessage::SyncRequest(vec![own.digest()])),
        );
        let outputs = vec![
            Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(own.clone()))),
            keep.clone(),
        ];
        let rewritten = b.process_outbound(outputs, 1_000_000);
        // The broadcast is gone; the send passed; a release timer appeared.
        assert_eq!(rewritten.len(), 2);
        assert!(matches!(&rewritten[0], Output::Send(_, _)));
        let token = match &rewritten[1] {
            Output::SetTimer { delay_us: 400_000, token } => *token,
            other => panic!("expected a release timer, got {other:?}"),
        };
        assert!(ByzantineBehavior::owns_token(token));
        let released = b.release(token);
        assert_eq!(released.len(), 1);
        assert!(matches!(
            &released[0],
            Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(v))) if v.digest() == own.digest()
        ));
        // A second release of the same token yields nothing.
        assert!(b.release(token).is_empty());
    }

    #[test]
    fn flip_flop_is_honest_then_lazy_by_half_period() {
        let c = committee4();
        let s = ByzantineSchedule::new().flip_flop(0, 2_000_000, 400_000, 1_000_000, u64::MAX);
        let mut b = behavior(&s, 0);
        let outputs = |v: &Arc<Vertex>| {
            vec![Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(v.clone())))]
        };
        let v = own_vertex(&c, 2, 0);
        // First half-period (1s..3s from window start at 1s): honest.
        assert_eq!(b.process_outbound(outputs(&v), 1_500_000).len(), 1);
        // Second half-period (3s..5s): lazy — held behind a timer.
        let rewritten = b.process_outbound(outputs(&v), 3_500_000);
        assert!(matches!(&rewritten[..], [Output::SetTimer { .. }]));
        // Third half-period (5s..7s): honest again.
        assert_eq!(b.process_outbound(outputs(&v), 5_500_000).len(), 1);
    }

    #[test]
    fn withholder_drops_target_pushes_but_not_sync() {
        let c = committee4();
        let s = ByzantineSchedule::new().withhold_votes(0, vec![2], 0, 5_000_000);
        let b = behavior(&s, 0);
        let target_vertex = own_vertex(&c, 1, 2);
        let other_vertex = own_vertex(&c, 1, 1);
        let push = ValidatorMessage::Rbc(RbcMessage::Vertex(target_vertex.clone()));
        assert!(!b.allows_inbound(&push, 1_000_000), "target push dropped");
        assert!(b.allows_inbound(&push, 6_000_000), "window over, push passes");
        let other = ValidatorMessage::Rbc(RbcMessage::Vertex(other_vertex));
        assert!(b.allows_inbound(&other, 1_000_000), "non-target passes");
        let sync = ValidatorMessage::Rbc(RbcMessage::SyncResponse(vec![(target_vertex, None)]));
        assert!(b.allows_inbound(&sync, 1_000_000), "sync responses heal ancestry");
        // Outbound is untouched for withholders.
        let mut b = behavior(&s, 0);
        let own = own_vertex(&c, 2, 0);
        let outputs = vec![Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(own)))];
        assert_eq!(b.process_outbound(outputs, 1_000_000).len(), 1);
    }
}
