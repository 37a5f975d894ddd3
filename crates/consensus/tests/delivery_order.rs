//! The commit engine under random delivery orders.
//!
//! `Bullshark::process_vertex` decides a candidate round's anchor slots —
//! its leader's, then the policy's earned candidates' — when a vote is
//! delivered, and starts the next commit instance right above every round
//! it orders. Three properties, on randomized DAGs (skipped authors,
//! withheld leader edges, absent leaders, earned candidates some voters
//! see late) delivered one vertex at a time in random parent-respecting
//! orders, under the static round-robin schedule, under round-robin with
//! every validator a candidate, and under HammerHead switching schedules
//! and granting candidacy every 4 rounds:
//!
//! * **the order is a function of the DAG** — [`slot_oracle`] decides
//!   every slot of a DAG from the top down, instance by instance, without
//!   any delivery order. With candidacy forced empty it is the leader-only
//!   [`leader_oracle`] the engine was held to before earned candidates;
//! * **promptness** — after every delivery the engine has committed
//!   exactly what the oracle reads off the DAG delivered so far: nothing
//!   the DAG already decides is held back, and nothing it leaves open is
//!   ordered;
//! * **order independence** — two delivery orders of one DAG agree on a
//!   common prefix of commits at every step, each commits a prefix of the
//!   finished DAG's sequence, and both end on all of it.
//!
//! Beside them, a mutation check: on a four-validator DAG where an earned
//! candidate holds `f+1` votes but not `2f+1`, the engine waits for the
//! anchor above in either delivery order, and the oracle shows that a
//! direct commit at `f+1` would fork.

use hammerhead::{HammerheadConfig, HammerheadPolicy};
use hh_consensus::{
    Bullshark, OrderedSet, RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule,
};
use hh_crypto::Digest;
use hh_dag::testkit::DagBuilder;
use hh_dag::{Dag, SubDagScratch};
use hh_types::{Committee, Round, Stake, ValidatorId, Vertex, VertexRef};
use std::collections::HashSet;
use std::sync::Arc;

/// Cases per policy.
const CASES: u64 = 256;

/// SplitMix64, seeded per case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One commit as the comparisons see it: the anchor and its sub-DAG.
type Commit = (VertexRef, Vec<Digest>);

/// A random structurally valid DAG of `rounds` rounds, shaped around the
/// schedule: an engine fed alongside tells which author leads a round and
/// who is a candidate under the schedule then in force.
///
/// * Up to `f` authors are *bad*: often absent from the rounds they lead
///   and never voting — which is what loses a slot at the next switch.
/// * Up to `f` are *slow*: in some rounds nobody links to their vertex, so
///   it hangs childless off the DAG and can be delivered long after the
///   rounds above it.
/// * In three voting rounds of four the leader's edge is rationed: either
///   `f+1` authors vote, the slow ones first, so that one late vote decides
///   the commit, or fewer do and the anchor starves. A slow author whose
///   vote decides is left childless for sure, and mostly a drought of one
///   to three starved anchors follows — otherwise the next anchor commits
///   first and sweeps the waiting one in.
/// * Each earned candidate of a candidate round is seen late by none, one,
///   `f` or a random number of the round above's authors, who leave it
///   out: its votes fall short of the quorum that commits it directly, and
///   sometimes of `f+1` too, so the anchor above decides it.
///
/// Every vertex keeps a quorum of parents; what an author may leave out is
/// taken in the order above.
fn random_dag<P: SchedulePolicy>(
    committee: &Committee,
    policy: P,
    rounds: u64,
    rng: &mut Mix,
) -> Dag {
    let n = committee.size();
    let quorum = committee.quorum_threshold().0 as usize;
    let f = n - quorum;
    let ids: Vec<ValidatorId> = committee.ids().collect();
    let slow: Vec<ValidatorId> =
        (0..rng.below(f as u64 + 1)).map(|_| ids[rng.below(n as u64) as usize]).collect();
    let mut bad: Vec<ValidatorId> = Vec::new();
    let mut pivotal: Vec<ValidatorId> = Vec::new();
    let mut drought = 0u64;

    let mut probe = Bullshark::new(committee.clone(), policy);
    let mut b = DagBuilder::new(committee.clone());
    b.extend_full_rounds(1);
    for round in 1..rounds {
        // Who is bad changes every few rounds, and it is mostly the authors
        // about to lead: the next switch takes their slots away again.
        if round % 4 == 1 {
            bad.clear();
            for k in 0..f as u64 {
                match rng.below(8) {
                    0 | 1 => {}
                    2 => bad.push(ids[rng.below(n as u64) as usize]),
                    _ => bad.push(probe.current_leader(Round(round + 1 + 2 * k))),
                }
            }
        }
        let prev: Vec<ValidatorId> =
            b.dag().round_vertices(Round(round - 1)).map(|v| v.author()).collect();
        // The probe has seen every vertex below `round`, so it knows whether
        // the round below holds candidates of the instance then current;
        // whether `round` itself will depends on votes not yet cast.
        let below = Round(round - 1);
        let leader = probe.is_candidate_round(below).then(|| probe.current_leader(below));
        let next_leader = Some(probe.current_leader(Round(round)));
        let late: Vec<(ValidatorId, Vec<ValidatorId>)> = match leader {
            Some(leader) => probe
                .policy()
                .candidates_at(below)
                .iter()
                .filter(|c| **c != leader && prev.contains(c))
                .map(|&c| {
                    let count = match rng.below(4) {
                        0 => 0,
                        1 => 1,
                        2 => f as u64,
                        _ => rng.below(n as u64),
                    };
                    (c, (0..count).map(|_| ids[rng.below(n as u64) as usize]).collect())
                })
                .collect(),
            None => Vec::new(),
        };

        let mut absent: Vec<ValidatorId> = Vec::new();
        for &id in &ids {
            let odds = if bad.contains(&id) && next_leader == Some(id) {
                8 // of 16
            } else if bad.contains(&id) || slow.contains(&id) {
                3
            } else {
                1
            };
            if rng.below(16) < odds && absent.len() < f {
                absent.push(id);
            }
        }
        let authors: Vec<ValidatorId> =
            ids.iter().copied().filter(|id| !absent.contains(id)).collect();

        let orphans: Vec<ValidatorId> = slow
            .iter()
            .copied()
            .filter(|t| prev.contains(t) && (pivotal.contains(t) || rng.below(2) == 0))
            .collect();
        let voters: Option<Vec<ValidatorId>> =
            leader.filter(|_| drought > 0 || rng.below(4) != 0).map(|_| {
                let mut by_preference: Vec<ValidatorId> =
                    authors.iter().copied().filter(|a| !bad.contains(a)).collect();
                by_preference.sort_by_key(|a| (!slow.contains(a), rng.next()));
                let count = if drought == 0 && rng.below(2) == 0 {
                    f as u64 + 1
                } else {
                    rng.below(f as u64 + 1)
                };
                by_preference.truncate(count as usize);
                by_preference
            });
        if leader.is_some() {
            drought = drought.saturating_sub(1);
        }
        pivotal = match &voters {
            Some(voters) if voters.len() == f + 1 => voters.clone(),
            _ => Vec::new(),
        };
        if pivotal.iter().any(|v| slow.contains(v)) && rng.below(4) != 0 {
            drought = 1 + rng.below(3);
        }

        let spare = prev.len() - quorum;
        let mut withheld: Vec<Vec<ValidatorId>> = vec![Vec::new(); n];
        for &author in &authors {
            let out = &mut withheld[author.index()];
            out.extend(&orphans);
            if let Some(leader) = leader.filter(|l| prev.contains(l) && !out.contains(l)) {
                let votes = match &voters {
                    Some(voters) => voters.contains(&author),
                    None => !bad.contains(&author),
                };
                if !votes {
                    out.push(leader);
                }
            }
            for (candidate, seen_late_by) in &late {
                if seen_late_by.contains(&author) && !out.contains(candidate) {
                    out.push(*candidate);
                }
            }
            for &target in &prev {
                if target != author && !out.contains(&target) && rng.below(16) == 0 {
                    out.push(target);
                }
            }
            out.truncate(spare);
        }
        b.extend_round_custom(&authors, |author| Some(withheld[author.index()].clone()));

        let mut made: Vec<_> = b.dag().round_vertices(Round(round)).cloned().collect();
        made.sort_by_key(|v| v.author());
        for v in &made {
            probe.process_vertex(v, b.dag());
        }
    }
    b.into_dag()
}

/// A random order of `full`'s vertices in which every vertex follows its
/// parents. Authors draw a weight of 8, 64 or 512, so some run far ahead of
/// others, and in half the orders a vertex nobody links to waits at weight
/// 1 whoever wrote it: votes arrive long after the rounds above them.
fn delivery_order(full: &Dag, rng: &mut Mix) -> Vec<Arc<Vertex>> {
    let n = full.committee().size();
    let weight: Vec<u64> = (0..n).map(|_| 8 << (3 * rng.below(3))).collect();
    let top = full.highest_round().expect("non-empty").0;
    let mut pending: Vec<Arc<Vertex>> =
        (0..=top).flat_map(|r| full.round_vertices(Round(r)).cloned()).collect();
    let linked: HashSet<Digest> =
        pending.iter().flat_map(|v| v.parents().iter().copied()).collect();
    let hold_childless = rng.below(2) == 0;
    let weight_of = |v: &Vertex| {
        if hold_childless && !linked.contains(&v.digest()) {
            1
        } else {
            weight[v.author().index()]
        }
    };

    let mut delivered: HashSet<Digest> = HashSet::new();
    let mut order = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|i| pending[*i].parents().iter().all(|p| delivered.contains(p)))
            .collect();
        let total: u64 = ready.iter().map(|i| weight_of(&pending[*i])).sum();
        let mut ticket = rng.below(total);
        let pick = *ready
            .iter()
            .find(|i| {
                let w = weight_of(&pending[**i]);
                if ticket < w {
                    true
                } else {
                    ticket -= w;
                    false
                }
            })
            .expect("a ticket below the total lands on someone");
        let v = pending.swap_remove(pick);
        delivered.insert(v.digest());
        order.push(v);
    }
    order
}

/// One validator's view: a DAG that grows by one vertex per delivery and
/// the engine fed from it.
struct Run<P: SchedulePolicy> {
    dag: Dag,
    engine: Bullshark<P>,
    commits: Vec<Commit>,
    /// Commits that ordered more than one anchor of their round.
    multi_slot: usize,
}

impl<P: SchedulePolicy> Run<P> {
    fn new(committee: &Committee, policy: P) -> Self {
        Run {
            dag: Dag::new(committee.clone()),
            engine: Bullshark::new(committee.clone(), policy),
            commits: Vec::new(),
            multi_slot: 0,
        }
    }

    fn deliver(&mut self, v: &Arc<Vertex>) {
        self.dag.try_insert_arc(v.clone()).expect("parents were delivered first");
        for sd in self.engine.process_vertex(v, &self.dag) {
            let anchors = sd.vertices.iter().filter(|v| v.round() == sd.anchor.round).count();
            self.multi_slot += usize::from(anchors > 1);
            self.commits.push((sd.anchor, sd.vertices.iter().map(|v| v.digest()).collect()));
        }
    }
}

/// A slot as the oracle decides it: `None` undecided, `Some(None)` skip,
/// `Some(Some(v))` commit.
type Slot<'d> = Option<Option<&'d Arc<Vertex>>>;

/// The commit sequence of the DAG `dag`, finished or partly delivered,
/// derived without any delivery order, committing an earned slot directly at `earned_direct`
/// vote stake (the quorum threshold; lower it to see what breaks).
/// Instance by instance, every slot of every candidate round is decided
/// from the top down — the direct rules first, then the first non-skipped
/// slot above as the anchor — and the lowest round with a committed slot
/// and nothing undecided up to it is ordered, with the next instance one
/// round above it; or the policy switches schedules at its first anchor,
/// after which the same instance is decided again under the new schedule.
/// Written over the public `Dag` queries only, with causal histories
/// where the engine walks parent masks; `process_vertex` must agree with
/// it.
fn slot_oracle<P: SchedulePolicy>(dag: &Dag, mut policy: P, earned_direct: Stake) -> Vec<Commit> {
    let committee = dag.committee();
    let (validity, quorum) = (committee.validity_threshold(), committee.quorum_threshold());
    let top = dag.highest_round().expect("non-empty").0;
    let stake_of = |voters: &mut dyn Iterator<Item = &Arc<Vertex>>| -> Stake {
        voters.map(|w| committee.stake_of(w.author())).sum()
    };
    // Per round `r` below the top, whatever the instance: round `r+1`'s
    // stake, and per author the stake of round-`r+1` vertices linking to
    // its round-`r` vertex.
    let tally: Vec<(Stake, Vec<Stake>)> = (0..top)
        .map(|r| {
            let voting = || dag.round_vertices(Round(r + 1));
            let votes = committee
                .ids()
                .map(|a| stake_of(&mut voting().filter(|w| dag.links_to_author(w, a))))
                .collect();
            (stake_of(&mut voting()), votes)
        })
        .collect();
    let mut ordered = OrderedSet::new(committee.size());
    let mut scratch = SubDagScratch::new();
    let mut commits = Vec::new();
    let mut instance_start = 0u64;
    'instances: loop {
        // Top down: `above` is the anchor for the round being decided, and
        // `history` its causal history once a slot needed it.
        let mut decided: Vec<(u64, Vec<Slot>)> = Vec::new();
        let mut above: Option<&Arc<Vertex>> = None;
        let mut history: Option<HashSet<Digest>> = None;
        let rounds: Vec<u64> = (instance_start..top).step_by(2).collect();
        for r in rounds.into_iter().rev() {
            let leader = policy.leader_at(Round(r));
            let mut slots = vec![(true, leader)];
            slots.extend(
                policy
                    .candidates_at(Round(r))
                    .iter()
                    .filter(|c| **c != leader)
                    .map(|c| (false, *c)),
            );
            let round: Vec<Slot> = slots
                .into_iter()
                .map(|(leads, author)| {
                    let v = dag.vertex_by_author(Round(r), author);
                    let (voting, votes) = &tally[r as usize];
                    let votes = votes[author.index()];
                    let others = Stake(voting.0 - votes.0);
                    match v {
                        Some(v) if leads && votes >= validity => return Some(Some(v)),
                        Some(v) if !leads && votes >= earned_direct => return Some(Some(v)),
                        _ if !leads && others >= quorum => return Some(None),
                        _ => {}
                    }
                    let anchor = above?;
                    let Some(v) = v else {
                        return Some(None);
                    };
                    let seen = history.get_or_insert_with(|| {
                        dag.causal_history(anchor).iter().map(|v| v.digest()).collect()
                    });
                    if leads {
                        Some(seen.contains(&v.digest()).then_some(v))
                    } else {
                        let seen_votes =
                            stake_of(&mut dag.round_vertices(Round(r + 1)).filter(|w| {
                                seen.contains(&w.digest()) && dag.links_to_author(w, author)
                            }));
                        Some((seen_votes >= validity).then_some(v))
                    }
                })
                .collect();
            match round.iter().find(|slot| !matches!(slot, Some(None))) {
                Some(Some(Some(v))) => (above, history) = (Some(*v), None),
                Some(_) => (above, history) = (None, None),
                None => {}
            }
            decided.push((r, round));
        }
        for (r, round) in decided.iter().rev() {
            if round.iter().any(Option::is_none) {
                return commits;
            }
            let anchors: Vec<&Arc<Vertex>> =
                round.iter().filter_map(|slot| slot.flatten()).collect();
            let Some(first) = anchors.first() else {
                continue;
            };
            if policy.before_order_anchor(first, dag, &ordered) == ScheduleDecision::Switched {
                continue 'instances;
            }
            let mut vertices = Vec::new();
            for anchor in &anchors {
                for v in dag.causal_sub_dag_with(anchor, |v| ordered.contains(v), &mut scratch) {
                    ordered.insert(&v);
                    policy.on_vertex_ordered(&v, dag, &ordered);
                    vertices.push(v.digest());
                }
            }
            commits.push((first.reference(), vertices));
            instance_start = r + 1;
            continue 'instances;
        }
        return commits;
    }
}

/// The leader-only commit sequence the engine was held to before earned
/// candidates: instance by instance, the lowest candidate holding `f+1`
/// votes, the walk back from it over the instance's candidates, the
/// earliest anchor the walk reaches — ordered, with the next instance one
/// round above it, or the point of a schedule switch.
fn leader_oracle<P: SchedulePolicy>(dag: &Dag, mut policy: P) -> Vec<Commit> {
    let threshold = dag.committee().validity_threshold();
    let top = dag.highest_round().expect("non-empty").0;
    let mut ordered = OrderedSet::new(dag.committee().size());
    let mut scratch = SubDagScratch::new();
    let mut commits = Vec::new();
    let mut instance_start = 0u64;
    let candidate = |r: u64, policy: &P| dag.vertex_by_author(Round(r), policy.leader_at(Round(r)));
    loop {
        let direct = (instance_start..=top)
            .step_by(2)
            .find(|r| candidate(*r, &policy).is_some_and(|a| dag.vote_stake(a) >= threshold));
        let Some(direct) = direct else {
            return commits;
        };
        let mut earliest = candidate(direct, &policy).expect("found above");
        let mut r = direct;
        while r > instance_start {
            r -= 2;
            if let Some(prev) = candidate(r, &policy).filter(|prev| dag.reachable(earliest, prev)) {
                earliest = prev;
            }
        }
        if policy.before_order_anchor(earliest, dag, &ordered) == ScheduleDecision::Switched {
            continue;
        }
        let vertices = dag.causal_sub_dag_with(earliest, |v| ordered.contains(v), &mut scratch);
        for v in &vertices {
            ordered.insert(v);
            policy.on_vertex_ordered(v, dag, &ordered);
        }
        commits.push((earliest.reference(), vertices.iter().map(|v| v.digest()).collect()));
        instance_start = earliest.round().0 + 1;
    }
}

/// `P` with candidacy forced empty: leaders only.
struct NoCandidates<P>(P);

impl<P: SchedulePolicy> SchedulePolicy for NoCandidates<P> {
    fn leader_at(&self, round: Round) -> ValidatorId {
        self.0.leader_at(round)
    }
    fn initial_round(&self) -> Round {
        self.0.initial_round()
    }
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }
    fn before_order_anchor(&mut self, a: &Vertex, d: &Dag, o: &OrderedSet) -> ScheduleDecision {
        self.0.before_order_anchor(a, d, o)
    }
    fn on_vertex_ordered(&mut self, v: &Vertex, d: &Dag, o: &OrderedSet) {
        self.0.on_vertex_ordered(v, d, o)
    }
}

/// Round-robin leaders, and every validator named in `candidates` a
/// candidate in every round.
struct Everyone {
    leaders: RoundRobinPolicy,
    candidates: Vec<ValidatorId>,
}

impl Everyone {
    fn new(c: &Committee, candidates: &[u16]) -> Self {
        Everyone {
            leaders: RoundRobinPolicy::new(SlotSchedule::round_robin(c)),
            candidates: candidates.iter().map(|i| ValidatorId(*i)).collect(),
        }
    }
}

impl SchedulePolicy for Everyone {
    fn leader_at(&self, round: Round) -> ValidatorId {
        self.leaders.leader_at(round)
    }
    fn candidates_at(&self, _round: Round) -> &[ValidatorId] {
        &self.candidates
    }
    fn initial_round(&self) -> Round {
        Round(0)
    }
    fn epoch(&self) -> u64 {
        0
    }
    fn before_order_anchor(&mut self, _: &Vertex, _: &Dag, _: &OrderedSet) -> ScheduleDecision {
        ScheduleDecision::Continue
    }
    fn on_vertex_ordered(&mut self, _: &Vertex, _: &Dag, _: &OrderedSet) {}
}

/// One case: a random DAG, the oracle's reading of it, two delivery orders
/// of it. Returns the number of commits and of those with more than one
/// anchor, so the caller can tell the cases were not vacuous.
fn check_case<P: SchedulePolicy>(
    make: impl Fn(&Committee) -> P,
    name: &str,
    seed: u64,
) -> (usize, usize) {
    let case = format!("{name} case {seed}");
    let mut rng = Mix(seed);
    let committee = Committee::new_equal_stake(if rng.below(4) == 0 { 4 } else { 7 });
    let rounds = 13 + rng.below(12);
    let full = random_dag(&committee, make(&committee), rounds, &mut rng);
    let order_a = delivery_order(&full, &mut rng);
    let order_b = delivery_order(&full, &mut rng);
    let quorum = committee.quorum_threshold();
    let oracle = slot_oracle(&full, make(&committee), quorum);
    assert_eq!(
        slot_oracle(&full, NoCandidates(make(&committee)), quorum),
        leader_oracle(&full, make(&committee)),
        "{case}: leaders only, the slot oracle is not the leader oracle"
    );

    let mut a = Run::new(&committee, make(&committee));
    let mut b = Run::new(&committee, make(&committee));
    for (va, vb) in order_a.iter().zip(&order_b) {
        for (run, v) in [(&mut a, va), (&mut b, vb)] {
            run.deliver(v);
            assert_eq!(
                run.commits,
                slot_oracle(&run.dag, make(&committee), quorum),
                "{case}: after {:?}, not the order of the DAG delivered so far",
                v.reference()
            );
        }
        let common = a.commits.len().min(b.commits.len());
        assert_eq!(a.commits[..common], b.commits[..common], "{case}: the two orders diverged");
        assert!(a.commits.len() <= oracle.len(), "{case}: more commits than the DAG holds");
        assert_eq!(a.commits[..], oracle[..a.commits.len()], "{case}: not the DAG's order");
    }
    assert_eq!(a.commits, b.commits, "{case}: the two orders end apart");
    assert_eq!(a.engine.chain_hash(), b.engine.chain_hash(), "{case}");
    assert_eq!(a.engine.committed_anchors(), b.engine.committed_anchors(), "{case}");
    assert_eq!(a.engine.passed_over_candidates(), b.engine.passed_over_candidates(), "{case}");
    assert_eq!(a.commits, oracle, "{case}: the finished DAG holds more commits");
    (a.commits.len(), a.multi_slot)
}

/// Runs every case under one policy; returns the share of commits that
/// ordered more than one anchor.
fn check_policy<P: SchedulePolicy>(make: impl Fn(&Committee) -> P, name: &str) -> f64 {
    let (commits, multi_slot) = (0..CASES)
        .map(|seed| check_case(&make, name, seed))
        .fold((0, 0), |(c, m), (dc, dm)| (c + dc, m + dm));
    assert!(commits as u64 > 4 * CASES, "{name}: only {commits} commits in {CASES} cases");
    multi_slot as f64 / commits as f64
}

#[test]
fn round_robin_commits_promptly_in_one_order() {
    let multi_slot =
        check_policy(|c| RoundRobinPolicy::new(SlotSchedule::round_robin(c)), "round-robin");
    assert_eq!(multi_slot, 0.0);
}

#[test]
fn every_candidate_commits_promptly_in_one_order() {
    let all = |c: &Committee| (0..c.size() as u16).rev().collect::<Vec<_>>();
    let multi_slot = check_policy(|c| Everyone::new(c, &all(c)), "every-candidate");
    assert!(multi_slot > 0.5, "{multi_slot}");
}

#[test]
fn hammerhead_commits_promptly_in_one_order() {
    let policy = |c: &Committee| {
        HammerheadPolicy::new(
            c.clone(),
            HammerheadConfig { period_rounds: 4, ..HammerheadConfig::default() },
        )
    };
    // The committee earns candidacy in some epochs only: about one commit
    // in eleven orders more than its leader.
    let multi_slot = check_policy(policy, "hammerhead");
    assert!(multi_slot > 0.05, "{multi_slot}");
}

/// Rounds 0..=5 of four validators (`f = 1`), v3 a candidate in every
/// round. Round 2's leader is v1, and v3's round-2 vertex gets `f+1 = 2`
/// votes from round 3: v0's, which round 4 then leaves out, and v1's; v2
/// and v3 do not link it. So round 4's leader, the anchor above, holds one
/// of the two votes in its history.
fn split_vote_dag() -> (Committee, Dag, Arc<Vertex>) {
    let c = Committee::new_equal_stake(4);
    let mut b = DagBuilder::new(c.clone());
    b.extend_full_rounds(3); // rounds 0..=2
    let ids: Vec<ValidatorId> = c.ids().collect();
    b.extend_round_custom(&ids, |a| (a.0 >= 2).then(|| vec![ValidatorId(3)])); // round 3
    b.extend_round_excluding(&[ValidatorId(0)]); // round 4
    b.extend_full_rounds(1); // round 5
    let late_voter = b.dag().vertex_by_author(Round(3), ValidatorId(0)).unwrap().clone();
    (c, b.into_dag(), late_voter)
}

#[test]
fn an_earned_candidate_with_f_plus_1_votes_waits_for_the_anchor_in_any_order() {
    let (c, full, late_voter) = split_vote_dag();
    let candidate = full.vertex_by_author(Round(2), ValidatorId(3)).unwrap();
    assert_eq!(full.vote_stake(candidate), c.validity_threshold());
    assert!(full.vote_stake(candidate) < c.quorum_threshold());

    // Order A: (round, author); v0's round-3 vote arrives before round 4.
    // Order B: the same with that vote last.
    let order_a: Vec<Arc<Vertex>> =
        (0..=5).flat_map(|r| full.round_vertices(Round(r)).cloned()).collect();
    let mut order_b: Vec<Arc<Vertex>> =
        order_a.iter().filter(|v| v.digest() != late_voter.digest()).cloned().collect();
    order_b.push(late_voter);

    let mut ends = Vec::new();
    for order in [order_a, order_b] {
        let mut run = Run::new(&c, Everyone::new(&c, &[3]));
        let mut anchor_voted = false;
        for v in &order {
            run.deliver(v);
            // Until round 5 votes for round 4's leader, round 2 stays
            // undecided: its leader holds four votes, v3 two of them.
            anchor_voted |= v.round() == Round(5);
            if !anchor_voted {
                assert!(
                    run.commits.iter().all(|(a, _)| a.round < Round(2)),
                    "round 2 ordered early"
                );
            }
        }
        // The anchor holds one vote for v3's vertex in its history: skip.
        assert!(run.commits[2].1.iter().all(|d| *d != candidate.digest()));
        assert_eq!(run.commits, slot_oracle(&full, Everyone::new(&c, &[3]), c.quorum_threshold()));
        ends.push(run.commits);
    }
    assert_eq!(ends[0], ends[1]);
}

#[test]
fn a_direct_commit_at_f_plus_1_votes_would_fork() {
    // Two views of one DAG: a validator that has v0's round-3 vote, and one
    // that does not yet — the anchor above leaves it out, so the second
    // view is a valid state on the way to the first.
    let (c, full, late_voter) = split_vote_dag();
    let mut without = Dag::new(c.clone());
    for v in (0..=5).flat_map(|r| full.round_vertices(Round(r))) {
        if v.digest() != late_voter.digest() {
            without.try_insert_arc(v.clone()).unwrap();
        }
    }
    let commits = |dag: &Dag, direct: Stake| slot_oracle(dag, Everyone::new(&c, &[3]), direct);
    let is_prefix = |a: &[Commit], b: &[Commit]| a.len() <= b.len() && a == &b[..a.len()];

    // The rule: quorum votes commit directly, and the view without the
    // vote commits a prefix of what the full view commits.
    let (seen, unseen) =
        (commits(&full, c.quorum_threshold()), commits(&without, c.quorum_threshold()));
    assert!(is_prefix(&unseen, &seen), "the rule forks");

    // The mutation: f+1 votes commit directly. The full view commits v3's
    // round-2 vertex at once; the other decides it by the anchor, whose
    // history holds one vote, and skips it. Round 2's commits differ.
    let (seen, unseen) =
        (commits(&full, c.validity_threshold()), commits(&without, c.validity_threshold()));
    assert_ne!(seen[2], unseen[2]);
    assert!(!is_prefix(&unseen, &seen) && !is_prefix(&seen, &unseen));
}
