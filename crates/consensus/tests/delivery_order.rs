//! The commit engine under random delivery orders.
//!
//! `Bullshark::process_vertex` evaluates the commit rule when a vote is
//! delivered, and starts the next commit instance right above every
//! anchor it orders. Three properties, on randomized DAGs (skipped
//! authors, withheld leader edges, absent leaders) delivered one vertex at
//! a time in random parent-respecting orders, under the static round-robin
//! schedule and under HammerHead switching schedules every 4 rounds:
//!
//! * **promptness** — after every call, no candidate round of the current
//!   instance has an active-schedule leader vertex that is in the DAG,
//!   unordered, and holds `f+1` votes;
//! * **order independence** — two delivery orders of one DAG agree on a
//!   common prefix of commits at every step and on everything at the end;
//! * **the order is a function of the DAG** — [`instance_oracle`] derives
//!   the commits from the finished DAG alone, instance by instance (the
//!   lowest candidate with `f+1` votes, the walk back from it, the earliest
//!   anchor reached, the next instance one round above that), and every
//!   delivery order commits a prefix of that sequence and ends on all of it.

use hammerhead::{HammerheadConfig, HammerheadPolicy};
use hh_consensus::{
    Bullshark, OrderedSet, RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule,
};
use hh_crypto::Digest;
use hh_dag::testkit::DagBuilder;
use hh_dag::{Dag, SubDagScratch};
use hh_types::{Committee, Round, ValidatorId, Vertex, VertexRef};
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
/// schedule: an engine fed alongside tells which author leads a round
/// under the schedule then in force.
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
        // the round below holds a candidate of the instance then current;
        // whether `round` itself will depends on votes not yet cast.
        let below = Round(round - 1);
        let leader = probe.is_candidate_round(below).then(|| probe.current_leader(below));
        let next_leader = Some(probe.current_leader(Round(round)));

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
}

impl<P: SchedulePolicy> Run<P> {
    fn new(committee: &Committee, policy: P) -> Self {
        Run {
            dag: Dag::new(committee.clone()),
            engine: Bullshark::new(committee.clone(), policy),
            commits: Vec::new(),
        }
    }

    fn deliver(&mut self, v: &Arc<Vertex>, case: &str) {
        self.dag.try_insert_arc(v.clone()).expect("parents were delivered first");
        for sd in self.engine.process_vertex(v, &self.dag) {
            self.commits.push((sd.anchor, sd.vertices.iter().map(|v| v.digest()).collect()));
        }
        self.assert_prompt(v, case);
    }

    /// The promptness invariant.
    fn assert_prompt(&self, after: &Vertex, case: &str) {
        let threshold = self.dag.committee().validity_threshold();
        let top = self.dag.highest_round().expect("non-empty").0;
        for r in (0..=top).filter(|r| self.engine.is_candidate_round(Round(*r))) {
            let leader = self.engine.current_leader(Round(r));
            if let Some(anchor) = self.dag.vertex_by_author(Round(r), leader) {
                assert!(
                    self.engine.is_ordered(anchor)
                        || self.dag.vote_stake(&anchor.digest()) < threshold,
                    "{case}: after {:?} the round-{r} anchor of {leader} holds f+1 votes, unordered",
                    after.reference(),
                );
            }
        }
    }
}

/// The commit sequence of the finished DAG `dag`, derived without any
/// delivery order: instance by instance, the lowest candidate holding
/// `f+1` votes, the walk back from it over the instance's candidates, the
/// earliest anchor the walk reaches — ordered, with the next instance one
/// round above it, or the point of a schedule switch, after which the same
/// instance is read again under the new schedule. Written over the public
/// `Dag` queries only; the reference `process_vertex` must agree with.
fn instance_oracle<P: SchedulePolicy>(dag: &Dag, mut policy: P) -> Vec<Commit> {
    let threshold = dag.committee().validity_threshold();
    let top = dag.highest_round().expect("non-empty").0;
    let mut ordered = OrderedSet::new(dag.committee().size());
    let mut scratch = SubDagScratch::new();
    let mut commits = Vec::new();
    let mut instance_start = 0u64;
    let candidate = |r: u64, policy: &P| dag.vertex_by_author(Round(r), policy.leader_at(Round(r)));
    loop {
        let direct = (instance_start..=top).step_by(2).find(|r| {
            candidate(*r, &policy).is_some_and(|a| dag.vote_stake(&a.digest()) >= threshold)
        });
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
        let vertices =
            dag.causal_sub_dag_with(earliest, |d| ordered.contains_digest(dag, d), &mut scratch);
        for v in &vertices {
            ordered.insert(v);
            policy.on_vertex_ordered(v, dag);
        }
        commits.push((earliest.reference(), vertices.iter().map(|v| v.digest()).collect()));
        instance_start = earliest.round().0 + 1;
    }
}

/// One case: a random DAG, the oracle's reading of it, two delivery orders
/// of it. Returns the number of commits, so the caller can tell the cases
/// were not vacuous.
fn check_case<P: SchedulePolicy>(make: impl Fn(&Committee) -> P, name: &str, seed: u64) -> usize {
    let case = format!("{name} case {seed}");
    let mut rng = Mix(seed);
    let committee = Committee::new_equal_stake(if rng.below(4) == 0 { 4 } else { 7 });
    let rounds = 13 + rng.below(12);
    let full = random_dag(&committee, make(&committee), rounds, &mut rng);
    let order_a = delivery_order(&full, &mut rng);
    let order_b = delivery_order(&full, &mut rng);
    let oracle = instance_oracle(&full, make(&committee));

    let mut a = Run::new(&committee, make(&committee));
    let mut b = Run::new(&committee, make(&committee));
    for (va, vb) in order_a.iter().zip(&order_b) {
        a.deliver(va, &case);
        b.deliver(vb, &case);
        let common = a.commits.len().min(b.commits.len());
        assert_eq!(a.commits[..common], b.commits[..common], "{case}: the two orders diverged");
        assert!(a.commits.len() <= oracle.len(), "{case}: more commits than the DAG holds");
        assert_eq!(a.commits[..], oracle[..a.commits.len()], "{case}: not the DAG's order");
    }
    assert_eq!(a.commits, b.commits, "{case}: the two orders end apart");
    assert_eq!(a.engine.chain_hash(), b.engine.chain_hash(), "{case}");
    assert_eq!(a.engine.committed_anchors(), b.engine.committed_anchors(), "{case}");
    assert_eq!(a.commits, oracle, "{case}: the finished DAG holds more commits");
    a.commits.len()
}

fn check_policy<P: SchedulePolicy>(make: impl Fn(&Committee) -> P, name: &str) {
    let commits: usize = (0..CASES).map(|seed| check_case(&make, name, seed)).sum();
    assert!(commits as u64 > 4 * CASES, "{name}: only {commits} commits in {CASES} cases");
}

#[test]
fn round_robin_commits_promptly_in_one_order() {
    check_policy(|c| RoundRobinPolicy::new(SlotSchedule::round_robin(c)), "round-robin");
}

#[test]
fn hammerhead_commits_promptly_in_one_order() {
    let policy = |c: &Committee| {
        HammerheadPolicy::new(
            c.clone(),
            HammerheadConfig { period_rounds: 4, ..HammerheadConfig::default() },
        )
    };
    check_policy(policy, "hammerhead");
}
