//! Property tests pinning the indexed DAG queries to digest-walking
//! oracles.
//!
//! The store addresses vertices by `(round, author)` and answers
//! `reachable` with a frontier-mask descent, `causal_sub_dag` with a
//! level walk over per-vertex parent masks and `vote_stake` with one bit
//! probe per row of the round above. All three are checked here against
//! independent implementations that work the way the pre-index store did
//! — over digests and parent lists through the public API — on randomized
//! DAGs with skipped authors, withheld edges, multi-round gaps, GC below
//! the anchor, equivocation attempts and foreign vertices, at committee
//! sizes either side of the 64-author mask word — and on DAGs that share
//! vertex allocations, and so parent masks, with each other.

use hh_crypto::Digest;
use hh_dag::testkit::{twin_of, DagBuilder};
use hh_dag::{Dag, DagError, InsertOutcome};
use hh_types::codec::{decode_from_slice, encode_to_vec};
use hh_types::{Block, Committee, Round, Stake, ValidatorId, Vertex};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// SplitMix64 — the shape generator, seeded per case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// Builds a random structurally valid DAG: every round may drop up to
/// `f` authors entirely (crash shape — consecutive drops of the same
/// author produce multi-round gaps) and every present author may
/// withhold edges to a few previous-round vertices (vote-withholding
/// shape), always keeping parent stake at quorum.
fn random_dag(n: usize, rounds: usize, seed: u64) -> Dag {
    let committee = Committee::new_equal_stake(n);
    let quorum = committee.quorum_threshold().0 as usize;
    let f = n - quorum;
    let mut rng = Mix(seed);
    let mut b = DagBuilder::new(committee.clone());
    b.extend_full_rounds(1);
    let mut prev_present = n;
    for _ in 1..rounds {
        let absent_count = rng.below(f as u64 + 1) as usize;
        let mut absent: Vec<ValidatorId> = Vec::new();
        while absent.len() < absent_count {
            let candidate = ValidatorId(rng.below(n as u64) as u16);
            if !absent.contains(&candidate) {
                absent.push(candidate);
            }
        }
        let authors: Vec<ValidatorId> = committee.ids().filter(|id| !absent.contains(id)).collect();
        // Each author may exclude up to `prev_present - quorum` parents.
        let budget = prev_present - quorum;
        let mut exclusions: Vec<Vec<ValidatorId>> = Vec::new();
        for _ in &authors {
            let count = rng.below(budget as u64 + 1) as usize;
            let mut excluded = Vec::new();
            while excluded.len() < count {
                let candidate = ValidatorId(rng.below(n as u64) as u16);
                if !excluded.contains(&candidate) {
                    excluded.push(candidate);
                }
            }
            exclusions.push(excluded);
        }
        let authors_for_closure = authors.clone();
        b.extend_round_custom(&authors, move |author| {
            let idx = authors_for_closure.iter().position(|a| *a == author).expect("author");
            Some(exclusions[idx].clone())
        });
        prev_present = authors.len();
    }
    b.into_dag()
}

/// The pre-index reachability: BFS over digests through the public API.
fn reachable_oracle(dag: &Dag, from: &Vertex, to: &Vertex) -> bool {
    if from.digest() == to.digest() {
        return true;
    }
    if from.round() <= to.round() {
        return false;
    }
    let target_round = to.round();
    let target = to.digest();
    let mut frontier: VecDeque<&Arc<Vertex>> = VecDeque::new();
    let mut seen: HashSet<Digest> = HashSet::new();
    for parent in from.parents() {
        if let Some(pv) = dag.get(parent) {
            if seen.insert(*parent) {
                frontier.push_back(pv);
            }
        }
    }
    while let Some(v) = frontier.pop_front() {
        if v.digest() == target {
            return true;
        }
        if v.round() <= target_round {
            continue;
        }
        for parent in v.parents() {
            if let Some(pv) = dag.get(parent) {
                if pv.round() >= target_round && seen.insert(*parent) {
                    frontier.push_back(pv);
                }
            }
        }
    }
    false
}

/// The pre-index sub-DAG traversal: BFS over digests, then the
/// deterministic `(round, author)` sort its consumers used to apply.
fn causal_sub_dag_oracle(
    dag: &Dag,
    anchor: &Vertex,
    is_ordered: impl Fn(&Digest) -> bool,
) -> Vec<Arc<Vertex>> {
    let mut out = Vec::new();
    let mut seen: HashSet<Digest> = HashSet::new();
    let mut frontier: VecDeque<Arc<Vertex>> = VecDeque::new();
    if let Some(a) = dag.get(&anchor.digest()) {
        if !is_ordered(&a.digest()) {
            seen.insert(a.digest());
            frontier.push_back(a.clone());
        }
    }
    while let Some(v) = frontier.pop_front() {
        for parent in v.parents() {
            if let Some(pv) = dag.get(parent) {
                if !is_ordered(parent) && seen.insert(*parent) {
                    frontier.push_back(pv.clone());
                }
            }
        }
        out.push(v);
    }
    out.sort_by_key(|v| (v.round(), v.author()));
    out
}

/// The votes for `target` by digest scan: the stake of the next round's
/// vertices whose parent list names it.
fn vote_stake_oracle(dag: &Dag, target: &Vertex) -> Stake {
    dag.round_vertices(target.round().next())
        .filter(|v| v.has_parent(&target.digest()))
        .map(|v| dag.committee().stake_of(v.author()))
        .sum()
}

fn all_vertices(dag: &Dag) -> Vec<Arc<Vertex>> {
    let mut out = Vec::new();
    let mut r = dag.gc_round();
    while let Some(top) = dag.highest_round() {
        if r > top {
            break;
        }
        out.extend(dag.round_vertices(r).cloned());
        r = r.next();
    }
    out
}

fn digests(vs: &[Arc<Vertex>]) -> Vec<Digest> {
    vs.iter().map(|v| v.digest()).collect()
}

fn pick<'a>(vertices: &'a [Arc<Vertex>], rng: &mut Mix) -> &'a Arc<Vertex> {
    &vertices[rng.below(vertices.len() as u64) as usize]
}

/// Checks every query of `dag` against the oracles: pairwise over all
/// stored vertices where that is affordable; at the wide committees a
/// seeded sample of `from`s, each against the whole round below it (every
/// bit of its parent mask) and a few arbitrary targets (the descent).
fn check_dag(dag: &Dag, rng: &mut Mix) {
    let vertices = all_vertices(dag);
    let exhaustive = vertices.len() <= 80;

    let mut pairs: Vec<(&Arc<Vertex>, &Arc<Vertex>)> = Vec::new();
    if exhaustive {
        pairs.extend(vertices.iter().flat_map(|from| vertices.iter().map(move |to| (from, to))));
    } else {
        for _ in 0..6 {
            let from = pick(&vertices, rng);
            let below = vertices.iter().filter(|to| to.round().next() == from.round());
            pairs.extend(below.map(|to| (from, to)));
            pairs.extend((0..4).map(|_| (from, pick(&vertices, rng))));
        }
    }
    for (from, to) in pairs {
        assert_eq!(
            dag.reachable(from, to),
            reachable_oracle(dag, from, to),
            "mask descent vs oracle: {from} -> {to}"
        );
    }

    let targets: Vec<&Arc<Vertex>> = if exhaustive {
        vertices.iter().collect()
    } else {
        (0..32).map(|_| pick(&vertices, rng)).collect()
    };
    for target in targets {
        assert_eq!(
            dag.vote_stake(&target.digest()),
            vote_stake_oracle(dag, target),
            "parent-mask votes vs parent-list scan: {target}"
        );
    }

    // Sub-DAG equivalence from vertices of the top two rounds, under
    // (a) nothing ordered, (b) a committed prefix below a random round
    // plus random extra ordered vertices.
    let top = dag.highest_round().expect("non-empty");
    let prefix = Round(dag.gc_round().0 + rng.below(top.0 - dag.gc_round().0 + 1));
    let mut ordered: HashSet<Digest> =
        vertices.iter().filter(|v| v.round() < prefix).map(|v| v.digest()).collect();
    for v in &vertices {
        if rng.below(8) == 0 {
            ordered.insert(v.digest());
        }
    }
    let mut anchors: Vec<&Arc<Vertex>> =
        vertices.iter().filter(|v| v.round().0 + 1 >= top.0).collect();
    if !exhaustive {
        anchors = (0..4).map(|_| anchors[rng.below(anchors.len() as u64) as usize]).collect();
    }
    for anchor in anchors {
        let fresh = dag.causal_sub_dag(anchor, |_| false);
        assert_eq!(
            digests(&fresh),
            digests(&causal_sub_dag_oracle(dag, anchor, |_| false)),
            "full history from {anchor}"
        );
        let pruned = dag.causal_sub_dag(anchor, |d| ordered.contains(d));
        assert_eq!(
            digests(&pruned),
            digests(&causal_sub_dag_oracle(dag, anchor, |d| ordered.contains(d))),
            "pruned history from {anchor} (prefix {prefix})"
        );
    }
}

/// `links_to_author` of every vertex in `round`, for every committee
/// author in id order.
fn links_of_round(dag: &Dag, round: Round) -> Vec<bool> {
    let mut links = Vec::new();
    for v in dag.round_vertices(round) {
        links.extend(dag.committee().ids().map(|author| dag.links_to_author(v, author)));
    }
    links
}

/// A fresh allocation of `v`'s content, `decode(encode(v))`: it carries no
/// parent mask stored by a DAG that holds `v`.
fn private_copy(v: &Vertex) -> Arc<Vertex> {
    Arc::new(decode_from_slice(&encode_to_vec(v)).expect("a vertex round-trips"))
}

/// The pre-index vote edge test: a parent scan of `v` against the stored
/// `(round, author)` vertex of the round below, resolved in `full` (a DAG
/// nothing was collected from) when `dag` stores `v` and in `dag` itself
/// when `v` is foreign to it.
fn links_oracle(dag: &Dag, full: &Dag, v: &Vertex, author: ValidatorId) -> bool {
    let resolver = if dag.contains(&v.digest()) { full } else { dag };
    resolver
        .vertex_by_author(v.round().prev(), author)
        .is_some_and(|linked| v.has_parent(&linked.digest()))
}

/// `(committee size, rounds)`: small committees up to 10 rounds deep,
/// where every pair is checked, and 65 / 100 / 130 authors — masks of two
/// and three words, with 1, 36 and 2 bits in the last — kept shallow so
/// the digest-walking oracles stay affordable.
fn shape(min_rounds: usize) -> impl Strategy<Value = (usize, usize)> {
    (0usize..9, 0usize..64).prop_map(move |(i, r)| {
        let n = [4, 5, 6, 7, 5, 7, 65, 100, 130][i];
        let max_rounds = if n > 64 { 6 } else { 11 };
        (n, min_rounds + r % (max_rounds - min_rounds))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized shapes: skipped authors, withheld edges, multi-round
    /// gaps. The mask-descent `reachable` and the level-walk
    /// `causal_sub_dag` must match the digest-BFS oracles exactly.
    fn indexed_queries_match_oracles(shape in shape(2), seed in any::<u64>()) {
        let (n, rounds) = shape;
        let dag = random_dag(n, rounds, seed);
        check_dag(&dag, &mut Mix(seed ^ 0xDEAD_BEEF));
    }

    /// GC drops whole rounds below the horizon: every query must still
    /// match the oracles on the surviving suffix, and the lowest retained
    /// round — whose parents are gone — must keep answering
    /// `links_to_author` as it did while they were stored.
    fn queries_match_oracles_after_gc(shape in shape(5), seed in any::<u64>()) {
        let (n, rounds) = shape;
        let mut dag = random_dag(n, rounds, seed);
        let mut rng = Mix(seed ^ 0x5EED);
        let horizon = Round(1 + rng.below(rounds as u64 - 2));
        let links_before = links_of_round(&dag, horizon);
        let collected = dag
            .round_vertices(horizon.prev())
            .map(|v| v.digest())
            .find(|d| dag.vote_stake(d) > Stake(0))
            .expect("the round above has parents");
        let mut scanned = Vec::new();
        for v in dag.round_vertices(horizon) {
            scanned.extend(dag.committee().ids().map(|author| {
                dag.vertex_by_author(horizon.prev(), author)
                    .is_some_and(|linked| v.has_parent(&linked.digest()))
            }));
        }
        prop_assert_eq!(&links_before, &scanned, "links_to_author vs parent scan");
        dag.gc(horizon);
        prop_assert_eq!(dag.gc_round(), horizon);
        prop_assert!(dag.round_len(horizon.prev()) == 0, "linked round is gone");
        prop_assert_eq!(links_of_round(&dag, horizon), links_before, "links_to_author across gc");
        prop_assert_eq!(dag.vote_stake(&collected), Stake(0), "a collected vertex has no votes");
        check_dag(&dag, &mut rng);
    }

    /// Equivocation duplicates are rejected without disturbing the index:
    /// the stored twin keeps answering exactly like the oracle, and the
    /// foreign twin — as `to` unreachable from everything, as `from`
    /// reaching what its parent digests resolve to — answers as the oracle
    /// does. So does a never-inserted vertex above the top round.
    fn equivocating_and_foreign_vertices_match_oracles(
        shape in shape(3),
        seed in any::<u64>(),
    ) {
        let (n, rounds) = shape;
        let mut dag = random_dag(n, rounds, seed);
        let mut rng = Mix(seed ^ 0xE9);
        let committee = dag.committee().clone();
        let round = Round(1 + rng.below(rounds as u64 - 1));
        let victim = dag
            .round_vertices(round)
            .nth(rng.below(dag.round_len(round) as u64) as usize)
            .expect("round non-empty")
            .clone();
        // Same (round, author), same parents, different block.
        let twin = Vertex::new(
            victim.round(),
            victim.author(),
            Block::new(vec![hh_types::Transaction::new(9, 9, 9)]),
            victim.parents().to_vec(),
            &committee.keypair(victim.author()),
        );
        prop_assert_ne!(twin.digest(), victim.digest());
        let before = dag.len();
        prop_assert!(matches!(
            dag.try_insert(twin.clone()),
            Err(hh_dag::DagError::Equivocation { .. })
        ));
        prop_assert_eq!(dag.len(), before);

        // A structurally valid vertex one round above the top, never
        // inserted: foreign without equivocating.
        let top = dag.highest_round().expect("non-empty");
        let author = ValidatorId(rng.below(n as u64) as u16);
        let foreign = Vertex::new(
            top.next(),
            author,
            Block::empty(),
            dag.round_vertices(top).skip(rng.below(2) as usize).map(|v| v.digest()).collect::<Vec<_>>(),
            &committee.keypair(author),
        );

        let vertices = all_vertices(&dag);
        let sampled: Vec<&Arc<Vertex>> = if vertices.len() <= 80 {
            vertices.iter().collect()
        } else {
            (0..24).map(|_| pick(&vertices, &mut rng)).collect()
        };
        for v in sampled {
            prop_assert!(!dag.reachable(v, &twin), "foreign twin reachable from {}", v);
            for outsider in [&twin, &foreign] {
                prop_assert_eq!(
                    dag.reachable(outsider, v),
                    reachable_oracle(&dag, outsider, v),
                    "{} -> {}", outsider, v
                );
                prop_assert_eq!(
                    dag.reachable(v, outsider),
                    reachable_oracle(&dag, v, outsider),
                    "{} -> {}", v, outsider
                );
            }
            prop_assert_eq!(
                dag.reachable(v, &victim),
                reachable_oracle(&dag, v, &victim),
                "victim query diverged after equivocation attempt"
            );
        }
        for outsider in [&twin, &foreign] {
            prop_assert_eq!(
                dag.vote_stake(&outsider.digest()),
                Stake(0),
                "{} is not stored", outsider
            );
            prop_assert!(dag.causal_sub_dag(outsider, |_| false).is_empty());
            prop_assert!(causal_sub_dag_oracle(&dag, outsider, |_| false).is_empty());
            for author in committee.ids() {
                let linked = dag.vertex_by_author(outsider.round().prev(), author);
                prop_assert_eq!(
                    dag.links_to_author(outsider, author),
                    linked.is_some_and(|l| outsider.has_parent(&l.digest())),
                    "{} links to {}", outsider, author
                );
            }
        }
        check_dag(&dag, &mut rng);
    }
}

proptest! {
    // Three DAGs a case, each checked against the oracles.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A parent mask is stored once, with the vertex, by whichever DAG
    /// resolves its parents first, and read by every DAG holding the same
    /// allocation. Two DAGs take the same allocations in different
    /// parent-respecting orders — A round by round, B in a random
    /// topological order, one insert at a time from either at random — B
    /// holds an equivocation twin where A holds the original, and the two
    /// are GC'd at different rounds. A third DAG takes private copies and
    /// so shares no mask. All three answer every query as the oracles do,
    /// asked with their own vertices and with copies of them.
    fn shared_parent_masks_answer_like_private_ones(shape in shape(4), seed in any::<u64>()) {
        let (n, rounds) = shape;
        let source = random_dag(n, rounds, seed);
        let committee = source.committee().clone();
        let mut rng = Mix(seed ^ 0x5A4E);
        let shared: Vec<Arc<Vertex>> = all_vertices(&source).iter().map(|v| private_copy(v)).collect();
        // The twin replaces a top-round vertex, so no vertex B takes names
        // the original.
        let top = source.highest_round().expect("non-empty");
        let top_round: Vec<Arc<Vertex>> =
            shared.iter().filter(|v| v.round() == top).cloned().collect();
        let victim = pick(&top_round, &mut rng).clone();
        let twin = Arc::new(twin_of(&victim, &committee.keypair(victim.author())));

        let mut a = Dag::new(committee.clone());
        let mut b = Dag::new(committee.clone());
        let mut a_feed = shared.iter();
        let mut b_pending: Vec<Arc<Vertex>> = shared
            .iter()
            .map(|v| if v.digest() == victim.digest() { twin.clone() } else { v.clone() })
            .collect();
        while a_feed.len() > 0 || !b_pending.is_empty() {
            if rng.below(2) == 0 {
                if let Some(v) = a_feed.next() {
                    prop_assert_eq!(a.try_insert_arc(v.clone()), Ok(InsertOutcome::Inserted));
                }
            } else if !b_pending.is_empty() {
                let i = rng.below(b_pending.len() as u64) as usize;
                match b.try_insert_arc(b_pending[i].clone()) {
                    Ok(outcome) => {
                        prop_assert_eq!(outcome, InsertOutcome::Inserted);
                        b_pending.swap_remove(i);
                    }
                    Err(e) => prop_assert!(matches!(e, DagError::MissingParents(_)), "{}", e),
                }
            }
        }
        let mut c = Dag::new(committee.clone());
        for v in &shared {
            prop_assert_eq!(c.try_insert_arc(private_copy(v)), Ok(InsertOutcome::Inserted));
        }
        for v in &shared {
            prop_assert!(!v.parent_authors().is_empty(), "{} has no mask", v);
            if let Some(stored) = b.get(&v.digest()) {
                prop_assert!(Arc::ptr_eq(stored, v), "B stores a copy of {}", v);
            }
            let own = c.get(&v.digest()).expect("C stores everything");
            prop_assert_eq!(own.parent_authors(), v.parent_authors());
            prop_assert!(!std::ptr::eq(own.parent_authors(), v.parent_authors()));
        }
        prop_assert!(b.contains(&twin.digest()) && !b.contains(&victim.digest()));
        prop_assert_eq!(twin.parent_authors(), victim.parent_authors());

        let horizon_a = Round(rng.below(top.0));
        let horizon_b = Round((horizon_a.0 + 1 + rng.below(top.0 - 1)) % top.0);
        a.gc(horizon_a);
        b.gc(horizon_b);

        let mut asked: Vec<&Arc<Vertex>> = if shared.len() <= 80 {
            shared.iter().collect()
        } else {
            (0..16).map(|_| pick(&shared, &mut rng)).collect()
        };
        asked.push(&twin);
        for dag in [&a, &b, &c] {
            check_dag(dag, &mut rng);
            for &v in &asked {
                let to = pick(&shared, &mut rng);
                for from in [v.clone(), private_copy(v)] {
                    prop_assert_eq!(dag.reachable(&from, to), reachable_oracle(dag, &from, to));
                    for author in committee.ids() {
                        prop_assert_eq!(
                            dag.links_to_author(&from, author),
                            links_oracle(dag, &source, &from, author),
                            "{} links to {}", from, author
                        );
                    }
                }
            }
        }
    }
}
