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
//!
//! Insertion itself, which resolves each parent inside the round below
//! with one forward pass over its stored vertices, is checked against the
//! rules of the store that kept a digest table: same outcome, same stored
//! allocation, same parent mask, same missing list.

use hh_crypto::Digest;
use hh_dag::testkit::{twin_of, DagBuilder};
use hh_dag::{Dag, DagError, InsertOutcome};
use hh_types::codec::{decode_from_slice, encode_to_vec};
use hh_types::{Block, Committee, DigestSet, Round, Stake, Transaction, ValidatorId, Vertex};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
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
    random_dag_with(n, rounds, seed, &[])
}

/// [`random_dag`] in which `crashed` (at most `f` authors) author nothing
/// at all, and every round drops up to `f − |crashed|` more at random.
fn random_dag_with(n: usize, rounds: usize, seed: u64, crashed: &[ValidatorId]) -> Dag {
    let committee = Committee::new_equal_stake(n);
    let quorum = committee.quorum_threshold().0 as usize;
    let f = n - quorum - crashed.len();
    let mut rng = Mix(seed);
    let mut b = DagBuilder::new(committee.clone());
    b.extend_round_without(crashed);
    let mut prev_present = n - crashed.len();
    for _ in 1..rounds {
        let absent_count = crashed.len() + rng.below(f as u64 + 1) as usize;
        let mut absent: Vec<ValidatorId> = crashed.to_vec();
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

/// Every stored vertex by digest: the table the pre-index store kept,
/// built from the public API.
type DigestTable = HashMap<Digest, Arc<Vertex>>;

fn digest_table(dag: &Dag) -> DigestTable {
    all_vertices(dag).into_iter().map(|v| (v.digest(), v)).collect()
}

/// The pre-index reachability: BFS over digests.
fn reachable_oracle(table: &DigestTable, from: &Vertex, to: &Vertex) -> bool {
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
        if let Some(pv) = table.get(parent) {
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
            if let Some(pv) = table.get(parent) {
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
    table: &DigestTable,
    anchor: &Vertex,
    is_ordered: impl Fn(&Digest) -> bool,
) -> Vec<Arc<Vertex>> {
    let mut out = Vec::new();
    let mut seen: HashSet<Digest> = HashSet::new();
    let mut frontier: VecDeque<Arc<Vertex>> = VecDeque::new();
    if let Some(a) = table.get(&anchor.digest()) {
        if !is_ordered(&a.digest()) {
            seen.insert(a.digest());
            frontier.push_back(a.clone());
        }
    }
    while let Some(v) = frontier.pop_front() {
        for parent in v.parents() {
            if let Some(pv) = table.get(parent) {
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
    let table = digest_table(dag);
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
            reachable_oracle(&table, from, to),
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
            dag.vote_stake(target),
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
            digests(&causal_sub_dag_oracle(&table, anchor, |_| false)),
            "full history from {anchor}"
        );
        let pruned = dag.causal_sub_dag(anchor, |v| ordered.contains(v.digest_ref()));
        assert_eq!(
            digests(&pruned),
            digests(&causal_sub_dag_oracle(&table, anchor, |d| ordered.contains(d))),
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
    let stored =
        dag.vertex_by_author(v.round(), v.author()).is_some_and(|s| s.digest() == v.digest());
    let resolver = if stored { full } else { dag };
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
            .find(|v| dag.vote_stake(v) > Stake(0))
            .cloned()
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
        prop_assert_eq!(dag.round_vertices(horizon.prev()).len(), 0, "linked round is gone");
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
            .nth(rng.below(dag.round_vertices(round).len() as u64) as usize)
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

        let table = digest_table(&dag);
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
                    reachable_oracle(&table, outsider, v),
                    "{} -> {}", outsider, v
                );
                prop_assert_eq!(
                    dag.reachable(v, outsider),
                    reachable_oracle(&table, v, outsider),
                    "{} -> {}", v, outsider
                );
            }
            prop_assert_eq!(
                dag.reachable(v, &victim),
                reachable_oracle(&table, v, &victim),
                "victim query diverged after equivocation attempt"
            );
        }
        for outsider in [&twin, &foreign] {
            prop_assert_eq!(
                dag.vote_stake(outsider),
                Stake(0),
                "{} is not stored", outsider
            );
            prop_assert!(dag.causal_sub_dag(outsider, |_| false).is_empty());
            prop_assert!(causal_sub_dag_oracle(&table, outsider, |_| false).is_empty());
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
            // (A genesis vertex has no parents: its stored mask is empty.)
            let stored = v.round() == Round(0) || !v.parent_authors().is_empty();
            prop_assert!(stored, "{} has no mask", v);
            if let Some(stored) = b.get(v.round(), &v.digest()) {
                prop_assert!(Arc::ptr_eq(stored, v), "B stores a copy of {}", v);
            }
            let own = c.get(v.round(), &v.digest()).expect("C stores everything");
            prop_assert_eq!(own.parent_authors(), v.parent_authors());
            prop_assert!(!std::ptr::eq(own.parent_authors(), v.parent_authors()));
        }
        prop_assert!(b.get(twin.round(), &twin.digest()).is_some());
        prop_assert!(b.get(victim.round(), &victim.digest()).is_none());
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
            let table = digest_table(dag);
            for &v in &asked {
                let to = pick(&shared, &mut rng);
                for from in [v.clone(), private_copy(v)] {
                    prop_assert_eq!(dag.reachable(&from, to), reachable_oracle(&table, &from, to));
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

/// The insertion rules of the store that kept a digest table, over a
/// `HashMap` from digest to stored vertex, with two changes: a parent
/// stored in a round other than the one below is missing, where that
/// store rejected the vertex as a wrong-round link, and a list longer than
/// the committee is malformed.
#[derive(Clone)]
struct InsertOracle {
    committee: Committee,
    by_digest: HashMap<Digest, Arc<Vertex>>,
    gc_round: Round,
    equivocations: u64,
}

impl InsertOracle {
    fn new(committee: Committee) -> Self {
        InsertOracle { committee, by_digest: HashMap::new(), gc_round: Round(0), equivocations: 0 }
    }

    /// The outcome of inserting `v`, and on insertion its parent mask.
    fn insert(&mut self, v: &Arc<Vertex>) -> (Result<InsertOutcome, DagError>, Vec<u64>) {
        let (round, author) = (v.round(), v.author());
        let mut mask = vec![0u64; self.committee.size().div_ceil(64)];
        if !self.committee.contains(author) {
            return (Err(DagError::UnknownAuthor(author)), mask);
        }
        if round < self.gc_round {
            return (Err(DagError::BelowGc { round, gc_round: self.gc_round }), mask);
        }
        let address = |s: &&Arc<Vertex>| s.round() == round && s.author() == author;
        if let Some(stored) = self.by_digest.values().find(address) {
            if stored.digest() == v.digest() {
                return (Ok(InsertOutcome::AlreadyPresent), mask);
            }
            self.equivocations += 1;
            return (Err(DagError::Equivocation { author, round }), mask);
        }
        match (round.0, v.parents().is_empty()) {
            (0, false) => {
                return (Err(DagError::MalformedParents("genesis vertex with parents")), mask)
            }
            (0, true) => {}
            (_, true) => {
                return (
                    Err(DagError::MalformedParents("non-genesis vertex without parents")),
                    mask,
                )
            }
            (_, false) if v.parents().len() > self.committee.size() => {
                return (Err(DagError::MalformedParents("more parents than validators")), mask)
            }
            (_, false) => {
                let mut missing = Vec::new();
                let mut stake = Stake(0);
                for parent in v.parents() {
                    let pv = self.by_digest.get(parent).filter(|pv| pv.round().next() == round);
                    let Some(pv) = pv else {
                        missing.push(*parent);
                        continue;
                    };
                    let idx = pv.author().index();
                    if mask[idx / 64] & (1 << (idx % 64)) != 0 {
                        return (Err(DagError::DuplicateParents), mask);
                    }
                    mask[idx / 64] |= 1 << (idx % 64);
                    stake += self.committee.stake_of(pv.author());
                }
                if !missing.is_empty() {
                    return (Err(DagError::MissingParents(missing)), mask);
                }
                let need = self.committee.quorum_threshold();
                if stake < need {
                    return (Err(DagError::InsufficientParentStake { have: stake, need }), mask);
                }
            }
        }
        self.by_digest.insert(v.digest(), v.clone());
        (Ok(InsertOutcome::Inserted), mask)
    }

    fn gc(&mut self, round: Round) {
        if round > self.gc_round {
            self.by_digest.retain(|_, v| v.round() >= round);
            self.gc_round = round;
        }
    }
}

/// Inserts `v` into both and checks they agree: the same outcome and, on
/// insertion, `v` itself stored with the oracle's parent mask.
fn insert_both(
    dag: &mut Dag,
    oracle: &mut InsertOracle,
    v: &Arc<Vertex>,
) -> Result<InsertOutcome, DagError> {
    let got = dag.try_insert_arc(v.clone());
    let (want, mask) = oracle.insert(v);
    prop_assert_eq!(&got, &want, "insert of {}", v);
    if got == Ok(InsertOutcome::Inserted) {
        let stored = dag.vertex_by_author(v.round(), v.author()).expect("stored");
        prop_assert!(Arc::ptr_eq(stored, v), "{} stored as another allocation", v);
        // Word by word, the shorter side padded with zero words (a mask
        // holds two inline, the oracle `⌈n/64⌉`).
        let words = v.parent_authors().words();
        let width = words.len().max(mask.len());
        let padded =
            |w: &[u64]| -> Vec<u64> { (0..width).map(|i| w.get(i).map_or(0, |w| *w)).collect() };
        prop_assert_eq!(padded(words), padded(&mask), "parent mask of {}", v);
    }
    got
}

fn shuffle<T>(items: &mut [T], rng: &mut Mix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A vertex by `author` in `v`'s round whose parent list is `v`'s, bent
/// one way — with a digest repeated, a fabricated digest, a digest from
/// two rounds down, cut short (possibly below quorum or to nothing) or
/// unchanged — and then possibly shuffled; or, by `v`'s author, `v`'s
/// equivocation twin.
fn variant(v: &Vertex, author: ValidatorId, source: &Dag, rng: &mut Mix) -> Vertex {
    let committee = source.committee();
    let mut parents = v.parents().to_vec();
    let len = parents.len() as u64;
    match rng.below(7) {
        0 if author == v.author() => return twin_of(v, &committee.keypair(author)),
        1 if len > 0 => {
            parents.insert(rng.below(len + 1) as usize, parents[rng.below(len) as usize])
        }
        2 => {
            let fabricated = hh_crypto::sha256(&rng.next().to_le_bytes());
            parents.insert(rng.below(len + 1) as usize, fabricated);
        }
        3 if v.round().0 >= 2 => {
            let two_down: Vec<&Arc<Vertex>> =
                source.round_vertices(Round(v.round().0 - 2)).collect();
            let stale = two_down[rng.below(two_down.len() as u64) as usize].digest();
            match rng.below(2) {
                0 if len > 0 => parents[rng.below(len) as usize] = stale,
                _ => parents.insert(rng.below(len + 1) as usize, stale),
            }
        }
        4 => parents.truncate(rng.below(len + 1) as usize),
        _ => {}
    }
    if rng.below(3) != 0 {
        shuffle(&mut parents, rng);
    }
    let marker = Transaction::new(u32::MAX - 1, rng.next(), 0);
    Vertex::new(v.round(), author, Block::new(vec![marker]), parents, &committee.keypair(author))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random DAGs fed round by round as private copies, some held back a
    /// round, with GC advancing between rounds, now and then past the top
    /// round. Before a round is fed, variants of its vertices (shuffled,
    /// duplicated, fabricated and two-rounds-down parents, short lists,
    /// twins) are inserted into copies of both stores, where the round's
    /// slots are still free. One in four goes into the stores themselves
    /// instead: into a slot the round leaves empty, after the round, or in
    /// the last round anywhere (a taken slot stalls every round above).
    /// Every insert answers as the digest-table oracle does and stores the
    /// same allocation with the same parent mask, and the two stores end up
    /// holding the same vertices and the same top round.
    fn inserts_match_the_digest_table_oracle(shape in shape(2), seed in any::<u64>()) {
        let (n, rounds) = shape;
        let source = random_dag(n, rounds, seed);
        let committee = source.committee().clone();
        let mut rng = Mix(seed ^ 0x1A5E);
        let mut dag = Dag::new(committee.clone());
        let mut oracle = InsertOracle::new(committee.clone());
        let mut late: Vec<Arc<Vertex>> = Vec::new();
        for r in 0..rounds as u64 {
            if r >= 3 && rng.below(3) == 0 {
                // One in six past the top round, which empties both stores.
                let horizon = match rng.below(6) {
                    0 => Round(r + rng.below(2)),
                    _ => Round(dag.gc_round().0.max(r - 3) + 1),
                };
                dag.gc(horizon);
                oracle.gc(horizon);
                let top = oracle.by_digest.values().map(|v| v.round()).max();
                prop_assert_eq!(dag.highest_round(), top);
            }
            // Last round's held-back vertices, and what they held up.
            for v in std::mem::take(&mut late) {
                if let Err(DagError::MissingParents(_)) = insert_both(&mut dag, &mut oracle, &v) {
                    late.push(v);
                }
            }
            let mut this_round: Vec<Arc<Vertex>> =
                source.round_vertices(Round(r)).map(|v| private_copy(v)).collect();
            let empty: Vec<ValidatorId> = committee
                .ids()
                .filter(|a| source.vertex_by_author(Round(r), *a).is_none())
                .collect();
            let mut bent_after = Vec::new();
            for v in source.round_vertices(Round(r)) {
                let anyone = ValidatorId(rng.below(n as u64) as u16);
                let author = if rng.below(2) == 0 { v.author() } else { anyone };
                let real = rng.below(4) == 0;
                if real && r + 1 == rounds as u64 {
                    this_round.push(Arc::new(variant(v, author, &source, &mut rng)));
                } else if real && !empty.is_empty() {
                    let author = empty[rng.below(empty.len() as u64) as usize];
                    bent_after.push(Arc::new(variant(v, author, &source, &mut rng)));
                } else {
                    let bent = Arc::new(variant(v, author, &source, &mut rng));
                    let _ = insert_both(&mut dag.clone(), &mut oracle.clone(), &bent);
                }
            }
            shuffle(&mut this_round, &mut rng);
            this_round.extend(bent_after);
            for v in this_round {
                if rng.below(10) == 0 {
                    late.push(v);
                } else if let Err(DagError::MissingParents(_)) =
                    insert_both(&mut dag, &mut oracle, &v)
                {
                    late.push(v);
                }
            }
        }
        for v in &late {
            let _ = insert_both(&mut dag, &mut oracle, v);
        }
        prop_assert_eq!(dag.len(), oracle.by_digest.len());
        prop_assert_eq!(dag.equivocations(), oracle.equivocations);
        for (digest, v) in &oracle.by_digest {
            let stored = dag.vertex_by_author(v.round(), v.author()).expect("the oracle's vertex");
            prop_assert!(Arc::ptr_eq(stored, v));
            prop_assert!(Arc::ptr_eq(dag.get(v.round(), digest).expect("found in its round"), v));
        }
        // Every digest the source holds, collected ones included, and every
        // stored one, asked at once.
        let everything = (0..rounds as u64).flat_map(|r| source.round_vertices(Round(r)));
        let asked: DigestSet =
            everything.map(|v| v.digest()).chain(oracle.by_digest.keys().copied()).collect();
        let found = dag.find_all(&asked);
        prop_assert_eq!(found.len(), oracle.by_digest.len());
        for (digest, v) in &found {
            prop_assert!(Arc::ptr_eq(v, &oracle.by_digest[digest]));
        }
    }
}

/// `count` authors of `n`: the last ones, the first ones, or a random
/// scattered set.
fn absent_set(n: usize, count: usize, shape: usize, rng: &mut Mix) -> Vec<ValidatorId> {
    let mut ids: Vec<ValidatorId> = (0..n as u16).map(ValidatorId).collect();
    match shape {
        0 => ids.split_off(n - count),
        1 => ids[..count].to_vec(),
        _ => {
            shuffle(&mut ids, rng);
            ids.truncate(count);
            ids
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A round stores only the authors that arrived. Up to `f` authors —
    /// the last, the first or a scattered set — never author anything,
    /// others drop out round by round, and the vertices arrive as private
    /// copies in a random parent-respecting order, with an equivocation
    /// twin of some of them right after. Every insert answers as the
    /// digest-table oracle does, and then every `(round, author)`
    /// lookup, digest lookup, round listing (ascending author order) and
    /// round count answers from the oracle's vertices, as do the queries
    /// of `check_dag`.
    fn present_only_rounds_match_the_oracle(
        shape in shape(2),
        seed in any::<u64>(),
        crash_shape in 0usize..3,
    ) {
        let (n, rounds) = shape;
        let committee = Committee::new_equal_stake(n);
        let f = n - committee.quorum_threshold().0 as usize;
        let mut rng = Mix(seed ^ 0xAB5E);
        let count = rng.below(f as u64 + 1) as usize;
        let crashed = absent_set(n, count, crash_shape, &mut rng);
        let source = random_dag_with(n, rounds, seed, &crashed);

        let mut dag = Dag::new(committee.clone());
        let mut oracle = InsertOracle::new(committee.clone());
        let mut pending: Vec<Arc<Vertex>> =
            all_vertices(&source).iter().map(|v| private_copy(v)).collect();
        while !pending.is_empty() {
            let i = rng.below(pending.len() as u64) as usize;
            let v = pending[i].clone();
            if let Err(DagError::MissingParents(_)) = insert_both(&mut dag, &mut oracle, &v) {
                continue;
            }
            pending.swap_remove(i);
            if rng.below(4) == 0 {
                let twin = Arc::new(twin_of(&v, &committee.keypair(v.author())));
                let got = insert_both(&mut dag, &mut oracle, &twin);
                prop_assert!(matches!(got, Err(DagError::Equivocation { .. })), "{:?}", got);
            }
        }
        prop_assert_eq!(dag.len(), oracle.by_digest.len());
        prop_assert_eq!(dag.equivocations(), oracle.equivocations);

        let ghost = hh_crypto::sha256(b"ghost");
        for r in 0..rounds as u64 {
            let round = Round(r);
            let mut want: Vec<&Arc<Vertex>> =
                oracle.by_digest.values().filter(|v| v.round() == round).collect();
            want.sort_by_key(|v| v.author());
            let listed: Vec<&Arc<Vertex>> = dag.round_vertices(round).collect();
            prop_assert_eq!(listed.len(), want.len());
            prop_assert_eq!(dag.round_vertices(round).len(), want.len());
            for (got, want) in listed.iter().zip(&want) {
                prop_assert!(Arc::ptr_eq(got, want), "round {} lists {} for {}", r, got, want);
            }
            for author in committee.ids() {
                let want = want.iter().find(|v| v.author() == author);
                let got = dag.vertex_by_author(round, author);
                prop_assert_eq!(got.is_some(), want.is_some(), "{} in round {}", author, r);
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert!(Arc::ptr_eq(got, want));
                    let found = dag.get(round, &want.digest()).expect("found in its round");
                    prop_assert!(Arc::ptr_eq(found, want));
                }
            }
            prop_assert!(dag.get(round, &ghost).is_none());
        }
        for author in committee.ids() {
            let held = oracle.by_digest.values().any(|v| v.author() == author);
            prop_assert_eq!(dag.holds_author(author), held, "{}", author);
            prop_assert!(!crashed.contains(&author) || !held, "{} crashed", author);
        }
        let asked: DigestSet = oracle.by_digest.keys().copied().chain([ghost]).collect();
        let found = dag.find_all(&asked);
        prop_assert_eq!(found.len(), oracle.by_digest.len());
        for (digest, v) in &found {
            prop_assert!(Arc::ptr_eq(v, &oracle.by_digest[digest]));
        }
        check_dag(&dag, &mut rng);
    }
}
