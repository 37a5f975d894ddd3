//! Property tests for the reliable-broadcast layer (Definition 1):
//! Agreement, Integrity and Validity must hold under randomized delivery
//! orders, duplication, and message loss repaired by sync ticks.

use hammerhead_repro::hh_dag::Dag;
use hammerhead_repro::hh_rbc::{BroadcastMode, Rbc, RbcMessage};
use hammerhead_repro::hh_types::{Block, Committee, Round, Transaction, ValidatorId, Vertex};
use proptest::prelude::*;
use std::collections::VecDeque;

struct Net {
    parties: Vec<(Rbc, Dag)>,
    /// In-flight messages: (from, to, msg).
    queue: VecDeque<(ValidatorId, ValidatorId, RbcMessage)>,
    delivered: Vec<Vec<hammerhead_repro::hh_crypto::Digest>>,
}

impl Net {
    fn new(committee: &Committee, mode: BroadcastMode) -> Self {
        let parties: Vec<(Rbc, Dag)> = committee
            .ids()
            .map(|id| (Rbc::new(committee.clone(), id, mode), Dag::new(committee.clone())))
            .collect();
        let n = parties.len();
        Net { parties, queue: VecDeque::new(), delivered: vec![Vec::new(); n] }
    }

    fn n(&self) -> usize {
        self.parties.len()
    }

    fn broadcast_own(&mut self, author: usize, vertex: Vertex) {
        // A real proposer only authors a vertex after locally delivering
        // its ancestry; emulate by flushing the author's inbox first.
        // Everyone else still receives in adversarial order.
        self.deliver_all_to(author);
        let (rbc, dag) = &mut self.parties[author];
        let fx = rbc.broadcast_own(vertex, dag);
        self.absorb(author, fx);
    }

    fn deliver_all_to(&mut self, target: usize) {
        loop {
            let Some(pos) = self.queue.iter().position(|(_, to, _)| to.index() == target) else {
                return;
            };
            let (from, to, msg) = self.queue.remove(pos).expect("in range");
            let (rbc, dag) = &mut self.parties[to.index()];
            let fx = rbc.handle(from, &msg, dag);
            self.absorb(to.index(), fx);
        }
    }

    fn absorb(&mut self, from: usize, fx: hammerhead_repro::hh_rbc::RbcEffects) {
        for v in fx.delivered {
            self.delivered[from].push(v.digest());
        }
        let from_id = ValidatorId(from as u16);
        for (to, msg) in fx.send {
            self.queue.push_back((from_id, to, msg));
        }
        for msg in fx.broadcast {
            for i in 0..self.n() {
                if i != from {
                    self.queue.push_back((from_id, ValidatorId(i as u16), msg.clone()));
                }
            }
        }
    }

    /// Delivers queued messages in an order driven by `rng_steps`; a step
    /// value selects which queued message goes next, possibly duplicating
    /// (lossy links are modelled by ticks re-requesting, so "loss" =
    /// deprioritizing forever is excluded by eventually draining).
    fn run(&mut self, mut pick: impl FnMut(usize) -> usize, duplicate_every: usize) {
        let mut processed = 0usize;
        while let Some(index) = (!self.queue.is_empty()).then(|| pick(self.queue.len())) {
            let (from, to, msg) = self.queue.remove(index).expect("in range");
            processed += 1;
            if duplicate_every != 0 && processed.is_multiple_of(duplicate_every) {
                // Duplicate delivery: Integrity must still hold.
                let (rbc, dag) = &mut self.parties[to.index()];
                let fx = rbc.handle(from, &msg, dag);
                self.absorb(to.index(), fx);
            }
            let (rbc, dag) = &mut self.parties[to.index()];
            let fx = rbc.handle(from, &msg, dag);
            self.absorb(to.index(), fx);
            if processed > 100_000 {
                panic!("runaway message storm");
            }
        }
    }

    /// One maintenance tick everywhere (drives sync retries).
    fn tick_all(&mut self) {
        for i in 0..self.n() {
            let (rbc, dag) = &mut self.parties[i];
            let fx = rbc.tick(dag);
            self.absorb(i, fx);
        }
    }
}

/// Builds `rounds` full rounds of vertices for the committee.
fn build_vertices(committee: &Committee, rounds: u64) -> Vec<Vertex> {
    use hammerhead_repro::hh_dag::testkit::DagBuilder;
    let mut b = DagBuilder::new(committee.clone());
    b.extend_full_rounds(rounds as usize);
    let dag = b.into_dag();
    let mut out: Vec<Vertex> = Vec::new();
    for r in 0..rounds {
        let mut vs: Vec<_> = dag.round_vertices(Round(r)).map(|v| (**v).clone()).collect();
        vs.sort_by_key(|v| v.author());
        out.extend(vs);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn best_effort_agreement_integrity_validity(
        seed in any::<u64>(),
        rounds in 2u64..6,
        duplicate_every in 0usize..7,
    ) {
        let committee = Committee::new_equal_stake(4);
        let mut net = Net::new(&committee, BroadcastMode::BestEffort);
        let vertices = build_vertices(&committee, rounds);
        let total = vertices.len();

        // Authors broadcast their vertices in causal order.
        for v in vertices {
            net.broadcast_own(v.author().index(), v);
        }

        // Random delivery order from a cheap deterministic stream.
        let mut state = seed | 1;
        let mut next = move |len: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % len
        };
        net.run(&mut next, duplicate_every);
        // A couple of tick rounds repair anything still pending.
        for _ in 0..3 {
            net.tick_all();
            net.run(&mut next, 0);
        }

        for i in 0..net.n() {
            // Validity+Agreement: everyone delivered every vertex.
            prop_assert_eq!(net.delivered[i].len(), total, "party {} delivered {:?}/{}", i, net.delivered[i].len(), total);
            // Integrity: no digest twice.
            let mut sorted = net.delivered[i].clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), total, "party {} double-delivered", i);
        }
    }

    #[test]
    fn certified_mode_delivers_everything(
        seed in any::<u64>(),
        rounds in 2u64..5,
    ) {
        let committee = Committee::new_equal_stake(4);
        let mut net = Net::new(&committee, BroadcastMode::Certified);
        let vertices = build_vertices(&committee, rounds);
        let total = vertices.len();
        for v in vertices {
            net.broadcast_own(v.author().index(), v);
        }
        let mut state = seed | 1;
        let mut next = move |len: usize| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 33) as usize % len
        };
        net.run(&mut next, 0);
        for _ in 0..3 {
            net.tick_all();
            net.run(&mut next, 0);
        }
        for i in 0..net.n() {
            prop_assert_eq!(net.delivered[i].len(), total, "party {} delivered {}/{}", i, net.delivered[i].len(), total);
        }
    }
}

#[test]
fn tx_payloads_survive_broadcast() {
    // Sanity outside proptest: payloads arrive bit-identical.
    let committee = Committee::new_equal_stake(4);
    let mut net = Net::new(&committee, BroadcastMode::BestEffort);
    let tx = Transaction::new(3, 9, 1234);
    let v = Vertex::new(
        Round(0),
        ValidatorId(0),
        Block::new(vec![tx]),
        vec![],
        &committee.keypair(ValidatorId(0)),
    );
    let digest = v.digest();
    net.broadcast_own(0, v);
    net.run(|_| 0, 0);
    for i in 1..4 {
        let stored = net.parties[i].1.get(Round(0), &digest).expect("delivered");
        assert_eq!(stored.block().transactions(), &[tx]);
    }
}
