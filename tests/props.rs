//! Property-based tests (proptest) over cross-crate invariants: codec
//! round-trips, schedule-computation invariants, and commit-sequence
//! agreement under randomized DAG shapes and delivery orders.

use hammerhead_repro::hammerhead::{compute_next_schedule, ExecLog, ExecRecord, ReputationScores};
use hammerhead_repro::hh_consensus::{Bullshark, RoundRobinPolicy, SlotSchedule};
use hammerhead_repro::hh_dag::testkit::DagBuilder;
use hammerhead_repro::hh_types::codec::{decode_from_slice, encode_to_vec};
use hammerhead_repro::hh_types::{
    Block, Committee, Round, Stake, Transaction, ValidatorId, Vertex,
};
use proptest::prelude::*;

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (any::<u32>(), any::<u64>(), any::<u64>())
        .prop_map(|(client, seq, at)| Transaction::new(client, seq, at))
}

/// A timestamp from `{0, 1, u64::MAX, any}`: the edges a delta code can
/// trip on, as often as the values between them.
fn arb_edge_u64() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(pick, v)| [0, 1, u64::MAX, v][pick as usize])
}

/// Any record at all: times in no order, `committed_at` below
/// `submitted_at` as readily as above it.
fn arb_exec_record() -> impl Strategy<Value = ExecRecord> {
    (arb_edge_u64(), arb_edge_u64(), arb_edge_u64(), 0u8..3, any::<u32>()).prop_map(
        |(submitted_at, committed_at, executed_at, pick, v)| ExecRecord {
            submitted_at,
            committed_at,
            executed_at,
            bytes: [0, u32::MAX, v][pick as usize],
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exec_log_yields_what_was_pushed(
        recs in proptest::collection::vec(arb_exec_record(), 0..200),
        cut in any::<usize>(),
    ) {
        // Push, take, push on: the taken log and the one that goes on
        // after it each decode alone (at `cut == len` that is one log).
        let (before, after) = recs.split_at(cut % (recs.len() + 1));
        let mut log = ExecLog::default();
        for &rec in before {
            log.push(rec);
        }
        let taken = std::mem::take(&mut log);
        prop_assert!(log.is_empty());
        for &rec in after {
            log.push(rec);
        }
        for (log, pushed) in [(&taken, before), (&log, after)] {
            prop_assert_eq!(log.len(), pushed.len());
            prop_assert_eq!(log.is_empty(), pushed.is_empty());
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), pushed);
            prop_assert_eq!(log.into_iter().collect::<Vec<_>>(), pushed);
        }
    }

    #[test]
    fn codec_roundtrip_transactions(txs in proptest::collection::vec(arb_transaction(), 0..64)) {
        let block = Block::new(txs);
        let bytes = encode_to_vec(&block);
        let back: Block = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(block, back);
    }

    #[test]
    fn codec_roundtrip_vertices(
        txs in proptest::collection::vec(arb_transaction(), 0..32),
        round in 0u64..1000,
        author in 0u16..64,
        n_parents in 0usize..16,
        seed in any::<u64>(),
    ) {
        // Round 0 must be parentless; other rounds get synthetic parents.
        let parents = if round == 0 {
            vec![]
        } else {
            (0..n_parents)
                .map(|i| hammerhead_repro::hh_crypto::sha256(&[seed as u8, i as u8]))
                .collect()
        };
        let kp = hammerhead_repro::hh_crypto::Keypair::from_seed(author as u64);
        let v = Vertex::new(Round(round), ValidatorId(author), Block::new(txs), parents, &kp);
        let back: Vertex = decode_from_slice(&encode_to_vec(&v)).unwrap();
        prop_assert_eq!(v.digest(), back.digest());
        prop_assert!(back.verify(&kp.public()));
    }

    #[test]
    fn schedule_swap_invariants(
        n in 4usize..40,
        raw_scores in proptest::collection::vec(0u64..100, 40),
        bound_frac in 0u64..40,
    ) {
        let committee = Committee::new_equal_stake(n);
        let mut scores = ReputationScores::new(&committee);
        for (i, s) in raw_scores.iter().take(n).enumerate() {
            scores.add(ValidatorId(i as u16), *s);
        }
        let prev = SlotSchedule::permuted(&committee, 5);
        let bound = Stake(bound_frac.min(n as u64));
        let change = compute_next_schedule(&prev, &scores, &committee, bound);

        // Slot count conserved.
        prop_assert_eq!(change.schedule.slots().len(), prev.slots().len());
        // B and G are disjoint and equal-sized.
        prop_assert_eq!(change.excluded.len(), change.promoted.len());
        for e in &change.excluded {
            prop_assert!(!change.promoted.contains(e));
        }
        // Stake bound respected.
        let b_stake: Stake = change.excluded.iter().map(|v| committee.stake_of(*v)).sum();
        prop_assert!(b_stake <= bound);
        // Excluded validators own no slots afterwards (they can only
        // re-enter through a later epoch's G set).
        for e in &change.excluded {
            prop_assert_eq!(change.schedule.slot_count(*e), 0);
        }
        // Untouched validators keep exactly their slots.
        for id in committee.ids() {
            if !change.excluded.contains(&id) && !change.promoted.contains(&id) {
                prop_assert_eq!(change.schedule.slot_count(id), prev.slot_count(id));
            }
        }
        // Determinism.
        let again = compute_next_schedule(&prev, &scores, &committee, bound);
        prop_assert_eq!(change, again);
    }

    #[test]
    fn engines_agree_on_random_dag_shapes(
        seed in any::<u64>(),
        rounds in 6u64..16,
    ) {
        // Build a random-but-valid DAG: each round, every author drops a
        // pseudo-random (sub-f) subset of parent links.
        let n = 7usize;
        let f = 2usize;
        let committee = Committee::new_equal_stake(n);
        let mut builder = DagBuilder::new(committee.clone());
        builder.extend_full_rounds(1);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 1..rounds {
            let mut excluded_for: Vec<Vec<ValidatorId>> = Vec::new();
            for _ in 0..n {
                let k = (next() % (f as u64 + 1)) as usize;
                let mut ex = Vec::new();
                while ex.len() < k {
                    let candidate = ValidatorId((next() % n as u64) as u16);
                    if !ex.contains(&candidate) {
                        ex.push(candidate);
                    }
                }
                excluded_for.push(ex);
            }
            let authors: Vec<ValidatorId> = committee.ids().collect();
            builder.extend_round_custom(&authors, move |author| {
                Some(excluded_for[author.index()].clone())
            });
        }
        let dag = builder.into_dag();

        // Engine A: ascending author order. Engine B: descending. Both are
        // handed the finished DAG, so each sees every vote from the start.
        let mut ea = Bullshark::new(
            committee.clone(),
            RoundRobinPolicy::new(SlotSchedule::round_robin(&committee)),
        );
        let mut eb = Bullshark::new(
            committee.clone(),
            RoundRobinPolicy::new(SlotSchedule::round_robin(&committee)),
        );
        for r in 0..rounds {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in &vs {
                ea.process_vertex(v, &dag);
            }
            vs.reverse();
            for v in &vs {
                eb.process_vertex(v, &dag);
            }
        }
        prop_assert_eq!(ea.chain_hash(), eb.chain_hash());
        prop_assert_eq!(ea.committed_anchors(), eb.committed_anchors());
    }

    #[test]
    fn committed_subdags_partition_history(
        seed in any::<u64>(),
    ) {
        // Whatever the shape, ordering must deliver each vertex exactly
        // once with its complete causal history already delivered.
        let n = 4usize;
        let committee = Committee::new_equal_stake(n);
        let mut builder = DagBuilder::new(committee.clone());
        builder.extend_full_rounds(1);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            state
        };
        for _ in 1..12 {
            // Drop at most one parent per author (f = 1).
            let authors: Vec<ValidatorId> = committee.ids().collect();
            let drops: Vec<Option<ValidatorId>> = (0..n)
                .map(|_| {
                    if next() % 3 == 0 {
                        Some(ValidatorId((next() % n as u64) as u16))
                    } else {
                        None
                    }
                })
                .collect();
            builder.extend_round_custom(&authors, move |author| {
                drops[author.index()].map(|d| vec![d])
            });
        }
        let dag = builder.into_dag();
        let mut engine = Bullshark::new(
            committee.clone(),
            RoundRobinPolicy::new(SlotSchedule::round_robin(&committee)),
        );
        let mut delivered = std::collections::HashSet::new();
        for r in 0..12u64 {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in vs {
                for sd in engine.process_vertex(&v, &dag) {
                    for u in &sd.vertices {
                        // Parents delivered before children (within or
                        // across sub-DAGs).
                        for p in u.parents() {
                            prop_assert!(delivered.contains(p), "parent missing");
                        }
                        prop_assert!(delivered.insert(u.digest()), "duplicate delivery");
                    }
                }
            }
        }
    }
}
