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

/// How a commit's records may leave the execution pipeline's pattern,
/// from one record on.
#[derive(Clone, Copy, Debug)]
enum Twist {
    /// The records from here on are this many µs apart.
    Stride(u64),
    /// The transactions from here on are this many bytes long.
    Size(u32),
    /// This record was submitted this long (wrapping) after the last.
    Jump(u64),
    /// This record was submitted at exactly this instant.
    Edge(u64),
}

fn arb_twist() -> impl Strategy<Value = Twist> {
    // Jumps of ±2⁶² and ±2⁶³ and their neighbours, where the zigzag code
    // of a submission difference crosses 2⁶³ and the flag bit no longer
    // fits beside it.
    let jumps: [u64; 5] = [1 << 62, (1 << 62) + 1, 1 << 63, (1 << 63) - 1, (1 << 63) + 1];
    (0u8..4, 1u64..5_000, any::<u32>(), (0usize..5, any::<bool>()), arb_edge_u64()).prop_map(
        move |(pick, stride, size, (jump, negate), edge)| match pick {
            0 => Twist::Stride(stride),
            1 => Twist::Size(size),
            2 => Twist::Jump(if negate { jumps[jump].wrapping_neg() } else { jumps[jump] }),
            _ => Twist::Edge(edge),
        },
    )
}

/// One commit as `Validator::on_commit` logs it: records sharing
/// `committed_at`, executed `stride` µs apart from `backlog` after it,
/// `bytes` long, each submitted its `submit_steps` entry after the last;
/// and a twist at one record.
#[derive(Clone, Debug)]
struct Commit {
    gap: u64,
    backlog: u64,
    stride: u64,
    bytes: u32,
    submit_steps: Vec<i64>,
    twist: Option<(usize, Twist)>,
}

fn arb_commit() -> impl Strategy<Value = Commit> {
    (
        (0u64..500_000, 0u64..1_000_000, 1u64..5_000),
        (0u8..3, 0u32..64).prop_map(|(pick, b)| [20, 32, b][pick as usize]),
        proptest::collection::vec((0u64..8_000).prop_map(|s| s as i64 - 4_000), 1..61),
        (any::<bool>(), any::<usize>(), arb_twist()),
    )
        .prop_map(|((gap, backlog, stride), bytes, submit_steps, (twisted, at, twist))| {
            Commit {
                gap,
                backlog,
                stride,
                bytes,
                submit_steps,
                twist: twisted.then_some((at, twist)),
            }
        })
}

/// How a commit's submission steps are spread, and so how wide its
/// runs' gaps are packed.
#[derive(Clone, Copy, Debug)]
enum Spread {
    /// Every step the same: gaps packed at width 0.
    Equal(i64),
    /// The protocol's own jitter, either way around zero.
    Jitter,
    /// Every step backwards: submissions out of order, gaps all negative.
    Backwards,
    /// Steps at `i64::MIN`, `i64::MAX` and around zero: a spread that
    /// needs all 64 bits.
    Extremes,
}

fn arb_spread() -> impl Strategy<Value = Spread> {
    (0u8..4, 0u64..10_000).prop_map(|(pick, step)| match pick {
        0 => Spread::Equal(step as i64 - 5_000),
        1 => Spread::Jitter,
        2 => Spread::Backwards,
        _ => Spread::Extremes,
    })
}

impl Spread {
    /// `c`'s steps respread: its jittered steps pick the new ones.
    fn apply(self, mut c: Commit) -> Commit {
        for step in &mut c.submit_steps {
            let raw = step.unsigned_abs();
            *step = match self {
                Spread::Equal(s) => s,
                Spread::Jitter => *step,
                Spread::Backwards => -(raw as i64) - 1,
                Spread::Extremes => [i64::MIN, i64::MAX, 0, -1, 1][raw as usize % 5],
            };
        }
        c
    }
}

/// The records `commits` log, in push order, with their twists when
/// `twisted`.
fn protocol_stream(commits: &[Commit], twisted: bool) -> Vec<ExecRecord> {
    let (mut committed_at, mut submitted_at) = (0u64, 0u64);
    let mut recs = Vec::new();
    for c in commits {
        committed_at = committed_at.wrapping_add(c.gap);
        let (mut stride, mut bytes) = (c.stride, c.bytes);
        let mut executed_at = committed_at.wrapping_add(c.backlog).wrapping_sub(stride);
        let twist = c.twist.filter(|_| twisted).map(|(at, t)| (at % c.submit_steps.len(), t));
        for (i, &step) in c.submit_steps.iter().enumerate() {
            submitted_at = submitted_at.wrapping_add_signed(step);
            match twist {
                Some((at, Twist::Stride(s))) if at == i => stride = s,
                Some((at, Twist::Size(b))) if at == i => bytes = b,
                Some((at, Twist::Jump(j))) if at == i => {
                    submitted_at = submitted_at.wrapping_add(j)
                }
                Some((at, Twist::Edge(t))) if at == i => submitted_at = t,
                _ => {}
            }
            executed_at = executed_at.wrapping_add(stride);
            recs.push(ExecRecord { submitted_at, committed_at, executed_at, bytes });
        }
    }
    recs
}

/// Pushes `recs` into a log, takes it at `cut` and pushes the rest into
/// the log that goes on: each of the two must decode alone to what went
/// into it (at `cut == len` the second is empty).
fn assert_take_round_trips(recs: &[ExecRecord], cut: usize) {
    let (before, after) = recs.split_at(cut % (recs.len() + 1));
    let mut log = ExecLog::default();
    for &rec in before {
        log.push(rec);
    }
    let taken = std::mem::take(&mut log);
    assert!(log.is_empty());
    for &rec in after {
        log.push(rec);
    }
    for (log, pushed) in [(&taken, before), (&log, after)] {
        assert_eq!(log.len(), pushed.len());
        assert_eq!(log.is_empty(), pushed.is_empty());
        assert_eq!(log.iter().collect::<Vec<_>>(), pushed);
        assert_eq!(log.into_iter().collect::<Vec<_>>(), pushed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exec_log_yields_what_was_pushed(
        recs in proptest::collection::vec(arb_exec_record(), 0..200),
        cut in any::<usize>(),
    ) {
        assert_take_round_trips(&recs, cut);
    }

    #[test]
    fn exec_log_predicts_the_protocols_stream_and_yields_what_was_pushed(
        commits in proptest::collection::vec(arb_commit(), 24..40),
        cut in any::<usize>(),
    ) {
        // The pipeline's own pattern: after the first record or two of a
        // commit every record is regular, one gap of a run packed at most
        // 13 bits wide (the steps spread under 8,000 µs), and a commit's
        // first two records and its run's count, least gap and width cost
        // at most 22 B between them: L records take at most 13L / 8 + 22
        // B, under 4 B a record whenever commits average over 9.3 records
        // (these average 30.5).
        let shaped = protocol_stream(&commits, false);
        let mut log = ExecLog::default();
        for &rec in &shaped {
            log.push(rec);
        }
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), shaped);
        prop_assert!(
            log.encoded_bytes() < 4 * log.len(),
            "{} B for {} records", log.encoded_bytes(), log.len()
        );
        // Strides and sizes changing inside a commit, submission times
        // jumping by ±2⁶³ or landing on the edges, and a take anywhere.
        assert_take_round_trips(&protocol_stream(&commits, true), cut);
    }

    #[test]
    fn exec_log_packs_gaps_of_any_spread_and_yields_what_was_pushed(
        commits in proptest::collection::vec((arb_commit(), arb_spread()), 8..40),
        cut in any::<usize>(),
    ) {
        // Runs at width 0 and at 64 bits, of negative gaps, broken by a
        // stride or size change inside a commit, cut short by a full chunk
        // (64-bit gaps stage at up to 10 B and pack at 8 B a record, so
        // these logs span several chunks), and a take inside an open run.
        let commits: Vec<Commit> = commits.into_iter().map(|(c, s)| s.apply(c)).collect();
        for twisted in [false, true] {
            assert_take_round_trips(&protocol_stream(&commits, twisted), cut);
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
        prop_assert_eq!(ea.commit_count(), eb.commit_count());
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
