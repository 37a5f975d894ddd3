//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! hashing, the WAL, DAG insertion and reachability, the commit rule,
//! schedule recomputation and the wire codec.
//!
//! Run: `cargo bench -p hh-bench`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hammerhead::{compute_next_schedule, ReputationScores};
use hh_consensus::{Bullshark, RoundRobinPolicy, SlotSchedule};
use hh_dag::testkit::DagBuilder;
use hh_dag::Dag;
use hh_storage::{MemBackend, Wal};
use hh_types::codec::{decode_from_slice, encode_to_vec};
use hh_types::{Block, Committee, Round, Transaction, ValidatorId, Vertex};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xABu8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1k", |b| b.iter(|| hh_crypto::sha256(&data)));
    group.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    let record = vec![7u8; 256];
    group.bench_function("wal_append_256b", |b| {
        b.iter_batched(
            || Wal::new(MemBackend::new()),
            |mut wal| {
                for _ in 0..100 {
                    wal.append(&record).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("wal_replay_1000", |b| {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        for _ in 0..1000 {
            wal.append(&record).unwrap();
        }
        b.iter(|| Wal::new(mem.clone()).replay().unwrap().len())
    });
    group.finish();
}

fn full_dag(n: usize, rounds: usize) -> Dag {
    let committee = Committee::new_equal_stake(n);
    let mut b = DagBuilder::new(committee);
    b.extend_full_rounds(rounds);
    b.into_dag()
}

fn bench_dag(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag");
    let committee = Committee::new_equal_stake(50);

    group.bench_function("insert_round_n50", |b| {
        // Re-insert a fresh round-1 on top of a pre-built genesis.
        let mut base = DagBuilder::new(committee.clone());
        base.extend_full_rounds(1);
        let genesis = base.into_dag();
        let parents: Vec<_> = {
            let mut refs: Vec<_> =
                genesis.round_vertices(Round(0)).map(|v| (v.author(), v.digest())).collect();
            refs.sort();
            refs.into_iter().map(|(_, d)| d).collect()
        };
        let vertices: Vec<Vertex> = committee
            .ids()
            .map(|id| {
                Vertex::new(Round(1), id, Block::empty(), parents.clone(), &committee.keypair(id))
            })
            .collect();
        b.iter_batched(
            || genesis.clone(),
            |mut dag| {
                for v in &vertices {
                    dag.try_insert(v.clone()).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });

    let dag = full_dag(50, 10);
    let top = dag.vertex_by_author(Round(9), ValidatorId(0)).unwrap().clone();
    let bottom = dag.vertex_by_author(Round(0), ValidatorId(49)).unwrap().clone();
    group.bench_function("reachable_depth9_n50", |b| {
        b.iter(|| assert!(dag.reachable(&top, &bottom)))
    });
    group.bench_function("causal_history_n50_r10", |b| b.iter(|| dag.causal_history(&top).len()));
    group.finish();
}

/// The commit rule's `path(v, u)` shapes on a 40-round DAG: the depth-2
/// anchor-to-anchor query and a depth-39 descent, both one frontier-mask
/// descent whose cost grows with the depth.
fn bench_reachable(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachable");
    for n in [50usize, 100] {
        let dag = full_dag(n, 40);
        let anchor = dag.vertex_by_author(Round(10), ValidatorId(0)).unwrap().clone();
        let prev = dag.vertex_by_author(Round(8), ValidatorId(1)).unwrap().clone();
        group.bench_function(format!("anchor_depth2_n{n}"), |b| {
            b.iter(|| assert!(dag.reachable(&anchor, &prev)))
        });
        let top = dag.vertex_by_author(Round(39), ValidatorId(0)).unwrap().clone();
        let bottom = dag.vertex_by_author(Round(0), ValidatorId((n - 1) as u16)).unwrap().clone();
        group.bench_function(format!("deep_depth39_n{n}"), |b| {
            b.iter(|| assert!(dag.reachable(&top, &bottom)))
        });
    }
    group.finish();
}

/// Sub-DAG delivery from a fresh anchor: the per-commit shape (two
/// unordered rounds above an ordered prefix) via a reused scratch.
fn bench_causal_sub_dag(c: &mut Criterion) {
    let mut group = c.benchmark_group("causal_sub_dag");
    for n in [50usize, 100] {
        let dag = full_dag(n, 12);
        let anchor = dag.vertex_by_author(Round(10), ValidatorId(0)).unwrap().clone();
        let ordered: std::collections::HashSet<_> =
            (0..8u64).flat_map(|r| dag.round_vertices(Round(r)).map(|v| v.digest())).collect();
        let mut scratch = hh_dag::SubDagScratch::new();
        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_function(format!("two_rounds_n{n}"), |b| {
            b.iter(|| {
                let sub = dag.causal_sub_dag_with(&anchor, |d| ordered.contains(d), &mut scratch);
                assert_eq!(sub.len(), 2 * n + 1);
            })
        });
    }
    group.finish();
}

/// The full commit walk: every vertex of a 100-round DAG through
/// `process_vertex` on a fresh engine — the ordering hot path end to
/// end (trigger checks, anchor walk, sub-DAG delivery).
fn bench_process_vertex(c: &mut Criterion) {
    let mut group = c.benchmark_group("process_vertex");
    for n in [50usize, 100] {
        let committee = Committee::new_equal_stake(n);
        let rounds = 100u64;
        let dag = full_dag(n, rounds as usize);
        group.throughput(Throughput::Elements(rounds * n as u64));
        group.bench_function(format!("full_dag_r100_n{n}"), |b| {
            b.iter_batched(
                || {
                    Bullshark::new(
                        committee.clone(),
                        RoundRobinPolicy::new(SlotSchedule::round_robin(&committee)),
                    )
                },
                |mut engine| {
                    let mut commits = 0usize;
                    for r in 0..rounds {
                        for v in dag.round_vertices(Round(r)) {
                            commits += engine.process_vertex(v, &dag).len();
                        }
                    }
                    assert!(commits >= 48);
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus");
    for n in [10usize, 50] {
        let committee = Committee::new_equal_stake(n);
        let dag = full_dag(n, 21);
        group.throughput(Throughput::Elements(21 * n as u64));
        group.bench_function(format!("commit_21_rounds_n{n}"), |b| {
            b.iter_batched(
                || {
                    Bullshark::new(
                        committee.clone(),
                        RoundRobinPolicy::new(SlotSchedule::round_robin(&committee)),
                    )
                },
                |mut engine| {
                    let mut commits = 0;
                    for r in 0..21u64 {
                        let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
                        vs.sort_by_key(|v| v.author());
                        for v in vs {
                            commits += engine.process_vertex(&v, &dag).len();
                        }
                    }
                    assert!(commits >= 9);
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule");
    for n in [10usize, 100] {
        let committee = Committee::new_equal_stake(n);
        let prev = SlotSchedule::permuted(&committee, 7);
        let mut scores = ReputationScores::new(&committee);
        for (i, id) in committee.ids().enumerate() {
            scores.add(id, (i as u64 * 13) % 50);
        }
        group.bench_function(format!("compute_next_n{n}"), |b| {
            b.iter(|| {
                compute_next_schedule(&prev, &scores, &committee, committee.max_faulty_stake())
            })
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let committee = Committee::new_equal_stake(50);
    let parents: Vec<_> = (0..34).map(|i| hh_crypto::sha256(&[i as u8])).collect();
    let txs: Vec<Transaction> = (0..500).map(|i| Transaction::new(1, i, i * 10)).collect();
    let vertex = Vertex::new(
        Round(4),
        ValidatorId(0),
        Block::new(txs),
        parents,
        &committee.keypair(ValidatorId(0)),
    );
    let bytes = encode_to_vec(&vertex);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_vertex_500tx", |b| b.iter(|| encode_to_vec(&vertex)));
    group.bench_function("decode_vertex_500tx", |b| {
        b.iter(|| decode_from_slice::<Vertex>(&bytes).unwrap())
    });
    group.finish();
}

/// The fault-plan queries the network simulator makes per routed message
/// / liveness probe, against a linear-scan baseline transcribing the
/// pre-index implementation — the before/after pair for the indexed
/// `crashed_at` / `partition_release`.
fn bench_fault_plan(c: &mut Criterion) {
    use hh_net::{FaultPlan, NodeId, PartitionSpec, SimTime};

    let n_nodes = 100usize;
    let mut plan = FaultPlan::new();
    let mut crashes: Vec<(NodeId, SimTime)> = Vec::new();
    let mut recoveries: Vec<(NodeId, SimTime)> = Vec::new();
    let mut partitions: Vec<PartitionSpec> = Vec::new();
    // 32 crash/recovery pairs and 16 partition windows spread over a
    // 60-second run — a dense dynamic fault schedule.
    for k in 0..32u64 {
        let node = NodeId((k as usize * 7) % n_nodes);
        let at = SimTime::from_millis(500 + k * 1700);
        let back = SimTime::from_millis(2500 + k * 1700);
        plan = plan.crash(node, at).recover(node, back);
        crashes.push((node, at));
        recoveries.push((node, back));
    }
    for k in 0..16u64 {
        let spec = PartitionSpec {
            group_a: (0..8).map(|i| NodeId((i + k as usize) % n_nodes)).collect(),
            group_b: (8..16).map(|i| NodeId((i + k as usize) % n_nodes)).collect(),
            from: SimTime::from_millis(k * 3500),
            until: SimTime::from_millis(k * 3500 + 2000),
        };
        partitions.push(spec.clone());
        plan = plan.partition(spec);
    }

    let naive_crashed_at = |node: NodeId, t: SimTime| -> bool {
        let last_crash =
            crashes.iter().filter(|(n, at)| *n == node && *at <= t).map(|(_, at)| *at).max();
        let Some(crash_time) = last_crash else {
            return false;
        };
        !recoveries.iter().any(|(n, at)| *n == node && *at >= crash_time && *at <= t)
    };
    let naive_release = |from: NodeId, to: NodeId, now: SimTime| -> Option<SimTime> {
        partitions.iter().filter(|p| p.severs(from, to, now)).map(|p| p.until).max()
    };

    let queries: Vec<(NodeId, NodeId, SimTime)> = (0..256u64)
        .map(|q| {
            (
                NodeId((q as usize * 13) % n_nodes),
                NodeId((q as usize * 29 + 3) % n_nodes),
                SimTime::from_millis((q * 233) % 60_000),
            )
        })
        .collect();

    let mut group = c.benchmark_group("fault_plan");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("crashed_at_indexed", |b| {
        b.iter(|| queries.iter().filter(|(node, _, t)| plan.crashed_at(*node, *t)).count())
    });
    group.bench_function("crashed_at_linear_baseline", |b| {
        b.iter(|| queries.iter().filter(|(node, _, t)| naive_crashed_at(*node, *t)).count())
    });
    group.bench_function("partition_release_indexed", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|(from, to, t)| plan.partition_release(*from, *to, *t).is_some())
                .count()
        })
    });
    group.bench_function("partition_release_linear_baseline", |b| {
        b.iter(|| {
            queries.iter().filter(|(from, to, t)| naive_release(*from, *to, *t).is_some()).count()
        })
    });
    // The index and the baseline must agree query for query.
    for (from, to, t) in &queries {
        assert_eq!(plan.crashed_at(*from, *t), naive_crashed_at(*from, *t));
        assert_eq!(plan.partition_release(*from, *to, *t), naive_release(*from, *to, *t));
    }
    group.finish();
}

/// The simulator's event queue, at a quiet depth (1k pending, the quick
/// scenarios) and a saturated one (100k pending, the load sweeps). Each
/// iteration pushes one event and pops the earliest, i.e. the steady-state
/// churn of the event loop; pending events are spread over the wheel's
/// full ring horizon so pops pay realistic cursor movement, with a slice
/// beyond it so the overflow path stays on the profile too. The burst case
/// is the other shape the ring sees (on `sim_n10_long` 30 % of ring pushes
/// land in a slot that already holds an event): 32 events per instant,
/// drained through `pop_if_at_most` as the simulator does and pushed back
/// as one burst further on.
fn bench_event_queue(c: &mut Criterion) {
    use hh_net::wheel::{TimingWheel, WHEEL_SLOTS};
    use hh_net::SimTime;

    let mut group = c.benchmark_group("event_queue");
    for &pending in &[1_000u64, 100_000] {
        let setup = move || {
            let mut wheel: TimingWheel<u64> = TimingWheel::new();
            // Deterministic spread: mostly within the ring horizon,
            // every 16th event far beyond it (overflow map).
            for seq in 0..pending {
                let at = if seq % 16 == 0 {
                    2 * WHEEL_SLOTS as u64 + (seq * 131) % 1_000_000
                } else {
                    (seq * 2_654_435_761) % WHEEL_SLOTS as u64
                };
                wheel.push(SimTime(at), seq, seq);
            }
            wheel
        };
        group.throughput(Throughput::Elements(1_000));
        group.bench_function(format!("push_pop_{pending}_pending"), |b| {
            b.iter_batched(
                setup,
                |mut wheel| {
                    for seq in pending..pending + 1_000 {
                        let (at, _, v) = wheel.pop().expect("queue stays non-empty");
                        wheel.push(at + hh_net::Duration::from_micros(v % 97 + 1), seq, v);
                    }
                    wheel
                },
                BatchSize::LargeInput,
            )
        });
    }

    const BURST: u64 = 32;
    const INSTANTS: u64 = 128;
    const SPACING_US: u64 = 64;
    const DRAINED: u64 = 32;
    group.throughput(Throughput::Elements(DRAINED * BURST));
    group.bench_function("push_pop_same_instant_bursts_of_32", |b| {
        b.iter_batched(
            || {
                let mut wheel: TimingWheel<u64> = TimingWheel::new();
                for seq in 0..INSTANTS * BURST {
                    wheel.push(SimTime((1 + seq / BURST) * SPACING_US), seq, seq);
                }
                wheel
            },
            |mut wheel| {
                let mut seq = INSTANTS * BURST;
                for _ in 0..DRAINED {
                    let at = wheel.peek_at().expect("queue stays non-empty");
                    while let Some((_, _, v)) = wheel.pop_if_at_most(at) {
                        let later = at + hh_net::Duration::from_micros(INSTANTS * SPACING_US);
                        wheel.push(later, seq, v);
                        seq += 1;
                    }
                }
                wheel
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_wal,
    bench_dag,
    bench_reachable,
    bench_causal_sub_dag,
    bench_process_vertex,
    bench_consensus,
    bench_schedule,
    bench_codec,
    bench_fault_plan,
    bench_event_queue
);
criterion_main!(benches);
