//! The in-process layer pipeline: a seeded stream of signed vertices —
//! what validator `n-1` would receive from its peers — pushed one by one
//! through the public entry point of every layer in validator order, with
//! a span around each call:
//!
//! `encode_framed` → `write_frame`/`read_frame` over a connected loopback
//! pair → `decode_framed` → signature verify → `Rbc::handle` →
//! `Bullshark::process_vertex` → `ValidatorStore::persist_vertex` on a
//! `FileBackend` → `compute_next_schedule` at epoch boundaries.
//!
//! Work a layer does *inside* another layer's call has no boundary the
//! benchmark can see: `Rbc::handle` inserts into the DAG, the framed codec
//! checksums, decoding re-derives the vertex digest. Those calls are
//! repeated on a shadow copy right after and attributed to the enclosing
//! span as child spans, so a layer's self time is its span minus its
//! children, and the eight `<layer>.share` values sum to 1.

use crate::loadgen::SplitMix64;
use crate::spans::{mean_duration_ns, self_time_by_name, Tracer};
use hammerhead::{
    compute_next_schedule, HammerheadConfig, ReputationScores, ScheduleConfig, Validator,
    ValidatorConfig, ValidatorMessage,
};
use hh_consensus::{Bullshark, RoundRobinPolicy, SlotSchedule};
use hh_crypto::{crc32, sha256};
use hh_dag::Dag;
use hh_net::tcp::{read_frame, write_frame, TcpConfig, TcpEvent, TcpTransport, WireCodec};
use hh_rbc::{BroadcastMode, Rbc, RbcMessage};
use hh_storage::{FileBackend, MemBackend, ValidatorStore};
use hh_types::codec::{decode_framed, encode_framed};
use hh_types::{Block, Committee, Round, Transaction, ValidatorId, Vertex};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layers whose shares are reported, in pipeline order.
pub const LAYERS: [&str; 8] =
    ["types", "crypto", "net", "rbc", "dag", "consensus", "core", "storage"];

/// The stream a workload's committee would produce.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Committee size.
    pub n: usize,
    /// Validators that author vertices (the receiving validator `n-1`,
    /// and any crashed ones, do not).
    pub authors: usize,
    /// Transactions per vertex.
    pub txs_per_block: usize,
    /// Rounds in the stream.
    pub rounds: usize,
}

/// Commits between checkpoints (`ValidatorConfig::checkpoint_interval`)
/// and per schedule epoch (`period_rounds` 20 ≈ 10 commits).
const COMMITS_PER_EPOCH: u64 = 10;

/// `shape.rounds` full rounds by the first `shape.authors` validators,
/// every vertex linking to all vertices of the round before.
fn vertex_stream(committee: &Committee, shape: &Shape, seed: u64) -> Vec<Arc<Vertex>> {
    let mut rng = SplitMix64(seed);
    let mut stream = Vec::with_capacity(shape.authors * shape.rounds);
    let mut parents = Vec::new();
    for round in 0..shape.rounds as u64 {
        let mut this_round = Vec::new();
        for author in 0..shape.authors as u16 {
            let txs = (0..shape.txs_per_block)
                .map(|_| Transaction::new(u32::from(author), rng.next_u64(), round * 1_000))
                .collect();
            let vertex = Vertex::new(
                Round(round),
                ValidatorId(author),
                Block::new(txs),
                parents.clone(),
                &committee.keypair(ValidatorId(author)),
            );
            this_round.push(vertex.digest());
            stream.push(Arc::new(vertex));
        }
        parents = this_round;
    }
    stream
}

fn loopback_pair() -> Result<(TcpStream, TcpStream), String> {
    let err = |e: std::io::Error| format!("loopback pair: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let writer = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
    let (reader, _) = listener.accept().map_err(err)?;
    writer.set_nodelay(true).map_err(err)?;
    Ok((writer, reader))
}

/// A frame of opaque bytes for the transport probe.
struct Blob(Vec<u8>);

impl WireCodec for Blob {
    fn encode_frame(&self) -> Vec<u8> {
        self.0.clone()
    }

    fn decode_frame(bytes: &[u8]) -> Result<Self, String> {
        Ok(Blob(bytes.to_vec()))
    }
}

fn next_message(t: &TcpTransport<Blob>, deadline: Instant) -> Result<(), String> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match t.events().recv_timeout(left) {
            Ok(TcpEvent::Message { .. }) => return Ok(()),
            Ok(_) => {}
            Err(_) => return Err("transport probe: no frame within the time limit".into()),
        }
    }
}

/// Round-trip time and one-way frame rate between two in-process
/// `TcpTransport`s, with frames of `frame_bytes`.
fn transport_probe(frame_bytes: usize) -> Result<(f64, f64), String> {
    // Two free ports, both listeners held until both are known.
    let free = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("transport probe: {e}"));
    let (la, lb) = (free()?, free()?);
    let addr = |l: &TcpListener| l.local_addr().map_err(|e| format!("transport probe: {e}"));
    let (addr_a, addr_b) = (addr(&la)?, addr(&lb)?);
    drop((la, lb));
    let peers = vec![(0u16, addr_a), (1u16, addr_b)];
    let start = |id: u16, addr| {
        TcpTransport::<Blob>::start(TcpConfig::new(id, addr, peers.clone()))
            .map_err(|e| format!("transport probe: bind {addr}: {e}"))
    };
    let (ta, tb) = (start(0, addr_a)?, start(1, addr_b)?);
    let deadline = Instant::now() + Duration::from_secs(20);
    let frame = Blob(vec![0xA5; frame_bytes.max(1)]);

    // Warm-up round trip: waits out connection establishment.
    ta.send(1, &frame);
    next_message(&tb, deadline)?;
    tb.send(0, &frame);
    next_message(&ta, deadline)?;

    const ROUND_TRIPS: u32 = 300;
    let t = Instant::now();
    for _ in 0..ROUND_TRIPS {
        ta.send(1, &frame);
        next_message(&tb, deadline)?;
        tb.send(0, &frame);
        next_message(&ta, deadline)?;
    }
    let rtt_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUND_TRIPS);

    // Below the per-writer queue depth, so nothing is shed.
    const BURST: u32 = 6_000;
    let t = Instant::now();
    for _ in 0..BURST {
        ta.send(1, &frame);
    }
    for _ in 0..BURST {
        next_message(&tb, deadline)?;
    }
    let frames_per_s = f64::from(BURST) / t.elapsed().as_secs_f64();
    ta.shutdown();
    tb.shutdown();
    Ok((rtt_us, frames_per_s))
}

/// Sum of nanoseconds and how many calls they cover.
#[derive(Clone, Copy, Default)]
struct Cost {
    ns: u64,
    calls: u64,
}

impl Cost {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    fn mean(&self) -> f64 {
        self.ns as f64 / (self.calls as f64).max(1.0)
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Runs the pipeline for `shape`; returns the per-layer metrics and
/// leaves the spans in `tracer`.
///
/// # Errors
///
/// Returns a description of a socket, file or protocol failure.
pub fn run(
    shape: &Shape,
    seed: u64,
    work_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let committee = Committee::new_equal_stake(shape.n);
    let me = ValidatorId(shape.n as u16 - 1);
    let stream = vertex_stream(&committee, shape, seed);
    let vertices = stream.len() as f64;

    std::fs::create_dir_all(work_dir).map_err(|e| format!("mkdir {}: {e}", work_dir.display()))?;
    let wal_path = work_dir.join("pipeline-wal.log");
    let _ = std::fs::remove_file(&wal_path);
    let open_wal = || FileBackend::open(&wal_path).map_err(|e| format!("open pipeline WAL: {e}"));

    let (mut wire_in, mut wire_out) = loopback_pair()?;
    let mut rbc = Rbc::new(committee.clone(), me, BroadcastMode::BestEffort);
    let mut dag = Dag::new(committee.clone());
    let mut shadow_dag = Dag::new(committee.clone());
    let mut schedule = SlotSchedule::round_robin(&committee);
    let mut engine = Bullshark::new(committee.clone(), RoundRobinPolicy::new(schedule.clone()));
    let mut store = ValidatorStore::new(open_wal()?);
    let mut scores = ReputationScores::new(&committee);

    // Shadow-measured work, unclipped; everything else is read off the spans.
    let (mut sha, mut crc, mut insert) = (Cost::default(), Cost::default(), Cost::default());
    let (mut frame_bytes, mut hashed_bytes, mut summed_bytes) = (0u64, 0u64, 0u64);
    let (mut out_msgs, mut commits) = (0u64, 0u64);

    for (i, vertex) in stream.iter().enumerate() {
        let trace = i as u64;
        let root = tracer.open("vertex", None, trace);
        let message = ValidatorMessage::Rbc(RbcMessage::Vertex(vertex.clone()));

        let (frame, span) =
            tracer.time("types.encode", Some(root), trace, || encode_framed(&message));
        frame_bytes += frame.len() as u64;
        let payload_len = frame.len() - 4;
        let (_, ns) = timed(|| black_box(crc32(black_box(&frame[..payload_len]))));
        tracer.attribute("crypto.crc32", span, ns);
        crc.add(ns);
        summed_bytes += payload_len as u64;

        let (received, span) = tracer.time("net.tcp_frame", Some(root), trace, || {
            write_frame(&mut wire_in, &frame).map_err(|e| format!("write_frame: {e}"))?;
            read_frame(&mut wire_out).map_err(|e| format!("read_frame: {e}"))
        });
        let received = received?;
        tracer.set_count(span, received.len() as u64);

        let (decoded, span) = tracer.time("types.decode", Some(root), trace, || {
            decode_framed::<ValidatorMessage>(&received)
        });
        let (_, ns) = timed(|| black_box(crc32(black_box(&received[..payload_len]))));
        tracer.attribute("crypto.crc32", span, ns);
        crc.add(ns);
        summed_bytes += payload_len as u64;
        // Decoding re-derives the content digest over (nearly) the payload.
        let (_, ns) = timed(|| black_box(sha256(black_box(&received[..payload_len]))));
        tracer.attribute("crypto.sha256", span, ns);
        sha.add(ns);
        hashed_bytes += payload_len as u64;

        let decoded = decoded.map_err(|e| format!("decode_framed: {e}"))?;
        let ValidatorMessage::Rbc(rbc_message) = &decoded else {
            return Err("pipeline decoded a non-RBC message".into());
        };
        let RbcMessage::Vertex(arrived) = rbc_message else {
            return Err("pipeline decoded a non-vertex message".into());
        };
        let author = arrived.author();
        let key = *committee.validator(author).map_err(|e| e.to_string())?.public_key();

        // The first check of a decoded vertex is the real one; `Rbc::handle`
        // then finds it memoized.
        let (valid, _) = tracer.time("crypto.verify", Some(root), trace, || arrived.verify(&key));
        if !valid {
            return Err(format!("vertex {i} failed signature verification"));
        }

        let (effects, span) = tracer
            .time("rbc.handle", Some(root), trace, || rbc.handle(author, rbc_message, &mut dag));
        let emitted = (effects.send.len() + effects.broadcast.len()) as u64;
        tracer.set_count(span, emitted);
        out_msgs += emitted;
        let (inserted, ns) = timed(|| shadow_dag.try_insert_arc(arrived.clone()));
        inserted.map_err(|e| format!("shadow DAG rejected vertex {i}: {e}"))?;
        tracer.attribute("dag.try_insert", span, ns);
        insert.add(ns);
        if effects.delivered.len() != 1 {
            return Err(format!("vertex {i}: {} deliveries, expected 1", effects.delivered.len()));
        }

        for delivered in &effects.delivered {
            let (ordered, span) =
                tracer.time("consensus.process_vertex", Some(root), trace, || {
                    engine.process_vertex(delivered, &dag)
                });
            tracer.set_count(span, ordered.len() as u64);

            let (stored, _) = tracer
                .time("storage.persist", Some(root), trace, || store.persist_vertex(delivered));
            stored.map_err(|e| format!("persist_vertex: {e}"))?;

            scores.add(delivered.author(), 1);
            for sub_dag in ordered {
                commits += 1;
                if commits % COMMITS_PER_EPOCH != 0 {
                    continue;
                }
                let (stored, _) = tracer.time("storage.checkpoint", Some(root), trace, || {
                    store.persist_checkpoint(sub_dag.commit_index + 1, engine.chain_hash())
                });
                stored.map_err(|e| format!("persist_checkpoint: {e}"))?;
                let (change, _) = tracer.time("core.schedule_switch", Some(root), trace, || {
                    compute_next_schedule(
                        &schedule,
                        &scores,
                        &committee,
                        committee.max_faulty_stake(),
                    )
                });
                schedule = change.schedule;
                scores.reset();
            }
        }
        tracer.close(root);
    }
    if commits == 0 {
        return Err("the pipeline's stream committed nothing".into());
    }

    // Shutdown flush, replay, and the probes that have no place in the
    // per-vertex path. Their spans carry a `probe:` prefix and no share.
    let (synced, span) = tracer.time("probe:storage.sync", None, 0, || store.sync());
    synced.map_err(|e| format!("WAL sync: {e}"))?;
    let sync_ns = tracer.duration_ns(span);
    let wal_bytes = store.size_bytes();
    drop(store);
    let (recovered, span) = tracer.time("probe:storage.replay", None, 0, || {
        ValidatorStore::new(open_wal()?).recover().map_err(|e| e.to_string())
    });
    let recovered = recovered?;
    if recovered.vertices.len() != stream.len() {
        return Err(format!(
            "WAL replayed {} of {} vertices",
            recovered.vertices.len(),
            stream.len()
        ));
    }
    let replay_ns = tracer.duration_ns(span);
    tracer.set_count(span, recovered.vertices.len() as u64);
    let _ = std::fs::remove_file(&wal_path);

    // Depth-2 reachability between anchors (the commit rule's query) and
    // one full-history sub-DAG walk.
    let top_round = Round(shape.rounds as u64 - 1);
    let anchor_round = Round((top_round.0 / 2) * 2);
    let from = dag.vertex_by_author(anchor_round, ValidatorId(0)).cloned();
    let to = dag.vertex_by_author(Round(anchor_round.0.saturating_sub(2)), ValidatorId(1)).cloned();
    let (Some(from), Some(to)) = (from, to) else {
        return Err("pipeline DAG is missing its anchors".into());
    };
    const QUERIES: u64 = 2_000;
    let (_, span) = tracer.time("probe:dag.reachable", None, 0, || {
        for _ in 0..QUERIES {
            black_box(dag.reachable(black_box(&from), black_box(&to)));
        }
    });
    tracer.set_count(span, QUERIES);
    let reachable_ns = tracer.duration_ns(span) as f64 / QUERIES as f64;
    let top = dag.vertex_by_author(top_round, ValidatorId(0)).cloned().ok_or("no top vertex")?;
    let (history, span) =
        tracer.time("probe:dag.sub_dag", None, 0, || dag.causal_sub_dag(&top, |_| false));
    tracer.set_count(span, history.len() as u64);
    let sub_dag_ns = tracer.duration_ns(span) as f64 / (history.len() as f64).max(1.0);

    let keypair = committee.keypair(ValidatorId(0));
    const SIGNS: u64 = 500;
    let (_, span) = tracer.time("probe:crypto.sign", None, 0, || {
        for vertex in stream.iter().cycle().take(SIGNS as usize) {
            black_box(keypair.sign(b"perfbench", vertex.digest().as_bytes()));
        }
    });
    tracer.set_count(span, SIGNS);
    let sign_ns = tracer.duration_ns(span) as f64 / SIGNS as f64;

    let mean_frame = (frame_bytes as f64 / vertices) as usize;
    let (probe, _) = tracer.time("probe:net.transport", None, 0, || transport_probe(mean_frame));
    let (rtt_us, frames_per_s) = probe?;

    // The whole validator on the same stream (the composite the layers
    // above decompose; it also proposes its own vertices as it goes).
    let config = ValidatorConfig {
        schedule: ScheduleConfig::Hammerhead(HammerheadConfig::default()),
        ..ValidatorConfig::default()
    };
    let mut validator = Validator::new(committee.clone(), me, config, Some(MemBackend::new()));
    let fresh = vertex_stream(&committee, shape, seed);
    let mut now_us = 0u64;
    black_box(validator.on_start(now_us));
    let (_, span) = tracer.time("probe:core.on_message_vertex", None, 0, || {
        for vertex in &fresh {
            now_us += 10_000;
            let message = ValidatorMessage::Rbc(RbcMessage::Vertex(vertex.clone()));
            black_box(validator.on_message(vertex.author(), &message, now_us));
        }
    });
    tracer.set_count(span, fresh.len() as u64);
    let on_vertex_ns = tracer.duration_ns(span) as f64 / vertices;
    if validator.commit_count() == 0 {
        return Err("the composite validator committed nothing".into());
    }
    const SUBMITS: u64 = 5_000;
    let (_, span) = tracer.time("probe:core.on_message_submit", None, 0, || {
        for seq in 0..SUBMITS {
            let tx = Transaction::new(shape.n as u32, seq, now_us);
            black_box(validator.on_message(
                ValidatorId(shape.n as u16),
                &ValidatorMessage::Submit(tx),
                now_us,
            ));
        }
    });
    tracer.set_count(span, SUBMITS);
    let on_submit_ns = tracer.duration_ns(span) as f64 / SUBMITS as f64;

    // Shares: self time per layer over the per-vertex spans.
    let totals = self_time_by_name(&tracer.spans);
    let layer_ns = |layer: &str| -> u64 {
        totals
            .iter()
            .filter(|(name, _, _)| name.split_once('.').is_some_and(|(l, _)| l == layer))
            .map(|(_, ns, _)| *ns)
            .sum()
    };
    let pipeline_ns: u64 = LAYERS.iter().map(|l| layer_ns(l)).sum();

    let kib = |bytes: u64| (bytes as f64 / 1024.0).max(1e-9);
    let mean = |name: &str| mean_duration_ns(&tracer.spans, name);
    let mut metrics = vec![
        ("types.encode_ns_per_vertex".to_string(), mean("types.encode")),
        ("types.decode_ns_per_vertex".into(), mean("types.decode")),
        ("types.frame_bytes_per_vertex".into(), frame_bytes as f64 / vertices),
        ("crypto.sha256_ns_per_kib".into(), sha.ns as f64 / kib(hashed_bytes)),
        ("crypto.crc32_ns_per_kib".into(), crc.ns as f64 / kib(summed_bytes)),
        ("crypto.sign_ns".into(), sign_ns),
        ("crypto.verify_ns".into(), mean("crypto.verify")),
        ("net.tcp_frame_ns".into(), mean("net.tcp_frame")),
        ("net.tcp_rtt_us".into(), rtt_us),
        ("net.tcp_frames_per_s".into(), frames_per_s),
        ("rbc.handle_ns_per_msg".into(), mean("rbc.handle")),
        ("rbc.out_msgs_per_vertex".into(), out_msgs as f64 / vertices),
        ("dag.try_insert_ns".into(), insert.mean()),
        ("dag.reachable_ns".into(), reachable_ns),
        ("dag.sub_dag_ns_per_vertex".into(), sub_dag_ns),
        ("consensus.process_vertex_ns".into(), mean("consensus.process_vertex")),
        ("consensus.commits".into(), commits as f64),
        ("core.on_message_vertex_ns".into(), on_vertex_ns),
        ("core.on_message_submit_ns".into(), on_submit_ns),
        ("core.schedule_switch_ns".into(), mean("core.schedule_switch")),
        ("storage.append_ns_per_vertex".into(), mean("storage.persist")),
        ("storage.sync_ns".into(), sync_ns as f64),
        ("storage.replay_ns_per_record".into(), replay_ns as f64 / vertices),
        ("storage.wal_bytes_per_vertex".into(), wal_bytes as f64 / vertices),
    ];
    for layer in LAYERS {
        metrics.push((
            format!("{layer}.share"),
            layer_ns(layer) as f64 / (pipeline_ns as f64).max(1.0),
        ));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pipeline_reports_every_layer_and_shares_sum_to_one() {
        let dir = std::env::temp_dir().join(format!("perfbench-pipeline-{}", std::process::id()));
        let shape = Shape { n: 4, authors: 3, txs_per_block: 5, rounds: 30 };
        let mut tracer = Tracer::new();
        let metrics = run(&shape, 11, &dir, &mut tracer).expect("pipeline");
        let _ = std::fs::remove_dir_all(&dir);
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        let shares: f64 = LAYERS.iter().map(|l| get(&format!("{l}.share"))).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        for layer in LAYERS {
            assert!(get(&format!("{layer}.share")) > 0.0, "{layer} did no work");
        }
        assert!(get("consensus.commits") >= 10.0);
        assert!(get("types.frame_bytes_per_vertex") > 100.0);
        for (name, _) in &metrics {
            assert!(crate::manifest::spec(name).is_some(), "{name} is not declared");
        }
        // Same seed, same stream.
        let committee = Committee::new_equal_stake(4);
        let digests = |seed| -> Vec<_> {
            vertex_stream(&committee, &shape, seed).iter().map(|v| v.digest()).collect()
        };
        assert_eq!(digests(11), digests(11));
        assert_ne!(digests(11), digests(12));
    }
}
