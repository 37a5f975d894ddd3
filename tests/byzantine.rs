//! Byzantine-behaviour integration tests.
//!
//! The paper's evaluation is crash-fault-only (evaluating BFT protocols
//! under Byzantine faults is an open research question, §5), but the
//! protocol's defences are testable directly: certified broadcast makes
//! per-round equivocation impossible, and the vote-based scoring rule makes
//! vote-withholding self-defeating (§7).

use hammerhead_repro::hh_dag::Dag;
use hammerhead_repro::hh_rbc::{BroadcastMode, Rbc, RbcMessage};
use hammerhead_repro::hh_types::{Block, Committee, Round, Transaction, ValidatorId, Vertex};
use std::sync::Arc;

/// A little message bus between hand-driven RBC instances.
struct Party {
    rbc: Rbc,
    dag: Dag,
}

fn parties(committee: &Committee, mode: BroadcastMode) -> Vec<Party> {
    committee
        .ids()
        .map(|id| Party {
            rbc: Rbc::new(committee.clone(), id, mode),
            dag: Dag::new(committee.clone()),
        })
        .collect()
}

#[test]
fn equivocation_cannot_gather_two_certificates() {
    // Byzantine v0 proposes header A to {v1, v2} and header B to {v3}.
    // Quorum is 3 (n=4): only A can possibly certify, and only if v0
    // itself acks it — B is dead on arrival because v1/v2 acked A first
    // and honest validators ack one header per (round, author).
    let committee = Committee::new_equal_stake(4);
    let mut ps = parties(&committee, BroadcastMode::Certified);

    let kp = committee.keypair(ValidatorId(0));
    let header_a = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
    let header_b = Vertex::new(
        Round(0),
        ValidatorId(0),
        Block::new(vec![Transaction::new(6, 6, 6)]),
        vec![],
        &kp,
    );
    assert_ne!(header_a.digest(), header_b.digest());

    let mut acks_a = Vec::new();
    let mut acks_b = Vec::new();
    for (i, header) in [(1usize, &header_a), (2, &header_a), (3, &header_b)] {
        let Party { rbc, dag } = &mut ps[i];
        let fx = rbc.handle(ValidatorId(0), &RbcMessage::Propose(Arc::new(header.clone())), dag);
        for (_, msg) in fx.send {
            match (&msg, header.digest() == header_a.digest()) {
                (RbcMessage::Ack { .. }, true) => acks_a.push(msg),
                (RbcMessage::Ack { .. }, false) => acks_b.push(msg),
                _ => {}
            }
        }
    }
    assert_eq!(acks_a.len(), 2, "A acked by v1, v2");
    assert_eq!(acks_b.len(), 1, "B acked by v3 only");

    // Even with v0's self-acks, B holds at most stake 2 < quorum 3: no
    // certificate for B can ever verify. A certificate over A is possible
    // (stake 3 with v0's self-ack) — at most ONE certified vertex per
    // (round, author) exists, which is the property safety needs.
    use hammerhead_repro::hh_rbc::Certificate;
    use hh_crypto_ack::sign_ack;
    let forged_b = Certificate::new(
        header_b.reference(),
        vec![
            (ValidatorId(0), sign_ack(&committee, 0, &header_b)),
            (ValidatorId(3), sign_ack(&committee, 3, &header_b)),
        ],
    );
    assert!(forged_b.verify(&committee).is_err(), "B must not certify");

    let cert_a = Certificate::new(
        header_a.reference(),
        vec![
            (ValidatorId(0), sign_ack(&committee, 0, &header_a)),
            (ValidatorId(1), sign_ack(&committee, 1, &header_a)),
            (ValidatorId(2), sign_ack(&committee, 2, &header_a)),
        ],
    );
    assert!(cert_a.verify(&committee).is_ok(), "A certifies with quorum");
}

/// Helper producing ack signatures the way honest voters do.
mod hh_crypto_ack {
    use super::*;
    use hammerhead_repro::hh_crypto::Signature;

    pub fn sign_ack(committee: &Committee, id: u16, vertex: &Vertex) -> Signature {
        committee.keypair(ValidatorId(id)).sign(b"hammerhead-ack-v1", vertex.digest().as_bytes())
    }
}

#[test]
fn best_effort_mode_detects_equivocation_and_keeps_first() {
    let committee = Committee::new_equal_stake(4);
    let mut ps = parties(&committee, BroadcastMode::BestEffort);
    let kp = committee.keypair(ValidatorId(0));
    let v1 = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
    let v2 = Vertex::new(
        Round(0),
        ValidatorId(0),
        Block::new(vec![Transaction::new(1, 1, 1)]),
        vec![],
        &kp,
    );

    let Party { rbc, dag } = &mut ps[1];
    let fx1 = rbc.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(v1.clone())), dag);
    assert_eq!(fx1.delivered.len(), 1);
    let fx2 = rbc.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(v2)), dag);
    assert!(fx2.delivered.is_empty(), "second vertex rejected");
    assert_eq!(rbc.equivocation_attempts(), 1);
    assert_eq!(dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().digest(), v1.digest());
}

#[test]
fn vote_withholder_loses_leader_slots() {
    // End-to-end §7 claim: withholding votes for honest leaders costs the
    // withholder its reputation — the vote-based rule punishes exactly the
    // behaviour Shoal's leader-outcome rule would miss.
    use hammerhead_repro::hammerhead::{HammerheadConfig, HammerheadPolicy};
    use hammerhead_repro::hh_consensus::{Bullshark, SchedulePolicy};
    use hammerhead_repro::hh_dag::testkit::DagBuilder;

    let committee = Committee::new_equal_stake(4);
    let config = HammerheadConfig { period_rounds: 6, ..Default::default() };
    let policy = HammerheadPolicy::new(committee.clone(), config.clone());
    let probe = HammerheadPolicy::new(committee.clone(), config);
    let mut engine = Bullshark::new(committee.clone(), policy);

    // v2 authors vertices but never links to any leader vertex: every
    // round holds a leader, and every round's vertices vote for the one
    // below.
    let mut builder = DagBuilder::new(committee.clone());
    builder.extend_full_rounds(1);
    for r in 1..=16u64 {
        let round = Round(r);
        let leader = probe.leader_at(round - 1);
        if leader == ValidatorId(2) {
            builder.extend_full_rounds(1);
            continue;
        }
        builder.extend_round_custom(&committee.ids().collect::<Vec<_>>(), move |author| {
            if author == ValidatorId(2) {
                Some(vec![leader])
            } else {
                None
            }
        });
    }
    let dag = builder.into_dag();
    for r in 0..=16u64 {
        let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
        vs.sort_by_key(|v| v.author());
        for v in vs {
            engine.process_vertex(&v, &dag);
        }
    }

    let history = engine.policy().epoch_history();
    assert!(!history.is_empty());
    let first = &history[0];
    assert!(
        first.excluded.contains(&ValidatorId(2)),
        "withholder not excluded: {:?} (scores {:?})",
        first.excluded,
        first.final_scores
    );
    let scores = &first.final_scores;
    assert!(
        scores.iter().enumerate().all(|(id, s)| id == 2 || *s > scores[2]),
        "withholder's score is not strictly the lowest: {scores:?}"
    );
}
