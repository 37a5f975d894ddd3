//! What storing a vertex allocates, counted.
//!
//! At n = 100 a `(round, author)` address costs one mask bit: a vertex's
//! parent-author mask and a round's mask of who is present are held
//! inline, so the only allocation an insert makes is the round's array
//! of vertex pointers, when the round opens (and, in a round that more
//! than a quorum reaches, once more when it grows to the whole
//! committee). A counting global allocator sees the whole process, so
//! this file holds one test.

use hh_dag::testkit::DagBuilder;
use hh_dag::{Dag, InsertOutcome};
use hh_types::codec::{decode_from_slice, encode_to_vec};
use hh_types::{Committee, Round, ValidatorId, Vertex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The rounds of a DAG built with `absent` missing from every round, as
/// fresh allocations that no DAG has stored (so none carries a parent
/// mask yet): what a validator receives off the wire.
fn fresh_rounds(
    committee: &Committee,
    rounds: usize,
    absent: &[ValidatorId],
) -> Vec<Vec<Arc<Vertex>>> {
    let mut builder = DagBuilder::new(committee.clone());
    for _ in 0..rounds {
        builder.extend_round_without(absent);
    }
    (0..rounds as u64)
        .map(|r| {
            let round = builder.dag().round_vertices(Round(r));
            round.map(|v| Arc::new(decode_from_slice(&encode_to_vec(&**v)).unwrap())).collect()
        })
        .collect()
}

#[test]
fn an_insert_allocates_only_its_rounds_pointer_array() {
    let n = 100;
    let committee = Committee::new_equal_stake(n);
    let quorum = committee.quorum_threshold().0;
    let crashed: Vec<ValidatorId> = (67..n as u16).map(ValidatorId).collect();
    // The headline shape (33 crashed: every round holds a quorum, 67) and
    // a faultless one (all 100: the array grows once, at the 68th).
    for (absent, growth) in [(&crashed[..], None), (&[][..], Some(quorum as usize))] {
        let rounds = fresh_rounds(&committee, 8, absent);
        let mut dag = Dag::new(committee.clone());
        for (r, round) in rounds.iter().enumerate() {
            // Collecting the round below keeps the deque of rounds within
            // the capacity its first rounds gave it.
            dag.gc(Round(r.saturating_sub(1) as u64));
            for (i, v) in round.iter().enumerate() {
                let before = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
                assert_eq!(dag.try_insert_arc(v.clone()), Ok(InsertOutcome::Inserted));
                let made = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
                let bytes = BYTES.load(Ordering::Relaxed) - before.1;
                assert!(!v.parent_authors().is_empty() || r == 0, "{v} stored its mask");
                // Rounds 0 and 1 also size the deque.
                if r < 2 {
                    continue;
                }
                let want = match (i, growth) {
                    (0, _) => (1, quorum * 8),
                    (i, Some(at)) if i == at => (1, n as u64 * 8),
                    _ => (0, 0),
                };
                assert_eq!((made, bytes), want, "round {r}, vertex {i} of {}", round.len());
            }
        }
    }
}
