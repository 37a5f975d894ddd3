//! `SlotDigests` against a `HashMap<(Round, ValidatorId), Digest>` oracle.
//!
//! Random slots in random author order, in rounds drawn from both ends of
//! the range (0 and `u64::MAX` among them) and from its middle, with
//! authors on both sides of the inline mask's 128 members: the first
//! digest of a slot wins, a second one is reported with the first, pruning
//! drops exactly the slots below the floor, and no record allocates in
//! proportion to its round number. A counting global allocator sees the
//! whole process, so this file holds one test.

use hh_crypto::Digest;
use hh_types::{Round, SlotDigests, ValidatorId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// SplitMix64: a seeded stream for the cases.
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
        self.next() % bound
    }
}

/// One of two digests a slot may be offered.
fn digest(round: Round, author: ValidatorId, variant: u8) -> Digest {
    let mut bytes = round.0.to_be_bytes().to_vec();
    bytes.extend(author.0.to_be_bytes());
    bytes.push(variant);
    hh_crypto::sha256(&bytes)
}

#[test]
fn slot_rows_match_a_hash_map_oracle_and_size_nothing_by_round() {
    for case in 0..200 {
        let mut rng = Mix(case);
        let rounds = [0, 1, 2, rng.next() >> 1, u64::MAX - 2, u64::MAX - 1, u64::MAX].map(Round);
        let n = 1 + rng.below(200);
        let mut table = SlotDigests::new();
        let mut oracle: HashMap<(Round, ValidatorId), Digest> = HashMap::new();
        for _ in 0..300 {
            let round = rounds[rng.below(rounds.len() as u64) as usize];
            if rng.below(12) == 0 {
                let floor = round;
                table.prune_below(floor);
                oracle.retain(|(r, _), _| *r >= floor);
                assert_eq!(table.len(), oracle.len(), "case {case}: pruned below {floor}");
                continue;
            }
            let author = ValidatorId(rng.below(n) as u16);
            let offered = digest(round, author, rng.below(2) as u8);
            let before = BYTES.load(Ordering::Relaxed);
            let got = table.record(round, author, offered);
            let requested = BYTES.load(Ordering::Relaxed) - before;
            let want = match oracle.entry((round, author)) {
                Entry::Vacant(slot) => {
                    slot.insert(offered);
                    None
                }
                Entry::Occupied(slot) => (*slot.get() != offered).then_some(*slot.get()),
            };
            assert_eq!(got, want, "case {case}: ({round}, {author})");
            if let Some(first) = got {
                // Both digests are named: the first, kept, and the offer.
                assert_ne!(first, offered);
                assert_eq!(table.record(round, author, offered), Some(first), "kept");
            }
            // A record pays for B-tree nodes (under a kilobyte each, a few
            // at most here) and for its row's digests: nothing scales with
            // the round number.
            let row = oracle.keys().filter(|(r, _)| *r == round).count() as u64;
            assert!(requested <= 4096 + 32 * row, "case {case}: {requested} B for round {round}");
        }
        // As many slots, and each of the oracle's holds its first digest:
        // offered another, it names that one and records nothing.
        assert_eq!(table.len(), oracle.len(), "case {case}");
        for (&(round, author), &first) in &oracle {
            let other = digest(round, author, 2);
            assert_eq!(table.record(round, author, other), Some(first), "case {case}");
        }
        assert_eq!(table.len(), oracle.len(), "case {case}");
    }
}
