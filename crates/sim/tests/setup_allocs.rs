//! What setting up a run allocates, counted instead of timed.
//!
//! `build_sim`'s host time (`setup_s` in the benchmark) varies with the
//! machine, so no fixed ceiling on it holds everywhere; the number of heap
//! allocations it makes and the bytes they request do not vary, and they
//! move with the per-validator copies of run-wide state, and with the
//! tables nobody reads, that made set-up slow. The bytes requested
//! zeroed are counted apart as well: the allocator clears a recycled
//! chunk for them byte by byte, so a table zeroed but never read costs
//! set-up time its size alone does not show. A counting global allocator
//! sees the whole process, so this file holds one test and counts nothing
//! but `build_sim`.

use hh_sim::{build_sim, ExperimentConfig, FaultSchedule, SystemKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ZEROED: AtomicU64 = AtomicU64::new(0);

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
        ZEROED.fetch_add(layout.size() as u64, Ordering::Relaxed);
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

/// Allocations (and reallocations) one `build_sim` makes for the
/// benchmark's HammerHead run of `n` validators, `crashed` of them down,
/// the bytes they request, and how many of those bytes come zeroed.
fn setup_allocations(n: usize, crashed: usize) -> (u64, u64, u64) {
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, n, 3_000);
    config.faults = FaultSchedule::crash_last(n, crashed).expect("crashes within f");
    config.seed = 1;
    let counters = || [&ALLOCATIONS, &BYTES, &ZEROED].map(|c| c.load(Ordering::Relaxed));
    let before = counters();
    let handle = build_sim(&config);
    let after = counters();
    drop(handle);
    let [made, bytes, zeroed] = [0, 1, 2].map(|i| after[i] - before[i]);
    (made, bytes, zeroed)
}

#[test]
fn build_sim_allocates_within_its_bound() {
    // Set-up makes 599 and 77 allocations requesting 452,907 and 157,531 B
    // with one word per event-queue slot and no policy table the scoring
    // rule never reads; the bounds sit 3-10 % above. A two-word slot table
    // (+131 KB) or a committee-sized table in every policy (+1 allocation
    // a validator) trips them: set-up made 798 and 96 allocations of
    // 684,771 and 291,475 B with both (the table held a smoothed score per
    // member), and 1,501 and 136 allocations while every validator's
    // policy built its own S0.
    //
    // Of those bytes, 80,167 and 817 come zeroed, nearly all of them the
    // validators' reputation scores (n words each); the bounds sit 3-4 %
    // above. The event queue's 128 KiB slot table is allocated
    // uninitialised, since a slot is read only after an arm has written
    // it; zeroed, it made 211,239 and 131,889 B and trips them.
    for (n, crashed, bound, byte_bound, zeroed_bound) in
        [(100, 33, 620, 496_000, 83_000), (10, 3, 85, 165_000, 850)]
    {
        let (made, bytes, zeroed) = setup_allocations(n, crashed);
        assert!(made <= bound, "build_sim at n = {n} made {made} allocations (bound {bound})");
        assert!(
            bytes <= byte_bound,
            "build_sim at n = {n} requested {bytes} B (bound {byte_bound})"
        );
        assert!(
            zeroed <= zeroed_bound,
            "build_sim at n = {n} requested {zeroed} B zeroed (bound {zeroed_bound})"
        );
    }
}
