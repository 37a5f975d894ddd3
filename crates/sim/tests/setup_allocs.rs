//! What setting up a run allocates, counted instead of timed.
//!
//! `build_sim`'s host time (`setup_s` in the benchmark) varies with the
//! machine, so no fixed ceiling on it holds everywhere; the number of heap
//! allocations it makes does not vary, and it moves with the per-validator
//! copies of run-wide state that made set-up slow. A counting global
//! allocator sees the whole process, so this file holds one test and
//! counts nothing but `build_sim`.

use hh_sim::{build_sim, ExperimentConfig, FaultSchedule, SystemKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) one `build_sim` makes for the
/// benchmark's HammerHead run of `n` validators, `crashed` of them down.
fn setup_allocations(n: usize, crashed: usize) -> u64 {
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, n, 3_000);
    config.faults = FaultSchedule::crash_last(n, crashed).expect("crashes within f");
    config.seed = 1;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let handle = build_sim(&config);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(handle);
    made
}

#[test]
fn build_sim_allocates_within_its_bound() {
    // About 10 % above the 798 and 96 allocations set-up makes with S0
    // and the members' keys derived once per committee; it made 1,501 and
    // 136 while every validator's policy built its own S0.
    for (n, crashed, bound) in [(100, 33, 880), (10, 3, 106)] {
        let made = setup_allocations(n, crashed);
        assert!(made <= bound, "build_sim at n = {n} made {made} allocations (bound {bound})");
    }
}
