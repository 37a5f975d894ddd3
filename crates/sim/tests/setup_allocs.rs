//! What setting up a run allocates, counted instead of timed.
//!
//! `build_sim`'s host time (`setup_s` in the benchmark) varies with the
//! machine, so no fixed ceiling on it holds everywhere; the number of heap
//! allocations it makes and the bytes they request do not vary, and they
//! move with the per-validator copies of run-wide state, and with the
//! tables nobody reads, that made set-up slow. A counting global allocator
//! sees the whole process, so this file holds one test and counts nothing
//! but `build_sim`.

use hh_sim::{build_sim, ExperimentConfig, FaultSchedule, SystemKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Allocations (and reallocations) one `build_sim` makes for the
/// benchmark's HammerHead run of `n` validators, `crashed` of them down,
/// and the bytes they request.
fn setup_allocations(n: usize, crashed: usize) -> (u64, u64) {
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, n, 3_000);
    config.faults = FaultSchedule::crash_last(n, crashed).expect("crashes within f");
    config.seed = 1;
    let before = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let handle = build_sim(&config);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = BYTES.load(Ordering::Relaxed) - before.1;
    drop(handle);
    (made, bytes)
}

#[test]
fn build_sim_allocates_within_its_bound() {
    // Set-up makes 600 and 78 allocations requesting 453,475 and 157,619 B
    // with one word per event-queue slot and no EMA table outside the EMA
    // rule; the bounds sit 3-10 % above. A two-word slot table (+131 KB)
    // or an EMA table under every rule (+1 allocation a validator) trips
    // them: set-up made 798 and 96 allocations of 684,771 and 291,475 B
    // with both, and 1,501 and 136 allocations while every validator's
    // policy built its own S0.
    for (n, crashed, bound, byte_bound) in [(100, 33, 620, 496_000), (10, 3, 85, 165_000)] {
        let (made, bytes) = setup_allocations(n, crashed);
        assert!(made <= bound, "build_sim at n = {n} made {made} allocations (bound {bound})");
        assert!(
            bytes <= byte_bound,
            "build_sim at n = {n} requested {bytes} B (bound {byte_bound})"
        );
    }
}
