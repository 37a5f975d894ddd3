//! The process's one profiling registry: one switch and one per-thread
//! table of wall-nanos and op counts for six hot-path [`Site`]s.
//!
//! While off (the default) an instrumented call pays one relaxed load.
//! Crypto and codec sites call [`time`]; the simulator calls [`accrue`]
//! through its node type (`hh_net::Node::loop_profiler`), asking the
//! switch at every op. Diff two [`snapshot`]s taken on the thread that
//! ran a piece of work to attribute its cost. Wall-clock is
//! nondeterministic: stderr-only, never report rows or JSON.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns profiling on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is on: one relaxed load, the entire off-cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A profiled site: one row of the table, one `_ns` / `_ops` pair of [`Prof`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// A content-digest computation.
    Digest,
    /// A signature operation (sign or verify).
    Sig,
    /// A framed encode/decode pass.
    Codec,
    /// A simulator event-queue arm or pop.
    Queue,
    /// A simulator message delivery, handler inclusive.
    Deliver,
    /// A simulator timer callback, handler inclusive.
    Timer,
}

thread_local! {
    /// This thread's `(ns, ops)` per [`Site`], in declaration order: one
    /// cell a site, so an accrual touches 16 bytes, not the whole table.
    static TABLE: [Cell<(u64, u64)>; 6] = const { [const { Cell::new((0, 0)) }; 6] };
}

/// Charges `ns` and one op to `site` on this thread, switch or no switch:
/// the caller has already asked [`enabled`].
pub fn accrue(site: Site, ns: u64) {
    TABLE.with(|table| {
        let cell = &table[site as usize];
        let (sum, ops) = cell.get();
        cell.set((sum + ns, ops + 1));
    });
}

/// Times `f` as one op of `site` when profiling is on.
#[inline]
pub fn time<R>(site: Site, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let r = f();
    accrue(site, t.elapsed().as_nanos() as u64);
    r
}

/// Accumulated counters, one `_ns` / `_ops` pair a [`Site`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Prof {
    /// Nanos spent computing content digests.
    pub digest_ns: u64,
    /// Content-digest computations.
    pub digest_ops: u64,
    /// Nanos spent in signature operations (sign + verify).
    pub sig_ns: u64,
    /// Signature operations.
    pub sig_ops: u64,
    /// Nanos spent in framed encode/decode passes.
    pub codec_ns: u64,
    /// Framed encode/decode passes.
    pub codec_ops: u64,
    /// Nanos spent in event-queue arms and pops.
    pub queue_ns: u64,
    /// Queue operations (arms + pops).
    pub queue_ops: u64,
    /// Nanos spent dispatching message deliveries (handler inclusive).
    pub deliver_ns: u64,
    /// Message deliveries dispatched.
    pub deliver_ops: u64,
    /// Nanos spent dispatching timer callbacks (handler inclusive).
    pub timer_ns: u64,
    /// Timer callbacks dispatched.
    pub timer_ops: u64,
}

impl Prof {
    /// Counter movement since `earlier`, taken on the same thread.
    pub fn since(&self, earlier: &Prof) -> Prof {
        Prof {
            digest_ns: self.digest_ns - earlier.digest_ns,
            digest_ops: self.digest_ops - earlier.digest_ops,
            sig_ns: self.sig_ns - earlier.sig_ns,
            sig_ops: self.sig_ops - earlier.sig_ops,
            codec_ns: self.codec_ns - earlier.codec_ns,
            codec_ops: self.codec_ops - earlier.codec_ops,
            queue_ns: self.queue_ns - earlier.queue_ns,
            queue_ops: self.queue_ops - earlier.queue_ops,
            deliver_ns: self.deliver_ns - earlier.deliver_ns,
            deliver_ops: self.deliver_ops - earlier.deliver_ops,
            timer_ns: self.timer_ns - earlier.timer_ns,
            timer_ops: self.timer_ops - earlier.timer_ops,
        }
    }
}

/// Reads this thread's counters (cheap; does not reset them).
pub fn snapshot() -> Prof {
    let [digest, sig, codec, queue, deliver, timer] = TABLE.with(|t| t.each_ref().map(Cell::get));
    Prof {
        digest_ns: digest.0,
        digest_ops: digest.1,
        sig_ns: sig.0,
        sig_ops: sig.1,
        codec_ns: codec.0,
        codec_ops: codec.1,
        queue_ns: queue.0,
        queue_ops: queue.1,
        deliver_ns: deliver.0,
        deliver_ops: deliver.1,
        timer_ns: timer.0,
        timer_ops: timer.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test in this crate that flips the switch.
    #[test]
    fn every_site_accrues_into_the_one_table_only_while_enabled() {
        let sites = [Site::Digest, Site::Sig, Site::Codec, Site::Queue, Site::Deliver, Site::Timer];
        let before = snapshot();
        sites.into_iter().for_each(|site| time(site, || ()));
        assert_eq!(snapshot(), before, "nothing moves while off");

        set_enabled(true);
        sites.into_iter().for_each(|site| time(site, || ()));
        set_enabled(false);
        accrue(Site::Timer, 30);
        let m = snapshot().since(&before);
        let ops = [m.digest_ops, m.sig_ops, m.codec_ops, m.queue_ops, m.deliver_ops, m.timer_ops];
        assert_eq!(ops, [1, 1, 1, 1, 1, 2]);
        assert!(m.timer_ns >= 30);
    }
}
