//! Profiling counters for the simulator event loop.
//!
//! A [`crate::Simulator`] told to time itself
//! ([`crate::Simulator::set_profiling`]; the harness says so from the one
//! profiling flag, `hh_crypto::prof`) accrues wall-nanos and op counts for
//! queue operations (timing-wheel arm/pop) and event dispatch (deliveries
//! vs timers) into thread-local cells. Delivery and timer time *include*
//! the handler's nested work — digest, sign/verify, codec, queue arms —
//! so sub-shares reported alongside them nest inside them rather than
//! summing with them: a proposal made on a wake timer is hashed and
//! signed inside the timer share, and an arm a handler makes counts in
//! both the queue share and that handler's. A node's start and restart
//! (`Node::on_start`, `Node::on_restart`) are in no dispatch share.
//!
//! Wall-clock is nondeterministic: stderr-only, never report rows or
//! JSON.

use std::cell::Cell;

thread_local! {
    static QUEUE_NS: Cell<u64> = const { Cell::new(0) };
    static QUEUE_OPS: Cell<u64> = const { Cell::new(0) };
    static DELIVER_NS: Cell<u64> = const { Cell::new(0) };
    static DELIVER_OPS: Cell<u64> = const { Cell::new(0) };
    static TIMER_NS: Cell<u64> = const { Cell::new(0) };
    static TIMER_OPS: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn accrue_queue(ns: u64) {
    QUEUE_NS.with(|c| c.set(c.get() + ns));
    QUEUE_OPS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn accrue_deliver(ns: u64) {
    DELIVER_NS.with(|c| c.set(c.get() + ns));
    DELIVER_OPS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn accrue_timer(ns: u64) {
    TIMER_NS.with(|c| c.set(c.get() + ns));
    TIMER_OPS.with(|c| c.set(c.get() + 1));
}

/// This thread's accumulated event-loop profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetProf {
    /// Nanos spent in timing-wheel arm/pop operations.
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

impl NetProf {
    /// Counter movement from `earlier` (taken on the same thread) to
    /// `self`.
    pub fn since(&self, earlier: &NetProf) -> NetProf {
        NetProf {
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
pub fn snapshot() -> NetProf {
    NetProf {
        queue_ns: QUEUE_NS.with(Cell::get),
        queue_ops: QUEUE_OPS.with(Cell::get),
        deliver_ns: DELIVER_NS.with(Cell::get),
        deliver_ops: DELIVER_OPS.with(Cell::get),
        timer_ns: TIMER_NS.with(Cell::get),
        timer_ops: TIMER_OPS.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_only_move_when_accrued() {
        let before = snapshot();
        accrue_queue(10);
        accrue_deliver(20);
        accrue_timer(30);
        let moved = snapshot().since(&before);
        assert_eq!(moved.queue_ops, 1);
        assert_eq!(moved.deliver_ns, 20);
        assert_eq!(moved.timer_ns, 30);
    }
}
