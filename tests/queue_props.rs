//! Property tests for the simulator hot path's two load-bearing swaps:
//!
//! * the [`TimingWheel`] event queue must pop in *exactly* the order the
//!   `BinaryHeap<Reverse<(at, seq)>>` it displaced would have — ascending
//!   `at`, `seq` tie-break — across same-instant bursts whose `seq`s
//!   arrive in any order, pushes that straddle wheel-rollover boundaries,
//!   far-future timers that live in the overflow map, and enough
//!   push/drain rounds that the ring's node slab is recycled many times
//!   over;
//! * `Arc` broadcast fan-out must hand every recipient the *same* frame —
//!   one allocation, byte-identical content — rather than per-peer deep
//!   copies.
//!
//! Both properties are what "same seed ⇒ same scenario JSON bytes" rests
//! on, so they are pinned here against brute-force oracles rather than
//! trusted to code review.

use hammerhead_repro::hh_net::wheel::{TimingWheel, WHEEL_SLOTS};
use hammerhead_repro::hh_net::{Context, NetworkConfig, Node, NodeId, SimTime, Simulator};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A push offset (µs ahead of the current deadline), weighted toward the
/// shapes that stress distinct wheel machinery: same-instant bursts and
/// near-term ring traffic, times straddling a rollover boundary (the slot
/// index wraps every `WHEEL_SLOTS` µs), and far-future timers beyond the
/// ring horizon (the overflow `BTreeMap`).
fn arb_offset() -> impl Strategy<Value = u64> {
    let slots = WHEEL_SLOTS as u64;
    // Weighted choice by hand (the offline proptest stand-in has no
    // `prop_oneof!`): 4/11 bursts (half of them onto four adjacent
    // instants, so one slot's list takes several pushes), 2/11 general
    // ring traffic, 3/11 rollover straddles, 2/11 far-future overflow.
    (0u32..11, 0u64..200, 0u64..(2 * slots), (1u64..4, 0u64..5), 1_000_000u64..5_000_000).prop_map(
        move |(sel, burst, general, (k, d), far)| match sel {
            0 | 1 => burst % 4,
            2 | 3 => burst,
            4 | 5 => general,
            6..=8 => (k * slots + d).saturating_sub(2),
            _ => far,
        },
    )
}

/// A batch of `(offset, seq band)` pushes followed by a deadline advance
/// that drains both queues; interleaving push and pop phases is what
/// exercises cursor movement (a slot being reused for a later time after
/// rollover) and hands freed slab nodes to later pushes. Up to 1,600
/// pushes against at most a few hundred events queued at once.
fn arb_script() -> impl Strategy<Value = Vec<(Vec<(u64, u64)>, u64)>> {
    proptest::collection::vec(
        (proptest::collection::vec((arb_offset(), 0u64..4), 0..40), 0u64..70_000),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wheel pop order ≡ heap pop order, element for element, on random
    /// interleaved push/drain schedules.
    #[test]
    fn wheel_pop_order_matches_binary_heap_oracle(script in arb_script()) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut pushed = 0u64;
        let mut now = 0u64;

        let drain = |wheel: &mut TimingWheel<u32>,
                     heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                     deadline: u64| {
            loop {
                let expected = match heap.peek() {
                    Some(Reverse(entry)) if entry.0 <= deadline => {
                        let Reverse(entry) = heap.pop().expect("peeked");
                        Some(entry)
                    }
                    _ => None,
                };
                let got = wheel
                    .pop_if_at_most(SimTime(deadline))
                    .map(|(at, s, v)| (at.as_micros(), s, v));
                prop_assert_eq!(got, expected, "divergence at deadline {}", deadline);
                if got.is_none() {
                    return;
                }
            }
        };

        for (pushes, advance) in script {
            for (offset, band) in pushes {
                let at = now + offset;
                // Unique, but not in push order: the band decides first,
                // so a same-instant push often carries a `seq` below,
                // between or above the ones its slot already links.
                let seq = band << 32 | pushed;
                // The value makes each event distinguishable beyond its
                // key, so a swapped payload can't hide behind a matching
                // `(at, seq)`.
                let value = pushed as u32;
                wheel.push(SimTime(at), seq, value);
                heap.push(Reverse((at, seq, value)));
                pushed += 1;
            }
            now += advance;
            drain(&mut wheel, &mut heap, now);
        }
        // Final full drain: every queued event, in exact order.
        drain(&mut wheel, &mut heap, u64::MAX);
        prop_assert!(wheel.is_empty());
        prop_assert!(heap.is_empty());
    }
}

/// Node 0 broadcasts one frame at start; every node records what it
/// receives.
struct FanNode {
    payload: Option<Arc<Vec<u8>>>,
    fan_to: usize,
    received: Vec<Arc<Vec<u8>>>,
}

impl Node for FanNode {
    type Message = Arc<Vec<u8>>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        if let Some(payload) = self.payload.take() {
            ctx.broadcast_to_first(self.fan_to, payload);
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: Self::Message,
        _ctx: &mut Context<'_, Self::Message>,
    ) {
        self.received.push(msg);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, Self::Message>) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Broadcast fan-out delivers the *same allocation* to every peer:
    /// byte-identical frames by construction, zero deep copies.
    #[test]
    fn arc_fan_out_delivers_byte_identical_frames(
        n in 2usize..12,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let payload = Arc::new(payload);
        let nodes: Vec<FanNode> = (0..n)
            .map(|i| FanNode {
                payload: (i == 0).then(|| payload.clone()),
                fan_to: n,
                received: Vec::new(),
            })
            .collect();
        let mut sim = Simulator::new(nodes, NetworkConfig::default(), 7);
        sim.run_until(SimTime::from_secs(1));

        for i in 1..n {
            let received = &sim.node(NodeId(i)).received;
            prop_assert_eq!(received.len(), 1, "node {} frame count", i);
            prop_assert_eq!(&*received[0], &*payload, "node {} bytes", i);
            prop_assert!(
                Arc::ptr_eq(&received[0], &payload),
                "node {} got a deep copy instead of the shared frame",
                i
            );
        }
        // The broadcaster does not self-deliver.
        prop_assert!(sim.node(NodeId(0)).received.is_empty());
    }
}
