//! Deterministic discrete-event network simulation.
//!
//! This crate is the stand-in for the paper's AWS deployment (13 regions,
//! `m5d.8xlarge` machines; §5 "Experimental setup") and for its
//! partially-synchronous network model (§2.1). It provides:
//!
//! * [`Simulator`] — a deterministic discrete-event loop driving a set of
//!   [`Node`] state machines. Identical seeds produce identical executions.
//!   While its node type's [`Node::loop_profiler`] is on, it times its
//!   queue operations and dispatches through that hook; the crate has no
//!   profiling switch or counters of its own.
//! * [`LatencyModel`] / [`GeoLatency`] — per-link one-way delays, including
//!   an embedded RTT matrix for the paper's 13 AWS regions.
//! * Partial synchrony, as a [`ChaosSchedule`] window: an all-links window
//!   that ends at GST adds a bounded uniform delay to every frame and drops
//!   a share of them, which the broadcast layer retransmits; after it every
//!   message arrives within its link latency.
//! * [`FaultSchedule`] — crash, recovery, slowdown and partition
//!   injection — and [`ChaosSchedule`] — windows of frame drop,
//!   duplication, corruption and reorder: the values a harness validates
//!   are the values the simulator executes.
//! * [`tcp`] — a framed TCP transport (length-prefixed frames,
//!   thread-per-peer, reconnect with backoff): the wire layer of the real
//!   `hh-node` runtime.
//!
//! The crate is intentionally generic: it knows nothing about consensus.
//! Nodes exchange an arbitrary `Clone` message type.
//!
//! # Example
//!
//! ```
//! use hh_net::{Context, Node, NodeId, NetworkConfig, Simulator, SimTime};
//!
//! /// Every node greets node 0; node 0 counts greetings.
//! struct Greeter { hellos: usize }
//!
//! impl Node for Greeter {
//!     type Message = &'static str;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
//!         if ctx.id() != NodeId(0) {
//!             ctx.send(NodeId(0), "hello");
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: Self::Message,
//!                   _ctx: &mut Context<'_, Self::Message>) {
//!         self.hellos += 1;
//!     }
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, Self::Message>) {}
//! }
//!
//! let nodes = (0..4).map(|_| Greeter { hellos: 0 }).collect();
//! let mut sim = Simulator::new(nodes, NetworkConfig::default(), 42);
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.node(NodeId(0)).hellos, 3);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod chaos;
mod fault;
mod latency;
mod sim;
pub mod tcp;
mod time;
pub mod wheel;

pub use chaos::{ChaosEntry, ChaosSchedule, ChaosTarget};
pub use fault::{in_committee, max_faulty, non_empty, FaultEvent, FaultSchedule};
pub use latency::{GeoLatency, LatencyModel, Region, REGION_COUNT};
pub use sim::{Context, LoopSite, NetworkConfig, Node, NodeId, SimStats, Simulator};
pub use time::{Duration, SimTime};
