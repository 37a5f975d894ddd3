//! The per-layer profiling counters behind one switch.
//!
//! The flag lives in `hh_crypto::prof` (digests, signatures, framed
//! codec); [`crate::build_sim`] reads it once and tells the simulator it
//! builds whether to time its event loop (`hh_net::prof`: queue ops,
//! deliveries, timers), so flip it before building the run. Counters are
//! thread-local — diff [`net_snapshot`]/[`crypto_snapshot`] around a run
//! *on the thread that executes it* to attribute cost to that run.

pub use hh_crypto::prof::{enabled, set_enabled, snapshot as crypto_snapshot, CryptoProf};
pub use hh_net::prof::{snapshot as net_snapshot, NetProf};
