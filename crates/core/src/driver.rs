//! The one validator driver: event → step → audit → route.
//!
//! [`Driver::step`] hands the validator one [`Event`], then its commit
//! records to the driver's [`SafetyChecker`] (or drops them when it has
//! none), so no record outlives the event that made it. [`route`] is the
//! only code that turns an [`Output`] into an effect. `hh-sim`'s validator
//! actor and `hh-node` differ only in clock and [`Transport`], and the
//! simulator's byzantine shim may rewrite outputs between step and route.

use crate::node::{Output, StorageFault, Validator, ValidatorMessage};
use crate::SafetyChecker;
use hh_storage::LogBackend;
use hh_types::ValidatorId;

/// One input to a validator.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// The process starts: [`Validator::on_restart`] when the store holds
    /// a log, else [`Validator::on_start`].
    Boot,
    /// A message from a peer validator or a client.
    Message(ValidatorId, &'a ValidatorMessage),
    /// A timer armed through [`Transport::set_timer`] fired.
    Timer(u64),
    /// The process came back after a crash ([`Validator::on_restart`]).
    Restart,
    /// Graceful shutdown ([`Validator::on_shutdown`]).
    Shutdown,
}

/// A runtime's network and timers.
pub trait Transport {
    /// Sends `msg` to one validator or client.
    fn send(&mut self, to: ValidatorId, msg: ValidatorMessage);
    /// Sends `msg` to every other validator.
    fn broadcast(&mut self, msg: ValidatorMessage);
    /// Arms a one-shot timer that hands `token` back `delay_us` from now.
    /// Timers due at the same instant fire in the order they were armed.
    fn set_timer(&mut self, delay_us: u64, token: u64);
}

/// A validator and the checker that audits its commits.
pub struct Driver<B: LogBackend> {
    validator: Validator<B>,
    audit: Option<SafetyChecker>,
}

impl<B: LogBackend> Driver<B> {
    /// Drives `validator`, auditing its commits with `audit`, if any.
    pub fn new(validator: Validator<B>, audit: Option<SafetyChecker>) -> Self {
        Driver { validator, audit }
    }

    /// The validator inside.
    pub fn validator(&self) -> &Validator<B> {
        &self.validator
    }

    /// Mutable access to the validator inside.
    pub fn validator_mut(&mut self) -> &mut Validator<B> {
        &mut self.validator
    }

    /// Handles `event` at `now` (µs) and audits the commits it made.
    pub fn step(&mut self, event: Event<'_>, now: u64) -> Vec<Output> {
        let v = &mut self.validator;
        let out = match event {
            Event::Boot if v.holds_log() => v.on_restart(now),
            Event::Boot => v.on_start(now),
            Event::Message(from, msg) => v.on_message(from, msg, now),
            Event::Timer(token) => v.on_timer(token, now),
            Event::Restart => v.on_restart(now),
            Event::Shutdown => v.on_shutdown(now),
        };
        let records = v.take_commit_records();
        if let Some(checker) = &mut self.audit {
            if !records.is_empty() {
                checker.observe_all(v.id().0, &records);
            }
        }
        out
    }
}

/// Performs `outputs` on `transport`, in order.
///
/// # Errors
///
/// The [`StorageFault`] that fail-stopped the validator, after routing
/// every other output.
pub fn route(outputs: Vec<Output>, transport: &mut impl Transport) -> Result<(), StorageFault> {
    let mut result = Ok(());
    for output in outputs {
        match output {
            Output::Send(to, msg) => transport.send(to, msg),
            Output::Broadcast(msg) => transport.broadcast(msg),
            Output::SetTimer { delay_us, token } => transport.set_timer(delay_us, token),
            Output::StorageError(fault) => result = result.and(Err(fault)),
        }
    }
    result
}
