//! Error types shared across the workspace.

use crate::{Round, ValidatorId, MAX_COMMITTEE_SIZE};
use std::fmt;

/// Errors produced when constructing or validating domain types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// A committee must contain at least one validator.
    EmptyCommittee,
    /// A committee holds at most one member per validator id; carries the
    /// size asked for.
    TooManyValidators(usize),
    /// Validators must hold positive stake.
    ZeroStake(ValidatorId),
    /// The referenced validator is not a committee member.
    UnknownValidator(ValidatorId),
    /// A vertex failed structural validation.
    InvalidVertex {
        /// The offending vertex's round.
        round: Round,
        /// The offending vertex's author.
        author: ValidatorId,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A byte buffer could not be decoded.
    Decode(&'static str),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::EmptyCommittee => write!(f, "committee has no validators"),
            TypeError::TooManyValidators(n) => {
                write!(
                    f,
                    "committee of {n} validators exceeds the {} validator ids",
                    MAX_COMMITTEE_SIZE
                )
            }
            TypeError::ZeroStake(id) => write!(f, "validator {id} has zero stake"),
            TypeError::UnknownValidator(id) => write!(f, "validator {id} is not in the committee"),
            TypeError::InvalidVertex { round, author, reason } => {
                write!(f, "invalid vertex (round {round}, author {author}): {reason}")
            }
            TypeError::Decode(reason) => write!(f, "decode error: {reason}"),
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_ish() {
        let errs = [
            TypeError::EmptyCommittee,
            TypeError::TooManyValidators(65_537),
            TypeError::ZeroStake(ValidatorId(1)),
            TypeError::UnknownValidator(ValidatorId(2)),
            TypeError::InvalidVertex {
                round: Round(4),
                author: ValidatorId(0),
                reason: "missing parents",
            },
            TypeError::Decode("truncated"),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<TypeError>();
    }
}
