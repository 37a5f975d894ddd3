//! The set of ordered (delivered) vertices, addressed the way the DAG is.

use hh_types::{AuthorMask, Round, Vertex};
use std::collections::VecDeque;

/// Which vertices have been ordered: one committee author mask per round.
///
/// The DAG stores one vertex per `(round, author)` and the engine orders,
/// and asks about, DAG-resident vertices only, so the address stands for
/// the vertex and the set costs `⌈n/64⌉` words per round. Rounds the DAG
/// has garbage-collected are forgotten at the next commit, which bounds
/// the set by the GC depth however long the node runs.
#[derive(Clone, Debug)]
pub struct OrderedSet {
    /// Words per round: `⌈n/64⌉`.
    words: usize,
    /// Round of the first row; everything below has been forgotten.
    floor: Round,
    /// `words` per round, from `floor` up.
    masks: VecDeque<u64>,
}

impl OrderedSet {
    /// The empty set for a committee of `committee_size` authors.
    pub fn new(committee_size: usize) -> Self {
        OrderedSet { words: committee_size.div_ceil(64), floor: Round(0), masks: VecDeque::new() }
    }

    /// The word index and bit of `v`'s address; `None` below the floor or
    /// outside the committee.
    fn slot(&self, v: &Vertex) -> Option<(usize, u64)> {
        let row = v.round().0.checked_sub(self.floor.0)? as usize;
        let idx = v.author().index();
        (idx / 64 < self.words).then_some((row * self.words + idx / 64, 1 << (idx % 64)))
    }

    /// Whether the vertex stored at `v`'s `(round, author)` has been
    /// ordered. Meaningful for DAG-resident vertices, which is all
    /// `Dag::causal_sub_dag_with` asks about (`|v| ordered.contains(v)`).
    pub fn contains(&self, v: &Vertex) -> bool {
        self.slot(v).and_then(|(word, bit)| Some(self.masks.get(word)? & bit != 0)).unwrap_or(false)
    }

    /// Whether the `round` vertices of every author in `authors` have been
    /// ordered. Rounds below the floor have been garbage-collected from the
    /// DAG, where a history walk ends, and count as ordered.
    pub(crate) fn contains_all(&self, round: Round, authors: &AuthorMask) -> bool {
        let Some(row) = round.0.checked_sub(self.floor.0) else {
            return true;
        };
        let first = row as usize * self.words;
        authors
            .words()
            .iter()
            .enumerate()
            .all(|(i, word)| word & !self.masks.get(first + i).copied().unwrap_or(0) == 0)
    }

    /// Marks the vertex stored at `v`'s `(round, author)` as ordered.
    pub fn insert(&mut self, v: &Vertex) {
        let Some((word, bit)) = self.slot(v) else {
            return;
        };
        if word >= self.masks.len() {
            self.masks.resize((word / self.words + 1) * self.words, 0);
        }
        self.masks[word] |= bit;
    }

    /// Forgets every round below `round`.
    pub(crate) fn forget_below(&mut self, round: Round) {
        if let Some(rows) = round.0.checked_sub(self.floor.0) {
            let stale = (rows as usize * self.words).min(self.masks.len());
            self.masks.drain(..stale);
            self.floor = round;
        }
    }

    /// Number of ordered vertices currently remembered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.masks.iter().map(|w| w.count_ones() as usize).sum()
    }
}
