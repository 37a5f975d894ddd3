//! Committee-indexed sets and rows, where a `(round, author)` address
//! costs one mask bit once the round is known.
//!
//! * [`AuthorMask`] — a set of committee members by index, inline up to
//!   128 members and on the heap only above;
//! * [`AuthorRow`] — one entry per member of a mask, packed in ascending
//!   member order, so an absent member costs its clear bit alone;
//! * [`SlotDigests`] — the first digest of each `(round, author)` slot,
//!   one row per round in a map sparse by round, pruned by whole rows.

use crate::{Round, ValidatorId};
use hh_crypto::Digest;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Words {
    Inline([u64; 2]),
    /// Only once a member at or above 128 joins.
    Spilled(Box<[u64]>),
}

/// A set of committee members by index, bit `i % 64` of word `i / 64` for
/// member `i`. Members below 128 need no allocation; a larger one moves
/// the words to the heap, sized to hold it. Equality is set equality,
/// however the words are held. The operations a DAG walk repeats match
/// the inline words first, whose length the compiler then knows.
#[derive(Clone, Debug)]
pub struct AuthorMask(Words);

impl Default for AuthorMask {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthorMask {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        AuthorMask(Words::Inline([0; 2]))
    }

    /// The words; those past the highest member are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline(words) => words,
            Words::Spilled(words) => words,
        }
    }

    /// The words, first grown to at least `len`.
    #[inline]
    fn words_mut(&mut self, len: usize) -> &mut [u64] {
        if len > self.words().len() {
            let mut spilled = vec![0; len];
            spilled[..self.words().len()].copy_from_slice(self.words());
            self.0 = Words::Spilled(spilled.into_boxed_slice());
        }
        match &mut self.0 {
            Words::Inline(words) => words,
            Words::Spilled(words) => words,
        }
    }

    /// Whether `member` is in the set.
    #[inline]
    pub fn contains(&self, member: usize) -> bool {
        let word = match &self.0 {
            Words::Inline(words) => words.get(member / 64),
            Words::Spilled(words) => words.get(member / 64),
        };
        word.is_some_and(|word| word & (1 << (member % 64)) != 0)
    }

    /// Adds `member`.
    #[inline]
    pub fn insert(&mut self, member: usize) {
        if let Words::Inline(words) = &mut self.0 {
            if let Some(word) = words.get_mut(member / 64) {
                *word |= 1 << (member % 64);
                return;
            }
        }
        self.words_mut(member / 64 + 1)[member / 64] |= 1 << (member % 64);
    }

    /// Adds every member of `other`.
    #[inline]
    pub fn union_with(&mut self, other: &AuthorMask) {
        if let (Words::Inline(words), Words::Inline(add)) = (&mut self.0, &other.0) {
            *words = [words[0] | add[0], words[1] | add[1]];
            return;
        }
        for (word, add) in self.words_mut(other.words().len()).iter_mut().zip(other.words()) {
            *word |= add;
        }
    }

    /// Removes every member of `other`.
    #[inline]
    pub fn remove_all(&mut self, other: &AuthorMask) {
        for (word, drop) in self.words_mut(0).iter_mut().zip(other.words()) {
            *word &= !drop;
        }
    }

    /// The number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&word| word == 0)
    }

    /// The number of members below `member`, and whether it is one.
    #[inline]
    fn rank(&self, member: usize) -> (usize, bool) {
        #[inline(always)]
        fn rank(words: &[u64], member: usize) -> (usize, bool) {
            let (word, bit) = (member / 64, member % 64);
            let here = words.get(word).copied().unwrap_or(0);
            let below: u32 = words.iter().take(word).map(|w| w.count_ones()).sum();
            ((below + (here & ((1 << bit) - 1)).count_ones()) as usize, here & (1 << bit) != 0)
        }
        match &self.0 {
            Words::Inline(words) => rank(words, member),
            Words::Spilled(words) => rank(words, member),
        }
    }
}

impl PartialEq for AuthorMask {
    fn eq(&self, other: &Self) -> bool {
        let len = self.words().len().max(other.words().len());
        let word = |mask: &Self, i| mask.words().get(i).copied().unwrap_or(0);
        (0..len).all(|i| word(self, i) == word(other, i))
    }
}

impl Eq for AuthorMask {}

impl FromIterator<usize> for AuthorMask {
    fn from_iter<I: IntoIterator<Item = usize>>(members: I) -> Self {
        let mut mask = AuthorMask::new();
        for member in members {
            mask.insert(member);
        }
        mask
    }
}

/// One entry per member of a mask, packed in ascending member order: a
/// member's entry sits at its rank, the number of members below it. The
/// entries grow like a `Vec`'s unless the caller reserves ahead.
#[derive(Clone, Debug)]
pub struct AuthorRow<T> {
    members: AuthorMask,
    entries: Vec<T>,
}

impl<T> Default for AuthorRow<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> AuthorRow<T> {
    /// An empty row with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        AuthorRow { members: AuthorMask::new(), entries: Vec::with_capacity(capacity) }
    }

    /// The entries, in ascending member order.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the row holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries the row has room for without growing.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Makes room for exactly `additional` more entries.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// `member`'s entry, if it has one.
    pub fn get(&self, member: usize) -> Option<&T> {
        let (rank, present) = self.members.rank(member);
        present.then(|| &self.entries[rank])
    }

    /// The members of `wanted` that hold an entry, ascending, with it. The
    /// `k`-th member's entry is the `k`-th stored, so the walk passes the
    /// members word by word beside the entries and takes no rank.
    pub fn iter_in<'a>(&'a self, wanted: &'a AuthorMask) -> impl Iterator<Item = (usize, &'a T)> {
        let wanted = wanted.words();
        let mut first = 0;
        self.members.words().iter().enumerate().flat_map(move |(w, &present)| {
            let want = wanted.get(w).copied().unwrap_or(0);
            let count = present.count_ones() as usize;
            let entries = &self.entries[first..first + count];
            first += count;
            let mut rest = present;
            entries.iter().filter_map(move |entry| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                (want & (1 << bit) != 0).then_some((w * 64 + bit, entry))
            })
        })
    }

    /// Stores `entry` as `member`'s, at its rank.
    ///
    /// # Panics
    ///
    /// Panics if `member` already holds an entry.
    pub fn insert(&mut self, member: usize, entry: T) {
        let (rank, present) = self.members.rank(member);
        assert!(!present, "member {member} already holds an entry");
        self.entries.insert(rank, entry);
        self.members.insert(member);
    }
}

/// The first digest of each `(round, author)` slot: one [`AuthorRow`] of
/// digests per round, in a map sparse by round, so a round far from the
/// others (one a peer chose) costs its own row alone. A row grows one
/// digest at a time, never carrying a doubling's slack.
#[derive(Clone, Debug, Default)]
pub struct SlotDigests {
    rows: BTreeMap<Round, AuthorRow<Digest>>,
}

impl SlotDigests {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `digest` for the slot `(round, author)` if the slot has
    /// none. Returns the slot's first digest when it differs from `digest`
    /// (a second vertex for one slot); the first stays recorded.
    pub fn record(&mut self, round: Round, author: ValidatorId, digest: Digest) -> Option<Digest> {
        let row = self.rows.entry(round).or_default();
        if let Some(&first) = row.get(author.index()) {
            return (first != digest).then_some(first);
        }
        row.reserve_exact(1);
        row.insert(author.index(), digest);
        None
    }

    /// Drops the rows below `floor`, whole.
    pub fn prune_below(&mut self, floor: Round) {
        while let Some(row) = self.rows.first_entry().filter(|row| *row.key() < floor) {
            row.remove();
        }
    }

    /// The number of slots recorded.
    pub fn len(&self) -> usize {
        self.rows.values().map(AuthorRow::len).sum()
    }

    /// Whether no slot is recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mask_spills_only_above_128_members_and_compares_as_a_set() {
        let mut mask: AuthorMask = [0, 5, 64, 127].into_iter().collect();
        assert_eq!(mask.words(), [1 | 1 << 5, 1 | 1 << 63], "inline");
        assert_eq!((mask.len(), mask.rank(64), mask.rank(200)), (4, (2, true), (4, false)));
        let inline = mask.clone();
        mask.insert(200);
        assert_eq!(mask.words().len(), 4, "spilled to hold member 200");
        assert!(mask.contains(200) && !mask.contains(199) && !inline.contains(200));
        assert_ne!(mask, inline);
        mask.remove_all(&[200].into_iter().collect());
        assert_eq!(mask, inline, "equal sets, one spilled");
        let mut union = AuthorMask::new();
        union.union_with(&mask);
        assert_eq!((union.words().len(), &union), (4, &inline));
        union.remove_all(&inline);
        assert!(union.is_empty());
    }

    #[test]
    fn a_rows_entries_sit_at_their_members_ranks() {
        let mut row = AuthorRow::with_capacity(3);
        for member in [7, 2, 130, 5] {
            row.insert(member, member * 10);
        }
        assert_eq!(row.entries(), [20, 50, 70, 1300]);
        assert_eq!((row.get(7), row.get(6), row.get(500)), (Some(&70), None, None));
        let wanted: AuthorMask = [5, 6, 130].into_iter().collect();
        assert_eq!(row.iter_in(&wanted).collect::<Vec<_>>(), [(5, &50), (130, &1300)]);
    }

    #[test]
    #[should_panic(expected = "member 3 already holds an entry")]
    fn a_member_holds_one_entry() {
        let mut row = AuthorRow::default();
        row.insert(3, 'a');
        row.insert(3, 'b');
    }
}
