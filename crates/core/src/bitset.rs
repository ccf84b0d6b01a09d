//! Compact server sets.
//!
//! Quorums, transversals, crash configurations and masking checks all manipulate
//! subsets of the universe `U = {0, 1, ..., n-1}`. [`ServerSet`] is a small dynamic
//! bitset tailored to those operations: constant-time membership, popcount-based
//! cardinality and intersection size, and subset tests — the hot operations in
//! measure computation and protocol simulation.

use std::fmt;
use std::ops::Range;

/// A subset of the universe of servers `{0, ..., capacity-1}`, stored as a bitset.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ServerSet {
    capacity: usize,
    words: Vec<u64>,
}

impl fmt::Debug for ServerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ServerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl ServerSet {
    /// Creates an empty set over a universe of `capacity` servers.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ServerSet {
            capacity,
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Creates the full universe `{0, ..., capacity-1}`.
    #[must_use]
    pub fn full(capacity: usize) -> Self {
        let mut s = ServerSet::new(capacity);
        s.insert_range(0..capacity);
        s
    }

    /// Creates a set from an iterator of server indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= capacity`.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, indices: I) -> Self {
        let mut s = ServerSet::new(capacity);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Creates a set from an iterator of server indices, reporting the first
    /// out-of-universe index instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the offending index when any index is `>= capacity`.
    pub(crate) fn try_from_indices<I: IntoIterator<Item = usize>>(
        capacity: usize,
        indices: I,
    ) -> Result<Self, usize> {
        let mut s = ServerSet::new(capacity);
        for i in indices {
            if i >= capacity {
                return Err(i);
            }
            s.insert(i);
        }
        Ok(s)
    }

    /// The size of the universe this set ranges over.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of servers in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns true if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds server `i` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "server index {i} out of range");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Adds every server of `range` to the set, a whole word at a time. An
    /// empty range (`start >= end`) adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > capacity`.
    pub fn insert_range(&mut self, range: Range<usize>) {
        let Range { start, end } = range;
        assert!(end <= self.capacity, "server range end {end} out of range");
        if start >= end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let low = u64::MAX << (start % 64);
        let high = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= low & high;
        } else {
            self.words[first] |= low;
            self.words[first + 1..last].fill(u64::MAX);
            self.words[last] |= high;
        }
    }

    /// Removes server `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity, "server index {i} out of range");
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns true if server `i` is in the set.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The set's words: server `i` is bit `i % 64` of word `i / 64`, and bits
    /// at or beyond the capacity are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Size of the intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn intersection_size(&self, other: &ServerSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns the intersection with `other`.
    #[must_use]
    pub fn intersection(&self, other: &ServerSet) -> ServerSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        ServerSet {
            capacity: self.capacity,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Returns the union with `other`.
    #[must_use]
    pub fn union(&self, other: &ServerSet) -> ServerSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        ServerSet {
            capacity: self.capacity,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Returns the set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &ServerSet) -> ServerSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        ServerSet {
            capacity: self.capacity,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    /// Returns the complement within the universe.
    #[must_use]
    pub fn complement(&self) -> ServerSet {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        // Mask off bits beyond the capacity.
        let excess = self.words.len() * 64 - self.capacity;
        if excess > 0 {
            if let Some(last) = words.last_mut() {
                *last &= u64::MAX >> excess;
            }
        }
        ServerSet {
            capacity: self.capacity,
            words,
        }
    }

    /// Returns true if `self` is a subset of `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &ServerSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns true if the two sets share no members.
    #[must_use]
    pub(crate) fn is_disjoint_from(&self, other: &ServerSet) -> bool {
        self.intersection_size(other) == 0
    }

    /// Returns the members as a sorted vector of indices.
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Removes every member, keeping the capacity (and allocation).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Overwrites the set with the bits of `mask` — the allocation-free hot
    /// path of the evaluation engine, which enumerates crash configurations
    /// as raw `u64` masks and reuses one scratch `ServerSet`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity exceeds 64 or if `mask` has bits at positions
    /// `>= capacity`.
    pub fn assign_mask_u64(&mut self, mask: u64) {
        assert!(
            self.capacity <= 64,
            "assign_mask_u64 requires capacity <= 64 (got {})",
            self.capacity
        );
        let valid = if self.capacity == 64 {
            u64::MAX
        } else {
            (1u64 << self.capacity) - 1
        };
        assert!(
            mask & !valid == 0,
            "mask has bits beyond the capacity {}",
            self.capacity
        );
        if let Some(w) = self.words.first_mut() {
            *w = mask;
        }
    }

    /// The set as a single `u64` mask. Only valid for capacities up to 64.
    ///
    /// # Panics
    ///
    /// Panics if the capacity exceeds 64.
    #[must_use]
    pub(crate) fn as_mask_u64(&self) -> u64 {
        assert!(
            self.capacity <= 64,
            "as_mask_u64 requires capacity <= 64 (got {})",
            self.capacity
        );
        self.words.first().copied().unwrap_or(0)
    }
}

impl FromIterator<usize> for ServerSet {
    /// Builds a set whose capacity is one more than the largest index (or 0 when
    /// empty). When the universe size is known, prefer [`ServerSet::from_indices`].
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let capacity = indices.iter().max().map_or(0, |m| m + 1);
        ServerSet::from_indices(capacity, indices)
    }
}

impl Extend<usize> for ServerSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ServerSet::new(100);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        assert!(!s.contains(200));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = ServerSet::from_indices(130, [5, 127, 0, 64, 65]);
        assert_eq!(s.to_vec(), vec![0, 5, 64, 65, 127]);
    }

    #[test]
    fn set_algebra() {
        let a = ServerSet::from_indices(10, [1, 2, 3, 4]);
        let b = ServerSet::from_indices(10, [3, 4, 5, 6]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.intersection(&b).to_vec(), vec![3, 4]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert!(!a.is_disjoint_from(&b));
        assert!(a.difference(&b).is_disjoint_from(&b));
    }

    #[test]
    fn subset_and_complement() {
        let a = ServerSet::from_indices(70, [10, 20, 69]);
        let b = ServerSet::from_indices(70, [10, 20, 30, 69]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        let comp = a.complement();
        assert_eq!(comp.len(), 67);
        assert!(comp.is_disjoint_from(&a));
        assert_eq!(comp.union(&a).len(), 70);
    }

    #[test]
    fn full_universe() {
        let f = ServerSet::full(65);
        assert_eq!(f.len(), 65);
        assert!(f.contains(64));
        assert!(f.complement().is_empty());
    }

    /// The per-bit reference `insert_range` must agree with.
    fn inserted_one_by_one(capacity: usize, start: usize, end: usize) -> ServerSet {
        let mut s = ServerSet::new(capacity);
        for i in start..end {
            s.insert(i);
        }
        s
    }

    #[test]
    fn insert_range_matches_per_bit_inserts_on_word_edges() {
        for capacity in [1, 63, 64, 65, 1024] {
            // Every start and end on or next to a word boundary, plus the ends.
            let mut edges = vec![0, 1, capacity - 1, capacity];
            for boundary in (64..=capacity).step_by(64) {
                edges.extend([boundary - 1, boundary, boundary + 1]);
            }
            edges.retain(|&e| e <= capacity);
            for &start in &edges {
                for &end in &edges {
                    let mut s = ServerSet::new(capacity);
                    s.insert_range(start..end);
                    assert_eq!(
                        s,
                        inserted_one_by_one(capacity, start, end),
                        "capacity {capacity}, {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_range_keeps_existing_members_and_ignores_empty_ranges() {
        let mut s = ServerSet::from_indices(130, [0, 70, 129]);
        s.insert_range(5..5);
        let (start, end) = (9, 3);
        s.insert_range(start..end);
        assert_eq!(s.to_vec(), vec![0, 70, 129]);
        s.insert_range(62..66);
        assert_eq!(s.to_vec(), vec![0, 62, 63, 64, 65, 70, 129]);
        assert_eq!(ServerSet::full(1024).len(), 1024);
        assert!(ServerSet::full(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_range_past_the_capacity_panics() {
        let mut s = ServerSet::new(65);
        s.insert_range(60..66);
    }

    #[test]
    fn from_iterator_and_extend() {
        let s: ServerSet = [3usize, 7, 2].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.to_vec(), vec![2, 3, 7]);
        let mut t = ServerSet::new(10);
        t.extend([1, 2, 3]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = ServerSet::new(4);
        s.insert(4);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let a = ServerSet::new(4);
        let b = ServerSet::new(5);
        let _ = a.intersection_size(&b);
    }

    #[test]
    fn display_and_debug() {
        let s = ServerSet::from_indices(5, [1, 3]);
        assert_eq!(format!("{s}"), "{1, 3}");
        assert_eq!(format!("{s:?}"), "{1, 3}");
        let empty = ServerSet::new(5);
        assert_eq!(format!("{empty}"), "{}");
    }
}
