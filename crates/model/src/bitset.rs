//! Fixed-width bitsets for hold sets.
//!
//! The simulator tracks, for each processor, which of the `n` messages it
//! holds. Hold sets are append-only (a received message is never dropped),
//! dense by the end of a run, and queried in hot validation loops — a flat
//! `u64`-block bitset beats `HashSet<u32>` on every axis here.

use serde::{Deserialize, Serialize};

/// A fixed-capacity set of small integers backed by `u64` blocks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl BitSet {
    /// An empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// The value range `0..capacity` this set admits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every value in `0..capacity` is present.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Inserts `value`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    #[inline]
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "bitset value {value} >= capacity {}",
            self.capacity
        );
        let (b, m) = (value / 64, 1u64 << (value % 64));
        let newly = self.blocks[b] & m == 0;
        self.blocks[b] |= m;
        self.len += newly as usize;
        newly
    }

    /// Whether `value` is present. Values `>= capacity` are never present.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        value < self.capacity && self.blocks[value / 64] & (1u64 << (value % 64)) != 0
    }

    /// Iterates the present values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(bi * 64 + tz)
            })
        })
    }

    /// The backing `u64` blocks, least-significant value first. Bits at or
    /// above `capacity` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Builds a set directly from backing words (the bitset kernel's flat
    /// hold rows). Bits at or above `capacity` are masked off; `len` is
    /// recomputed by popcount.
    pub fn from_words(mut words: Vec<u64>, capacity: usize) -> Self {
        words.resize(capacity.div_ceil(64), 0);
        if !capacity.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (capacity % 64)) - 1;
            }
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        BitSet {
            blocks: words,
            capacity,
            len,
        }
    }

    /// The smallest absent value in `0..capacity`, if any.
    pub fn first_missing(&self) -> Option<usize> {
        for (bi, &block) in self.blocks.iter().enumerate() {
            if block != u64::MAX {
                let candidate = bi * 64 + (!block).trailing_zeros() as usize;
                if candidate < self.capacity {
                    return Some(candidate);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(63)); // already present
        assert_eq!(s.len(), 4);
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(!s.contains(1));
        assert!(!s.contains(1000));
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(130);
        for v in [5, 64, 127, 128, 0] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 64, 127, 128]);
    }

    #[test]
    fn fullness() {
        let mut s = BitSet::new(3);
        assert!(!s.is_full());
        s.insert(0);
        s.insert(1);
        assert_eq!(s.first_missing(), Some(2));
        s.insert(2);
        assert!(s.is_full());
        assert_eq!(s.first_missing(), None);
    }

    #[test]
    fn empty_set() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_full()); // vacuously
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn first_missing_at_block_boundary() {
        let mut s = BitSet::new(65);
        for v in 0..64 {
            s.insert(v);
        }
        assert_eq!(s.first_missing(), Some(64));
    }
}
