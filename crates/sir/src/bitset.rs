//! Word-packed bit rows: a table of equal-width bitsets in one `Vec<u64>`.
//!
//! Block-level dataflow facts over dense indices (SIR values, machine
//! vregs) are one row per block: joins, transfers and change tests are word
//! operations, and rows iterate in ascending index order, so anything
//! derived from them is deterministic.

use std::marker::PhantomData;

/// An index a row holds: `usize` or one of the IR's id newtypes.
pub trait Idx: Copy + From<usize> + Into<usize> + 'static {}
impl<T: Copy + From<usize> + Into<usize> + 'static> Idx for T {}

/// Equal-width bitsets, packed row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRows<I = usize> {
    width: usize,
    words: Vec<u64>,
    idx: PhantomData<fn(I) -> I>,
}

impl<I: Idx> BitRows<I> {
    /// `rows` empty rows, each able to hold indices `0..bits`.
    pub fn new(rows: usize, bits: usize) -> Self {
        let width = bits.div_ceil(64);
        let (words, idx) = (vec![0; rows * width], PhantomData);
        BitRows { width, words, idx }
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> Row<'_, I> {
        let words = &self.words[r * self.width..(r + 1) * self.width];
        Row {
            words,
            idx: PhantomData,
        }
    }

    /// Row `r` as raw words, for in-place word operations.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.width..(r + 1) * self.width]
    }

    /// Sets bit `i` of row `r`.
    pub fn insert(&mut self, r: usize, i: I) {
        let i: usize = i.into();
        self.words[r * self.width + (i >> 6)] |= 1u64 << (i & 63);
    }
}

/// One borrowed row of a [`BitRows`].
#[derive(Debug, Clone, Copy)]
pub struct Row<'a, I = usize> {
    words: &'a [u64],
    idx: PhantomData<fn(I) -> I>,
}

impl<'a, I: Idx> Row<'a, I> {
    /// Whether `i` is set.
    pub fn contains(&self, i: I) -> bool {
        let i: usize = i.into();
        self.words
            .get(i >> 6)
            .is_some_and(|w| w >> (i & 63) & 1 != 0)
    }

    /// Number of set indices.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no index is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The raw words.
    pub(crate) fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Set indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = I> + 'a {
        ones(self.words.iter().copied())
    }

    /// Indices set in both `self` and `other`, ascending.
    pub fn and(&self, other: Row<'a, I>) -> impl Iterator<Item = I> + 'a {
        ones(self.words.iter().zip(other.words).map(|(a, b)| a & b))
    }
}

/// Ascending positions of the one bits of a word sequence.
fn ones<I: Idx>(words: impl Iterator<Item = u64>) -> impl Iterator<Item = I> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            let i = wi * 64 + w.trailing_zeros() as usize;
            (w != 0).then(|| {
                w &= w - 1;
                I::from(i)
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_independent_and_iterate_ascending() {
        let mut t: BitRows = BitRows::new(3, 130);
        for i in [129, 0, 64, 63, 7] {
            t.insert(1, i);
        }
        t.insert(2, 64);
        assert!(t.row(0).is_empty());
        assert_eq!(t.row(1).iter().collect::<Vec<_>>(), vec![0, 7, 63, 64, 129]);
        assert_eq!(t.row(1).len(), 5);
        assert!(t.row(1).contains(129) && !t.row(1).contains(128));
        assert!(!t.row(1).contains(10_000));
        assert_eq!(t.row(1).and(t.row(2)).collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn empty_universe_has_no_words() {
        let t: BitRows = BitRows::new(4, 0);
        assert!(t.row(3).is_empty());
        assert_eq!(t.row(3).iter().count(), 0);
    }
}
