//! Dense `u64`-word bit sets — the lattice representation shared by the
//! dataflow, taint and interval fixpoints.
//!
//! Every set-valued analysis fact in this crate (reaching def ids, tainted
//! [`crate::symbols::SymbolId`]s, interval-environment domains) is a
//! subset of a universe whose size is known up front, so a flat word
//! vector beats a hash set: `union_with` is a handful of `or`s per 64
//! elements, equality is `memcmp`, and cloning is one allocation.
//!
//! A fixpoint keeps one such set per CFG node. [`BitMatrix`] stores all of
//! them in one word vector (row `r` is words `r * stride ..`), so a whole
//! per-node lattice is a single allocation, and transfer functions write
//! into one reused scratch row ([`BitMatrix::union_rows_into`],
//! [`BitMatrix::store_if_changed`]) instead of building a set per visit.

/// A dense bit set sized at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size (not the number of set bits — see [`BitSet::count`]).
    pub fn universe(&self) -> usize {
        self.len
    }

    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let was = row_contains(&self.words, i);
        row_insert(&mut self.words, i);
        !was
    }

    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        row_remove(&mut self.words, i);
    }

    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        row_contains(&self.words, i)
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter_ones()
    }

    /// Iterate set indices in increasing order, skipping zero words — the
    /// sparse-friendly walk the def-use sweep uses.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// A fixed number of equal-universe bit sets (one per row) in one flat
/// `u64` vector: the per-node lattice of a fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    stride: usize,
    len: usize,
}

impl BitMatrix {
    /// `rows` empty sets over a universe of `len` elements.
    pub fn new(rows: usize, len: usize) -> Self {
        let stride = len.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            stride,
            len,
        }
    }

    /// Words per row — the length of a scratch row for this matrix.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `r` as words.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r` as mutable words.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    pub fn contains(&self, r: usize, i: usize) -> bool {
        debug_assert!(i < self.len);
        row_contains(self.row(r), i)
    }

    pub fn insert(&mut self, r: usize, i: usize) {
        debug_assert!(i < self.len);
        row_insert(self.row_mut(r), i);
    }

    /// `scratch = ⋃ rows[r] for r in rows` — the may-join of a node's
    /// neighbours, written into a caller-owned row of [`stride`] words.
    ///
    /// [`stride`]: BitMatrix::stride
    pub fn union_rows_into(&self, rows: &[usize], scratch: &mut [u64]) {
        scratch.fill(0);
        for &r in rows {
            for (s, w) in scratch.iter_mut().zip(self.row(r)) {
                *s |= *w;
            }
        }
    }

    /// Copy `scratch` into row `r`; returns true if the row changed.
    pub fn store_if_changed(&mut self, r: usize, scratch: &[u64]) -> bool {
        let row = self.row_mut(r);
        if row == scratch {
            return false;
        }
        row.copy_from_slice(scratch);
        true
    }
}

/// Bit `i` of a row of words (a [`BitSet`]'s, a [`BitMatrix::row`], or a
/// scratch row).
pub fn row_contains(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

/// Set bit `i` of a row slice.
pub fn row_insert(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Clear bit `i` of a row slice.
pub fn row_remove(row: &mut [u64], i: usize) {
    row[i / 64] &= !(1 << (i % 64));
}

/// Iterator over set bit indices (see [`BitSet::iter_ones`]).
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_ones_skips_empty_words() {
        let mut s = BitSet::new(300);
        for i in [0, 63, 64, 200, 299] {
            s.insert(i);
        }
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 200, 299]);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn empty_universe_iterates_nothing() {
        let s = BitSet::new(0);
        assert_eq!(s.iter_ones().count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn matrix_rows_are_independent_sets() {
        let mut m = BitMatrix::new(3, 130);
        assert_eq!(m.stride(), 3);
        m.insert(0, 1);
        m.insert(1, 129);
        m.insert(2, 64);
        assert!(m.contains(1, 129) && !m.contains(0, 129));
        let mut scratch = vec![0; m.stride()];
        m.union_rows_into(&[0, 1], &mut scratch);
        assert!(row_contains(&scratch, 1) && row_contains(&scratch, 129));
        assert!(!row_contains(&scratch, 64));
        row_remove(&mut scratch, 1);
        row_insert(&mut scratch, 2);
        assert!(m.store_if_changed(2, &scratch));
        assert!(!m.store_if_changed(2, &scratch));
        assert_eq!(m.row(2), &scratch[..]);
        assert!(m.contains(2, 2) && m.contains(2, 129) && !m.contains(2, 64));
    }

    #[test]
    fn empty_universe_matrix_has_empty_rows() {
        let m = BitMatrix::new(4, 0);
        assert_eq!(m.stride(), 0);
        assert!(m.row(3).is_empty());
    }

    #[test]
    fn intersect_and_clear() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::new(10);
        b.insert(2);
        b.insert(3);
        a.intersect_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2]);
        a.clear();
        assert!(a.is_empty());
    }
}
