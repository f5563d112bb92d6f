//! Rasterized regions as binary assignment matrices (Definition 4).

/// A binary mask over the atomic raster: the assignment matrix `A^R` of a
/// rasterized region.
///
/// Stored bit-packed: cell `(r, c)` is bit `i = r * w + c` of the raster,
/// held in `words[i / 64]` at bit `i % 64` (row-major, LSB-first over the
/// whole raster), so the little-endian bytes of the words are exactly the
/// wire's packed-bit form. Bits past `h * w` in the last word are always
/// zero, which lets the derived `Eq` and `Hash` compare and hash whole
/// words: masks key memo tables (the compiled-plan cache, the shard
/// router's decomposition memo) at one bit per cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mask {
    h: usize,
    w: usize,
    words: Vec<u64>,
}

/// Bits `lo..hi` of one word (`lo < hi <= 64`).
#[inline]
fn span(lo: usize, hi: usize) -> u64 {
    let top = if hi == 64 { !0 } else { (1u64 << hi) - 1 };
    top & (!0u64 << lo)
}

/// Splits the flat bit range `start..end` into `(word index, bit mask)`
/// pieces and folds them with `f`, stopping early when `f` returns false.
/// Returns whether every call returned true.
#[inline]
pub(crate) fn for_range(start: usize, end: usize, mut f: impl FnMut(usize, u64) -> bool) -> bool {
    let mut i = start;
    while i < end {
        let lo = i % 64;
        let hi = (lo + (end - i)).min(64);
        if !f(i / 64, span(lo, hi)) {
            return false;
        }
        i += hi - lo;
    }
    true
}

/// Indices of the set bits of one word, ascending.
pub(crate) struct Bits(pub(crate) u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

impl Mask {
    /// Creates an empty (all-zero) mask.
    pub fn empty(h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "mask dimensions must be positive");
        Mask {
            h,
            w,
            words: vec![0; (h * w).div_ceil(64)],
        }
    }

    /// Creates a full (all-one) mask — the matrix `S_1` of the paper.
    pub fn full(h: usize, w: usize) -> Self {
        let mut m = Mask::empty(h, w);
        for_range(0, h * w, |i, bits| {
            m.words[i] = bits;
            true
        });
        m
    }

    /// Creates a mask from an explicit bit buffer (row-major).
    pub fn from_bits(h: usize, w: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), h * w, "bit buffer does not match dimensions");
        let mut m = Mask::empty(h, w);
        for (word, chunk) in m.words.iter_mut().zip(bits.chunks(64)) {
            *word = chunk
                .iter()
                .enumerate()
                .fold(0, |acc, (i, &b)| acc | (b as u64) << i);
        }
        m
    }

    /// Creates a mask from its packed words (the layout documented on
    /// [`Mask`]).
    ///
    /// # Panics
    /// Panics if `words` has the wrong length for `h * w` cells or a bit
    /// past the last cell is set.
    pub fn from_words(h: usize, w: usize, words: Vec<u64>) -> Self {
        assert!(h > 0 && w > 0, "mask dimensions must be positive");
        let cells = h * w;
        assert_eq!(
            words.len(),
            cells.div_ceil(64),
            "word buffer does not match dimensions"
        );
        assert!(
            cells.is_multiple_of(64) || words[cells / 64] >> (cells % 64) == 0,
            "bits set past the last cell"
        );
        Mask { h, w, words }
    }

    /// The packed words (the layout documented on [`Mask`]).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Creates a rectangular mask covering `[r0, r1) x [c0, c1)`.
    pub fn rect(h: usize, w: usize, r0: usize, c0: usize, r1: usize, c1: usize) -> Self {
        assert!(
            r1 <= h && c1 <= w && r0 <= r1 && c0 <= c1,
            "rect out of bounds"
        );
        let mut m = Mask::empty(h, w);
        m.set_rect(r0, c0, r1, c1);
        m
    }

    /// Mask height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Mask width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Reads one bit.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.h && col < self.w);
        let i = row * self.w + col;
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes one bit.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.h && col < self.w);
        let i = row * self.w + col;
        let bit = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Number of set cells (the region's area in atomic grids).
    pub fn area(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no cell is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the set cells as `(row, col)`, row-major.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let w = self.w;
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| Bits(word).map(move |b| wi * 64 + b))
            .map(move |i| (i / w, i % w))
    }

    /// Set union (in place).
    pub fn union_with(&mut self, other: &Mask) {
        self.zip_words(other, |a, b| a | b);
    }

    /// Set difference (in place): removes `other`'s cells.
    pub fn subtract(&mut self, other: &Mask) {
        self.zip_words(other, |a, b| a & !b);
    }

    /// Set intersection (in place).
    pub fn intersect_with(&mut self, other: &Mask) {
        self.zip_words(other, |a, b| a & b);
    }

    /// Whether the two masks share any cell.
    pub fn intersects(&self, other: &Mask) -> bool {
        self.check_dims(other);
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Whether every set cell of `self` is also set in `other`
    /// (`self ⊆ other`).
    pub fn is_subset_of(&self, other: &Mask) -> bool {
        self.check_dims(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Whether the rectangle `[r0, r1) x [c0, c1)` is fully covered.
    pub fn covers_rect(&self, r0: usize, c0: usize, r1: usize, c1: usize) -> bool {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        (r0..r1).all(|r| {
            for_range(r * self.w + c0, r * self.w + c1, |i, bits| {
                self.words[i] & bits == bits
            })
        })
    }

    /// Sets every cell of the rectangle `[r0, r1) x [c0, c1)`.
    pub fn set_rect(&mut self, r0: usize, c0: usize, r1: usize, c1: usize) {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        for r in r0..r1 {
            for_range(r * self.w + c0, r * self.w + c1, |i, bits| {
                self.words[i] |= bits;
                true
            });
        }
    }

    /// Clears the rectangle `[r0, r1) x [c0, c1)`.
    pub fn clear_rect(&mut self, r0: usize, c0: usize, r1: usize, c1: usize) {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        for r in r0..r1 {
            for_range(r * self.w + c0, r * self.w + c1, |i, bits| {
                self.words[i] &= !bits;
                true
            });
        }
    }

    /// Bounding box of the set cells:
    /// `(row_min, col_min, row_max_exclusive, col_max_exclusive)`, or `None`
    /// if the mask is empty.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        let mut bb: Option<(usize, usize, usize, usize)> = None;
        for (r, c) in self.iter_set() {
            bb = Some(match bb {
                None => (r, c, r + 1, c + 1),
                Some((r0, c0, r1, c1)) => (r0.min(r), c0.min(c), r1.max(r + 1), c1.max(c + 1)),
            });
        }
        bb
    }

    /// 4-connected components of the set cells, each returned as its own
    /// mask, ordered by their first cell (row-major).
    pub fn connected_components(&self) -> Vec<Mask> {
        let mut left = self.clone();
        let mut out = Vec::new();
        loop {
            let Some(start) = left.iter_set().next() else {
                break;
            };
            let mut comp = Mask::empty(self.h, self.w);
            left.set(start.0, start.1, false);
            let mut stack = vec![start];
            while let Some((r, c)) = stack.pop() {
                comp.set(r, c, true);
                let neighbours = [
                    (r.wrapping_sub(1), c),
                    (r + 1, c),
                    (r, c.wrapping_sub(1)),
                    (r, c + 1),
                ];
                for (nr, nc) in neighbours {
                    if nr < self.h && nc < self.w && left.get(nr, nc) {
                        left.set(nr, nc, false);
                        stack.push((nr, nc));
                    }
                }
            }
            out.push(comp);
        }
        out
    }

    /// Whether the set cells form a single 4-connected component.
    pub fn is_connected(&self) -> bool {
        !self.is_empty() && self.connected_components().len() == 1
    }

    fn zip_words(&mut self, other: &Mask, op: impl Fn(u64, u64) -> u64) {
        self.check_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a = op(*a, b);
        }
    }

    fn check_dims(&self, other: &Mask) {
        assert!(
            self.h == other.h && self.w == other.w,
            "mask dimension mismatch: {}x{} vs {}x{}",
            self.h,
            self.w,
            other.h,
            other.w
        );
    }
}

impl std::fmt::Display for Mask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.h {
            for c in 0..self.w {
                write!(f, "{}", if self.get(r, c) { '#' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = Mask::empty(3, 4);
        assert_eq!(e.area(), 0);
        assert!(e.is_empty());
        let f = Mask::full(3, 4);
        assert_eq!(f.area(), 12);
    }

    #[test]
    fn rect_area_and_bbox() {
        let m = Mask::rect(8, 8, 1, 2, 4, 6);
        assert_eq!(m.area(), 12);
        assert_eq!(m.bounding_box(), Some((1, 2, 4, 6)));
    }

    #[test]
    fn set_operations() {
        let mut a = Mask::rect(4, 4, 0, 0, 2, 2);
        let b = Mask::rect(4, 4, 1, 1, 3, 3);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.area(), 7);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.area(), 1);
        assert!(i.get(1, 1));
        a.subtract(&b);
        assert_eq!(a.area(), 3);
        assert!(!a.get(1, 1));
    }

    #[test]
    fn subset_and_intersects() {
        let small = Mask::rect(4, 4, 0, 0, 1, 1);
        let big = Mask::rect(4, 4, 0, 0, 2, 2);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.intersects(&big));
        let far = Mask::rect(4, 4, 3, 3, 4, 4);
        assert!(!small.intersects(&far));
    }

    #[test]
    fn covers_and_clear_rect() {
        let mut m = Mask::rect(4, 4, 0, 0, 4, 4);
        assert!(m.covers_rect(1, 1, 3, 3));
        m.set(2, 2, false);
        assert!(!m.covers_rect(1, 1, 3, 3));
        m.clear_rect(0, 0, 2, 4);
        assert_eq!(m.area(), 7); // bottom half (8) minus the hole at (2,2)
    }

    #[test]
    fn rect_rows_straddle_word_boundaries() {
        // 3 x 65: every row after the first starts mid-word
        let m = Mask::rect(3, 65, 0, 60, 3, 65);
        assert_eq!(m.area(), 15);
        assert!(m.covers_rect(0, 60, 3, 65));
        assert!(!m.covers_rect(0, 59, 3, 65));
        assert_eq!(m.words().len(), 4);
        assert_eq!(Mask::full(3, 65).words()[3], 0b111);
    }

    #[test]
    fn words_round_trip_and_reject_padding() {
        let m = Mask::rect(5, 7, 1, 2, 4, 6);
        assert_eq!(Mask::from_words(5, 7, m.words().to_vec()), m);
        let bad = std::panic::catch_unwind(|| Mask::from_words(5, 7, vec![1u64 << 35]));
        assert!(bad.is_err(), "bit 35 lies past the 35 cells");
    }

    #[test]
    fn connected_components_split() {
        let mut m = Mask::empty(4, 4);
        m.set(0, 0, true);
        m.set(0, 1, true);
        m.set(3, 3, true);
        let comps = m.connected_components();
        assert_eq!(comps.len(), 2);
        let areas: Vec<usize> = comps.iter().map(Mask::area).collect();
        assert!(areas.contains(&2) && areas.contains(&1));
        assert!(!m.is_connected());
    }

    #[test]
    fn diagonal_cells_not_connected() {
        let mut m = Mask::empty(2, 2);
        m.set(0, 0, true);
        m.set(1, 1, true);
        assert_eq!(m.connected_components().len(), 2);
    }

    #[test]
    fn iter_set_yields_coordinates() {
        let m = Mask::rect(3, 3, 1, 1, 2, 3);
        let cells: Vec<(usize, usize)> = m.iter_set().collect();
        assert_eq!(cells, vec![(1, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut a = Mask::empty(2, 2);
        let b = Mask::empty(3, 3);
        a.union_with(&b);
    }

    #[test]
    fn display_renders() {
        let m = Mask::rect(2, 2, 0, 0, 1, 1);
        assert_eq!(format!("{m}"), "#.\n..\n");
    }
}
