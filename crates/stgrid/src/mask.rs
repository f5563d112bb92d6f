//! Rasterized regions as binary assignment matrices (Definition 4).

/// A binary mask over the atomic raster: the assignment matrix `A^R` of a
/// rasterized region.
///
/// `Hash` hashes the dimensions and bit vector, consistently with `Eq`, so
/// masks can key memo tables (the region server's decomposition cache and
/// the compiled-plan cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    h: usize,
    w: usize,
    bits: Vec<bool>,
}

impl std::hash::Hash for Mask {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Pack 64 cells per hasher word: the derived impl fed the hasher
        // one byte per cell, which made every mask-keyed memo lookup pay
        // ~h*w hasher calls. Equal masks have equal (h, w, bits), so any
        // deterministic packing stays consistent with `Eq`.
        state.write_usize(self.h);
        state.write_usize(self.w);
        for chunk in self.bits.chunks(64) {
            let mut word = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                word |= (b as u64) << i;
            }
            state.write_u64(word);
        }
    }
}

impl Mask {
    /// Creates an empty (all-zero) mask.
    pub fn empty(h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "mask dimensions must be positive");
        Mask {
            h,
            w,
            bits: vec![false; h * w],
        }
    }

    /// Creates a full (all-one) mask — the matrix `S_1` of the paper.
    pub fn full(h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "mask dimensions must be positive");
        Mask {
            h,
            w,
            bits: vec![true; h * w],
        }
    }

    /// Creates a mask from an explicit bit buffer (row-major).
    pub fn from_bits(h: usize, w: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), h * w, "bit buffer does not match dimensions");
        Mask { h, w, bits }
    }

    /// Creates a rectangular mask covering `[r0, r1) x [c0, c1)`.
    pub fn rect(h: usize, w: usize, r0: usize, c0: usize, r1: usize, c1: usize) -> Self {
        assert!(
            r1 <= h && c1 <= w && r0 <= r1 && c0 <= c1,
            "rect out of bounds"
        );
        let mut m = Mask::empty(h, w);
        for r in r0..r1 {
            for c in c0..c1 {
                m.set(r, c, true);
            }
        }
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
        self.bits[row * self.w + col]
    }

    /// Writes one bit.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.h && col < self.w);
        self.bits[row * self.w + col] = value;
    }

    /// Number of set cells (the region's area in atomic grids).
    pub fn area(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Whether no cell is set.
    pub fn is_empty(&self) -> bool {
        !self.bits.iter().any(|&b| b)
    }

    /// Iterator over the set cells as `(row, col)`.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let w = self.w;
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| (i / w, i % w))
    }

    /// Set union (in place).
    pub fn union_with(&mut self, other: &Mask) {
        self.check_dims(other);
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Set difference (in place): removes `other`'s cells.
    pub fn subtract(&mut self, other: &Mask) {
        self.check_dims(other);
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// Set intersection (in place).
    pub fn intersect_with(&mut self, other: &Mask) {
        self.check_dims(other);
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Whether the two masks share any cell.
    pub fn intersects(&self, other: &Mask) -> bool {
        self.check_dims(other);
        self.bits.iter().zip(&other.bits).any(|(&a, &b)| a && b)
    }

    /// Whether every set cell of `self` is also set in `other`
    /// (`self ⊆ other`).
    pub fn is_subset_of(&self, other: &Mask) -> bool {
        self.check_dims(other);
        self.bits.iter().zip(&other.bits).all(|(&a, &b)| !a || b)
    }

    /// Whether the rectangle `[r0, r1) x [c0, c1)` is fully covered.
    pub fn covers_rect(&self, r0: usize, c0: usize, r1: usize, c1: usize) -> bool {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        for r in r0..r1 {
            let row = &self.bits[r * self.w + c0..r * self.w + c1];
            if !row.iter().all(|&b| b) {
                return false;
            }
        }
        true
    }

    /// Clears the rectangle `[r0, r1) x [c0, c1)`.
    pub fn clear_rect(&mut self, r0: usize, c0: usize, r1: usize, c1: usize) {
        debug_assert!(r1 <= self.h && c1 <= self.w);
        for r in r0..r1 {
            for b in &mut self.bits[r * self.w + c0..r * self.w + c1] {
                *b = false;
            }
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
    /// mask.
    pub fn connected_components(&self) -> Vec<Mask> {
        let mut seen = vec![false; self.bits.len()];
        let mut out = Vec::new();
        for start in 0..self.bits.len() {
            if !self.bits[start] || seen[start] {
                continue;
            }
            let mut comp = Mask::empty(self.h, self.w);
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(i) = stack.pop() {
                comp.bits[i] = true;
                let (r, c) = (i / self.w, i % self.w);
                let push = |j: usize, seen: &mut Vec<bool>, stack: &mut Vec<usize>| {
                    if self.bits[j] && !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                };
                if r > 0 {
                    push(i - self.w, &mut seen, &mut stack);
                }
                if r + 1 < self.h {
                    push(i + self.w, &mut seen, &mut stack);
                }
                if c > 0 {
                    push(i - 1, &mut seen, &mut stack);
                }
                if c + 1 < self.w {
                    push(i + 1, &mut seen, &mut stack);
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
