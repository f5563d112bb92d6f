//! Algorithm 1: hierarchical decomposition of a rasterized region.
//!
//! A region query is decomposed coarse-to-fine: at every layer (starting
//! from the coarsest) the `Match` step collects all cells fully covered by
//! the remaining region, groups them into connected components whose members
//! share the same upper (parent) grid, appends each component to the result
//! and removes it from the region. Decomposing coarse-to-fine guarantees
//! that no subset of the produced grids can be merged into a coarser grid,
//! which is the precondition of Theorem 4.1 (the optimal combination of the
//! region is the sum of the optimal combinations of the decomposed grids).

use crate::hierarchy::{Hierarchy, LayerCell};
use crate::mask::{for_range, Bits, Mask};

/// One decomposed unit: a set of (connected, same-parent) cells at a single
/// layer. A group with one cell is a *single grid*; larger groups are the
/// paper's *multi-grids* (always at most `K^2 - 1` cells — a full parent
/// would have been matched one layer coarser).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecomposedGroup {
    /// Layer of the cells (0 = atomic).
    pub layer: usize,
    /// Member cells as `(row, col)` in layer coordinates, sorted row-major.
    pub cells: Vec<(usize, usize)>,
}

impl DecomposedGroup {
    /// Whether the group is a single grid.
    pub fn is_single(&self) -> bool {
        self.cells.len() == 1
    }

    /// Renders the group back onto the atomic raster.
    pub fn to_mask(&self, hier: &Hierarchy) -> Mask {
        let mut m = Mask::empty(hier.h(), hier.w());
        for &(r, c) in &self.cells {
            let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(self.layer, r, c));
            m.set_rect(r0, c0, r1, c1);
        }
        m
    }

    /// Area of the group in atomic grids.
    pub fn area(&self, hier: &Hierarchy) -> usize {
        let s = hier.scale(self.layer);
        self.cells.len() * s * s
    }
}

/// Decomposes `region` into hierarchical grids (Algorithm 1).
///
/// The returned groups are disjoint, cover the region exactly, and no
/// subset of them merges into a coarser hierarchical grid.
///
/// Runs over a *coverage pyramid* instead of re-testing every cell of
/// every layer against the shrinking remainder: `covered[0]` is the
/// region, and a layer-`l+1` cell is covered iff all `K^2` of its
/// children are. Matching coarse-to-fine removes exactly the cells under
/// a coarser match, so a layer-`l` cell is matched iff it is covered and
/// its parent is not. Groups come out layer by layer (coarsest first),
/// each layer's groups ordered by their row-major first cell, cells
/// sorted — the order the answer's f32 sum follows.
///
/// # Panics
/// Panics if the region's dimensions do not match the hierarchy's raster.
pub fn decompose(hier: &Hierarchy, region: &Mask) -> Vec<DecomposedGroup> {
    assert!(
        region.h() == hier.h() && region.w() == hier.w(),
        "region {}x{} does not match raster {}x{}",
        region.h(),
        region.w(),
        hier.h(),
        hier.w()
    );
    let k = hier.k();
    let top = hier.num_layers() - 1;
    let mut covered = Vec::with_capacity(top + 1);
    covered.push(BitGrid::from_mask(region));
    for layer in 1..=top {
        let (rows, cols) = hier.layer_dims(layer);
        let next = covered[layer - 1].coarsen(k, rows, cols);
        if next.is_empty() {
            // nothing coarser can be covered either
            break;
        }
        covered.push(next);
    }
    let mut out = Vec::new();
    for layer in (0..covered.len()).rev() {
        let mut matched = match covered.get(layer + 1) {
            Some(parent) => covered[layer].minus_children_of(parent, k),
            None => covered[layer].clone(),
        };
        // the coarsest layer has no parent: every matched cell is its
        // own group
        let block = if layer == top { 1 } else { k };
        matched.take_groups(block, |cells| out.push(DecomposedGroup { layer, cells }));
    }
    out
}

/// One pyramid layer: a `rows x cols` bit grid, each row padded to whole
/// `u64` words (LSB-first) so rows can be combined word by word.
#[derive(Clone)]
struct BitGrid {
    rows: usize,
    cols: usize,
    stride: usize,
    words: Vec<u64>,
}

impl BitGrid {
    fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitGrid {
            rows,
            cols,
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// The mask's bits re-laid out one padded row at a time.
    fn from_mask(mask: &Mask) -> Self {
        let (h, w) = (mask.h(), mask.w());
        let src = mask.words();
        let mut g = BitGrid::new(h, w);
        for r in 0..h {
            for j in 0..g.stride {
                let start = r * w + j * 64;
                let n = (w - j * 64).min(64);
                let (wi, sh) = (start / 64, start % 64);
                let mut v = src[wi] >> sh;
                if sh != 0 && wi + 1 < src.len() {
                    v |= src[wi + 1] << (64 - sh);
                }
                if n < 64 {
                    v &= (1u64 << n) - 1;
                }
                g.words[r * g.stride + j] = v;
            }
        }
        g
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> bool {
        self.words[r * self.stride + c / 64] >> (c % 64) & 1 == 1
    }

    /// The next pyramid layer (`rows x cols` cells of `k x k` children
    /// each): a cell is set iff all its children are.
    fn coarsen(&self, k: usize, rows: usize, cols: usize) -> BitGrid {
        let mut out = BitGrid::new(rows, cols);
        let mut all = vec![0u64; self.stride];
        for pr in 0..rows {
            // the columns set in all k child rows
            all.copy_from_slice(self.row(pr * k));
            for i in 1..k {
                for (a, &b) in all.iter_mut().zip(self.row(pr * k + i)) {
                    *a &= b;
                }
            }
            let dst = &mut out.words[pr * out.stride..(pr + 1) * out.stride];
            if k == 2 {
                // adjacent column pairs never straddle a word (64 is even)
                for (j, &a) in all.iter().enumerate() {
                    dst[j / 2] |= compress_even(a & (a >> 1)) << (32 * (j % 2));
                }
            } else {
                for pc in 0..cols {
                    let full = for_range(pc * k, pc * k + k, |i, bits| all[i] & bits == bits);
                    if full {
                        dst[pc / 64] |= 1 << (pc % 64);
                    }
                }
            }
        }
        out
    }

    /// `self` without the cells whose parent (one layer coarser, `k x k`
    /// children per cell) is set in `parent`.
    fn minus_children_of(&self, parent: &BitGrid, k: usize) -> BitGrid {
        let mut out = self.clone();
        for r in 0..self.rows {
            let prow = parent.row(r / k);
            let row = &mut out.words[r * self.stride..(r + 1) * self.stride];
            if k == 2 {
                for (j, w) in row.iter_mut().enumerate() {
                    let half = (prow[j / 2] >> (32 * (j % 2))) & 0xffff_ffff;
                    let under = spread_even(half);
                    *w &= !(under | under << 1);
                }
            } else {
                for (j, w) in row.iter_mut().enumerate() {
                    for b in Bits(*w) {
                        if parent.get(r / k, (j * 64 + b) / k) {
                            *w &= !(1 << b);
                        }
                    }
                }
            }
        }
        out
    }

    /// Consumes the grid into groups: 4-connected components among set
    /// cells sharing a `block x block` parent, each emitted with its cells
    /// sorted, in the row-major order of their first cell.
    fn take_groups(&mut self, block: usize, mut emit: impl FnMut(Vec<(usize, usize)>)) {
        for r in 0..self.rows {
            for j in 0..self.stride {
                loop {
                    // re-read: a flood fill may have taken later bits of
                    // this word
                    let word = self.words[r * self.stride + j];
                    if word == 0 {
                        break;
                    }
                    let c = j * 64 + word.trailing_zeros() as usize;
                    emit(self.flood(r, c, block));
                }
            }
        }
    }

    /// Takes the component of `(r, c)` within its `block x block` parent.
    fn flood(&mut self, r: usize, c: usize, block: usize) -> Vec<(usize, usize)> {
        self.clear(r, c);
        let mut comp = vec![(r, c)];
        if block == 1 {
            return comp;
        }
        let (br, bc) = (r / block, c / block);
        let mut next = 0;
        while next < comp.len() {
            let (r, c) = comp[next];
            next += 1;
            let neighbours = [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ];
            for (nr, nc) in neighbours {
                let inside =
                    nr < self.rows && nc < self.cols && nr / block == br && nc / block == bc;
                if inside && self.get(nr, nc) {
                    self.clear(nr, nc);
                    comp.push((nr, nc));
                }
            }
        }
        comp.sort_unstable();
        comp
    }

    #[inline]
    fn clear(&mut self, r: usize, c: usize) {
        self.words[r * self.stride + c / 64] &= !(1 << (c % 64));
    }
}

/// Gathers the even bits of `x` into its low 32 bits.
#[inline]
fn compress_even(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) & 0x0000_0000_ffff_ffff
}

/// Spreads the low 32 bits of `x` onto the even bits (the inverse of
/// [`compress_even`]).
#[inline]
fn spread_even(mut x: u64) -> u64 {
    x &= 0x0000_0000_ffff_ffff;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier8() -> Hierarchy {
        Hierarchy::new(8, 8, 2, 4).unwrap() // scales {1,2,4,8}
    }

    /// Re-assembles the groups and checks they exactly tile the region.
    fn assert_exact_cover(hier: &Hierarchy, region: &Mask, groups: &[DecomposedGroup]) {
        let mut acc = Mask::empty(hier.h(), hier.w());
        let mut total = 0usize;
        for g in groups {
            let gm = g.to_mask(hier);
            assert!(!acc.intersects(&gm), "groups overlap");
            total += gm.area();
            acc.union_with(&gm);
        }
        assert_eq!(&acc, region, "groups do not cover the region exactly");
        assert_eq!(total, region.area());
    }

    #[test]
    fn full_raster_is_one_coarsest_group_set() {
        let hier = hier8();
        let region = Mask::full(8, 8);
        let groups = decompose(&hier, &region);
        // the whole raster = the single 8x8 cell of the coarsest layer
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 3);
        assert_exact_cover(&hier, &region, &groups);
    }

    #[test]
    fn single_atomic_cell() {
        let hier = hier8();
        let region = Mask::rect(8, 8, 3, 5, 4, 6);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 0);
        assert_eq!(groups[0].cells, vec![(3, 5)]);
    }

    #[test]
    fn aligned_quarter_uses_coarse_cell() {
        let hier = hier8();
        // top-left 4x4 block = one layer-2 cell
        let region = Mask::rect(8, 8, 0, 0, 4, 4);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 2);
        assert_eq!(groups[0].cells, vec![(0, 0)]);
    }

    #[test]
    fn l_shape_decomposes_hierarchically() {
        let hier = hier8();
        // a 4x4 block plus a 2x2 block to its right
        let mut region = Mask::rect(8, 8, 0, 0, 4, 4);
        region.union_with(&Mask::rect(8, 8, 0, 4, 2, 6));
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        // expect one layer-2 cell and one layer-1 cell
        let mut layers: Vec<usize> = groups.iter().map(|g| g.layer).collect();
        layers.sort_unstable();
        assert_eq!(layers, vec![1, 2]);
    }

    #[test]
    fn no_group_can_merge_coarser() {
        // precondition of Theorem 4.1: no produced subset merges into a
        // coarser grid. Verify on a jagged region.
        let hier = hier8();
        let mut region = Mask::rect(8, 8, 0, 0, 6, 6);
        region.set(5, 5, false);
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        for g in &groups {
            if g.layer + 1 >= hier.num_layers() {
                continue;
            }
            // for every parent cell, its children within the region must
            // not all be present in this group
            let k = hier.k();
            use std::collections::HashMap;
            let mut by_parent: HashMap<(usize, usize), usize> = HashMap::new();
            for &(r, c) in &g.cells {
                *by_parent.entry((r / k, c / k)).or_insert(0) += 1;
            }
            for (_, count) in by_parent {
                assert!(count < k * k, "a full parent survived decomposition");
            }
        }
    }

    #[test]
    fn multi_grid_groups_share_parent() {
        let hier = hier8();
        // three atomic cells forming an L inside one layer-1 parent
        let mut region = Mask::empty(8, 8);
        region.set(0, 0, true);
        region.set(0, 1, true);
        region.set(1, 0, true);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 0);
        assert_eq!(groups[0].cells.len(), 3);
    }

    #[test]
    fn adjacent_cells_in_different_parents_stay_separate() {
        let hier = hier8();
        // atomic cells (0,1) and (0,2) are adjacent but in different parents
        let mut region = Mask::empty(8, 8);
        region.set(0, 1, true);
        region.set(0, 2, true);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.cells.len() == 1));
    }

    #[test]
    fn empty_region_decomposes_to_nothing() {
        let hier = hier8();
        let groups = decompose(&hier, &Mask::empty(8, 8));
        assert!(groups.is_empty());
    }

    #[test]
    fn disconnected_region_covered() {
        let hier = hier8();
        let mut region = Mask::rect(8, 8, 0, 0, 2, 2);
        region.union_with(&Mask::rect(8, 8, 6, 6, 8, 8));
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.layer == 1));
    }

    #[test]
    fn irregular_region_exact_cover() {
        let hier = Hierarchy::new(16, 16, 2, 5).unwrap();
        // a blobby region built from overlapping rectangles
        let mut region = Mask::rect(16, 16, 2, 2, 10, 9);
        region.union_with(&Mask::rect(16, 16, 5, 7, 13, 14));
        region.set(0, 0, true);
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
    }

    #[test]
    fn window3_decomposition() {
        let hier = Hierarchy::new(9, 9, 3, 3).unwrap(); // scales {1,3,9}
        let region = Mask::rect(9, 9, 0, 0, 3, 6);
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        // two layer-1 cells, grouped: (0,0) and (0,1) share parent (0,0)
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 1);
        assert_eq!(groups[0].cells.len(), 2);
    }

    #[test]
    fn group_area_matches_mask() {
        let hier = hier8();
        let region = Mask::rect(8, 8, 0, 0, 4, 6);
        for g in decompose(&hier, &region) {
            assert_eq!(g.area(&hier), g.to_mask(&hier).area());
        }
    }
}
