//! The grid coding rule (Sec. IV-C2, Fig. 11).
//!
//! With a merging window of 2, every parent grid has four single children
//! and eight multi-grids (groups of 2 or 3 adjacent children):
//!
//! ```text
//!      +---+---+      singles:      A B        E = A+B   F = C+D
//!      | A | B |                    C D        G = A+C   H = B+D
//!      +---+---+
//!      | C | D |      triples:      I = A+B+C (all but D)
//!      +---+---+                    J = A+B+D (all but C)
//!                                   K = A+C+D (all but B)
//!                                   L = B+C+D (all but A)
//! ```
//!
//! Diagonal pairs (`A+D`, `B+C`) are not 4-connected, so they never appear
//! in a hierarchical decomposition and have no code.
//!
//! A [`GridCode`] is the path of child codes from the coarsest layer down to
//! a grid. A path of pure singles identifies a single grid; a path whose
//! *last* element is a multi code identifies a multi-grid. The extended
//! quad-tree is keyed by these paths.

use crate::hierarchy::{Hierarchy, LayerCell};

/// A child code within a parent grid (merging window 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ChildCode {
    A,
    B,
    C,
    D,
    E,
    F,
    G,
    H,
    I,
    J,
    K,
    L,
}

impl ChildCode {
    /// All twelve codes in order.
    pub const ALL: [ChildCode; 12] = [
        ChildCode::A,
        ChildCode::B,
        ChildCode::C,
        ChildCode::D,
        ChildCode::E,
        ChildCode::F,
        ChildCode::G,
        ChildCode::H,
        ChildCode::I,
        ChildCode::J,
        ChildCode::K,
        ChildCode::L,
    ];

    /// Whether this is a single-grid code (`A`–`D`).
    pub fn is_single(self) -> bool {
        matches!(
            self,
            ChildCode::A | ChildCode::B | ChildCode::C | ChildCode::D
        )
    }

    /// Whether this is a multi-grid code (`E`–`L`).
    pub fn is_multi(self) -> bool {
        !self.is_single()
    }

    /// Child index 0..12 (singles come first, matching the extended
    /// quad-tree child slots).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The single-grid code for a position `(row % 2, col % 2)` within the
    /// parent.
    pub fn from_position(dr: usize, dc: usize) -> ChildCode {
        match (dr, dc) {
            (0, 0) => ChildCode::A,
            (0, 1) => ChildCode::B,
            (1, 0) => ChildCode::C,
            (1, 1) => ChildCode::D,
            _ => panic!("position ({dr},{dc}) out of a 2x2 window"),
        }
    }

    /// The `(row, col)` offsets of the single grids this code covers.
    pub fn members(self) -> &'static [(usize, usize)] {
        use ChildCode::*;
        match self {
            A => &[(0, 0)],
            B => &[(0, 1)],
            C => &[(1, 0)],
            D => &[(1, 1)],
            E => &[(0, 0), (0, 1)],
            F => &[(1, 0), (1, 1)],
            G => &[(0, 0), (1, 0)],
            H => &[(0, 1), (1, 1)],
            I => &[(0, 0), (0, 1), (1, 0)],
            J => &[(0, 0), (0, 1), (1, 1)],
            K => &[(0, 0), (1, 0), (1, 1)],
            L => &[(0, 1), (1, 0), (1, 1)],
        }
    }

    /// For a 3-cell multi code, the complementary single grid (the one that
    /// must be subtracted from the parent): `I -> D`, `J -> C`, `K -> B`,
    /// `L -> A`. Returns `None` for other codes.
    pub fn complement(self) -> Option<ChildCode> {
        match self {
            ChildCode::I => Some(ChildCode::D),
            ChildCode::J => Some(ChildCode::C),
            ChildCode::K => Some(ChildCode::B),
            ChildCode::L => Some(ChildCode::A),
            _ => None,
        }
    }

    /// The multi- or single-grid code covering exactly the given child
    /// positions (each `(row % 2, col % 2)`), or `None` if the set is not
    /// 4-connected (diagonal pairs) or empty/full.
    pub fn from_members(members: &[(usize, usize)]) -> Option<ChildCode> {
        let mut sorted: Vec<(usize, usize)> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        ChildCode::ALL
            .into_iter()
            .find(|code| code.members() == sorted.as_slice())
    }

    /// The letter for display.
    pub fn letter(self) -> char {
        (b'A' + self as u8) as char
    }
}

impl std::fmt::Display for ChildCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A path of child codes identifying a (multi-)grid in the extended
/// quad-tree: the first element addresses a cell of the *second-coarsest*
/// layer within its coarsest-layer root, and so on downward. Only the last
/// element may be a multi code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridCode {
    /// The coarsest-layer root cell this path starts from.
    pub root: (usize, usize),
    /// Child codes from coarse to fine.
    pub path: Vec<ChildCode>,
}

impl GridCode {
    /// The code of a single grid cell.
    ///
    /// # Panics
    /// Panics if the hierarchy's merging window is not 2 (the coding rule is
    /// defined for `K = 2`) or the cell's layer is out of range.
    pub fn for_cell(hier: &Hierarchy, cell: LayerCell) -> GridCode {
        assert_eq!(hier.k(), 2, "grid coding rule requires a 2x2 window");
        assert!(cell.layer < hier.num_layers());
        let mut path = Vec::with_capacity(hier.num_layers() - 1 - cell.layer);
        let mut cur = cell;
        while let Some(parent) = hier.parent(cur) {
            let (dr, dc) = hier.position_in_parent(cur);
            path.push(ChildCode::from_position(dr, dc));
            cur = parent;
        }
        path.reverse();
        GridCode {
            root: (cur.row, cur.col),
            path,
        }
    }

    /// The code of a multi-grid: `cells` must be 2 or 3 same-parent,
    /// 4-connected cells at `layer`. Returns `None` if the set has no code
    /// (wrong size, parents differ, or diagonal).
    pub fn for_multi_grid(
        hier: &Hierarchy,
        layer: usize,
        cells: &[(usize, usize)],
    ) -> Option<GridCode> {
        assert_eq!(hier.k(), 2, "grid coding rule requires a 2x2 window");
        if cells.len() < 2 || cells.len() > 3 || layer + 1 >= hier.num_layers() {
            return None;
        }
        let parent = hier.parent(LayerCell::new(layer, cells[0].0, cells[0].1))?;
        let mut members = Vec::with_capacity(cells.len());
        for &(r, c) in cells {
            let cell = LayerCell::new(layer, r, c);
            if hier.parent(cell)? != parent {
                return None;
            }
            members.push(hier.position_in_parent(cell));
        }
        let code = ChildCode::from_members(&members)?;
        let mut parent_code = GridCode::for_cell(hier, parent);
        parent_code.path.push(code);
        Some(parent_code)
    }

    /// Depth of the path (0 = a coarsest-layer cell itself).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Whether the path identifies a multi-grid.
    pub fn is_multi(&self) -> bool {
        self.path.last().is_some_and(|c| c.is_multi())
    }

    /// Resolves a pure-single code path back to its cell.
    ///
    /// Returns `None` if the path contains a multi code.
    pub fn to_cell(&self, hier: &Hierarchy) -> Option<LayerCell> {
        let mut cell = LayerCell::new(hier.num_layers() - 1, self.root.0, self.root.1);
        for &code in &self.path {
            if code.is_multi() {
                return None;
            }
            let (dr, dc) = code.members()[0];
            cell = LayerCell::new(cell.layer - 1, cell.row * 2 + dr, cell.col * 2 + dc);
        }
        Some(cell)
    }
}

impl std::fmt::Display for GridCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.root.0, self.root.1)?;
        for c in &self.path {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier8() -> Hierarchy {
        Hierarchy::new(8, 8, 2, 4).unwrap()
    }

    #[test]
    fn single_codes_partition_window() {
        assert_eq!(ChildCode::from_position(0, 0), ChildCode::A);
        assert_eq!(ChildCode::from_position(0, 1), ChildCode::B);
        assert_eq!(ChildCode::from_position(1, 0), ChildCode::C);
        assert_eq!(ChildCode::from_position(1, 1), ChildCode::D);
    }

    #[test]
    fn twelve_codes_four_single_eight_multi() {
        let singles = ChildCode::ALL.iter().filter(|c| c.is_single()).count();
        let multis = ChildCode::ALL.iter().filter(|c| c.is_multi()).count();
        assert_eq!(singles, 4);
        assert_eq!(multis, 8);
    }

    #[test]
    fn members_are_connected_and_sized() {
        for code in ChildCode::ALL {
            let m = code.members();
            match code {
                c if c.is_single() => assert_eq!(m.len(), 1),
                ChildCode::E | ChildCode::F | ChildCode::G | ChildCode::H => {
                    assert_eq!(m.len(), 2)
                }
                _ => assert_eq!(m.len(), 3),
            }
            // all members 4-connected (within 2x2 this means: not the
            // diagonal pair)
            if m.len() == 2 {
                let (a, b) = (m[0], m[1]);
                let dist = a.0.abs_diff(b.0) + a.1.abs_diff(b.1);
                assert_eq!(dist, 1, "{code} members are diagonal");
            }
        }
    }

    #[test]
    fn from_members_roundtrip() {
        for code in ChildCode::ALL {
            assert_eq!(ChildCode::from_members(code.members()), Some(code));
        }
        // diagonal pair has no code
        assert_eq!(ChildCode::from_members(&[(0, 0), (1, 1)]), None);
        assert_eq!(ChildCode::from_members(&[(0, 1), (1, 0)]), None);
        // full window has no code (it is the parent itself)
        assert_eq!(
            ChildCode::from_members(&[(0, 0), (0, 1), (1, 0), (1, 1)]),
            None
        );
        assert_eq!(ChildCode::from_members(&[]), None);
    }

    #[test]
    fn complements_of_triples() {
        assert_eq!(ChildCode::I.complement(), Some(ChildCode::D));
        assert_eq!(ChildCode::J.complement(), Some(ChildCode::C));
        assert_eq!(ChildCode::K.complement(), Some(ChildCode::B));
        assert_eq!(ChildCode::L.complement(), Some(ChildCode::A));
        assert_eq!(ChildCode::A.complement(), None);
        assert_eq!(ChildCode::E.complement(), None);
        // complement + members = the full window
        for code in [ChildCode::I, ChildCode::J, ChildCode::K, ChildCode::L] {
            let mut all: Vec<(usize, usize)> = code.members().to_vec();
            all.extend(code.complement().unwrap().members());
            all.sort_unstable();
            assert_eq!(all, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        }
    }

    #[test]
    fn cell_code_roundtrip_all_layers() {
        let hier = hier8();
        for layer in 0..hier.num_layers() {
            let (rows, cols) = hier.layer_dims(layer);
            for r in 0..rows {
                for c in 0..cols {
                    let cell = LayerCell::new(layer, r, c);
                    let code = GridCode::for_cell(&hier, cell);
                    assert_eq!(code.depth(), hier.num_layers() - 1 - layer);
                    assert_eq!(code.to_cell(&hier), Some(cell));
                }
            }
        }
    }

    #[test]
    fn code_display_is_readable() {
        let hier = hier8();
        let code = GridCode::for_cell(&hier, LayerCell::new(0, 0, 1));
        assert_eq!(format!("{code}"), "(0,0)AAB");
    }

    #[test]
    fn multi_grid_code_top_row_pair() {
        let hier = hier8();
        // atomic cells (0,0) and (0,1) share parent (0,0) at layer 1
        let code = GridCode::for_multi_grid(&hier, 0, &[(0, 0), (0, 1)]).unwrap();
        assert!(code.is_multi());
        assert_eq!(*code.path.last().unwrap(), ChildCode::E);
        assert_eq!(format!("{code}"), "(0,0)AAE");
    }

    #[test]
    fn multi_grid_rejects_cross_parent() {
        let hier = hier8();
        // (0,1) and (0,2) are adjacent but have different parents
        assert!(GridCode::for_multi_grid(&hier, 0, &[(0, 1), (0, 2)]).is_none());
    }

    #[test]
    fn multi_grid_rejects_diagonal() {
        let hier = hier8();
        assert!(GridCode::for_multi_grid(&hier, 0, &[(0, 0), (1, 1)]).is_none());
    }

    #[test]
    fn multi_grid_triple() {
        let hier = hier8();
        let code = GridCode::for_multi_grid(&hier, 0, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        assert_eq!(*code.path.last().unwrap(), ChildCode::I);
        assert!(code.to_cell(&hier).is_none());
    }

    #[test]
    fn coarsest_layer_multi_has_no_code() {
        let hier = hier8();
        let top = hier.num_layers() - 1;
        assert!(GridCode::for_multi_grid(&hier, top, &[(0, 0), (0, 1)]).is_none());
    }
}
