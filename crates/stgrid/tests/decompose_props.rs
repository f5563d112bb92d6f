//! Equivalence of the coverage-pyramid `decompose` with the direct
//! implementation of Algorithm 1 it replaced: the same groups, in the
//! same order, with the same cell order — the order the answer's f32 sum
//! follows, so anything less than equality would change served bits.

use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::mask::Mask;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_tensor::SeededRng;
use proptest::prelude::*;
use std::collections::HashMap;

/// Algorithm 1 as written in the paper: coarse to fine, match every cell
/// of the layer fully covered by the remaining region, group the matches
/// into same-parent 4-connected components, remove them, go one finer.
fn reference_decompose(hier: &Hierarchy, region: &Mask) -> Vec<DecomposedGroup> {
    let mut remaining = region.clone();
    let mut out = Vec::new();
    for layer in (0..hier.num_layers()).rev() {
        let (rows, cols) = hier.layer_dims(layer);
        let mut covered = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(layer, r, c));
                if remaining.covers_rect(r0, c0, r1, c1) {
                    covered.push((r, c));
                }
            }
        }
        for cells in reference_groups(hier, layer, &covered) {
            for &(r, c) in &cells {
                let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(layer, r, c));
                remaining.clear_rect(r0, c0, r1, c1);
            }
            out.push(DecomposedGroup { layer, cells });
        }
    }
    assert!(remaining.is_empty(), "reference must cover the region");
    out
}

fn reference_groups(
    hier: &Hierarchy,
    layer: usize,
    covered: &[(usize, usize)],
) -> Vec<Vec<(usize, usize)>> {
    if layer + 1 >= hier.num_layers() {
        return covered.iter().map(|&c| vec![c]).collect();
    }
    let index: HashMap<(usize, usize), usize> =
        covered.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut visited = vec![false; covered.len()];
    let mut groups = Vec::new();
    for start in 0..covered.len() {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut comp = vec![covered[start]];
        let mut stack = vec![covered[start]];
        while let Some((r, c)) = stack.pop() {
            let cell = LayerCell::new(layer, r, c);
            let neighbours = [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ];
            for (nr, nc) in neighbours {
                if let Some(&ni) = index.get(&(nr, nc)) {
                    if !visited[ni] && hier.same_parent(cell, LayerCell::new(layer, nr, nc)) {
                        visited[ni] = true;
                        comp.push((nr, nc));
                        stack.push((nr, nc));
                    }
                }
            }
        }
        comp.sort_unstable();
        groups.push(comp);
    }
    groups
}

/// A region mixing aligned blocks (which match coarse layers), random
/// rectangles and per-cell noise at a random density.
fn random_region(h: usize, w: usize, seed: u64) -> Mask {
    let mut rng = SeededRng::new(seed);
    let mut m = Mask::empty(h, w);
    let density = rng.uniform(0.0, 1.0);
    for r in 0..h {
        for c in 0..w {
            if rng.uniform(0.0, 1.0) < density {
                m.set(r, c, true);
            }
        }
    }
    for _ in 0..rng.index(6) {
        let r0 = rng.index(h);
        let c0 = rng.index(w);
        let r1 = r0 + 1 + rng.index(h - r0);
        let c1 = c0 + 1 + rng.index(w - c0);
        if rng.uniform(0.0, 1.0) < 0.7 {
            m.set_rect(r0, c0, r1, c1);
        } else {
            m.clear_rect(r0, c0, r1, c1);
        }
    }
    m
}

fn assert_same(hier: &Hierarchy, region: &Mask) -> Result<(), TestCaseError> {
    let got = decompose(hier, region);
    let want = reference_decompose(hier, region);
    prop_assert_eq!(got, want, "decompositions differ on\n{}", region);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random regions, K = 2, at sides 8, 32 and 128 plus a non-square
    /// raster whose rows start mid-word.
    #[test]
    fn pyramid_matches_reference_k2(seed in any::<u64>(), which in 0usize..4) {
        let (h, w, layers) = [(8, 8, 4), (32, 32, 6), (128, 128, 6), (12, 20, 3)][which];
        let hier = Hierarchy::new(h, w, 2, layers).unwrap();
        assert_same(&hier, &random_region(h, w, seed))?;
    }

    /// Random regions on K = 3 hierarchies (9x9 and 27x27).
    #[test]
    fn pyramid_matches_reference_k3(seed in any::<u64>(), big in any::<bool>()) {
        let (side, layers) = if big { (27, 4) } else { (9, 3) };
        let hier = Hierarchy::new(side, side, 3, layers).unwrap();
        assert_same(&hier, &random_region(side, side, seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every mask of the paper's four task generators at sides 32 and
    /// 128 (the serving workload's pool).
    #[test]
    fn pyramid_matches_reference_on_task_pools(seed in any::<u64>(), big in any::<bool>()) {
        let side = if big { 128 } else { 32 };
        let hier = Hierarchy::new(side, side, 2, 6).unwrap();
        let mut rng = SeededRng::new(seed);
        for spec in TaskSpec::standard_tasks(150.0) {
            for mask in task_queries(side, side, spec, false, &mut rng) {
                assert_same(&hier, &mask)?;
            }
        }
    }
}

#[test]
fn full_and_empty_rasters_match_reference() {
    for (side, k, layers) in [(8, 2, 4), (128, 2, 6), (27, 3, 4)] {
        let hier = Hierarchy::new(side, side, k, layers).unwrap();
        for region in [Mask::empty(side, side), Mask::full(side, side)] {
            assert_eq!(
                decompose(&hier, &region),
                reference_decompose(&hier, &region)
            );
        }
    }
}
