//! Equivalence properties for the bit-packed `Mask`: every word-level
//! operation must agree with a plain `Vec<bool>` model of the raster, at
//! dimensions whose rows start mid-byte and mid-word (1x1, 3x3, 5x7,
//! 3x65) as well as the paper's 128x128.

use o4a_grid::mask::Mask;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const DIMS: [(usize, usize); 5] = [(1, 1), (3, 3), (5, 7), (3, 65), (128, 128)];

/// `(h, w, a, b)`: two random bit models of the same raster, each drawn
/// at its own density so sparse, dense, empty and full masks all occur.
fn two_models() -> impl Strategy<Value = (usize, usize, Vec<bool>, Vec<bool>)> {
    (0..DIMS.len(), 0.0f64..1.0, 0.0f64..1.0, any::<u64>()).prop_map(|(d, pa, pb, seed)| {
        let (h, w) = DIMS[d];
        let mut rng = o4a_tensor::SeededRng::new(seed);
        // snap the densities to the extremes now and then
        let snap = |p: f64| {
            if p < 0.1 {
                0.0
            } else if p > 0.9 {
                1.0
            } else {
                p
            }
        };
        let (pa, pb) = (snap(pa), snap(pb));
        let a = (0..h * w)
            .map(|_| (rng.uniform(0.0, 1.0) as f64) < pa)
            .collect();
        let b = (0..h * w)
            .map(|_| (rng.uniform(0.0, 1.0) as f64) < pb)
            .collect();
        (h, w, a, b)
    })
}

/// A rectangle `(r0, c0, r1, c1)` inside an `h x w` raster, from four
/// unit fractions.
fn rect_in(h: usize, w: usize, f: (f64, f64, f64, f64)) -> (usize, usize, usize, usize) {
    let at = |x: f64, n: usize| ((x * (n + 1) as f64) as usize).min(n);
    let (ra, rb) = (at(f.0, h), at(f.1, h));
    let (ca, cb) = (at(f.2, w), at(f.3, w));
    (ra.min(rb), ca.min(cb), ra.max(rb), ca.max(cb))
}

fn hash_of(m: &Mask) -> u64 {
    let mut s = DefaultHasher::new();
    m.hash(&mut s);
    s.finish()
}

fn model_of(m: &Mask) -> Vec<bool> {
    (0..m.h() * m.w())
        .map(|i| m.get(i / m.w(), i % m.w()))
        .collect()
}

fn unit() -> std::ops::Range<f64> {
    0.0..1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Construction, reads and the counting queries match the model.
    #[test]
    fn reads_match_model(models in two_models()) {
        let (h, w, a, _) = models;
        let m = Mask::from_bits(h, w, a.clone());
        prop_assert_eq!(model_of(&m), a.clone());
        prop_assert_eq!(m.area(), a.iter().filter(|&&x| x).count());
        prop_assert_eq!(m.is_empty(), !a.iter().any(|&x| x));
        let cells: Vec<(usize, usize)> = m.iter_set().collect();
        let want: Vec<(usize, usize)> =
            (0..h * w).filter(|&i| a[i]).map(|i| (i / w, i % w)).collect();
        prop_assert_eq!(cells, want.clone());
        let bbox = want.iter().fold(None, |bb: Option<(usize, usize, usize, usize)>, &(r, c)| {
            Some(match bb {
                None => (r, c, r + 1, c + 1),
                Some((r0, c0, r1, c1)) => (r0.min(r), c0.min(c), r1.max(r + 1), c1.max(c + 1)),
            })
        });
        prop_assert_eq!(m.bounding_box(), bbox);
        // the packed words round-trip and keep the padding bits clear
        prop_assert_eq!(&Mask::from_words(h, w, m.words().to_vec()), &m);
        prop_assert_eq!(m.words().len(), (h * w).div_ceil(64));
    }

    /// Union, difference, intersection and the two predicates match the
    /// model cell by cell.
    #[test]
    fn set_algebra_matches_model(models in two_models()) {
        let (h, w, a, b) = models;
        let (ma, mb) = (Mask::from_bits(h, w, a.clone()), Mask::from_bits(h, w, b.clone()));
        let zip = |f: fn(bool, bool) -> bool| -> Vec<bool> {
            a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()
        };
        let mut u = ma.clone();
        u.union_with(&mb);
        prop_assert_eq!(model_of(&u), zip(|x, y| x || y));
        let mut d = ma.clone();
        d.subtract(&mb);
        prop_assert_eq!(model_of(&d), zip(|x, y| x && !y));
        let mut i = ma.clone();
        i.intersect_with(&mb);
        prop_assert_eq!(model_of(&i), zip(|x, y| x && y));
        prop_assert_eq!(ma.intersects(&mb), a.iter().zip(&b).any(|(&x, &y)| x && y));
        prop_assert_eq!(ma.is_subset_of(&mb), a.iter().zip(&b).all(|(&x, &y)| !x || y));
        prop_assert!(i.is_subset_of(&ma) && ma.is_subset_of(&u));
    }

    /// Rectangle coverage, fill and clear match the model, including
    /// rectangles whose rows straddle word boundaries.
    #[test]
    fn rect_ops_match_model(
        models in two_models(),
        f in (unit(), unit(), unit(), unit()),
    ) {
        let (h, w, a, _) = models;
        let (r0, c0, r1, c1) = rect_in(h, w, f);
        let inside = |i: usize| (r0..r1).contains(&(i / w)) && (c0..c1).contains(&(i % w));
        let m = Mask::from_bits(h, w, a.clone());
        let covered = (0..h * w).all(|i| !inside(i) || a[i]);
        prop_assert_eq!(m.covers_rect(r0, c0, r1, c1), covered);
        let mut cleared = m.clone();
        cleared.clear_rect(r0, c0, r1, c1);
        let want: Vec<bool> = (0..h * w).map(|i| a[i] && !inside(i)).collect();
        prop_assert_eq!(model_of(&cleared), want);
        let mut filled = m.clone();
        filled.set_rect(r0, c0, r1, c1);
        let want: Vec<bool> = (0..h * w).map(|i| a[i] || inside(i)).collect();
        prop_assert_eq!(model_of(&filled), want);
        let want: Vec<bool> = (0..h * w).map(inside).collect();
        prop_assert_eq!(model_of(&Mask::rect(h, w, r0, c0, r1, c1)), want);
    }

    /// Single-bit writes match the model, and `Eq`/`Hash` follow the
    /// cells: masks built by different routes to the same cells are equal
    /// and hash equal; flipping one cell breaks equality.
    #[test]
    fn writes_eq_and_hash_follow_cells(models in two_models(), at in unit()) {
        let (h, w, a, _) = models;
        let i = ((at * (h * w) as f64) as usize).min(h * w - 1);
        let (r, c) = (i / w, i % w);
        let m = Mask::from_bits(h, w, a.clone());
        let mut rebuilt = Mask::empty(h, w);
        for (rr, cc) in m.iter_set() {
            rebuilt.set(rr, cc, true);
        }
        prop_assert_eq!(&rebuilt, &m);
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&m));
        let mut flipped = m.clone();
        flipped.set(r, c, !a[i]);
        prop_assert_eq!(flipped.get(r, c), !a[i]);
        prop_assert!(flipped != m);
        flipped.set(r, c, a[i]);
        prop_assert_eq!(&flipped, &m);
        prop_assert_eq!(hash_of(&flipped), hash_of(&m));
    }

    /// Connected components partition the set cells into 4-connected
    /// pieces, ordered by first cell.
    #[test]
    fn components_partition_the_cells(models in two_models()) {
        let (h, w, a, _) = models;
        let m = Mask::from_bits(h, w, a);
        let comps = m.connected_components();
        let mut acc = Mask::empty(h, w);
        let mut firsts = Vec::new();
        for comp in &comps {
            prop_assert!(comp.is_connected());
            prop_assert!(!acc.intersects(comp));
            acc.union_with(comp);
            firsts.push(comp.iter_set().next().unwrap());
        }
        prop_assert_eq!(acc, m);
        prop_assert!(firsts.windows(2).all(|p| p[0] < p[1]));
    }
}

/// Every rectangle of rasters whose rows end on, straddle or stop short
/// of a word boundary, against the model: random rectangles rarely end
/// exactly on bit 63 of a word.
#[test]
fn every_rect_matches_model() {
    let mut rng = o4a_tensor::SeededRng::new(5);
    for (h, w) in [(5, 7), (3, 65), (2, 128)] {
        let a: Vec<bool> = (0..h * w).map(|_| rng.uniform(0.0, 1.0) < 0.8).collect();
        let m = Mask::from_bits(h, w, a.clone());
        for (r0, r1) in (0..=h).flat_map(|r0| (r0..=h).map(move |r1| (r0, r1))) {
            for (c0, c1) in (0..=w).flat_map(|c0| (c0..=w).map(move |c1| (c0, c1))) {
                let inside = |i: usize| (r0..r1).contains(&(i / w)) && (c0..c1).contains(&(i % w));
                let covered = (0..h * w).all(|i| !inside(i) || a[i]);
                assert_eq!(m.covers_rect(r0, c0, r1, c1), covered);
                let mut cleared = m.clone();
                cleared.clear_rect(r0, c0, r1, c1);
                let mut filled = m.clone();
                filled.set_rect(r0, c0, r1, c1);
                for (i, &set) in a.iter().enumerate() {
                    let (r, c) = (i / w, i % w);
                    assert_eq!(cleared.get(r, c), set && !inside(i));
                    assert_eq!(filled.get(r, c), set || inside(i));
                }
            }
        }
    }
}
