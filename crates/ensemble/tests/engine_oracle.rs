//! The ensemble engine against the interpreted fold.
//!
//! `EnsembleServer` answers through compiled plans whose terms each read
//! their own member's snapshot. The oracle here is the interpreted fold
//! the engine replaced — the multi-grid entry when the coding rule
//! applies, otherwise each member cell's combination in cell order, all
//! evaluated with `ModelCombination::evaluate` — and the engine must
//! match it **bit for bit** on a 2-member mixed plan, on f32 and f16
//! snapshots, for whole masks (`query_many`) and for the per-group values
//! of the shard leg (`query_groups_timed`).

use o4a_core::frames::FrameView;
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::PredictionStore;
use o4a_data::features::TemporalConfig;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    plan_ensemble, profile_members, EnsemblePlan, EnsembleServer, HotspotExpert, ModelCombination,
    PlanOptions,
};
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::LayerCell;
use o4a_grid::{Hierarchy, Mask};
use o4a_models::multiscale::PyramidPredictor;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SIDE: usize = 16;

/// A 2-member mixed plan. The planner keeps each stripe expert's grids on
/// that expert, so the fixture then re-tags every entry's terms
/// alternately between the members: the model axis does not change areal
/// coverage, and every multi-term combination now reads both stores.
fn plan() -> &'static EnsemblePlan {
    static PLAN: OnceLock<EnsemblePlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
        let flow = DatasetKind::TaxiNycLike
            .config(SIDE, SIDE, 32, 9)
            .generate();
        let val_slots: Vec<usize> = (24..32).collect();
        let mut experts = HotspotExpert::stripes(&hier, 2, 400, 11);
        let mut refs: Vec<&mut dyn PyramidPredictor> = experts
            .iter_mut()
            .map(|e| e as &mut dyn PyramidPredictor)
            .collect();
        let profiles = profile_members(&mut refs, &flow, &TemporalConfig::compact(), &val_slots);
        let truths = truth_pyramid(&hier, &flow, &val_slots);
        let mut plan = plan_ensemble(&hier, &profiles, &truths, &PlanOptions::default());
        let mut codes = Vec::new();
        plan.tree.for_each(|code, _| codes.push(code.clone()));
        for code in &codes {
            let comb = plan.tree.get_mut(code).expect("listed code");
            for (i, t) in comb.terms.iter_mut().enumerate() {
                t.model = ((i + t.cell.row + t.cell.col) % 2) as u16;
            }
        }
        plan
    })
}

/// Deterministic pseudo-random pyramid with magnitudes spread across the
/// f16 normal and subnormal ranges.
fn seeded_frames(hier: &Hierarchy, seed: u32) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
    (0..hier.num_layers())
        .map(|layer| {
            (0..hier.layer_len(layer))
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    let v = (state >> 8) as f32 / (1 << 17) as f32 - 64.0;
                    if state.is_multiple_of(7) {
                        v * 2.0f32.powi(-18)
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// The interpreted fold of one decomposed group.
fn oracle_group(plan: &EnsemblePlan, views: &[FrameView<'_>], group: &DecomposedGroup) -> f32 {
    if group.cells.len() >= 2 && plan.hier.k() == 2 {
        if let Some(comb) = plan.for_multi(group.layer, &group.cells) {
            return comb.evaluate(&plan.hier, views);
        }
    }
    group
        .cells
        .iter()
        .map(|&(r, c)| {
            let cell = LayerCell::new(group.layer, r, c);
            match plan.for_cell(cell) {
                Some(comb) => comb.evaluate(&plan.hier, views),
                None => ModelCombination::single(0, cell).evaluate(&plan.hier, views),
            }
        })
        .sum()
}

/// An engine over [`plan`] whose member `m` publishes `seeded_frames(seed + m)`,
/// in half storage when `half` is set.
fn engine(seed: u32, half: bool) -> EnsembleServer {
    let plan = plan();
    let stores: Vec<Arc<PredictionStore>> = (0..plan.members.len() as u32)
        .map(|m| {
            let store = PredictionStore::for_hierarchy(&plan.hier);
            store.set_half_storage(half);
            store.publish(seeded_frames(&plan.hier, seed.wrapping_add(m)));
            Arc::new(store)
        })
        .collect();
    EnsembleServer::new(plan.clone(), stores)
}

fn rect() -> impl Strategy<Value = Mask> {
    (0..SIDE, 0..SIDE, 1..=SIDE, 1..=SIDE).prop_map(|(r0, c0, dr, dc)| {
        Mask::rect(SIDE, SIDE, r0, c0, (r0 + dr).min(SIDE), (c0 + dc).min(SIDE))
    })
}

#[test]
fn fixture_plan_mixes_members() {
    let plan = plan();
    assert_eq!(plan.members.len(), 2);
    let mut mixed = 0;
    plan.tree
        .for_each(|_, comb| mixed += usize::from(comb.models_used().len() == 2));
    assert!(mixed > 0, "some planned entry mixes both members");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-mask answers equal the interpreted fold over the same
    /// member snapshots.
    #[test]
    fn query_many_matches_the_interpreted_fold(
        masks in proptest::collection::vec(rect(), 1..6),
        seed in any::<u32>(),
    ) {
        for half in [false, true] {
            let server = engine(seed, half);
            let snaps: Vec<_> = server.stores().iter().map(|s| s.snapshot()).collect();
            prop_assert!(snaps.iter().all(|s| s.is_half() == half));
            let views: Vec<FrameView<'_>> = snaps.iter().map(|s| s.view()).collect();
            let got = server.query_many(&masks);
            for (mask, g) in masks.iter().zip(&got) {
                let want: f32 = decompose(&plan().hier, mask)
                    .iter()
                    .map(|grp| oracle_group(plan(), &views, grp))
                    .sum();
                prop_assert_eq!(g.to_bits(), want.to_bits(), "half {}: {} != {}", half, g, want);
            }
        }
    }

    /// The shard leg's per-group values equal the per-group fold, and
    /// folding them in decompose order reproduces the whole-mask answer.
    #[test]
    fn query_groups_timed_matches_the_per_group_fold(mask in rect(), seed in any::<u32>()) {
        for half in [false, true] {
            let server = engine(seed, half);
            let snaps: Vec<_> = server.stores().iter().map(|s| s.snapshot()).collect();
            let views: Vec<FrameView<'_>> = snaps.iter().map(|s| s.view()).collect();
            let groups = decompose(&plan().hier, &mask);
            let (values, timing) = server.query_groups_timed(&groups);
            prop_assert_eq!(values.len(), groups.len());
            prop_assert_eq!(timing.decompose.as_nanos(), 0);
            for (grp, v) in groups.iter().zip(&values) {
                let want = oracle_group(plan(), &views, grp);
                prop_assert_eq!(v.to_bits(), want.to_bits(), "half {}: {} != {}", half, v, want);
            }
            let folded = values.iter().fold(0.0f32, |acc, &v| acc + v);
            prop_assert_eq!(folded.to_bits(), server.query(&mask).to_bits());
        }
    }
}
