//! The engine looks a mask's plan up before decomposing it: Algorithm 1
//! runs only inside the compile step of a plan-cache miss, so a repeated
//! region costs lookup + aggregation alone. A hit reports exactly zero
//! decomposition time, the misses equal the distinct masks, and the
//! decompose-stage histogram still records one sample per answered mask
//! (so the STATS / METRICS / TRACE stage sums keep reconciling).
//!
//! This file contains exactly ONE `#[test]`: the metrics registry is
//! process-global, and a concurrent test answering queries would move the
//! histogram count under it.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::server::{predict_query, PredictionStore, RegionServer};
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_tensor::SeededRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const SIDE: usize = 16;

/// A pyramid whose coarse layers are the exact sums of a pseudo-random
/// atomic frame.
fn frames(hier: &Hierarchy) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(11);
    let atomic: Vec<f32> = (0..SIDE * SIDE).map(|_| rng.uniform(0.0, 10.0)).collect();
    let mut out = vec![atomic.clone()];
    for layer in 1..hier.num_layers() {
        let s = hier.scale(layer);
        let (_, lw) = hier.layer_dims(layer);
        let mut f = vec![0.0f32; hier.layer_len(layer)];
        for r in 0..SIDE {
            for c in 0..SIDE {
                f[(r / s) * lw + c / s] += atomic[r * SIDE + c];
            }
        }
        out.push(f);
    }
    out
}

#[test]
fn plan_hit_never_decomposes() {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
    let frames = frames(&hier);
    let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
    let index =
        search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store.publish_checked(frames.clone()).unwrap();
    let server = RegionServer::new(index.clone(), store);

    let mut rng = SeededRng::new(3);
    let mut seen = HashSet::new();
    let masks: Vec<Mask> = TaskSpec::standard_tasks(150.0)
        .into_iter()
        .flat_map(|spec| task_queries(SIDE, SIDE, spec, false, &mut rng))
        .filter(|m| seen.insert(m.clone()))
        .collect();
    assert!(masks.len() >= 10, "need a real pool, got {}", masks.len());
    let n = masks.len() as u64;

    let decompose_hist = o4a_obs::global().histogram(
        "o4a_query_decompose_ns",
        "per-query hierarchical decomposition time (zero on a plan-cache hit)",
    );
    let before = decompose_hist.count();

    // first pass: every mask misses, so every mask decomposes
    let mut first = Vec::new();
    let mut miss_decompose = Duration::ZERO;
    for m in &masks {
        let (v, t) = server.query_timed(m);
        miss_decompose += t.decompose;
        first.push(v);
        assert_eq!(
            v.to_bits(),
            predict_query(&hier, &index, &frames, m).to_bits(),
            "compiled answer must equal the interpreted oracle"
        );
    }
    assert!(miss_decompose > Duration::ZERO, "misses run Algorithm 1");
    assert_eq!(server.plan_cache_stats(), (0, n, 0));

    // repeats, one by one and batched: every lookup hits and reports
    // exactly zero decomposition time, with the same bits as the miss
    for _ in 0..3 {
        for (m, &v) in masks.iter().zip(&first) {
            let (again, t) = server.query_timed(m);
            assert_eq!(t.decompose, Duration::ZERO, "a plan hit never decomposes");
            assert_eq!(again.to_bits(), v.to_bits());
        }
    }
    let (batch, t) = server.query_many_timed(&masks);
    assert_eq!(t.decompose, Duration::ZERO);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&batch), bits(&first));

    // misses equal the distinct masks; the stage histogram still took one
    // sample per answered mask (1 + 3 single passes + 1 batch)
    assert_eq!(server.plan_cache_stats(), (4 * n, n, 0));
    assert_eq!(decompose_hist.count() - before, 5 * n);
}
