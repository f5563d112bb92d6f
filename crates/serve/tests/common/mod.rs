//! Fixtures shared by the METRICS integration tests: the reference region
//! server, a paper-task mask set, and a structural validator for the
//! Prometheus text exposition the `METRICS` verb returns.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use std::collections::HashMap;
use std::sync::Arc;

pub const SIDE: usize = 16;

/// A region server over a 16x16 ground-truth snapshot and a
/// union-subtraction index.
pub fn region_fixture() -> Arc<RegionServer> {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, 32, 9)
        .generate();
    let slots: Vec<usize> = (24..32).collect();
    let truths = truth_pyramid(&hier, &flow, &slots);
    let index =
        search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::UnionSubtraction);
    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store
        .publish_checked(truths.iter().map(|layer| layer[0].clone()).collect())
        .unwrap();
    Arc::new(RegionServer::new(index, store))
}

/// 48 masks from the paper's four task mixes.
pub fn query_masks() -> Vec<Mask> {
    let mut rng = o4a_tensor::SeededRng::new(31);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    masks.truncate(48);
    masks
}

/// Minimal Prometheus text-exposition parser/validator. Returns
/// `name -> value` for every sample line; panics on any structural
/// violation (sample without HELP/TYPE, a family with two HELP or TYPE
/// headers, a repeated sample, non-numeric value, histogram whose
/// cumulative buckets decrease or whose `+Inf` bucket disagrees with
/// `_count`).
pub fn validate_exposition(text: &str) -> HashMap<String, f64> {
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut helped: HashMap<String, ()> = HashMap::new();
    let mut samples: HashMap<String, f64> = HashMap::new();
    let mut last_bucket: HashMap<String, f64> = HashMap::new();

    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP name");
            assert!(
                helped.insert(name.to_string(), ()).is_none(),
                "second HELP for {name}"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name").to_string();
            let kind = it.next().expect("TYPE kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            assert!(helped.contains_key(&name), "TYPE before HELP for {name}");
            assert!(
                typed.insert(name.clone(), kind).is_none(),
                "second TYPE for {name}"
            );
            continue;
        }
        // sample line: `name value` or `name_bucket{le="..."} value`
        let (key, value) = line.split_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in line {line:?}");
        });
        let bare = key.split('{').next().unwrap().to_string();
        let family = bare
            .strip_suffix("_bucket")
            .or_else(|| bare.strip_suffix("_sum"))
            .or_else(|| bare.strip_suffix("_count"))
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&bare)
            .to_string();
        assert!(
            typed.contains_key(&family),
            "sample {key} has no TYPE header"
        );
        if bare.ends_with("_bucket") && typed.get(&family).map(String::as_str) == Some("histogram")
        {
            let prev = last_bucket.entry(family.clone()).or_insert(0.0);
            assert!(
                value >= *prev,
                "histogram {family} buckets are not cumulative"
            );
            *prev = value;
            if key.contains("le=\"+Inf\"") {
                samples.insert(format!("{family}_inf"), value);
            }
            continue;
        }
        assert!(
            samples.insert(key.to_string(), value).is_none(),
            "sample {key} appears twice"
        );
    }
    // every histogram's +Inf bucket must equal its _count
    for (name, kind) in &typed {
        if kind == "histogram" {
            let inf = samples[&format!("{name}_inf")];
            let count = samples[&format!("{name}_count")];
            assert_eq!(inf, count, "histogram {name} +Inf bucket != count");
        }
    }
    samples
}
