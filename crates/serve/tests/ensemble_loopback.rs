//! Ensemble loopback tests: a 2-member stripe ensemble planned offline,
//! round-tripped through the `O4AENS01` codec (the cold-start path), and
//! served over real sockets — answers must bit-match the in-process
//! [`EnsembleServer`] and STATS must report the active plan revision.

use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend};
use o4a_data::features::TemporalConfig;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    decode_plan, encode_plan, plan_ensemble, profile_members, EnsembleServer, HotspotExpert,
    PlanOptions,
};
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_models::multiscale::PyramidPredictor;
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ServerHandle};
use std::sync::Arc;

const SIDE: usize = 16;
const REVISION: u32 = 42;

/// Offline phase + simulated cold start: plan a 2-stripe ensemble, push
/// the plan through the wire codec, publish every member's snapshot, and
/// return the assembled server.
fn ensemble_fixture() -> Arc<EnsembleServer> {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
    let cfg = TemporalConfig::compact();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, 32, 9)
        .generate();
    let val_slots: Vec<usize> = (24..32).collect();
    let slot = flow.len_t() - 1;

    let mut experts = HotspotExpert::stripes(&hier, 2, 400, 7);
    let mut refs: Vec<&mut dyn PyramidPredictor> = experts
        .iter_mut()
        .map(|e| e as &mut dyn PyramidPredictor)
        .collect();
    let profiles = profile_members(&mut refs, &flow, &cfg, &val_slots);
    let truths = truth_pyramid(&hier, &flow, &val_slots);
    let plan = plan_ensemble(
        &hier,
        &profiles,
        &truths,
        &PlanOptions {
            revision: REVISION,
            ..PlanOptions::default()
        },
    );
    // Cold-start path: the served plan is the decoded artifact, not the
    // in-memory one.
    let plan = decode_plan(&encode_plan(&plan)).expect("plan artifact round-trip");

    let mut stores = Vec::new();
    for name in &plan.members {
        let mut member = HotspotExpert::from_name(&hier, name).expect("member name parses");
        let frames: Vec<Vec<f32>> = member
            .predict_pyramid(&flow, &cfg, &[slot])
            .into_iter()
            .map(|mut per_t| per_t.remove(0))
            .collect();
        let store = Arc::new(PredictionStore::for_hierarchy_labeled(&hier, name));
        store.publish_checked(frames).unwrap();
        stores.push(store);
    }
    Arc::new(EnsembleServer::new(plan, stores))
}

fn start() -> (Arc<EnsembleServer>, ServerHandle) {
    let server = ensemble_fixture();
    let backend: Arc<dyn QueryBackend> = Arc::clone(&server) as _;
    let handle = serve(
        backend,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    (server, handle)
}

fn query_masks() -> Vec<Mask> {
    let mut rng = o4a_tensor::SeededRng::new(17);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    masks.truncate(48);
    masks
}

#[test]
fn served_ensemble_bit_matches_in_process() {
    let (server, handle) = start();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    for mask in query_masks() {
        let (remote, _) = client.query(&mask).unwrap();
        let local = server.query(&mask);
        assert_eq!(
            remote.to_bits(),
            local.to_bits(),
            "wire answer differs from in-process ensemble query"
        );
    }
    handle.shutdown();
}

#[test]
fn served_ensemble_batches_bit_match_in_process() {
    let (server, handle) = start();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let masks = query_masks();
    let (remote, timing) = client.query_batch(&masks).unwrap();
    let local = server.query_many(&masks);
    assert_eq!(remote.len(), local.len());
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(r.to_bits(), l.to_bits());
    }
    assert!(timing.decompose_ns + timing.index_ns > 0);
    handle.shutdown();
}

#[test]
fn stats_report_active_plan_revision() {
    let (server, handle) = start();
    assert_eq!(server.source().revision, REVISION);
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let health = client.health().unwrap();
    assert!(health.ready, "all members published -> backend ready");
    client.query(&Mask::rect(SIDE, SIDE, 1, 1, 7, 7)).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.plan_revision, REVISION as u64,
        "STATS must surface the served plan's revision"
    );
    assert_eq!(stats.masks_served, 1);
    handle.shutdown();
}
