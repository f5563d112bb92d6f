//! Building the served backend: the offline and cold-start chain, timed
//! call by call.
//!
//! Each public call of the chain is timed on its own, so `setup_s` can be
//! attributed: index search, index save + load, model save + load,
//! `predict_pyramid` for the served slot, publish, and for the ensemble
//! the member profiling + plan DP and the plan save + load. `setup_s`
//! itself runs from the first call until `HEALTH` reports ready over the
//! wire.

use o4a_core::combination::{search_optimal_combinations, CombinationIndex, SearchStrategy};
use o4a_core::one4all::{truth_pyramid, One4AllSt};
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_core::{codec, deploy};
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    load_plan, plan_ensemble, profile_members, save_plan, EnsemblePlan, EnsembleServer,
    HotspotExpert, PlanOptions,
};
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;
use o4a_models::predictor::TrainConfig;
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ServerHandle, ShardRouter};
use o4a_tensor::SeededRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raster side of every workload: the paper's 128×128 taxi raster.
pub const SIDE: usize = 128;
/// Coarsest scale of the hierarchy, so P = {1, 2, 4, 8, 16, 32}.
pub const MAX_SCALE: usize = 32;
/// Members of the stripe ensemble.
pub const ENSEMBLE_MEMBERS: usize = 2;
/// Shards behind the router in the ensemble workload.
pub const SHARDS: usize = 2;

// Every workload serves with `ServeConfig::default()`, as the `serve`
// binary does: an ephemeral loopback port, one event loop, two
// executors, a 500 µs coalescing window and a 1024-job admission cap.

/// The input every backend is built from: hierarchy, flow series and the
/// slot whose prediction is served.
pub struct Inputs {
    pub hier: Hierarchy,
    pub flow: FlowSeries,
    pub slot: usize,
}

/// Seed of the served raster data, the same in every run (the one the
/// `serve` binary uses): the run seed drives the traffic, so runs differ
/// in what they ask, not in what is served.
const DATA_SEED: u64 = 5;

impl Inputs {
    /// The `TaxiNycLike` 128×128 series, nine days hourly.
    pub fn new() -> Inputs {
        let hier = Hierarchy::with_max_scale(SIDE, SIDE, 2, MAX_SCALE)
            .expect("128 divides by the coarsest scale");
        let steps = 24 * 9;
        let flow = DatasetKind::TaxiNycLike
            .config(SIDE, SIDE, steps, DATA_SEED)
            .generate();
        Inputs {
            hier,
            flow,
            slot: steps - 1,
        }
    }

    /// The last eight slots: the validation window of search and planning.
    fn val_slots(&self) -> Vec<usize> {
        (self.flow.len_t() - 8..self.flow.len_t()).collect()
    }
}

/// Seconds spent in each timed call of one set-up; a stage the backend
/// does not have stays 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `truth_pyramid` + `search_optimal_combinations`.
    pub search_s: f64,
    /// `save_index` + `load_index`.
    pub index_io_s: f64,
    /// Size of the index artifact.
    pub index_bytes: u64,
    /// `save_model` + `load_model` (model build included).
    pub model_io_s: f64,
    /// `predict_pyramid` for the served slot (every member summed).
    pub predict_s: f64,
    /// `publish_checked` into the prediction store(s).
    pub publish_s: f64,
    /// `profile_members` + `truth_pyramid` + `plan_ensemble`.
    pub plan_s: f64,
    /// `save_plan` + `load_plan`.
    pub load_plan_s: f64,
    /// Backend construction, bind, and the `HEALTH` poll until ready.
    pub serve_s: f64,
    /// From the first call until `HEALTH` reports ready.
    pub total_s: f64,
}

/// A served backend plus what the oracle needs to check its answers.
pub struct Served {
    pub handle: ServerHandle,
    pub backend: Arc<dyn QueryBackend>,
    pub kind: BackendKind,
    pub times: SetupTimes,
}

/// What stands behind the socket.
pub enum BackendKind {
    /// One `RegionServer`: its index and the frames it published.
    Region {
        index: CombinationIndex,
        frames: Vec<Vec<f32>>,
        store: Arc<PredictionStore>,
    },
    /// A `ShardRouter` over ensemble replicas: the plan and member stores.
    Ensemble {
        plan: EnsemblePlan,
        stores: Vec<Arc<PredictionStore>>,
    },
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the single-model backend and serves it: index search, index
/// and model artifacts written and read back, model forward for the
/// served slot, publish, then bind and wait for `HEALTH` ready.
pub fn region(inputs: &Inputs, dir: &Path) -> Served {
    let cfg = TemporalConfig::compact();
    let hier = &inputs.hier;
    let mut times = SetupTimes::default();
    let t_all = Instant::now();

    let t = Instant::now();
    let slots = inputs.val_slots();
    let truths = truth_pyramid(hier, &inputs.flow, &slots);
    let searched = search_optimal_combinations(hier, &truths, &truths, SearchStrategy::Union);
    times.search_s = secs(t);
    drop(truths);

    let t = Instant::now();
    let index_path = dir.join("index.o4aidx");
    codec::save_index(&searched, &index_path).expect("persist index");
    drop(searched);
    let index = codec::load_index(&index_path).expect("cold-start index artifact");
    times.index_io_s = secs(t);
    times.index_bytes = std::fs::metadata(&index_path).map_or(0, |m| m.len());

    let t = Instant::now();
    let model_path = dir.join("model.o4amdl");
    let mut built = One4AllSt::standard(
        &mut SeededRng::new(17),
        hier.clone(),
        &cfg,
        TrainConfig::default(),
    );
    std::fs::write(&model_path, deploy::save_model(&mut built)).expect("persist model");
    drop(built);
    let bytes = std::fs::read(&model_path).expect("read model artifact");
    let mut model = One4AllSt::standard(
        &mut SeededRng::new(1),
        hier.clone(),
        &cfg,
        TrainConfig::default(),
    );
    deploy::load_model(&mut model, &bytes).expect("cold-start model artifact");
    times.model_io_s = secs(t);

    let t = Instant::now();
    let frames: Vec<Vec<f32>> = model
        .predict_pyramid(&inputs.flow, &cfg, &[inputs.slot])
        .into_iter()
        .map(|mut per_t| per_t.remove(0))
        .collect();
    times.predict_s = secs(t);
    drop(model);

    let t = Instant::now();
    let store = Arc::new(PredictionStore::for_hierarchy(hier));
    store
        .publish_checked(frames.clone())
        .expect("snapshot must match the hierarchy");
    times.publish_s = secs(t);

    let t = Instant::now();
    let backend: Arc<dyn QueryBackend> =
        Arc::new(RegionServer::new(index.clone(), Arc::clone(&store)));
    let handle = serve(Arc::clone(&backend), ServeConfig::default()).expect("bind server");
    wait_ready(&handle);
    times.serve_s = secs(t);
    times.total_s = secs(t_all);
    Served {
        handle,
        backend,
        kind: BackendKind::Region {
            index,
            frames,
            store,
        },
        times,
    }
}

/// Builds the stripe ensemble behind a K-shard router and serves it:
/// member profiling and the plan DP, plan artifact written and read
/// back, each member's forward for the served slot, publish, then bind
/// and wait for `HEALTH` ready.
pub fn ensemble(inputs: &Inputs, dir: &Path) -> Served {
    let cfg = TemporalConfig::compact();
    let hier = &inputs.hier;
    let mut times = SetupTimes::default();
    let t_all = Instant::now();

    let t = Instant::now();
    let slots = inputs.val_slots();
    let mut experts = HotspotExpert::stripes(hier, ENSEMBLE_MEMBERS, 400, 99);
    let mut refs: Vec<&mut dyn PyramidPredictor> = experts
        .iter_mut()
        .map(|e| e as &mut dyn PyramidPredictor)
        .collect();
    let profiles = profile_members(&mut refs, &inputs.flow, &cfg, &slots);
    let truths = truth_pyramid(hier, &inputs.flow, &slots);
    let planned = plan_ensemble(hier, &profiles, &truths, &PlanOptions::default());
    times.plan_s = secs(t);
    drop((profiles, truths));

    let t = Instant::now();
    let plan_path = dir.join("plan.o4aens");
    save_plan(&planned, &plan_path).expect("persist ensemble plan");
    drop(planned);
    let plan = load_plan(&plan_path).expect("cold-start plan artifact");
    times.load_plan_s = secs(t);

    let mut stores = Vec::with_capacity(plan.members.len());
    for name in &plan.members {
        let mut member =
            HotspotExpert::from_name(&plan.hier, name).expect("member name encodes its config");
        let t = Instant::now();
        let frames: Vec<Vec<f32>> = member
            .predict_pyramid(&inputs.flow, &cfg, &[inputs.slot])
            .into_iter()
            .map(|mut per_t| per_t.remove(0))
            .collect();
        times.predict_s += secs(t);
        let t = Instant::now();
        let store = Arc::new(PredictionStore::for_hierarchy_labeled(&plan.hier, name));
        store
            .publish_checked(frames)
            .expect("member snapshot must match the hierarchy");
        times.publish_s += secs(t);
        stores.push(store);
    }

    let t = Instant::now();
    let replicas: Vec<Arc<dyn QueryBackend>> = (0..SHARDS)
        .map(|_| {
            Arc::new(EnsembleServer::new(plan.clone(), stores.clone())) as Arc<dyn QueryBackend>
        })
        .collect();
    let backend: Arc<dyn QueryBackend> = Arc::new(ShardRouter::new(replicas));
    let handle = serve(Arc::clone(&backend), ServeConfig::default()).expect("bind server");
    wait_ready(&handle);
    times.serve_s = secs(t);
    times.total_s = secs(t_all);
    Served {
        handle,
        backend,
        kind: BackendKind::Ensemble { plan, stores },
        times,
    }
}

/// Polls `HEALTH` until the server reports ready.
///
/// # Panics
/// Panics if the server is not ready within 30 s.
fn wait_ready(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let ready = Client::connect(handle.addr(), ClientConfig::default())
            .and_then(|mut c| c.health())
            .is_ok_and(|h| h.ready);
        if ready {
            return;
        }
        assert!(Instant::now() < deadline, "server never reported ready");
        std::thread::sleep(Duration::from_millis(1));
    }
}
