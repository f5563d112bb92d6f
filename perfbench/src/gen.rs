//! Workloads and their request streams, with every answer computed by an
//! in-process oracle before any timing starts.
//!
//! Masks come from the paper's Task 1–4 generators
//! (`TaskSpec::standard_tasks(150.0)`) on the 128×128 raster; the served
//! program only ever sees the encoded request frames.

use crate::setup::{BackendKind, SIDE};
use o4a_core::server::predict_query;
use o4a_ensemble::EnsembleServer;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::Mask;
use o4a_serve::wire::{encode_request, Request};
use o4a_tensor::SeededRng;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unsharded `RegionServer`, single-mask `QUERY` frames in seeded
    /// shuffled passes over the Task 1–4 pool (the paper's Fig. 15).
    Paper128,
    /// The same server and frames, but every mask is new to the run.
    Paper128Cold,
    /// 2-member stripe ensemble behind a K=2 `ShardRouter`, 16-mask
    /// `BATCH` frames drawn Zipf(1.1) over the pool.
    Ens128K2Batch,
}

/// Masks per `BATCH` frame in the ensemble workload.
pub const BATCH_MASKS: usize = 16;
/// Zipf exponent of the ensemble workload's mask popularity.
pub const ZIPF_S: f64 = 1.1;
/// Partition seed of the query pool, the same in every run (the one
/// `loadgen` uses, 2,203 masks): the run seed draws from it.
const POOL_SEED: u64 = 23;
/// Fresh masks generated and checked at a time by the cold workload.
const COLD_CHUNK: usize = 512;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Paper128,
        Workload::Paper128Cold,
        Workload::Ens128K2Batch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper128 => "paper128",
            Workload::Paper128Cold => "paper128-cold",
            Workload::Ens128K2Batch => "ens128-k2-batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed offered rates `(lo, hi, saturate)` in requests per
    /// second: lo and hi about one third and two thirds of the capacity
    /// measured on the commit that introduced the benchmark, saturate
    /// about 1.3 times it (far enough over to saturate the server, near
    /// enough that shedding `BUSY` takes little of its time). Never
    /// recomputed per run.
    pub fn rates(self) -> (f64, f64, f64) {
        match self {
            Workload::Paper128 => (2000.0, 4000.0, 11000.0),
            Workload::Paper128Cold => (900.0, 1800.0, 6500.0),
            Workload::Ens128K2Batch => (170.0, 330.0, 1100.0),
        }
    }

    /// The latency limit on p99 per request: the paper's 2 ms average
    /// budget per `QUERY`, its 20 ms maximum per 16-mask `BATCH`.
    pub fn slo_ns(self) -> u64 {
        match self {
            Workload::Ens128K2Batch => 20_000_000,
            _ => 2_000_000,
        }
    }
}

/// One request: its encoded frame, the oracle's answer bits per mask,
/// and a key per mask that is equal exactly when the masks are.
pub struct Req {
    pub frame: Arc<Vec<u8>>,
    pub expect: Vec<u32>,
    pub keys: Vec<u64>,
    /// Set cells over the request's masks.
    pub cells: u64,
}

/// The answers a backend must give, computed in process.
enum Oracle<'a> {
    /// `predict_query`: the interpreted fold on the published frames.
    Region { kind: &'a BackendKind },
    /// The unsharded `EnsembleServer` over the same plan and stores.
    Ensemble(Box<EnsembleServer>),
}

impl Oracle<'_> {
    fn answer(&self, masks: &[Mask]) -> Vec<u32> {
        match self {
            Oracle::Region { kind } => {
                let BackendKind::Region { index, frames, .. } = kind else {
                    unreachable!("region oracle over a region backend")
                };
                // the interpreted fold is the slow part of generation:
                // split it over two threads
                let mut out = vec![0u32; masks.len()];
                let half = masks.len().div_ceil(2);
                std::thread::scope(|s| {
                    for (chunk_m, chunk_o) in
                        masks.chunks(half.max(1)).zip(out.chunks_mut(half.max(1)))
                    {
                        s.spawn(move || {
                            for (m, o) in chunk_m.iter().zip(chunk_o) {
                                *o = predict_query(&index.hier, index, frames, m).to_bits();
                            }
                        });
                    }
                });
                out
            }
            Oracle::Ensemble(server) => server
                .query_many(masks)
                .into_iter()
                .map(f32::to_bits)
                .collect(),
        }
    }
}

/// Makes a workload's requests from the run seed.
pub struct Gen<'a> {
    workload: Workload,
    rng: SeededRng,
    oracle: Oracle<'a>,
    /// Pool workloads: the Task 1–4 pool, one frame and answer per mask.
    pool: Vec<Mask>,
    pool_frames: Vec<Arc<Vec<u8>>>,
    pool_expect: Vec<u32>,
    /// `paper128`: the current shuffled pass and the position in it.
    order: Vec<usize>,
    cursor: usize,
    /// `ens128-k2-batch`: Zipf CDF over pool ranks (rank = pool order,
    /// so the hot head is Task 1 tracts on every seed).
    zipf_cdf: Vec<f64>,
    /// `paper128-cold`: 128-bit digests of every mask handed out, and
    /// the next fresh-partition seed.
    seen: HashSet<(u64, u64)>,
    next_pass: u64,
    fresh: Vec<Mask>,
    next_key: u64,
}

/// The Task 1–4 masks for one partition seed.
pub fn task_pool(seed: u64) -> Vec<Mask> {
    let mut rng = SeededRng::new(seed);
    let mut pool = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        pool.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    pool
}

fn digest(mask: &Mask) -> (u64, u64) {
    let mut a = std::collections::hash_map::DefaultHasher::new();
    mask.hash(&mut a);
    let mut b = std::collections::hash_map::DefaultHasher::new();
    0x5eed_u64.hash(&mut b);
    mask.hash(&mut b);
    (a.finish(), b.finish())
}

fn query_frame(mask: &Mask) -> Arc<Vec<u8>> {
    Arc::new(encode_request(&Request::Query(mask.clone())))
}

/// Fisher–Yates with the benchmark's seeded RNG.
fn shuffle<T>(v: &mut [T], rng: &mut SeededRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

impl<'a> Gen<'a> {
    pub fn new(workload: Workload, seed: u64, kind: &'a BackendKind) -> Gen<'a> {
        let oracle = match kind {
            BackendKind::Region { .. } => Oracle::Region { kind },
            BackendKind::Ensemble { plan, stores } => {
                Oracle::Ensemble(Box::new(EnsembleServer::new(plan.clone(), stores.clone())))
            }
        };
        let mut g = Gen {
            workload,
            rng: SeededRng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            oracle,
            pool: Vec::new(),
            pool_frames: Vec::new(),
            pool_expect: Vec::new(),
            order: Vec::new(),
            cursor: 0,
            zipf_cdf: Vec::new(),
            seen: HashSet::new(),
            next_pass: seed.wrapping_mul(1_000_003),
            fresh: Vec::new(),
            next_key: 0,
        };
        if workload != Workload::Paper128Cold {
            g.pool = task_pool(POOL_SEED);
            g.pool_expect = g.oracle.answer(&g.pool);
        }
        match workload {
            Workload::Paper128 => {
                g.pool_frames = g.pool.iter().map(query_frame).collect();
                g.order = (0..g.pool.len()).collect();
                g.cursor = g.order.len();
            }
            Workload::Ens128K2Batch => {
                let mut acc = 0.0;
                g.zipf_cdf = (0..g.pool.len())
                    .map(|i| {
                        acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                        acc
                    })
                    .collect();
                for c in &mut g.zipf_cdf {
                    *c /= acc;
                }
            }
            Workload::Paper128Cold => {}
        }
        g
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The pool size, or 0 for the cold workload (it has no pool).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The next `n` requests of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        match self.workload {
            Workload::Paper128 => (0..n).map(|_| self.next_shuffled()).collect(),
            Workload::Paper128Cold => self.take_cold(n),
            Workload::Ens128K2Batch => (0..n).map(|_| self.next_batch()).collect(),
        }
    }

    fn pool_req(&self, i: usize) -> Req {
        Req {
            frame: Arc::clone(&self.pool_frames[i]),
            expect: vec![self.pool_expect[i]],
            keys: vec![i as u64],
            cells: self.pool[i].area() as u64,
        }
    }

    /// Next mask of the current shuffled pass, starting a new pass when
    /// one ends: every pool mask once per pass, in seeded random order.
    fn next_shuffled(&mut self) -> Req {
        if self.cursor == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.cursor = 0;
        }
        let i = self.order[self.cursor];
        self.cursor += 1;
        self.pool_req(i)
    }

    fn next_batch(&mut self) -> Req {
        let ids: Vec<usize> = (0..BATCH_MASKS)
            .map(|_| {
                let u = self.rng.uniform(0.0, 1.0) as f64;
                self.zipf_cdf
                    .partition_point(|&c| c < u)
                    .min(self.pool.len() - 1)
            })
            .collect();
        let masks: Vec<Mask> = ids.iter().map(|&i| self.pool[i].clone()).collect();
        Req {
            frame: Arc::new(encode_request(&Request::Batch(masks))),
            expect: ids.iter().map(|&i| self.pool_expect[i]).collect(),
            keys: ids.iter().map(|&i| i as u64).collect(),
            cells: ids.iter().map(|&i| self.pool[i].area() as u64).sum(),
        }
    }

    /// `n` masks never handed out before in this run: fresh Task 1–4
    /// partitions, each from a new seed, with any mask seen before
    /// dropped. Made in chunks, so only the encoded frames stay resident.
    fn take_cold(&mut self, n: usize) -> Vec<Req> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let want = (n - out.len()).min(COLD_CHUNK);
            let mut masks = Vec::with_capacity(want);
            while masks.len() < want {
                if self.fresh.is_empty() {
                    self.next_pass += 1;
                    let mut pass = task_pool(self.next_pass);
                    shuffle(&mut pass, &mut self.rng);
                    self.fresh = pass;
                }
                let m = self.fresh.pop().expect("non-empty pass");
                if self.seen.insert(digest(&m)) {
                    masks.push(m);
                }
            }
            let expect = self.oracle.answer(&masks);
            for (m, bits) in masks.iter().zip(expect) {
                self.next_key += 1;
                out.push(Req {
                    frame: query_frame(m),
                    expect: vec![bits],
                    keys: vec![self.next_key],
                    cells: m.area() as u64,
                });
            }
        }
        out
    }
}
