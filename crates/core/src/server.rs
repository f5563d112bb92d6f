//! Online modifiable-areal-unit prediction (Sec. III and IV-D).
//!
//! The offline phase leaves two artifacts: the extended quad-tree of
//! optimal combinations and a continuously-refreshed snapshot of
//! multi-scale predictions (the paper stores both in HBase; here an
//! in-process [`PredictionStore`] guarded by an `RwLock` plays
//! that role — the exercised query path is identical).
//!
//! Answering a region query costs *decomposition + index lookups +
//! aggregation* and never re-runs the model, which is what keeps response
//! times in the low milliseconds (Fig. 15). One [`QueryEngine`] runs that
//! path for every served index: [`RegionServer`] is the engine over a
//! single model's [`CombinationIndex`], and the ensemble crate's
//! `EnsembleServer` is the same engine over an `EnsemblePlan`.

use crate::combination::{Combination, CombinationIndex};
use crate::compiled::{compile, with_scratch, CompiledPlan, PlanBuilder, PlanCache, PlanSource};
use crate::frames::{FrameSet, FrameView};
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::mask::Mask;
use o4a_obs::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Evaluates one decomposed group against per-layer frames using the
/// index: multi-grids hit their own entry (if the coding rule applies),
/// everything else unions its member cells' optimal combinations. The
/// interpreted oracle the compiled engine is proven bit-identical to.
fn evaluate_group(
    hier: &Hierarchy,
    index: &CombinationIndex,
    frames: &FrameView<'_>,
    group: &DecomposedGroup,
) -> f32 {
    if group.cells.len() >= 2 && hier.k() == 2 {
        if let Some(comb) = index.for_multi(group.layer, &group.cells) {
            return comb.evaluate_frames(hier, frames);
        }
    }
    group
        .cells
        .iter()
        .map(|&(r, c)| {
            let cell = LayerCell::new(group.layer, r, c);
            match index.for_cell(cell) {
                Some(comb) => comb.evaluate_frames(hier, frames),
                // a missing entry can only happen on a foreign index; fall
                // back to the direct prediction
                None => Combination::single(cell).evaluate_frames(hier, frames),
            }
        })
        .sum()
}

/// Predicts a region query from per-layer frames: hierarchical
/// decomposition (Algorithm 1), index lookups, signed aggregation.
pub fn predict_query(
    hier: &Hierarchy,
    index: &CombinationIndex,
    frames: &[Vec<f32>],
    mask: &Mask,
) -> f32 {
    let view = FrameView::F32(frames);
    decompose(hier, mask)
        .iter()
        .map(|g| evaluate_group(hier, index, &view, g))
        .sum()
}

/// Like [`predict_query`] but over an already-decomposed query — use when
/// evaluating the same region against many prediction snapshots (the
/// decomposition depends only on the mask).
pub fn predict_query_decomposed(
    hier: &Hierarchy,
    index: &CombinationIndex,
    frames: &[Vec<f32>],
    groups: &[DecomposedGroup],
) -> f32 {
    predict_query_decomposed_view(hier, index, &FrameView::F32(frames), groups)
}

/// [`predict_query_decomposed`] over a snapshot in either storage
/// precision — the region server's inner loop.
pub fn predict_query_decomposed_view(
    hier: &Hierarchy,
    index: &CombinationIndex,
    frames: &FrameView<'_>,
    groups: &[DecomposedGroup],
) -> f32 {
    groups
        .iter()
        .map(|g| evaluate_group(hier, index, frames, g))
        .sum()
}

/// The full signed combination a query resolves to under an index
/// (concatenation over its decomposed groups). Lets experiments compare
/// how different strategies decompose the same query (Table III).
pub fn query_combination(hier: &Hierarchy, index: &CombinationIndex, mask: &Mask) -> Combination {
    let mut terms = Vec::new();
    for group in decompose(hier, mask) {
        let mut matched_multi = false;
        if group.cells.len() >= 2 && hier.k() == 2 {
            if let Some(comb) = index.for_multi(group.layer, &group.cells) {
                terms.extend_from_slice(&comb.terms);
                matched_multi = true;
            }
        }
        if !matched_multi {
            for &(r, c) in &group.cells {
                let cell = LayerCell::new(group.layer, r, c);
                match index.for_cell(cell) {
                    Some(comb) => terms.extend_from_slice(&comb.terms),
                    None => terms.push(crate::combination::SignedCell { cell, sign: 1 }),
                }
            }
        }
    }
    Combination { terms }
}

/// Timing breakdown of one online query (Fig. 15 reports decomposition +
/// indexing time).
#[derive(Debug, Clone, Copy)]
pub struct QueryTiming {
    /// Time spent in hierarchical decomposition.
    pub decompose: Duration,
    /// Time spent retrieving combinations and aggregating.
    pub index: Duration,
}

impl QueryTiming {
    /// Total response time.
    pub fn total(&self) -> Duration {
        self.decompose + self.index
    }
}

/// A snapshot rejected by [`PredictionStore::publish_checked`]: its shape
/// does not match the hierarchy the store was created for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// Wrong number of per-layer frames.
    LayerCount {
        /// Layers in the rejected snapshot.
        got: usize,
        /// Layers the hierarchy has.
        want: usize,
    },
    /// One layer's flat vector has the wrong length.
    LayerLen {
        /// The offending layer.
        layer: usize,
        /// Cells in the rejected frame.
        got: usize,
        /// Cells the hierarchy's layer has.
        want: usize,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::LayerCount { got, want } => {
                write!(f, "snapshot has {got} layers, hierarchy has {want}")
            }
            PublishError::LayerLen { layer, got, want } => {
                write!(f, "layer {layer} frame has {got} cells, expected {want}")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// A shared snapshot of the latest multi-scale predictions. The model
/// server refreshes it at preset intervals; region servers read it
/// lock-free-ish via an `Arc` swap.
///
/// Every store is built for one hierarchy and rejects snapshots of any
/// other shape at publish, so a published snapshot always matches the
/// layout a [`QueryEngine`] compiled its plans against.
///
/// Snapshots default to f32 storage. [`PredictionStore::set_half_storage`]
/// switches subsequent publishes to IEEE binary16 frames — half the
/// resident bytes, values widened per read during aggregation, with the
/// per-term error bound documented in [`crate::frames`].
#[derive(Debug)]
pub struct PredictionStore {
    frames: RwLock<Arc<FrameSet>>,
    /// Flat length per layer of the hierarchy the store was built for.
    expected: Vec<usize>,
    /// When set, publishes narrow the snapshot to f16 storage.
    half: AtomicBool,
    /// Optional name (typically the member model served), included in the
    /// publish-rejection log line so deployments with several member
    /// stores can tell which snapshot was malformed.
    label: Option<String>,
}

impl PredictionStore {
    /// Creates a store that only accepts snapshots shaped like `hier`
    /// (one frame per layer, each with that layer's cell count).
    pub fn for_hierarchy(hier: &Hierarchy) -> Self {
        PredictionStore {
            frames: RwLock::new(Arc::new(FrameSet::default())),
            expected: layer_lens(hier),
            half: AtomicBool::new(false),
            label: None,
        }
    }

    /// [`PredictionStore::for_hierarchy`] with a label naming the store
    /// (the member model it serves). An ensemble deployment holds one
    /// store per member; without the label a publish-rejection log line
    /// cannot say *which* member pushed the malformed snapshot.
    pub fn for_hierarchy_labeled(hier: &Hierarchy, label: impl Into<String>) -> Self {
        PredictionStore {
            label: Some(label.into()),
            ..Self::for_hierarchy(hier)
        }
    }

    /// The store's label, if one was given at construction.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Switches the storage precision of *subsequent* publishes: `true`
    /// narrows each published snapshot to f16 bit patterns (half the
    /// payload bytes), `false` (the default) keeps f32. The currently
    /// published snapshot is left as-is until the next publish.
    pub fn set_half_storage(&self, on: bool) {
        self.half.store(on, Ordering::Relaxed);
    }

    /// Whether subsequent publishes narrow to f16 storage.
    pub fn half_storage(&self) -> bool {
        self.half.load(Ordering::Relaxed)
    }

    /// Whether the store was built for `hier`'s layer layout.
    pub fn is_for(&self, hier: &Hierarchy) -> bool {
        self.expected == layer_lens(hier)
    }

    /// Checks a snapshot against the expected shape without publishing.
    pub fn validate(&self, frames: &[Vec<f32>]) -> Result<(), PublishError> {
        let expected = &self.expected;
        if frames.len() != expected.len() {
            return Err(PublishError::LayerCount {
                got: frames.len(),
                want: expected.len(),
            });
        }
        for (layer, (frame, &want)) in frames.iter().zip(expected).enumerate() {
            if frame.len() != want {
                return Err(PublishError::LayerLen {
                    layer,
                    got: frame.len(),
                    want,
                });
            }
        }
        Ok(())
    }

    /// Publishes a new multi-scale snapshot (`frames[layer]` flat),
    /// rejecting one whose shape does not match the store's hierarchy.
    /// With [`PredictionStore::set_half_storage`] on, the snapshot is
    /// narrowed to f16 storage before the swap.
    pub fn publish_checked(&self, frames: Vec<Vec<f32>>) -> Result<(), PublishError> {
        self.validate(&frames)?;
        let set = if self.half_storage() {
            FrameSet::narrow(frames)
        } else {
            FrameSet::from_f32(frames)
        };
        // a poisoned lock still holds a whole snapshot: the guarded write
        // is a single `Arc` swap
        *self.frames.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(set);
        Ok(())
    }

    /// Publishes a new multi-scale snapshot (`frames[layer]` flat). A
    /// malformed snapshot is error-logged and dropped — readers keep the
    /// previous snapshot instead of serving garbage.
    pub fn publish(&self, frames: Vec<Vec<f32>>) {
        if let Err(e) = self.publish_checked(frames) {
            o4a_obs::counter!(
                "o4a_store_publish_rejected_total",
                "malformed prediction snapshots dropped by the store"
            )
            .inc();
            match self.label() {
                Some(name) => o4a_obs::error!(
                    "core",
                    "PredictionStore[{}]: dropping malformed snapshot: {}",
                    name,
                    e
                ),
                None => o4a_obs::error!(
                    "core",
                    "PredictionStore: dropping malformed snapshot: {}",
                    e
                ),
            }
        }
    }

    /// Grabs the current snapshot (in whichever storage precision it was
    /// published); evaluate through [`FrameSet::view`].
    pub fn snapshot(&self) -> Arc<FrameSet> {
        self.frames
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Whether a snapshot has been published.
    pub fn is_ready(&self) -> bool {
        !self
            .frames
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

/// Flat cell count of each layer of `hier`.
fn layer_lens(hier: &Hierarchy) -> Vec<usize> {
    (0..hier.num_layers()).map(|l| hier.layer_len(l)).collect()
}

/// The model-server side of the online phase (Fig. 4): wraps a trained
/// pyramid predictor and pushes fresh multi-scale snapshots into a
/// [`PredictionStore`] at every prediction interval — the stand-in for the
/// paper's "deployed ST model continuously synchronizes multi-scale
/// predictions with HBase at preset intervals".
pub struct ModelServer<P> {
    model: P,
    store: Arc<PredictionStore>,
}

impl<P: o4a_models::multiscale::PyramidPredictor> ModelServer<P> {
    /// Creates a model server over a trained predictor.
    pub fn new(model: P, store: Arc<PredictionStore>) -> Self {
        ModelServer { model, store }
    }

    /// The shared store region servers read from.
    pub fn store(&self) -> Arc<PredictionStore> {
        self.store.clone()
    }

    /// Predicts slot `t` at every scale and publishes the snapshot.
    pub fn publish_slot(
        &mut self,
        flow: &o4a_data::flow::FlowSeries,
        cfg: &o4a_data::features::TemporalConfig,
        t: usize,
    ) {
        let frames: Vec<Vec<f32>> = self
            .model
            .predict_pyramid(flow, cfg, &[t])
            .into_iter()
            .map(|mut per_t| per_t.remove(0))
            .collect();
        self.store.publish(frames);
    }

    /// Access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut P {
        &mut self.model
    }
}

/// The histograms a [`QueryEngine`] records each query into. The stage
/// histograms are shared by every engine in the process, whatever its plan
/// source; the member-terms histograms come from the source.
struct StageMetrics {
    /// Per-query decomposition time: Algorithm 1 on a plan-cache miss,
    /// zero on a hit.
    decompose: Arc<Histogram>,
    /// Per-query plan-cache lookup (and compile on a miss) time,
    /// excluding the decomposition.
    lookup: Arc<Histogram>,
    /// Per-query compiled aggregation time.
    aggregate: Arc<Histogram>,
    /// Per member: terms read from that member per execution. Empty when
    /// the source does not export them.
    member_terms: Vec<Arc<Histogram>>,
}

impl StageMetrics {
    fn register(source: &impl PlanSource) -> Self {
        let reg = o4a_obs::global();
        StageMetrics {
            decompose: reg.histogram(
                "o4a_query_decompose_ns",
                "per-query hierarchical decomposition time (zero on a plan-cache hit)",
            ),
            lookup: reg.histogram("o4a_query_lookup_ns", "per-query plan-cache lookup time"),
            aggregate: reg.histogram(
                "o4a_query_aggregate_ns",
                "per-query signed aggregation time over the prediction snapshots",
            ),
            member_terms: source.metrics(),
        }
    }
}

impl PlanSource for CombinationIndex {
    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn num_members(&self) -> usize {
        1
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn push_cell(&self, cell: LayerCell, b: &mut PlanBuilder) -> bool {
        push_combination(self.for_cell(cell), b)
    }

    fn push_multi(&self, layer: usize, cells: &[(usize, usize)], b: &mut PlanBuilder) -> bool {
        push_combination(self.for_multi(layer, cells), b)
    }
}

fn push_combination(comb: Option<&Combination>, b: &mut PlanBuilder) -> bool {
    let Some(comb) = comb else {
        return false;
    };
    for t in &comb.terms {
        b.push_term(t.cell, t.sign, 0);
    }
    true
}

/// Estimated pool-cost units (~scalar flop equivalents) of answering one
/// mask: decomposition plus index lookups and aggregation, a few
/// microseconds of work. Threaded into [`o4a_tensor::parallel::run`] so
/// small batches (fewer than `PARALLEL_CUTOFF / QUERY_COST` ≈ 64 masks)
/// take the serial path instead of paying the pool wake-up — the fix for
/// the `query_many_batch` regression in BENCH_kernels.json.
const QUERY_COST: usize = 8192;

/// Why the engine may `expect` compiled execution to succeed.
const LAYOUT_INVARIANT: &str =
    "stores validate every publish against the engine's hierarchy, so the snapshot layout matches";

/// The prediction stores an engine reads, one per plan member. Converts
/// from a single store (a single-model index) or a member list (an
/// ensemble plan).
pub struct StoreSet(Vec<Arc<PredictionStore>>);

impl From<Arc<PredictionStore>> for StoreSet {
    fn from(store: Arc<PredictionStore>) -> Self {
        StoreSet(vec![store])
    }
}

impl From<Vec<Arc<PredictionStore>>> for StoreSet {
    fn from(stores: Vec<Arc<PredictionStore>>) -> Self {
        StoreSet(stores)
    }
}

/// The online query engine: a snapshot-versioned cache of compiled plans
/// keyed by mask ([`crate::compiled`]) and one [`PredictionStore`] per
/// member of its [`PlanSource`]. Every query runs the same path — look up
/// the mask's plan, decomposing (Algorithm 1) and compiling it only on a
/// miss, then execute it against one consistent snapshot set — and
/// reports its stage times. A repeated region costs lookup + aggregation
/// alone, the split the paper's extended quad-tree buys (Sec. IV-D).
pub struct QueryEngine<S> {
    source: S,
    stores: Vec<Arc<PredictionStore>>,
    plan_cache: PlanCache,
    compiled_terms: AtomicU64,
    metrics: StageMetrics,
}

/// The single-model region server: a [`QueryEngine`] over a searched
/// [`CombinationIndex`] and one prediction store.
pub type RegionServer = QueryEngine<CombinationIndex>;

impl<S: PlanSource> QueryEngine<S> {
    /// Creates an engine over a plan source and its stores (`stores[m]`
    /// backs member `m`).
    ///
    /// # Panics
    /// Panics when the store count disagrees with the source's members,
    /// or when a store was built for another hierarchy.
    pub fn new(source: S, stores: impl Into<StoreSet>) -> Self {
        let StoreSet(stores) = stores.into();
        assert_eq!(
            stores.len(),
            source.num_members(),
            "one prediction store per plan member"
        );
        assert!(!stores.is_empty(), "plan has no members");
        assert!(
            stores.iter().all(|s| s.is_for(source.hierarchy())),
            "prediction store was built for a different hierarchy"
        );
        // Resolve the kernel ISA dispatch now so the o4a_isa_* gauges are
        // registered before the first scrape (and the choice is logged
        // during server bring-up rather than mid-query).
        let _ = o4a_tensor::isa::active();
        // Pre-register the histograms so a scrape before the first query
        // already exposes them (no samples are recorded here).
        let _ = o4a_obs::histogram!(
            "o4a_compiled_terms",
            "resolved terms per compiled query execution"
        );
        let metrics = StageMetrics::register(&source);
        QueryEngine {
            source,
            stores,
            plan_cache: PlanCache::new(),
            compiled_terms: AtomicU64::new(0),
            metrics,
        }
    }

    /// The served plan source (the index or the ensemble plan).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// The member stores, in plan order (the serving layer polls their
    /// readiness before admitting traffic).
    pub fn stores(&self) -> &[Arc<PredictionStore>] {
        &self.stores
    }

    /// The hierarchy served.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.source.hierarchy()
    }

    /// Whether every member store has published a snapshot — the serving
    /// layer admits traffic only once the *whole* plan is live, so a query
    /// never mixes a real member snapshot with an empty one.
    pub fn is_ready(&self) -> bool {
        self.stores.iter().all(|s| s.is_ready())
    }

    /// `(hits, misses, evictions)` of the compiled-plan cache since the
    /// engine was created. Surfaced by the serving layer's STATS verb.
    pub fn plan_cache_stats(&self) -> (u64, u64, u64) {
        self.plan_cache.stats()
    }

    /// Compiled plans cached now.
    pub fn plan_cache_entries(&self) -> u64 {
        self.plan_cache.len() as u64
    }

    /// Total terms executed since start.
    pub fn compiled_terms(&self) -> u64 {
        self.compiled_terms.load(Ordering::Relaxed)
    }

    /// One consistent snapshot per member, taken up front.
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot.
    fn snapshots(&self) -> Vec<Arc<FrameSet>> {
        let snaps: Vec<Arc<FrameSet>> = self.stores.iter().map(|s| s.snapshot()).collect();
        assert!(
            snaps.iter().all(|s| !s.is_empty()),
            "no prediction snapshot published"
        );
        snaps
    }

    /// Counts one execution's terms: the engine total, the
    /// compiled-terms histogram and, when the source exports them, the
    /// per-member histograms.
    fn note_terms(&self, plan: &CompiledPlan) {
        let terms = plan.num_terms() as u64;
        self.compiled_terms.fetch_add(terms, Ordering::Relaxed);
        o4a_obs::histogram!(
            "o4a_compiled_terms",
            "resolved terms per compiled query execution"
        )
        .record(terms);
        for (m, hist) in self.metrics.member_terms.iter().enumerate() {
            hist.record(plan.member_terms().get(m).map_or(0, |&t| t as u64));
        }
    }

    /// The query path: look up the mask's plan, decomposing and compiling
    /// it only on a miss, then execute it against `snaps`. Records the
    /// three stage times — decompose is Algorithm 1's time on a miss and
    /// zero on a hit, lookup excludes it — and returns the value with the
    /// decomposition and index (lookup + aggregate) times.
    fn answer(&self, mask: &Mask, snaps: &[&FrameSet]) -> (f32, Duration, Duration) {
        let t0 = Instant::now();
        let mut decompose_t = Duration::ZERO;
        let plan = self
            .plan_cache
            .get_or_compile_mask(mask, self.source.epoch(), || {
                let d0 = Instant::now();
                let groups = decompose(self.hierarchy(), mask);
                decompose_t = d0.elapsed();
                compile(&self.source, &groups)
            });
        let t2 = Instant::now();
        let value = with_scratch(|s| plan.execute_sum(snaps, s)).expect(LAYOUT_INVARIANT);
        self.note_terms(&plan);
        let t3 = Instant::now();
        let lookup = (t2 - t0).saturating_sub(decompose_t);
        let aggregate = t3 - t2;
        // Stage histograms are lock-free atomics, safe to bump from
        // inside pool tasks.
        self.metrics.decompose.record(decompose_t.as_nanos() as u64);
        self.metrics.lookup.record(lookup.as_nanos() as u64);
        self.metrics.aggregate.record(aggregate.as_nanos() as u64);
        (value, decompose_t, lookup + aggregate)
    }

    /// Answers a region query against the latest published snapshots.
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot.
    pub fn query(&self, mask: &Mask) -> f32 {
        self.query_timed(mask).0
    }

    /// Answers a query and reports the timing breakdown. The decomposition
    /// stage is zero when the mask's plan is cached (Algorithm 1 runs only
    /// to compile a missing plan). The
    /// three internal stages (decompose, plan lookup, aggregation) are
    /// also recorded into the global metrics registry; `QueryTiming.index`
    /// stays the exact sum of the lookup and aggregation stages.
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot.
    pub fn query_timed(&self, mask: &Mask) -> (f32, QueryTiming) {
        let (values, timing) = self.query_many_timed(std::slice::from_ref(mask));
        (values[0], timing)
    }

    /// Answers a batch of queries; [`QueryEngine::query_many_timed`]
    /// without the timing.
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot.
    pub fn query_many(&self, masks: &[Mask]) -> Vec<f32> {
        self.query_many_timed(masks).0
    }

    /// Answers a batch of queries with the aggregate timing breakdown.
    ///
    /// Takes **one** snapshot per member up front — the whole batch is
    /// answered against a consistent snapshot set even if a model server
    /// publishes mid-batch — then fans the masks out across the compute
    /// pool in [`o4a_tensor::parallel`]. Each task answers one mask into
    /// its own output slot, so the result vector is identical to the
    /// serial loop. The per-mask [`QUERY_COST`] estimate keeps small
    /// batches on the caller thread: below the pool's adaptive cutoff the
    /// wake-up would cost more than the whole batch. Stage times are
    /// measured inside each task and summed, so the timing is total CPU
    /// time per stage (wall time is lower when several workers run).
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot.
    pub fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        let snaps = self.snapshots();
        let refs: Vec<&FrameSet> = snaps.iter().map(|s| &**s).collect();
        let mut out = vec![0.0f32; masks.len()];
        let (dec_ns, idx_ns) = (AtomicU64::new(0), AtomicU64::new(0));
        let out_ptr = o4a_tensor::parallel::SendPtr(out.as_mut_ptr());
        o4a_tensor::parallel::run(masks.len(), QUERY_COST, |i| {
            let (v, decompose, index) = self.answer(&masks[i], &refs);
            dec_ns.fetch_add(decompose.as_nanos() as u64, Ordering::Relaxed);
            idx_ns.fetch_add(index.as_nanos() as u64, Ordering::Relaxed);
            // SAFETY: task `i` writes only slot `i`; `out` outlives the
            // blocking `run` call.
            unsafe { out_ptr.slice_mut(i, 1)[0] = v };
        });
        let timing = QueryTiming {
            decompose: Duration::from_nanos(dec_ns.into_inner()),
            index: Duration::from_nanos(idx_ns.into_inner()),
        };
        (out, timing)
    }

    /// Evaluates already-decomposed groups against one consistent
    /// snapshot set, returning one value per group — the shard-serving
    /// entry point. A shard router hands each shard its slice of one
    /// mask's decomposition and folds the per-group values back in
    /// decompose order; because each group's accumulation is
    /// self-contained the merged sum is bit-identical to the unsharded
    /// [`QueryEngine::query`]. The whole list is one cached plan: a slice
    /// repeats exactly when its mask does. `QueryTiming.decompose` is
    /// zero — decomposition happened at the router.
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot.
    pub fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        let snaps = self.snapshots();
        let refs: Vec<&FrameSet> = snaps.iter().map(|s| &**s).collect();
        // this runs on the caller's thread, so a sharded request's trace
        // id (set by the executor) is visible here for stage spans
        let tid = o4a_obs::trace::current();
        let t1 = Instant::now();
        let t1_ns = trace_now(tid);
        let plan = self
            .plan_cache
            .get_or_compile_groups(groups, self.source.epoch(), || {
                compile(&self.source, groups)
            });
        let lookup_t = t1.elapsed();
        emit_stage(tid, o4a_obs::trace::SpanKind::Lookup, t1_ns, groups.len());
        let t2 = Instant::now();
        let t2_ns = trace_now(tid);
        let values = with_scratch(|s| plan.execute_groups(&refs, s)).expect(LAYOUT_INVARIANT);
        self.note_terms(&plan);
        let aggregate_t = t2.elapsed();
        emit_stage(
            tid,
            o4a_obs::trace::SpanKind::Aggregate,
            t2_ns,
            groups.len(),
        );
        (
            values,
            QueryTiming {
                decompose: Duration::ZERO,
                index: lookup_t + aggregate_t,
            },
        )
    }
}

/// The trace clock when the request is sampled (`tid != 0`), else 0.
fn trace_now(tid: u64) -> u64 {
    if tid != 0 {
        o4a_obs::trace::now_ns()
    } else {
        0
    }
}

/// Emits one shard-leg stage span from `start_ns` to now for a sampled
/// request.
fn emit_stage(tid: u64, span: o4a_obs::trace::SpanKind, start_ns: u64, groups: usize) {
    if tid != 0 {
        o4a_obs::trace::emit(&o4a_obs::trace::SpanEvent {
            trace_id: tid,
            span: span as u16,
            parent: o4a_obs::trace::SpanKind::ShardScatter as u16,
            lane: 0,
            t_start_ns: start_ns,
            t_end_ns: o4a_obs::trace::now_ns(),
            bytes: groups as u64,
        });
    }
}

/// What the serving layer needs from a query backend: a [`QueryEngine`]
/// (over an index or an ensemble plan) and the sharded router both answer
/// region queries as pure lookup + aggregate, so `o4a_serve` runs any of
/// them behind this trait without knowing which.
pub trait QueryBackend: Send + Sync {
    /// The hierarchy queries are decomposed against.
    fn hierarchy(&self) -> &Hierarchy;

    /// Whether every prediction snapshot the backend answers from has been
    /// published (the serving layer refuses traffic until then).
    fn is_ready(&self) -> bool;

    /// Answers a batch of masks against one consistent snapshot (set),
    /// reporting the aggregate per-stage CPU time.
    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming);

    /// Evaluates already-decomposed groups against one consistent
    /// snapshot, one value per group in input order — the scatter leg of
    /// sharded serving. A router splits a mask's decomposition by shard
    /// ownership, calls this once per shard with that shard's slice, and
    /// folds the per-group values back in the original decompose order;
    /// each group's accumulation is self-contained, so the fold is
    /// bit-identical to the unsharded answer. `QueryTiming.decompose` is
    /// zero (decomposition happened at the router).
    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming);

    /// `(hits, misses)` of the backend's mask-to-routing cache; `(0, 0)`
    /// for a backend without one. Only a shard router keeps one: it
    /// caches each mask's decomposition split by shard, while an engine
    /// decomposes only to compile a plan its cache is missing.
    fn decomp_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Masks the backend's mask-to-routing cache holds now; `0` for a
    /// backend without one.
    fn decomp_cache_entries(&self) -> u64 {
        0
    }

    /// `(hits, misses, evictions)` of the backend's compiled-plan cache;
    /// all zeros for a backend without one.
    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Compiled plans the backend's cache holds now; `0` for a backend
    /// without one.
    fn plan_cache_entries(&self) -> u64 {
        0
    }

    /// Total terms executed since start; `0` for a backend without a
    /// compiled path.
    fn compiled_terms(&self) -> u64 {
        0
    }

    /// Revision of the active ensemble plan; `0` for a single-model
    /// backend (reported through the STATS verb).
    fn plan_revision(&self) -> u64 {
        0
    }

    /// Decomposed groups routed to each shard since start, in shard
    /// order. Empty for unsharded backends; a shard router overrides
    /// this so STATS can surface load imbalance.
    fn shard_loads(&self) -> Vec<u64> {
        Vec::new()
    }
}

impl<S: PlanSource> QueryBackend for QueryEngine<S> {
    fn hierarchy(&self) -> &Hierarchy {
        QueryEngine::hierarchy(self)
    }

    fn is_ready(&self) -> bool {
        QueryEngine::is_ready(self)
    }

    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        QueryEngine::query_many_timed(self, masks)
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        QueryEngine::query_groups_timed(self, groups)
    }

    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        QueryEngine::plan_cache_stats(self)
    }

    fn plan_cache_entries(&self) -> u64 {
        QueryEngine::plan_cache_entries(self)
    }

    fn compiled_terms(&self) -> u64 {
        QueryEngine::compiled_terms(self)
    }

    fn plan_revision(&self) -> u64 {
        self.source.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::{search_optimal_combinations, SearchStrategy};

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    /// Exact predictions at every scale: any strategy must then reproduce
    /// the ground-truth region sums exactly.
    fn exact_setup() -> (Hierarchy, CombinationIndex, Vec<Vec<f32>>) {
        let hier = hier4();
        // atomic truth frame: value r*4+c
        let atomic: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut frames = vec![atomic.clone()];
        for layer in 1..3 {
            let s = hier.scale(layer);
            let (lh, lw) = hier.layer_dims(layer);
            let mut f = vec![0.0f32; lh * lw];
            for r in 0..4 {
                for c in 0..4 {
                    f[(r / s) * lw + c / s] += atomic[r * 4 + c];
                }
            }
            frames.push(f);
        }
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let index =
            search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
        (hier, index, frames)
    }

    #[test]
    fn exact_predictions_give_exact_region_sums() {
        let (hier, index, frames) = exact_setup();
        for mask in [
            Mask::rect(4, 4, 0, 0, 2, 2),
            Mask::rect(4, 4, 1, 1, 3, 4),
            Mask::rect(4, 4, 0, 0, 4, 4),
            Mask::rect(4, 4, 2, 3, 3, 4),
        ] {
            let expected: f32 = mask.iter_set().map(|(r, c)| (r * 4 + c) as f32).sum();
            let got = predict_query(&hier, &index, &frames, &mask);
            assert!(
                (got - expected).abs() < 1e-4,
                "mask sum {got} != {expected}\n{mask}"
            );
        }
    }

    /// A snapshot for `hier4` whose every layer holds `v`.
    fn constant_frames(v: f32) -> Vec<Vec<f32>> {
        vec![vec![v; 16], vec![v; 4], vec![v; 1]]
    }

    #[test]
    fn store_publish_snapshot() {
        let store = PredictionStore::for_hierarchy(&hier4());
        assert!(!store.is_ready());
        store.publish(constant_frames(1.0));
        assert!(store.is_ready());
        assert_eq!(store.snapshot().layer_to_f32(2), vec![1.0]);
        // publishing again swaps the snapshot
        store.publish(constant_frames(3.0));
        assert_eq!(store.snapshot().layer_to_f32(2), vec![3.0]);
    }

    #[test]
    fn half_storage_narrows_subsequent_publishes() {
        let store = PredictionStore::for_hierarchy(&hier4());
        assert!(!store.half_storage());
        store.publish(constant_frames(-2.25));
        assert!(!store.snapshot().is_half());
        store.set_half_storage(true);
        // the already-published snapshot is untouched until the next swap
        assert!(!store.snapshot().is_half());
        store.publish(constant_frames(-2.25));
        let snap = store.snapshot();
        assert!(snap.is_half());
        // this value is f16-exact, so storage is lossless here
        assert_eq!(snap.layer_to_f32(1), vec![-2.25; 4]);
        store.set_half_storage(false);
        store.publish(constant_frames(4.0));
        assert!(!store.snapshot().is_half());
    }

    #[test]
    fn server_query_and_timing() {
        let (_, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier4()));
        store.publish(frames);
        let server = RegionServer::new(index, store);
        let mask = Mask::rect(4, 4, 0, 0, 2, 4);
        let (v, timing) = server.query_timed(&mask);
        let expected: f32 = mask.iter_set().map(|(r, c)| (r * 4 + c) as f32).sum();
        assert!((v - expected).abs() < 1e-4);
        assert!(timing.total() >= timing.decompose);
        assert_eq!(server.query(&mask), v);
        assert_eq!(server.query_many(std::slice::from_ref(&mask)), vec![v]);
    }

    #[test]
    fn model_server_publishes_snapshots() {
        use o4a_data::features::TemporalConfig;
        use o4a_data::flow::FlowSeries;
        use o4a_models::hm::HistoryMean;
        use o4a_models::multiscale::AggregatingPyramid;

        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut flow = FlowSeries::zeros(40, 4, 4);
        for t in 0..40 {
            for r in 0..4 {
                for c in 0..4 {
                    flow.set(t, r, c, (t % 4) as f32 + r as f32);
                }
            }
        }
        let cfg = TemporalConfig {
            closeness: 1,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        let store = Arc::new(PredictionStore::for_hierarchy(&hier4()));
        let mut server = ModelServer::new(
            AggregatingPyramid::new(HistoryMean::new(1, 1, 1), hier.clone()),
            store.clone(),
        );
        assert!(!store.is_ready());
        server.publish_slot(&flow, &cfg, 20);
        assert!(store.is_ready());
        let snap = store.snapshot();
        assert_eq!(snap.num_layers(), 3);
        assert_eq!(snap.layer_len(0), 16);
        assert_eq!(snap.layer_len(2), 1);
        // the coarsest frame is the sum of the atomic frame (aggregating
        // pyramid invariant), proving the published pyramid is coherent
        let total: f32 = snap.layer_to_f32(0).iter().sum();
        assert!((snap.layer_to_f32(2)[0] - total).abs() < 1e-4);
        let _ = server.model_mut();
        let _ = server.store();
    }

    #[test]
    fn checked_store_rejects_malformed_snapshots() {
        let hier = hier4();
        let store = PredictionStore::for_hierarchy(&hier);
        // wrong layer count
        assert_eq!(
            store.publish_checked(vec![vec![0.0; 16]]),
            Err(PublishError::LayerCount { got: 1, want: 3 })
        );
        // wrong per-layer length
        assert_eq!(
            store.publish_checked(vec![vec![0.0; 16], vec![0.0; 3], vec![0.0; 1]]),
            Err(PublishError::LayerLen {
                layer: 1,
                got: 3,
                want: 4
            })
        );
        // publish() drops the bad snapshot instead of serving it
        store.publish(vec![vec![1.0; 16]]);
        assert!(!store.is_ready());
        // a correctly shaped snapshot goes through
        store
            .publish_checked(vec![vec![2.0; 16], vec![2.0; 4], vec![2.0; 1]])
            .unwrap();
        assert!(store.is_ready());
        assert!(store.is_for(&hier) && !store.is_for(&Hierarchy::new(8, 8, 2, 3).unwrap()));
    }

    #[test]
    #[should_panic(expected = "built for a different hierarchy")]
    fn engine_rejects_a_store_for_another_hierarchy() {
        let (_, index, _) = exact_setup();
        let other = Hierarchy::new(8, 8, 2, 3).unwrap();
        RegionServer::new(index, Arc::new(PredictionStore::for_hierarchy(&other)));
    }

    #[test]
    fn labeled_store_names_itself() {
        let hier = hier4();
        let store = PredictionStore::for_hierarchy_labeled(&hier, "gbdt");
        assert_eq!(store.label(), Some("gbdt"));
        // the label changes only the log line, never the accept/reject
        // decision: malformed snapshots are still dropped...
        store.publish(vec![vec![1.0; 3]]);
        assert!(!store.is_ready());
        // ...and well-formed ones still land
        store.publish(vec![vec![2.0; 16], vec![2.0; 4], vec![2.0; 1]]);
        assert!(store.is_ready());
        assert_eq!(PredictionStore::for_hierarchy(&hier).label(), None);
    }

    #[test]
    fn region_server_is_a_query_backend() {
        let (_, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier4()));
        store.publish(frames);
        let server = RegionServer::new(index, store);
        let backend: &dyn QueryBackend = &server;
        assert!(backend.is_ready());
        assert_eq!(backend.plan_revision(), 0);
        let mask = Mask::rect(4, 4, 0, 0, 2, 2);
        let (vals, _) = backend.query_many_timed(std::slice::from_ref(&mask));
        assert_eq!(vals, vec![server.query(&mask)]);
        // an engine keeps no decomposition memo: its plan cache is the
        // one per-mask cache
        assert_eq!(backend.decomp_cache_stats(), (0, 0));
        assert_eq!(backend.plan_cache_stats(), (1, 1, 0));
        assert_eq!(backend.hierarchy().h(), 4);
    }

    #[test]
    fn query_many_timed_matches_query_many() {
        let (_, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier4()));
        store.publish(frames);
        let server = RegionServer::new(index, store);
        let masks = vec![
            Mask::rect(4, 4, 0, 0, 2, 2),
            Mask::rect(4, 4, 1, 1, 3, 4),
            Mask::rect(4, 4, 0, 0, 4, 4),
        ];
        let plain = server.query_many(&masks);
        let (timed, timing) = server.query_many_timed(&masks);
        assert_eq!(plain, timed);
        assert!(timing.total() >= timing.decompose);
        assert!(server.is_ready());
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let (_, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier4()));
        store.publish(frames);
        let server = RegionServer::new(index, store);
        let a = Mask::rect(4, 4, 0, 0, 2, 2);
        let b = Mask::rect(4, 4, 1, 1, 3, 4);
        assert_eq!(server.plan_cache_stats(), (0, 0, 0));
        let va = server.query(&a);
        assert_eq!(server.plan_cache_stats(), (0, 1, 0));
        // repeat queries hit; results are identical to the compiling path
        assert_eq!(server.query(&a), va);
        let (vt, timing) = server.query_timed(&a);
        assert_eq!(vt, va);
        assert_eq!(
            timing.decompose,
            Duration::ZERO,
            "a plan hit never decomposes"
        );
        assert_eq!(server.plan_cache_stats(), (2, 1, 0));
        // a new mask misses; a batch mixing both counts two hits
        let _ = server.query(&b);
        assert_eq!(server.plan_cache_stats(), (2, 2, 0));
        let batch = server.query_many(&[a.clone(), b.clone()]);
        assert_eq!(batch[0], va);
        assert_eq!(server.plan_cache_stats(), (4, 2, 0));
    }

    #[test]
    #[should_panic(expected = "no prediction snapshot")]
    fn query_before_publish_panics() {
        let (_, index, _) = exact_setup();
        let server = RegionServer::new(index, Arc::new(PredictionStore::for_hierarchy(&hier4())));
        server.query(&Mask::rect(4, 4, 0, 0, 1, 1));
    }

    #[test]
    fn concurrent_publish_and_query() {
        let (_, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier4()));
        store.publish(frames.clone());
        let server = Arc::new(RegionServer::new(index, store.clone()));
        let mask = Mask::rect(4, 4, 0, 0, 2, 2);
        publish_while_querying(&server, &store, &mask, frames);
    }

    fn publish_while_querying(
        server: &Arc<RegionServer>,
        store: &Arc<PredictionStore>,
        mask: &Mask,
        frames: Vec<Vec<f32>>,
    ) {
        // model server refreshes while region servers answer queries
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let server = server.clone();
                let store = store.clone();
                let mask = mask.clone();
                let frames = frames.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        if i == 0 {
                            store.publish(frames.clone());
                        } else {
                            let v = server.query(&mask);
                            assert!(v.is_finite());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
    }
}
