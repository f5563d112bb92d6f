//! Compiled query plans: arena-packed index resolution with precomputed
//! frame offsets, executed by ISA-dispatched gather kernels.
//!
//! The interpreted query path re-derives, per term per query, the layer
//! base and row-major offset of every combination cell
//! ([`crate::combination::term_value`]: a `layer_dims` call, a multiply,
//! an add, and an enum-dispatched `FrameView::value`) and re-walks the
//! index's hash maps / quad-tree. A [`CompiledPlan`] does all of that
//! once: the full decomposition is resolved against the index into one
//! contiguous arena of `(flat frame offset, sign)` terms, so answering
//! the same mask again is a single streaming pass — gather the addressed
//! snapshot values, multiply by the signs
//! ([`o4a_tensor::gather`]), and run the same left-to-right reduction
//! chain the interpreter uses.
//!
//! # Bit-identity
//!
//! Compiled execution is **bit-identical** to the interpreted path, not
//! merely close. Two properties make that hold:
//!
//! * The gather + sign-multiply phase is per-element — no reduction, no
//!   reassociation — so any SIMD lane width produces the same bits. The
//!   sign is the *left* multiplicand, matching `sign as f32 * value`.
//! * The reduction phase replays the interpreter's exact fold structure,
//!   recorded at compile time as *runs* (one per
//!   combination-evaluation) nested in *groups* (one per decomposed
//!   group): a multi-grid group's value is its single run's fold
//!   `0.0 + t_0 + t_1 + …` emitted directly, while a cells group folds
//!   its runs' values into a fresh `0.0` accumulator first — the
//!   distinction is observable through IEEE `-0.0` (`0.0 + -0.0` is
//!   `+0.0`), so the plan records it instead of flattening.
//!
//! # Safety of the unchecked gathers
//!
//! The hardware gather tiers cannot bounds-check. Soundness is enforced
//! in two layers: the builder derives every offset from the hierarchy's
//! own layer geometry (so `offset < total cells` by construction), and
//! [`CompiledPlan::execute_groups`] refuses any snapshot whose
//! [`layout_signature`] differs from the hierarchy the plan was compiled
//! against **and** re-checks `required_len <= data.len()` with a plain
//! integer compare — the gathers stay in bounds even under a signature
//! collision. A refused snapshot returns `None`. The serving engine never
//! sees one: every [`crate::server::PredictionStore`] validates snapshots
//! against its hierarchy at publish, and the engine asserts at
//! construction that each store was built for the hierarchy it compiles
//! against, so it `expect`s the check.
//!
//! # Caching and invalidation
//!
//! Plans depend on the mask (or pre-decomposed group list), the
//! combination index, and the snapshot *layout* — but not on snapshot
//! *values*. [`PlanCache`] keys entries by mask/groups plus an `epoch`
//! (the ensemble plan revision; `0` for a single-model server): an entry
//! whose epoch no longer matches is dropped on lookup, so an index swap
//! can never serve a stale plan. Value refreshes (`publish_checked`)
//! don't touch the cache at all — execution re-reads the current
//! snapshot every time, and a layout-changing publish is rejected by the
//! store.

use crate::combination::CombinationIndex;
use crate::frames::{layout_signature, FrameData, FrameSet};
use o4a_grid::decompose::DecomposedGroup;
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::mask::Mask;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A fully resolved query: every combination term the index produces for
/// one decomposition, packed as flat frame offsets and signs, plus the
/// run/group fold structure needed to replay the interpreter's exact
/// accumulation order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// Flat arena offset of each term (layer base + row-major cell).
    offsets: Vec<u32>,
    /// `sign as f32` of each term (±1.0), the gather's left multiplicand.
    signs: Vec<f32>,
    /// Exclusive end index into `offsets` of each run (one run per
    /// combination evaluation in the interpreted path).
    run_ends: Vec<u32>,
    /// `(exclusive end index into run_ends, is_multi)` per decomposed
    /// group. A multi group has exactly one run whose fold *is* the group
    /// value; a cells group folds its runs into a fresh accumulator.
    groups: Vec<(u32, bool)>,
    /// `(exclusive term end, member store)` maximal same-member spans —
    /// the gather phase streams each span against one member's arena.
    segs: Vec<(u32, u16)>,
    /// [`layout_signature`] of the hierarchy the offsets were derived
    /// from; executed snapshots must match.
    sig: u64,
    /// Total cells of that hierarchy — the integer bound that keeps the
    /// unchecked gathers sound even under a `sig` collision.
    required_len: usize,
    /// Number of member stores addressed (1 for a single-model plan).
    members: u16,
    /// Terms addressed per member store (for the ensemble's per-model
    /// term histograms).
    member_terms: Vec<u32>,
}

impl CompiledPlan {
    /// Total resolved terms in the arena.
    pub fn num_terms(&self) -> usize {
        self.offsets.len()
    }

    /// Decomposed groups the plan evaluates.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Layout signature the plan requires of every executed snapshot.
    pub fn layout_sig(&self) -> u64 {
        self.sig
    }

    /// Terms addressed per member store.
    pub fn member_terms(&self) -> &[u32] {
        &self.member_terms
    }

    /// Checks every member snapshot and runs the gather phase into
    /// `scratch`. `false` means the plan cannot run against these
    /// snapshots (layout mismatch or short arena) and the caller must
    /// interpret instead.
    fn gather(&self, snaps: &[&FrameSet], scratch: &mut Vec<f32>) -> bool {
        if snaps.len() < self.members as usize {
            return false;
        }
        for &snap in &snaps[..self.members as usize] {
            let len = match snap.data() {
                FrameData::F32(d) => d.len(),
                FrameData::F16(d) => d.len(),
            };
            if snap.layout_sig() != self.sig || len < self.required_len {
                return false;
            }
        }
        scratch.clear();
        scratch.resize(self.offsets.len(), 0.0);
        let mut s = 0usize;
        for &(end, member) in &self.segs {
            let e = end as usize;
            let (offs, sgns, out) = (&self.offsets[s..e], &self.signs[s..e], &mut scratch[s..e]);
            // SAFETY: every offset is `< required_len` by construction
            // (derived from the hierarchy's layer geometry in
            // `PlanBuilder::push_term`) and `required_len <= data.len()`
            // was just checked above; the three slices share one length.
            match snaps[member as usize].data() {
                FrameData::F32(d) => unsafe {
                    o4a_tensor::gather::gather_signed_f32(d, offs, sgns, out)
                },
                FrameData::F16(d) => unsafe {
                    o4a_tensor::gather::gather_signed_f16(d, offs, sgns, out)
                },
            }
            s = e;
        }
        true
    }

    /// Replays the interpreter's fold structure over gathered terms,
    /// feeding each group's value to `emit` in decompose order.
    fn reduce_each(&self, scratch: &[f32], mut emit: impl FnMut(f32)) {
        let mut run_i = 0usize;
        let mut term_i = 0usize;
        for &(group_end, multi) in &self.groups {
            let rend = group_end as usize;
            if multi {
                // one run; its fold is the group value (no outer 0.0 +)
                let e = self.run_ends[run_i] as usize;
                let mut v = 0.0f32;
                for &x in &scratch[term_i..e] {
                    v += x;
                }
                emit(v);
                term_i = e;
                run_i = rend;
            } else {
                let mut g = 0.0f32;
                while run_i < rend {
                    let e = self.run_ends[run_i] as usize;
                    let mut v = 0.0f32;
                    for &x in &scratch[term_i..e] {
                        v += x;
                    }
                    g += v;
                    term_i = e;
                    run_i += 1;
                }
                emit(g);
            }
        }
    }

    /// Evaluates the plan to one value per decomposed group (the shard
    /// leg, where a router folds them with the other shards' values).
    /// `None` when the snapshots don't match the plan's layout.
    pub fn execute_groups(&self, snaps: &[&FrameSet], scratch: &mut Vec<f32>) -> Option<Vec<f32>> {
        if !self.gather(snaps, scratch) {
            return None;
        }
        let mut out = Vec::with_capacity(self.groups.len());
        self.reduce_each(scratch, |v| out.push(v));
        Some(out)
    }

    /// Evaluates the plan to the query's scalar answer (the fold of group
    /// values starting at `0.0`, exactly as the interpreted
    /// `groups.map(evaluate_group).sum()`). `None` on layout mismatch.
    pub fn execute_sum(&self, snaps: &[&FrameSet], scratch: &mut Vec<f32>) -> Option<f32> {
        if !self.gather(snaps, scratch) {
            return None;
        }
        let mut total = 0.0f32;
        self.reduce_each(scratch, |v| total += v);
        Some(total)
    }
}

/// Incrementally assembles a [`CompiledPlan`]: push terms, close runs
/// (one per combination evaluation), close groups (one per decomposed
/// group). Layer bases and widths are precomputed from the hierarchy so
/// each term costs one multiply-add.
pub struct PlanBuilder {
    bases: Vec<u32>,
    lws: Vec<u32>,
    sig: u64,
    required_len: usize,
    offsets: Vec<u32>,
    signs: Vec<f32>,
    run_ends: Vec<u32>,
    groups: Vec<(u32, bool)>,
    segs: Vec<(u32, u16)>,
    members: u16,
}

impl PlanBuilder {
    /// Starts a plan over `hier`'s layer geometry.
    ///
    /// # Panics
    /// Panics if the hierarchy's total cell count exceeds the `i32::MAX`
    /// flat-offset budget of the 32-bit gather kernels.
    pub fn new(hier: &Hierarchy) -> Self {
        let lens: Vec<usize> = (0..hier.num_layers()).map(|l| hier.layer_len(l)).collect();
        let total: usize = lens.iter().sum();
        assert!(
            total <= i32::MAX as usize,
            "hierarchy exceeds the 2^31-cell flat-offset budget ({total} cells)"
        );
        let mut bases = Vec::with_capacity(lens.len());
        let mut acc = 0u32;
        for &len in &lens {
            bases.push(acc);
            acc += len as u32;
        }
        PlanBuilder {
            bases,
            lws: (0..hier.num_layers())
                .map(|l| hier.layer_dims(l).1 as u32)
                .collect(),
            sig: layout_signature(lens),
            required_len: total,
            offsets: Vec::new(),
            signs: Vec::new(),
            run_ends: Vec::new(),
            groups: Vec::new(),
            segs: Vec::new(),
            members: 0,
        }
    }

    /// Appends one signed term reading `member`'s snapshot at `cell`.
    pub fn push_term(&mut self, cell: LayerCell, sign: i8, member: u16) {
        let off = self.bases[cell.layer] + cell.row as u32 * self.lws[cell.layer] + cell.col as u32;
        debug_assert!((off as usize) < self.required_len);
        self.offsets.push(off);
        self.signs.push(sign as f32);
        if member >= self.members {
            self.members = member + 1;
        }
        let end = self.offsets.len() as u32;
        match self.segs.last_mut() {
            Some((e, m)) if *m == member => *e = end,
            _ => self.segs.push((end, member)),
        }
    }

    /// Closes the current run (one combination's evaluation).
    pub fn end_run(&mut self) {
        self.run_ends.push(self.offsets.len() as u32);
    }

    /// Closes the current group. `multi` records that the interpreted
    /// path returns the run's fold directly (the multi-grid index hit);
    /// such a group must hold exactly one run.
    pub fn end_group(&mut self, multi: bool) {
        let prev = self.groups.last().map_or(0, |&(e, _)| e);
        let runs = self.run_ends.len() as u32 - prev;
        assert!(!multi || runs == 1, "multi group must hold exactly one run");
        self.groups.push((self.run_ends.len() as u32, multi));
    }

    /// Finalizes the plan.
    pub fn finish(self) -> CompiledPlan {
        let members = self.members.max(1);
        let mut member_terms = vec![0u32; members as usize];
        let mut s = 0u32;
        for &(end, member) in &self.segs {
            member_terms[member as usize] += end - s;
            s = end;
        }
        CompiledPlan {
            offsets: self.offsets,
            signs: self.signs,
            run_ends: self.run_ends,
            groups: self.groups,
            segs: self.segs,
            sig: self.sig,
            required_len: self.required_len,
            members,
            member_terms,
        }
    }
}

/// What the one compile walk needs from a served index: its hierarchy and
/// the terms of each grid. [`CombinationIndex`] puts every term on member
/// 0; the ensemble crate's `EnsemblePlan` gives each term its own member.
pub trait PlanSource: Send + Sync {
    /// The hierarchy queries are decomposed against.
    fn hierarchy(&self) -> &Hierarchy;

    /// Member prediction stores the terms address (1 for an index).
    fn num_members(&self) -> usize;

    /// Plan-cache epoch: a compiled plan from another epoch is never
    /// served. `0` for an index, the plan revision for an ensemble.
    fn epoch(&self) -> u64;

    /// Pushes the terms of `cell`'s entry into `b`; `false` (nothing
    /// pushed) when the source has no entry for it.
    fn push_cell(&self, cell: LayerCell, b: &mut PlanBuilder) -> bool;

    /// Pushes the terms of a multi-grid's entry (a same-parent group of
    /// 2–3 cells at `layer`); `false` (nothing pushed) when there is none.
    fn push_multi(&self, layer: usize, cells: &[(usize, usize)], b: &mut PlanBuilder) -> bool;

    /// Registers the source's own metrics and returns one histogram per
    /// member for the terms each execution reads from it; empty (the
    /// default) when the source exports none.
    fn metrics(&self) -> Vec<Arc<o4a_obs::Histogram>> {
        Vec::new()
    }
}

/// The one compile walk: resolves a decomposition against any
/// [`PlanSource`], mirroring the interpreted fold's branch structure
/// exactly — the multi-grid entry when the coding rule applies, otherwise
/// the member cells' entries in cell order, with member 0's direct
/// prediction for cells a foreign source is missing.
pub fn compile<S: PlanSource + ?Sized>(source: &S, groups: &[DecomposedGroup]) -> CompiledPlan {
    let hier = source.hierarchy();
    let mut b = PlanBuilder::new(hier);
    for group in groups {
        if group.cells.len() >= 2
            && hier.k() == 2
            && source.push_multi(group.layer, &group.cells, &mut b)
        {
            b.end_run();
            b.end_group(true);
            continue;
        }
        for &(r, c) in &group.cells {
            let cell = LayerCell::new(group.layer, r, c);
            if !source.push_cell(cell, &mut b) {
                b.push_term(cell, 1, 0);
            }
            b.end_run();
        }
        b.end_group(false);
    }
    b.finish()
}

/// [`compile`] against a single-model [`CombinationIndex`].
pub fn compile_groups(index: &CombinationIndex, groups: &[DecomposedGroup]) -> CompiledPlan {
    compile(index, groups)
}

/// Compiled plans a cache may key on: a raw mask (the region-server entry
/// points) or a pre-decomposed group list (the sharded scatter leg, where
/// decomposition happened at the router).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanKey {
    /// Keyed by the query mask.
    Mask(Mask),
    /// Keyed by the exact decomposed-group list.
    Groups(Box<[DecomposedGroup]>),
}

enum KeyRef<'a> {
    Mask(&'a Mask),
    Groups(&'a [DecomposedGroup]),
}

impl KeyRef<'_> {
    /// Bucket hash; a discriminant byte keeps mask and group keyspaces
    /// apart.
    fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        match self {
            KeyRef::Mask(m) => {
                h.write_u8(0);
                m.hash(&mut h);
            }
            KeyRef::Groups(g) => {
                h.write_u8(1);
                g.hash(&mut h);
            }
        }
        h.finish()
    }

    fn matches(&self, key: &PlanKey) -> bool {
        match (self, key) {
            (KeyRef::Mask(a), PlanKey::Mask(b)) => **a == *b,
            (KeyRef::Groups(a), PlanKey::Groups(b)) => **a == **b,
            _ => false,
        }
    }

    fn to_owned(&self) -> PlanKey {
        match self {
            KeyRef::Mask(m) => PlanKey::Mask((*m).clone()),
            KeyRef::Groups(g) => PlanKey::Groups((*g).to_vec().into_boxed_slice()),
        }
    }
}

/// Compiled plans a [`PlanCache`] retains, and masks a shard router's
/// routing cache retains. Unsharded backends cache one plan per hot mask;
/// a shard caches one plan per (mask, shard) slice, which repeats exactly
/// when its mask does, so a shard's population is at most the mask
/// working set. 4096 covers the paper's 2,203-mask Task 1-4 pool with
/// headroom, while bounding memory for adversarial mask streams.
pub const PLAN_CACHE_CAP: usize = 4096;

/// A least-recently-used map bounded at a fixed capacity, bucketed by a
/// caller-supplied key hash with the caller's key test inside a bucket,
/// so a lookup may go through a borrowed form of the key and a hit
/// allocates nothing. Eviction does not scan: a stamp-ordered index
/// (`last-use stamp -> key hash`) finds the oldest entry in
/// O(log entries). Not synchronized; owners keep it behind a lock.
///
/// `insert` does not look for an existing entry: a key inserted twice
/// (two threads that missed on it at once) is held twice until one copy
/// ages out, and lookups see the first. Either copy is a valid value, and
/// every insert stays one resident entry, so `len` = inserts - evictions.
pub struct StampLru<K, V> {
    /// Key hash -> the entries sharing it.
    map: HashMap<u64, Vec<LruEntry<K, V>>>,
    /// Last-use stamp -> key hash of its entry, oldest first: one element
    /// per entry, so its length is the entry count.
    order: BTreeMap<u64, u64>,
    /// The last stamp handed out.
    clock: u64,
    cap: usize,
}

struct LruEntry<K, V> {
    key: K,
    stamp: u64,
    value: V,
}

impl<K, V> StampLru<K, V> {
    /// An empty map holding at most `cap` entries (at least one).
    pub fn with_capacity(cap: usize) -> Self {
        StampLru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            cap: cap.max(1),
        }
    }

    /// Entries held now.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The value of the entry in bucket `hash` whose key passes `is_key`,
    /// marked most recently used.
    pub fn get(&mut self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<&mut V> {
        let entry = self
            .map
            .get_mut(&hash)?
            .iter_mut()
            .find(|e| is_key(&e.key))?;
        self.clock += 1;
        let old = std::mem::replace(&mut entry.stamp, self.clock);
        self.order.remove(&old);
        self.order.insert(self.clock, hash);
        Some(&mut entry.value)
    }

    /// Removes the entry in bucket `hash` whose key passes `is_key`.
    pub fn remove(&mut self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<V> {
        let bucket = self.map.get_mut(&hash)?;
        let i = bucket.iter().position(|e| is_key(&e.key))?;
        Some(self.remove_at(hash, i))
    }

    /// Inserts `key -> value` into bucket `hash` as the most recently used
    /// entry, first evicting the least-recently-used one when full.
    /// Returns whether an entry was evicted.
    pub fn insert(&mut self, hash: u64, key: K, value: V) -> bool {
        let evicted = self.order.len() >= self.cap && self.evict_oldest();
        self.clock += 1;
        let stamp = self.clock;
        self.map
            .entry(hash)
            .or_default()
            .push(LruEntry { key, stamp, value });
        self.order.insert(stamp, hash);
        evicted
    }

    /// Removes entry `i` of bucket `hash`.
    fn remove_at(&mut self, hash: u64, i: usize) -> V {
        let bucket = self.map.get_mut(&hash).expect("indexed bucket exists");
        let entry = bucket.remove(i);
        if bucket.is_empty() {
            self.map.remove(&hash);
        }
        self.order.remove(&entry.stamp);
        entry.value
    }

    /// Evicts the least-recently-used entry; false when empty.
    fn evict_oldest(&mut self) -> bool {
        let Some((&stamp, &hash)) = self.order.iter().next() else {
            return false;
        };
        let i = self.map[&hash]
            .iter()
            .position(|e| e.stamp == stamp)
            .expect("indexed entry exists");
        self.remove_at(hash, i);
        true
    }
}

/// A snapshot-versioned LRU of compiled plans: a [`StampLru`] bounded at
/// [`PLAN_CACHE_CAP`], keyed by mask or group list.
///
/// Every entry carries the `epoch` it was compiled under (the ensemble
/// plan revision; `0` for a single-model server). A lookup with a
/// different epoch drops the entry and reports a miss — `publish_checked`
/// index swaps can never serve a stale plan.
pub struct PlanCache {
    /// Key -> (epoch, plan).
    lru: Mutex<StampLru<PlanKey, (u64, Arc<CompiledPlan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// Creates a cache holding at most [`PLAN_CACHE_CAP`] plans.
    pub fn new() -> Self {
        Self::with_capacity(PLAN_CACHE_CAP)
    }

    /// Creates a cache holding at most `cap` plans.
    pub fn with_capacity(cap: usize) -> Self {
        PlanCache {
            lru: Mutex::new(StampLru::with_capacity(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The LRU, even if a panicking holder poisoned the lock: the
    /// guarded lookups and updates run no code that can panic between
    /// their steps, so the map is whole.
    fn lock_lru(&self) -> MutexGuard<'_, StampLru<PlanKey, (u64, Arc<CompiledPlan>)>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(hits, misses, evictions)` since the cache was created.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.lock_lru().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached plan for `mask` under `epoch`, compiling (outside the
    /// lock) and inserting on a miss or an epoch mismatch.
    pub fn get_or_compile_mask(
        &self,
        mask: &Mask,
        epoch: u64,
        compile: impl FnOnce() -> CompiledPlan,
    ) -> Arc<CompiledPlan> {
        self.get_or_compile(KeyRef::Mask(mask), epoch, compile)
    }

    /// Cached plan for a pre-decomposed group list under `epoch`,
    /// compiling (outside the lock) and inserting on a miss or an epoch
    /// mismatch.
    pub fn get_or_compile_groups(
        &self,
        groups: &[DecomposedGroup],
        epoch: u64,
        compile: impl FnOnce() -> CompiledPlan,
    ) -> Arc<CompiledPlan> {
        self.get_or_compile(KeyRef::Groups(groups), epoch, compile)
    }

    fn get_or_compile(
        &self,
        key: KeyRef<'_>,
        epoch: u64,
        compile: impl FnOnce() -> CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let hash = key.hash64();
        {
            let mut lru = self.lock_lru();
            let found = lru
                .get(hash, |k| key.matches(k))
                .map(|(e, plan)| (*e == epoch).then(|| plan.clone()));
            match found {
                Some(Some(plan)) => {
                    drop(lru);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return plan;
                }
                // stale epoch: the index was swapped; never serve it
                Some(None) => {
                    lru.remove(hash, |k| key.matches(k));
                }
                None => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(compile());
        let evicted = self
            .lock_lru()
            .insert(hash, key.to_owned(), (epoch, plan.clone()));
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }
}

/// Runs `f` with this thread's reusable gather scratch buffer, so
/// steady-state compiled execution allocates nothing (including inside
/// compute-pool tasks).
pub fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    fn builder_plan() -> CompiledPlan {
        let hier = hier4();
        let mut b = PlanBuilder::new(&hier);
        // multi group: one run of two terms
        b.push_term(LayerCell::new(1, 0, 0), 1, 0);
        b.push_term(LayerCell::new(0, 0, 2), -1, 0);
        b.end_run();
        b.end_group(true);
        // cells group: two runs of one term each
        b.push_term(LayerCell::new(0, 3, 3), 1, 0);
        b.end_run();
        b.push_term(LayerCell::new(2, 0, 0), -1, 0);
        b.end_run();
        b.end_group(false);
        b.finish()
    }

    fn frames4() -> FrameSet {
        // layer lens 16, 4, 1 — distinct values so offsets are provable
        let l0: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let l1: Vec<f32> = (0..4).map(|v| 100.0 + v as f32).collect();
        FrameSet::from_f32(vec![l0, l1, vec![1000.0]])
    }

    #[test]
    fn builder_packs_offsets_and_fold_structure() {
        let plan = builder_plan();
        // layer bases: 0, 16, 20
        assert_eq!(plan.offsets, vec![16, 2, 15, 20]);
        assert_eq!(plan.signs, vec![1.0, -1.0, 1.0, -1.0]);
        assert_eq!(plan.run_ends, vec![2, 3, 4]);
        assert_eq!(plan.groups, vec![(1, true), (3, false)]);
        assert_eq!(plan.num_terms(), 4);
        assert_eq!(plan.num_groups(), 2);
        assert_eq!(plan.member_terms(), &[4]);
    }

    #[test]
    fn execute_matches_hand_computation() {
        let plan = builder_plan();
        let fs = frames4();
        let mut scratch = Vec::new();
        let groups = plan.execute_groups(&[&fs], &mut scratch).unwrap();
        // multi: 0 + 100 - 2; cells: 0 + (0 + 15) + (0 - 1000)
        assert_eq!(groups, vec![98.0, -985.0]);
        let sum = plan.execute_sum(&[&fs], &mut scratch).unwrap();
        assert_eq!(sum, 98.0 - 985.0);
    }

    #[test]
    fn execute_refuses_mismatched_layouts() {
        let plan = builder_plan();
        let mut scratch = Vec::new();
        // wrong layer geometry → None, never an out-of-bounds gather
        let wrong = FrameSet::from_f32(vec![vec![0.0; 4]]);
        assert_eq!(plan.execute_sum(&[&wrong], &mut scratch), None);
        // no snapshots at all
        assert_eq!(plan.execute_sum(&[], &mut scratch), None);
        let empty = FrameSet::default();
        assert_eq!(plan.execute_sum(&[&empty], &mut scratch), None);
    }

    #[test]
    #[should_panic(expected = "exactly one run")]
    fn multi_group_with_two_runs_is_rejected() {
        let hier = hier4();
        let mut b = PlanBuilder::new(&hier);
        b.push_term(LayerCell::new(0, 0, 0), 1, 0);
        b.end_run();
        b.push_term(LayerCell::new(0, 0, 1), 1, 0);
        b.end_run();
        b.end_group(true);
    }

    #[test]
    fn plan_cache_hits_misses_and_epoch_invalidation() {
        let cache = PlanCache::with_capacity(4);
        let hier = hier4();
        let mask = Mask::rect(4, 4, 0, 0, 2, 2);
        let compile = || {
            let mut b = PlanBuilder::new(&hier);
            b.push_term(LayerCell::new(0, 0, 0), 1, 0);
            b.end_run();
            b.end_group(false);
            b.finish()
        };
        let p1 = cache.get_or_compile_mask(&mask, 0, compile);
        assert_eq!(cache.stats(), (0, 1, 0));
        let p2 = cache.get_or_compile_mask(&mask, 0, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats(), (1, 1, 0));
        // an epoch bump (index swap) must recompile, never serve stale
        let p3 = cache.get_or_compile_mask(&mask, 1, compile);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.stats(), (1, 2, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_groups_key_is_distinct_from_mask_key() {
        let cache = PlanCache::with_capacity(4);
        let hier = hier4();
        let compile = || {
            let mut b = PlanBuilder::new(&hier);
            b.push_term(LayerCell::new(0, 1, 1), -1, 0);
            b.end_run();
            b.end_group(false);
            b.finish()
        };
        let groups = vec![DecomposedGroup {
            layer: 0,
            cells: vec![(1, 1)],
        }];
        let g1 = cache.get_or_compile_groups(&groups, 0, compile);
        let g2 = cache.get_or_compile_groups(&groups, 0, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(cache.stats(), (1, 1, 0));
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        let hier = hier4();
        let compile = || {
            let mut b = PlanBuilder::new(&hier);
            b.push_term(LayerCell::new(0, 0, 0), 1, 0);
            b.end_run();
            b.end_group(false);
            b.finish()
        };
        let masks: Vec<Mask> = (0..3).map(|i| Mask::rect(4, 4, 0, i, 1, i + 1)).collect();
        let _ = cache.get_or_compile_mask(&masks[0], 0, compile);
        let _ = cache.get_or_compile_mask(&masks[1], 0, compile);
        // touch mask 0 so mask 1 is the LRU victim
        let _ = cache.get_or_compile_mask(&masks[0], 0, || unreachable!());
        let _ = cache.get_or_compile_mask(&masks[2], 0, compile);
        assert_eq!(cache.len(), 2);
        let (h, m, e) = cache.stats();
        assert_eq!((h, m, e), (1, 3, 1));
        // mask 0 must still be resident
        let _ = cache.get_or_compile_mask(&masks[0], 0, || unreachable!());
    }

    /// The stamp-indexed LRU against a scan-based model of the same
    /// policy: identical hit/miss/eviction counts and resident keys over
    /// a random stream of lookups, epoch bumps included.
    #[test]
    fn plan_cache_matches_a_scanning_lru_model() {
        let hier = hier4();
        let compile = || {
            let mut b = PlanBuilder::new(&hier);
            b.push_term(LayerCell::new(0, 0, 0), 1, 0);
            b.end_run();
            b.end_group(false);
            b.finish()
        };
        let masks: Vec<Mask> = (0..16)
            .map(|i| Mask::rect(4, 4, i / 4, i % 4, i / 4 + 1, i % 4 + 1))
            .collect();
        let cache = PlanCache::with_capacity(5);
        // model: (mask index, epoch, stamp) per entry
        let mut model: Vec<(usize, u64, u64)> = Vec::new();
        let (mut clock, mut want) = (0u64, (0u64, 0u64, 0u64));
        let mut rng = o4a_tensor::SeededRng::new(7);
        for _ in 0..2000 {
            let m = rng.index(masks.len());
            let epoch = (rng.index(50) == 0) as u64;
            clock += 1;
            match model.iter().position(|e| e.0 == m) {
                Some(i) if model[i].1 == epoch => {
                    model[i].2 = clock;
                    want.0 += 1;
                }
                found => {
                    if let Some(i) = found {
                        model.remove(i);
                    }
                    want.1 += 1;
                    if model.len() >= 5 {
                        let oldest = (0..model.len()).min_by_key(|&i| model[i].2).unwrap();
                        model.remove(oldest);
                        want.2 += 1;
                    }
                    model.push((m, epoch, clock));
                }
            }
            let _ = cache.get_or_compile_mask(&masks[m], epoch, compile);
            assert_eq!(cache.stats(), want);
            assert_eq!(cache.len(), model.len());
        }
        // the resident set matches: every modelled entry still hits
        for &(m, epoch, _) in &model.clone() {
            let _ = cache.get_or_compile_mask(&masks[m], epoch, || unreachable!("resident"));
        }
    }

    #[test]
    fn scratch_is_reused_per_thread() {
        let cap = with_scratch(|s| {
            s.resize(64, 0.0);
            s.capacity()
        });
        let cap2 = with_scratch(|s| s.capacity());
        assert!(cap2 >= 64 && cap2 >= cap.min(64));
    }
}
