//! Scatter-gather shard routing for the query tier.
//!
//! [`ShardRouter`] partitions the grid hierarchy's decomposed-group
//! space across K backend shards by consistent hashing and serves behind
//! the same [`QueryBackend`] trait as an unsharded backend, so `serve`
//! cannot tell the difference.
//!
//! **Why scatter-gather is exact.** Decomposition (Algorithm 1) writes a
//! region as a disjoint union of groups, and the unsharded answer is the
//! *sum of the groups' values in decomposition order* — each group's
//! value (its multi-grid entry or its member cells' optimal
//! combinations, including any coarse-minus-correction terms inside a
//! combination) is computed entirely from that group. Nothing crosses
//! group boundaries, so evaluating each group on whichever shard owns it
//! and folding the partial values back **in the original decomposition
//! order** performs bit-for-bit the same f32 additions as the unsharded
//! path. The router therefore asserts nothing weaker than equality: K=1
//! and K>1 produce identical bits (`tests/shard_props.rs`).
//!
//! Ownership is a consistent-hash ring over each group's *anchor cell*
//! (its layer plus first — row-major smallest — cell): 128 virtual nodes
//! per shard, FNV-1a 64 points, successor lookup. Anchoring on a cell
//! rather than the whole group keeps assignment stable when neighboring
//! masks decompose into overlapping group sets.
//!
//! **Plan-first.** Routing depends only on the mask, so the router caches
//! it per mask: a repeated region skips Algorithm 1 and the ring, and
//! each shard is called once with the mask's slice, which it answers from
//! one cached plan (the slice repeats exactly when the mask does).

use o4a_core::compiled::{StampLru, PLAN_CACHE_CAP};
use o4a_core::server::{QueryBackend, QueryTiming};
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the hash ring. 32 left arc lengths lumpy
/// enough that K=2 deployments measured a ~4x per-shard load skew; 128
/// points per shard (with the finalizer below) keeps the max/min routed
/// ratio under 2x on uniform workloads (`shard_load_balance_is_bounded`).
const VNODES: usize = 128;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer. FNV-1a alone avalanches poorly on the short,
/// mostly-zero little-endian keys the router hashes (grid coordinates are
/// tiny integers), clustering ring points and anchor hashes; this mixes
/// every input bit into every output bit.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The sorted consistent-hash ring for `n_shards` shards.
fn ring_points(n_shards: usize) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(n_shards * VNODES);
    for shard in 0..n_shards {
        for v in 0..VNODES {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(shard as u64).to_le_bytes());
            key[8..].copy_from_slice(&(v as u64).to_le_bytes());
            ring.push((mix64(fnv1a64(&key)), shard));
        }
    }
    ring.sort_unstable();
    ring
}

/// Hash point of a group's anchor cell.
fn anchor_hash(layer: usize, r: usize, c: usize) -> u64 {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&(layer as u64).to_le_bytes());
    key[8..16].copy_from_slice(&(r as u64).to_le_bytes());
    key[16..].copy_from_slice(&(c as u64).to_le_bytes());
    mix64(fnv1a64(&key))
}

/// How one mask's decomposition scatters: each shard's slice of the
/// groups, and the owning shard of each group in decomposition order.
/// Folding the shards' per-group values back through `owners` replays
/// the unsharded addition order exactly.
struct Routing {
    /// Per shard, its groups in decomposition order.
    slices: Vec<Vec<DecomposedGroup>>,
    /// Owning shard of each group, in decomposition order.
    owners: Vec<u8>,
}

impl Routing {
    /// Splits `groups` across the `k` shards of `ring`.
    fn new(ring: &[(u64, usize)], k: usize, groups: Vec<DecomposedGroup>) -> Routing {
        let mut slices = vec![Vec::new(); k];
        let owners = groups
            .into_iter()
            .map(|g| {
                let s = owner(ring, &g);
                slices[s].push(g);
                s as u8
            })
            .collect();
        Routing { slices, owners }
    }
}

/// Which shard of `ring` owns a decomposed group: successor of the anchor
/// cell's hash point.
fn owner(ring: &[(u64, usize)], group: &DecomposedGroup) -> usize {
    let (r, c) = group.cells.first().copied().unwrap_or((0, 0));
    let h = anchor_hash(group.layer, r, c);
    let idx = ring.partition_point(|&(p, _)| p < h);
    ring[idx % ring.len()].1
}

/// The router's one mask-keyed cache: mask -> [`Routing`], bounded by the
/// plan cache's [`StampLru`]. A repeated region skips Algorithm 1 and the
/// ring searches, and its per-shard slices are the very group lists the
/// shards key their plans by. Its counters and size reach the serving
/// layer's STATS and METRICS through [`QueryBackend::decomp_cache_stats`]
/// and [`QueryBackend::decomp_cache_entries`].
struct RouteCache {
    lru: Mutex<StampLru<Mask, Arc<Routing>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RouteCache {
    /// Creates an empty cache holding at most `cap` routings.
    fn with_capacity(cap: usize) -> Self {
        RouteCache {
            lru: Mutex::new(StampLru::with_capacity(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StampLru<Mask, Arc<Routing>>> {
        self.lru.lock().expect("routing cache poisoned")
    }

    /// `(hits, misses)` since the cache was created.
    fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Returns the cached routing of `mask`, computing it with `route`
    /// (outside the lock) and inserting it on a miss.
    fn get(&self, mask: &Mask, route: impl FnOnce() -> Routing) -> Arc<Routing> {
        let mut h = DefaultHasher::new();
        mask.hash(&mut h);
        let hash = h.finish();
        if let Some(routing) = self.lock().get(hash, |m| m == mask).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return routing;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let routing = Arc::new(route());
        self.lock().insert(hash, mask.clone(), routing.clone());
        routing
    }
}

/// Routes decomposed groups across K [`QueryBackend`] shards and merges
/// the partial aggregates bit-identically to an unsharded backend.
pub struct ShardRouter {
    shards: Vec<Arc<dyn QueryBackend>>,
    /// Sorted (hash point, shard) ring.
    ring: Vec<(u64, usize)>,
    /// Mask -> routing; the STATS memo counters come from here.
    routes: RouteCache,
    /// Groups routed to each shard since start.
    loads: Vec<AtomicU64>,
}

impl ShardRouter {
    /// Builds a router over `shards` (all must serve identical hierarchy
    /// geometry).
    ///
    /// # Panics
    /// Panics if `shards` is empty or holds more than 256 backends, or the
    /// hierarchies disagree on dimensions.
    pub fn new(shards: Vec<Arc<dyn QueryBackend>>) -> ShardRouter {
        assert!(!shards.is_empty(), "router needs at least one shard");
        assert!(shards.len() <= 256, "a routing owner is one byte per group");
        let h0 = shards[0].hierarchy();
        let dims = (h0.h(), h0.w(), h0.num_layers(), h0.k());
        for s in &shards[1..] {
            let h = s.hierarchy();
            assert_eq!(
                (h.h(), h.w(), h.num_layers(), h.k()),
                dims,
                "every shard must serve the same hierarchy geometry"
            );
        }
        let ring = ring_points(shards.len());
        let loads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        ShardRouter {
            shards,
            ring,
            routes: RouteCache::with_capacity(PLAN_CACHE_CAP),
            loads,
        }
    }

    /// Number of shards behind the router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns a decomposed group: successor of the anchor
    /// cell's hash point on the ring.
    pub fn shard_for(&self, group: &DecomposedGroup) -> usize {
        owner(&self.ring, group)
    }

    /// Scatter-gather over `routes`: each shard is called once per
    /// non-empty slice, shard by shard, and every group's value comes
    /// back in decomposition order, routing after routing. The returned
    /// duration is the exact sum of the shards' `index` timings.
    fn scatter_gather<R: Borrow<Routing>>(&self, routes: &[R]) -> (Vec<f32>, Duration) {
        // per-shard scatter and gather spans ride on whatever trace the
        // executor set as current on this thread (0 = untraced)
        let tid = trace::current();
        let mut values: Vec<Vec<f32>> = Vec::with_capacity(self.shards.len());
        let mut index_total = Duration::ZERO;
        for (s, shard) in self.shards.iter().enumerate() {
            let t0_ns = if tid != 0 { trace::now_ns() } else { 0 };
            let mut vals: Vec<f32> = Vec::new();
            for route in routes {
                let slice = &route.borrow().slices[s];
                if slice.is_empty() {
                    continue;
                }
                let (v, t) = shard.query_groups_timed(slice);
                debug_assert_eq!(v.len(), slice.len());
                index_total += t.index;
                if vals.is_empty() {
                    vals = v;
                } else {
                    vals.extend_from_slice(&v);
                }
            }
            if !vals.is_empty() {
                self.loads[s].fetch_add(vals.len() as u64, Ordering::Relaxed);
                if tid != 0 {
                    trace::emit(&SpanEvent {
                        trace_id: tid,
                        span: SpanKind::ShardScatter as u16,
                        parent: SpanKind::ExecBatch as u16,
                        lane: s as u32,
                        t_start_ns: t0_ns,
                        t_end_ns: trace::now_ns(),
                        bytes: vals.len() as u64,
                    });
                }
            }
            values.push(vals);
        }
        let t_gather_ns = if tid != 0 { trace::now_ns() } else { 0 };
        // draw each routing's values from the shards' outputs through
        // per-shard cursors, following its owner bytes
        let mut cursors = vec![0usize; self.shards.len()];
        let gathered: Vec<f32> = routes
            .iter()
            .flat_map(|route| route.borrow().owners.iter())
            .map(|&s| {
                let s = s as usize;
                cursors[s] += 1;
                values[s][cursors[s] - 1]
            })
            .collect();
        if tid != 0 {
            trace::emit(&SpanEvent {
                trace_id: tid,
                span: SpanKind::Gather as u16,
                parent: SpanKind::ExecBatch as u16,
                lane: 0,
                t_start_ns: t_gather_ns,
                t_end_ns: trace::now_ns(),
                bytes: gathered.len() as u64,
            });
        }
        (gathered, index_total)
    }
}

impl QueryBackend for ShardRouter {
    fn hierarchy(&self) -> &Hierarchy {
        self.shards[0].hierarchy()
    }

    fn is_ready(&self) -> bool {
        self.shards.iter().all(|s| s.is_ready())
    }

    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        let hier = self.shards[0].hierarchy();
        let k = self.shards.len();
        let t0 = Instant::now();
        let routes: Vec<Arc<Routing>> = masks
            .iter()
            .map(|m| {
                self.routes
                    .get(m, || Routing::new(&self.ring, k, decompose(hier, m)))
            })
            .collect();
        let decompose_t = t0.elapsed();
        let (values, index_t) = self.scatter_gather(&routes);
        // fold each mask's per-group values in decomposition order — the
        // exact f32 additions the unsharded path performs
        let mut rest = &values[..];
        let out = routes
            .iter()
            .map(|route| {
                let (mine, tail) = rest.split_at(route.owners.len());
                rest = tail;
                mine.iter().sum()
            })
            .collect();
        (
            out,
            QueryTiming {
                decompose: decompose_t,
                index: index_t,
            },
        )
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        let routing = Routing::new(&self.ring, self.shards.len(), groups.to_vec());
        let (values, index_t) = self.scatter_gather(&[routing]);
        (
            values,
            QueryTiming {
                decompose: Duration::ZERO,
                index: index_t,
            },
        )
    }

    fn decomp_cache_stats(&self) -> (u64, u64) {
        self.routes.stats()
    }

    fn decomp_cache_entries(&self) -> u64 {
        self.routes.lock().len() as u64
    }

    fn plan_revision(&self) -> u64 {
        self.shards[0].plan_revision()
    }

    fn shard_loads(&self) -> Vec<u64> {
        self.loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }

    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        // the router holds no plan cache of its own; each shard compiles
        // one plan per mask slice — report their totals
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            let (h, m, e) = s.plan_cache_stats();
            (acc.0 + h, acc.1 + m, acc.2 + e)
        })
    }

    fn plan_cache_entries(&self) -> u64 {
        self.shards.iter().map(|s| s.plan_cache_entries()).sum()
    }

    fn compiled_terms(&self) -> u64 {
        self.shards.iter().map(|s| s.compiled_terms()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of a uniform spread of anchor cells each shard owns.
    fn owner_counts(k: usize) -> Vec<u64> {
        let ring = ring_points(k);
        let mut owners = vec![0u64; k];
        for layer in 0..3usize {
            for r in 0..32usize {
                for c in 0..32usize {
                    let h = anchor_hash(layer, r, c);
                    let idx = ring.partition_point(|&(p, _)| p < h);
                    owners[ring[idx % ring.len()].1] += 1;
                }
            }
        }
        owners
    }

    #[test]
    fn decomp_cache_counts_and_evicts_at_capacity() {
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let ring = ring_points(2);
        let memo = RouteCache::with_capacity(4);
        let route = |m: &Mask| memo.get(m, || Routing::new(&ring, 2, decompose(&hier, m)));
        // 16 distinct masks, 3 rounds over a 4-entry cache: every lookup
        // misses (LRU over a cyclic scan), and the map stays bounded
        for _round in 0..3 {
            for r in 0..4 {
                for c in 0..4 {
                    let m = Mask::rect(4, 4, r, c, r + 1, c + 1);
                    let routing = route(&m);
                    // the slices, read back through the owners, are the
                    // decomposition in order
                    let mut next = [0usize; 2];
                    let replay: Vec<DecomposedGroup> = routing
                        .owners
                        .iter()
                        .map(|&s| {
                            let s = s as usize;
                            next[s] += 1;
                            routing.slices[s][next[s] - 1].clone()
                        })
                        .collect();
                    assert_eq!(replay, decompose(&hier, &m));
                }
            }
        }
        assert_eq!(memo.stats(), (0, 48));
        assert_eq!(memo.lock().len(), 4);
        // the most recent masks are resident and hit
        let last = Mask::rect(4, 4, 3, 3, 4, 4);
        let _ = memo.get(&last, || unreachable!("resident"));
        assert_eq!(memo.stats(), (1, 48));
    }

    #[test]
    fn ring_covers_every_shard() {
        // ownership must touch all shards for a spread of anchors
        for k in 1..=4usize {
            let owners = owner_counts(k);
            assert!(
                owners.iter().all(|&n| n > 0),
                "K={k}: some shard owns nothing: {owners:?}"
            );
        }
    }

    #[test]
    fn shard_load_balance_is_bounded() {
        // the fix for the measured ~4x K=2 skew at 32 vnodes: with 128
        // mixed points per shard, a uniform anchor spread must land
        // within 2x between the busiest and idlest shard
        for k in 2..=4usize {
            let owners = owner_counts(k);
            let max = *owners.iter().max().unwrap();
            let min = *owners.iter().min().unwrap();
            assert!(
                max <= 2 * min,
                "K={k}: shard skew {max}/{min} exceeds the 2x bound: {owners:?}"
            );
        }
    }
}
