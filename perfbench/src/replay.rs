//! The traced pass: spans around calls into each module's public
//! functions, kept in memory and written out when the run ends.
//!
//! One root span covers each client request of the traced networked
//! pass. Beneath it, the same request is replayed in process through the
//! public layer chain:
//!
//! * region workloads: `encode_request` → `parse_request_bytes` →
//!   `decompose` → plan-cache lookup (or `compile_groups` on a miss) →
//!   compiled execute → `encode_response` → `decode_response`;
//! * the ensemble workload: `encode_request` → `parse_request_bytes` →
//!   `decompose` → the router's scatter/gather over the decomposed
//!   groups → `encode_response` → `decode_response`.
//!
//! Every replayed answer is checked against the oracle bits too. The
//! replay runs after the networked pass, so a replay span's interval
//! does not sit inside its parent's: a span's self time is its duration
//! minus its children's durations (the children of one span never
//! overlap). The client root's self time is then exactly the part of a
//! request the in-process chain does not account for.

use crate::gen::Req;
use crate::load::{Phase, Status};
use crate::setup::{BackendKind, Served, SHARDS};
use crate::stats::{median, ratio, Sorted};
use o4a_core::compiled::{compile_groups, with_scratch, CompiledPlan, PlanCache};
use o4a_core::frames::FrameSet;
use o4a_core::server::{QueryBackend, RegionServer};
use o4a_ensemble::server::compile_egroups;
use o4a_ensemble::EnsembleServer;
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::Mask;
use o4a_serve::wire::{
    encode_request, encode_response, parse_request_bytes, parse_response_bytes, Request, Response,
    TimingNs,
};
use o4a_serve::ShardRouter;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Most requests of the traced pass replayed in process (the client
/// roots cover every request; the replay covers a prefix).
const REPLAY_MAX_MASKS: usize = 6000;

/// One recorded span. `parent` is 0 for a root; ids start at 1.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans in memory, timed against one base instant.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(t0: Instant) -> Recorder {
        Recorder {
            t0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is set by [`Recorder::close`].
    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.push(name, parent, now, now)
    }

    fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Runs `f` inside a span.
    fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Durations of every span called `name`.
    fn durations(&self, name: &str) -> Sorted {
        Sorted::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .collect(),
        )
    }
}

/// Which module a span's calls belong to, for the self-time table.
fn layer_of(name: &str) -> &'static str {
    match name {
        "client.request" => "unattributed (network, event loop, queue)",
        "replay.request" | "replay.unsharded" | "replay.encode" => "perfbench glue",
        n if n.starts_with("serve.wire") => "serve.wire",
        n if n.starts_with("serve.router") => "serve.router",
        n if n.starts_with("stgrid") => "stgrid",
        n if n.starts_with("ensemble") => "ensemble",
        n if n.starts_with("core") => "core",
        _ => "other",
    }
}

/// What the traced pass measured: named per-layer values and the
/// self-time table.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub table: String,
    pub wrong: u64,
}

/// The answering side the replay drives in process.
enum Engine<'a> {
    Region {
        index: &'a o4a_core::combination::CombinationIndex,
        frames: Arc<FrameSet>,
    },
    Ensemble {
        plan: &'a o4a_ensemble::EnsemblePlan,
        snaps: Vec<Arc<FrameSet>>,
    },
}

impl Engine<'_> {
    fn compile(&self, groups: &[DecomposedGroup]) -> CompiledPlan {
        match self {
            Engine::Region { index, .. } => compile_groups(index, groups),
            Engine::Ensemble { plan, .. } => compile_egroups(plan, groups),
        }
    }

    fn execute(&self, plan: &CompiledPlan) -> f32 {
        let out = match self {
            Engine::Region { frames, .. } => with_scratch(|s| plan.execute_sum(&[&**frames], s)),
            Engine::Ensemble { snaps, .. } => {
                let refs: Vec<&FrameSet> = snaps.iter().map(|s| &**s).collect();
                with_scratch(|s| plan.execute_sum(&refs, s))
            }
        };
        out.expect("compiled plan matches the published layout")
    }
}

fn masks_of(req: Request) -> Vec<Mask> {
    match req {
        Request::Query(m) => vec![m],
        Request::Batch(ms) => ms,
        _ => unreachable!("the benchmark sends only QUERY and BATCH"),
    }
}

/// The core chain on one mask: plan-cache lookup, `compile_*` inside the
/// miss closure, compiled execute. Returns the answer and the plan's
/// term count.
fn core_chain(
    rec: &mut Recorder,
    parent: u32,
    engine: &Engine<'_>,
    cache: &PlanCache,
    mask: &Mask,
    groups: &[DecomposedGroup],
) -> (f32, usize) {
    let lookup = rec.open("core.plan_cache.lookup", parent);
    let mut compiled: Option<(u64, u64)> = None;
    let plan = cache.get_or_compile_mask(mask, 0, || {
        let t = rec.now();
        let p = engine.compile(groups);
        compiled = Some((t, rec.now()));
        p
    });
    rec.close(lookup);
    if let Some((s, e)) = compiled {
        rec.spans[lookup as usize - 1].name = "core.plan_cache.miss";
        rec.push("core.compile", lookup, s, e);
    }
    let v = rec.time("core.execute", parent, || engine.execute(&plan));
    (v, plan.num_terms())
}

/// Runs the traced pass's replay and gathers the per-layer values.
///
/// `traced` is the networked pass with client roots (and `reqs` its
/// requests); `untraced_p50` is the windowed p50 of the untraced passes
/// at the same rate.
pub fn traced(
    served: &Served,
    traced: &Phase,
    reqs: &[Req],
    untraced_p50: f64,
    warm: &[Req],
    out: &Path,
) -> Traced {
    let mut rec = Recorder::new(traced.start);
    // client roots: due → answered, one per request of the traced pass
    let roots: Vec<u32> = (0..reqs.len())
        .map(|i| {
            rec.push(
                "client.request",
                0,
                traced.due[i],
                traced.done[i].max(traced.due[i]),
            )
        })
        .collect();

    let mut n_replay = 0;
    let mut masks_seen = 0;
    while n_replay < reqs.len() && masks_seen < REPLAY_MAX_MASKS {
        masks_seen += reqs[n_replay].keys.len();
        n_replay += 1;
    }
    let replayed = &reqs[..n_replay];
    let decode = |r: &Req| parse_request_bytes(&r.frame).expect("benchmark frames parse");

    // the in-process engines, warmed on the same requests the served
    // backend was warmed on
    let hier = served.backend.hierarchy().clone();
    let (engine, router, unsharded_ens, region_server): (
        Engine<'_>,
        ShardRouter,
        Option<EnsembleServer>,
        Option<RegionServer>,
    ) = match &served.kind {
        BackendKind::Region { index, store, .. } => {
            let replicas: Vec<Arc<dyn QueryBackend>> = (0..SHARDS)
                .map(|_| {
                    Arc::new(RegionServer::new(index.clone(), Arc::clone(store)))
                        as Arc<dyn QueryBackend>
                })
                .collect();
            (
                Engine::Region {
                    index,
                    frames: store.snapshot(),
                },
                ShardRouter::new(replicas),
                None,
                Some(RegionServer::new(index.clone(), Arc::clone(store))),
            )
        }
        BackendKind::Ensemble { plan, stores } => {
            let replicas: Vec<Arc<dyn QueryBackend>> = (0..SHARDS)
                .map(|_| {
                    Arc::new(EnsembleServer::new(plan.clone(), stores.clone()))
                        as Arc<dyn QueryBackend>
                })
                .collect();
            (
                Engine::Ensemble {
                    plan,
                    snaps: stores.iter().map(|s| s.snapshot()).collect(),
                },
                ShardRouter::new(replicas),
                Some(EnsembleServer::new(plan.clone(), stores.clone())),
                None,
            )
        }
    };
    // the warm-up compiles every plan the replay will hit: its compile
    // spans (roots of their own) time `compile_*` on every workload
    let cache = PlanCache::new();
    for r in warm {
        let masks = masks_of(decode(r));
        for m in &masks {
            let groups = decompose(&hier, m);
            let mut compiled = None;
            cache.get_or_compile_mask(m, 0, || {
                let t = rec.now();
                let p = engine.compile(&groups);
                compiled = Some((t, rec.now()));
                p
            });
            if let Some((s, e)) = compiled {
                rec.push("core.compile", 0, s, e);
            }
        }
        router.query_many_timed(&masks);
        if let Some(e) = &unsharded_ens {
            e.query_many(&masks);
        }
        if let Some(s) = &region_server {
            s.query_many(&masks);
        }
    }
    let router_stats_base = router.plan_cache_stats();
    let loads_base = router.shard_loads();

    let mut wrong = 0u64;
    let (mut groups_total, mut masks_total, mut terms_total) = (0usize, 0usize, 0usize);
    let ensemble = matches!(served.kind, BackendKind::Ensemble { .. });
    for (i, r) in replayed.iter().enumerate() {
        // the client encodes every frame before its pass starts, so the
        // encode is timed beside the served chain, not beneath the root
        let request = decode(r);
        let enc = rec.open("replay.encode", 0);
        let req = rec.time("serve.wire.encode_request", enc, || {
            encode_request(&request)
        });
        rec.close(enc);

        let root = rec.open("replay.request", roots[i]);
        let masks = masks_of(rec.time("serve.wire.parse_request_bytes", root, || {
            parse_request_bytes(&req).expect("frame parses")
        }));
        let mut decomposed: Vec<Vec<DecomposedGroup>> = Vec::new();
        let values: Vec<f32> = if ensemble {
            rec.time("serve.router.query_many", root, || {
                router.query_many_timed(&masks)
            })
            .0
        } else {
            decomposed = masks
                .iter()
                .map(|m| rec.time("stgrid.decompose", root, || decompose(&hier, m)))
                .collect();
            masks
                .iter()
                .zip(&decomposed)
                .map(|(m, g)| {
                    let (v, terms) = core_chain(&mut rec, root, &engine, &cache, m, g);
                    terms_total += terms;
                    v
                })
                .collect()
        };
        wrong += u64::from(values.iter().map(|v| v.to_bits()).collect::<Vec<_>>() != r.expect);
        let resp = rec.time("serve.wire.encode_response", root, || {
            let timing = TimingNs::default();
            encode_response(&if ensemble {
                Response::BatchResult { values, timing }
            } else {
                Response::Prediction {
                    value: values[0],
                    timing,
                }
            })
        });
        rec.time("serve.wire.decode_response", root, || {
            black_box(parse_response_bytes(&resp).expect("response parses"))
        });
        rec.close(root);

        // beside the served chain: the other engines on the same masks
        let side = rec.open("replay.unsharded", 0);
        if let Some(e) = &unsharded_ens {
            rec.time("ensemble.query_many", side, || {
                black_box(e.query_many_timed(&masks))
            });
            for m in &masks {
                let g = rec.time("stgrid.decompose", side, || decompose(&hier, m));
                let (_, terms) = core_chain(&mut rec, side, &engine, &cache, m, &g);
                terms_total += terms;
                rec.time("core.query", side, || black_box(e.query(m)));
                decomposed.push(g);
            }
        } else {
            rec.time("serve.router.query_many", side, || {
                black_box(router.query_many_timed(&masks))
            });
            if let Some(s) = &region_server {
                rec.time("core.query", side, || black_box(s.query(&masks[0])));
            }
        }
        rec.close(side);
        groups_total += decomposed.iter().map(Vec::len).sum::<usize>();
        masks_total += masks.len();
    }

    // per-layer values
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let p50 = |s: &Sorted| s.pct(0.5) as f64;
    let p99 = |s: &Sorted| s.pct(0.99) as f64;
    m.push((
        "serve.wire.parse_request_ns",
        p50(&rec.durations("serve.wire.parse_request_bytes")),
        "ns",
    ));
    m.push((
        "serve.wire.encode_request_ns",
        p50(&rec.durations("serve.wire.encode_request")),
        "ns",
    ));
    m.push((
        "serve.wire.decode_response_ns",
        p50(&rec.durations("serve.wire.decode_response")),
        "ns",
    ));
    let bytes: usize = replayed.iter().map(|r| r.frame.len()).sum();
    m.push((
        "serve.wire.request_bytes",
        ratio(bytes as f64, n_replay as f64),
        "B",
    ));

    let client: Vec<u64> = (0..n_replay)
        .filter(|&i| traced.status[i] == Status::Ok)
        .map(|i| traced.done[i] - traced.due[i])
        .collect();
    let replay_p50 = p50(&rec.durations("replay.request"));
    m.push((
        "serve.unattributed_us",
        (p50(&Sorted::new(client)) - replay_p50) / 1e3,
        "us",
    ));

    let dec = rec.durations("stgrid.decompose");
    m.push(("stgrid.decompose_ns_p50", p50(&dec), "ns"));
    m.push(("stgrid.decompose_ns_p99", p99(&dec), "ns"));
    let groups_per_mask = ratio(groups_total as f64, masks_total as f64);
    m.push(("stgrid.groups_per_mask", groups_per_mask, "count"));

    m.push((
        "core.plan_cache.lookup_ns",
        p50(&rec.durations("core.plan_cache.lookup")),
        "ns",
    ));
    m.push(("core.compile_ns", p50(&rec.durations("core.compile")), "ns"));
    m.push(("core.execute_ns", p50(&rec.durations("core.execute")), "ns"));
    let terms_per_mask = ratio(terms_total as f64, masks_total as f64);
    m.push(("core.terms_per_mask", terms_per_mask, "count"));
    m.push((
        "core.gather_bytes_per_mask",
        terms_per_mask * std::mem::size_of::<f32>() as f64,
        "B",
    ));
    let q = rec.durations("core.query");
    m.push(("core.query_ns_p50", p50(&q), "ns"));
    m.push(("core.query_ns_p99", p99(&q), "ns"));

    let rq = rec.durations("serve.router.query_many");
    m.push(("serve.router.query_ns_p50", p50(&rq), "ns"));
    m.push(("serve.router.query_ns_p99", p99(&rq), "ns"));
    m.push(("serve.router.groups_per_mask", groups_per_mask, "count"));
    if !ensemble {
        // the served backend is unsharded: these come from the
        // in-process K=2 router over replicas of it
        let loads: Vec<u64> = router
            .shard_loads()
            .iter()
            .zip(&loads_base)
            .map(|(a, b)| a - b)
            .collect();
        m.push(("serve.router.balance_ratio", balance(&loads), "ratio"));
        let (h, ms, _) = router.plan_cache_stats();
        let (h0, m0, _) = router_stats_base;
        m.push((
            "serve.router.plan_cache.hit_rate",
            ratio((h - h0) as f64, (h - h0 + ms - m0) as f64),
            "ratio",
        ));
    }
    m.push((
        "ensemble.query_ns_p50",
        p50(&rec.durations("ensemble.query_many")),
        "ns",
    ));
    m.push((
        "ensemble.terms_per_mask",
        if ensemble { terms_per_mask } else { 0.0 },
        "count",
    ));

    let traced_p50 = median(traced.per_window(0.5, crate::P50_WINDOW));
    let overhead = ratio(traced_p50 - untraced_p50, untraced_p50);
    m.push(("obs.trace_overhead_frac", overhead, "ratio"));

    let table = self_time_table(&rec, reqs.len(), n_replay);
    write_spans(&rec, out);
    Traced {
        metrics: m,
        table,
        wrong,
    }
}

/// max/min of per-shard loads (0 when a shard got nothing).
pub fn balance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let min = loads.iter().copied().min().unwrap_or(0) as f64;
    ratio(max, min)
}

/// Self time per layer: each span's duration minus its children's. The
/// first table covers the client roots and the served chain replayed
/// beneath them; the second, the unsharded calls timed beside it.
fn self_time_table(rec: &Recorder, requests: usize, replayed: usize) -> String {
    let mut child_ns = vec![0u64; rec.spans.len() + 1];
    // parents are always recorded before their children
    let mut root = vec![0u32; rec.spans.len() + 1];
    for s in &rec.spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        root[s.id as usize] = if s.parent == 0 {
            s.id
        } else {
            root[s.parent as usize]
        };
    }
    // only the client roots with a replay beneath them are attributed
    let mut replayed_root = vec![false; rec.spans.len() + 1];
    for s in rec.spans.iter().filter(|s| s.name == "replay.request") {
        replayed_root[s.parent as usize] = true;
    }
    let mut served: BTreeMap<&'static str, (u64, i128)> = BTreeMap::new();
    let mut beside: BTreeMap<&'static str, (u64, i128)> = BTreeMap::new();
    for s in &rec.spans {
        let own = (s.end_ns - s.start_ns) as i128 - child_ns[s.id as usize] as i128;
        let r = root[s.id as usize];
        let table = if rec.spans[r as usize - 1].name != "client.request" {
            &mut beside
        } else if replayed_root[r as usize] {
            &mut served
        } else {
            continue;
        };
        let e = table.entry(layer_of(s.name)).or_default();
        e.0 += 1;
        e.1 += own;
    }
    let mut t =
        format!("self time per layer: {requests} client roots, {replayed} replayed beneath them\n");
    for (title, table) in [
        ("served chain", &served),
        ("beside it, unsharded and warm-up", &beside),
    ] {
        let total: i128 = table.values().map(|v| v.1.max(0)).sum();
        t += &format!(
            "  {title:<44} {:>8} {:>12} {:>7}\n",
            "spans", "self ms", "share"
        );
        for (layer, (n, ns)) in table {
            t += &format!(
                "    {layer:<42} {n:>8} {:>12.3} {:>6.1}%\n",
                *ns as f64 / 1e6,
                100.0 * ratio(*ns as f64, total as f64)
            );
        }
    }
    t
}

/// Writes every span as one JSON array.
fn write_spans(rec: &Recorder, path: &Path) {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create the span file"));
    let _ = writeln!(f, "[");
    for (i, s) in rec.spans.iter().enumerate() {
        let _ = writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < rec.spans.len() { "," } else { "" }
        );
    }
    let _ = writeln!(f, "]");
}
