//! `o4a-perfbench` — the paper-scale serving benchmark.
//!
//! Builds a backend, serves it on the real epoll data plane in this
//! process, and drives it over loopback with an open-loop client (one
//! connection, a sender and a receiver thread) sending traffic made from
//! the run seed. Every answer
//! is checked bit for bit against an in-process oracle computed before
//! timing. With `--trace 1` a second pass adds spans and an in-process
//! replay of the same masks through the public layer chain.
//!
//! Usage:
//!   o4a-perfbench --workload paper128|paper128-cold|ens128-k2-batch \
//!     --seed N --seconds S --trace 0|1
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong answer
//! anywhere makes the exit status 1.

mod gen;
mod load;
mod replay;
mod setup;
mod stats;

use gen::{Gen, Workload};
use load::{Counts, Phase};
use o4a_serve::{Client, ClientConfig, StatsSnapshot};
use setup::{Inputs, Served};
use stats::{median, ratio, Sorted};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// Set-ups per run; `setup_s` and its attribution are their medians.
const SETUP_REPS: usize = 5;
/// Bisection probes of the rate search, before the one saturating probe.
const SEARCH_PROBES: usize = 4;
/// Where the first probe's upper end sits relative to the hi rate.
const SEARCH_SPAN: f64 = 3.0;
/// Share of `--seconds` the lo rate gets, and the hi rate, and (with
/// `--trace 1`) the traced pass; the rate probes get the rest.
const FIXED_SHARE: f64 = 0.25;
/// Segments each fixed rate is cut into, alternating lo and hi, so that
/// a slow spell of the host lands on both rates instead of on one.
const SEGMENTS: usize = 4;
/// Fewest requests per window when a p50 is taken per window.
const P50_WINDOW: usize = 200;
/// Fewest requests per window when a p99 is taken per window: ten
/// samples beyond it.
const P99_WINDOW: usize = 1000;
/// Fresh masks the cold workload sends before timing: more than the
/// plan cache (4096) and the decomposition memo (256) hold together.
const COLD_WARM_MASKS: usize = 4096 + 512;
/// Pools' worth of masks the ensemble workload draws before timing.
const ENS_WARM_POOLS: usize = 5;
/// Where run artifacts and span files go, relative to the repository
/// root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: o4a-perfbench --workload paper128|paper128-cold|ens128-k2-batch \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("bad value for {flag}: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn stats_of(addr: SocketAddr) -> StatsSnapshot {
    Client::connect(addr, ClientConfig::default())
        .and_then(|mut c| c.stats())
        .expect("STATS from the server")
}

/// The median, over windows of at least `min` requests in every phase,
/// of each window's exact `q`-quantile. A slow spell of the host spoils
/// the windows it covers, not the figure.
fn windowed(phases: &[Phase], q: f64, min: usize) -> f64 {
    median(phases.iter().flat_map(|p| p.per_window(q, min)).collect())
}

/// Whether phases at one rate meet the latency limit: every one
/// sustained, and the windowed p99 within `slo_ns`.
fn meets(phases: &[Phase], slo_ns: u64) -> bool {
    phases.iter().all(|p| p.sustained(slo_ns))
        && windowed(phases, 0.99, P99_WINDOW) <= slo_ns as f64
}

/// Prints one phase's outcome counts, exact latency order statistics
/// over every sample with their count, and the sender's lateness.
fn report_phase(name: &str, p: &Phase, slo_ns: u64) {
    let c = p.counts();
    let lat = p.latency();
    let us = |ns: u64| ns as f64 / 1e3;
    let top = lat.top().map_or("n/a".to_string(), |(q, v)| {
        format!("p{:.2} {:.1} us", q * 100.0, us(v))
    });
    println!(
        "phase {name:<9} rate {:>8.1}/s  sent {} ok {} busy {} error {} timeout {} wrong {}",
        p.rate, c.sent, c.ok, c.busy, c.error, c.timeout, c.wrong
    );
    println!(
        "  n={} p50 {:.1} us p99 {:.1} us, highest with 10 beyond: {top}; lateness p99 {:.1} us; \
         goodput {:.1}/s; sustained {}",
        lat.len(),
        us(lat.pct(0.5)),
        us(lat.pct(0.99)),
        us(p.lateness().pct(0.99)),
        p.goodput(),
        p.sustained(slo_ns)
    );
}

/// Offers `secs` worth of requests at `rate` and prints the phase.
fn phase(
    name: &str,
    addr: SocketAddr,
    g: &mut Gen<'_>,
    rate: f64,
    secs: f64,
) -> (Phase, Vec<gen::Req>) {
    let reqs = g.take(((rate * secs).ceil() as usize).max(1));
    let p = load::run(addr, &reqs, rate);
    report_phase(name, &p, g.workload().slo_ns());
    (p, reqs)
}

/// Bisects, in log space, for the highest offered rate the server
/// sustains; a probe that falls behind is run once more before it
/// counts, so one slow spell of the host cannot end the search low. Then
/// offers the workload's fixed saturating rate: above capacity the
/// server drains its backlog at its own pace, so the most goodput of any
/// probe is its capacity. Returns that, and the highest rate, over the
/// fixed rates and the probes, that also met the p99 limit (0 if none).
fn search(
    addr: SocketAddr,
    g: &mut Gen<'_>,
    w: Workload,
    lo: &[Phase],
    hi: &[Phase],
    probe_secs: f64,
    wrong: &mut u64,
) -> (f64, f64) {
    let slo = w.slo_ns();
    let mut met = 0.0f64;
    let mut capacity = 0.0f64;
    for phases in [lo, hi] {
        if meets(phases, slo) {
            met = met.max(phases[0].rate);
        }
    }
    let all = |ps: &[Phase]| ps.iter().all(|p| p.sustained(slo));
    let (lo_rate, hi_rate) = (lo[0].rate, hi[0].rate);
    let (mut good, mut bad) = if all(hi) {
        (hi_rate, hi_rate * SEARCH_SPAN)
    } else if all(lo) {
        (lo_rate, hi_rate)
    } else {
        (lo_rate / SEARCH_SPAN, lo_rate)
    };
    for _ in 0..SEARCH_PROBES {
        let mid = (good * bad).sqrt();
        let mut kept = false;
        for _ in 0..2 {
            let (p, _) = phase("probe", addr, g, mid, probe_secs);
            *wrong += p.counts().wrong;
            capacity = capacity.max(p.goodput());
            if meets(std::slice::from_ref(&p), slo) {
                met = met.max(mid);
            }
            kept = p.sustained(slo);
            if kept {
                break;
            }
        }
        if kept {
            good = mid;
        } else {
            bad = mid;
        }
    }
    let (p, _) = phase("saturate", addr, g, w.rates().2, probe_secs);
    *wrong += p.counts().wrong;
    capacity = capacity.max(p.goodput());
    println!(
        "search: sustained {good:.1}/s, most goodput {capacity:.1}/s, met p99 limit {met:.1}/s"
    );
    (capacity, met)
}

/// The lo and hi rates, interleaved in segments.
struct Fixed {
    lo: Vec<Phase>,
    hi: Vec<Phase>,
    /// Counts of all segments.
    counts: Counts,
    /// STATS deltas summed over the hi segments: masks served, executor
    /// batches, busy rejections, requests.
    hi_stats: [u64; 4],
    /// Input properties: masks sent, masks already sent before, cells.
    masks: u64,
    repeats: u64,
    cells: u64,
}

impl Fixed {
    /// Counts the masks of `reqs`, in send order, against every mask
    /// sent before.
    fn note_inputs(&mut self, reqs: &[gen::Req], sent: &mut HashSet<u64>) {
        for r in reqs {
            self.cells += r.cells;
            for &k in &r.keys {
                self.masks += 1;
                self.repeats += u64::from(!sent.insert(k));
            }
        }
    }
}

/// Offers the lo and hi rates for `secs` each, in alternating segments.
/// `sent` holds the keys of every mask sent before.
fn fixed_rates(
    addr: SocketAddr,
    g: &mut Gen<'_>,
    rates: (f64, f64),
    secs: f64,
    sent: &mut HashSet<u64>,
) -> Fixed {
    let mut f = Fixed {
        lo: Vec::new(),
        hi: Vec::new(),
        counts: Counts::default(),
        hi_stats: [0; 4],
        masks: 0,
        repeats: 0,
        cells: 0,
    };
    let seg = secs / SEGMENTS as f64;
    for k in 0..SEGMENTS {
        let (p, reqs) = phase(&format!("lo.{k}"), addr, g, rates.0, seg);
        f.counts.add(&p.counts());
        f.lo.push(p);
        f.note_inputs(&reqs, sent);
        let s0 = stats_of(addr);
        let (p, reqs) = phase(&format!("hi.{k}"), addr, g, rates.1, seg);
        let s1 = stats_of(addr);
        f.counts.add(&p.counts());
        f.hi.push(p);
        f.note_inputs(&reqs, sent);
        for (acc, d) in f.hi_stats.iter_mut().zip([
            s1.masks_served - s0.masks_served,
            s1.exec_batches - s0.exec_batches,
            s1.busy_rejections - s0.busy_rejections,
            s1.requests - s0.requests,
        ]) {
            *acc += d;
        }
    }
    f
}

fn measure(args: &Args, dir: &Path) -> Run {
    let w = args.workload;
    let inputs = Inputs::new();
    let build = |inputs: &Inputs| match w {
        Workload::Ens128K2Batch => setup::ensemble(inputs, dir),
        _ => setup::region(inputs, dir),
    };
    // every set-up but the last is torn down again; the last one serves
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = served.take() {
            s.handle.shutdown();
        }
        let s = build(&inputs);
        setups.push(s.times);
        served = Some(s);
    }
    drop(inputs);
    let served = served.expect("at least one set-up");
    let addr = served.handle.addr();
    let mut g = Gen::new(w, args.seed, &served.kind);
    let (lo_rate, hi_rate, _) = w.rates();
    let rates = (lo_rate, hi_rate);

    // let the caches reach their steady state before timing: one pass
    // over the pool fills the plan cache; the cold workload sends enough
    // fresh masks to fill it (then every request evicts); the Zipf draws
    // of the ensemble keep meeting new masks, and its per-group plan
    // caches fill only after several pools' worth of them
    let warm_n = match w {
        Workload::Paper128 => g.pool_len(),
        Workload::Paper128Cold => COLD_WARM_MASKS,
        Workload::Ens128K2Batch => ENS_WARM_POOLS * g.pool_len() / gen::BATCH_MASKS,
    };
    let warm_reqs = g.take(warm_n);
    let warm = load::run(addr, &warm_reqs, rates.1);
    report_phase("warm", &warm, w.slo_ns());
    let mut counts = warm.counts();

    let secs = args.seconds;
    let mut sent: HashSet<u64> = warm_reqs
        .iter()
        .flat_map(|r| r.keys.iter().copied())
        .collect();
    let fixed = fixed_rates(addr, &mut g, rates, secs * FIXED_SHARE, &mut sent);
    counts.add(&fixed.counts);

    // read before the rate probes, whose overload buffers only show how
    // deep the queue got, not what serving at a fixed rate needs
    let peak_rss_mb = stats::peak_rss_mb();
    let mut wrong = counts.wrong;
    let fixed_phases = if args.trace { 3.0 } else { 2.0 };
    let probe_secs = secs * (1.0 - fixed_phases * FIXED_SHARE) / (SEARCH_PROBES + 1) as f64;
    let (max_goodput, max_rps_slo) = search(
        addr, &mut g, w, &fixed.lo, &fixed.hi, probe_secs, &mut wrong,
    );
    let traced = args.trace.then(|| {
        let (lo_t, lo_t_reqs) = phase("lo.traced", addr, &mut g, rates.0, secs * FIXED_SHARE);
        counts.add(&lo_t.counts());
        wrong += lo_t.counts().wrong;
        let spans =
            PathBuf::from(OUT_DIR).join(format!("{}-seed{}-spans.json", w.name(), args.seed));
        let untraced_p50 = windowed(&fixed.lo, 0.5, P50_WINDOW);
        let t = replay::traced(&served, &lo_t, &lo_t_reqs, untraced_p50, &warm_reqs, &spans);
        wrong += t.wrong;
        print!("{}", t.table);
        println!("spans written to {}", spans.display());
        t
    });
    let stats_end = stats_of(addr);
    served.handle.shutdown();
    Run {
        counts,
        wrong,
        max_goodput,
        max_rps_slo,
        stats_end,
        setups,
        peak_rss_mb,
        distinct: sent.len(),
        traced,
        fixed,
    }
}

/// Everything one run measured, before it is turned into metrics.
struct Run {
    /// Outcomes over the warm-up and the fixed-rate phases.
    counts: Counts,
    /// Wrong answers anywhere in the run, rate probes included.
    wrong: u64,
    fixed: Fixed,
    /// Most goodput of any rate probe, and the highest offered rate that
    /// met the p99 limit.
    max_goodput: f64,
    max_rps_slo: f64,
    stats_end: StatsSnapshot,
    setups: Vec<setup::SetupTimes>,
    /// Peak resident memory after the set-ups and fixed-rate phases.
    peak_rss_mb: f64,
    /// Distinct masks sent in the warm-up and the fixed-rate phases.
    distinct: usize,
    traced: Option<replay::Traced>,
}

type Metric = (&'static str, f64, &'static str);

/// The metrics a user of the server sees.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let f = &run.fixed;
    vec![
        (
            "setup_s",
            median(run.setups.iter().map(|s| s.total_s).collect()),
            "s",
        ),
        ("peak_rss_mb", run.peak_rss_mb, "MiB"),
        (
            "lat_lo_p50_us",
            windowed(&f.lo, 0.5, P50_WINDOW) / 1e3,
            "us",
        ),
        (
            "lat_hi_p50_us",
            windowed(&f.hi, 0.5, P50_WINDOW) / 1e3,
            "us",
        ),
        ("max_goodput_rps", run.max_goodput, "1/s"),
        (
            "goodput_frac",
            ratio(f.counts.ok as f64, f.counts.sent as f64),
            "ratio",
        ),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(run: &Run) -> Vec<Metric> {
    let f = &run.fixed;
    let [masks, batches, busy, requests] = f.hi_stats;
    let end = &run.stats_end;
    let setup = |get: fn(&setup::SetupTimes) -> f64| median(run.setups.iter().map(get).collect());
    let rate = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let lateness: Vec<u64> =
        f.lo.iter()
            .chain(&f.hi)
            .flat_map(Phase::lateness_raw)
            .collect();
    let mut m: Vec<Metric> = vec![
        (
            "lat_lo_p99_us",
            windowed(&f.lo, 0.99, P99_WINDOW) / 1e3,
            "us",
        ),
        (
            "lat_hi_p99_us",
            windowed(&f.hi, 0.99, P99_WINDOW) / 1e3,
            "us",
        ),
        ("max_rps_slo", run.max_rps_slo, "1/s"),
        (
            "fail_frac",
            ratio(f.counts.failed() as f64, f.counts.sent as f64),
            "ratio",
        ),
        (
            "serve.server.masks_per_exec_batch",
            ratio(masks as f64, batches as f64),
            "count",
        ),
        (
            "serve.server.busy_frac",
            ratio(busy as f64, requests as f64),
            "ratio",
        ),
        (
            "serve.server.protocol_errors",
            end.protocol_errors as f64,
            "count",
        ),
        (
            "stgrid.cells_per_mask",
            ratio(f.cells as f64, f.masks as f64),
            "count",
        ),
        (
            "core.decomp_cache.hit_rate",
            rate(end.decomp_cache_hits, end.decomp_cache_misses),
            "ratio",
        ),
        (
            "core.plan_cache.hit_rate",
            rate(end.plan_cache_hits, end.plan_cache_misses),
            "ratio",
        ),
        (
            "core.plan_cache.evictions",
            end.plan_cache_evictions as f64,
            "count",
        ),
        ("core.search_s", setup(|s| s.search_s), "s"),
        ("core.index_io_s", setup(|s| s.index_io_s), "s"),
        ("core.index_bytes", setup(|s| s.index_bytes as f64), "B"),
        ("models.io_s", setup(|s| s.model_io_s), "s"),
        ("models.predict_s", setup(|s| s.predict_s), "s"),
        ("core.publish_s", setup(|s| s.publish_s), "s"),
        ("ensemble.plan_s", setup(|s| s.plan_s), "s"),
        ("ensemble.load_plan_s", setup(|s| s.load_plan_s), "s"),
        ("serve.ready_s", setup(|s| s.serve_s), "s"),
        (
            "gen.lateness_p99_us",
            Sorted::new(lateness).pct(0.99) as f64 / 1e3,
            "us",
        ),
        (
            "gen.repeat_frac",
            ratio(f.repeats as f64, f.masks as f64),
            "ratio",
        ),
        ("gen.distinct_masks", run.distinct as f64, "count"),
    ];
    if !end.shard_loads.is_empty() {
        // the served backend is the router: its STATS are the router's
        m.push((
            "serve.router.balance_ratio",
            replay::balance(&end.shard_loads),
            "ratio",
        ));
        m.push((
            "serve.router.plan_cache.hit_rate",
            rate(end.plan_cache_hits, end.plan_cache_misses),
            "ratio",
        ));
    }
    if let Some(t) = &run.traced {
        m.extend(t.metrics.iter().copied());
    }
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run's work directory");
    let run = measure(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name:<36} {value:>14.4} {unit}");
    }
    let json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.wrong == 0,
        run.counts.sent,
        run.counts.failed(),
        json.join(", ")
    );
    if run.wrong > 0 {
        std::process::exit(1);
    }
}
