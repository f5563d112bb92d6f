//! Global metrics: atomic counters, gauges, and log-bucketed latency
//! histograms, rendered in Prometheus text exposition format.
//!
//! # Naming scheme
//!
//! Every metric is `o4a_<subsystem>_<what>[_<unit>]` with the unit spelled
//! out (`_ns`, `_total`, `_flops_total`): `o4a_kernel_gemm_ns`,
//! `o4a_serve_requests_total`, `o4a_query_decompose_ns`. Names are plain
//! `[a-zA-Z_][a-zA-Z0-9_]*`, so exposition ordering is exactly the
//! registry's sorted-name order and golden tests can compare strings.
//! Per-server counters (requests, cache hits, shard loads) are not
//! registered here: each server keeps them in its own atomics and the
//! serving layer appends them to this registry's exposition.
//!
//! # Bucket layout
//!
//! Histograms use a fixed table of [`BUCKETS`] = 64 buckets whose upper
//! bounds grow by powers of √2: bound *i* is `round(√2^(i+1))`, i.e.
//! `1, 2, 3, 4, 6, 8, 11, 16, 23, 32, …` up to `2^31.5` (≈ 3.04 s in
//! nanoseconds), with the last bucket catching everything else (`+Inf`).
//! Two buckets per octave bounds any quantile estimated from the buckets
//! by a factor of √2 of the true value (proptested in
//! `tests/histogram_props.rs`), while recording stays one bounded binary
//! search plus one `fetch_add` — no locks, no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets (the last one is the `+Inf` catch-all).
pub const BUCKETS: usize = 64;

/// Upper bucket bounds: `bounds()[i] = round(√2^(i+1))` for `i < 63`, and
/// `u64::MAX` (rendered `+Inf`) for the last slot. Strictly increasing.
pub fn bounds() -> &'static [u64; BUCKETS] {
    static BOUNDS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0u64; BUCKETS];
        for (i, slot) in b.iter_mut().enumerate().take(BUCKETS - 1) {
            *slot = 2f64.powf((i + 1) as f64 / 2.0).round() as u64;
        }
        b[BUCKETS - 1] = u64::MAX;
        b
    })
}

/// The bucket a value lands in: the first bucket whose upper bound is
/// `>= v`.
pub fn bucket_index(v: u64) -> usize {
    bounds().partition_point(|&b| b < v)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a free-standing counter (not registered).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a free-standing gauge (not registered), initially `0.0`.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Stores a new value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket latency histogram (values are typically nanoseconds).
///
/// Recording is lock-free: one binary search over the static bound table
/// plus three relaxed `fetch_add`s. Reads (quantiles, exposition) are
/// racy-but-consistent-enough snapshots, like every Prometheus client.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a free-standing histogram (not registered).
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), index-aligned with [`bounds`].
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by locating the bucket
    /// holding the target rank and interpolating linearly inside it. The
    /// estimate is within one √2 bucket of the true value; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if cum + c >= target {
                let lb = if i == 0 { 0 } else { bounds()[i - 1] };
                let ub = bounds()[i];
                if ub == u64::MAX {
                    // +Inf bucket: no upper bound to interpolate against.
                    return lb;
                }
                let frac = (target - cum) as f64 / c as f64;
                return lb + ((ub - lb) as f64 * frac).round() as u64;
            }
            cum += c;
        }
        bounds()[BUCKETS - 2]
    }
}

/// The kinds a registered metric can have.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; tests that need isolation create their own.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

fn check_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "invalid metric name {name:?}"
    );
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &'static str,
        wrap: impl FnOnce(Arc<T>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        check_name(name);
        let mut map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = map.get(name) {
            return unwrap(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric {name:?} already registered as a {}",
                    entry.metric.kind()
                )
            });
        }
        let handle = Arc::new(make());
        map.insert(
            name.to_string(),
            Entry {
                help,
                metric: wrap(handle.clone()),
            },
        );
        handle
    }

    /// Registers (or retrieves) a counter by name.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.register(
            name,
            help,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Registers (or retrieves) a gauge by name.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Registers (or retrieves) a histogram by name.
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        self.register(
            name,
            help,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, in sorted-name order (stable across runs — golden-tested).
    pub fn render_prometheus(&self) -> String {
        let map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::new();
        for (name, entry) in map.iter() {
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
            let _ = writeln!(out, "# TYPE {name} {}", entry.metric.kind());
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, &c) in counts.iter().enumerate() {
                        cum += c;
                        if bounds()[i] == u64::MAX {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bounds()[i]);
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// The process-wide registry every instrumented subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Renders the [`global`] registry (the payload of the serving layer's
/// `METRICS` verb).
pub fn render_prometheus() -> String {
    global().render_prometheus()
}

/// Registers (or retrieves) `name` in the [`global`] registry, caching the
/// handle in a hidden `static` so repeated executions of the same call
/// site cost one atomic load. Forms:
///
/// ```
/// let c = o4a_obs::counter!("o4a_doc_example_total", "how many examples ran");
/// c.inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().counter($name, $help))
    }};
}

/// Like [`crate::counter!`] but for gauges.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().gauge($name, $help))
    }};
}

/// Like [`crate::counter!`] but for histograms.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().histogram($name, $help))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_sqrt2_steps() {
        let b = bounds();
        for i in 1..BUCKETS - 1 {
            assert!(b[i] > b[i - 1], "bounds not increasing at {i}");
        }
        // even indices land exactly on powers of two: bound 2j-1 = 2^j
        assert_eq!(b[1], 2);
        assert_eq!(b[3], 4);
        assert_eq!(b[9], 32);
        assert_eq!(b[19], 1024);
        assert_eq!(b[BUCKETS - 1], u64::MAX);
    }

    #[test]
    fn bucket_index_respects_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let p50 = h.quantile(0.5);
        // true median 50; estimate must be within one √2 bucket
        assert!((32..=91).contains(&p50), "p50 estimate {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 91, "p99 estimate {p99}");
        assert!(h.quantile(1.0) >= p99);
    }

    #[test]
    fn registry_dedupes_by_name() {
        let r = Registry::new();
        let a = r.counter("o4a_test_total", "help");
        let b = r.counter("o4a_test_total", "help");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_conflicts() {
        let r = Registry::new();
        let _ = r.counter("o4a_conflict", "help");
        let _ = r.gauge("o4a_conflict", "help");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        let _ = Registry::new().counter("bad name!", "help");
    }

    #[test]
    fn exposition_golden() {
        let r = Registry::new();
        r.counter("o4a_z_total", "last by name").add(7);
        r.gauge("o4a_a_gauge", "first by name").set(1.5);
        let h = r.histogram("o4a_m_ns", "middle by name");
        h.record(1);
        h.record(3);
        h.record(u64::MAX);
        let text = r.render_prometheus();
        let mut expected = String::new();
        expected.push_str("# HELP o4a_a_gauge first by name\n");
        expected.push_str("# TYPE o4a_a_gauge gauge\n");
        expected.push_str("o4a_a_gauge 1.5\n");
        expected.push_str("# HELP o4a_m_ns middle by name\n");
        expected.push_str("# TYPE o4a_m_ns histogram\n");
        let b = bounds();
        let mut cum = 0u64;
        for (i, &ub) in b.iter().enumerate() {
            cum += match i {
                0 => 1,                     // value 1
                2 => 1,                     // value 3
                i if i == BUCKETS - 1 => 1, // u64::MAX overflows to +Inf
                _ => 0,
            };
            if ub == u64::MAX {
                expected.push_str(&format!("o4a_m_ns_bucket{{le=\"+Inf\"}} {cum}\n"));
            } else {
                expected.push_str(&format!("o4a_m_ns_bucket{{le=\"{ub}\"}} {cum}\n"));
            }
        }
        expected.push_str(&format!("o4a_m_ns_sum {}\n", 4u64.wrapping_add(u64::MAX)));
        expected.push_str("o4a_m_ns_count 3\n");
        expected.push_str("# HELP o4a_z_total last by name\n");
        expected.push_str("# TYPE o4a_z_total counter\n");
        expected.push_str("o4a_z_total 7\n");
        assert_eq!(text, expected);
    }
}
