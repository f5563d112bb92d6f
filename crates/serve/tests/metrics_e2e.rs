//! End-to-end observability test: a real server on an ephemeral port,
//! scraped through the `METRICS` verb, with the exposition validated
//! structurally and the query-stage histogram sums reconciled exactly
//! against the end-to-end `QueryTiming` totals from `STATS`.
//!
//! This file contains exactly ONE `#[test]`: the stage histograms are
//! process-global, and a concurrent test issuing queries would break the
//! exact sum reconciliation.

mod common;

use common::{query_masks, region_fixture, validate_exposition};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig};
use o4a_tensor::{conv2d, Tensor};
use std::sync::Arc;

#[test]
fn metrics_scrape_is_complete_and_stage_sums_match_stats() {
    // Metrics must populate even with logging effectively off.
    o4a_obs::set_max_level(o4a_obs::Level::Error);

    let region = region_fixture();
    let handle = serve(
        Arc::clone(&region) as Arc<dyn o4a_core::server::QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();

    // Exercise every path that feeds the exposition: health, batch +
    // single queries (stage histograms, plan cache), and a tiny gemm +
    // conv in this process (kernel histograms).
    let health = client.health().unwrap();
    assert!(health.ready);
    assert!(health.started_unix > 0, "server must report its start time");

    let masks = query_masks();
    let (values, _) = client.query_batch(&masks).unwrap();
    assert_eq!(values.len(), masks.len());
    for mask in &masks[..8] {
        client.query(mask).unwrap();
    }

    let a = Tensor::from_vec(vec![1.0; 6], &[2, 3]).unwrap();
    let b = Tensor::from_vec(vec![2.0; 12], &[3, 4]).unwrap();
    let _ = a.matmul(&b).unwrap();
    let img = Tensor::from_vec(vec![0.5; 16], &[1, 1, 4, 4]).unwrap();
    let w = Tensor::from_vec(vec![1.0; 9], &[1, 1, 3, 3]).unwrap();
    let bias = Tensor::from_vec(vec![0.0], &[1]).unwrap();
    let _ = conv2d(&img, &w, &bias, 1, 1).unwrap();

    // Scrape and validate. No further queries happen after this point
    // until the STATS comparison below, so totals are stable.
    let text = client.metrics().unwrap();
    let samples = validate_exposition(&text);

    for required in [
        "o4a_serve_requests_total",
        "o4a_serve_busy_total",
        "o4a_serve_protocol_errors_total",
        "o4a_serve_connections_total",
        "o4a_query_decompose_ns_count",
        "o4a_query_lookup_ns_count",
        "o4a_query_aggregate_ns_count",
        "o4a_plan_cache_hits_total",
        "o4a_plan_cache_misses_total",
        "o4a_kernel_gemm_ns_count",
        "o4a_kernel_conv2d_ns_count",
        "o4a_serve_request_ns_count",
    ] {
        assert!(
            samples.contains_key(required),
            "exposition is missing {required}; got:\n{text}"
        );
    }

    // 1 batch of 48 + 8 singles = 56 stage samples, one per mask.
    let stage_samples = samples["o4a_query_decompose_ns_count"] as u64;
    assert_eq!(stage_samples, masks.len() as u64 + 8);
    assert!(samples["o4a_kernel_gemm_ns_count"] as u64 >= 1);
    assert!(samples["o4a_kernel_conv2d_ns_count"] as u64 >= 1);

    // Span sums must reconcile exactly with the end-to-end QueryTiming
    // totals STATS reports: both sides accumulate the identical per-mask
    // nanosecond measurements, and `index` = lookup + aggregate.
    let stats = client.stats().unwrap();
    let decompose_sum = samples["o4a_query_decompose_ns_sum"] as u64;
    let lookup_sum = samples["o4a_query_lookup_ns_sum"] as u64;
    let aggregate_sum = samples["o4a_query_aggregate_ns_sum"] as u64;
    assert_eq!(
        stats.decompose_ns, decompose_sum,
        "decompose stage histogram sum diverged from STATS total"
    );
    assert_eq!(
        stats.index_ns,
        lookup_sum + aggregate_sum,
        "lookup+aggregate stage sums diverged from STATS index total"
    );
    handle.shutdown();
}
