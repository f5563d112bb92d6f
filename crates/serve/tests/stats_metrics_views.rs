//! STATS and METRICS are two views of one store: every counter STATS
//! carries lives in one per-server (or per-backend) atomic, and METRICS
//! renders the same snapshot through the `STATS_ROWS` table. Checked for
//! an unsharded region server and a K=2 shard router served one after
//! the other in the same process, which the per-instance counters make
//! independent of each other.

mod common;

use common::{query_masks, region_fixture, validate_exposition};
use o4a_core::server::QueryBackend;
use o4a_serve::wire::{SHARD_ROUTED_METRIC, STATS_ROWS};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ShardRouter, StatsSnapshot};
use std::sync::Arc;

/// Serves `backend`, runs two passes of single queries plus one batch
/// over the mask set, then scrapes METRICS followed by STATS and checks
/// that every table row appears exactly once with the STATS value.
fn serve_and_compare(backend: Arc<dyn QueryBackend>) -> StatsSnapshot {
    let handle = serve(
        backend,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let masks = query_masks();
    for _ in 0..2 {
        for mask in &masks {
            client.query(mask).unwrap();
        }
    }
    client.query_batch(&masks[..16]).unwrap();
    let text = client.metrics().unwrap();
    let stats = client.stats().unwrap();
    handle.shutdown();

    // the validator rejects a second HELP, TYPE or sample for any name
    let samples = validate_exposition(&text);
    // the STATS request came after the scrape: it alone moved a counter
    let mut at_scrape = stats.clone();
    at_scrape.requests -= 1;
    for row in STATS_ROWS {
        assert_eq!(
            samples[row.name] as u64,
            (row.get)(&at_scrape),
            "METRICS {} diverged from STATS",
            row.name
        );
    }
    for (shard, &load) in stats.shard_loads.iter().enumerate() {
        let key = format!("{SHARD_ROUTED_METRIC}{{shard=\"{shard}\"}}");
        assert_eq!(samples[&key] as u64, load, "METRICS {key} diverged");
    }
    let routed = text
        .lines()
        .filter(|l| l.starts_with(SHARD_ROUTED_METRIC))
        .count();
    assert_eq!(routed, stats.shard_loads.len());
    stats
}

#[test]
fn stats_and_metrics_render_one_store() {
    let region = region_fixture();
    let stats = serve_and_compare(Arc::clone(&region) as Arc<dyn QueryBackend>);
    assert!(stats.shard_loads.is_empty());
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        stats.masks_served
    );
    assert!(stats.plan_cache_hits > 0, "the second pass must hit");
    assert_eq!(
        stats.plan_cache_entries,
        stats.plan_cache_misses - stats.plan_cache_evictions
    );

    let shard = || {
        Arc::new(o4a_core::server::RegionServer::new(
            region.source().clone(),
            Arc::clone(&region.stores()[0]),
        )) as Arc<dyn QueryBackend>
    };
    let router = Arc::new(ShardRouter::new(vec![shard(), shard()]));
    let stats = serve_and_compare(router);
    assert_eq!(stats.shard_loads.len(), 2);
    assert!(stats.shard_loads.iter().all(|&l| l > 0));
    assert_eq!(
        stats.decomp_cache_hits + stats.decomp_cache_misses,
        stats.masks_served
    );
    assert_eq!(stats.decomp_cache_entries, stats.decomp_cache_misses);
    // each shard's cache holds what it compiled minus what it evicted, and
    // the gauge is the sum over both shards (no epoch swap in this run)
    assert!(stats.plan_cache_hits > 0);
    assert_eq!(
        stats.plan_cache_entries,
        stats.plan_cache_misses - stats.plan_cache_evictions
    );
}
