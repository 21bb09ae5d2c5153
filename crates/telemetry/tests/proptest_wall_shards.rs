//! Property tests for the lock-free wall-clock histogram shards: folding
//! per-worker shard snapshots with [`WallSnapshot::merge`] must equal one
//! global histogram fed the same observations, for **any** assignment of
//! observations to shards and any interleaving — the correctness claim
//! that lets `/metrics` merge lazily at scrape time instead of
//! synchronising workers on the hot path.

use ogsa_telemetry::prometheus::{parse_exposition, render_wall_histogram};
use ogsa_telemetry::{WallHistogram, WallSnapshot};
use proptest::prelude::*;

fn shard_set(n: usize) -> Vec<WallHistogram> {
    (0..n).map(|_| WallHistogram::new()).collect()
}

/// The admin plane's scrape-time fold.
fn merged(shards: &[WallHistogram]) -> WallSnapshot {
    let mut out = WallSnapshot::empty();
    for shard in shards {
        out.merge(&shard.snapshot());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_shards_equal_a_global_histogram(
        // (which shard records it, the observed latency) — the FULL u64
        // domain, 0 and u64::MAX included. The relaxed `fetch_add` sum
        // wraps modulo 2^64 on both sides identically, so wrapped sums
        // still compare equal; nothing may panic or alias buckets.
        obs in proptest::collection::vec((0usize..8, any::<u64>()), 0..400),
        shards in 1usize..8,
    ) {
        let sharded = shard_set(shards);
        let global = WallHistogram::new();
        for (worker, us) in &obs {
            sharded[worker % shards].record(*us);
            global.record(*us);
        }
        prop_assert_eq!(merged(&sharded), global.snapshot());
    }

    #[test]
    fn merge_is_order_independent(
        obs in proptest::collection::vec(0u64..10_000_000, 1..200),
    ) {
        // Forward vs reverse feed order, different shard assignment: the
        // merged snapshot must be identical (counts are pure sums).
        let a = shard_set(4);
        for (i, us) in obs.iter().enumerate() {
            a[i % 4].record(*us);
        }
        let b = shard_set(3);
        for (i, us) in obs.iter().rev().enumerate() {
            b[(i * 7 + 1) % 3].record(*us);
        }
        prop_assert_eq!(merged(&a), merged(&b));
    }

    #[test]
    fn merged_snapshot_renders_a_consistent_exposition(
        obs in proptest::collection::vec(0u64..5_000_000, 0..200),
    ) {
        let sharded = shard_set(4);
        for (i, us) in obs.iter().enumerate() {
            sharded[i % 4].record(*us);
        }
        let text = render_wall_histogram("wall_us", &[], &merged(&sharded), None);
        let exp = parse_exposition(&text).expect("exposition parses");
        exp.check_histograms().expect("cumulative + consistent");
        let count = exp.get("wall_us_count", &[]).expect("count sample");
        prop_assert_eq!(count.value as u64, obs.len() as u64);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max(
        obs in proptest::collection::vec(1u64..50_000_000, 1..200),
        q_millis in 0u64..1001,
    ) {
        let q = q_millis as f64 / 1000.0;
        let h = WallHistogram::new();
        let mut max = 0;
        for us in &obs {
            h.record(*us);
            max = max.max(*us);
        }
        let snap = h.snapshot();
        prop_assert!(snap.quantile_us(q) <= max);
        prop_assert_eq!(snap.max_us, max);
    }
}
