//! Operation counters, used by the ablation benches to show *why* one stack
//! is faster (e.g. counting the extra read WS-Transfer's Put performs), and
//! per-shard accounting used by the throughput harness to model how far the
//! store can be parallelised.
//!
//! The counters are the series `db.<op>{host}` in the database's metrics
//! registry, bumped by the collection where each operation happens;
//! [`DbStats`] reads them. The per-shard busy time is the one state of its
//! own: the virtual makespan model's input.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_telemetry::{series_key, MetricsRegistry, MetricsSnapshot};

/// Upper bound on the shard count of any collection; the per-shard busy
/// accounting below is statically sized to it.
pub const MAX_SHARDS: usize = 64;

/// A typed read view over one database's counters, plus its shard busy time.
#[derive(Debug, Clone)]
pub struct DbStats {
    metrics: MetricsRegistry,
    host: Arc<str>,
    /// Virtual microseconds of database work attributed to each shard.
    /// Independent shards could serve this work in parallel, so
    /// `max(shard_busy)` lower-bounds the store's contribution to makespan.
    shard_busy_us: Arc<[AtomicU64; MAX_SHARDS]>,
}

/// Times a shard lock of `host`'s database was found held: the sum of its
/// `db.shard_contention{collection,host}` series in `snap`.
fn lock_contentions_in(snap: &MetricsSnapshot, host: &str) -> u64 {
    let suffix = format!(",host={host}}}");
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("db.shard_contention{") && k.ends_with(&suffix))
        .map(|(_, v)| v)
        .sum()
}

/// The operation counters: the series `db.<op>{host}`, listed in `OPS`,
/// and an accessor reading each.
macro_rules! ops {
    ($($op:ident),*) => {
        const OPS: &[&str] = &[$(concat!("db.", stringify!($op))),*];

        impl DbStats {
            $(pub fn $op(&self) -> u64 {
                let series = concat!("db.", stringify!($op));
                self.metrics.counter(series, &[("host", &self.host)])
            })*
        }
    };
}

ops! { reads, inserts, updates, deletes, queries, cache_hits, cache_misses }

impl DbStats {
    /// A view over `host`'s series in `metrics`, registering each at zero so
    /// a scrape shows them before the first operation.
    pub(crate) fn new(metrics: MetricsRegistry, host: &str) -> Self {
        let zeros: Vec<_> = OPS.iter().map(|&series| (series, 0)).collect();
        metrics.add_all(&[("host", host)], &zeros);
        let shard_busy_us = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let host = host.into();
        DbStats {
            metrics,
            host,
            shard_busy_us,
        }
    }

    /// The host label of this database's series.
    pub(crate) fn host(&self) -> &str {
        &self.host
    }

    /// Times a shard lock was found held and the caller had to wait.
    pub fn lock_contentions(&self) -> u64 {
        lock_contentions_in(&self.metrics.snapshot(), &self.host)
    }

    /// Attribute `us` virtual microseconds of store work to `shard`.
    pub(crate) fn add_shard_busy(&self, shard: usize, us: u64) {
        self.shard_busy_us[shard % MAX_SHARDS].fetch_add(us, Ordering::Relaxed);
    }

    /// Busy time attributed to one shard so far.
    pub fn shard_busy_us(&self, shard: usize) -> u64 {
        self.shard_busy_us[shard % MAX_SHARDS].load(Ordering::Relaxed)
    }

    /// Busy time per shard for the first `shards` shards.
    pub fn shard_busy_snapshot(&self, shards: usize) -> Vec<u64> {
        (0..shards.min(MAX_SHARDS))
            .map(|i| self.shard_busy_us(i))
            .collect()
    }

    /// Total store busy time across all shards.
    pub fn total_busy_us(&self) -> u64 {
        self.shard_busy_snapshot(MAX_SHARDS).into_iter().sum()
    }

    /// Publish on every `gather()` of the registry the gauges
    /// `db.shard_busy_us{host,shard}` of the first `shards` shards and
    /// `db.lock_contentions{host}`, the sum of the contention series.
    pub fn register_gauges(&self, shards: usize) {
        let (busy, host) = (self.shard_busy_us.clone(), self.host.clone());
        self.metrics.register_collector(move |snap| {
            let contentions = lock_contentions_in(snap, &host);
            let key = series_key("db.lock_contentions", &[("host", &host)]);
            snap.counters.insert(key, contentions);
            for (shard, busy) in busy[..shards.min(MAX_SHARDS)].iter().enumerate() {
                let labels = [("host", &*host), ("shard", &shard.to_string())];
                snap.set_gauge("db.shard_busy_us", &labels, busy.load(Ordering::Relaxed));
            }
        });
    }

    /// Every counter as (name, value) pairs, read in one cut.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let snap = self.metrics.snapshot();
        let host = [("host", &*self.host)];
        let count = |series: &'static str| (&series[3..], snap.counter(&series_key(series, &host)));
        let mut pairs: Vec<_> = OPS.iter().copied().map(count).collect();
        pairs.push(("lock_contentions", lock_contentions_in(&snap, &self.host)));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_the_host_series() {
        let m = MetricsRegistry::new();
        let s = DbStats::new(m.clone(), "a");
        m.inc("db.reads", &[("host", "a")]);
        m.inc("db.reads", &[("host", "b")]);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.clone().reads(), 1, "clones read the same series");
        assert_eq!(m.counter("db.updates", &[("host", "a")]), 0);
        assert!(m.snapshot().counters.contains_key("db.updates{host=a}"));
    }

    #[test]
    fn snapshot_covers_everything() {
        let m = MetricsRegistry::new();
        let s = DbStats::new(m.clone(), "a");
        m.inc("db.cache_hits", &[("host", "a")]);
        for host in ["a", "a", "b"] {
            m.inc(
                "db.shard_contention",
                &[("collection", "c"), ("host", host)],
            );
        }
        let snap = s.snapshot();
        assert_eq!(snap.len(), 8);
        assert!(snap.contains(&("cache_hits", 1)));
        assert!(snap.contains(&("lock_contentions", 2)));
        assert_eq!(s.lock_contentions(), 2);
    }

    #[test]
    fn shard_busy_accumulates_per_shard() {
        let s = DbStats::new(MetricsRegistry::new(), "a");
        s.add_shard_busy(0, 100);
        s.add_shard_busy(3, 40);
        s.add_shard_busy(3, 2);
        assert_eq!(s.shard_busy_us(0), 100);
        assert_eq!(s.shard_busy_us(3), 42);
        assert_eq!(s.shard_busy_snapshot(4), vec![100, 0, 0, 42]);
        assert_eq!(s.total_busy_us(), 142);
    }

    #[test]
    fn shard_index_wraps_at_max() {
        let s = DbStats::new(MetricsRegistry::new(), "a");
        s.add_shard_busy(MAX_SHARDS + 1, 7);
        assert_eq!(s.shard_busy_us(1), 7);
    }
}
