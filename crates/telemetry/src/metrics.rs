//! The metrics registry: monotonic counters and virtual-time latency
//! histograms, keyed by name plus sorted labels.
//!
//! Keys render to the conventional `name{k=v,...}` form and live in
//! `BTreeMap`s, so snapshots iterate in a deterministic order — two runs of
//! the same seed serialise to identical JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use ogsa_sim::SimDuration;
use parking_lot::Mutex;

/// Histogram bucket upper bounds, in virtual microseconds. Chosen to bracket
/// the paper's operation range: sub-millisecond cache hits up to multi-second
/// X.509 grid steps.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// A fixed-bucket latency histogram over virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    /// One count per bound in [`LATENCY_BUCKETS_US`], plus an overflow slot.
    pub buckets: [u64; LATENCY_BUCKETS_US.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; LATENCY_BUCKETS_US.len() + 1],
        }
    }
}

impl Histogram {
    fn observe(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx] += 1;
    }

    /// Mean observation in virtual milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1000.0
        }
    }
}

/// A point-in-time copy of every counter and histogram.
///
/// `gauges` is populated only by [`MetricsRegistry::gather`] (registered
/// collectors): the deterministic [`MetricsRegistry::snapshot`]
/// path never touches live-observability state, so same-seed metric dumps
/// stay byte-identical whether or not an admin plane is scraping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Value of one rendered counter key (`name{k=v,...}`), 0 if absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every counter series with this metric name, across all label
    /// sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        let prefix = format!("{name}{{");
        self.counters
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Value of one rendered gauge key, 0 if absent (gauges only exist on
    /// [`MetricsRegistry::gather`] snapshots).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Record a gauge value directly on this snapshot — how registered
    /// collectors contribute.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.gauges.insert(series_key(name, labels), value);
    }
}

/// A scrape-time callback contributing gauges (or late counters) to a
/// [`MetricsRegistry::gather`] snapshot — the seam through which xmldb shard
/// stats and serve worker state appear in `/metrics` without those crates
/// depending on each other.
pub type Collector = Box<dyn Fn(&mut MetricsSnapshot) + Send + Sync>;

/// Shared registry of counters and histograms. Cloning shares the store.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<MetricsInner>,
}

#[derive(Default)]
struct MetricsInner {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Scrape-time contributors; only run by `gather`.
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsInner")
            .field("counters", &self.counters)
            .field("histograms", &self.histograms)
            .field("collectors", &self.collectors.lock().len())
            .finish()
    }
}

/// `name{k=v,...}` with labels sorted by key — the canonical series key.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    with_key(name, labels, str::to_owned)
}

thread_local! {
    /// Where a series key is rendered to be looked up: a bump of a series
    /// that exists allocates nothing.
    static KEY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `f` on the series key, rendered into this thread's buffer.
fn with_key<T>(name: &str, labels: &[(&str, &str)], f: impl FnOnce(&str) -> T) -> T {
    KEY.with_borrow_mut(|key| {
        key.clear();
        key.push_str(name);
        let mut open = '{';
        let mut push = |(k, v): &(&str, &str)| {
            key.push(open);
            key.push_str(k);
            key.push('=');
            key.push_str(v);
            open = ',';
        };
        // Most call sites pass one label, or several already in order.
        if labels.windows(2).all(|pair| pair[0] <= pair[1]) {
            labels.iter().for_each(&mut push);
        } else {
            let mut sorted: Vec<_> = labels.iter().collect();
            sorted.sort();
            sorted.into_iter().for_each(&mut push);
        }
        if !labels.is_empty() {
            key.push('}');
        }
        f(key)
    })
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1 to a counter series.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Add `delta` to a counter series.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        with_key(name, labels, |key| {
            bump(&mut self.inner.counters.lock(), key, delta)
        })
    }

    /// Add each `(name, delta)` to its series under `labels`, all under one
    /// lock: a [`MetricsRegistry::snapshot`] sees every delta or none (a
    /// message's count and its bytes land together).
    pub fn add_all(&self, labels: &[(&str, &str)], deltas: &[(&str, u64)]) {
        let mut counters = self.inner.counters.lock();
        for &(name, delta) in deltas {
            with_key(name, labels, |key| bump(&mut counters, key, delta));
        }
    }

    /// Current value of a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        with_key(name, labels, |key| {
            self.inner.counters.lock().get(key).copied().unwrap_or(0)
        })
    }

    /// Record one virtual-time observation in a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        with_key(name, labels, |key| {
            let mut histograms = self.inner.histograms.lock();
            match histograms.get_mut(key) {
                Some(histogram) => histogram.observe(d.as_micros()),
                None => histograms
                    .entry(key.to_owned())
                    .or_default()
                    .observe(d.as_micros()),
            }
        })
    }

    /// Current state of a histogram series, if it has observations.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        with_key(name, labels, |key| {
            self.inner.histograms.lock().get(key).cloned()
        })
    }

    /// Register a scrape-time collector run by every
    /// [`MetricsRegistry::gather`] call.
    pub fn register_collector(&self, f: impl Fn(&mut MetricsSnapshot) + Send + Sync + 'static) {
        self.inner.collectors.lock().push(Box::new(f));
    }

    /// A deterministic-order copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Take both locks before copying either map so the snapshot is a
        // single consistent cut, not two cuts a writer can slip between.
        let counters = self.inner.counters.lock();
        let histograms = self.inner.histograms.lock();
        MetricsSnapshot {
            counters: counters.clone(),
            histograms: histograms.clone(),
            gauges: BTreeMap::new(),
        }
    }

    /// The scrape view: [`MetricsRegistry::snapshot`] plus every registered
    /// collector's contribution. This is what `/metrics`
    /// renders; the deterministic snapshot path is untouched by it.
    pub fn gather(&self) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        // Collectors run outside the data locks: they may read other
        // subsystems (db stats, worker state) and the registry itself.
        let collectors = self.inner.collectors.lock();
        for f in collectors.iter() {
            f(&mut snap);
        }
        snap
    }
}

/// Add `delta` to the series at `key`; a series that exists allocates nothing.
fn bump(counters: &mut BTreeMap<String, u64>, key: &str, delta: u64) {
    match counters.get_mut(key) {
        Some(value) => *value += delta,
        None => {
            counters.insert(key.to_owned(), delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keys_sort_labels() {
        assert_eq!(series_key("hits", &[]), "hits");
        assert_eq!(
            series_key("hits", &[("z", "1"), ("a", "2")]),
            "hits{a=2,z=1}"
        );
        assert_eq!(
            series_key("hits", &[("a", "2"), ("z", "1")]),
            "hits{a=2,z=1}"
        );
    }

    #[test]
    fn counters_accumulate_per_series() {
        let m = MetricsRegistry::new();
        m.inc("msgs", &[("stack", "wsrf")]);
        m.inc("msgs", &[("stack", "wsrf")]);
        m.add("msgs", &[("stack", "wxf")], 5);
        assert_eq!(m.counter("msgs", &[("stack", "wsrf")]), 2);
        assert_eq!(m.counter("msgs", &[("stack", "wxf")]), 5);
        assert_eq!(m.counter("msgs", &[]), 0);
        assert_eq!(m.snapshot().counter_total("msgs"), 7);
    }

    #[test]
    fn labels_in_any_order_reach_one_series() {
        let m = MetricsRegistry::new();
        m.inc("calls", &[("action", "Get"), ("outcome", "ok")]);
        m.inc("calls", &[("outcome", "ok"), ("action", "Get")]);
        m.observe("ms", &[("b", "2"), ("a", "1")], SimDuration::from_micros(5));
        m.observe("ms", &[("a", "1"), ("b", "2")], SimDuration::from_micros(7));
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter("calls{action=Get,outcome=ok}"), 2);
        assert_eq!(snap.histograms["ms{a=1,b=2}"].count, 2);
        assert_eq!(
            m.counter("calls", &[("outcome", "ok"), ("action", "Get")]),
            2
        );
        // Equal labels keep their places, as a sort would leave them.
        assert_eq!(series_key("n", &[("a", "1"), ("a", "1")]), "n{a=1,a=1}");
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let m = MetricsRegistry::new();
        for us in [50, 900, 2_000_000] {
            m.observe("lat", &[], SimDuration::from_micros(us));
        }
        let h = m.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min_us, 50);
        assert_eq!(h.max_us, 2_000_000);
        assert_eq!(h.buckets[0], 1); // <=100
        assert_eq!(h.buckets[3], 1); // <=1000
        assert_eq!(h.buckets[LATENCY_BUCKETS_US.len()], 1); // overflow
        assert!((h.mean_ms() - (2_000_950.0 / 3.0 / 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let m = MetricsRegistry::new();
        m.inc("b", &[]);
        m.inc("a", &[("x", "1")]);
        let keys: Vec<_> = m.snapshot().counters.keys().cloned().collect();
        assert_eq!(keys, ["a{x=1}", "b"]);
    }

    #[test]
    fn add_all_lands_every_delta_in_one_cut() {
        let m = MetricsRegistry::new();
        let writer = {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..1_000 {
                    m.add_all(&[("host", "a")], &[("msgs", 1), ("bytes", 7)]);
                }
            })
        };
        for _ in 0..200 {
            let snap = m.snapshot();
            assert_eq!(
                snap.counter("bytes{host=a}"),
                snap.counter("msgs{host=a}") * 7
            );
        }
        writer.join().unwrap();
        assert_eq!(m.counter("msgs", &[("host", "a")]), 1_000);
    }

    #[test]
    fn clones_share_state() {
        let m = MetricsRegistry::new();
        m.clone().inc("n", &[]);
        assert_eq!(m.counter("n", &[]), 1);
    }

    #[test]
    fn gauges_and_collectors_appear_only_on_gather() {
        let m = MetricsRegistry::new();
        m.inc("hits", &[]);
        m.register_collector(|snap| snap.set_gauge("db.shards", &[], 4));

        let det = m.snapshot();
        assert!(
            det.gauges.is_empty(),
            "deterministic snapshot has no gauges"
        );

        let live = m.gather();
        assert_eq!(live.gauge("db.shards"), 4);
        assert_eq!(live.counter("hits"), 1, "counters ride along");
    }
}
