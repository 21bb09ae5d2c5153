//! The sharded subscription table.
//!
//! Subscriptions are routed to shards by the FNV-1a hash of their
//! expression's literal root segment (`ogsa_sim::rng::hash_str`, the same
//! router the xmldb collections use), so concurrent Subscribe/Unsubscribe/Notify on
//! different topic roots take different locks. Expressions whose head is a
//! wildcard (`*`, `//`, or a match-everything filter) cannot be routed and
//! live in a dedicated *wildcard shard* that every resolve also consults.
//!
//! Exactly like the PR-3 xmldb collections, the shard count never changes
//! what an operation *costs* — it only changes which lock it takes and
//! which shard's busy time the cost is attributed to. The `fanout` bench's
//! makespan model (notifications/sec = work / max per-shard busy) therefore
//! scales with shard count by construction, and the gate catches any
//! routing regression that piles work onto one shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_sim::rng::hash_str;
use ogsa_sim::{CostModel, SimDuration, VirtualClock};
use ogsa_telemetry::Telemetry;
use parking_lot::{Mutex, RwLock};

use crate::trie::{CompiledTopic, TopicTrie};

/// What the fan-out core needs to know about a stack's subscription type.
pub trait Subscriber: Clone + Send + Sync + 'static {
    /// Stable subscription id (the WS-Resource id / WS-Eventing id).
    fn sub_id(&self) -> &str;
    /// Where deliveries go (dead letters are recorded against this).
    fn endpoint(&self) -> &EndpointReference;
}

/// Virtual-time costs charged by table operations. Shard-count invariant:
/// the cost of a resolve depends only on the candidate count, never on how
/// many shards the table has.
#[derive(Debug, Clone, Copy)]
pub struct FanoutCosts {
    /// Fixed cost per resolve (the trie walk).
    pub resolve_fixed: SimDuration,
    /// Per matched candidate (entry clone + filter hand-off).
    pub per_candidate: SimDuration,
    /// Per table mutation (insert/remove/pause).
    pub mutate: SimDuration,
}

impl FanoutCosts {
    /// Derived from the shared cost model: an in-memory index op costs a
    /// cache hit, not a database query — that recosting *is* this PR's
    /// honest perf claim, and the `fanout` bench measures it against the
    /// retained naive path.
    pub fn from_model(model: &CostModel) -> Self {
        let hit = SimDuration::from_micros(model.cache_hit_us);
        FanoutCosts {
            resolve_fixed: hit,
            per_candidate: hit,
            mutate: hit,
        }
    }

    pub fn free() -> Self {
        FanoutCosts {
            resolve_fixed: SimDuration::ZERO,
            per_candidate: SimDuration::ZERO,
            mutate: SimDuration::ZERO,
        }
    }
}

/// Shared, lock-free counters behind the table and the deliverer: per-shard
/// busy time (the makespan model), per-shard subscriber counts and outbox
/// depths (scrape-time gauges), plus contention and backpressure totals.
#[derive(Clone)]
pub struct FanoutStats {
    inner: Arc<StatsInner>,
}

struct StatsInner {
    busy_us: Vec<AtomicU64>,
    subscribers: Vec<AtomicU64>,
    outbox_depth: Vec<AtomicU64>,
    contentions: AtomicU64,
    backpressure_drops: AtomicU64,
}

impl FanoutStats {
    fn new(shards: usize) -> Self {
        let cell = |_| AtomicU64::new(0);
        FanoutStats {
            inner: Arc::new(StatsInner {
                busy_us: (0..shards).map(cell).collect(),
                subscribers: (0..shards).map(cell).collect(),
                outbox_depth: (0..shards).map(cell).collect(),
                contentions: AtomicU64::new(0),
                backpressure_drops: AtomicU64::new(0),
            }),
        }
    }

    /// Shard count including the wildcard shard (the last slot).
    pub fn shards(&self) -> usize {
        self.inner.busy_us.len()
    }

    pub fn add_busy(&self, shard: usize, cost: SimDuration) {
        self.inner.busy_us[shard].fetch_add(cost.as_micros(), Ordering::Relaxed);
    }

    /// Per-shard busy microseconds (wildcard shard last).
    pub fn busy_us(&self) -> Vec<u64> {
        self.inner
            .busy_us
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The makespan of the charged work: the busiest shard's total.
    pub fn max_busy_us(&self) -> u64 {
        self.busy_us().into_iter().max().unwrap_or(0)
    }

    pub fn subscribers(&self) -> Vec<u64> {
        self.inner
            .subscribers
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    pub fn outbox_depths(&self) -> Vec<u64> {
        self.inner
            .outbox_depth
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    pub fn contentions(&self) -> u64 {
        self.inner.contentions.load(Ordering::Relaxed)
    }

    pub fn backpressure_drops(&self) -> u64 {
        self.inner.backpressure_drops.load(Ordering::Relaxed)
    }

    pub(crate) fn add_depth(&self, shard: usize, n: u64) {
        self.inner.outbox_depth[shard].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub_depth(&self, shard: usize, n: u64) {
        self.inner.outbox_depth[shard].fetch_sub(n, Ordering::Relaxed);
    }

    pub(crate) fn bump_drop(&self) {
        self.inner
            .backpressure_drops
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the scrape-time gauges on a metrics registry:
    /// `wsn.subscribers{stack,shard}` and `wsn.outbox_depth{stack,shard}`
    /// (the `wsn.` prefix names the shared fan-out core; the `stack` label
    /// says which stack's table this is). Gauges ride `gather()` only, so
    /// deterministic `snapshot()` comparisons are unaffected.
    pub fn register_gauges(&self, tel: &Telemetry, stack: &'static str) {
        let stats = self.clone();
        tel.metrics().register_collector(move |snap| {
            let label = |i: usize, last: usize| {
                if i == last {
                    "wild".to_owned()
                } else {
                    i.to_string()
                }
            };
            let last = stats.shards() - 1;
            for (i, n) in stats.subscribers().into_iter().enumerate() {
                snap.set_gauge(
                    "wsn.subscribers",
                    &[("stack", stack), ("shard", &label(i, last))],
                    n,
                );
            }
            for (i, n) in stats.outbox_depths().into_iter().enumerate() {
                snap.set_gauge(
                    "wsn.outbox_depth",
                    &[("stack", stack), ("shard", &label(i, last))],
                    n,
                );
            }
        });
    }
}

struct Shard<T> {
    trie: TopicTrie,
    entries: HashMap<u64, Entry<T>>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            trie: TopicTrie::new(),
            entries: HashMap::new(),
        }
    }
}

struct Entry<T> {
    paused: bool,
    sub: T,
}

struct Location {
    shard: usize,
    reg: u64,
}

/// The sharded subscription table: `shards` routed shards plus one wildcard
/// shard (index `shards`), each holding a trie + entry map behind its own
/// `RwLock`.
pub struct ShardedTable<T: Subscriber> {
    shards: Vec<RwLock<Shard<T>>>,
    locations: Mutex<HashMap<String, Location>>,
    next_reg: AtomicU64,
    clock: VirtualClock,
    costs: FanoutCosts,
    stats: FanoutStats,
    tel: Telemetry,
    stack: &'static str,
}

impl<T: Subscriber> ShardedTable<T> {
    /// `shards` routed shards (clamped to ≥ 1) plus the wildcard shard.
    pub fn new(
        shards: usize,
        clock: VirtualClock,
        costs: FanoutCosts,
        tel: Telemetry,
        stack: &'static str,
    ) -> Self {
        let shards = shards.max(1);
        ShardedTable {
            shards: (0..=shards)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            locations: Mutex::new(HashMap::new()),
            next_reg: AtomicU64::new(0),
            clock,
            costs,
            stats: FanoutStats::new(shards + 1),
            tel,
            stack,
        }
    }

    /// A free, untelemetered table for tests.
    pub fn free(shards: usize, stack: &'static str) -> Self {
        ShardedTable::new(
            shards,
            VirtualClock::new(),
            FanoutCosts::free(),
            Telemetry::disabled(),
            stack,
        )
    }

    /// Routed shard count (excluding the wildcard shard).
    pub fn shard_count(&self) -> usize {
        self.shards.len() - 1
    }

    fn wild(&self) -> usize {
        self.shards.len() - 1
    }

    /// The shard a literal root name routes to.
    pub fn shard_of(&self, root: &str) -> usize {
        (hash_str(root) % (self.shards.len() as u64 - 1)) as usize
    }

    fn shard_for_topic(&self, topic: &CompiledTopic) -> usize {
        match topic.root_name() {
            Some(root) => self.shard_of(root),
            None => self.wild(),
        }
    }

    pub fn stats(&self) -> &FanoutStats {
        &self.stats
    }

    fn charge(&self, shard: usize, cost: SimDuration) {
        self.clock.advance(cost);
        self.stats.add_busy(shard, cost);
    }

    /// Shard write lock, counting contended acquisitions in
    /// `wsn.shard_contention{stack,shard}` (the xmldb idiom).
    fn write_shard(&self, shard: usize) -> std::sync::RwLockWriteGuard<'_, Shard<T>> {
        if let Some(g) = self.shards[shard].try_write() {
            return g;
        }
        self.note_contention(shard);
        self.shards[shard].write()
    }

    fn read_shard(&self, shard: usize) -> std::sync::RwLockReadGuard<'_, Shard<T>> {
        if let Some(g) = self.shards[shard].try_read() {
            return g;
        }
        self.note_contention(shard);
        self.shards[shard].read()
    }

    fn note_contention(&self, shard: usize) {
        self.stats.inner.contentions.fetch_add(1, Ordering::Relaxed);
        let label = if shard == self.wild() {
            "wild".to_owned()
        } else {
            shard.to_string()
        };
        self.tel.metrics().inc(
            "wsn.shard_contention",
            &[("stack", self.stack), ("shard", &label)],
        );
    }

    /// Insert (or replace) a subscription under its compiled expression.
    pub fn insert(&self, sub: T, topic: CompiledTopic, paused: bool) {
        self.remove(sub.sub_id());
        let shard = self.shard_for_topic(&topic);
        let reg = self.next_reg.fetch_add(1, Ordering::Relaxed);
        let id = sub.sub_id().to_owned();
        self.charge(shard, self.costs.mutate);
        {
            let mut s = self.write_shard(shard);
            s.trie.insert(reg, &topic);
            s.entries.insert(reg, Entry { paused, sub });
        }
        self.locations.lock().insert(id, Location { shard, reg });
        self.stats.inner.subscribers[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Evict a subscription by id; false if unknown. This is the leak fix's
    /// entry point: WS-RL expiry destructors and `Destroy` handlers call it
    /// so dead subscribers leave the fan-out path immediately.
    pub fn remove(&self, sub_id: &str) -> bool {
        let Some(loc) = self.locations.lock().remove(sub_id) else {
            return false;
        };
        self.charge(loc.shard, self.costs.mutate);
        {
            let mut s = self.write_shard(loc.shard);
            s.trie.remove(loc.reg);
            s.entries.remove(&loc.reg);
        }
        self.stats.inner.subscribers[loc.shard].fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Flip a subscription's paused flag; false if unknown.
    pub fn set_paused(&self, sub_id: &str, paused: bool) -> bool {
        let locations = self.locations.lock();
        let Some(loc) = locations.get(sub_id) else {
            return false;
        };
        self.charge(loc.shard, self.costs.mutate);
        let mut s = self.write_shard(loc.shard);
        match s.entries.get_mut(&loc.reg) {
            Some(e) => {
                e.paused = paused;
                true
            }
            None => false,
        }
    }

    /// Replace a stored subscription's payload in place (renewals).
    pub fn update(&self, sub: T) -> bool {
        let locations = self.locations.lock();
        let Some(loc) = locations.get(sub.sub_id()) else {
            return false;
        };
        self.charge(loc.shard, self.costs.mutate);
        let mut s = self.write_shard(loc.shard);
        match s.entries.get_mut(&loc.reg) {
            Some(e) => {
                e.sub = sub;
                true
            }
            None => false,
        }
    }

    /// How many subscriptions are indexed.
    pub fn len(&self) -> usize {
        self.locations.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn collect_shard(&self, shard: usize, path: &[&str], out: &mut Vec<T>) -> usize {
        let s = self.read_shard(shard);
        let mut ids = Vec::new();
        s.trie.resolve(path, &mut ids);
        let mut n = 0;
        for reg in ids {
            if let Some(e) = s.entries.get(&reg) {
                if !e.paused {
                    out.push(e.sub.clone());
                    n += 1;
                }
            }
        }
        n
    }

    /// Resolve a concrete topic path to its unpaused subscriber set in one
    /// trie walk per consulted shard (the routed shard + the wildcard
    /// shard). Results are sorted by subscription id, which matches the
    /// BTreeMap document order the naive database scan produced — so the
    /// delivery order (and therefore every virtual-time figure) is
    /// unchanged by the index.
    pub fn resolve(&self, path: &[&str]) -> Vec<T> {
        let mut out = Vec::new();
        if path.is_empty() {
            return out;
        }
        let shard = self.shard_of(path[0]);
        let n = self.collect_shard(shard, path, &mut out);
        self.charge(
            shard,
            self.costs.resolve_fixed + self.costs.per_candidate * n as u64,
        );
        let wild = self.wild();
        let w = self.collect_shard(wild, path, &mut out);
        if w > 0 {
            self.charge(wild, self.costs.per_candidate * w as u64);
        }
        out.sort_by(|a, b| a.sub_id().cmp(b.sub_id()));
        out
    }

    /// Every indexed subscription (paused included), sorted by id — the
    /// broker's demand bookkeeping and restart rebuilds use this.
    pub fn all(&self) -> Vec<(T, bool)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            out.extend(s.entries.values().map(|e| (e.sub.clone(), e.paused)));
        }
        out.sort_by(|a, b| a.0.sub_id().cmp(b.0.sub_id()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Sub {
        id: String,
        to: EndpointReference,
    }

    impl Sub {
        fn new(id: &str) -> Self {
            Sub {
                id: id.to_owned(),
                to: EndpointReference::service("http://c/x"),
            }
        }
    }

    impl Subscriber for Sub {
        fn sub_id(&self) -> &str {
            &self.id
        }
        fn endpoint(&self) -> &EndpointReference {
            &self.to
        }
    }

    fn table(shards: usize) -> ShardedTable<Sub> {
        ShardedTable::free(shards, "wsn")
    }

    #[test]
    fn routes_by_root_and_consults_wildcard_shard() {
        let t = table(8);
        t.insert(Sub::new("a"), CompiledTopic::simple("jobs"), false);
        t.insert(Sub::new("b"), CompiledTopic::full("//exited"), false);
        t.insert(Sub::new("c"), CompiledTopic::concrete("data/x"), false);
        let hits = t.resolve(&["jobs", "exited"]);
        let ids: Vec<&str> = hits.iter().map(|s| s.sub_id()).collect();
        assert_eq!(ids, ["a", "b"]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn paused_entries_do_not_resolve() {
        let t = table(4);
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), false);
        assert_eq!(t.resolve(&["t"]).len(), 1);
        assert!(t.set_paused("a", true));
        assert!(t.resolve(&["t"]).is_empty());
        assert!(t.set_paused("a", false));
        assert_eq!(t.resolve(&["t"]).len(), 1);
    }

    #[test]
    fn remove_evicts_immediately() {
        let t = table(4);
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), false);
        assert!(t.remove("a"));
        assert!(!t.remove("a"));
        assert!(t.resolve(&["t"]).is_empty());
        assert_eq!(t.stats().subscribers().iter().sum::<u64>(), 0);
    }

    #[test]
    fn reinsert_replaces() {
        let t = table(4);
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), false);
        t.insert(Sub::new("a"), CompiledTopic::simple("u"), false);
        assert_eq!(t.len(), 1);
        assert!(t.resolve(&["t"]).is_empty());
        assert_eq!(t.resolve(&["u"]).len(), 1);
    }

    #[test]
    fn resolve_order_is_lexicographic_by_id() {
        let t = table(2);
        for id in ["sub-2", "sub-0", "sub-10", "sub-1"] {
            t.insert(Sub::new(id), CompiledTopic::simple("t"), false);
        }
        let ids: Vec<String> = t.resolve(&["t"]).into_iter().map(|s| s.id).collect();
        assert_eq!(ids, ["sub-0", "sub-1", "sub-10", "sub-2"]);
    }

    #[test]
    fn cost_is_shard_count_invariant() {
        for shards in [1, 4, 16] {
            let clock = VirtualClock::new();
            let t = ShardedTable::new(
                shards,
                clock.clone(),
                FanoutCosts {
                    resolve_fixed: SimDuration::from_micros(7),
                    per_candidate: SimDuration::from_micros(3),
                    mutate: SimDuration::from_micros(5),
                },
                Telemetry::disabled(),
                "wsn",
            );
            for i in 0..10 {
                t.insert(
                    Sub::new(&format!("s{i}")),
                    CompiledTopic::simple("t"),
                    false,
                );
            }
            let before = clock.now();
            assert_eq!(t.resolve(&["t", "x"]).len(), 10);
            let cost = clock.now().since(before);
            assert_eq!(
                cost,
                SimDuration::from_micros(7 + 3 * 10),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn busy_time_spreads_across_shards() {
        let t = ShardedTable::new(
            8,
            VirtualClock::new(),
            FanoutCosts {
                resolve_fixed: SimDuration::from_micros(10),
                per_candidate: SimDuration::ZERO,
                mutate: SimDuration::ZERO,
            },
            Telemetry::disabled(),
            "wsn",
        );
        for i in 0..64 {
            let root = format!("root{i}");
            t.insert(
                Sub::new(&format!("s{i}")),
                CompiledTopic::simple(&root),
                false,
            );
            t.resolve(&[root.as_str()]);
        }
        let busy = t.stats().busy_us();
        let loaded = busy.iter().filter(|&&b| b > 0).count();
        assert!(loaded >= 4, "expected spread, got {busy:?}");
        assert!(
            t.stats().max_busy_us() < 640,
            "no shard absorbed everything"
        );
    }
}
