//! The sharded subscription table.
//!
//! Subscriptions are routed to shards by the FNV-1a hash of their
//! expression's literal root segment (`ogsa_sim::shard::Shards`, the same
//! sharded-lock table the xmldb collections use), so concurrent
//! Subscribe/Unsubscribe/Notify on different topic roots take different
//! locks. Expressions whose head is a wildcard (`*`, `//`, or a
//! match-everything filter) cannot be routed and live in a dedicated
//! *wildcard shard*, the table's one unrouted shard, that every resolve
//! also consults.
//!
//! Entries are `Arc<T>`: a resolve, [`ShardedTable::all`] and the deliverer's
//! per-subscriber slots hand out the `Arc`, so no subscription (EPR, topic
//! expression, strings) is deep-cloned per match or per parked batch. Each
//! shard also keeps the [`crate::filter`] index: content filters compiled
//! once at insert and grouped by text, so [`ShardedTable::resolve_matching`]
//! evaluates each distinct filter among an event's candidates once.
//!
//! Exactly like the PR-3 xmldb collections, the shard count never changes
//! what an operation *costs* — it only changes which lock it takes and
//! which shard's busy time the cost is attributed to. The `fanout` bench's
//! makespan model (notifications/sec = work / max per-shard busy) therefore
//! scales with shard count by construction, and `comparison::fanout`'s
//! shard-sweep test catches any routing regression that piles work onto
//! one shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_sim::shard::Shards;
use ogsa_sim::{CostModel, SimDuration, VirtualClock};
use ogsa_telemetry::{MetricsRegistry, Telemetry};
use ogsa_xml::{Element, XmlResult};
use parking_lot::Mutex;

use crate::filter::{ContentFilter, FilterGroups};
use crate::outbox::Deliverer;
use crate::trie::{CompiledTopic, TopicTrie};

/// What the fan-out core needs to know about a stack's subscription type.
pub trait Subscriber: Send + Sync + 'static {
    /// Stable subscription id (the WS-Resource id / WS-Eventing id).
    fn sub_id(&self) -> &str;
    /// Where deliveries go (dead letters are recorded against this).
    fn endpoint(&self) -> &EndpointReference;
}

/// One shard's cells: busy microseconds (the makespan model's input),
/// subscribers and outbox depth (scrape-time gauges).
const BUSY: usize = 0;
const SUBSCRIBERS: usize = 1;
pub(crate) const DEPTH: usize = 2;

/// The per-stack counters, registered at zero so a scrape shows them.
const COUNTERS: [&str; 3] = [
    "wsn.backpressure_drops",
    "wsn.filter_compilations",
    "wsn.filter_evaluations",
];

/// What the table and the deliverer share: the per-shard cells, wildcard
/// shard last, and a read view over the stack's counters in the table's
/// registry — `wsn.shard_contention{stack,shard}` and the [`COUNTERS`],
/// labelled `{stack}` (the `wsn.` prefix names the shared fan-out core; the
/// `stack` label says which stack's table this is). A counter reads what
/// every table of the stack on that registry counted.
#[derive(Clone)]
pub struct FanoutStats {
    cells: Arc<[[AtomicU64; 3]]>,
    metrics: MetricsRegistry,
    stack: &'static str,
}

impl FanoutStats {
    fn new(shards: usize, metrics: MetricsRegistry, stack: &'static str) -> Self {
        metrics.add_all(&[("stack", stack)], &COUNTERS.map(|name| (name, 0)));
        let cells = (0..shards).map(|_| Default::default()).collect();
        FanoutStats {
            cells,
            metrics,
            stack,
        }
    }

    /// Shard count including the wildcard shard (the last slot).
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The shard label of slot `shard`: its index, or `wild` for the last.
    fn shard_label(&self, shard: usize) -> String {
        if shard + 1 == self.shards() {
            "wild".to_owned()
        } else {
            shard.to_string()
        }
    }

    fn column(&self, cell: usize) -> Vec<u64> {
        let read = |shard: &[AtomicU64; 3]| shard[cell].load(Ordering::Relaxed);
        self.cells.iter().map(read).collect()
    }

    pub(crate) fn add(&self, shard: usize, cell: usize, n: u64) {
        self.cells[shard][cell].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub(&self, shard: usize, cell: usize, n: u64) {
        self.cells[shard][cell].fetch_sub(n, Ordering::Relaxed);
    }

    /// Per-shard busy microseconds (wildcard shard last).
    pub fn busy_us(&self) -> Vec<u64> {
        self.column(BUSY)
    }

    pub fn subscribers(&self) -> Vec<u64> {
        self.column(SUBSCRIBERS)
    }

    /// Add `n` to this stack's `name{stack}` counter.
    pub(crate) fn count(&self, name: &str, n: u64) {
        self.metrics.add(name, &[("stack", self.stack)], n);
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name, &[("stack", self.stack)])
    }

    /// One more contended acquire of `shard`'s lock.
    fn note_contention(&self, shard: usize) {
        let label = self.shard_label(shard);
        let labels = [("shard", label.as_str()), ("stack", self.stack)];
        self.metrics.inc("wsn.shard_contention", &labels);
    }

    /// Contended shard-lock acquisitions, over every shard.
    pub fn contentions(&self) -> u64 {
        (0..self.shards())
            .map(|i| {
                let shard = self.shard_label(i);
                let labels = [("shard", shard.as_str()), ("stack", self.stack)];
                self.metrics.counter("wsn.shard_contention", &labels)
            })
            .sum()
    }

    pub fn backpressure_drops(&self) -> u64 {
        self.counter("wsn.backpressure_drops")
    }

    /// Content filters compiled (one per filtered insert; never on the
    /// notify path).
    pub fn filter_compilations(&self) -> u64 {
        self.counter("wsn.filter_compilations")
    }

    /// Content-filter evaluations: one per distinct filter among an
    /// event's candidates.
    pub fn filter_evaluations(&self) -> u64 {
        self.counter("wsn.filter_evaluations")
    }

    /// Publish the gauges `wsn.subscribers{stack,shard}` and
    /// `wsn.outbox_depth{stack,shard}` on every `gather()` of the registry,
    /// so deterministic `snapshot()` comparisons are unaffected.
    pub fn register_gauges(&self) {
        let (cells, stack) = (self.cells.clone(), self.stack);
        let labels: Vec<String> = (0..self.shards()).map(|i| self.shard_label(i)).collect();
        self.metrics.register_collector(move |snap| {
            for (name, cell) in [
                ("wsn.subscribers", SUBSCRIBERS),
                ("wsn.outbox_depth", DEPTH),
            ] {
                for (shard, cells) in labels.iter().zip(cells.iter()) {
                    let value = cells[cell].load(Ordering::Relaxed);
                    snap.set_gauge(name, &[("stack", stack), ("shard", shard)], value);
                }
            }
        });
    }
}

struct Shard<T> {
    trie: TopicTrie,
    entries: HashMap<u64, Entry<T>>,
    filters: FilterGroups,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            trie: TopicTrie::new(),
            entries: HashMap::new(),
            filters: FilterGroups::default(),
        }
    }
}

struct Entry<T> {
    paused: bool,
    sub: Arc<T>,
    /// The entry's group in the shard's filter index, if it has a filter.
    filter: Option<usize>,
}

struct Location {
    shard: usize,
    reg: u64,
}

/// The sharded subscription table: `shards` routed shards plus one wildcard
/// shard (index `shards`), each holding a trie + entry map behind its own
/// `RwLock`; a contended acquire counts in `wsn.shard_contention{stack,shard}`.
///
/// Every operation costs one price, the model's `cache_hit_us`: an
/// in-memory index op is a cache hit, not a database query. A mutation
/// (insert, remove, pause, update) pays it once; a resolve pays it once for
/// the walk and once per trie-matched, unpaused candidate — whether or not
/// its content filter then accepts, and however many candidates share one
/// compiled filter (the filter index moves the wall clock only). The cost
/// depends on the candidate count, never on how many shards the table has.
pub struct ShardedTable<T: Subscriber> {
    shards: Shards<Shard<T>>,
    locations: Mutex<HashMap<String, Location>>,
    next_reg: AtomicU64,
    clock: VirtualClock,
    op: SimDuration,
    stats: FanoutStats,
    /// The deliverers draining this table's subscribers
    /// ([`Deliverer::new`] registers each).
    deliverers: Mutex<Vec<Deliverer<T>>>,
}

impl<T: Subscriber> ShardedTable<T> {
    /// `shards` routed shards (clamped to ≥ 1) plus the wildcard shard,
    /// priced by `model`, counting into `tel`'s registry under `stack`.
    pub fn new(
        shards: usize,
        clock: VirtualClock,
        model: &CostModel,
        tel: Telemetry,
        stack: &'static str,
    ) -> Self {
        let shards = shards.max(1);
        let stats = FanoutStats::new(shards + 1, tel.metrics().clone(), stack);
        let counting = stats.clone();
        ShardedTable {
            shards: Shards::new(shards, 1, Shard::default, move |shard| {
                counting.note_contention(shard)
            }),
            locations: Mutex::new(HashMap::new()),
            next_reg: AtomicU64::new(0),
            clock,
            op: SimDuration::from_micros(model.cache_hit_us),
            stats,
            deliverers: Mutex::new(Vec::new()),
        }
    }

    /// A free, untelemetered table for tests.
    pub fn free(shards: usize, stack: &'static str) -> Self {
        ShardedTable::new(
            shards,
            VirtualClock::new(),
            &CostModel::free(),
            Telemetry::disabled(),
            stack,
        )
    }

    pub(crate) fn attach(&self, deliverer: Deliverer<T>) {
        self.deliverers.lock().push(deliverer);
    }

    /// Routed shard count (excluding the wildcard shard).
    pub fn shard_count(&self) -> usize {
        self.shards.routed()
    }

    fn wild(&self) -> usize {
        self.shards.routed()
    }

    /// The shard a literal root name routes to.
    pub fn shard_of(&self, root: &str) -> usize {
        self.shards.route(root)
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
        self.stats.add(shard, BUSY, cost.as_micros());
    }

    /// Compile a content filter for a subscription about to enter this
    /// table — the only compilation the filter ever gets (counted in
    /// `wsn.filter_compilations`). Errors are the caller's to fault on.
    pub fn compile_filter(&self, text: &str) -> XmlResult<ContentFilter> {
        self.stats.count("wsn.filter_compilations", 1);
        ContentFilter::compile(text)
    }

    /// As [`ShardedTable::compile_filter`], for callers with nobody to
    /// fault (a stored subscription re-indexed at restart, a stack that
    /// never validated): a text that does not compile becomes a filter
    /// that matches nothing.
    pub fn compile_filter_lenient(&self, text: &str) -> ContentFilter {
        self.compile_filter(text)
            .unwrap_or_else(|_| ContentFilter::matches_nothing(text))
    }

    /// Insert (or replace) a subscription under its compiled expression
    /// and, if it has one, its compiled content filter.
    pub fn insert(
        &self,
        sub: T,
        topic: CompiledTopic,
        filter: Option<ContentFilter>,
        paused: bool,
    ) {
        self.unlink(sub.sub_id());
        let shard = self.shard_for_topic(&topic);
        let reg = self.next_reg.fetch_add(1, Ordering::Relaxed);
        let id = sub.sub_id().to_owned();
        self.charge(shard, self.op);
        {
            let mut s = self.shards.write(shard);
            s.trie.insert(reg, &topic);
            let filter = filter.map(|f| s.filters.join(f));
            let sub = Arc::new(sub);
            s.entries.insert(
                reg,
                Entry {
                    paused,
                    sub,
                    filter,
                },
            );
        }
        self.locations.lock().insert(id, Location { shard, reg });
        self.stats.add(shard, SUBSCRIBERS, 1);
    }

    /// Evict a subscription by id, returning it; `None` if unknown. Every
    /// way a subscription ends — `Destroy`, `Unsubscribe`, expiry on either
    /// stack — comes here, and nothing in the fan-out plane outlives it:
    /// each deliverer discards what is parked for it (as backpressure drops
    /// and dead letters) and forgets its ledger row.
    pub fn remove(&self, sub_id: &str) -> Option<Arc<T>> {
        let sub = self.unlink(sub_id)?;
        let deliverers = self.deliverers.lock().clone();
        for deliverer in deliverers {
            deliverer.forget(sub_id);
        }
        Some(sub)
    }

    /// Take a subscription out of its shard, leaving the deliverers alone.
    fn unlink(&self, sub_id: &str) -> Option<Arc<T>> {
        let loc = self.locations.lock().remove(sub_id)?;
        self.charge(loc.shard, self.op);
        let entry = {
            let mut s = self.shards.write(loc.shard);
            s.trie.remove(loc.reg);
            let entry = s.entries.remove(&loc.reg);
            if let Some(slot) = entry.as_ref().and_then(|e| e.filter) {
                s.filters.leave(slot);
            }
            entry
        };
        self.stats.sub(loc.shard, SUBSCRIBERS, 1);
        entry.map(|e| e.sub)
    }

    /// Flip a subscription's paused flag; false if unknown.
    pub fn set_paused(&self, sub_id: &str, paused: bool) -> bool {
        let locations = self.locations.lock();
        let Some(loc) = locations.get(sub_id) else {
            return false;
        };
        self.charge(loc.shard, self.op);
        let mut s = self.shards.write(loc.shard);
        match s.entries.get_mut(&loc.reg) {
            Some(e) => {
                e.paused = paused;
                true
            }
            None => false,
        }
    }

    /// Replace a stored subscription's payload in place (renewals),
    /// returning the replaced one; `None` if unknown. Topic and content
    /// filter stay as registered at insert.
    pub fn update(&self, sub: T) -> Option<Arc<T>> {
        let locations = self.locations.lock();
        let loc = locations.get(sub.sub_id())?;
        self.charge(loc.shard, self.op);
        let mut s = self.shards.write(loc.shard);
        let e = s.entries.get_mut(&loc.reg)?;
        Some(std::mem::replace(&mut e.sub, Arc::new(sub)))
    }

    /// How many subscriptions are indexed.
    pub fn len(&self) -> usize {
        self.locations.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One shard's contribution to a resolve: returns the candidate count
    /// (trie-matched and unpaused — what virtual time charges), pushing
    /// onto `out` those whose content filter also accepts `message`.
    fn collect_shard(
        &self,
        shard: usize,
        path: &[&str],
        message: Option<&Element>,
        out: &mut Vec<Arc<T>>,
    ) -> usize {
        let s = self.shards.read(shard);
        let mut ids = Vec::new();
        s.trie.resolve(path, &mut ids);
        let mut verdicts = s.filters.verdicts();
        let mut n = 0;
        for reg in ids {
            let Some(e) = s.entries.get(&reg) else {
                continue;
            };
            if e.paused {
                continue;
            }
            n += 1;
            let accepted = match (e.filter, message) {
                (Some(slot), Some(message)) => verdicts.accepts(slot, message),
                _ => true,
            };
            if accepted {
                out.push(e.sub.clone());
            }
        }
        if verdicts.evaluations > 0 {
            self.stats
                .count("wsn.filter_evaluations", verdicts.evaluations);
        }
        n
    }

    fn resolve_inner(&self, path: &[&str], message: Option<&Element>) -> Vec<Arc<T>> {
        let mut out = Vec::new();
        if path.is_empty() {
            return out;
        }
        let shard = self.shard_of(path[0]);
        let n = self.collect_shard(shard, path, message, &mut out);
        self.charge(shard, self.op * (1 + n as u64));
        let wild = self.wild();
        let w = self.collect_shard(wild, path, message, &mut out);
        if w > 0 {
            self.charge(wild, self.op * w as u64);
        }
        out.sort_by(|a, b| a.sub_id().cmp(b.sub_id()));
        out
    }

    /// Resolve a concrete topic path to its unpaused subscriber set in one
    /// trie walk per consulted shard (the routed shard + the wildcard
    /// shard), content filters not consulted. Results are sorted by
    /// subscription id, which matches the BTreeMap document order the naive
    /// database scan produced — so the delivery order (and therefore every
    /// virtual-time figure) is unchanged by the index.
    pub fn resolve(&self, path: &[&str]) -> Vec<Arc<T>> {
        self.resolve_inner(path, None)
    }

    /// [`ShardedTable::resolve`], keeping only subscriptions whose content
    /// filter accepts `message`. Each distinct filter among the candidates
    /// is evaluated once; the virtual-time charge is `resolve`'s — every
    /// candidate, accepted or not.
    pub fn resolve_matching(&self, path: &[&str], message: &Element) -> Vec<Arc<T>> {
        self.resolve_inner(path, Some(message))
    }

    /// Every indexed subscription (paused included), sorted by id — the
    /// broker's demand bookkeeping and restart rebuilds use this.
    pub fn all(&self) -> Vec<(Arc<T>, bool)> {
        let shards = self.shards.read_all();
        let entries = shards.iter().flat_map(|s| s.entries.values());
        let mut out: Vec<_> = entries.map(|e| (e.sub.clone(), e.paused)).collect();
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

    /// A model whose table operations cost `us` each.
    fn priced(us: u64) -> CostModel {
        CostModel {
            cache_hit_us: us,
            ..CostModel::free()
        }
    }

    #[test]
    fn routes_by_root_and_consults_wildcard_shard() {
        let t = table(8);
        t.insert(Sub::new("a"), CompiledTopic::simple("jobs"), None, false);
        t.insert(Sub::new("b"), CompiledTopic::full("//exited"), None, false);
        t.insert(
            Sub::new("c"),
            CompiledTopic::concrete("data/x"),
            None,
            false,
        );
        let hits = t.resolve(&["jobs", "exited"]);
        let ids: Vec<&str> = hits.iter().map(|s| s.sub_id()).collect();
        assert_eq!(ids, ["a", "b"]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn paused_entries_do_not_resolve() {
        let t = table(4);
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), None, false);
        assert_eq!(t.resolve(&["t"]).len(), 1);
        assert!(t.set_paused("a", true));
        assert!(t.resolve(&["t"]).is_empty());
        assert!(t.set_paused("a", false));
        assert_eq!(t.resolve(&["t"]).len(), 1);
    }

    #[test]
    fn remove_evicts_immediately() {
        let t = table(4);
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), None, false);
        assert!(t.remove("a").is_some());
        assert!(t.remove("a").is_none());
        assert!(t.resolve(&["t"]).is_empty());
        assert_eq!(t.stats().subscribers().iter().sum::<u64>(), 0);
    }

    #[test]
    fn reinsert_replaces() {
        let t = table(4);
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), None, false);
        t.insert(Sub::new("a"), CompiledTopic::simple("u"), None, false);
        assert_eq!(t.len(), 1);
        assert!(t.resolve(&["t"]).is_empty());
        assert_eq!(t.resolve(&["u"]).len(), 1);
    }

    #[test]
    fn resolve_order_is_lexicographic_by_id() {
        let t = table(2);
        for id in ["sub-2", "sub-0", "sub-10", "sub-1"] {
            t.insert(Sub::new(id), CompiledTopic::simple("t"), None, false);
        }
        let ids: Vec<String> = t.resolve(&["t"]).iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids, ["sub-0", "sub-1", "sub-10", "sub-2"]);
    }

    #[test]
    fn each_distinct_filter_is_evaluated_once_and_every_candidate_is_charged() {
        let clock = VirtualClock::new();
        let t = ShardedTable::new(4, clock.clone(), &priced(3), Telemetry::disabled(), "wsn");
        for i in 0..9 {
            let filter = t.compile_filter(&format!("/E[@k='{}']", i % 3)).unwrap();
            let topic = if i < 6 {
                CompiledTopic::simple("t")
            } else {
                CompiledTopic::full("//x")
            };
            t.insert(Sub::new(&format!("s{i}")), topic, Some(filter), false);
        }
        t.insert(Sub::new("open"), CompiledTopic::simple("t"), None, false);
        t.insert(
            Sub::new("dead"),
            CompiledTopic::simple("t"),
            Some(t.compile_filter_lenient("///bad")),
            false,
        );
        assert!(t.set_paused("s0", true));
        assert_eq!(t.stats().filter_compilations(), 10);

        let before = clock.now();
        let event = Element::new("E").with_attr("k", "1");
        let ids: Vec<String> = t
            .resolve_matching(&["t", "x"], &event)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        assert_eq!(ids, ["open", "s1", "s4", "s7"]);
        // Routed shard: 3 filters + the dead one; wildcard shard: 3 more.
        assert_eq!(t.stats().filter_evaluations(), 7);
        // The walk and 10 unpaused candidates charged, accepted or not.
        assert_eq!(
            clock.now().since(before),
            SimDuration::from_micros(3 * (1 + 10))
        );
        assert_eq!(t.resolve(&["t", "x"]).len(), 10, "filters not consulted");
        assert_eq!(t.stats().filter_evaluations(), 7);
        assert_eq!(t.stats().filter_compilations(), 10, "none per event");
    }

    #[test]
    fn an_entry_leaves_its_filter_group_when_replaced_or_removed() {
        let t = table(1);
        let f = |text: &str| Some(t.compile_filter(text).unwrap());
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), f("/A"), false);
        t.insert(Sub::new("b"), CompiledTopic::simple("t"), f("/A"), false);
        // Re-insert under another filter; an update keeps the filter.
        t.insert(Sub::new("a"), CompiledTopic::simple("t"), f("/B"), false);
        assert!(t.update(Sub::new("b")).is_some());
        assert!(t.update(Sub::new("ghost")).is_none());
        let ids = |root: &str| -> Vec<String> {
            t.resolve_matching(&["t"], &Element::new(root))
                .iter()
                .map(|s| s.id.clone())
                .collect()
        };
        assert_eq!(ids("A"), ["b"]);
        assert_eq!(ids("B"), ["a"]);
        assert!(t.remove("a").is_some());
        assert!(t.remove("b").is_some());
        assert!(ids("A").is_empty());
        let evaluated = t.stats().filter_evaluations();
        assert_eq!(evaluated, 4, "2 groups x 2 events; none once empty");
    }

    #[test]
    fn cost_is_shard_count_invariant() {
        for shards in [1, 4, 16] {
            let clock = VirtualClock::new();
            let t = ShardedTable::new(
                shards,
                clock.clone(),
                &priced(3),
                Telemetry::disabled(),
                "wsn",
            );
            for i in 0..10 {
                t.insert(
                    Sub::new(&format!("s{i}")),
                    CompiledTopic::simple("t"),
                    None,
                    false,
                );
            }
            let before = clock.now();
            assert_eq!(t.resolve(&["t", "x"]).len(), 10);
            let cost = clock.now().since(before);
            assert_eq!(
                cost,
                SimDuration::from_micros(3 * (1 + 10)),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn busy_time_spreads_across_shards() {
        let t = ShardedTable::new(
            8,
            VirtualClock::new(),
            &priced(10),
            Telemetry::disabled(),
            "wsn",
        );
        for i in 0..64 {
            let root = format!("root{i}");
            t.insert(
                Sub::new(&format!("s{i}")),
                CompiledTopic::simple(&root),
                None,
                false,
            );
            t.resolve(&[root.as_str()]);
        }
        let busy = t.stats().busy_us();
        let loaded = busy.iter().filter(|&&b| b > 0).count();
        assert!(loaded >= 4, "expected spread, got {busy:?}");
        let total: u64 = busy.iter().sum();
        assert!(
            busy.iter().max() < Some(&total),
            "no shard absorbed everything"
        );
    }
}
