//! The database and its collections.
//!
//! Collections are **key-sharded**: each collection spreads its documents
//! over `DbConfig::shards` independently locked BTreeMaps, so writers to
//! different resources proceed in parallel while writers to the same key
//! still serialise on that key's shard. The shard count never changes what
//! an operation *costs* — single-client virtual-time figures are identical
//! at any shard count — it only changes which lock an operation takes and
//! which shard its cost is attributed to in [`DbStats`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use ogsa_sim::shard::Shards;
use ogsa_sim::{CostModel, SimDuration, VirtualClock};
use ogsa_telemetry::{SpanKind, Telemetry};
use ogsa_xml::{write_document, Element, XPath, XPathContext};
use parking_lot::RwLock;

use crate::backend::{BackendKind, CostProfile};
use crate::error::DbError;
use crate::stats::{DbStats, MAX_SHARDS};

/// Default shard count for new databases. Sharding is cost-invariant, so
/// this only affects how much parallelism concurrent clients can extract.
pub const DEFAULT_SHARDS: usize = 8;

/// Structural configuration for a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbConfig {
    /// Shards per collection, clamped to `1..=`[`MAX_SHARDS`].
    pub shards: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            shards: DEFAULT_SHARDS,
        }
    }
}

/// Observer invoked with the key of every document that is updated or
/// removed through the collection, after the shard lock is released.
/// [`crate::ResourceCache`] registers one so direct collection mutations
/// (service groups, sweepers, a second cache) invalidate its entries.
pub type InvalidationHook = Arc<dyn Fn(&str) + Send + Sync>;

/// A database: a set of named collections sharing a clock, cost model and
/// stats. Cloning shares the underlying store.
///
/// A database belongs to a host, whose name labels its `db.*{host}` series
/// in the telemetry's registry — an identity, like a collection's name.
#[derive(Debug, Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

#[derive(Debug)]
struct DbInner {
    collections: RwLock<HashMap<String, Arc<Collection>>>,
    clock: VirtualClock,
    model: Arc<CostModel>,
    default_backend: BackendKind,
    config: DbConfig,
    stats: DbStats,
    tel: Telemetry,
}

impl Database {
    /// A database with the given clock/model and default backend for new
    /// collections, on host `local`. Not traced — see
    /// [`Database::with_config`].
    pub fn new(clock: VirtualClock, model: Arc<CostModel>, default_backend: BackendKind) -> Self {
        Database::with_config(
            "local",
            clock,
            model,
            default_backend,
            Telemetry::disabled(),
            DbConfig::default(),
        )
    }

    /// Full-control constructor: the database of `host`, opening `db` spans
    /// and counting into `tel` (which should share `clock`, so span
    /// durations line up with charged costs), with structural configuration.
    pub fn with_config(
        host: &str,
        clock: VirtualClock,
        model: Arc<CostModel>,
        default_backend: BackendKind,
        tel: Telemetry,
        config: DbConfig,
    ) -> Self {
        let config = DbConfig {
            shards: config.shards.clamp(1, MAX_SHARDS),
        };
        Database {
            inner: Arc::new(DbInner {
                collections: RwLock::new(HashMap::new()),
                clock,
                model,
                default_backend,
                config,
                stats: DbStats::new(tel.metrics().clone(), host),
                tel,
            }),
        }
    }

    /// A free, in-memory database for functional tests.
    pub fn in_memory_free() -> Self {
        Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Memory,
        )
    }

    /// Get or create a collection with the database default backend.
    pub fn collection(&self, name: &str) -> Arc<Collection> {
        self.collection_with_backend(name, self.inner.default_backend.clone())
    }

    /// Get or create a collection with an explicit backend.
    pub fn collection_with_backend(&self, name: &str, backend: BackendKind) -> Arc<Collection> {
        if let Some(c) = self.inner.collections.read().get(name) {
            return c.clone();
        }
        let mut colls = self.inner.collections.write();
        colls
            .entry(name.to_owned())
            .or_insert_with(|| {
                let metrics = self.inner.tel.metrics().clone();
                let (collection, host) = (name.to_owned(), self.inner.stats.host().to_owned());
                let on_contention = move |_| {
                    let labels = [("collection", &*collection), ("host", &*host)];
                    metrics.inc("db.shard_contention", &labels);
                };
                Arc::new(Collection {
                    name: name.to_owned(),
                    shards: Shards::new(self.inner.config.shards, 0, BTreeMap::new, on_contention),
                    clock: self.inner.clock.clone(),
                    profile: backend.cost_profile(&self.inner.model),
                    backend,
                    stats: self.inner.stats.clone(),
                    tel: self.inner.tel.clone(),
                    invalidation_hooks: RwLock::new(Vec::new()),
                })
            })
            .clone()
    }

    /// Existing collection, or an error.
    pub fn existing(&self, name: &str) -> Result<Arc<Collection>, DbError> {
        self.inner
            .collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchCollection {
                name: name.to_owned(),
            })
    }

    /// Drop a collection and all of its documents.
    pub fn drop_collection(&self, name: &str) -> bool {
        self.inner.collections.write().remove(name).is_some()
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.inner.collections.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Shared operation counters.
    pub fn stats(&self) -> &DbStats {
        &self.inner.stats
    }

    /// The structural configuration collections are created with.
    pub fn config(&self) -> DbConfig {
        self.inner.config
    }

    /// The clock costs are charged to.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }
}

/// A document at rest: the tree plus its lazily computed serialized form.
///
/// Every write path installs a fresh `Stored` (fresh, empty `OnceLock`), so
/// the cached bytes can never go stale — invalidation is the replacement
/// itself. The bytes are computed at most once per stored version, under
/// the shard's read lock, and shared out as `Arc<str>` so repeated
/// get/serialize round-trips of a hot document do no serialisation work.
#[derive(Debug)]
struct Stored {
    doc: Element,
    wire: OnceLock<Arc<str>>,
}

impl Stored {
    fn new(doc: Element) -> Self {
        Stored {
            doc,
            wire: OnceLock::new(),
        }
    }

    fn wire(&self) -> Arc<str> {
        self.wire
            .get_or_init(|| Arc::from(write_document(&self.doc)))
            .clone()
    }
}

/// A named collection of XML documents keyed by resource id, spread over
/// independently locked shards.
pub struct Collection {
    name: String,
    shards: Shards<BTreeMap<String, Stored>>,
    clock: VirtualClock,
    profile: CostProfile,
    backend: BackendKind,
    stats: DbStats,
    tel: Telemetry,
    invalidation_hooks: RwLock<Vec<InvalidationHook>>,
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("shards", &self.shards.count())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl Collection {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    /// The shard a key routes to (stable across runs).
    pub fn shard_of(&self, key: &str) -> usize {
        self.shards.route(key)
    }

    /// Register an observer for updates/removals; see [`InvalidationHook`].
    pub fn register_invalidation_hook(&self, hook: InvalidationHook) {
        self.invalidation_hooks.write().push(hook);
    }

    fn notify_invalidated(&self, key: &str) {
        for hook in self.invalidation_hooks.read().iter() {
            hook(key);
        }
    }

    /// One `db` span per charged operation, labelled with the collection.
    fn op_span(&self, name: &'static str) -> ogsa_telemetry::Span {
        let mut span = self.tel.span(SpanKind::Db, name);
        span.set_attr("collection", &self.name);
        span
    }

    /// A keyed operation's prologue: open its `span`, charge `cost` to
    /// `key`'s shard and count one `series`. Returns the span and shard.
    fn keyed_op(
        &self,
        span: &'static str,
        series: &str,
        cost: SimDuration,
        key: &str,
    ) -> (ogsa_telemetry::Span, usize) {
        let span = self.op_span(span);
        let shard = self.shard_of(key);
        self.charge(shard, cost);
        self.count(series);
        (span, shard)
    }

    /// Advance the clock and attribute the cost to `shard`'s busy time.
    fn charge(&self, shard: usize, cost: SimDuration) {
        self.clock.advance(cost);
        self.stats.add_shard_busy(shard, cost.as_micros());
    }

    /// One more on this database's `series{host}` counter.
    pub(crate) fn count(&self, series: &str) {
        self.tel
            .metrics()
            .inc(series, &[("host", self.stats.host())]);
    }

    /// Insert a new document; fails on duplicate key.
    pub fn insert(&self, key: &str, doc: Element) -> Result<(), DbError> {
        let (_s, shard) = self.keyed_op("db:insert", "db.inserts", self.profile.insert, key);
        let mut docs = self.shards.write(shard);
        if docs.contains_key(key) {
            return Err(DbError::DuplicateKey {
                collection: self.name.clone(),
                key: key.to_owned(),
            });
        }
        self.backend.on_write(&self.name, key, Some(&doc));
        docs.insert(key.to_owned(), Stored::new(doc));
        Ok(())
    }

    /// Insert a batch of new documents in one store transaction: the first
    /// document pays the full insert cost, each further one only the
    /// amortised `batch_insert` share. All-or-nothing on duplicate keys.
    pub fn insert_many(&self, entries: Vec<(String, Element)>) -> Result<(), DbError> {
        if entries.is_empty() {
            return Ok(());
        }
        let _s = self.op_span("db:insert");
        // Reject duplicates within the batch up front.
        let mut seen = HashSet::new();
        if let Some((key, _)) = entries.iter().find(|(key, _)| !seen.insert(key.as_str())) {
            return Err(DbError::DuplicateKey {
                collection: self.name.clone(),
                key: key.clone(),
            });
        }
        // Group by shard, ascending; the sort is stable, so each shard's
        // documents keep their batch order.
        let mut routed: Vec<(usize, (String, Element))> = entries
            .into_iter()
            .map(|entry| (self.shard_of(&entry.0), entry))
            .collect();
        routed.sort_by_key(|(shard, _)| *shard);
        let (route, batch): (Vec<usize>, Vec<(String, Element)>) = routed.into_iter().unzip();
        // Charge up front (a failed insert still costs), attributing each
        // document's share to its own shard.
        let costs = std::iter::once(self.profile.insert)
            .chain(std::iter::repeat(self.profile.batch_insert));
        for (&shard, cost) in route.iter().zip(costs) {
            self.charge(shard, cost);
            self.count("db.inserts");
        }
        // Lock each touched shard once, in ascending order (deadlock-free
        // against any other insert_many), paired with its run of
        // documents; verify, then mutate.
        let mut locked: Vec<_> = route
            .chunk_by(|a, b| a == b)
            .map(|run| (self.shards.write(run[0]), run.len()))
            .collect();
        let mut docs = batch.iter();
        for (guard, n) in &locked {
            if let Some((key, _)) = docs.by_ref().take(*n).find(|(k, _)| guard.contains_key(k)) {
                return Err(DbError::DuplicateKey {
                    collection: self.name.clone(),
                    key: key.clone(),
                });
            }
        }
        // Notify the backend of the whole batch as one unit — a durable
        // backend logs exactly one WAL record, so a crash can never
        // half-apply the batch. Every touched shard lock is still held, so
        // the batch is observed atomically with respect to other writers.
        self.backend.on_write_many(&self.name, &batch);
        let mut docs = batch.into_iter();
        for (guard, n) in &mut locked {
            for (key, doc) in docs.by_ref().take(*n) {
                guard.insert(key, Stored::new(doc));
            }
        }
        Ok(())
    }

    /// Read a document by key.
    pub fn get(&self, key: &str) -> Option<Element> {
        let (_s, shard) = self.keyed_op("db:read", "db.reads", self.profile.read, key);
        self.shards.read(shard).get(key).map(|s| s.doc.clone())
    }

    /// Serialized document bytes by key (full document string, including
    /// the XML declaration), charged exactly like [`Collection::get`]. The
    /// bytes are computed at most once per stored document version and
    /// shared out, so serving a hot document repeatedly does no
    /// serialisation work at all.
    pub fn get_serialized(&self, key: &str) -> Option<Arc<str>> {
        let (_s, shard) = self.keyed_op("db:read", "db.reads", self.profile.read, key);
        self.shards.read(shard).get(key).map(Stored::wire)
    }

    /// Replace an existing document; fails if the key is absent.
    pub fn update(&self, key: &str, doc: Element) -> Result<(), DbError> {
        let (_s, shard) = self.keyed_op("db:update", "db.updates", self.profile.update, key);
        {
            let mut docs = self.shards.write(shard);
            match docs.get_mut(key) {
                Some(slot) => {
                    self.backend.on_write(&self.name, key, Some(&doc));
                    *slot = Stored::new(doc);
                }
                None => {
                    return Err(DbError::NotFound {
                        collection: self.name.clone(),
                        key: key.to_owned(),
                    })
                }
            }
        }
        self.notify_invalidated(key);
        Ok(())
    }

    /// Insert or replace, atomically under the key's shard lock (two
    /// concurrent upserts of a fresh key cannot race into a lost write).
    pub fn upsert(&self, key: &str, doc: Element) {
        let shard = self.shard_of(key);
        let mut docs = self.shards.write(shard);
        let existed = docs.contains_key(key);
        let _s = self.op_span(if existed { "db:update" } else { "db:insert" });
        if existed {
            self.charge(shard, self.profile.update);
            self.count("db.updates");
        } else {
            self.charge(shard, self.profile.insert);
            self.count("db.inserts");
        }
        self.backend.on_write(&self.name, key, Some(&doc));
        docs.insert(key.to_owned(), Stored::new(doc));
        drop(docs);
        if existed {
            self.notify_invalidated(key);
        }
    }

    /// Delete a document, returning it if present.
    pub fn remove(&self, key: &str) -> Option<Element> {
        let (_s, shard) = self.keyed_op("db:delete", "db.deletes", self.profile.delete, key);
        let removed = self.shards.write(shard).remove(key).map(|s| s.doc);
        if removed.is_some() {
            self.backend.on_write(&self.name, key, None);
            self.notify_invalidated(key);
        }
        removed
    }

    /// True if the key exists (charged as a read).
    pub fn contains(&self, key: &str) -> bool {
        let (_s, shard) = self.keyed_op("db:read", "db.reads", self.profile.read, key);
        self.shards.read(shard).contains_key(key)
    }

    /// Number of documents (not charged — metadata).
    pub fn len(&self) -> usize {
        (0..self.shards.count())
            .map(|s| self.shards.read(s).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys, sorted (charged as a query).
    pub fn keys(&self) -> Vec<String> {
        self.scan(|docs| docs.into_iter().map(|(k, _)| k.clone()).collect())
    }

    /// Documents whose root matches the XPath expression — "rich queries
    /// over the state of multiple resources" (§3.1). Returns (key, document)
    /// pairs in key order.
    pub fn query(
        &self,
        xpath: &XPath,
        ctx: &XPathContext,
    ) -> Result<Vec<(String, Element)>, ogsa_xml::XmlError> {
        self.scan(|docs| {
            let mut out = Vec::new();
            for (k, stored) in docs {
                if xpath.matches(&stored.doc, ctx)? {
                    out.push((k.clone(), stored.doc.clone()));
                }
            }
            Ok(out)
        })
    }

    /// Nodes selected by the XPath expression across all documents, cloned,
    /// visiting documents in key order.
    pub fn select(
        &self,
        xpath: &XPath,
        ctx: &XPathContext,
    ) -> Result<Vec<Element>, ogsa_xml::XmlError> {
        self.scan(|docs| {
            let mut out = Vec::new();
            for (_, stored) in docs {
                out.extend(xpath.select(&stored.doc, ctx)?.into_iter().cloned());
            }
            Ok(out)
        })
    }

    /// Hand `visit` every document in key order, charged as one query.
    /// Every shard's read lock is held for the duration, so the documents
    /// are a consistent snapshot.
    fn scan<R>(&self, visit: impl FnOnce(Vec<(&String, &Stored)>) -> R) -> R {
        let guards = self.shards.read_all();
        self.charge_query(guards.iter().map(|g| g.len()).sum());
        let mut docs: Vec<(&String, &Stored)> = guards.iter().flat_map(|g| g.iter()).collect();
        docs.sort_by(|a, b| a.0.cmp(b.0));
        visit(docs)
    }

    /// Read without charging (used by the write-through cache to fill).
    pub(crate) fn get_uncharged(&self, key: &str) -> Option<Element> {
        self.shards
            .read(self.shard_of(key))
            .get(key)
            .map(|s| s.doc.clone())
    }

    /// Charged read returning the document *and* its serialized bytes under
    /// one shard lock (the cache's miss-fill path: one read charge, both
    /// representations, no torn version between them).
    pub(crate) fn get_stored(&self, key: &str) -> Option<(Element, Arc<str>)> {
        let (_s, shard) = self.keyed_op("db:read", "db.reads", self.profile.read, key);
        self.shards
            .read(shard)
            .get(key)
            .map(|s| (s.doc.clone(), s.wire()))
    }

    /// A full-collection scan can proceed shard-parallel, so its cost is
    /// spread evenly over the shards' busy time.
    fn charge_query(&self, ndocs: usize) {
        let _s = self.op_span("db:query");
        let total = self.profile.query_fixed + self.profile.query_per_doc * ndocs as u64;
        self.clock.advance(total);
        self.count("db.queries");
        let shards = self.shards.count() as u64;
        let share = total.as_micros() / shards;
        let remainder = total.as_micros() % shards;
        for s in 0..self.shards.count() {
            let extra = u64::from((s as u64) < remainder);
            self.stats.add_shard_busy(s, share + extra);
        }
    }

    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    pub(crate) fn clock(&self) -> &VirtualClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_sim::SimDuration;

    fn xindice() -> Database {
        Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::calibrated_2005()),
            BackendKind::SimDisk,
        )
    }

    fn doc(v: i64) -> Element {
        Element::new("counter").with_child(Element::text_element("value", v.to_string()))
    }

    #[test]
    fn crud_lifecycle() {
        let db = Database::in_memory_free();
        let c = db.collection("counters");
        c.insert("c1", doc(0)).unwrap();
        assert_eq!(c.get("c1").unwrap().child_parse::<i64>("value"), Some(0));
        c.update("c1", doc(5)).unwrap();
        assert_eq!(c.get("c1").unwrap().child_parse::<i64>("value"), Some(5));
        assert!(c.remove("c1").is_some());
        assert!(c.get("c1").is_none());
        assert!(c.remove("c1").is_none());
    }

    #[test]
    fn duplicate_insert_fails() {
        let db = Database::in_memory_free();
        let c = db.collection("x");
        c.insert("k", doc(1)).unwrap();
        assert!(matches!(
            c.insert("k", doc(2)),
            Err(DbError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn update_missing_fails() {
        let db = Database::in_memory_free();
        let c = db.collection("x");
        assert!(matches!(
            c.update("nope", doc(1)),
            Err(DbError::NotFound { .. })
        ));
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let db = Database::in_memory_free();
        let c = db.collection("x");
        c.upsert("k", doc(1));
        c.upsert("k", doc(2));
        assert_eq!(c.get("k").unwrap().child_parse::<i64>("value"), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn collections_are_shared_by_name() {
        let db = Database::in_memory_free();
        let a = db.collection("shared");
        let b = db.collection("shared");
        a.insert("k", doc(1)).unwrap();
        assert!(b.get("k").is_some());
        assert_eq!(db.collection_names(), ["shared"]);
    }

    #[test]
    fn existing_errors_on_unknown() {
        let db = Database::in_memory_free();
        assert!(matches!(
            db.existing("ghost"),
            Err(DbError::NoSuchCollection { .. })
        ));
        db.collection("real");
        assert!(db.existing("real").is_ok());
    }

    #[test]
    fn drop_collection_removes_documents() {
        let db = Database::in_memory_free();
        db.collection("t").insert("k", doc(1)).unwrap();
        assert!(db.drop_collection("t"));
        assert!(!db.drop_collection("t"));
        assert!(db.collection("t").get("k").is_none());
    }

    #[test]
    fn costs_charged_to_clock_with_insert_asymmetry() {
        let db = xindice();
        let c = db.collection("counters");
        let model = CostModel::calibrated_2005();

        let t0 = db.clock().now();
        c.insert("c1", doc(0)).unwrap();
        let insert_cost = db.clock().now().since(t0);
        assert_eq!(insert_cost, SimDuration::from_micros(model.db_insert_us));

        let t1 = db.clock().now();
        c.get("c1");
        let read_cost = db.clock().now().since(t1);
        assert_eq!(read_cost, SimDuration::from_micros(model.db_read_us));

        assert!(insert_cost > read_cost * 2);
    }

    #[test]
    fn costs_do_not_depend_on_shard_count() {
        let cost_with_shards = |shards: usize| {
            let db = Database::with_config(
                "local",
                VirtualClock::new(),
                Arc::new(CostModel::calibrated_2005()),
                BackendKind::SimDisk,
                Telemetry::disabled(),
                DbConfig { shards },
            );
            let c = db.collection("counters");
            let t0 = db.clock().now();
            c.insert("c1", doc(0)).unwrap();
            c.get("c1");
            c.update("c1", doc(1)).unwrap();
            c.upsert("c2", doc(2));
            c.keys();
            c.remove("c1");
            db.clock().now().since(t0)
        };
        let single = cost_with_shards(1);
        assert_eq!(single, cost_with_shards(4));
        assert_eq!(single, cost_with_shards(MAX_SHARDS));
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let db = xindice();
        let c = db.collection("counters");
        assert_eq!(c.shard_count(), DEFAULT_SHARDS);
        for i in 0..100 {
            let key = format!("res-{i}");
            let s = c.shard_of(&key);
            assert!(s < c.shard_count());
            assert_eq!(s, c.shard_of(&key));
        }
        // The hash actually spreads keys around.
        let hit: std::collections::HashSet<usize> =
            (0..100).map(|i| c.shard_of(&format!("res-{i}"))).collect();
        assert!(hit.len() > 1);
    }

    #[test]
    fn shard_count_is_clamped() {
        let mk = |shards| {
            Database::with_config(
                "local",
                VirtualClock::new(),
                Arc::new(CostModel::free()),
                BackendKind::Memory,
                Telemetry::disabled(),
                DbConfig { shards },
            )
        };
        assert_eq!(mk(0).collection("c").shard_count(), 1);
        assert_eq!(mk(1000).collection("c").shard_count(), MAX_SHARDS);
    }

    #[test]
    fn insert_many_amortises_the_transaction_cost() {
        let model = CostModel::calibrated_2005();
        let db = xindice();
        let c = db.collection("batch");
        let entries: Vec<(String, Element)> = (0..10).map(|i| (format!("b{i}"), doc(i))).collect();
        let t0 = db.clock().now();
        c.insert_many(entries).unwrap();
        let batch_cost = db.clock().now().since(t0);
        assert_eq!(
            batch_cost,
            SimDuration::from_micros(model.db_insert_us + 9 * model.db_batch_insert_us)
        );
        assert_eq!(c.len(), 10);
        assert_eq!(db.stats().inserts(), 10);
        // Far cheaper than ten standalone inserts.
        assert!(batch_cost.as_micros() < 10 * model.db_insert_us);
    }

    #[test]
    fn insert_many_is_all_or_nothing_on_duplicates() {
        let db = Database::in_memory_free();
        let c = db.collection("batch");
        c.insert("dup", doc(0)).unwrap();
        let err = c.insert_many(vec![
            ("fresh".to_owned(), doc(1)),
            ("dup".to_owned(), doc(2)),
        ]);
        assert!(matches!(err, Err(DbError::DuplicateKey { .. })));
        assert!(c.get("fresh").is_none(), "no partial batch application");
        // Duplicates inside the batch itself are also rejected.
        let err = c.insert_many(vec![
            ("twice".to_owned(), doc(1)),
            ("twice".to_owned(), doc(2)),
        ]);
        assert!(matches!(err, Err(DbError::DuplicateKey { .. })));
        assert!(c.get("twice").is_none());
    }

    #[test]
    fn shard_busy_accounts_every_charged_operation() {
        let model = CostModel::calibrated_2005();
        let db = xindice();
        let c = db.collection("busy");
        let t0 = db.clock().now();
        c.insert("a", doc(1)).unwrap();
        c.get("a");
        c.update("a", doc(2)).unwrap();
        c.keys();
        c.remove("a");
        c.insert_many(vec![("x".to_owned(), doc(1)), ("y".to_owned(), doc(2))])
            .unwrap();
        let elapsed = db.clock().now().since(t0);
        // Every charged microsecond is attributed to exactly one shard
        // (queries are spread, everything else lands on the key's shard).
        assert_eq!(db.stats().total_busy_us(), elapsed.as_micros());
        let busy = db.stats().shard_busy_snapshot(c.shard_count());
        assert_eq!(busy.iter().sum::<u64>(), elapsed.as_micros());
        assert!(db.stats().shard_busy_us(c.shard_of("a")) >= model.db_insert_us + model.db_read_us);
    }

    #[test]
    fn collections_on_any_backend_count_into_one_ledger() {
        // Regression (PR-7): the stats are shared by every collection
        // regardless of backend, so swapping a collection's backend must
        // neither lose nor duplicate counters.
        let db = xindice();
        let disk = db.collection_with_backend("disk", BackendKind::SimDisk);
        disk.insert("a", doc(1)).unwrap();
        let mem = db.collection_with_backend("mem", BackendKind::Memory);
        mem.insert("b", doc(2)).unwrap();
        disk.get("a");
        assert_eq!(db.stats().inserts(), 2);
        assert_eq!(db.stats().reads(), 1);
        let model = CostModel::calibrated_2005();
        assert_eq!(
            db.stats().total_busy_us(),
            model.db_insert_us + model.db_insert_us / 16 + model.db_read_us
        );
    }

    #[test]
    fn serialized_bytes_match_the_writer_and_track_updates() {
        let db = Database::in_memory_free();
        let c = db.collection("wire");
        c.insert("k", doc(1)).unwrap();
        let first = c.get_serialized("k").unwrap();
        assert_eq!(&*first, write_document(&doc(1)).as_str());
        // Second read shares the same allocation — no re-serialisation.
        let again = c.get_serialized("k").unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // A write installs a fresh slot; stale bytes cannot be served.
        c.update("k", doc(2)).unwrap();
        assert_eq!(
            &*c.get_serialized("k").unwrap(),
            write_document(&doc(2)).as_str()
        );
        assert!(c.get_serialized("ghost").is_none());
    }

    #[test]
    fn get_serialized_is_charged_as_a_read() {
        let db = xindice();
        let c = db.collection("wire");
        c.insert("k", doc(1)).unwrap();
        let model = CostModel::calibrated_2005();
        let t0 = db.clock().now();
        c.get_serialized("k").unwrap();
        assert_eq!(
            db.clock().now().since(t0),
            SimDuration::from_micros(model.db_read_us)
        );
        assert_eq!(db.stats().reads(), 1);
    }

    #[test]
    fn query_selects_matching_documents() {
        let db = Database::in_memory_free();
        let c = db.collection("counters");
        for i in 0..10 {
            c.insert(&format!("c{i}"), doc(i)).unwrap();
        }
        let xp = XPath::compile("/counter[value > 6]").unwrap();
        let hits = c.query(&xp, &XPathContext::new()).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits
            .iter()
            .all(|(k, _)| ["c7", "c8", "c9"].contains(&k.as_str())));
    }

    #[test]
    fn query_results_stay_key_ordered_across_shards() {
        let db = Database::in_memory_free();
        let c = db.collection("counters");
        for i in (0..20).rev() {
            c.insert(&format!("c{i:02}"), doc(i)).unwrap();
        }
        let xp = XPath::compile("/counter").unwrap();
        let hits = c.query(&xp, &XPathContext::new()).unwrap();
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(c.keys(), sorted);
    }

    #[test]
    fn select_returns_matched_nodes() {
        let db = Database::in_memory_free();
        let c = db.collection("counters");
        for i in 0..3 {
            c.insert(&format!("c{i}"), doc(i)).unwrap();
        }
        let xp = XPath::compile("/counter/value").unwrap();
        let nodes = c.select(&xp, &XPathContext::new()).unwrap();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn query_cost_scales_with_collection_size() {
        let db = xindice();
        let c = db.collection("jobs");
        for i in 0..50 {
            c.insert(&format!("j{i}"), doc(i)).unwrap();
        }
        let xp = XPath::compile("/counter[value='1']").unwrap();
        let t0 = db.clock().now();
        c.query(&xp, &XPathContext::new()).unwrap();
        let cost_50 = db.clock().now().since(t0);
        for i in 50..200 {
            c.insert(&format!("j{i}"), doc(i)).unwrap();
        }
        let t1 = db.clock().now();
        c.query(&xp, &XPathContext::new()).unwrap();
        let cost_200 = db.clock().now().since(t1);
        assert!(cost_200 > cost_50);
    }

    #[test]
    fn stats_track_operations() {
        let db = xindice();
        let c = db.collection("s");
        c.insert("a", doc(1)).unwrap();
        c.get("a");
        c.get("missing");
        c.update("a", doc(2)).unwrap();
        c.remove("a");
        assert_eq!(db.stats().inserts(), 1);
        assert_eq!(db.stats().reads(), 2);
        assert_eq!(db.stats().updates(), 1);
        assert_eq!(db.stats().deletes(), 1);
    }

    #[test]
    fn invalidation_hooks_fire_on_update_and_remove() {
        let db = Database::in_memory_free();
        let c = db.collection("obs");
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = seen.clone();
        c.register_invalidation_hook(Arc::new(move |key: &str| {
            sink.lock().push(key.to_owned());
        }));
        c.insert("k", doc(1)).unwrap(); // fresh insert: no invalidation
        c.update("k", doc(2)).unwrap();
        c.upsert("k", doc(3)); // upsert over existing: invalidation
        c.upsert("new", doc(0)); // upsert as insert: no invalidation
        c.remove("k");
        c.remove("ghost"); // no-op remove: no invalidation
        assert_eq!(
            *seen.lock(),
            vec!["k".to_owned(), "k".to_owned(), "k".to_owned()]
        );
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let db = Database::in_memory_free();
        let c = db.collection("conc");
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        c.insert(&format!("t{t}-{i}"), doc(i)).unwrap();
                    }
                });
            }
        });
        assert_eq!(c.len(), 800);
    }
}
