//! The WSRF.NET write-through resource cache.
//!
//! The paper attributes WSRF.NET's faster `Set` to "the more extensive
//! optimization effort (particularly write-through resource caching)": a
//! cached copy of the resource document serves reads, while every write
//! still goes through to Xindice. The cache is toggleable so the ablation
//! bench can show the effect in isolation.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

use ogsa_sim::SimDuration;
use ogsa_telemetry::SpanKind;
use ogsa_xml::{write_document, Element};
use parking_lot::Mutex;

use crate::db::Collection;
use crate::error::DbError;

/// A cached document plus its lazily computed serialized form. Every cache
/// write installs a fresh entry (fresh `OnceLock`), and the collection's
/// invalidation hook removes whole entries, so the bytes share exactly the
/// document's own freshness — there is no separate wire invalidation.
#[derive(Debug)]
struct CachedDoc {
    doc: Element,
    wire: OnceLock<Arc<str>>,
}

impl CachedDoc {
    fn new(doc: Element) -> Self {
        CachedDoc {
            doc,
            wire: OnceLock::new(),
        }
    }

    fn with_wire(doc: Element, wire: Arc<str>) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(wire);
        CachedDoc { doc, wire: cell }
    }

    fn wire(&self) -> Arc<str> {
        self.wire
            .get_or_init(|| Arc::from(write_document(&self.doc)))
            .clone()
    }
}

/// A write-through cache in front of one collection.
#[derive(Debug, Clone)]
pub struct ResourceCache {
    collection: Arc<Collection>,
    cache: Arc<Mutex<HashMap<String, CachedDoc>>>,
    enabled: bool,
    hit_cost: SimDuration,
}

impl ResourceCache {
    /// Wrap `collection`; `hit_cost` is the simulated cost of serving a read
    /// from the cache (use `CostModel::cache_hit_us`).
    ///
    /// The cache registers an invalidation hook on the collection, so a
    /// document updated or removed *directly* through the collection — a
    /// service-group sweep, a lifetime destructor holding a raw handle, or
    /// another cache instance — drops the stale entry here. Without this, a
    /// `Get` after WS-RL `Destroy` could serve a cached counter that no
    /// longer exists in the store.
    pub fn new(collection: Arc<Collection>, hit_cost: SimDuration, enabled: bool) -> Self {
        let cache = Arc::new(Mutex::new(HashMap::new()));
        if enabled {
            let weak: Weak<Mutex<HashMap<String, CachedDoc>>> = Arc::downgrade(&cache);
            collection.register_invalidation_hook(Arc::new(move |key: &str| {
                if let Some(map) = weak.upgrade() {
                    map.lock().remove(key);
                }
            }));
        }
        ResourceCache {
            collection,
            cache,
            enabled,
            hit_cost,
        }
    }

    /// Is caching active?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The wrapped collection.
    pub fn collection(&self) -> &Arc<Collection> {
        &self.collection
    }

    /// Charge a cache hit to the clock and counters.
    fn note_hit(&self) {
        let mut s = self
            .collection
            .telemetry()
            .span(SpanKind::Db, "db:cache_hit");
        s.set_attr("collection", self.collection.name());
        self.collection.clock().advance(self.hit_cost);
        self.collection.count("db.cache_hits");
    }

    /// Read through the cache.
    pub fn get(&self, key: &str) -> Option<Element> {
        if self.enabled {
            if let Some(entry) = self.cache.lock().get(key) {
                self.note_hit();
                return Some(entry.doc.clone());
            }
            self.collection.count("db.cache_misses");
        }
        let doc = self.collection.get(key)?;
        if self.enabled {
            self.cache
                .lock()
                .insert(key.to_owned(), CachedDoc::new(doc.clone()));
        }
        Some(doc)
    }

    /// Read the serialized document bytes through the cache: a hit costs a
    /// cache hit and serves bytes computed at most once per cached version;
    /// a miss pays one store read and fills both representations from the
    /// same stored version.
    pub fn get_serialized(&self, key: &str) -> Option<Arc<str>> {
        if self.enabled {
            if let Some(entry) = self.cache.lock().get(key) {
                self.note_hit();
                return Some(entry.wire());
            }
            self.collection.count("db.cache_misses");
            let (doc, wire) = self.collection.get_stored(key)?;
            self.cache
                .lock()
                .insert(key.to_owned(), CachedDoc::with_wire(doc, wire.clone()));
            return Some(wire);
        }
        self.collection.get_serialized(key)
    }

    /// Create a resource: insert into the store and populate the cache.
    pub fn insert(&self, key: &str, doc: Element) -> Result<(), DbError> {
        self.collection.insert(key, doc.clone())?;
        if self.enabled {
            self.cache
                .lock()
                .insert(key.to_owned(), CachedDoc::new(doc));
        }
        Ok(())
    }

    /// Create a batch of resources in one store transaction (the insert-heavy
    /// `Create` path): the collection amortises the per-transaction cost over
    /// the batch, and every new document lands in the cache hot.
    pub fn insert_many(&self, entries: Vec<(String, Element)>) -> Result<(), DbError> {
        if self.enabled {
            let cached: Vec<(String, Element)> = entries.clone();
            self.collection.insert_many(entries)?;
            self.cache
                .lock()
                .extend(cached.into_iter().map(|(k, d)| (k, CachedDoc::new(d))));
        } else {
            self.collection.insert_many(entries)?;
        }
        Ok(())
    }

    /// Write-through update: the database write always happens; the cache is
    /// refreshed so the next read hits.
    pub fn update(&self, key: &str, doc: Element) -> Result<(), DbError> {
        self.collection.update(key, doc.clone())?;
        if self.enabled {
            self.cache
                .lock()
                .insert(key.to_owned(), CachedDoc::new(doc));
        }
        Ok(())
    }

    /// Remove from store and cache.
    pub fn remove(&self, key: &str) -> Option<Element> {
        if self.enabled {
            self.cache.lock().remove(key);
        }
        self.collection.remove(key)
    }

    /// Drop everything cached (e.g. on administrative restart).
    pub fn invalidate_all(&self) {
        self.cache.lock().clear();
    }

    /// Warm the cache from the store without charging a database read —
    /// used by tests and by container warm-up.
    pub fn warm(&self, key: &str) {
        if !self.enabled {
            return;
        }
        if let Some(doc) = self.collection.get_uncharged(key) {
            self.cache
                .lock()
                .insert(key.to_owned(), CachedDoc::new(doc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::db::Database;
    use ogsa_sim::{CostModel, VirtualClock};

    fn setup(enabled: bool) -> (Database, ResourceCache) {
        let model = CostModel::calibrated_2005();
        let db = Database::new(
            VirtualClock::new(),
            Arc::new(model.clone()),
            BackendKind::SimDisk,
        );
        let coll = db.collection("resources");
        let cache = ResourceCache::new(coll, SimDuration::from_micros(model.cache_hit_us), enabled);
        (db, cache)
    }

    fn doc(v: i64) -> Element {
        Element::new("r").with_child(Element::text_element("v", v.to_string()))
    }

    #[test]
    fn cached_read_is_much_cheaper_than_db_read() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        // First read after insert hits the cache (write-through populated it).
        let t0 = db.clock().now();
        cache.get("k").unwrap();
        let hit = db.clock().now().since(t0);

        let (db2, cache2) = setup(false);
        cache2.insert("k", doc(1)).unwrap();
        let t0 = db2.clock().now();
        cache2.get("k").unwrap();
        let miss = db2.clock().now().since(t0);

        assert!(
            hit.as_micros() * 10 < miss.as_micros(),
            "{hit:?} vs {miss:?}"
        );
    }

    #[test]
    fn writes_go_through_to_the_store() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        cache.update("k", doc(2)).unwrap();
        // Bypass the cache: the store itself must hold the new value.
        let direct = db.collection("resources").get("k").unwrap();
        assert_eq!(direct.child_parse::<i64>("v"), Some(2));
    }

    #[test]
    fn update_refreshes_cache() {
        let (_db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        cache.update("k", doc(7)).unwrap();
        assert_eq!(cache.get("k").unwrap().child_parse::<i64>("v"), Some(7));
    }

    #[test]
    fn remove_clears_both() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        assert!(cache.remove("k").is_some());
        assert!(cache.get("k").is_none());
        assert!(db.collection("resources").get("k").is_none());
    }

    #[test]
    fn disabled_cache_always_reads_the_store() {
        let (db, cache) = setup(false);
        cache.insert("k", doc(1)).unwrap();
        cache.get("k");
        cache.get("k");
        assert_eq!(db.stats().reads(), 2);
        assert_eq!(db.stats().cache_hits(), 0);
    }

    #[test]
    fn hit_and_miss_counters() {
        let (db, cache) = setup(true);
        cache.collection().insert("cold", doc(1)).unwrap(); // store only
        cache.get("cold"); // miss, fills
        cache.get("cold"); // hit
        assert_eq!(db.stats().cache_misses(), 1);
        assert_eq!(db.stats().cache_hits(), 1);
    }

    #[test]
    fn invalidate_all_forces_store_reads() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        cache.invalidate_all();
        let reads_before = db.stats().reads();
        cache.get("k").unwrap();
        assert_eq!(db.stats().reads(), reads_before + 1);
    }

    #[test]
    fn direct_collection_remove_invalidates_cache() {
        // Regression: a WS-RL Destroy that reaches the collection without
        // going through this cache instance (service group sweep, raw
        // handle) must not leave a stale cached counter behind.
        let (db, cache) = setup(true);
        cache.insert("k", doc(41)).unwrap();
        assert!(cache.get("k").is_some()); // cached
        db.collection("resources").remove("k");
        assert!(
            cache.get("k").is_none(),
            "Get after direct Destroy must see the store, not a stale cache entry"
        );
        assert!(db.stats().cache_misses() >= 1);
    }

    #[test]
    fn direct_collection_update_invalidates_cache() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        assert_eq!(cache.get("k").unwrap().child_parse::<i64>("v"), Some(1));
        db.collection("resources").update("k", doc(9)).unwrap();
        assert_eq!(
            cache.get("k").unwrap().child_parse::<i64>("v"),
            Some(9),
            "direct store update must invalidate the cached copy"
        );
    }

    #[test]
    fn two_caches_over_one_collection_stay_coherent() {
        let (db, a) = setup(true);
        let model = CostModel::calibrated_2005();
        let b = ResourceCache::new(
            db.collection("resources"),
            SimDuration::from_micros(model.cache_hit_us),
            true,
        );
        a.insert("k", doc(1)).unwrap();
        assert_eq!(b.get("k").unwrap().child_parse::<i64>("v"), Some(1)); // fills b
        a.update("k", doc(2)).unwrap();
        assert_eq!(
            b.get("k").unwrap().child_parse::<i64>("v"),
            Some(2),
            "a write through one cache must invalidate the other"
        );
        a.remove("k");
        assert!(b.get("k").is_none());
    }

    #[test]
    fn disabled_cache_skips_hook_registration() {
        // The ablation path with caching off must behave exactly as before:
        // every read hits the store, nothing is retained.
        let (db, cache) = setup(false);
        cache.insert("k", doc(1)).unwrap();
        db.collection("resources").remove("k");
        assert!(cache.get("k").is_none());
        assert_eq!(db.stats().cache_hits(), 0);
        assert_eq!(db.stats().cache_misses(), 0);
    }

    #[test]
    fn insert_many_populates_cache_and_amortises_cost() {
        let (db, cache) = setup(true);
        let entries: Vec<_> = (0..8).map(|i| (format!("k{i}"), doc(i))).collect();
        let t0 = db.clock().now();
        cache.insert_many(entries).unwrap();
        let batch_elapsed = db.clock().now().since(t0).as_micros();

        let model = CostModel::calibrated_2005();
        let singles = model.db_insert_us * 8;
        assert!(
            batch_elapsed < singles,
            "batch {batch_elapsed}µs should beat {singles}µs of single inserts"
        );
        // Every member is served from the cache, not the store.
        let reads_before = db.stats().reads();
        for i in 0..8 {
            assert_eq!(
                cache.get(&format!("k{i}")).unwrap().child_parse::<i64>("v"),
                Some(i)
            );
        }
        assert_eq!(db.stats().reads(), reads_before);
        assert_eq!(db.stats().cache_hits(), 8);
    }

    #[test]
    fn failed_insert_many_caches_nothing() {
        let (_db, cache) = setup(true);
        cache.insert("k1", doc(1)).unwrap();
        cache.invalidate_all();
        let entries = vec![("k0".to_owned(), doc(0)), ("k1".to_owned(), doc(9))];
        assert!(cache.insert_many(entries).is_err());
        // The all-or-nothing store rejection must not leave k0 cached.
        assert!(cache.get("k0").is_none());
    }

    #[test]
    fn serialized_hit_shares_bytes_and_costs_a_cache_hit() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(5)).unwrap();
        let first = cache.get_serialized("k").unwrap();
        assert_eq!(&*first, write_document(&doc(5)).as_str());
        let reads_before = db.stats().reads();
        let again = cache.get_serialized("k").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "hit must not re-serialise");
        assert_eq!(
            db.stats().reads(),
            reads_before,
            "hit must not hit the store"
        );
    }

    #[test]
    fn serialized_miss_fills_both_representations_with_one_read() {
        let (db, cache) = setup(true);
        cache.collection().insert("cold", doc(3)).unwrap(); // store only
        let reads_before = db.stats().reads();
        let wire = cache.get_serialized("cold").unwrap();
        assert_eq!(db.stats().reads(), reads_before + 1);
        assert_eq!(&*wire, write_document(&doc(3)).as_str());
        // Both the tree and the bytes now serve from the cache.
        let reads_after = db.stats().reads();
        assert_eq!(cache.get("cold").unwrap().child_parse::<i64>("v"), Some(3));
        assert!(Arc::ptr_eq(&wire, &cache.get_serialized("cold").unwrap()));
        assert_eq!(db.stats().reads(), reads_after);
    }

    #[test]
    fn direct_store_update_invalidates_serialized_bytes() {
        let (db, cache) = setup(true);
        cache.insert("k", doc(1)).unwrap();
        assert_eq!(
            &*cache.get_serialized("k").unwrap(),
            write_document(&doc(1)).as_str()
        );
        db.collection("resources").update("k", doc(8)).unwrap();
        assert_eq!(
            &*cache.get_serialized("k").unwrap(),
            write_document(&doc(8)).as_str(),
            "stale serialized bytes must not survive a direct store write"
        );
    }

    #[test]
    fn disabled_cache_serves_serialized_bytes_from_the_store() {
        let (db, cache) = setup(false);
        cache.insert("k", doc(2)).unwrap();
        assert_eq!(
            &*cache.get_serialized("k").unwrap(),
            write_document(&doc(2)).as_str()
        );
        assert_eq!(db.stats().cache_hits(), 0);
        assert_eq!(db.stats().reads(), 1);
    }

    #[test]
    fn warm_avoids_charged_read() {
        let (db, cache) = setup(true);
        cache.collection().insert("k", doc(3)).unwrap();
        let reads_before = db.stats().reads();
        cache.warm("k");
        cache.get("k").unwrap(); // hit
        assert_eq!(db.stats().reads(), reads_before);
        assert_eq!(db.stats().cache_hits(), 1);
    }
}
