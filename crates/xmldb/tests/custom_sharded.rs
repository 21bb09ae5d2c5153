//! Custom-backend × sharding coverage: the two features were grown
//! separately (the `CustomBackend` seam, then key-sharded collections) and
//! nothing exercised them together. These tests pin down the contract: a
//! sharded collection still notifies a custom backend exactly once per
//! mutation, delivers a batch as one unit, and charges the custom cost
//! profile into per-shard busy accounting.

use std::sync::Arc;

use ogsa_sim::{CostModel, VirtualClock};
use ogsa_xml::Element;
use ogsa_xmldb::{
    BackendKind, CostProfile, CustomBackend, Database, DurableBackend, DurableConfig, FsyncPolicy,
};
use parking_lot::Mutex;

fn doc(v: i64) -> Element {
    Element::new("r").with_child(Element::text_element("v", v.to_string()))
}

/// Records every notification the collection delivers, including batch
/// boundaries, and mirrors the calibrated SimDisk cost profile.
#[derive(Default)]
struct Recorder {
    writes: Mutex<Vec<(String, Option<i64>)>>,
    batches: Mutex<Vec<Vec<String>>>,
}

impl CustomBackend for Recorder {
    fn cost_profile(&self, model: &CostModel) -> CostProfile {
        BackendKind::SimDisk.cost_profile(model)
    }

    fn on_write(&self, _collection: &str, key: &str, doc: Option<&Element>) {
        self.writes
            .lock()
            .push((key.to_owned(), doc.and_then(|d| d.child_parse::<i64>("v"))));
    }

    fn on_write_many(&self, _collection: &str, entries: &[(String, Element)]) {
        self.batches
            .lock()
            .push(entries.iter().map(|(k, _)| k.clone()).collect());
    }
}

fn sharded_db(backend: BackendKind, model: CostModel) -> (Database, VirtualClock) {
    let clock = VirtualClock::new();
    let db = Database::new(clock.clone(), Arc::new(model), backend);
    (db, clock)
}

#[test]
fn sharded_collection_notifies_a_custom_backend_exactly_once_per_write() {
    let rec = Arc::new(Recorder::default());
    let (db, _) = sharded_db(BackendKind::Custom(rec.clone()), CostModel::free());
    let c = db.collection("res");

    // Enough keys to land on several shards.
    for i in 0..16 {
        c.insert(&format!("k{i}"), doc(i)).unwrap();
    }
    c.update("k3", doc(33)).unwrap();
    c.remove("k5").unwrap();
    // A failed insert (duplicate) must notify nobody.
    assert!(c.insert("k0", doc(0)).is_err());

    let writes = rec.writes.lock();
    assert_eq!(writes.len(), 18, "16 inserts + 1 update + 1 delete");
    assert_eq!(
        writes.iter().filter(|(k, _)| k == "k3").count(),
        2,
        "insert then update, nothing double-delivered"
    );
    assert!(
        writes.contains(&("k5".to_owned(), None)),
        "delete delivers None"
    );
    assert!(writes.contains(&("k3".to_owned(), Some(33))));
    // Multiple shards were actually in play.
    let shards_touched: std::collections::BTreeSet<usize> = (0..16)
        .map(|i| db.collection("res").shard_of(&format!("k{i}")))
        .collect();
    assert!(shards_touched.len() > 1, "workload stayed on one shard");
}

#[test]
fn sharded_batch_reaches_the_custom_backend_as_one_unit() {
    let rec = Arc::new(Recorder::default());
    let (db, _) = sharded_db(BackendKind::Custom(rec.clone()), CostModel::free());
    let c = db.collection("res");

    let entries: Vec<(String, Element)> = (0..12).map(|i| (format!("b{i}"), doc(i))).collect();
    // The batch spans shards — that's the point of the test.
    let spans: std::collections::BTreeSet<usize> =
        entries.iter().map(|(k, _)| c.shard_of(k)).collect();
    assert!(spans.len() > 1);
    c.insert_many(entries).unwrap();

    let first_batch = {
        let batches = rec.batches.lock();
        assert_eq!(batches.len(), 1, "one insert_many, one notification");
        batches[0].clone()
    };
    assert_eq!(first_batch.len(), 12);
    let mut sorted = first_batch;
    sorted.sort();
    let mut want: Vec<String> = (0..12).map(|i| format!("b{i}")).collect();
    want.sort();
    assert_eq!(sorted, want);
    // Batch docs never arrive through the per-document hook.
    assert!(rec.writes.lock().is_empty());

    // A duplicate-poisoned batch is rejected before the backend hears of it.
    let poisoned = vec![("x".to_owned(), doc(1)), ("b0".to_owned(), doc(2))];
    assert!(c.insert_many(poisoned).is_err());
    assert_eq!(rec.batches.lock().len(), 1);
    assert!(c.get("x").is_none(), "all-or-nothing");
}

#[test]
fn custom_cost_profile_charges_into_per_shard_accounting() {
    let rec = Arc::new(Recorder::default());
    let model = CostModel::calibrated_2005();
    let insert_us = model.db_insert_us;
    let batch_us = model.db_batch_insert_us;
    let (db, clock) = sharded_db(BackendKind::Custom(rec.clone()), model);
    let start = clock.now();
    let c = db.collection("res");

    for i in 0..8 {
        c.insert(&format!("k{i}"), doc(i)).unwrap();
    }
    c.insert_many((0..4).map(|i| (format!("b{i}"), doc(i))).collect())
        .unwrap();

    // The custom profile mirrors SimDisk: 8 full inserts, then one full
    // insert + 3 amortised batch shares.
    let want_us = 9 * insert_us + 3 * batch_us;
    assert_eq!(clock.now().since(start).as_micros(), want_us);
    assert_eq!(db.stats().total_busy_us(), want_us);
    // The busy time is attributed across shards, not piled on shard 0.
    let busy = db.stats().shard_busy_snapshot();
    assert!(busy.iter().filter(|&&b| b > 0).count() > 1);
    assert_eq!(busy.iter().sum::<u64>(), want_us);
}

#[test]
fn durable_backend_composes_with_sharding() {
    let backend = Arc::new(DurableBackend::sim(DurableConfig {
        fsync: FsyncPolicy::PerWrite,
        snapshot_every: 0,
    }));
    let make_db = |b: Arc<DurableBackend>| {
        Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(b),
        )
    };
    let db = make_db(backend.clone());
    let c = db.collection("res");
    for i in 0..6 {
        c.insert(&format!("k{i}"), doc(i)).unwrap();
    }
    c.insert_many((0..8).map(|i| (format!("b{i}"), doc(100 + i))).collect())
        .unwrap();
    // 6 singles + ONE batch record, even though the batch spans shards.
    assert_eq!(backend.appended_ops(), 7);
    assert_eq!(backend.acked_ops(), 7);

    backend.recover();
    let db2 = make_db(backend.clone());
    backend.restore_into(&db2);
    let c2 = db2.collection("res");
    for i in 0..6 {
        assert_eq!(
            c2.get(&format!("k{i}")).unwrap().child_parse::<i64>("v"),
            Some(i)
        );
    }
    for i in 0..8 {
        assert_eq!(
            c2.get(&format!("b{i}")).unwrap().child_parse::<i64>("v"),
            Some(100 + i)
        );
    }
    assert_eq!(backend.doc_count(), 14);
}
