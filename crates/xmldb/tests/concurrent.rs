//! Concurrent-access tests for the sharded collection: writers to distinct
//! keys proceed in parallel, same-key writers serialise, and the shared
//! stats stay consistent under barrier-forced interleavings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ogsa_sim::{CostModel, VirtualClock};
use ogsa_xml::Element;
use ogsa_xmldb::{BackendKind, CostProfile, CustomBackend, Database};

fn sharded(backend: BackendKind) -> Database {
    Database::new(VirtualClock::new(), Arc::new(CostModel::free()), backend)
}

fn doc(v: i64) -> Element {
    Element::new("r").with_child(Element::text_element("v", v.to_string()))
}

/// Two keys guaranteed to land on different shards of `c`.
fn keys_on_distinct_shards(c: &ogsa_xmldb::Collection) -> (String, String) {
    let a = "k0".to_owned();
    for i in 1..10_000 {
        let b = format!("k{i}");
        if c.shard_of(&b) != c.shard_of(&a) {
            return (a, b);
        }
    }
    panic!("no second shard reachable — shard_of is degenerate");
}

/// Two distinct keys guaranteed to land on the SAME shard of `c`.
fn keys_on_same_shard(c: &ogsa_xmldb::Collection) -> (String, String) {
    let a = "k0".to_owned();
    for i in 1..10_000 {
        let b = format!("k{i}");
        if c.shard_of(&b) == c.shard_of(&a) {
            return (a, b);
        }
    }
    panic!("no shard collision found — shard_of is degenerate");
}

/// Backend whose `on_write` (invoked while the key's shard write lock is
/// held) parks on a channel until the test releases it — a deterministic way
/// to hold one shard lock mid-operation.
struct GatedBackend {
    gate_key: String,
    entered: mpsc::Sender<()>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl CustomBackend for GatedBackend {
    fn cost_profile(&self, model: &CostModel) -> CostProfile {
        BackendKind::Memory.cost_profile(model)
    }
    fn on_write(&self, _collection: &str, key: &str, _doc: Option<&Element>) {
        if key == self.gate_key {
            self.entered.send(()).expect("test alive");
            self.release
                .lock()
                .expect("gate lock")
                .recv_timeout(Duration::from_secs(30))
                .expect("gate released");
        }
    }
}

#[test]
fn writers_to_distinct_shards_progress_in_parallel() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();

    // Backend construction needs the gate key before the collection exists,
    // but shard routing is a pure stable hash — probe it via a throwaway
    // sharded collection with the same shard count.
    let probe = sharded(BackendKind::Memory).collection("probe");
    let (held_key, free_key) = keys_on_distinct_shards(&probe);

    let db = sharded(BackendKind::Custom(Arc::new(GatedBackend {
        gate_key: held_key.clone(),
        entered: entered_tx,
        release: std::sync::Mutex::new(release_rx),
    })));
    let c = db.collection("probe");
    assert_ne!(c.shard_of(&held_key), c.shard_of(&free_key));

    let blocker = {
        let c = c.clone();
        let key = held_key.clone();
        std::thread::spawn(move || c.insert(&key, doc(1)))
    };
    // Wait until the blocker thread is inside on_write, holding its shard's
    // write lock.
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("blocker entered the gated backend");

    // A writer to a different shard must complete while that lock is held.
    // If sharding regressed to one collection-wide lock, this insert would
    // deadlock (and the harness timeout would flag it) because the gate is
    // only released afterwards.
    c.insert(&free_key, doc(2)).unwrap();
    assert!(c.get(&free_key).is_some());

    release_tx.send(()).unwrap();
    blocker.join().unwrap().unwrap();
    assert!(c.get(&held_key).is_some());
}

#[test]
fn same_key_writers_serialise_on_the_shard_lock() {
    let db = sharded(BackendKind::Memory);
    let c = db.collection("serial");
    c.insert("hot", doc(0)).unwrap();

    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    let barrier = Arc::new(Barrier::new(THREADS));
    let max_seen = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = c.clone();
            let barrier = barrier.clone();
            let max_seen = max_seen.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..ROUNDS {
                    let v = (t * ROUNDS + i) as i64;
                    c.update("hot", doc(v)).unwrap();
                    // Every observed value must be one some writer wrote in
                    // full — torn interleavings would fail the parse.
                    let seen = c.get("hot").unwrap().child_parse::<i64>("v").unwrap();
                    max_seen.fetch_max(seen as u64, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(db.stats().updates(), (THREADS * ROUNDS) as u64);
    // The final value is whichever update committed last, and at least one
    // writer's last-round value was observed.
    assert!(c.get("hot").unwrap().child_parse::<i64>("v").is_some());
    assert!(max_seen.load(Ordering::Relaxed) >= (ROUNDS - 1) as u64);
}

#[test]
fn stats_stay_consistent_under_barrier_interleaving() {
    let db = sharded(BackendKind::Memory);
    let c = db.collection("stats");
    const THREADS: usize = 6;
    const KEYS_PER_THREAD: usize = 40;
    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = c.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..KEYS_PER_THREAD {
                    let key = format!("t{t}-{i}");
                    c.insert(&key, doc(i as i64)).unwrap();
                    c.get(&key);
                    c.update(&key, doc(-1)).unwrap();
                    c.remove(&key);
                }
            });
        }
    });
    let n = (THREADS * KEYS_PER_THREAD) as u64;
    assert_eq!(db.stats().inserts(), n);
    assert_eq!(db.stats().reads(), n);
    assert_eq!(db.stats().updates(), n);
    assert_eq!(db.stats().deletes(), n);
    assert!(c.is_empty());
    // Every charged microsecond was attributed to some shard — with the free
    // model total busy is zero; re-run one charged op under a real model to
    // check attribution plumbing end-to-end.
    let charged = Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::calibrated_2005()),
        BackendKind::SimDisk,
    );
    let cc = charged.collection("one");
    cc.insert("k", doc(1)).unwrap();
    assert_eq!(
        charged.stats().total_busy_us(),
        CostModel::calibrated_2005().db_insert_us
    );
}

#[test]
fn contended_same_shard_write_is_counted() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let probe = sharded(BackendKind::Memory).collection("probe");
    let (held_key, same_shard_key) = keys_on_same_shard(&probe);

    let db = sharded(BackendKind::Custom(Arc::new(GatedBackend {
        gate_key: held_key.clone(),
        entered: entered_tx,
        release: std::sync::Mutex::new(release_rx),
    })));
    let c = db.collection("probe");
    assert_eq!(c.shard_of(&held_key), c.shard_of(&same_shard_key));

    let blocker = {
        let c = c.clone();
        let key = held_key.clone();
        std::thread::spawn(move || c.insert(&key, doc(1)))
    };
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("blocker entered the gated backend");

    // This writer targets the held shard: it must block (counted as a lock
    // contention) until the gate opens.
    let contender = {
        let c = c.clone();
        let key = same_shard_key.clone();
        std::thread::spawn(move || c.insert(&key, doc(2)))
    };
    // Give the contender time to reach the lock, then release the gate.
    while db.stats().lock_contentions() == 0 {
        std::thread::yield_now();
    }
    release_tx.send(()).unwrap();
    blocker.join().unwrap().unwrap();
    contender.join().unwrap().unwrap();
    assert!(db.stats().lock_contentions() >= 1);
    assert!(c.get(&held_key).is_some());
    assert!(c.get(&same_shard_key).is_some());
}
