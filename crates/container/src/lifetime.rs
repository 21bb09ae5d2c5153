//! The container's lifetime-management component (Figure 1).
//!
//! WSRF's WS-ResourceLifetime gives resources a termination time; when it
//! passes, the container destroys the resource via a registered destructor.
//! WS-Transfer defines no lifetime management — the paper's WS-Transfer
//! container simply never registers anything here, and its Grid-in-a-Box
//! reservations must be cleaned up manually (the source of Figure 6's
//! "Unreserve Resource" asymmetry).
//!
//! The container sweeps on every request, so a sweep must not cost more
//! because more resources are resident. Entries with a termination time
//! are also held in an index ordered by `(deadline, key)`, and the
//! earliest deadline is published in an atomic: a sweep with nothing due
//! is one atomic load and takes no lock; one with `k` due pops `k` index
//! rows. Resources that never terminate are not indexed at all.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_sim::{SimInstant, VirtualClock};
use ogsa_telemetry::{series_key, Telemetry};
use parking_lot::Mutex;

/// Destructor invoked when a resource's scheduled termination passes.
pub type Destructor = Arc<dyn Fn(&str) + Send + Sync>;

struct Entry {
    termination: Option<SimInstant>,
    destructor: Destructor,
}

/// Gate value when the index is empty: no `now` is below it, so every
/// sweep returns at the gate.
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Default)]
struct State {
    entries: HashMap<String, Entry>,
    /// One row per entry whose `termination` is `Some`, and no others.
    index: BTreeSet<(SimInstant, String)>,
}

impl State {
    /// Move `key`'s index row from `old` to `new`.
    fn reindex(&mut self, key: &str, old: Option<SimInstant>, new: Option<SimInstant>) {
        if old == new {
            return;
        }
        if let Some(t) = old {
            self.index.remove(&(t, key.to_owned()));
        }
        if let Some(t) = new {
            self.index.insert((t, key.to_owned()));
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// The first index row's deadline in microseconds, or [`NO_DEADLINE`].
    /// Stored only while `state` is locked, so at every unlock it equals
    /// the index's minimum; a sweep reads it without the lock.
    next_deadline: AtomicU64,
    expired: AtomicU64,
    sweep_examined: AtomicU64,
}

/// Tracks scheduled termination times for resources, keyed by
/// `(service path, resource id)` flattened to a single string key by the
/// caller.
#[derive(Clone)]
pub struct LifetimeManager {
    inner: Arc<Inner>,
}

impl Default for LifetimeManager {
    fn default() -> Self {
        LifetimeManager {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                next_deadline: AtomicU64::new(NO_DEADLINE),
                expired: AtomicU64::new(0),
                sweep_examined: AtomicU64::new(0),
            }),
        }
    }
}

impl LifetimeManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish the index's minimum as the sweep gate. Callers hold the
    /// `state` lock. Release pairs with the Acquire load in
    /// [`LifetimeManager::sweep`]; the index itself is only ever read
    /// under the lock.
    fn publish_gate(&self, state: &State) {
        let next = state.index.first().map_or(NO_DEADLINE, |(t, _)| t.0);
        self.inner.next_deadline.store(next, Ordering::Release);
    }

    /// Register a resource. `termination == None` means "never terminate"
    /// (the paper's Grid-in-a-Box sets claimed reservations to infinity).
    /// Registering a live key again replaces its entry.
    pub fn register(&self, key: &str, termination: Option<SimInstant>, destructor: Destructor) {
        let mut state = self.inner.state.lock();
        let entry = Entry {
            termination,
            destructor,
        };
        let old = state.entries.insert(key.to_owned(), entry);
        state.reindex(key, old.and_then(|e| e.termination), termination);
        self.publish_gate(&state);
    }

    /// Change a resource's scheduled termination time; true if the resource
    /// is known.
    pub fn set_termination(&self, key: &str, termination: Option<SimInstant>) -> bool {
        let mut state = self.inner.state.lock();
        let Some(entry) = state.entries.get_mut(key) else {
            return false;
        };
        let old = std::mem::replace(&mut entry.termination, termination);
        state.reindex(key, old, termination);
        self.publish_gate(&state);
        true
    }

    /// Current termination time for a resource.
    pub fn termination(&self, key: &str) -> Option<Option<SimInstant>> {
        let state = self.inner.state.lock();
        state.entries.get(key).map(|e| e.termination)
    }

    /// Drop a resource from tracking without destroying it (explicit
    /// Destroy already cleaned up).
    pub fn deregister(&self, key: &str) -> bool {
        let mut state = self.inner.state.lock();
        let Some(entry) = state.entries.remove(key) else {
            return false;
        };
        state.reindex(key, entry.termination, None);
        self.publish_gate(&state);
        true
    }

    /// Destroy everything whose termination time has passed (`t <= now`).
    /// Destructors run outside the lock, in `(deadline, key)` order, so
    /// they may call back into this manager and what they record is the
    /// same on every run. Returns the keys destroyed, sorted.
    pub fn sweep(&self, now: SimInstant) -> Vec<String> {
        if now.0 < self.inner.next_deadline.load(Ordering::Acquire) {
            return Vec::new();
        }
        let due: Vec<(String, Destructor)> = {
            let mut state = self.inner.state.lock();
            let mut due = Vec::new();
            while let Some((t, key)) = state.index.pop_first() {
                if t > now {
                    state.index.insert((t, key));
                    break;
                }
                let entry = state
                    .entries
                    .remove(&key)
                    .expect("an index row names a tracked entry");
                due.push((key, entry.destructor));
            }
            self.publish_gate(&state);
            due
        };
        let n = due.len() as u64;
        self.inner.sweep_examined.fetch_add(n, Ordering::Relaxed);
        self.inner.expired.fetch_add(n, Ordering::Relaxed);
        let mut destroyed = Vec::with_capacity(due.len());
        for (key, destructor) in due {
            destructor(&key);
            destroyed.push(key);
        }
        destroyed.sort();
        destroyed
    }

    /// Convenience: sweep at the clock's current time.
    pub fn sweep_now(&self, clock: &VirtualClock) -> Vec<String> {
        self.sweep(clock.now())
    }

    /// Number of tracked resources.
    pub fn tracked(&self) -> usize {
        self.inner.state.lock().entries.len()
    }

    /// The earliest scheduled termination among tracked resources, if any
    /// has one.
    pub fn next_deadline(&self) -> Option<SimInstant> {
        match self.inner.next_deadline.load(Ordering::Acquire) {
            NO_DEADLINE => None,
            us => Some(SimInstant(us)),
        }
    }

    /// Resources destroyed by sweeps so far.
    pub fn expired(&self) -> u64 {
        self.inner.expired.load(Ordering::Relaxed)
    }

    /// Index rows sweeps have looked at so far. A sweep examines exactly
    /// the rows it expires — never the resident population.
    pub fn sweep_examined(&self) -> u64 {
        self.inner.sweep_examined.load(Ordering::Relaxed)
    }

    /// Publish this manager on `tel`'s metrics registry, labelled by
    /// `host`: gauges `container.lifetime_tracked` and
    /// `container.lifetime_next_deadline_us` (absent while nothing is
    /// scheduled), counters `container.lifetime_expired` and
    /// `container.lifetime_sweep_examined`. Read at scrape time only
    /// (`gather()`, never the deterministic `snapshot()`), so the request
    /// path pushes nothing. Managers of one host add up; a dropped
    /// manager stops reporting.
    pub(crate) fn register_metrics(&self, tel: &Telemetry, host: &str) {
        let weak = Arc::downgrade(&self.inner);
        let host = host.to_owned();
        tel.metrics().register_collector(move |snap| {
            let Some(inner) = weak.upgrade() else {
                return;
            };
            let lm = LifetimeManager { inner };
            let key = |name: &str| series_key(name, &[("host", &host)]);
            let add = |series: &mut BTreeMap<String, u64>, name: &str, v: u64| {
                *series.entry(key(name)).or_insert(0) += v;
            };
            add(
                &mut snap.gauges,
                "container.lifetime_tracked",
                lm.tracked() as u64,
            );
            add(
                &mut snap.counters,
                "container.lifetime_expired",
                lm.expired(),
            );
            add(
                &mut snap.counters,
                "container.lifetime_sweep_examined",
                lm.sweep_examined(),
            );
            if let Some(t) = lm.next_deadline() {
                snap.gauges
                    .entry(key("container.lifetime_next_deadline_us"))
                    .and_modify(|v| *v = t.0.min(*v))
                    .or_insert(t.0);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_sim::SimDuration;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Duration;

    fn counter_destructor(count: &Arc<AtomicUsize>) -> Destructor {
        let count = count.clone();
        Arc::new(move |_k| {
            count.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// A destructor that appends the key it was called with to `log`.
    fn logging_destructor(log: &Arc<Mutex<Vec<String>>>) -> Destructor {
        let log = log.clone();
        Arc::new(move |k| log.lock().push(k.to_owned()))
    }

    fn noop() -> Destructor {
        Arc::new(|_k| {})
    }

    /// The index holds exactly the live entries that have a deadline, and
    /// the gate is its minimum.
    fn assert_index_matches_entries(lm: &LifetimeManager) {
        let state = lm.inner.state.lock();
        let expected: BTreeSet<(SimInstant, String)> = state
            .entries
            .iter()
            .filter_map(|(k, e)| e.termination.map(|t| (t, k.clone())))
            .collect();
        assert_eq!(state.index, expected);
        assert_eq!(
            lm.inner.next_deadline.load(Ordering::Acquire),
            expected.first().map_or(NO_DEADLINE, |(t, _)| t.0)
        );
    }

    #[test]
    fn sweep_destroys_only_expired() {
        let lm = LifetimeManager::new();
        let destroyed = Arc::new(AtomicUsize::new(0));
        lm.register("a", Some(SimInstant(100)), counter_destructor(&destroyed));
        lm.register("b", Some(SimInstant(200)), counter_destructor(&destroyed));
        lm.register("c", None, counter_destructor(&destroyed));

        let swept = lm.sweep(SimInstant(150));
        assert_eq!(swept, ["a"]);
        assert_eq!(destroyed.load(Ordering::SeqCst), 1);
        assert_eq!(lm.tracked(), 2);

        let swept = lm.sweep(SimInstant(1_000_000));
        assert_eq!(swept, ["b"]);
        // `c` (never terminate) survives any sweep.
        assert_eq!(lm.tracked(), 1);
    }

    #[test]
    fn set_termination_extends_lifetime() {
        // The Grid-in-a-Box "claim" interaction: the ExecService lengthens
        // the reservation's lifetime when a job starts.
        let lm = LifetimeManager::new();
        let destroyed = Arc::new(AtomicUsize::new(0));
        lm.register("rsv", Some(SimInstant(100)), counter_destructor(&destroyed));
        assert!(lm.set_termination("rsv", None)); // claim → infinity
        assert!(lm.sweep(SimInstant(10_000)).is_empty());
        assert_eq!(destroyed.load(Ordering::SeqCst), 0);
        assert_eq!(lm.termination("rsv"), Some(None));
    }

    #[test]
    fn set_termination_unknown_key_is_false() {
        assert!(!LifetimeManager::new().set_termination("ghost", None));
    }

    #[test]
    fn deregister_prevents_destruction() {
        let lm = LifetimeManager::new();
        let destroyed = Arc::new(AtomicUsize::new(0));
        lm.register("a", Some(SimInstant(5)), counter_destructor(&destroyed));
        assert!(lm.deregister("a"));
        assert!(!lm.deregister("a"));
        lm.sweep(SimInstant(10));
        assert_eq!(destroyed.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn sweep_now_uses_the_clock() {
        let lm = LifetimeManager::new();
        let clock = VirtualClock::new();
        let destroyed = Arc::new(AtomicUsize::new(0));
        lm.register("a", Some(SimInstant(50)), counter_destructor(&destroyed));
        assert!(lm.sweep_now(&clock).is_empty());
        clock.advance(SimDuration::from_micros(60));
        assert_eq!(lm.sweep_now(&clock), ["a"]);
    }

    #[test]
    fn destructor_receives_the_key() {
        let lm = LifetimeManager::new();
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        lm.register("svc/r-1", Some(SimInstant(1)), logging_destructor(&seen));
        lm.sweep(SimInstant(2));
        assert_eq!(&*seen.lock(), &["svc/r-1"]);
    }

    #[test]
    fn destructors_run_in_deadline_then_key_order() {
        let lm = LifetimeManager::new();
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        for (key, t) in [("d", 30), ("b", 20), ("c", 10), ("a", 20), ("e", 99)] {
            lm.register(key, Some(SimInstant(t)), logging_destructor(&order));
        }
        // The return value stays sorted by key; the calls are by deadline.
        assert_eq!(lm.sweep(SimInstant(30)), ["a", "b", "c", "d"]);
        assert_eq!(&*order.lock(), &["c", "a", "b", "d"]);
        assert_eq!(lm.next_deadline(), Some(SimInstant(99)));
    }

    #[test]
    fn a_sweep_with_nothing_due_examines_nothing_and_takes_no_lock() {
        let lm = LifetimeManager::new();
        for i in 0..100_000 {
            lm.register(&format!("never-{i}"), None, noop());
        }
        for i in 0..10u64 {
            lm.register(&format!("far-{i}"), Some(SimInstant(1_000_000 + i)), noop());
        }
        assert_eq!(lm.tracked(), 100_010);
        assert_eq!(
            lm.inner.state.lock().index.len(),
            10,
            "Never is not indexed"
        );

        // Nothing due: the sweep must return while this thread holds the
        // manager's only lock.
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let held = lm.inner.state.lock();
            s.spawn(|| tx.send(lm.sweep(SimInstant(999_999))).unwrap());
            let swept = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a sweep with nothing due blocked on the lock");
            drop(held);
            assert!(swept.is_empty());
        });
        assert_eq!(lm.sweep_examined(), 0);

        // k due: k examined, whatever the population.
        assert_eq!(lm.sweep(SimInstant(1_000_003)).len(), 4);
        assert_eq!(lm.sweep_examined(), 4);
        assert_eq!(lm.expired(), 4);
        assert!(lm.sweep(SimInstant(1_000_003)).is_empty());
        assert_eq!(lm.sweep_examined(), 4);
        assert_eq!(lm.tracked(), 100_006);
        assert_index_matches_entries(&lm);
    }

    #[test]
    fn a_destructor_may_call_back_into_the_manager() {
        let lm = LifetimeManager::new();
        let lm2 = lm.clone();
        lm.register("sibling", Some(SimInstant(500)), noop());
        lm.register("victim", None, noop());
        lm.register(
            "a",
            Some(SimInstant(10)),
            Arc::new(move |_k| {
                lm2.register("reborn", Some(SimInstant(5)), noop());
                assert!(lm2.set_termination("sibling", None));
                assert!(lm2.deregister("victim"));
                assert!(lm2.sweep(SimInstant(0)).is_empty());
            }),
        );
        assert_eq!(lm.sweep(SimInstant(10)), ["a"]);
        assert_eq!(lm.termination("sibling"), Some(None));
        assert_eq!(lm.termination("victim"), None);
        // Registered during the sweep with a deadline already past: the
        // next sweep takes it.
        assert_eq!(lm.next_deadline(), Some(SimInstant(5)));
        assert_eq!(lm.sweep(SimInstant(10)), ["reborn"]);
        assert_index_matches_entries(&lm);
    }

    #[test]
    fn an_earlier_deadline_registered_during_a_sweep_is_honoured_by_the_next() {
        for round in 0..200 {
            let lm = LifetimeManager::new();
            let destroyed = Arc::new(AtomicUsize::new(0));
            lm.register("far", Some(SimInstant(1_000_000)), noop());
            lm.register("due", Some(SimInstant(100)), noop());
            let start = Barrier::new(2);
            let mut swept = std::thread::scope(|s| {
                let sweeper = s.spawn(|| {
                    start.wait();
                    lm.sweep(SimInstant(500))
                });
                start.wait();
                lm.register(
                    "early",
                    Some(SimInstant(200)),
                    counter_destructor(&destroyed),
                );
                sweeper.join().expect("sweeper panicked")
            });
            // The racing sweep may or may not have seen `early`; the one
            // after `register` returned must.
            swept.extend(lm.sweep(SimInstant(500)));
            swept.sort();
            assert_eq!(swept, ["due", "early"], "round {round}");
            assert_eq!(destroyed.load(Ordering::SeqCst), 1);
            assert_eq!(lm.next_deadline(), Some(SimInstant(1_000_000)));
        }
    }

    /// The manager this module replaced: one map, every sweep scans it all.
    /// Kept here only as the oracle for the model test below.
    #[derive(Default)]
    struct ScanModel {
        entries: BTreeMap<String, Option<SimInstant>>,
    }

    impl ScanModel {
        /// Keys with `t <= now`, removed, in `(deadline, key)` order.
        fn sweep(&mut self, now: SimInstant) -> Vec<String> {
            let mut due: Vec<(SimInstant, String)> = self
                .entries
                .iter()
                .filter_map(|(k, t)| t.filter(|t| *t <= now).map(|t| (t, k.clone())))
                .collect();
            due.sort();
            due.into_iter()
                .map(|(_, k)| {
                    self.entries.remove(&k);
                    k
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn indexed_manager_agrees_with_a_full_scan_model(
            script in proptest::collection::vec(
                (0u8..5, 0usize..6, proptest::option::of(0u64..12)),
                1..80,
            )
        ) {
            const KEYS: [&str; 6] = ["a", "b", "c", "svc/r-1", "svc/r-2", "svc/r-10"];
            let lm = LifetimeManager::new();
            let mut model = ScanModel::default();
            let calls = Arc::new(Mutex::new(Vec::<String>::new()));
            let mut expired = 0u64;

            for (op, key, t) in script {
                let key = KEYS[key];
                let t = t.map(SimInstant);
                match op {
                    // Twice as many registers as anything else, so scripts
                    // re-register live keys and keep the map populated.
                    0 | 1 => {
                        lm.register(key, t, logging_destructor(&calls));
                        model.entries.insert(key.to_owned(), t);
                    }
                    2 => {
                        let known = model.entries.get_mut(key).map(|slot| *slot = t).is_some();
                        prop_assert_eq!(lm.set_termination(key, t), known);
                    }
                    3 => {
                        let known = model.entries.remove(key).is_some();
                        prop_assert_eq!(lm.deregister(key), known);
                    }
                    _ => {
                        // `None` sweeps at 12: past every deadline a script
                        // can set. Otherwise `now` lands on deadlines often
                        // enough to pin the `t <= now` boundary.
                        let now = t.unwrap_or(SimInstant(12));
                        let in_order = model.sweep(now);
                        let mut sorted = in_order.clone();
                        sorted.sort();
                        prop_assert_eq!(lm.sweep(now), sorted);
                        prop_assert_eq!(std::mem::take(&mut *calls.lock()), in_order.clone());
                        expired += in_order.len() as u64;
                    }
                }
                prop_assert_eq!(lm.tracked(), model.entries.len());
                for k in KEYS {
                    prop_assert_eq!(lm.termination(k), model.entries.get(k).copied());
                }
                prop_assert_eq!(
                    lm.next_deadline(),
                    model.entries.values().flatten().min().copied()
                );
                assert_index_matches_entries(&lm);
            }
            prop_assert_eq!(lm.expired(), expired);
            prop_assert_eq!(lm.sweep_examined(), expired);
        }
    }
}
