//! WS-Eventing's side of the shared fan-out core — with the honest
//! accounting the cross-stack comparison depends on.
//!
//! WS-Eventing has **no topic space**: a subscription attaches to the whole
//! event source, filtered only by an optional XPath over the message. Every
//! entry therefore registers [`CompiledTopic::match_all`] and lands on the
//! sharded table's *wildcard shard* — this stack gets none of WSN's
//! shard-scaling benefit, exactly as the real protocol wouldn't. The flat
//! XML file stays the charged store of record for subscribe/renew/
//! unsubscribe; the index only replaces the per-trigger *re-parse* of that
//! file with a cache-hit-priced resolve.
//!
//! Content filters ride the core's filter index: the XPath is compiled once
//! at `Subscribe` (the same compilation that validates it) and grouped by
//! text, so a trigger evaluates each *distinct* filter once and is handed
//! the `Arc` of each matching subscription — nothing is cloned or compiled
//! per event. Every live subscription is still a charged candidate.
//!
//! Expiry is watermarked: an ordered set of `(expires, id)` lets `trigger`
//! skip the charged purge entirely until some subscription is actually due
//! — and when one is, it is evicted from the index (and its parked batches
//! discarded) *at expiry*, never lazily. The set holds at most one entry per
//! live subscription: `Renew` replaces the entry and eviction drops it, so
//! churn cannot grow it.

use std::collections::BTreeSet;
use std::sync::Arc;

use ogsa_fanout::{CompiledTopic, ContentFilter, FanoutCosts, FanoutStats, ShardedTable};
use ogsa_sim::{CostModel, SimInstant, VirtualClock};
use ogsa_telemetry::Telemetry;
use ogsa_xml::{Element, XmlResult};
use parking_lot::Mutex;

use crate::store::EventSubscription;

/// Notified when a subscription leaves the index for good (expiry or
/// `Unsubscribe`): the notification manager's deliverer discards parked
/// batches, etc.
pub type EvictHook = Arc<dyn Fn(&str) + Send + Sync>;

/// `(expires_micros, sub_id)`, earliest-due first.
type Expiries = BTreeSet<(u64, String)>;

fn expiry_key(sub: &EventSubscription) -> Option<(u64, String)> {
    sub.expires.map(|t| (t.0, sub.id.clone()))
}

fn disarm(expiries: &mut Expiries, sub: &EventSubscription) {
    if let Some(key) = expiry_key(sub) {
        expiries.remove(&key);
    }
}

/// The in-memory fan-out index kept in lock-step with the flat XML file.
#[derive(Clone)]
pub struct EventIndex {
    table: Arc<ShardedTable<EventSubscription>>,
    /// The expiry watermark. Locked *around* the table mutation it mirrors
    /// (never the other way), so the two cannot drift under concurrent
    /// renewals.
    expiries: Arc<Mutex<Expiries>>,
    evict_hooks: Arc<Mutex<Vec<EvictHook>>>,
}

impl EventIndex {
    pub fn new(clock: VirtualClock, model: &CostModel, tel: &Telemetry) -> Self {
        let table = ShardedTable::new(
            1,
            clock,
            FanoutCosts::from_model(model),
            tel.clone(),
            "eventing",
        );
        table.stats().register_gauges(tel, "eventing");
        Self::over(table)
    }

    /// A free, untelemetered index for tests.
    pub fn free() -> Self {
        Self::over(ShardedTable::free(1, "eventing"))
    }

    fn over(table: ShardedTable<EventSubscription>) -> Self {
        EventIndex {
            table: Arc::new(table),
            expiries: Arc::new(Mutex::new(BTreeSet::new())),
            evict_hooks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn on_evict(&self, hook: EvictHook) {
        self.evict_hooks.lock().push(hook);
    }

    /// Compile a `Filter` for a subscription about to be inserted; the
    /// error is the `Subscribe` fault.
    pub fn compile_filter(&self, text: &str) -> XmlResult<ContentFilter> {
        self.table.compile_filter(text)
    }

    /// Index a subscription under its compiled filter (`None` when it has
    /// none: it then matches every event).
    pub fn insert(&self, sub: EventSubscription, filter: Option<ContentFilter>) {
        let mut expiries = self.expiries.lock();
        self.unindex(&mut expiries, &sub.id);
        expiries.extend(expiry_key(&sub));
        self.table
            .insert(sub, CompiledTopic::match_all(), filter, false);
    }

    /// Renewals: replace the indexed payload and move the watermark entry.
    pub fn update(&self, sub: EventSubscription) -> bool {
        let mut expiries = self.expiries.lock();
        let renewed = expiry_key(&sub);
        let Some(old) = self.table.update(sub) else {
            return false;
        };
        disarm(&mut expiries, &old);
        expiries.extend(renewed);
        true
    }

    /// Drop `id` from the table and the watermark; false if unknown.
    fn unindex(&self, expiries: &mut Expiries, id: &str) -> bool {
        let Some(old) = self.table.remove(id) else {
            return false;
        };
        disarm(expiries, &old);
        true
    }

    /// Evict a subscription and notify hooks (expiry and `Unsubscribe`).
    pub fn evict(&self, id: &str) -> bool {
        let removed = self.unindex(&mut self.expiries.lock(), id);
        if removed {
            for hook in self.evict_hooks.lock().iter() {
                hook(id);
            }
        }
        removed
    }

    /// Has any watermarked expiry passed? Pops everything due, so a `true`
    /// answer must be followed by a purge against the store of record.
    pub fn expiry_due(&self, now: SimInstant) -> bool {
        let mut expiries = self.expiries.lock();
        let mut due = false;
        while expiries.first().is_some_and(|(t, _)| *t <= now.0) {
            expiries.pop_first();
            due = true;
        }
        due
    }

    /// Every live subscription, sorted by id — one wildcard-shard trie walk
    /// priced at a cache hit per candidate, replacing the seed's full
    /// flat-file re-parse per trigger.
    pub fn all_active(&self) -> Vec<Arc<EventSubscription>> {
        self.table.resolve(&["event"])
    }

    /// The live subscriptions whose filter accepts `event`, sorted by id:
    /// [`EventIndex::all_active`]'s walk and charge, each distinct filter
    /// evaluated once.
    pub fn matching(&self, event: &Element) -> Vec<Arc<EventSubscription>> {
        self.table.resolve_matching(&["event"], event)
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    pub fn stats(&self) -> &FanoutStats {
        self.table.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_addressing::EndpointReference;

    fn sub(id: &str, expires: Option<u64>) -> EventSubscription {
        EventSubscription {
            id: id.into(),
            notify_to: EndpointReference::service("tcp://c/events"),
            mode: crate::delivery::PUSH_MODE.into(),
            filter: None,
            expires: expires.map(SimInstant),
            end_to: None,
        }
    }

    #[test]
    fn match_all_entries_resolve_for_any_event() {
        let idx = EventIndex::free();
        idx.insert(sub("a", None), None);
        idx.insert(sub("b", None), None);
        let ids: Vec<String> = idx.all_active().iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids, ["a", "b"]);
    }

    #[test]
    fn expiry_watermark_fires_once_per_due_entry() {
        let idx = EventIndex::free();
        idx.insert(sub("a", Some(100)), None);
        idx.insert(sub("b", None), None);
        assert!(!idx.expiry_due(SimInstant(50)), "nothing due yet");
        assert!(idx.expiry_due(SimInstant(150)), "a is due");
        assert!(!idx.expiry_due(SimInstant(200)), "watermark consumed");
    }

    #[test]
    fn renew_rearms_the_watermark() {
        let idx = EventIndex::free();
        idx.insert(sub("a", Some(100)), None);
        assert!(idx.update(sub("a", Some(300))));
        // The renewal moved the entry: the old time no longer fires (and
        // no longer costs a purge), the new one does.
        assert!(!idx.expiry_due(SimInstant(200)));
        assert!(idx.expiry_due(SimInstant(300)));
        assert!(!idx.update(sub("ghost", Some(1))), "unknown id");
        assert!(idx.expiries.lock().is_empty());
    }

    #[test]
    fn churn_keeps_the_watermark_bounded_by_live_subscriptions() {
        // Far-future expiries never pass, so before the fix every insert
        // and every Renew left an entry behind for good.
        const FAR: u64 = u64::MAX / 2;
        let idx = EventIndex::free();
        let tracked = |idx: &EventIndex| idx.expiries.lock().len();
        for round in 0..200u64 {
            let id = format!("churn-{round}");
            idx.insert(sub(&id, Some(FAR + round)), None);
            for renew in 1..=5 {
                assert!(idx.update(sub(&id, Some(FAR + round + renew))));
            }
            if round % 2 == 0 {
                assert!(idx.evict(&id));
            }
            assert!(tracked(&idx) <= idx.len(), "round {round}");
        }
        assert_eq!((idx.len(), tracked(&idx)), (100, 100));
        // A renewal to "no expiry" disarms the entry altogether.
        assert!(idx.update(sub("churn-1", None)));
        assert_eq!(tracked(&idx), 99);

        // Still fires for every due entry, including a renewed one: pull
        // two survivors' expiries in, one of them twice.
        assert!(idx.update(sub("churn-3", Some(500))));
        assert!(idx.update(sub("churn-5", Some(900))));
        assert!(idx.update(sub("churn-5", Some(700))));
        assert!(!idx.expiry_due(SimInstant(499)));
        assert!(idx.expiry_due(SimInstant(500)), "churn-3 is due");
        assert!(!idx.expiry_due(SimInstant(699)));
        assert!(
            idx.expiry_due(SimInstant(700)),
            "churn-5, at its renewed time"
        );
        assert!(!idx.expiry_due(SimInstant(900)), "its old time is gone");
        assert_eq!(tracked(&idx), 97);
    }

    #[test]
    fn evict_runs_hooks() {
        let idx = EventIndex::free();
        let hits = Arc::new(Mutex::new(Vec::new()));
        let seen = hits.clone();
        idx.on_evict(Arc::new(move |id| seen.lock().push(id.to_owned())));
        idx.insert(sub("a", None), None);
        assert!(idx.evict("a"));
        assert!(!idx.evict("a"), "second evict is a no-op");
        assert_eq!(&*hits.lock(), &["a".to_owned()]);
        assert!(idx.all_active().is_empty());
    }
}
