//! WS-Eventing's side of the shared fan-out core — with the honest
//! accounting the cross-stack comparison depends on.
//!
//! WS-Eventing has **no topic space**: a subscription attaches to the whole
//! event source, filtered only by an optional XPath over the message. Every
//! entry therefore registers [`CompiledTopic::match_all`] and lands on the
//! sharded table's *wildcard shard* — this stack gets none of WSN's
//! shard-scaling benefit, exactly as the real protocol wouldn't. The flat
//! XML file stays the charged store of record for subscribe/renew/
//! unsubscribe and knows when a subscription is due to expire; the index
//! answers each trigger with a cache-hit-priced resolve, where the original
//! read the file.
//!
//! Content filters ride the core's filter index: the XPath is compiled once
//! at `Subscribe` (the same compilation that validates it) and grouped by
//! text, so a trigger evaluates each *distinct* filter once and is handed
//! the `Arc` of each matching subscription — nothing is cloned or compiled
//! per event. Every live subscription is still a charged candidate.

use std::sync::Arc;

use ogsa_fanout::{CompiledTopic, ContentFilter, FanoutStats, ShardedTable};
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_telemetry::Telemetry;
use ogsa_xml::{Element, XmlResult};

use crate::store::EventSubscription;

/// The in-memory fan-out index kept in lock-step with the flat XML file.
#[derive(Clone)]
pub struct EventIndex {
    table: Arc<ShardedTable<EventSubscription>>,
}

impl EventIndex {
    pub fn new(clock: VirtualClock, model: &CostModel, tel: &Telemetry) -> Self {
        let table = ShardedTable::new(1, clock, model, tel.clone(), "eventing");
        table.stats().register_gauges();
        EventIndex {
            table: Arc::new(table),
        }
    }

    /// The shared table the notification manager's deliverer is built over.
    pub(crate) fn table(&self) -> &ShardedTable<EventSubscription> {
        &self.table
    }

    /// Compile a `Filter` for a subscription about to be inserted; the
    /// error is the `Subscribe` fault.
    pub fn compile_filter(&self, text: &str) -> XmlResult<ContentFilter> {
        self.table.compile_filter(text)
    }

    /// Index a subscription under its compiled filter (`None` when it has
    /// none: it then matches every event).
    pub fn insert(&self, sub: EventSubscription, filter: Option<ContentFilter>) {
        self.table
            .insert(sub, CompiledTopic::match_all(), filter, false);
    }

    /// Renewals: replace the indexed payload; false if unknown.
    pub fn update(&self, sub: EventSubscription) -> bool {
        self.table.update(sub).is_some()
    }

    /// Evict a subscription (expiry and `Unsubscribe`), parked events and
    /// ledger row included; false if unknown.
    pub fn evict(&self, id: &str) -> bool {
        self.table.remove(id).is_some()
    }

    /// Every live subscription, sorted by id — one wildcard-shard trie walk
    /// priced at a cache hit per candidate.
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

    fn index() -> EventIndex {
        EventIndex::new(
            VirtualClock::new(),
            &CostModel::free(),
            &Telemetry::disabled(),
        )
    }

    fn sub(id: &str) -> EventSubscription {
        EventSubscription {
            id: id.into(),
            notify_to: EndpointReference::service("tcp://c/events"),
            mode: crate::messages::PUSH_MODE.into(),
            filter: None,
            expires: None,
            end_to: None,
        }
    }

    #[test]
    fn match_all_entries_resolve_for_any_event() {
        let idx = index();
        idx.insert(sub("a"), None);
        idx.insert(sub("b"), None);
        let ids: Vec<String> = idx.all_active().iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids, ["a", "b"]);
        assert!(idx.evict("a"));
        assert!(!idx.evict("a"), "second evict is a no-op");
        assert_eq!(idx.all_active().len(), 1);
    }
}
