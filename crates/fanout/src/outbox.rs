//! Per-subscriber outboxes, the coalescing deliverer, and the redelivery
//! ledger.
//!
//! In the default **immediate** plan the deliverer hands each notification
//! straight to the stack's sink — one wire message per subscriber per
//! event, byte-for-byte what the seed did, so every virtual-time figure and
//! chaos replay is unchanged. Switching to the **coalesce** plan parks
//! notifications in bounded per-subscriber outboxes; a drain folds
//! everything queued for one endpoint into a single sink call (WS-
//! Notification batches them into one `<wsnt:Notify>` envelope; WS-Eventing
//! honestly keeps one message per event because its spec has no batch
//! container).
//!
//! Backpressure: each outbox is bounded. Overflow applies **drop-oldest** —
//! the evicted notification is counted in `wsn.backpressure_drops`, written
//! to the network's PR-1 dead-letter record, and marked dropped in the
//! ledger. Queued notifications register as external work on the network,
//! so `Network::quiesce`/`drain` cannot return while coalesced batches are
//! still parked.
//!
//! State is **one slot per subscriber**: its ledger row, its outbox and the
//! `Arc` of the subscription, found by `&str` in one map under one lock —
//! accepting a notification allocates nothing but the queue's own growth.
//! Flushes still drain subscribers in id order.
//! A parked notification is an `Arc<Element>`: one tree per event, a
//! pointer to it in every matching subscriber's outbox, no copy per match.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use ogsa_transport::{DeadLetter, FaultKind, Network};
use ogsa_xml::Element;
use parking_lot::Mutex;

use crate::table::{FanoutStats, ShardedTable, Subscriber, DEPTH};

/// How the deliverer moves notifications to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPlan {
    /// Hand every notification to the sink as it arrives (seed behaviour).
    Immediate,
    /// Park notifications per subscriber; drain when a subscriber's queue
    /// reaches `batch_max` or on an explicit [`Deliverer::flush`].
    Coalesce { batch_max: usize },
}

/// Deliverer configuration.
#[derive(Debug, Clone, Copy)]
pub struct DelivererConfig {
    pub plan: DeliveryPlan,
    /// Outbox bound per subscriber; beyond it, drop-oldest applies.
    pub outbox_capacity: usize,
}

impl Default for DelivererConfig {
    fn default() -> Self {
        DelivererConfig {
            plan: DeliveryPlan::Immediate,
            outbox_capacity: 1024,
        }
    }
}

/// The stack-specific send: given one subscriber and everything queued for
/// it, put the message(s) on the wire. WSN builds one coalesced envelope;
/// WS-Eventing sends one message per element.
pub type Sink<T> = Arc<dyn Fn(&T, Vec<Arc<Element>>) + Send + Sync>;

/// Per-subscriber delivery accounting: the durable redelivery ledger. The
/// wire-level retry/dead-letter machinery (PR 1) is per *message*; the
/// ledger aggregates per *subscriber*, so a durable subscription can be
/// audited — everything enqueued is either delivered to the wire layer or
/// recorded as a backpressure drop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Notifications accepted for this subscriber.
    pub enqueued: u64,
    /// Notifications handed to the wire layer (counting each coalesced
    /// member, not each envelope).
    pub delivered: u64,
    /// Wire envelopes used (― < delivered when coalescing took effect).
    pub envelopes: u64,
    /// Notifications evicted by backpressure (also dead-lettered).
    pub dropped: u64,
}

/// One subscriber's delivery state: ledger row and outbox together, so an
/// accepted notification touches one map entry under one lock.
struct Slot<T> {
    /// The subscription as of the first notification parked since the last
    /// drain (a renewal's new payload is picked up batch by batch).
    sub: Arc<T>,
    shard: usize,
    row: LedgerEntry,
    queue: VecDeque<Arc<Element>>,
}

/// Everything parked for one subscriber, taken out of its slot for a send.
struct Batch<T> {
    sub: Arc<T>,
    shard: usize,
    bodies: Vec<Arc<Element>>,
}

impl<T> Slot<T> {
    fn take_batch(&mut self) -> Option<Batch<T>> {
        (!self.queue.is_empty()).then(|| Batch {
            sub: self.sub.clone(),
            shard: self.shard,
            bodies: Vec::from(std::mem::take(&mut self.queue)),
        })
    }
}

struct DelivererInner<T: Subscriber> {
    config: Mutex<DelivererConfig>,
    /// Keyed by subscription id. Hashed for the per-match lookup; a flush
    /// sorts the non-empty slots by id, so drains stay deterministic under
    /// the virtual clock.
    slots: Mutex<HashMap<String, Slot<T>>>,
    sink: Sink<T>,
    net: Network,
    from_host: String,
    stats: FanoutStats,
}

/// Drains per-subscriber outboxes into the stack's sink.
pub struct Deliverer<T: Subscriber> {
    inner: Arc<DelivererInner<T>>,
}

impl<T: Subscriber> Clone for Deliverer<T> {
    fn clone(&self) -> Self {
        Deliverer {
            inner: self.inner.clone(),
        }
    }
}

/// The redelivery ledger: a view of the per-subscriber rows a
/// [`Deliverer`] keeps in its slots.
pub struct RedeliveryLedger<'a, T: Subscriber> {
    deliverer: &'a Deliverer<T>,
}

impl<T: Subscriber> RedeliveryLedger<'_, T> {
    pub fn entry(&self, id: &str) -> Option<LedgerEntry> {
        let slots = self.deliverer.inner.slots.lock();
        slots.get(id).map(|s| s.row.clone())
    }

    pub fn snapshot(&self) -> BTreeMap<String, LedgerEntry> {
        let slots = self.deliverer.inner.slots.lock();
        slots
            .iter()
            .map(|(id, s)| (id.clone(), s.row.clone()))
            .collect()
    }
}

impl<T: Subscriber> Deliverer<T> {
    /// A deliverer for `table`'s subscribers: removing one from the table
    /// discards its slot here too.
    pub fn new(
        net: Network,
        from_host: impl Into<String>,
        table: &ShardedTable<T>,
        sink: Sink<T>,
    ) -> Self {
        let deliverer = Deliverer {
            inner: Arc::new(DelivererInner {
                config: Mutex::new(DelivererConfig::default()),
                slots: Mutex::new(HashMap::new()),
                sink,
                net,
                from_host: from_host.into(),
                stats: table.stats().clone(),
            }),
        };
        table.attach(deliverer.clone());
        deliverer
    }

    pub fn set_config(&self, config: DelivererConfig) {
        *self.inner.config.lock() = config;
    }

    pub fn config(&self) -> DelivererConfig {
        *self.inner.config.lock()
    }

    pub fn ledger(&self) -> RedeliveryLedger<'_, T> {
        RedeliveryLedger { deliverer: self }
    }

    /// Notifications currently parked in outboxes.
    pub fn pending(&self) -> usize {
        let slots = self.inner.slots.lock();
        slots.values().map(|s| s.queue.len()).sum()
    }

    /// What is parked for `sub_id`, oldest first: the pointers, not copies.
    pub fn parked(&self, sub_id: &str) -> Vec<Arc<Element>> {
        let slots = self.inner.slots.lock();
        slots
            .get(sub_id)
            .map_or_else(Vec::new, |s| s.queue.iter().cloned().collect())
    }

    /// Run `f` on the subscriber's slot, creating it on first contact — the
    /// only time accepting a notification allocates a key.
    fn with_slot<R>(&self, sub: &Arc<T>, shard: usize, f: impl FnOnce(&mut Slot<T>) -> R) -> R {
        let mut slots = self.inner.slots.lock();
        if let Some(slot) = slots.get_mut(sub.sub_id()) {
            return f(slot);
        }
        f(slots.entry(sub.sub_id().to_owned()).or_insert(Slot {
            sub: sub.clone(),
            shard,
            row: LedgerEntry::default(),
            queue: VecDeque::new(),
        }))
    }

    /// Accept one notification body for one subscriber. `shard` is the
    /// subscriber's table shard (for the per-shard outbox-depth gauge).
    pub fn enqueue(&self, sub: &Arc<T>, shard: usize, body: impl Into<Arc<Element>>) {
        let body = body.into();
        let config = self.config();
        match config.plan {
            DeliveryPlan::Immediate => {
                self.with_slot(sub, shard, |slot| slot.row.enqueued += 1);
                self.send(sub, vec![body]);
            }
            DeliveryPlan::Coalesce { batch_max } => {
                let full = self.with_slot(sub, shard, |slot| {
                    slot.row.enqueued += 1;
                    if slot.queue.is_empty() {
                        slot.sub = sub.clone();
                        slot.shard = shard;
                    }
                    // Parked work holds the network open: quiesce() must
                    // not return while a batch is queued.
                    self.inner.net.begin_external_work();
                    slot.queue.push_back(body);
                    self.inner.stats.add(shard, DEPTH, 1);
                    if slot.queue.len() > config.outbox_capacity {
                        if let Some(evicted) = slot.queue.pop_front() {
                            self.overflow(slot, shard, &evicted);
                        }
                    }
                    if slot.queue.len() >= batch_max.max(1) {
                        slot.take_batch()
                    } else {
                        None
                    }
                });
                if let Some(batch) = full {
                    self.send_batch(batch);
                }
            }
        }
    }

    fn overflow(&self, slot: &mut Slot<T>, shard: usize, evicted: &Element) {
        self.inner.stats.sub(shard, DEPTH, 1);
        self.inner.stats.count("wsn.backpressure_drops", 1);
        slot.row.dropped += 1;
        let wire_bytes = ogsa_xml::writer::document_len(evicted);
        self.inner.net.record_dead_letter(DeadLetter {
            to: slot.sub.endpoint().address.clone(),
            from_host: self.inner.from_host.clone(),
            attempts: 0,
            reason: FaultKind::Drop,
            enqueued_at: self.inner.net.clock().now(),
            wire_bytes,
        });
        // The evicted notification's external-work slot resolves here.
        self.inner.net.end_external_work();
    }

    /// Hand `bodies` to the sink (outside the slots lock: the sink goes to
    /// the wire), then record the delivery — unless the subscriber was
    /// forgotten meanwhile.
    fn send(&self, sub: &T, bodies: Vec<Arc<Element>>) {
        let n = bodies.len() as u64;
        (self.inner.sink)(sub, bodies);
        if let Some(slot) = self.inner.slots.lock().get_mut(sub.sub_id()) {
            slot.row.delivered += n;
            slot.row.envelopes += 1;
        }
    }

    /// Send a taken batch; returns how many notifications left.
    fn send_batch(&self, batch: Batch<T>) -> usize {
        let k = batch.bodies.len();
        self.send(&batch.sub, batch.bodies);
        self.inner.stats.sub(batch.shard, DEPTH, k as u64);
        // Resolve external work only after the sink put the messages on the
        // wire (which registers its own pending one-ways), so the network
        // never looks momentarily idle mid-hand-off.
        for _ in 0..k {
            self.inner.net.end_external_work();
        }
        k
    }

    /// Drain every outbox, subscribers in id order; returns notifications
    /// flushed.
    pub fn flush(&self) -> usize {
        let mut batches: Vec<Batch<T>> = {
            let mut slots = self.inner.slots.lock();
            slots.values_mut().filter_map(Slot::take_batch).collect()
        };
        batches.sort_by(|a, b| a.sub.sub_id().cmp(b.sub.sub_id()));
        batches.into_iter().map(|b| self.send_batch(b)).sum()
    }

    /// Drop `sub_id`'s slot, discarding (without delivering) anything
    /// parked in it as backpressure drops — [`ShardedTable::remove`] calls
    /// this, so a removed subscriber leaves no batch or ledger row behind.
    pub(crate) fn forget(&self, sub_id: &str) {
        let mut slots = self.inner.slots.lock();
        let Some(mut slot) = slots.remove(sub_id) else {
            return;
        };
        let shard = slot.shard;
        for body in std::mem::take(&mut slot.queue) {
            self.overflow(&mut slot, shard, &body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_addressing::EndpointReference;
    use ogsa_sim::{CostModel, VirtualClock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Sub {
        id: String,
        to: EndpointReference,
    }

    impl Subscriber for Sub {
        fn sub_id(&self) -> &str {
            &self.id
        }
        fn endpoint(&self) -> &EndpointReference {
            &self.to
        }
    }

    fn sub(id: &str) -> Arc<Sub> {
        Arc::new(Sub {
            id: id.to_owned(),
            to: EndpointReference::service("http://c/inbox"),
        })
    }

    fn net() -> Network {
        Network::new(VirtualClock::new(), Arc::new(CostModel::free()))
    }

    fn deliverer(net: &Network, sink: Sink<Sub>) -> Deliverer<Sub> {
        Deliverer::new(net.clone(), "producer-host", &table(), sink)
    }

    fn table() -> ShardedTable<Sub> {
        ShardedTable::free(4, "wsn")
    }

    #[test]
    fn immediate_plan_sends_one_by_one() {
        let n = net();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let d = deliverer(
            &n,
            Arc::new(move |_s: &Sub, bodies: Vec<Arc<Element>>| {
                assert_eq!(bodies.len(), 1);
                seen.fetch_add(1, Ordering::SeqCst);
            }),
        );
        for _ in 0..3 {
            d.enqueue(&sub("a"), 0, Element::new("E"));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(d.pending(), 0);
        let e = d.ledger().entry("a").unwrap();
        assert_eq!(
            (e.enqueued, e.delivered, e.envelopes, e.dropped),
            (3, 3, 3, 0)
        );
    }

    #[test]
    fn coalesce_plan_batches_per_subscriber() {
        let n = net();
        let batches: Arc<Mutex<Vec<(String, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = batches.clone();
        let d = deliverer(
            &n,
            Arc::new(move |s: &Sub, bodies: Vec<Arc<Element>>| {
                seen.lock().push((s.id.clone(), bodies.len()));
            }),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 16 },
            outbox_capacity: 64,
        });
        for _ in 0..3 {
            d.enqueue(&sub("b"), 1, Element::new("E"));
            d.enqueue(&sub("a"), 0, Element::new("E"));
        }
        assert_eq!(d.pending(), 6);
        assert_eq!(n.pending_oneways(), 6, "parked batches hold the network");
        assert_eq!(d.flush(), 6);
        assert_eq!(n.pending_oneways(), 0);
        // Drained in subscriber-id order, one sink call per subscriber.
        assert_eq!(
            &*batches.lock(),
            &[("a".to_owned(), 3), ("b".to_owned(), 3)]
        );
        let e = d.ledger().entry("a").unwrap();
        assert_eq!((e.delivered, e.envelopes), (3, 1));
    }

    /// One event for many subscribers is one tree: every outbox holds a
    /// pointer to it, and the drains let go of it.
    #[test]
    fn one_event_is_parked_once_however_many_subscribers_hold_it() {
        let n = net();
        let seen: Arc<Mutex<Vec<Arc<Element>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let d = deliverer(
            &n,
            Arc::new(move |_s: &Sub, bodies: Vec<Arc<Element>>| sink_seen.lock().extend(bodies)),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 16 },
            outbox_capacity: 64,
        });
        let event = Arc::new(Element::new("E"));
        for id in ["a", "b", "c"] {
            d.enqueue(&sub(id), 0, event.clone());
        }
        assert_eq!(Arc::strong_count(&event), 3 + 1);
        assert!(Arc::ptr_eq(&d.parked("b")[0], &event));
        assert!(d.parked("nobody").is_empty());
        assert_eq!(d.flush(), 3);
        assert!(seen.lock().iter().all(|body| Arc::ptr_eq(body, &event)));
        seen.lock().clear();
        assert_eq!(Arc::strong_count(&event), 1);
        // An owned element is accepted as it always was.
        d.enqueue(&sub("a"), 0, Element::new("E"));
        assert_eq!(d.parked("a").len(), 1);
    }

    #[test]
    fn batch_max_triggers_inline_drain() {
        let n = net();
        let batches: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = batches.clone();
        let d = deliverer(
            &n,
            Arc::new(move |_s: &Sub, bodies: Vec<Arc<Element>>| {
                seen.lock().push(bodies.len());
            }),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 2 },
            outbox_capacity: 64,
        });
        for _ in 0..5 {
            d.enqueue(&sub("a"), 0, Element::new("E"));
        }
        assert_eq!(&*batches.lock(), &[2, 2]);
        assert_eq!(d.pending(), 1);
        d.flush();
        assert_eq!(&*batches.lock(), &[2, 2, 1]);
    }

    #[test]
    fn overflow_drops_oldest_and_dead_letters() {
        let n = net();
        let d = deliverer(&n, Arc::new(|_s: &Sub, _b: Vec<Arc<Element>>| {}));
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 100 },
            outbox_capacity: 2,
        });
        for i in 0..5 {
            d.enqueue(&sub("a"), 0, Element::new(format!("E{i}").as_str()));
        }
        assert_eq!(d.pending(), 2, "bounded at capacity");
        let e = d.ledger().entry("a").unwrap();
        assert_eq!((e.enqueued, e.dropped), (5, 3));
        assert_eq!(n.dead_letters().len(), 3);
        assert_eq!(n.dead_letters()[0].to, "http://c/inbox");
        assert_eq!(n.pending_oneways(), 2, "dropped slots resolved");
        d.flush();
        assert_eq!(n.pending_oneways(), 0);
    }

    #[test]
    fn removing_a_subscriber_drops_its_row_and_whatever_is_parked() {
        let n = net();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let t = table();
        let d = Deliverer::new(
            n.clone(),
            "producer-host",
            &t,
            Arc::new(move |_s: &Sub, _b: Vec<Arc<Element>>| {
                seen.fetch_add(1, Ordering::SeqCst);
            }),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 100 },
            outbox_capacity: 100,
        });
        for id in ["a", "b"] {
            let to = EndpointReference::service("http://c/inbox");
            let topic = crate::trie::CompiledTopic::simple("t");
            t.insert(Sub { id: id.into(), to }, topic, None, false);
        }
        d.enqueue(&sub("a"), 0, Element::new("E"));
        d.enqueue(&sub("a"), 0, Element::new("E"));
        d.enqueue(&sub("b"), 1, Element::new("E"));
        assert!(t.remove("a").is_some());
        assert!(d.ledger().entry("a").is_none());
        assert_eq!(d.pending(), 1, "b's notification is still parked");
        assert_eq!(n.pending_oneways(), 1, "a's external-work slots resolved");
        assert_eq!(n.dead_letters().len(), 2);
        assert_eq!(d.inner.stats.backpressure_drops(), 2);
        assert_eq!(
            d.ledger().snapshot().keys().collect::<Vec<_>>(),
            ["b"],
            "one slot per live subscriber"
        );
        assert_eq!(d.flush(), 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "only b's batch went out");
    }
}
