//! Pins what the fan-out core charges and emits, probed at the commit
//! before the filter index, `Arc` entries and per-subscriber slots went in.
//! Those changes may move the wall clock only: the same deliveries, the
//! same envelopes, the same virtual microseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_grid::addressing::EndpointReference;
use ogsa_grid::fanout::{
    CompiledTopic, Deliverer, DelivererConfig, DeliveryPlan, ShardedTable, Sink, Subscriber,
};
use ogsa_grid::sim::{CostModel, VirtualClock};
use ogsa_grid::telemetry::Telemetry;
use ogsa_grid::transport::Network;
use ogsa_grid::xml::Element;

struct Sub {
    id: String,
    endpoint: EndpointReference,
}

impl Subscriber for Sub {
    fn sub_id(&self) -> &str {
        &self.id
    }

    fn endpoint(&self) -> &EndpointReference {
        &self.endpoint
    }
}

/// One stack's delivery core under its own honest rules, over `subscribers`
/// subscriptions and `events` events: WSN routes by topic root across 8
/// shards and folds each drain into one `wsnt:Notify`; WS-Eventing has no
/// topics (every subscription on the wildcard shard) and no batch
/// container (one envelope per event). Returns the virtual microseconds
/// charged, the deliveries and the envelopes.
fn delivery_core(wsn: bool, subscribers: usize, events: usize) -> (u64, u64, u64) {
    let clock = VirtualClock::new();
    let model = CostModel::calibrated_2005();
    let stack = if wsn { "wsn" } else { "eventing" };
    let table = ShardedTable::new(
        if wsn { 8 } else { 1 },
        clock.clone(),
        &model,
        Telemetry::disabled(),
        stack,
    );
    for i in 0..subscribers {
        let topic = if wsn {
            CompiledTopic::simple(&format!("root{}", i % 256))
        } else {
            CompiledTopic::match_all()
        };
        let sub = Sub {
            id: format!("s{i:07}"),
            endpoint: EndpointReference::service("http://consumer/inbox"),
        };
        table.insert(sub, topic, None, false);
    }

    let deliveries = Arc::new(AtomicU64::new(0));
    let envelopes = Arc::new(AtomicU64::new(0));
    let (d, e) = (deliveries.clone(), envelopes.clone());
    let sink: Sink<Sub> = Arc::new(move |_sub, bodies: Vec<Arc<Element>>| {
        d.fetch_add(bodies.len() as u64, Ordering::Relaxed);
        e.fetch_add(if wsn { 1 } else { bodies.len() as u64 }, Ordering::Relaxed);
    });
    let net = Network::new(clock.clone(), Arc::new(model));
    let deliverer = Deliverer::new(net, "producer", &table, sink);
    deliverer.set_config(DelivererConfig {
        plan: DeliveryPlan::Coalesce { batch_max: 16 },
        outbox_capacity: 1 << 20,
    });

    let start = clock.now();
    // Events cycle a smaller root set than the subscriptions do, so each
    // subscriber sees repeated events and coalescing has something to fold.
    let event_roots = (events / 4).clamp(1, 256 / 8);
    for ev in 0..events {
        let root = format!("root{}", ev % event_roots);
        let (path, shard): (&[&str], _) = if wsn {
            (&[root.as_str(), "x"], table.shard_of(&root))
        } else {
            (&["event"], table.stats().shards() - 1)
        };
        let event = Arc::new(Element::new("E"));
        for sub in table.resolve(path) {
            deliverer.enqueue(&sub, shard, event.clone());
        }
    }
    deliverer.flush();
    (
        clock.now().since(start).as_micros(),
        deliveries.load(Ordering::Relaxed),
        envelopes.load(Ordering::Relaxed),
    )
}

#[test]
fn delivery_core_charges_and_counts_are_pinned() {
    assert_eq!(delivery_core(true, 1_000, 256), (153_600, 1_024, 128));
    assert_eq!(
        delivery_core(false, 1_000, 256),
        (30_750_720, 256_000, 256_000)
    );
}
