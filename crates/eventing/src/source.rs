//! The Event Source Service and the Notification Manager.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Container, Operation, OperationContext, WebService};
use ogsa_fanout::{Deliverer, DelivererConfig, Sink};
use ogsa_soap::Fault;
use ogsa_xml::Element;

use crate::fanout::EventIndex;
use crate::manager::{purge_expired, EventingSubscriptionManager};
use crate::messages::{SubscribeRequest, EVENT_ACTION, PUSH_MODE};
use crate::store::{EventSubscription, FlatXmlStore};

/// The event source: accepts `Subscribe`, hands back the subscription
/// manager EPR.
pub struct EventSourceService {
    store: FlatXmlStore,
    index: EventIndex,
    manager_address: String,
    seq: AtomicU64,
}

impl EventSourceService {
    /// Deploy an event source at `path` and its subscription manager at
    /// `{path}/manager`. Returns (source EPR, notification manager).
    pub fn deploy(container: &Container, path: &str) -> (EndpointReference, NotificationManager) {
        let store = FlatXmlStore::new(
            container.clock().clone(),
            Arc::new(container.model().clone()),
        );
        let index = EventIndex::new(
            container.clock().clone(),
            container.model(),
            container.telemetry(),
        );
        let agent = container.service_agent();
        let manager_path = format!("{path}/manager");
        let manager_epr = container.deploy(
            &manager_path,
            Arc::new(EventingSubscriptionManager::new(
                store.clone(),
                index.clone(),
                agent.clone(),
            )),
        );

        let source = EventSourceService {
            store: store.clone(),
            index: index.clone(),
            manager_address: manager_epr.address.clone(),
            seq: AtomicU64::new(0),
        };
        let source_epr = container.deploy(path, Arc::new(source));

        let notifier = NotificationManager::new(store, index, agent);
        (source_epr, notifier)
    }
}

impl WebService for EventSourceService {
    fn handle(&self, op: &Operation, _ctx: &OperationContext) -> Result<Element, Fault> {
        match op.action_name() {
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                if req.mode != PUSH_MODE {
                    // Spec fault: DeliveryModeRequestedUnavailable.
                    return Err(Fault::client(format!(
                        "DeliveryModeRequestedUnavailable: {}",
                        req.mode
                    )));
                }
                // Compile the filter eagerly so bad XPath faults at
                // subscribe time, not delivery time — and keep the result:
                // it is the form the fan-out index evaluates.
                let filter = req
                    .filter
                    .as_deref()
                    .map(|f| self.index.compile_filter(f))
                    .transpose()
                    .map_err(|e| Fault::client(format!("invalid filter: {e}")))?;
                let id = format!("es-{}", self.seq.fetch_add(1, Ordering::Relaxed));
                let sub = EventSubscription {
                    id: id.clone(),
                    notify_to: req.notify_to.clone(),
                    mode: req.mode.clone(),
                    filter: req.filter.clone(),
                    expires: req.expires,
                    end_to: req.end_to.clone(),
                };
                // The flat file stays the charged store of record; the
                // index mirrors it for cache-hit-priced fan-out.
                self.store.insert(sub.clone());
                self.index.insert(sub, filter);
                let manager = EndpointReference::resource(self.manager_address.clone(), id);
                Ok(SubscribeRequest::response(&manager, req.expires))
            }
            other => Err(Fault::client(format!(
                "event source does not define `{other}`"
            ))),
        }
    }
}

/// "Additionally the implementation includes Notification Manager, which
/// can be used to trigger a notification to subscribers" (§3.2). Owned by
/// the service code that produces events. Pushes inherit the deploying
/// container's redelivery policy (`Container::set_redelivery`).
#[derive(Clone)]
pub struct NotificationManager {
    store: FlatXmlStore,
    index: EventIndex,
    agent: ClientAgent,
    deliverer: Deliverer<EventSubscription>,
}

impl NotificationManager {
    /// The WS-Eventing sink pushes each event as a one-way SOAP message
    /// straight at `NotifyTo`. Plumbwork Orange "uses a WSE SoapReceiver to
    /// handle notifications via TCP" — the `NotifyTo` EPRs this stack hands
    /// out are `tcp://` addresses, so pushes ride the cheap raw-TCP binding
    /// (the Figure 2 Notify advantage). Honest accounting: the spec has no
    /// batch container, so even a coalesced drain sends **one wire message
    /// per event** — batching only amortises the queueing, never the wire.
    fn new(store: FlatXmlStore, index: EventIndex, agent: ClientAgent) -> Self {
        let sender = agent.clone();
        let sink: Sink<EventSubscription> =
            Arc::new(move |sub: &EventSubscription, bodies: Vec<Arc<Element>>| {
                // The event is the envelope's root, which owns its tree:
                // copied only while another outbox still holds it.
                for body in bodies {
                    sender.send_oneway(&sub.notify_to, EVENT_ACTION, Arc::unwrap_or_clone(body));
                    sender
                        .network()
                        .telemetry()
                        .metrics()
                        .inc("notify.sent", &[("stack", "eventing")]);
                }
            });
        let deliverer = Deliverer::new(
            agent.network().clone(),
            agent.port().host().to_owned(),
            index.table(),
            sink,
        );
        NotificationManager {
            store,
            index,
            agent,
            deliverer,
        }
    }

    /// Switch the delivery plan (builder style) — queueing only; see the
    /// sink's honest-accounting note.
    pub fn with_delivery(self, config: DelivererConfig) -> Self {
        self.deliverer.set_config(config);
        self
    }

    /// The fan-out deliverer (outbox state, redelivery ledger, flush).
    pub fn deliverer(&self) -> &Deliverer<EventSubscription> {
        &self.deliverer
    }

    /// Trigger an event: purge whatever has expired (see
    /// [`purge_expired`]), ask the index which subscriptions' filters
    /// accept the event, and push it to each. Returns the number of
    /// deliveries.
    pub fn trigger(&self, event: Element) -> usize {
        purge_expired(&self.store, &self.index, &self.agent);
        let matching = self.index.matching(&event);
        // Every match's outbox holds a pointer to the one event; the last
        // is handed this function's own, so a single-subscriber trigger
        // sends the tree it was given.
        let shard = self.index.stats().shards() - 1;
        let bodies = std::iter::repeat_n(Arc::new(event), matching.len());
        for (sub, body) in matching.iter().zip(bodies) {
            self.deliverer.enqueue(sub, shard, body);
        }
        matching.len()
    }

    /// The underlying store (tests and benches inspect it).
    pub fn store(&self) -> &FlatXmlStore {
        &self.store
    }

    /// The in-memory fan-out index mirroring the store.
    pub fn index(&self) -> &EventIndex {
        &self.index
    }
}
