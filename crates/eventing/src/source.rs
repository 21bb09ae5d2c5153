//! The Event Source Service and the Notification Manager.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Container, Operation, OperationContext, WebService};
use ogsa_fanout::{Deliverer, DelivererConfig, Sink};
use ogsa_soap::Fault;
use ogsa_xml::Element;

use crate::delivery::{DeliveryMode, PushDelivery};
use crate::fanout::EventIndex;
use crate::manager::EventingSubscriptionManager;
use crate::messages::SubscribeRequest;
use crate::store::{EventSubscription, FlatXmlStore};

/// The event source: accepts `Subscribe`, hands back the subscription
/// manager EPR.
pub struct EventSourceService {
    store: FlatXmlStore,
    index: EventIndex,
    manager_address: String,
    modes: Arc<HashMap<String, Arc<dyn DeliveryMode>>>,
    seq: AtomicU64,
}

impl EventSourceService {
    /// Deploy an event source at `path` and its subscription manager at
    /// `{path}/manager`. Returns (source EPR, notification manager).
    pub fn deploy(container: &Container, path: &str) -> (EndpointReference, NotificationManager) {
        Self::deploy_with_modes(container, path, vec![Arc::new(PushDelivery)])
    }

    /// Deploy with extra delivery modes (the WS-Eventing extension point).
    pub fn deploy_with_modes(
        container: &Container,
        path: &str,
        modes: Vec<Arc<dyn DeliveryMode>>,
    ) -> (EndpointReference, NotificationManager) {
        let store = FlatXmlStore::new(
            container.clock().clone(),
            Arc::new(container.model().clone()),
        );
        let index = EventIndex::new(
            container.clock().clone(),
            container.model(),
            container.telemetry(),
        );
        let manager_path = format!("{path}/manager");
        let manager_epr = container.deploy(
            &manager_path,
            Arc::new(EventingSubscriptionManager::new(
                store.clone(),
                index.clone(),
            )),
        );

        let mode_map: Arc<HashMap<String, Arc<dyn DeliveryMode>>> =
            Arc::new(modes.into_iter().map(|m| (m.uri().to_owned(), m)).collect());

        let source = EventSourceService {
            store: store.clone(),
            index: index.clone(),
            manager_address: manager_epr.address.clone(),
            modes: mode_map.clone(),
            seq: AtomicU64::new(0),
        };
        let source_epr = container.deploy(path, Arc::new(source));

        let notifier = NotificationManager::new(store, index, container.service_agent(), mode_map);
        (source_epr, notifier)
    }
}

impl WebService for EventSourceService {
    fn handle(&self, op: &Operation, _ctx: &OperationContext) -> Result<Element, Fault> {
        match op.action_name() {
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                if !self.modes.contains_key(&req.mode) {
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
/// the service code that produces events.
#[derive(Clone)]
pub struct NotificationManager {
    store: FlatXmlStore,
    index: EventIndex,
    agent: ClientAgent,
    modes: Arc<HashMap<String, Arc<dyn DeliveryMode>>>,
    deliverer: Deliverer<EventSubscription>,
}

impl NotificationManager {
    fn new(
        store: FlatXmlStore,
        index: EventIndex,
        agent: ClientAgent,
        modes: Arc<HashMap<String, Arc<dyn DeliveryMode>>>,
    ) -> Self {
        let deliverer = Self::build_deliverer(&index, &agent, &modes);
        NotificationManager {
            store,
            index,
            agent,
            modes,
            deliverer,
        }
    }

    /// The WS-Eventing sink. Honest accounting: the spec has no batch
    /// container, so even a coalesced drain sends **one wire message per
    /// event** — batching only amortises the queueing, never the wire.
    fn build_deliverer(
        index: &EventIndex,
        agent: &ClientAgent,
        modes: &Arc<HashMap<String, Arc<dyn DeliveryMode>>>,
    ) -> Deliverer<EventSubscription> {
        let sender = agent.clone();
        let sink_modes = modes.clone();
        let sink: Sink<EventSubscription> =
            Arc::new(move |sub: &EventSubscription, bodies: Vec<Arc<Element>>| {
                let Some(mode) = sink_modes.get(&sub.mode) else {
                    return;
                };
                // The event is the envelope's root, which owns its tree:
                // copied only while another outbox still holds it.
                for body in bodies {
                    mode.deliver(&sender, sub, Arc::unwrap_or_clone(body));
                }
            });
        let deliverer = Deliverer::new(
            agent.network().clone(),
            agent.port().host().to_owned(),
            index.stats().clone(),
            sink,
        );
        // Expired/unsubscribed subscribers lose their parked events and
        // their ledger row too — nothing in the fan-out plane outlives them.
        let evictor = deliverer.clone();
        index.on_evict(Arc::new(move |id| evictor.ledger().forget(id)));
        deliverer
    }

    /// Redeliver lost pushes under `policy`: each matching subscriber's
    /// event is retried with backoff when the wire loses it, and
    /// dead-lettered in the network's record when the budget runs out.
    /// (Without this, pushes inherit the deploying container's redelivery
    /// setting — fire-and-forget by default.)
    pub fn with_redelivery(mut self, policy: ogsa_transport::RetryPolicy) -> Self {
        self.agent = self.agent.with_redelivery(policy);
        let config = self.deliverer.config();
        self.deliverer = Self::build_deliverer(&self.index, &self.agent, &self.modes);
        self.deliverer.set_config(config);
        self
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

    /// Trigger an event: purge expired subscriptions only when the store
    /// says one is actually due (notifying their `EndTo`), ask
    /// the index which subscriptions' filters accept the event, and deliver
    /// through each one's mode. Returns the number of deliveries.
    pub fn trigger(&self, event: Element) -> usize {
        let now = self.agent.clock().now();
        if self.store.expiry_due(now) {
            // Something is due: the purge runs against the flat file (the
            // charged store of record) and evicts eagerly — an expired
            // subscriber is never charged a delivery attempt.
            for dead in self.store.purge_expired(now) {
                self.index.evict(&dead.id);
                if let Some(end_to) = &dead.end_to {
                    self.agent.send_oneway(
                        end_to,
                        crate::messages::actions::SUBSCRIPTION_END,
                        crate::messages::subscription_end("expired"),
                    );
                }
            }
        }
        let mut matching = self.index.matching(&event);
        matching.retain(|sub| self.modes.contains_key(&sub.mode));
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
