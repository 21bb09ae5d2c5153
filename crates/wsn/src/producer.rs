//! The notification-producer component of the container (Figure 1's
//! "Notification/Eventing Producer/Consumer ... an independent activity
//! within the container").

use std::collections::HashMap;
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::ClientAgent;
use ogsa_fanout::{Deliverer, DelivererConfig};
use ogsa_xml::Element;
use parking_lot::Mutex;

use crate::base::{actions, NotificationMessage, Subscription};
use crate::manager::SubscriptionStore;
use crate::topics::TopicPath;

/// Matches emitted messages against the sharded subscription index and
/// delivers them. Deliveries go over HTTP one-ways (the consumer side is
/// WSRF.NET's "custom HTTP server that clients include") — the very
/// transport choice that makes WSN Notify slower than WS-Eventing's TCP
/// path in Figure 2.
///
/// Delivery runs through the fan-out core's [`Deliverer`]: the default
/// immediate plan sends one wire message per subscriber per event exactly
/// as the seed did; the opt-in coalesce plan parks notifications in bounded
/// per-subscriber outboxes and folds a drain into a single `<wsnt:Notify>`
/// envelope (WS-BaseNotification permits several NotificationMessage
/// children, so batching is spec-legal for this stack).
///
/// Also retains the last message per topic, backing WS-BaseNotification's
/// optional `GetCurrentMessage` operation (a late subscriber can ask for
/// the most recent message on a topic instead of waiting for the next one).
#[derive(Clone)]
pub struct NotificationProducer {
    store: SubscriptionStore,
    producer: Option<EndpointReference>,
    agent: ClientAgent,
    last_messages: Arc<Mutex<HashMap<String, NotificationMessage>>>,
    deliverer: Deliverer<Subscription>,
}

impl NotificationProducer {
    pub fn new(store: SubscriptionStore, agent: ClientAgent) -> Self {
        let deliverer = Self::build_deliverer(&store, &agent);
        NotificationProducer {
            store,
            producer: None,
            agent,
            last_messages: Arc::new(Mutex::new(HashMap::new())),
            deliverer,
        }
    }

    /// The WSN sink: wrapped subscribers get everything queued for them in
    /// ONE `<wsnt:Notify>` envelope (one wire send, one `notify.sent`);
    /// raw-delivery subscribers get one bare message per notification —
    /// there is no legal batch container for out-of-band-schema payloads.
    fn build_deliverer(store: &SubscriptionStore, agent: &ClientAgent) -> Deliverer<Subscription> {
        let sender = agent.clone();
        let metrics_net = agent.network().clone();
        let sink = Arc::new(move |sub: &Subscription, bodies: Vec<Arc<Element>>| {
            let mut sent = 0u64;
            if sub.use_notify {
                sender.send_oneway(
                    &sub.consumer,
                    actions::NOTIFY,
                    NotificationMessage::wrap_all(bodies),
                );
                sent += 1;
            } else {
                // The bare message is the envelope's root, which owns its
                // tree: copied only while another outbox still holds it.
                for body in bodies {
                    sender.send_oneway(&sub.consumer, actions::NOTIFY, Arc::unwrap_or_clone(body));
                    sent += 1;
                }
            }
            for _ in 0..sent {
                metrics_net
                    .telemetry()
                    .metrics()
                    .inc("notify.sent", &[("stack", "wsn")]);
            }
        });
        let deliverer = Deliverer::new(
            agent.network().clone(),
            agent.port().host().to_owned(),
            store.index().stats().clone(),
            sink,
        );
        // Destroyed/expired subscribers lose their parked batches and their
        // ledger row too — nothing in the fan-out plane outlives them.
        let evictor = deliverer.clone();
        store.on_evict(Arc::new(move |id| evictor.ledger().forget(id)));
        deliverer
    }

    /// Stamp a producer EPR into outgoing notifications (builder style) —
    /// Grid-in-a-Box puts the job EPR here so clients know *which* job ended.
    pub fn with_producer(mut self, epr: EndpointReference) -> Self {
        self.producer = Some(epr);
        self
    }

    /// Redeliver lost notifications under `policy`: bounded backoff-spaced
    /// attempts per subscriber, then the network's dead-letter record.
    /// (Without this, deliveries inherit the deploying container's
    /// redelivery setting — fire-and-forget by default.)
    pub fn with_redelivery(mut self, policy: ogsa_transport::RetryPolicy) -> Self {
        self.agent = self.agent.with_redelivery(policy);
        // The sink captured the old agent; rebuild around the new one,
        // carrying the delivery plan over.
        let config = self.deliverer.config();
        self.deliverer = Self::build_deliverer(&self.store, &self.agent);
        self.deliverer.set_config(config);
        self
    }

    /// Switch the delivery plan (builder style) — e.g. coalesced batches.
    pub fn with_delivery(self, config: DelivererConfig) -> Self {
        self.deliverer.set_config(config);
        self
    }

    /// The fan-out deliverer (outbox state, redelivery ledger, flush).
    pub fn deliverer(&self) -> &Deliverer<Subscription> {
        &self.deliverer
    }

    /// Emit a message on a topic; returns the number of subscribers the
    /// message was fanned out to (with coalescing enabled, wire sends can
    /// be fewer — `notify.sent` counts the wire).
    pub fn notify(&self, topic: &TopicPath, message: Element) -> usize {
        self.notify_from(topic, message, self.producer.clone())
    }

    /// Emit with an explicit per-message producer reference.
    pub fn notify_from(
        &self,
        topic: &TopicPath,
        message: Element,
        producer: Option<EndpointReference>,
    ) -> usize {
        let notification = NotificationMessage {
            topic: topic.clone(),
            producer,
            message,
        };

        let matching = self.store.active_matching(topic, &notification.message);
        // One tree per event and delivery form, built when the first
        // subscriber wants it; every match's outbox holds a pointer to it.
        let (mut wrapped, mut raw) = (None, None);
        let shard = self.store.index().shard_of(topic.root());
        for sub in &matching {
            let body: &Arc<Element> = if sub.use_notify {
                wrapped.get_or_insert_with(|| Arc::new(notification.to_element()))
            } else {
                // Raw delivery: the bare message, schema known only by
                // out-of-band agreement (the interop hazard of §3.1).
                raw.get_or_insert_with(|| Arc::new(notification.message.clone()))
            };
            self.deliverer.enqueue(sub, shard, body.clone());
        }
        self.last_messages
            .lock()
            .insert(topic.to_string(), notification);
        matching.len()
    }

    /// WS-BaseNotification `GetCurrentMessage`: the last message emitted on
    /// exactly this topic, if any. Producer services expose this as an
    /// operation; here is the component-level implementation.
    pub fn current_message(&self, topic: &TopicPath) -> Option<NotificationMessage> {
        self.last_messages.lock().get(&topic.to_string()).cloned()
    }

    pub fn store(&self) -> &SubscriptionStore {
        &self.store
    }
}
