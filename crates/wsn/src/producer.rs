//! The notification-producer component of the container (Figure 1's
//! "Notification/Eventing Producer/Consumer ... an independent activity
//! within the container").

use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::ClientAgent;
use ogsa_fanout::{Deliverer, DelivererConfig};
use ogsa_xml::Element;

use crate::base::{actions, NotificationMessage, Subscription};
use crate::manager::SubscriptionStore;
use crate::topics::TopicPath;

/// Matches emitted messages against the sharded subscription index and
/// delivers them. Deliveries go over HTTP one-ways (the consumer side is
/// WSRF.NET's "custom HTTP server that clients include") — the very
/// transport choice that makes WSN Notify slower than WS-Eventing's TCP
/// path in Figure 2. A lost one-way is redelivered under the deploying
/// container's redelivery policy (`Container::set_redelivery`), which the
/// agent handed to [`NotificationProducer::new`] carries.
///
/// Delivery runs through the fan-out core's [`Deliverer`]: the default
/// immediate plan sends one wire message per subscriber per event exactly
/// as the seed did; the opt-in coalesce plan parks notifications in bounded
/// per-subscriber outboxes and folds a drain into a single `<wsnt:Notify>`
/// envelope (WS-BaseNotification permits several NotificationMessage
/// children, so batching is spec-legal for this stack).
#[derive(Clone)]
pub struct NotificationProducer {
    store: SubscriptionStore,
    deliverer: Deliverer<Subscription>,
}

impl NotificationProducer {
    /// The WSN sink: wrapped subscribers get everything queued for them in
    /// ONE `<wsnt:Notify>` envelope (one wire send, one `notify.sent`);
    /// raw-delivery subscribers get one bare message per notification —
    /// there is no legal batch container for out-of-band-schema payloads.
    pub fn new(store: SubscriptionStore, agent: ClientAgent) -> Self {
        let sender = agent.clone();
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
                sender
                    .network()
                    .telemetry()
                    .metrics()
                    .inc("notify.sent", &[("stack", "wsn")]);
            }
        });
        let deliverer = Deliverer::new(
            agent.network().clone(),
            agent.port().host().to_owned(),
            store.index(),
            sink,
        );
        NotificationProducer { store, deliverer }
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
        self.notify_from(topic, message, None)
    }

    /// Emit with a producer reference stamped into the notification —
    /// Grid-in-a-Box puts the job EPR here so clients know *which* job
    /// ended.
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
        matching.len()
    }

    pub fn store(&self) -> &SubscriptionStore {
        &self.store
    }
}
