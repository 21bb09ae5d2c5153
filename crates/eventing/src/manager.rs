//! The WS-Eventing Subscription Manager Service: `Renew`, `GetStatus`,
//! `Unsubscribe` against the flat-XML subscription store.

use ogsa_container::{ClientAgent, Operation, OperationContext, WebService};
use ogsa_sim::SimInstant;
use ogsa_soap::Fault;
use ogsa_xml::Element;

use crate::fanout::EventIndex;
use crate::messages::{actions, subscription_end, SubscriptionStatus};
use crate::store::FlatXmlStore;

/// Purge every subscription due at the agent's clock and send each one's
/// `EndTo` a `SubscriptionEnd`. Asking whether one is due costs nothing;
/// the purge runs against the flat file (the charged store of record) and
/// evicts eagerly from the index, parked events and ledger row included.
/// A trigger runs it before matching and the manager before answering, so
/// an expired subscription is neither delivered to nor managed.
pub(crate) fn purge_expired(store: &FlatXmlStore, index: &EventIndex, agent: &ClientAgent) {
    let now = agent.clock().now();
    if !store.expiry_due(now) {
        return;
    }
    for dead in store.purge_expired(now) {
        index.evict(&dead.id);
        if let Some(end_to) = &dead.end_to {
            agent.send_oneway(
                end_to,
                actions::SUBSCRIPTION_END,
                subscription_end("expired"),
            );
        }
    }
}

/// Deployable subscription manager sharing the event source's store (and
/// keeping the fan-out index in lock-step with it).
pub struct EventingSubscriptionManager {
    store: FlatXmlStore,
    index: EventIndex,
    /// Sends `SubscriptionEnd` for what expired: the notification
    /// manager's agent.
    agent: ClientAgent,
}

impl EventingSubscriptionManager {
    pub fn new(store: FlatXmlStore, index: EventIndex, agent: ClientAgent) -> Self {
        EventingSubscriptionManager {
            store,
            index,
            agent,
        }
    }

    fn require_sub(&self, op: &Operation) -> Result<crate::store::EventSubscription, Fault> {
        let id = op.require_resource_id()?;
        self.store
            .get(id)
            .ok_or_else(|| Fault::client(format!("unknown subscription `{id}`")))
    }
}

impl WebService for EventingSubscriptionManager {
    fn handle(&self, op: &Operation, _ctx: &OperationContext) -> Result<Element, Fault> {
        purge_expired(&self.store, &self.index, &self.agent);
        match op.action_name() {
            "GetStatus" => {
                let sub = self.require_sub(op)?;
                Ok(SubscriptionStatus {
                    expires: sub.expires,
                }
                .to_element("GetStatusResponse"))
            }
            "Renew" => {
                let mut sub = self.require_sub(op)?;
                let new_expires = op
                    .body
                    .child_parse::<u64>("Expires")
                    .map(SimInstant)
                    .ok_or_else(|| Fault::client("Renew without Expires"))?;
                sub.expires = Some(new_expires);
                self.store.update(&sub);
                self.index.update(sub);
                Ok(SubscriptionStatus {
                    expires: Some(new_expires),
                }
                .to_element("RenewResponse"))
            }
            "Unsubscribe" => {
                let sub = self.require_sub(op)?;
                self.store.remove(&sub.id);
                // Eager eviction: the unsubscribed endpoint leaves the
                // fan-out path (and loses parked batches) immediately.
                self.index.evict(&sub.id);
                Ok(Element::new("UnsubscribeResponse"))
            }
            other => Err(Fault::client(format!(
                "subscription manager does not define `{other}`"
            ))),
        }
    }
}
