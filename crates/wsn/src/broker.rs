//! WS-BrokeredNotification: intermediaries between producers and consumers,
//! with demand-based publishing.
//!
//! The paper's §3.1 walks through exactly the machinery implemented here:
//! "in demand-based publishing, the broker receives a registration from a
//! publisher and as a result must make a subscription back to the publisher
//! ... the broker is also responsible for pausing and unpausing it based on
//! the state of the subscriptions that other consumers have ... If no
//! subscriptions currently exist to the broker on a given topic, then all
//! subscriptions for demand based publishers on the same topic must
//! according to the spec be paused. ... a demand based publisher
//! registration interaction can involve as many as six separate Web
//! services" — publisher, publisher's subscription manager, broker,
//! broker's subscription manager, registration manager, and consumer.
//!
//! The `broker_messages` bench counts the messages this generates and
//! reproduces the paper's "order of magnitude at a minimum" estimate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Container, Operation, OperationContext, WebService};
use ogsa_soap::Fault;
use ogsa_xml::{ns, Element, QName};
use parking_lot::Mutex;

use crate::base::{actions, SubscribeRequest};
use crate::manager::{SubscriptionManagerService, SubscriptionProxy, SubscriptionStore};
use crate::producer::NotificationProducer;
use crate::topics::{TopicExpression, TopicPath};

fn q(local: &str) -> QName {
    QName::new(ns::WSBN, local)
}

/// One publisher registration (the state a PublisherRegistrationManager
/// would expose; kept broker-local here).
#[derive(Debug, Clone)]
pub struct Registration {
    pub id: String,
    pub publisher: EndpointReference,
    pub topic: TopicPath,
    pub demand: bool,
    /// Broker's subscription on the publisher (demand-based only).
    pub upstream: Option<EndpointReference>,
    /// Is the upstream subscription currently unpaused?
    pub active: bool,
}

struct BrokerCore {
    store: SubscriptionStore,
    agent: ClientAgent,
    inbox_epr: EndpointReference,
    registrations: Mutex<Vec<Registration>>,
    reg_seq: AtomicU64,
}

/// A deployed notification broker.
#[derive(Clone)]
pub struct BrokerService {
    core: Arc<BrokerCore>,
    service_epr: EndpointReference,
    manager_epr: EndpointReference,
}

impl BrokerService {
    /// Deploy a broker at `path` in `container`. Also deploys its
    /// subscription manager at `{path}/manager` and an inbox one-way
    /// endpoint at `{path}/inbox`.
    pub fn deploy(container: &Container, path: &str) -> BrokerService {
        let (manager_epr, store) =
            SubscriptionManagerService::deploy(container, &format!("{path}/manager"));
        let agent = container.service_agent();
        let producer = NotificationProducer::new(store.clone(), agent.clone());

        // Inbox: where demand publishers' notifications arrive; rebroadcast
        // to downstream subscribers.
        let rebroadcast = producer.clone();
        let inbox_epr = agent.listen_oneway(
            "http",
            &format!("{path}/inbox"),
            Arc::new(move |env: ogsa_soap::Envelope| {
                if let Some(n) = crate::base::NotificationMessage::from_notify_element(&env.body) {
                    rebroadcast.notify_from(&n.topic, n.message, n.producer);
                }
            }),
        );

        let core = Arc::new(BrokerCore {
            store,
            agent,
            inbox_epr,
            registrations: Mutex::new(Vec::new()),
            reg_seq: AtomicU64::new(0),
        });
        let service_epr = container.deploy(path, Arc::new(BrokerWebService { core: core.clone() }));
        BrokerService {
            core,
            service_epr,
            manager_epr,
        }
    }

    /// The broker's Subscribe/RegisterPublisher endpoint.
    pub fn epr(&self) -> &EndpointReference {
        &self.service_epr
    }

    /// The broker's subscription manager (where downstream subscription
    /// EPRs point).
    pub fn manager_epr(&self) -> &EndpointReference {
        &self.manager_epr
    }

    /// Snapshot of publisher registrations.
    pub fn registrations(&self) -> Vec<Registration> {
        self.core.registrations.lock().clone()
    }

    /// Re-evaluate demand: pause upstream subscriptions with no unpaused
    /// downstream subscribers on their topic; resume the rest. Returns the
    /// number of pause/resume outcalls made.
    pub fn recheck_demand(&self) -> usize {
        self.core.recheck_demand()
    }

    /// Build a `RegisterPublisher` request body.
    pub fn register_request(
        publisher: &EndpointReference,
        topic: &TopicPath,
        demand: bool,
    ) -> Element {
        Element::new(q("RegisterPublisher"))
            .with_child(publisher.to_element_named(q("PublisherReference")))
            .with_child(Element::text_element(q("Topic"), topic.to_string()))
            .with_child(Element::text_element(q("Demand"), demand.to_string()))
    }

    /// Extract the registration reference out of a `RegisterPublisherResponse`.
    pub fn parse_register_response(resp: &Element) -> Option<EndpointReference> {
        EndpointReference::from_element(resp.child_local("PublisherRegistrationReference")?).ok()
    }
}

impl BrokerCore {
    fn recheck_demand(&self) -> usize {
        let proxy = SubscriptionProxy::new(&self.agent);
        let mut calls = 0;
        let mut regs = self.registrations.lock();
        for reg in regs.iter_mut() {
            if !reg.demand {
                continue;
            }
            let Some(upstream) = &reg.upstream else {
                continue;
            };
            // One index resolve on the registration's topic instead of the
            // seed's full-table scan per registration.
            let wanted = self.store.has_active_matching(&reg.topic);
            if wanted && !reg.active {
                if proxy.resume(upstream).is_ok() {
                    reg.active = true;
                    calls += 1;
                }
            } else if !wanted && reg.active && proxy.pause(upstream).is_ok() {
                reg.active = false;
                calls += 1;
            }
        }
        calls
    }
}

struct BrokerWebService {
    core: Arc<BrokerCore>,
}

impl WebService for BrokerWebService {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        match op.action_name() {
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                let sub_epr = self.core.store.subscribe(ctx, &req)?;
                // A new downstream subscriber may create demand upstream.
                self.core.recheck_demand();
                Ok(SubscribeRequest::response(&sub_epr))
            }
            "RegisterPublisher" => {
                let publisher_elem = op
                    .body
                    .child_local("PublisherReference")
                    .ok_or_else(|| Fault::client("RegisterPublisher without PublisherReference"))?;
                let publisher = EndpointReference::from_element(publisher_elem)
                    .map_err(|e| Fault::client(format!("bad PublisherReference: {e}")))?;
                let topic = op
                    .body
                    .child_text("Topic")
                    .and_then(TopicPath::parse)
                    .ok_or_else(|| Fault::client("RegisterPublisher without a concrete Topic"))?;
                let demand = op.body.child_parse::<bool>("Demand").unwrap_or(false);

                // Demand-based: subscribe back to the publisher.
                let upstream = if demand {
                    let sub_req = SubscribeRequest::new(
                        self.core.inbox_epr.clone(),
                        TopicExpression::concrete(&topic.to_string()),
                    );
                    let resp = self
                        .core
                        .agent
                        .invoke(&publisher, actions::SUBSCRIBE, sub_req.to_element())
                        .map_err(|e| Fault::server(format!("upstream subscribe failed: {e}")))?;
                    Some(
                        SubscribeRequest::parse_response(&resp)
                            .ok_or_else(|| Fault::server("bad upstream SubscribeResponse"))?,
                    )
                } else {
                    None
                };

                let id = format!("reg-{}", self.core.reg_seq.fetch_add(1, Ordering::Relaxed));
                self.core.registrations.lock().push(Registration {
                    id: id.clone(),
                    publisher,
                    topic,
                    demand,
                    upstream,
                    active: demand, // upstream subscriptions start unpaused
                });
                // Pause immediately if nobody downstream wants the topic.
                self.core.recheck_demand();

                let reg_epr = EndpointReference::resource(ctx.own_address().to_owned(), id);
                Ok(Element::new(q("RegisterPublisherResponse"))
                    .with_child(reg_epr.to_element_named(q("PublisherRegistrationReference"))))
            }
            other => Err(Fault::client(format!(
                "unknown operation `{other}` on NotificationBroker"
            ))),
        }
    }
}
