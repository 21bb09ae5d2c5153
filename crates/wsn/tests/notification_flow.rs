//! End-to-end WS-Notification tests: a producer service, real subscriptions
//! over the wire, asynchronous delivery, pause/resume, unsubscribe, and the
//! demand-based broker cascade.

use std::sync::Arc;
use std::time::Duration;

use ogsa_container::{Container, Operation, OperationContext, Testbed, WebService};
use ogsa_security::SecurityPolicy;
use ogsa_soap::Fault;
use ogsa_wsn::base::{actions, SubscribeRequest};
use ogsa_wsn::consumer::Delivery;
use ogsa_wsn::manager::{SubscriptionManagerService, SubscriptionProxy};
use ogsa_wsn::{
    BrokerService, NotificationConsumer, NotificationProducer, TopicExpression, TopicPath,
};
use ogsa_xml::Element;

const WAIT: Duration = Duration::from_secs(2);

/// A minimal notification-producer service: `Subscribe` creates a
/// subscription; `Emit` publishes on a topic (standing in for a state
/// change).
struct PublisherService {
    producer: NotificationProducer,
}

impl WebService for PublisherService {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        match op.action_name() {
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                let epr = self.producer.store().subscribe(ctx, &req)?;
                Ok(SubscribeRequest::response(&epr))
            }
            "Emit" => {
                let topic = TopicPath::parse(op.body.attr_local("topic").unwrap_or(""))
                    .ok_or_else(|| Fault::client("Emit without topic"))?;
                let payload = op
                    .body
                    .child_elements()
                    .next()
                    .cloned()
                    .unwrap_or_else(|| Element::new("Empty"));
                let n = self.producer.notify(&topic, payload);
                Ok(Element::text_element("EmitResponse", n.to_string()))
            }
            other => Err(Fault::client(format!("unknown op {other}"))),
        }
    }
}

fn deploy_publisher(container: &Container, path: &str) -> ogsa_addressing::EndpointReference {
    let (_mgr_epr, store) =
        SubscriptionManagerService::deploy(container, &format!("{path}/manager"));
    let producer = NotificationProducer::new(store, container.service_agent());
    container.deploy(path, Arc::new(PublisherService { producer }))
}

fn emit(
    client: &ogsa_container::ClientAgent,
    publisher: &ogsa_addressing::EndpointReference,
    topic: &str,
    payload: Element,
) -> usize {
    let resp = client
        .invoke(
            publisher,
            "urn:test/Emit",
            Element::new("Emit")
                .with_attr("topic", topic)
                .with_child(payload),
        )
        .unwrap();
    resp.text().parse().unwrap()
}

#[test]
fn subscribe_and_receive_wrapped_notification() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, "/consumer");

    let req = SubscribeRequest::new(
        consumer.epr().clone(),
        TopicExpression::concrete("counter/valueChanged"),
    );
    let resp = client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .unwrap();
    let sub_epr = SubscribeRequest::parse_response(&resp).unwrap();
    assert!(sub_epr.resource_id().unwrap().starts_with("sub-"));

    let delivered = emit(
        &client,
        &publisher,
        "counter/valueChanged",
        Element::text_element("NewValue", "42"),
    );
    assert_eq!(delivered, 1);

    match consumer.recv_timeout(WAIT).expect("notification") {
        Delivery::Wrapped(n) => {
            assert_eq!(n.topic.to_string(), "counter/valueChanged");
            assert_eq!(n.message.text(), "42");
        }
        Delivery::Raw(_) => panic!("expected wrapped delivery"),
    }
}

#[test]
fn topic_filter_excludes_other_topics() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, "/consumer");

    let req = SubscribeRequest::new(
        consumer.epr().clone(),
        TopicExpression::concrete("counter/valueChanged"),
    );
    client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .unwrap();

    assert_eq!(
        emit(
            &client,
            &publisher,
            "counter/destroyed",
            Element::new("Gone")
        ),
        0
    );
    assert!(consumer.recv_timeout(Duration::from_millis(200)).is_none());
}

#[test]
fn message_content_selector_filters() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, "/consumer");

    let req = SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("counter"))
        .with_selector("/NewValue > 10");
    client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .unwrap();

    assert_eq!(
        emit(
            &client,
            &publisher,
            "counter/valueChanged",
            Element::text_element("NewValue", "5")
        ),
        0
    );
    assert_eq!(
        emit(
            &client,
            &publisher,
            "counter/valueChanged",
            Element::text_element("NewValue", "50")
        ),
        1
    );
    let got = consumer.recv_timeout(WAIT).unwrap();
    match got {
        Delivery::Wrapped(n) => assert_eq!(n.message.text(), "50"),
        _ => panic!(),
    }
}

#[test]
fn raw_delivery_arrives_unwrapped() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, "/consumer");

    let req = SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("counter"))
        .raw_delivery();
    client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .unwrap();
    emit(
        &client,
        &publisher,
        "counter/valueChanged",
        Element::text_element("NewValue", "7"),
    );

    match consumer.recv_timeout(WAIT).unwrap() {
        Delivery::Raw(body) => {
            // The consumer gets the bare payload — and has lost the topic,
            // the producer reference, and any standard framing (§3.1's
            // interoperability complaint about raw delivery).
            assert_eq!(body.text(), "7");
        }
        Delivery::Wrapped(_) => panic!("expected raw delivery"),
    }
}

#[test]
fn pause_resume_and_unsubscribe() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, "/consumer");

    let req = SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("counter"));
    let resp = client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .unwrap();
    let sub_epr = SubscribeRequest::parse_response(&resp).unwrap();
    let proxy = SubscriptionProxy::new(&client);

    proxy.pause(&sub_epr).unwrap();
    assert_eq!(emit(&client, &publisher, "counter/x", Element::new("M")), 0);

    proxy.resume(&sub_epr).unwrap();
    assert_eq!(emit(&client, &publisher, "counter/x", Element::new("M")), 1);
    consumer.recv_timeout(WAIT).unwrap();

    proxy.unsubscribe(&sub_epr).unwrap();
    assert_eq!(emit(&client, &publisher, "counter/x", Element::new("M")), 0);
}

#[test]
fn multiple_subscribers_fan_out() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);

    let consumers: Vec<_> = (0..3)
        .map(|i| NotificationConsumer::listen(&client, &format!("/consumer{i}")))
        .collect();
    for c in &consumers {
        let req = SubscribeRequest::new(c.epr().clone(), TopicExpression::simple("counter"));
        client
            .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
            .unwrap();
    }
    assert_eq!(emit(&client, &publisher, "counter/v", Element::new("M")), 3);
    for c in &consumers {
        assert!(c.recv_timeout(WAIT).is_some());
    }
}

/// One event fanned out to N coalescing subscribers is one tree, parked N
/// times by pointer and let go of by the flush; and the `wsnt:Notify` each
/// subscriber receives is, byte for byte, the one built from owned copies.
#[test]
fn a_coalesced_event_is_one_tree_under_every_subscribers_notify() {
    const N: usize = 5;
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::X509Sign);
    let (_mgr, store) = SubscriptionManagerService::deploy(&container, "/services/Pub/manager");
    let producer = NotificationProducer::new(store, container.service_agent()).with_delivery(
        ogsa_fanout::DelivererConfig {
            plan: ogsa_fanout::DeliveryPlan::Coalesce { batch_max: 16 },
            outbox_capacity: 64,
        },
    );
    let publisher = container.deploy(
        "/services/Pub",
        Arc::new(PublisherService {
            producer: producer.clone(),
        }),
    );
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::X509Sign);
    let bodies: Arc<parking_lot::Mutex<Vec<Element>>> = Arc::default();
    for i in 0..N {
        let seen = bodies.clone();
        let inbox = client.listen_oneway(
            "http",
            &format!("/inbox{i}"),
            Arc::new(move |env: ogsa_soap::Envelope| seen.lock().push(env.body)),
        );
        let req = SubscribeRequest::new(inbox, TopicExpression::simple("jobs"));
        client
            .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
            .unwrap();
    }

    let topic = TopicPath::parse("jobs/done").unwrap();
    let event = |v: &str| Element::text_element("ExitCode", v).with_attr("q", "a<b");
    assert_eq!(producer.notify(&topic, event("0")), N);
    assert_eq!(producer.notify(&topic, event("1")), N);
    let parked = producer.deliverer().parked("sub-0");
    assert_eq!(parked.len(), 2);
    for body in &parked {
        assert_eq!(Arc::strong_count(body), N + 1, "N outboxes and this test");
    }
    assert_eq!(producer.deliverer().flush(), 2 * N);
    assert!(tb.network().quiesce(WAIT));
    assert!(parked.iter().all(|body| Arc::strong_count(body) == 1));

    // Each subscriber verified the signature over the shared members; what
    // it read is what owned copies under `wrap_all` write.
    let owned = ogsa_wsn::NotificationMessage::wrap_all(["0", "1"].map(|v| {
        ogsa_wsn::NotificationMessage {
            topic: topic.clone(),
            producer: None,
            message: event(v),
        }
        .to_element()
    }));
    let bodies = bodies.lock();
    assert_eq!(bodies.len(), N, "one envelope per subscriber");
    for body in bodies.iter() {
        assert_eq!(body, &owned);
        assert_eq!(body.to_xml_string(), owned.to_xml_string());
    }
}

#[test]
fn demand_based_broker_pauses_and_resumes_upstream() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let broker = BrokerService::deploy(&container, "/services/Broker");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);

    // Publisher registers with the broker, demand-based.
    let topic = TopicPath::parse("counter/valueChanged").unwrap();
    let resp = client
        .invoke(
            broker.epr(),
            "urn:wsbn/RegisterPublisher",
            BrokerService::register_request(&publisher, &topic, true),
        )
        .unwrap();
    let _reg = BrokerService::parse_register_response(&resp).unwrap();

    // No downstream subscribers yet → the broker paused its upstream
    // subscription, so an emit reaches nobody.
    let regs = broker.registrations();
    assert_eq!(regs.len(), 1);
    assert!(!regs[0].active, "should be paused with no demand");
    assert_eq!(
        emit(
            &client,
            &publisher,
            "counter/valueChanged",
            Element::text_element("NewValue", "1")
        ),
        0
    );

    // A consumer subscribes at the broker → demand appears → upstream
    // resumed.
    let consumer = NotificationConsumer::listen(&client, "/consumer");
    let req = SubscribeRequest::new(
        consumer.epr().clone(),
        TopicExpression::concrete("counter/valueChanged"),
    );
    let resp = client
        .invoke(broker.epr(), actions::SUBSCRIBE, req.to_element())
        .unwrap();
    let downstream_sub = SubscribeRequest::parse_response(&resp).unwrap();
    assert!(broker.registrations()[0].active);

    // Publisher emits → broker inbox → rebroadcast → consumer.
    assert_eq!(
        emit(
            &client,
            &publisher,
            "counter/valueChanged",
            Element::text_element("NewValue", "2")
        ),
        1
    );
    match consumer.recv_timeout(WAIT).expect("brokered notification") {
        Delivery::Wrapped(n) => assert_eq!(n.message.text(), "2"),
        _ => panic!(),
    }

    // Consumer unsubscribes → demand vanishes → upstream paused again.
    SubscriptionProxy::new(&client)
        .unsubscribe(&downstream_sub)
        .unwrap();
    broker.recheck_demand();
    assert!(!broker.registrations()[0].active);
}

#[test]
fn demand_based_registration_message_amplification() {
    // The §3.1 estimate: demand-based publishing generates at least an
    // order of magnitude more messages than a plain interaction.
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let publisher = deploy_publisher(&container, "/services/Pub");
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);

    // Baseline: a single direct emit with one subscriber costs
    // subscribe (2 messages) + emit (2) + 1 one-way.
    let before = tb.network().stats().messages();
    let consumer = NotificationConsumer::listen(&client, "/direct");
    let req = SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("counter"));
    client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .unwrap();
    emit(&client, &publisher, "counter/v", Element::new("M"));
    consumer.recv_timeout(WAIT).unwrap();
    let direct_messages = tb.network().stats().messages() - before;

    // Demand-based path: register publisher + subscribe + emit through the
    // broker; count everything including the pause/resume traffic.
    let broker = BrokerService::deploy(&container, "/services/Broker");
    let before = tb.network().stats().messages();
    let topic = TopicPath::parse("counter/v2").unwrap();
    client
        .invoke(
            broker.epr(),
            "urn:wsbn/RegisterPublisher",
            BrokerService::register_request(&publisher, &topic, true),
        )
        .unwrap();
    let brokered_consumer = NotificationConsumer::listen(&client, "/brokered");
    let req = SubscribeRequest::new(
        brokered_consumer.epr().clone(),
        TopicExpression::concrete("counter/v2"),
    );
    let resp = client
        .invoke(broker.epr(), actions::SUBSCRIBE, req.to_element())
        .unwrap();
    let sub = SubscribeRequest::parse_response(&resp).unwrap();
    emit(&client, &publisher, "counter/v2", Element::new("M"));
    brokered_consumer.recv_timeout(WAIT).unwrap();
    SubscriptionProxy::new(&client).unsubscribe(&sub).unwrap();
    broker.recheck_demand();
    let brokered_messages = tb.network().stats().messages() - before;

    assert!(
        brokered_messages >= 3 * direct_messages,
        "demand-based path should amplify messages: direct={direct_messages}, brokered={brokered_messages}"
    );
}
