//! End-to-end WS-Eventing tests: subscribe, filtered push delivery over
//! TCP, renew/getstatus/unsubscribe, expiration with SubscriptionEnd, and
//! the unavailable-delivery-mode fault.

use std::time::Duration;

use ogsa_container::{InvokeError, Testbed};
use ogsa_eventing::messages::{self, actions, SubscribeRequest, SubscriptionStatus};
use ogsa_eventing::{EventConsumer, EventSourceService, NotificationManager};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{SimDuration, SimInstant};
use ogsa_xml::Element;

const WAIT: Duration = Duration::from_secs(2);

fn setup() -> (
    Testbed,
    ogsa_addressing::EndpointReference,
    NotificationManager,
) {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
    (tb, source, notifier)
}

fn event(v: i64) -> Element {
    Element::new("CounterValueChanged").with_child(Element::text_element("newValue", v.to_string()))
}

#[test]
fn subscribe_and_receive_pushed_event() {
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");

    let resp = client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone()).to_element(),
        )
        .unwrap();
    let (mgr, granted) = SubscribeRequest::parse_response(&resp).unwrap();
    assert!(mgr.resource_id().unwrap().starts_with("es-"));
    assert!(granted.is_none());

    assert_eq!(notifier.trigger(event(42)), 1);
    let got = consumer.recv_timeout(WAIT).expect("pushed event");
    assert_eq!(got.child_text("newValue"), Some("42"));
}

#[test]
fn filter_selects_events() {
    // "a filter can be used for registering a subscription per resource"
    // (§3.2) — here filtering on message content.
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");

    client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone())
                .with_filter("/CounterValueChanged[newValue > 10]")
                .to_element(),
        )
        .unwrap();

    assert_eq!(notifier.trigger(event(5)), 0);
    assert_eq!(notifier.trigger(event(50)), 1);
    let got = consumer.recv_timeout(WAIT).unwrap();
    assert_eq!(got.child_text("newValue"), Some("50"));
    assert!(consumer.recv_timeout(Duration::from_millis(100)).is_none());
}

#[test]
fn invalid_filter_faults_at_subscribe_time() {
    let (tb, source, _notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");
    let err = client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone())
                .with_filter("///nope")
                .to_element(),
        )
        .unwrap_err();
    assert!(matches!(err, InvokeError::Fault(f) if f.reason.contains("invalid filter")));
}

#[test]
fn unavailable_delivery_mode_faults() {
    let (tb, source, _notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");
    let err = client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone())
                .with_mode("urn:smoke-signals")
                .to_element(),
        )
        .unwrap_err();
    assert!(
        matches!(err, InvokeError::Fault(f) if f.reason.contains("DeliveryModeRequestedUnavailable"))
    );
}

#[test]
fn getstatus_renew_unsubscribe() {
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");

    let expires = SimInstant(1_000_000);
    let resp = client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone())
                .with_expires(expires)
                .to_element(),
        )
        .unwrap();
    let (mgr, granted) = SubscribeRequest::parse_response(&resp).unwrap();
    assert_eq!(granted, Some(expires));

    // GetStatus reports the expiration.
    let status = client
        .invoke(&mgr, actions::GET_STATUS, messages::get_status_request())
        .unwrap();
    assert_eq!(
        SubscriptionStatus::from_element(&status).expires,
        Some(expires)
    );

    // Renew extends it.
    let later = SimInstant(9_000_000);
    let renewed = client
        .invoke(&mgr, actions::RENEW, messages::renew_request(later))
        .unwrap();
    assert_eq!(
        SubscriptionStatus::from_element(&renewed).expires,
        Some(later)
    );

    // Unsubscribe stops delivery.
    client
        .invoke(&mgr, actions::UNSUBSCRIBE, messages::unsubscribe_request())
        .unwrap();
    assert_eq!(notifier.trigger(event(1)), 0);
    // Further manager calls fault.
    assert!(client
        .invoke(&mgr, actions::GET_STATUS, messages::get_status_request())
        .is_err());
}

#[test]
fn expiration_purges_and_notifies_end_to() {
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");
    let end_consumer = EventConsumer::listen(&client, "/end");

    let soon = tb.clock().now().plus(SimDuration::from_millis(1.0));
    client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone())
                .with_expires(soon)
                .with_end_to(end_consumer.epr().clone())
                .to_element(),
        )
        .unwrap();

    // Let the subscription lapse in virtual time, then trigger.
    tb.clock().advance(SimDuration::from_millis(5.0));
    assert_eq!(notifier.trigger(event(9)), 0);

    // The consumer got nothing; the EndTo got a SubscriptionEnd.
    assert!(consumer.recv_timeout(Duration::from_millis(100)).is_none());
    let end = end_consumer.recv_timeout(WAIT).expect("SubscriptionEnd");
    assert_eq!(&*end.name.local, "SubscriptionEnd");
    assert_eq!(end.child_text("Reason"), Some("expired"));
}

/// An expired subscription is gone for the manager as it is for a trigger:
/// `GetStatus`, `Renew` and `Unsubscribe` fault on it as unknown, so a
/// renewal cannot bring it back, and its `EndTo` hears `SubscriptionEnd`.
#[test]
fn an_expired_subscription_is_no_longer_managed() {
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");
    let end_consumer = EventConsumer::listen(&client, "/end");

    let soon = tb.clock().now().plus(SimDuration::from_millis(1.0));
    let resp = client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone())
                .with_expires(soon)
                .with_end_to(end_consumer.epr().clone())
                .to_element(),
        )
        .unwrap();
    let (mgr, _) = SubscribeRequest::parse_response(&resp).unwrap();
    tb.clock().advance(SimDuration::from_millis(5.0));

    let unknown = |err: InvokeError| matches!(err, InvokeError::Fault(f) if f.reason.contains("unknown subscription"));
    let later = tb.clock().now().plus(SimDuration::from_millis(1_000.0));
    for (action, body) in [
        (actions::GET_STATUS, messages::get_status_request()),
        (actions::RENEW, messages::renew_request(later)),
        (actions::UNSUBSCRIBE, messages::unsubscribe_request()),
    ] {
        let err = client.invoke(&mgr, action, body).unwrap_err();
        assert!(unknown(err), "{action}");
    }
    assert_eq!(notifier.trigger(event(9)), 0, "nothing renewed it");
    assert!(notifier.index().is_empty());
    let end = end_consumer.recv_timeout(WAIT).expect("SubscriptionEnd");
    assert_eq!(end.child_text("Reason"), Some("expired"));
    assert!(consumer.recv_timeout(Duration::from_millis(100)).is_none());
}

#[test]
fn fan_out_to_many_subscribers() {
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumers: Vec<_> = (0..4)
        .map(|i| EventConsumer::listen(&client, &format!("/events{i}")))
        .collect();
    for c in &consumers {
        client
            .invoke(
                &source,
                actions::SUBSCRIBE,
                SubscribeRequest::new(c.epr().clone()).to_element(),
            )
            .unwrap();
    }
    assert_eq!(notifier.trigger(event(3)), 4);
    for c in &consumers {
        assert!(c.recv_timeout(WAIT).is_some());
    }
}

/// One event fanned out to N coalescing subscribers is parked N times by
/// pointer; WS-Eventing has no batch container, so each drain takes the
/// tree for its own envelope — a copy while another outbox still holds it,
/// the tree itself for the last.
#[test]
fn a_coalesced_event_is_parked_once_and_sent_to_each_subscriber() {
    const N: usize = 4;
    let (tb, source, notifier) = setup();
    let notifier = notifier.with_delivery(ogsa_fanout::DelivererConfig {
        plan: ogsa_fanout::DeliveryPlan::Coalesce { batch_max: 16 },
        outbox_capacity: 64,
    });
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumers: Vec<_> = (0..N)
        .map(|i| EventConsumer::listen(&client, &format!("/events{i}")))
        .collect();
    for c in &consumers {
        let req = SubscribeRequest::new(c.epr().clone()).to_element();
        client.invoke(&source, actions::SUBSCRIBE, req).unwrap();
    }
    assert_eq!(notifier.trigger(event(7)), N);
    let parked = notifier.deliverer().parked("es-0");
    assert_eq!(parked.len(), 1);
    assert_eq!(std::sync::Arc::strong_count(&parked[0]), N + 1);
    assert_eq!(notifier.deliverer().flush(), N);
    assert_eq!(std::sync::Arc::strong_count(&parked[0]), 1);
    for c in &consumers {
        assert_eq!(c.recv_timeout(WAIT).expect("pushed event"), event(7));
    }
}

#[test]
fn subscription_is_per_service_not_per_resource() {
    // Unlike WS-Notification, "a subscription is not associated with a
    // resource, but only with a service" (§3.2): one subscription sees
    // events about every resource unless a filter narrows it.
    let (tb, source, notifier) = setup();
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let all = EventConsumer::listen(&client, "/all");
    let one = EventConsumer::listen(&client, "/one");

    client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(all.epr().clone()).to_element(),
        )
        .unwrap();
    client
        .invoke(
            &source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(one.epr().clone())
                .with_filter("/CounterValueChanged[@counter='c-1']")
                .to_element(),
        )
        .unwrap();

    let ev = |c: &str| {
        Element::new("CounterValueChanged")
            .with_attr("counter", c)
            .with_child(Element::text_element("newValue", "1"))
    };
    assert_eq!(notifier.trigger(ev("c-1")), 2);
    assert_eq!(notifier.trigger(ev("c-2")), 1);

    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(all.drain().len(), 2);
    assert_eq!(one.drain().len(), 1);
}
