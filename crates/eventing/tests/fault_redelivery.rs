//! WS-Eventing push delivery under an unreliable wire: bounded redelivery
//! carries events through a partition window, and exhausted budgets land in
//! the network's dead-letter record.

use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_eventing::messages::actions;
use ogsa_eventing::messages::SubscribeRequest;
use ogsa_eventing::{EventConsumer, EventSourceService};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{SimDuration, SimInstant};
use ogsa_transport::{FaultKind, FaultPlan, RetryPolicy};
use ogsa_xml::Element;

const DRAIN: Duration = Duration::from_secs(5);

/// Backoffs 100 ms, 200 ms, 400 ms — redelivery attempts at logical
/// 0 ms, 100 ms, 300 ms, 700 ms after the send.
fn policy() -> RetryPolicy {
    RetryPolicy::default_redelivery(0)
        .with_max_attempts(4)
        .with_backoff(
            SimDuration::from_millis(100.0),
            SimDuration::from_millis(400.0),
        )
        .with_jitter(0.0)
}

fn event(v: i64) -> Element {
    Element::new("CounterValueChanged").with_child(Element::text_element("newValue", v.to_string()))
}

fn subscribe(
    tb: &Testbed,
    source: &ogsa_addressing::EndpointReference,
) -> (ogsa_container::ClientAgent, EventConsumer) {
    let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/events");
    client
        .invoke(
            source,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone()).to_element(),
        )
        .unwrap();
    (client, consumer)
}

#[test]
fn pushes_redeliver_through_a_partition_window() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    container.set_redelivery(Some(policy()));
    let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
    let (_client, consumer) = subscribe(&tb, &source);

    // The subscriber's host is unreachable for the first two logical
    // attempts (0 ms and 100 ms); the third (300 ms) lands.
    tb.network()
        .set_fault_plan(FaultPlan::seeded(1).with_partition(
            "host-a",
            "client-1",
            SimInstant(0),
            SimInstant(0).plus(SimDuration::from_millis(250.0)),
        ));

    assert_eq!(notifier.trigger(event(7)), 1);
    assert!(tb.network().quiesce(DRAIN));

    let got = consumer.drain();
    assert_eq!(got.len(), 1, "healed subscriber still receives the event");
    assert_eq!(got[0].child_text("newValue"), Some("7"));
    assert_eq!(tb.network().stats().partition_refusals(), 2);
    assert_eq!(tb.network().stats().retries(), 2);
    assert!(tb.network().dead_letters().is_empty());
}

#[test]
fn exhausted_redelivery_dead_letters_the_event() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    container.set_redelivery(Some(policy()));
    let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
    let (_client, consumer) = subscribe(&tb, &source);

    // Partition that never lifts within the redelivery budget.
    tb.network()
        .set_fault_plan(FaultPlan::seeded(1).with_partition(
            "host-a",
            "client-1",
            SimInstant(0),
            SimInstant(u64::MAX),
        ));

    assert_eq!(notifier.trigger(event(9)), 1);
    assert!(tb.network().quiesce(DRAIN));

    assert!(consumer.drain().is_empty());
    let dead = tb.network().dead_letters();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].to, consumer.epr().address);
    assert_eq!(dead[0].from_host, "host-a");
    assert_eq!(dead[0].attempts, 4);
    assert_eq!(dead[0].reason, FaultKind::Partition);
    assert_eq!(tb.network().stats().retries(), 3);
    assert_eq!(tb.network().stats().dead_letters(), 1);
}

#[test]
fn fire_and_forget_pushes_are_simply_lost() {
    // Without a redelivery policy the stack keeps its old semantics: a
    // push into a partition vanishes without retries or a dead letter.
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
    let (_client, consumer) = subscribe(&tb, &source);

    tb.network()
        .set_fault_plan(FaultPlan::seeded(1).with_partition(
            "host-a",
            "client-1",
            SimInstant(0),
            SimInstant(u64::MAX),
        ));

    assert_eq!(notifier.trigger(event(3)), 1);
    assert!(tb.network().quiesce(DRAIN));

    assert!(consumer.drain().is_empty());
    assert_eq!(tb.network().stats().partition_refusals(), 1);
    assert_eq!(tb.network().stats().retries(), 0);
    assert!(tb.network().dead_letters().is_empty());
}
