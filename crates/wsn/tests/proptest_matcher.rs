//! Differential property test: the sharded index with its compiled-filter
//! groups against the retained naive matcher
//! (`SubscriptionStore::active_matching_naive`: a database scan that
//! interprets every subscription's topic expression and compiles its
//! selector per event).
//!
//! Generated scripts of Subscribe / Destroy / Pause / Resume / clock
//! advances (scheduled termination) run through the real services; at every
//! published (topic, message) the index must return the same subscriptions
//! in the same order as the oracle. Selectors come from a small pool, so
//! many subscribers share one; the pool includes "no selector", one that
//! does not compile (WS-Notification never validated them: it must match
//! nothing) and one that compiles but errors at evaluation. Each script
//! ends with a container restart — the manager redeployed over the
//! surviving documents — after which the rebuilt index must still agree.

use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Container, Operation, OperationContext, Testbed, WebService};
use ogsa_security::SecurityPolicy;
use ogsa_sim::SimDuration;
use ogsa_soap::Fault;
use ogsa_wsn::base::{actions, SubscribeRequest};
use ogsa_wsn::manager::{SubscriptionManagerService, SubscriptionProxy, SubscriptionStore};
use ogsa_wsn::{NotificationProducer, TopicExpression, TopicPath};
use ogsa_wsrf::WsrfProxy;
use ogsa_xml::Element;
use proptest::prelude::*;

const MANAGER: &str = "/services/Pub/manager";

/// `None` = no selector. `///bad` does not compile; `/unbound:M` compiles
/// but errors at evaluation (unbound prefix).
const SELECTORS: [Option<&str>; 7] = [
    None,
    Some("/M[@k='0']"),
    Some("/M[@k='1']"),
    Some("/M/v"),
    Some("/M[v > 1]"),
    Some("///bad"),
    Some("/unbound:M"),
];

const PATHS: [&str; 6] = ["jobs", "jobs/a", "jobs/a/b", "jobs/c/b", "data/a/b", "data"];

fn expression(i: usize) -> TopicExpression {
    match i % 7 {
        0 => TopicExpression::simple("jobs"),
        1 => TopicExpression::simple("data"),
        2 => TopicExpression::concrete("jobs/a/b"),
        3 => TopicExpression::full("jobs/*/b"),
        4 => TopicExpression::full("jobs//b"),
        5 => TopicExpression::full("//b"),
        _ => TopicExpression::full("*/a"),
    }
}

fn message(i: u8) -> Element {
    let m = Element::new("M").with_attr("k", (i % 3).to_string());
    match i % 4 {
        0 => m,
        n => m.with_child(Element::text_element("v", n.to_string())),
    }
}

struct Publisher {
    producer: NotificationProducer,
}

impl WebService for Publisher {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        match op.action_name() {
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("bad subscribe"))?;
                let epr = self.producer.store().subscribe(ctx, &req)?;
                Ok(SubscribeRequest::response(&epr))
            }
            _ => Err(Fault::client("unknown")),
        }
    }
}

struct Rig {
    tb: Testbed,
    container: Container,
    client: ClientAgent,
    publisher: EndpointReference,
    producer: NotificationProducer,
    /// EPRs of every subscription ever made (some since gone).
    subscriptions: Vec<EndpointReference>,
}

impl Rig {
    fn new() -> Rig {
        let tb = Testbed::free();
        let container = tb.container("host-a", SecurityPolicy::None);
        let (_m, store) = SubscriptionManagerService::deploy(&container, MANAGER);
        let producer = NotificationProducer::new(store, container.service_agent());
        let publisher = container.deploy(
            "/services/Pub",
            Arc::new(Publisher {
                producer: producer.clone(),
            }),
        );
        let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
        Rig {
            tb,
            container,
            client,
            publisher,
            producer,
            subscriptions: Vec::new(),
        }
    }

    fn subscribe(&mut self, expr: usize, selector: Option<&str>, lifetime_us: Option<u64>) {
        let consumer = EndpointReference::service("http://client-1/consumer");
        let mut req = SubscribeRequest::new(consumer, expression(expr));
        if let Some(s) = selector {
            req = req.with_selector(s);
        }
        if let Some(us) = lifetime_us {
            let at = self.tb.clock().now().plus(SimDuration::from_micros(us));
            req = req.with_initial_termination(at);
        }
        let resp = self
            .client
            .invoke(&self.publisher, actions::SUBSCRIBE, req.to_element())
            .expect("subscribe");
        self.subscriptions
            .push(SubscribeRequest::parse_response(&resp).expect("subscription EPR"));
    }
}

/// Index and oracle on one (topic, message): ids, in order.
fn disagreement(store: &SubscriptionStore, path: &str, msg: &Element) -> Option<String> {
    let topic = TopicPath::parse(path).expect("pooled path parses");
    let indexed: Vec<String> = store
        .active_matching(&topic, msg)
        .iter()
        .map(|s| s.id.clone())
        .collect();
    let naive: Vec<String> = store
        .active_matching_naive(&topic, msg)
        .into_iter()
        .map(|s| s.id)
        .collect();
    (indexed != naive).then(|| format!("{path}: index {indexed:?}, oracle {naive:?}"))
}

fn sweep_disagreement(store: &SubscriptionStore) -> Option<String> {
    PATHS
        .iter()
        .find_map(|path| (0..12).find_map(|m| disagreement(store, path, &message(m))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_matcher_agrees_with_the_naive_oracle(
        script in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..40)
    ) {
        let mut rig = Rig::new();
        for (kind, a, b) in script {
            let pick = |n: usize| a as usize % n.max(1);
            let proxy = SubscriptionProxy::new(&rig.client);
            match kind {
                // Subscribe more often than anything else.
                0..=2 => {
                    let lifetime = (b % 4 == 0).then(|| 1 + u64::from(b) * 40);
                    let selector = SELECTORS[b as usize % SELECTORS.len()];
                    rig.subscribe(pick(7), selector, lifetime);
                }
                // The rest may aim at a subscription already gone: a fault.
                3 if !rig.subscriptions.is_empty() => {
                    let _ = proxy.unsubscribe(&rig.subscriptions[pick(rig.subscriptions.len())]);
                }
                4 if !rig.subscriptions.is_empty() => {
                    let _ = proxy.pause(&rig.subscriptions[pick(rig.subscriptions.len())]);
                }
                5 if !rig.subscriptions.is_empty() => {
                    let _ = proxy.resume(&rig.subscriptions[pick(rig.subscriptions.len())]);
                }
                6 => {
                    rig.tb.clock().advance(SimDuration::from_micros(u64::from(b) * 25));
                    // Any dispatch runs the lifetime sweep.
                    if let Some(epr) = rig.subscriptions.first() {
                        let _ = WsrfProxy::new(&rig.client).get_property(epr, "Paused");
                    }
                }
                _ => {
                    let found = disagreement(rig.producer.store(), PATHS[pick(PATHS.len())], &message(b));
                    prop_assert!(found.is_none(), "{}", found.unwrap());
                }
            }
        }
        let found = sweep_disagreement(rig.producer.store());
        prop_assert!(found.is_none(), "{}", found.unwrap());

        // Container restart: a fresh manager re-indexes the surviving
        // documents — paused flags, selectors that no longer compile and all.
        let (_m, restarted) = SubscriptionManagerService::deploy(&rig.container, MANAGER);
        prop_assert_eq!(restarted.all().len(), rig.producer.store().all().len());
        let found = sweep_disagreement(&restarted);
        prop_assert!(found.is_none(), "after restart: {}", found.unwrap());
    }
}

/// The restart case on its own: a stored selector that does not compile is
/// re-indexed as a filter that matches nothing — exactly what evaluating it
/// per event with `unwrap_or(false)` used to yield — and costs the notify
/// path no compilation.
#[test]
fn a_stored_selector_that_does_not_compile_matches_nothing_after_restart() {
    let mut rig = Rig::new();
    rig.subscribe(0, Some("///bad"), None);
    rig.subscribe(0, Some("/M[@k='1']"), None);
    rig.subscribe(0, None, None);

    // The stack's counter also holds what the first manager compiled.
    let compiled = rig.producer.store().index().stats().filter_compilations();
    let (_m, restarted) = SubscriptionManagerService::deploy(&rig.container, MANAGER);
    let stats = restarted.index().stats().clone();
    assert_eq!(
        stats.filter_compilations() - compiled,
        2,
        "attempted once each, at re-index"
    );

    let topic = TopicPath::parse("jobs/x").unwrap();
    let ids = |msg: &Element| -> Vec<String> {
        restarted
            .active_matching(&topic, msg)
            .iter()
            .map(|s| s.id.clone())
            .collect()
    };
    assert_eq!(ids(&message(1)), ["sub-1", "sub-2"]);
    assert_eq!(ids(&message(0)), ["sub-2"]);
    assert!(sweep_disagreement(&restarted).is_none());
    assert_eq!(
        stats.filter_compilations() - compiled,
        2,
        "none on the notify path"
    );

    // Fresh ids stay clear of the re-indexed ones.
    let producer = NotificationProducer::new(restarted, rig.container.service_agent());
    rig.publisher = rig
        .container
        .deploy("/services/Pub", Arc::new(Publisher { producer }));
    rig.subscribe(0, None, None);
    assert_eq!(
        rig.subscriptions.last().unwrap().resource_id(),
        Some("sub-3")
    );
}
