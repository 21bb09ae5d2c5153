//! Differential property test: the compiled-filter index against the naive
//! matcher it replaced.
//!
//! Generated scripts of Subscribe / Renew / Unsubscribe / clock advances
//! (expiry) run through the real services. At every published event the
//! index must name the same subscriptions, in the same order, as the
//! oracle: the flat file (the store of record) re-read, expired entries
//! skipped, every remaining subscription's filter compiled and evaluated on
//! the spot. The filter pool is small, so many subscribers share a filter;
//! it includes "no filter" and two filters that compile but error when
//! evaluated.

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Testbed};
use ogsa_eventing::messages::{self, actions, SubscribeRequest};
use ogsa_eventing::{EventConsumer, EventSourceService, NotificationManager};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{SimDuration, SimInstant};
use ogsa_xml::{Element, XPath, XPathContext};
use proptest::prelude::*;

/// `None` = no filter. The last two compile but fail at evaluation (an
/// unbound prefix; a step after an attribute step).
const FILTERS: [Option<&str>; 8] = [
    None,
    Some("/Event[@band='b0']"),
    Some("/Event[@band='b1']"),
    Some("/Event[exitCode > 0]"),
    Some("/Event/status"),
    Some("count(/Event/status) = 2"),
    Some("/unbound:Event"),
    Some("/Event/@band/status"),
];

fn event(i: u8) -> Element {
    let e = Element::new("Event")
        .with_attr("band", format!("b{}", i % 3))
        .with_child(Element::text_element("exitCode", (i % 2).to_string()));
    match i % 4 {
        0 => e,
        1 => e.with_child(Element::text_element("status", "exited")),
        _ => e
            .with_child(Element::text_element("status", "exited"))
            .with_child(Element::text_element("status", "reaped")),
    }
}

/// The retained naive matcher: compile and evaluate, per subscription, per
/// event; any error rejects.
fn naive_accepts(filter: Option<&str>, event: &Element) -> bool {
    match filter {
        None => true,
        Some(f) => XPath::compile(f)
            .and_then(|xp| xp.matches(event, &XPathContext::new()))
            .unwrap_or(false),
    }
}

struct Rig {
    tb: Testbed,
    client: ClientAgent,
    consumer: EventConsumer,
    source: EndpointReference,
    notifier: NotificationManager,
    /// Manager EPRs of every subscription ever made (some since gone).
    managers: Vec<EndpointReference>,
}

impl Rig {
    fn new() -> Rig {
        let tb = Testbed::free();
        let container = tb.container("host-a", SecurityPolicy::None);
        let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
        let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
        let consumer = EventConsumer::listen(&client, "/events");
        Rig {
            tb,
            client,
            consumer,
            source,
            notifier,
            managers: Vec::new(),
        }
    }

    fn subscribe(&mut self, filter: Option<&str>, lifetime_us: Option<u64>) {
        let mut req = SubscribeRequest::new(self.consumer.epr().clone());
        if let Some(f) = filter {
            req = req.with_filter(f);
        }
        if let Some(us) = lifetime_us {
            req = req.with_expires(SimInstant(self.tb.clock().now().0 + us));
        }
        let resp = self
            .client
            .invoke(&self.source, actions::SUBSCRIBE, req.to_element())
            .expect("every pooled filter compiles");
        let (manager, _) = SubscribeRequest::parse_response(&resp).expect("manager EPR");
        self.managers.push(manager);
    }

    /// The oracle's answer for `event` now, ids in id order.
    fn oracle(&self, event: &Element) -> Vec<String> {
        let now = self.tb.clock().now();
        let mut ids: Vec<String> = self
            .notifier
            .store()
            .load()
            .into_iter()
            .filter(|s| !matches!(s.expires, Some(t) if t <= now))
            .filter(|s| naive_accepts(s.filter.as_deref(), event))
            .map(|s| s.id)
            .collect();
        ids.sort();
        ids
    }

    fn check(&self, event: &Element) -> Result<(), String> {
        let expected = self.oracle(event);
        // `trigger` purges what is due, then fans out.
        let fanned_out = self.notifier.trigger(event.clone());
        let indexed: Vec<String> = self
            .notifier
            .index()
            .matching(event)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        if indexed != expected || fanned_out != expected.len() {
            return Err(format!(
                "index {indexed:?} (fanned out {fanned_out}), oracle {expected:?}"
            ));
        }
        Ok(())
    }
}

#[test]
fn the_pool_has_filters_that_compile_but_error_at_evaluation() {
    for f in [FILTERS[6], FILTERS[7]] {
        let xp = XPath::compile(f.unwrap()).expect("compiles");
        assert!(
            xp.matches(&event(1), &XPathContext::new()).is_err(),
            "{f:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_matcher_agrees_with_the_naive_oracle(
        script in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..40)
    ) {
        let mut rig = Rig::new();
        for (kind, a, b) in script {
            let pick = |n: usize| a as usize % n.max(1);
            match kind {
                // Subscribe twice as often as anything else.
                0 | 1 => {
                    let lifetime = (b % 3 != 0).then(|| 1 + u64::from(b) * 40);
                    rig.subscribe(FILTERS[pick(FILTERS.len())], lifetime);
                }
                2 if !rig.managers.is_empty() => {
                    // Renew (faults on a subscription already gone: fine).
                    let until = SimInstant(rig.tb.clock().now().0 + 1 + u64::from(b) * 40);
                    let mgr = &rig.managers[pick(rig.managers.len())];
                    let _ = rig.client.invoke(mgr, actions::RENEW, messages::renew_request(until));
                }
                3 if !rig.managers.is_empty() => {
                    let mgr = &rig.managers[pick(rig.managers.len())];
                    let _ = rig.client.invoke(mgr, actions::UNSUBSCRIBE, messages::unsubscribe_request());
                }
                4 => {
                    rig.tb.clock().advance(SimDuration::from_micros(u64::from(b) * 25));
                }
                _ => {
                    let outcome = rig.check(&event(a));
                    prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
                }
            }
        }
        for i in 0..12 {
            let outcome = rig.check(&event(i));
            prop_assert!(outcome.is_ok(), "final event {}: {}", i, outcome.unwrap_err());
        }
        prop_assert_eq!(rig.notifier.index().len(), rig.notifier.store().load().len());
    }
}
