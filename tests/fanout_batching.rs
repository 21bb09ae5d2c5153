//! Coalesced fan-out under the drain/quiesce contract and under chaos.
//!
//! Three claims about the batching delivery plan:
//!
//! 1. Parked batches are in-flight work: `Network::quiesce`/`drain` cannot
//!    return while any notification sits in an outbox — even from another
//!    thread racing the producer.
//! 2. Batching does not break determinism: the same seed replays the same
//!    span dump byte-for-byte with a quiescing thread running concurrently,
//!    and two seeds' dumps are pinned.
//! 3. Batching does not break the paper's functional-equivalence claim:
//!    under a seeded fault schedule both stacks still deliver every value
//!    to every subscriber, reproducibly.
//!
//! Plus the scrape contract: the fan-out gauges and counters are on
//! `/metrics` and survive a strict exposition parse; eviction: whichever
//! way a subscriber leaves, its parked batch and ledger row go with it —
//! and the count behind the filter index's scaling claim: an event costs
//! one evaluation per distinct filter and no compilation, however many
//! subscribers share it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ogsa_grid::container::{Container, Operation, OperationContext, Testbed, WebService};
use ogsa_grid::eventing::messages::actions as ev_actions;
use ogsa_grid::eventing::messages::unsubscribe_request;
use ogsa_grid::eventing::messages::SubscribeRequest as EvSubscribeRequest;
use ogsa_grid::eventing::{EventConsumer, EventSourceService};
use ogsa_grid::fanout::{DelivererConfig, DeliveryPlan, LedgerEntry};
use ogsa_grid::security::SecurityPolicy;
use ogsa_grid::serve::{AdminPlane, ObsConfig};
use ogsa_grid::sim::rng::hash_str;
use ogsa_grid::sim::SimDuration;
use ogsa_grid::soap::Fault;
use ogsa_grid::telemetry::export::spans_to_jsonl;
use ogsa_grid::telemetry::prometheus::parse_exposition;
use ogsa_grid::transport::{FaultPlan, NetStatsSnapshot, RetryPolicy};
use ogsa_grid::wsn::base::{actions, SubscribeRequest};
use ogsa_grid::wsn::consumer::Delivery;
use ogsa_grid::wsn::manager::SubscriptionManagerService;
use ogsa_grid::wsn::{NotificationConsumer, NotificationProducer, TopicExpression, TopicPath};
use ogsa_grid::wsrf::WsrfProxy;
use ogsa_grid::xml::Element;

const DRAIN: Duration = Duration::from_secs(10);
const EVENTS: i64 = 12;

fn coalesce(batch_max: usize, outbox_capacity: usize) -> DelivererConfig {
    DelivererConfig {
        plan: DeliveryPlan::Coalesce { batch_max },
        outbox_capacity,
    }
}

fn event(v: i64) -> Element {
    Element::new("CounterValueChanged").with_child(Element::text_element("newValue", v.to_string()))
}

/// Minimal WSN publisher service: `Subscribe` goes to the producer's store.
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

/// Deploy a WSN publisher whose producer already carries `config` (and an
/// optional redelivery policy, set on the container before the producer
/// takes its agent).
fn deploy_wsn(
    container: &Container,
    config: DelivererConfig,
    redelivery: Option<RetryPolicy>,
) -> (
    ogsa_grid::addressing::EndpointReference,
    NotificationProducer,
) {
    container.set_redelivery(redelivery);
    let (_m, store) = SubscriptionManagerService::deploy(container, "/services/Pub/manager");
    let producer =
        NotificationProducer::new(store, container.service_agent()).with_delivery(config);
    let epr = container.deploy(
        "/services/Pub",
        Arc::new(Publisher {
            producer: producer.clone(),
        }),
    );
    (epr, producer)
}

fn wsn_subscribe(
    tb: &Testbed,
    publisher: &ogsa_grid::addressing::EndpointReference,
    path: &str,
) -> NotificationConsumer {
    let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, path);
    client
        .invoke(
            publisher,
            actions::SUBSCRIBE,
            SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("t"))
                .to_element(),
        )
        .expect("subscribe");
    consumer
}

#[test]
fn quiesce_cannot_return_while_batches_are_parked() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let (publisher, producer) = deploy_wsn(&container, coalesce(100, 100), None);
    let consumer = wsn_subscribe(&tb, &publisher, "/c");

    let topic = TopicPath::parse("t/x").unwrap();
    assert_eq!(producer.notify(&topic, event(1)), 1);
    assert_eq!(producer.notify(&topic, event(2)), 1);
    assert_eq!(producer.deliverer().pending(), 2);
    assert_eq!(
        tb.network().pending_oneways(),
        2,
        "parked notifications count as in-flight work"
    );
    assert!(
        !tb.network().quiesce(Duration::from_millis(50)),
        "quiesce must time out while batches are parked"
    );

    assert_eq!(producer.deliverer().flush(), 2);
    assert!(tb.network().quiesce(DRAIN), "flushed network drains");
    // One coalesced envelope carrying both notifications.
    let got = consumer.drain();
    assert_eq!(got.len(), 2);
    assert!(matches!(got[0], Delivery::Wrapped(_)));
}

#[test]
fn concurrent_drain_blocks_until_the_flush() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let (publisher, producer) = deploy_wsn(&container, coalesce(100, 100), None);
    let _consumer = wsn_subscribe(&tb, &publisher, "/c");

    let topic = TopicPath::parse("t/x").unwrap();
    producer.notify(&topic, event(1));

    let flushed = Arc::new(AtomicBool::new(false));
    let net = tb.network().clone();
    let saw_flush = flushed.clone();
    let waiter = std::thread::spawn(move || {
        net.drain();
        saw_flush.load(Ordering::SeqCst)
    });
    // Give the waiter time to actually block on the parked batch.
    std::thread::sleep(Duration::from_millis(100));
    flushed.store(true, Ordering::SeqCst);
    producer.deliverer().flush();
    assert!(
        waiter.join().expect("drain thread"),
        "drain returned before the parked batch was flushed"
    );
}

/// A chaotic batched WSN run with a quiescing thread racing the producer:
/// the span dump must still be a pure function of the seed.
fn batched_span_dump(seed: u64) -> String {
    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    tb.network().set_fault_plan(
        FaultPlan::seeded(seed)
            .with_drops(0.15)
            .with_delays(0.2, SimDuration::from_millis(5.0))
            .with_duplicates(0.1),
    );
    let container = tb.container("host-a", SecurityPolicy::None);
    let (publisher, producer) = deploy_wsn(
        &container,
        coalesce(3, 64),
        Some(RetryPolicy::default_redelivery(seed).with_max_attempts(6)),
    );
    let consumer = wsn_subscribe(&tb, &publisher, "/c");

    let net = tb.network().clone();
    let quiescer = std::thread::spawn(move || net.drain());

    let topic = TopicPath::parse("t/x").unwrap();
    for v in 1..=6 {
        producer.notify(&topic, event(v));
    }
    producer.deliverer().flush();
    quiescer.join().expect("quiescer");
    assert!(tb.network().quiesce(DRAIN));
    let _ = consumer.drain();
    spans_to_jsonl(&tb.telemetry().take_spans())
}

#[test]
fn same_seed_batched_runs_replay_byte_identically() {
    // Seed 18's schedule fires on the delivery plane (seeds 3, 11 and 17
    // happen to fault nothing there); the replay must cover faults.
    let a = batched_span_dump(18);
    let b = batched_span_dump(18);
    assert!(a.contains("fault:"), "the replayed run must hit a fault");
    assert_eq!(a, b, "batching must not break seed determinism");
    assert_ne!(
        a,
        batched_span_dump(17),
        "different fault schedules must leave different traces"
    );
}

/// The dumps' length and FNV-1a. Seed 11 faults nothing; its pin predates
/// the filter index, `Arc` entries and per-subscriber slots, which moved
/// the wall clock only. Seed 18 replays six faults.
#[test]
fn batched_span_dump_is_pinned() {
    let pin = |seed| {
        let dump = batched_span_dump(seed);
        (dump.len(), hash_str(&dump))
    };
    assert_eq!(pin(11), (3_442, 0xe41f_c845_d63c_c45d));
    assert_eq!(pin(18), (5_270, 0x14e5_116e_3597_2fae));
}

/// Everything observable a batched fan-out run produces. Two runs under the
/// same (stack, seed) must compare equal on all of it.
#[derive(Debug, PartialEq, Eq)]
struct FanoutOutcome {
    /// Distinct values each consumer received (duplicates collapse — the
    /// "modulo duplicates" equivalence of at-least-once delivery).
    delivered: Vec<BTreeSet<i64>>,
    stats: NetStatsSnapshot,
    dead_letters: usize,
    ledger: BTreeMap<String, LedgerEntry>,
}

/// Hotter than the request/response chaos plan: coalescing folds WSN's
/// wire traffic down to a few envelopes, so per-message fault odds must be
/// high for the schedule to demonstrably fire on every seed.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drops(0.25)
        .with_delays(0.3, SimDuration::from_millis(5.0))
        .with_duplicates(0.2)
}

fn values(elements: impl IntoIterator<Item = Element>) -> BTreeSet<i64> {
    elements
        .into_iter()
        .filter_map(|e| e.child_text("newValue").and_then(|v| v.parse().ok()))
        .collect()
}

fn run_wsn_batched(seed: u64) -> FanoutOutcome {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let (publisher, producer) = deploy_wsn(
        &container,
        coalesce(3, 64),
        Some(RetryPolicy::default_redelivery(seed).with_max_attempts(6)),
    );
    let consumers = [
        wsn_subscribe(&tb, &publisher, "/c0"),
        wsn_subscribe(&tb, &publisher, "/c1"),
    ];

    // Arm after subscribe: the chaos hits deliveries, not the bootstrap.
    tb.network().set_fault_plan(chaos_plan(seed));
    let topic = TopicPath::parse("t/x").unwrap();
    for v in 1..=EVENTS {
        assert_eq!(producer.notify(&topic, event(v)), 2);
    }
    producer.deliverer().flush();
    assert!(tb.network().quiesce(DRAIN));

    let delivered = consumers
        .iter()
        .map(|c| {
            values(c.drain().into_iter().filter_map(|d| match d {
                Delivery::Wrapped(nm) => Some(nm.message),
                Delivery::Raw(_) => None,
            }))
        })
        .collect();
    FanoutOutcome {
        delivered,
        stats: tb.network().stats().snapshot(),
        dead_letters: tb.network().dead_letters().len(),
        ledger: producer.deliverer().ledger().snapshot(),
    }
}

fn run_eventing_batched(seed: u64) -> FanoutOutcome {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    container.set_redelivery(Some(
        RetryPolicy::default_redelivery(seed).with_max_attempts(6),
    ));
    let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
    let notifier = notifier.with_delivery(coalesce(3, 64));

    let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
    let consumers = [
        EventConsumer::listen(&client, "/e0"),
        EventConsumer::listen(&client, "/e1"),
    ];
    for consumer in &consumers {
        client
            .invoke(
                &source,
                ev_actions::SUBSCRIBE,
                EvSubscribeRequest::new(consumer.epr().clone()).to_element(),
            )
            .expect("subscribe");
    }

    tb.network().set_fault_plan(chaos_plan(seed));
    for v in 1..=EVENTS {
        assert_eq!(notifier.trigger(event(v)), 2);
    }
    notifier.deliverer().flush();
    assert!(tb.network().quiesce(DRAIN));

    let delivered = consumers.iter().map(|c| values(c.drain())).collect();
    FanoutOutcome {
        delivered,
        stats: tb.network().stats().snapshot(),
        dead_letters: tb.network().dead_letters().len(),
        ledger: notifier.deliverer().ledger().snapshot(),
    }
}

#[test]
fn chaos_batched_delivery_is_reproducible_and_stacks_agree() {
    for seed in [11, 23] {
        let mut per_stack = Vec::new();
        for (name, run) in [
            ("wsn", run_wsn_batched as fn(u64) -> FanoutOutcome),
            ("eventing", run_eventing_batched),
        ] {
            let first = run(seed);
            let second = run(seed);
            assert_eq!(
                first, second,
                "{name}/seed {seed}: same seed must replay the same run"
            );
            assert!(
                first.stats.faults_injected() > 0,
                "{name}/seed {seed}: the chaos plan actually fired"
            );
            assert_eq!(first.dead_letters, 0, "{name}/seed {seed}: budgets held");
            for (id, entry) in &first.ledger {
                assert_eq!(
                    entry.delivered, entry.enqueued,
                    "{name}/seed {seed}/{id}: every accepted notification reached the wire"
                );
                assert_eq!(entry.dropped, 0, "{name}/seed {seed}/{id}: no backpressure");
                assert!(
                    entry.envelopes < entry.delivered || name == "eventing",
                    "{name}/seed {seed}/{id}: WSN coalescing must fold envelopes"
                );
            }
            per_stack.push(first);
        }
        // Functional equivalence across stacks: with batching on, every
        // consumer on both stacks still receives every value.
        let expected: BTreeSet<i64> = (1..=EVENTS).collect();
        for outcome in &per_stack {
            for (i, got) in outcome.delivered.iter().enumerate() {
                assert_eq!(got, &expected, "seed {seed}, consumer {i}");
            }
        }
        assert_eq!(
            per_stack[0].delivered, per_stack[1].delivered,
            "seed {seed}: stacks deliver the same value sets"
        );
    }
}

#[test]
fn metrics_exposition_exposes_the_fanout_series() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    // Tight outbox so the scrape sees live depth AND backpressure drops.
    let (publisher, producer) = deploy_wsn(&container, coalesce(100, 2), None);
    let _c0 = wsn_subscribe(&tb, &publisher, "/c0");
    let _c1 = wsn_subscribe(&tb, &publisher, "/c1");

    let topic = TopicPath::parse("t/x").unwrap();
    for v in 1..=4 {
        producer.notify(&topic, event(v));
    }
    // Per subscriber: capacity 2, so 2 parked + 2 dropped-oldest.
    assert_eq!(producer.deliverer().pending(), 4);

    let plane = AdminPlane::new(1, &ObsConfig::default(), tb.telemetry().clone());
    let text = plane.render_metrics();
    let exp = parse_exposition(&text).expect("strict exposition parse");
    exp.check_histograms().expect("consistent histograms");

    let sum = |name: &str| -> f64 {
        exp.samples
            .iter()
            .filter(|s| s.name == name && s.label("stack") == Some("wsn"))
            .map(|s| s.value)
            .sum()
    };
    assert_eq!(sum("wsn_subscribers"), 2.0, "got:\n{text}");
    assert_eq!(sum("wsn_outbox_depth"), 4.0, "got:\n{text}");
    assert_eq!(sum("wsn_backpressure_drops"), 4.0, "got:\n{text}");
    // No subscription here has a selector: the filter counters are present
    // and zero.
    for name in ["wsn_filter_compilations", "wsn_filter_evaluations"] {
        assert_eq!(sum(name), 0.0, "got:\n{text}");
        assert_eq!(exp.types.get(name).map(String::as_str), Some("counter"));
        assert!(
            exp.samples.iter().any(|s| s.name == name),
            "{name} missing:\n{text}"
        );
    }
    assert_eq!(
        exp.types.get("wsn_subscribers").map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        exp.types.get("wsn_outbox_depth").map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        exp.types.get("wsn_backpressure_drops").map(String::as_str),
        Some("counter")
    );

    producer.deliverer().flush();
    assert!(tb.network().quiesce(DRAIN));
}

/// How a subscription leaves the fan-out plane.
#[derive(Debug, Clone, Copy)]
enum Eviction {
    WsnDestroy,
    WsnExpiry,
    EventingUnsubscribe,
    EventingExpiry,
}

/// What one stack's deliverer shows once its only subscriber, holding a
/// parked batch, was evicted.
struct AfterEviction {
    stack: &'static str,
    row: Option<LedgerEntry>,
    pending: usize,
}

const PARKED: i64 = 3;

fn evict_wsn(tb: &Testbed, container: &Container, expiry: bool) -> AfterEviction {
    let (publisher, producer) = deploy_wsn(container, coalesce(100, 100), None);
    let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
    let consumer = NotificationConsumer::listen(&client, "/c");
    let expires = tb.clock().now().plus(SimDuration::from_millis(5.0));
    let req = SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("t"))
        .with_initial_termination(expires);
    let resp = client
        .invoke(&publisher, actions::SUBSCRIBE, req.to_element())
        .expect("subscribe");
    let sub = SubscribeRequest::parse_response(&resp).expect("subscription EPR");
    let topic = TopicPath::parse("t/x").unwrap();
    for v in 0..PARKED {
        assert_eq!(producer.notify(&topic, event(v)), 1);
    }
    assert_eq!(producer.deliverer().pending(), PARKED as usize);
    let proxy = WsrfProxy::new(&client);
    if expiry {
        // Any dispatch runs the container's WS-RL sweep.
        tb.clock().advance(SimDuration::from_millis(10.0));
        let _ = proxy.get_property(&sub, "Paused");
    } else {
        proxy.destroy(&sub).expect("destroy");
    }
    AfterEviction {
        stack: "wsn",
        row: producer
            .deliverer()
            .ledger()
            .entry(sub.resource_id().unwrap()),
        pending: producer.deliverer().pending(),
    }
}

fn evict_eventing(tb: &Testbed, container: &Container, expiry: bool) -> AfterEviction {
    let (source, notifier) = EventSourceService::deploy(container, "/services/Events");
    let notifier = notifier.with_delivery(coalesce(100, 100));
    let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
    let consumer = EventConsumer::listen(&client, "/e");
    let expires = tb.clock().now().plus(SimDuration::from_millis(5.0));
    let req = EvSubscribeRequest::new(consumer.epr().clone()).with_expires(expires);
    let resp = client
        .invoke(&source, ev_actions::SUBSCRIBE, req.to_element())
        .expect("subscribe");
    let (manager, _) = EvSubscribeRequest::parse_response(&resp).expect("manager EPR");
    for v in 0..PARKED {
        assert_eq!(notifier.trigger(event(v)), 1);
    }
    assert_eq!(notifier.deliverer().pending(), PARKED as usize);
    if expiry {
        tb.clock().advance(SimDuration::from_millis(10.0));
        assert_eq!(notifier.trigger(event(PARKED)), 0);
    } else {
        client
            .invoke(&manager, ev_actions::UNSUBSCRIBE, unsubscribe_request())
            .expect("unsubscribe");
    }
    AfterEviction {
        stack: "eventing",
        row: notifier
            .deliverer()
            .ledger()
            .entry(manager.resource_id().unwrap()),
        pending: notifier.deliverer().pending(),
    }
}

/// Whichever way a subscriber with a parked batch leaves — `Destroy` or
/// WS-RL expiry on WSN, `Unsubscribe` or expiry on WS-Eventing — the batch
/// is discarded as backpressure drops and dead letters, its ledger row
/// goes, and nothing holds the network open.
#[test]
fn an_evicted_subscriber_takes_its_parked_batch_and_ledger_row_with_it() {
    for route in [
        Eviction::WsnDestroy,
        Eviction::WsnExpiry,
        Eviction::EventingUnsubscribe,
        Eviction::EventingExpiry,
    ] {
        let tb = Testbed::free();
        let container = tb.container("host-a", SecurityPolicy::None);
        let after = match route {
            Eviction::WsnDestroy => evict_wsn(&tb, &container, false),
            Eviction::WsnExpiry => evict_wsn(&tb, &container, true),
            Eviction::EventingUnsubscribe => evict_eventing(&tb, &container, false),
            Eviction::EventingExpiry => evict_eventing(&tb, &container, true),
        };
        let drops = tb
            .telemetry()
            .metrics()
            .gather()
            .counter(&format!("wsn.backpressure_drops{{stack={}}}", after.stack));
        assert_eq!(drops, PARKED as u64, "{route:?}: parked notes dropped");
        assert_eq!(
            tb.network().dead_letters().len(),
            PARKED as usize,
            "{route:?}: and dead-lettered"
        );
        assert_eq!(after.row, None, "{route:?}: ledger row gone");
        assert_eq!(after.pending, 0, "{route:?}: nothing parked");
        assert!(tb.network().quiesce(DRAIN), "{route:?}: network drains");
    }
}

/// N events over S subscriptions sharing F distinct filters cost exactly
/// N × F evaluations and no compilation on the notify path, on both stacks.
/// A count that repeats exactly: the claim that event cost follows the
/// distinct filters, not the subscribers, does not rest on a timer.
#[test]
fn an_event_costs_one_evaluation_per_distinct_filter_and_no_compilation() {
    const S: usize = 24;
    const F: usize = 4;
    const N: usize = 10;
    let filter = |i: usize| format!("/CounterValueChanged[newValue > {}]", i % F);

    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let (publisher, producer) = deploy_wsn(&container, coalesce(100, 100), None);
    let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
    let notifier = notifier.with_delivery(coalesce(100, 100));
    let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
    let wsn_consumer = NotificationConsumer::listen(&client, "/c");
    let ev_consumer = EventConsumer::listen(&client, "/e");
    for i in 0..S {
        client
            .invoke(
                &publisher,
                actions::SUBSCRIBE,
                SubscribeRequest::new(wsn_consumer.epr().clone(), TopicExpression::simple("t"))
                    .with_selector(&filter(i))
                    .to_element(),
            )
            .expect("WSN subscribe");
        client
            .invoke(
                &source,
                ev_actions::SUBSCRIBE,
                EvSubscribeRequest::new(ev_consumer.epr().clone())
                    .with_filter(&filter(i))
                    .to_element(),
            )
            .expect("WS-Eventing subscribe");
    }

    // Read through the one registry, as `/metrics` does.
    let counts = || {
        let snap = tb.telemetry().metrics().gather();
        ["wsn", "eventing"].map(|stack| {
            (
                snap.counter(&format!("wsn.filter_compilations{{stack={stack}}}")),
                snap.counter(&format!("wsn.filter_evaluations{{stack={stack}}}")),
            )
        })
    };
    assert_eq!(
        counts(),
        [(S as u64, 0); 2],
        "one compilation per filtered subscription, at Subscribe"
    );

    let topic = TopicPath::parse("t/x").unwrap();
    let mut fanned_out = 0;
    for v in 0..N as i64 {
        // newValue v passes the filters `> k` with k < v.
        let passing = S / F * (v as usize).min(F);
        assert_eq!(producer.notify(&topic, event(v)), passing);
        assert_eq!(notifier.trigger(event(v)), passing);
        fanned_out += passing;
    }
    assert_eq!(
        counts(),
        [(S as u64, (N * F) as u64); 2],
        "N × F evaluations, no compilation, per stack"
    );

    producer.deliverer().flush();
    notifier.deliverer().flush();
    assert!(tb.network().quiesce(DRAIN));
    assert_eq!(wsn_consumer.drain().len(), fanned_out);
    assert_eq!(ev_consumer.drain().len(), fanned_out);
}
