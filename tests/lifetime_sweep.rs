//! WS-ResourceLifetime expiry seen from outside the container.
//!
//! Two claims:
//!
//! 1. Expiry order is part of the replayable trace: resources that lapse
//!    in one sweep are destroyed in `(deadline, key)` order, so the same
//!    script leaves the same span dump on every run.
//! 2. The scrape contract: the lifetime manager's gauges and counters are
//!    on `/metrics` and survive a strict exposition parse.

use ogsa_grid::addressing::EndpointReference;
use ogsa_grid::container::{ClientAgent, Container, Testbed};
use ogsa_grid::counter::{CounterApi, WsrfCounter};
use ogsa_grid::security::SecurityPolicy;
use ogsa_grid::serve::{AdminPlane, ObsConfig};
use ogsa_grid::sim::{SimDuration, SimInstant};
use ogsa_grid::telemetry::export::spans_to_jsonl;
use ogsa_grid::telemetry::prometheus::{parse_exposition, Exposition};
use ogsa_grid::wsn::base::{actions, SubscribeRequest};
use ogsa_grid::wsn::{NotificationConsumer, TopicExpression};
use ogsa_grid::wsrf::{TerminationTime, WsrfProxy};

// The two services' collections, as `db:*` spans name them.
const COUNTERS: &str = "wsrf:/services/CounterService";
const SUBSCRIPTIONS: &str = "wsrf:/services/CounterService/subscriptions";

struct Scenario {
    tb: Testbed,
    container: Container,
    agent: ClientAgent,
    survivor: EndpointReference,
    /// When the first of the five scheduled terminations falls due.
    first_deadline: SimInstant,
}

/// Four WSRF counters and two subscriptions — WS-Resources in two
/// different collections. Five of them are given termination times 10 to
/// 40 virtual seconds out, far enough that set-up itself expires nothing:
///
/// | deadline | resource                                   |
/// |----------|--------------------------------------------|
/// | +10 s    | counter 1                                  |
/// | +20 s    | subscription 0                             |
/// | +30 s    | counter 0, subscription 1 (tie: key order) |
/// | +40 s    | counter 2                                  |
///
/// Counter 3 never terminates.
fn schedule_five_terminations() -> Scenario {
    let tb = Testbed::calibrated();
    let container = tb.container("host-a", SecurityPolicy::None);
    let agent = tb.client("host-b", "CN=alice,O=UVA-VO", SecurityPolicy::None);
    let counter = WsrfCounter::deploy(&container);
    let api = counter.client(agent.clone());
    let counters = api.create_many(4).expect("createBatch");

    let t0 = tb.clock().now();
    let at = |secs: f64| t0.plus(SimDuration::from_millis(secs * 1000.0));
    let subscribe = |path: &str, secs: f64| {
        let consumer = NotificationConsumer::listen(&agent, path);
        let req = SubscribeRequest::new(consumer.epr().clone(), TopicExpression::simple("t"))
            .with_initial_termination(at(secs));
        agent
            .invoke(&counter.service_epr, actions::SUBSCRIBE, req.to_element())
            .expect("subscribe");
    };
    let proxy = WsrfProxy::new(&agent);
    let terminate = |i: usize, secs: f64| {
        proxy
            .set_termination_time(&counters[i], TerminationTime::At(at(secs)))
            .expect("SetTerminationTime");
    };
    // Scheduled out of deadline order on purpose.
    subscribe("/c0", 20.0);
    terminate(0, 30.0);
    terminate(2, 40.0);
    subscribe("/c1", 30.0);
    terminate(1, 10.0);

    assert_eq!(container.lifetime().tracked(), 6);
    assert_eq!(container.lifetime().expired(), 0, "nothing lapsed yet");
    Scenario {
        survivor: counters[3].clone(),
        first_deadline: at(10.0),
        tb,
        container,
        agent,
    }
}

/// Let all five lapse, then send one request: its dispatch is the one
/// sweep that destroys them all.
fn expire_all_in_one_sweep(s: &Scenario) {
    s.tb.clock().advance(SimDuration::from_millis(60_000.0));
    WsrfProxy::new(&s.agent)
        .get_property_text(&s.survivor, "cv")
        .expect("the survivor still answers");
    assert_eq!(s.container.lifetime().expired(), 5);
    assert_eq!(s.container.lifetime().tracked(), 1);
}

/// The collection each `db:delete` span touched, in dump order, and the
/// whole dump.
fn expiry_span_dump() -> (Vec<String>, String) {
    let s = schedule_five_terminations();
    s.tb.telemetry().take_spans();
    expire_all_in_one_sweep(&s);
    let spans = s.tb.telemetry().take_spans();
    let deleted = spans
        .iter()
        .filter(|sp| sp.name == "db:delete")
        .map(|sp| sp.attr("collection").expect("db spans name it").to_owned())
        .collect();
    (deleted, spans_to_jsonl(&spans))
}

#[test]
fn resources_expiring_in_one_sweep_replay_byte_identically() {
    let (deleted, dump) = expiry_span_dump();
    // (deadline, key) order: the 30 s tie goes to the counter, whose key
    // `…/CounterService#r-…` sorts before `…/CounterService/subscriptions#…`.
    assert_eq!(
        deleted,
        [COUNTERS, SUBSCRIPTIONS, COUNTERS, SUBSCRIPTIONS, COUNTERS],
        "destructors run in (deadline, key) order"
    );
    let (_, again) = expiry_span_dump();
    assert_eq!(dump, again, "same script must replay byte-identically");
}

fn scrape(tb: &Testbed) -> Exposition {
    let plane = AdminPlane::new(1, &ObsConfig::default(), tb.telemetry().clone());
    let text = plane.render_metrics();
    let exp = parse_exposition(&text).expect("strict exposition parse");
    exp.check_histograms().expect("consistent histograms");
    exp
}

/// The one sample of `name` for host-a, if the series is exposed.
fn host_a(exp: &Exposition, name: &str) -> Option<f64> {
    let mut samples = exp
        .samples
        .iter()
        .filter(|s| s.name == name && s.label("host") == Some("host-a"));
    let value = samples.next().map(|s| s.value);
    assert!(samples.next().is_none(), "{name} has one series per host");
    value
}

#[test]
fn metrics_exposition_exposes_the_lifetime_series() {
    let s = schedule_five_terminations();

    let before = scrape(&s.tb);
    assert_eq!(host_a(&before, "container_lifetime_tracked"), Some(6.0));
    assert_eq!(
        host_a(&before, "container_lifetime_next_deadline_us"),
        Some(s.first_deadline.0 as f64)
    );
    assert_eq!(host_a(&before, "container_lifetime_expired"), Some(0.0));
    assert_eq!(
        host_a(&before, "container_lifetime_sweep_examined"),
        Some(0.0),
        "every request so far swept, and none looked at an entry"
    );
    for (name, kind) in [
        ("container_lifetime_tracked", "gauge"),
        ("container_lifetime_next_deadline_us", "gauge"),
        ("container_lifetime_expired", "counter"),
        ("container_lifetime_sweep_examined", "counter"),
    ] {
        assert_eq!(before.types.get(name).map(String::as_str), Some(kind));
    }

    expire_all_in_one_sweep(&s);
    let after = scrape(&s.tb);
    assert_eq!(host_a(&after, "container_lifetime_tracked"), Some(1.0));
    assert_eq!(
        host_a(&after, "container_lifetime_next_deadline_us"),
        None,
        "absent when nothing is scheduled"
    );
    assert_eq!(host_a(&after, "container_lifetime_expired"), Some(5.0));
    assert_eq!(
        host_a(&after, "container_lifetime_sweep_examined"),
        Some(5.0)
    );

    // Collectors run on gather() only: the deterministic snapshot that
    // figure regeneration compares is untouched.
    let snap = s.tb.telemetry().metrics().snapshot();
    assert!(snap.gauges.is_empty());
    assert_eq!(snap.counter_total("container.lifetime_expired"), 0);
}
