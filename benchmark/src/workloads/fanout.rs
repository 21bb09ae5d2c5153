//! `notify_fanout`: one WS-Notification producer and one WS-Eventing source
//! publishing to many subscribers.
//!
//! One operation is one event published on both stacks, resolved and
//! delivered to everything it matches, with both deliverers coalescing
//! (`batch_max` 16). The fan-out core (trie, sharded table, outboxes) and
//! the wsn/eventing delivery code do the work; the serving tier, the WAL and
//! the store's read path do little.
//!
//! Populations: 6 144 WS-Notification subscriptions over 256 topic roots,
//! a quarter each concrete, `*`, `//` in the middle and `//` at the end;
//! 128 WS-Eventing subscriptions with an XPath filter over 32 bands. The
//! WS-Eventing number is small because that stack is linear twice over: its
//! flat-file store re-parses and rewrites every subscription on each
//! Subscribe, and every event clones every subscription and compiles its
//! filter. At 20 000 a Subscribe takes tens of milliseconds and an event
//! longer. That cost is the stack's own and is what `eventing.notify_us` and
//! `eventing.subscribe_us` report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ogsa_core::container::{Operation, OperationContext, Testbed, WebService};
use ogsa_core::eventing::{self, EventSourceService, NotificationManager};
use ogsa_core::fanout::{CompiledTopic, DelivererConfig, DeliveryPlan, TopicTrie};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::sim::{CostModel, DetRng};
use ogsa_core::soap::{Envelope, Fault};
use ogsa_core::wsn::{
    self, NotificationMessage, NotificationProducer, SubscriptionManagerService, TopicExpression,
    TopicPath,
};
use ogsa_core::xml::Element;
use ogsa_core::xmldb::BackendKind;

use super::{alloc_metrics, driver_metrics, shuffled, trace_metrics, TeardownMetrics, Workload};
use crate::layers::{mean_us, message_layers, plumbing_layers};
use crate::metrics::Ledger;
use crate::probe::{self, Probe};
use crate::stats::Recorder;
use crate::trace::{stage_totals, Tracer, OP};

const POLICY: SecurityPolicy = SecurityPolicy::X509Sign;
const HOST: &str = "host-a";
const ROOTS: usize = 256;
const BANDS: usize = 32;
const BATCH_MAX: usize = 16;
const DELIVERY: DelivererConfig = DelivererConfig {
    plan: DeliveryPlan::Coalesce {
        batch_max: BATCH_MAX,
    },
    outbox_capacity: 1 << 20,
};
/// Every this-many-th event's fan-out is checked against the naive matcher.
const CHECK_EVERY: usize = 100;
/// Events replayed with spans by the traced run.
const TRACED_OPS: usize = 2_000;

/// How big a run is. The unit tests shrink it; the benchmark never does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub wsn_subscriptions: usize,
    pub eventing_subscriptions: usize,
    /// Events published before the first measured one.
    pub warmup_events: usize,
}

pub const SCALE: Scale = Scale {
    wsn_subscriptions: 12_288,
    eventing_subscriptions: 192,
    warmup_events: 2_048,
};

/// One distinct event topic: `jobs{root}/vo{a}/q0/t{c}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topic {
    pub root: usize,
    pub a: usize,
    pub c: usize,
}

impl Topic {
    fn path(&self) -> String {
        format!("jobs{}/vo{}/q0/t{}", self.root, self.a, self.c)
    }

    fn band(&self) -> usize {
        self.root % BANDS
    }
}

/// Every distinct event topic: 256 roots × 2 × 2.
fn all_topics() -> Vec<Topic> {
    let mut out = Vec::with_capacity(ROOTS * 4);
    for root in 0..ROOTS {
        for a in 0..2 {
            for c in 0..2 {
                out.push(Topic { root, a, c });
            }
        }
    }
    out
}

/// The `i`-th WS-Notification subscription expression. The population is the
/// same for every seed; the seed decides the order they subscribe in.
fn wsn_expression(i: usize) -> TopicExpression {
    let (root, j) = (i % ROOTS, i / ROOTS);
    let (a, c) = ((j / 4) % 2, (j / 8) % 2);
    match j % 4 {
        0 => TopicExpression::concrete(&format!("jobs{root}/vo{a}/q0/t{c}")),
        1 => TopicExpression::full(&format!("jobs{root}/*/q0/t{c}")),
        2 => TopicExpression::full(&format!("jobs{root}//t{c}")),
        _ => TopicExpression::full(&format!("jobs{root}/vo{a}//")),
    }
}

/// What the seed decides: the order subscriptions are made in and the topics
/// of the events, drawn uniformly from every distinct topic. Independent
/// draws, not a cycled shuffle: with a cycle every outbox of one kind fills
/// in step and drains in the same half second, cycle after cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub wsn_order: Vec<u32>,
    pub eventing_order: Vec<u32>,
    pub events: Vec<Topic>,
}

pub fn inputs(seed: u64, scale: Scale) -> Inputs {
    let rng = DetRng::seeded(seed).fork("notify_fanout");
    let topics = all_topics();
    Inputs {
        wsn_order: shuffled(&rng, scale.wsn_subscriptions),
        eventing_order: shuffled(&rng, scale.eventing_subscriptions),
        events: (0..1 << 16)
            .map(|_| topics[rng.below(topics.len() as u64) as usize])
            .collect(),
    }
}

/// The WS-Notification publisher: `Subscribe` goes to the producer's store.
struct Publisher {
    producer: NotificationProducer,
}

impl WebService for Publisher {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        match op.action_name() {
            "Subscribe" => {
                let req = wsn::SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                let epr = self.producer.store().subscribe(ctx, &req)?;
                Ok(wsn::SubscribeRequest::response(&epr))
            }
            other => Err(Fault::client(format!("publisher has no `{other}`"))),
        }
    }
}

/// A sampled event and what each stack said it fanned out to.
struct Sampled {
    topic: Topic,
    wsn_matched: usize,
    eventing_matched: usize,
}

pub struct FanoutWorkload {
    scale: Scale,
    tb: Testbed,
    producer: NotificationProducer,
    source: NotificationManager,
    inputs: Inputs,
    /// Next event of the cycle.
    cursor: usize,
    /// Notifications each consumer endpoint has received.
    received: [Arc<AtomicU64>; 2],
    /// Notifications each stack said it fanned out.
    matched: [u64; 2],
    sampled: Vec<Sampled>,
    /// Delivered envelopes kept for the layer timings, when asked for.
    captured: Arc<Mutex<Option<Vec<String>>>>,
    peak_pending: usize,
    pub subscribe_us: [f64; 2],
}

impl FanoutWorkload {
    pub fn set_up(seed: u64) -> FanoutWorkload {
        FanoutWorkload::set_up_scaled(seed, SCALE)
    }

    pub fn set_up_scaled(seed: u64, scale: Scale) -> FanoutWorkload {
        let tb = Testbed::new_quiet(CostModel::free(), BackendKind::Memory);
        tb.network().set_synchronous_oneways(true);
        let container = tb.container(HOST, POLICY);
        let (_manager, store) =
            SubscriptionManagerService::deploy(&container, "/services/Publisher/subscriptions");
        let producer =
            NotificationProducer::new(store, container.service_agent()).with_delivery(DELIVERY);
        let publisher_epr = container.deploy(
            "/services/Publisher",
            Arc::new(Publisher {
                producer: producer.clone(),
            }),
        );
        let (source_epr, source) = EventSourceService::deploy(&container, "/services/Events");
        let source = source.with_delivery(DELIVERY);

        // One consumer endpoint per stack, counting what arrives. The
        // endpoints verify every envelope's signature before this code runs.
        let client = tb.client("host-b", "CN=subscriber,O=VO", POLICY);
        let received = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let captured: Arc<Mutex<Option<Vec<String>>>> = Arc::new(Mutex::new(None));
        let keep = |captured: &Mutex<Option<Vec<String>>>, env: &Envelope| {
            if let Some(kept) = captured.lock().expect("capture lock").as_mut() {
                if kept.len() < 128 {
                    kept.push(env.to_wire());
                }
            }
        };
        let (count, sink) = (received[0].clone(), captured.clone());
        let wsn_consumer = client.listen_oneway(
            "http",
            "/notifications",
            Arc::new(move |env: Envelope| {
                keep(&sink, &env);
                let n = NotificationMessage::all_from_notify_element(&env.body).len();
                count.fetch_add(n as u64, Ordering::Relaxed);
            }),
        );
        let (count, sink) = (received[1].clone(), captured.clone());
        let eventing_consumer = client.listen_oneway(
            "tcp",
            "/events",
            Arc::new(move |env: Envelope| {
                keep(&sink, &env);
                count.fetch_add(1, Ordering::Relaxed);
            }),
        );

        let inputs = inputs(seed, scale);
        let t = Instant::now();
        for &i in &inputs.wsn_order {
            let req = wsn::SubscribeRequest::new(wsn_consumer.clone(), wsn_expression(i as usize));
            client
                .invoke(
                    &publisher_epr,
                    wsn::base::actions::SUBSCRIBE,
                    req.to_element(),
                )
                .expect("WS-Notification Subscribe");
        }
        let wsn_subscribe_us = t.elapsed().as_secs_f64() * 1e6 / scale.wsn_subscriptions as f64;
        let t = Instant::now();
        for &i in &inputs.eventing_order {
            let req = eventing::SubscribeRequest::new(eventing_consumer.clone())
                .with_filter(&format!("/Event[@band='b{}']", i as usize % BANDS));
            client
                .invoke(&source_epr, eventing::actions::SUBSCRIBE, req.to_element())
                .expect("WS-Eventing Subscribe");
        }
        let eventing_subscribe_us =
            t.elapsed().as_secs_f64() * 1e6 / scale.eventing_subscriptions as f64;

        let mut workload = FanoutWorkload {
            scale,
            tb,
            producer,
            source,
            inputs,
            cursor: 0,
            received,
            matched: [0, 0],
            sampled: Vec::new(),
            captured,
            peak_pending: 0,
            subscribe_us: [wsn_subscribe_us, eventing_subscribe_us],
        };
        workload.prefill_outboxes(seed);
        let mut off = Tracer::new(false);
        for op in 0..scale.warmup_events {
            workload.publish(op as u32, &mut off);
        }
        workload
    }

    /// Park a seeded 0 to 15 notifications in every subscriber's outbox: the
    /// state a long-running producer is in. A subscriber sees at most one
    /// event in 256, so from empty every outbox fills in step for thousands
    /// of events and then they all drain together; measured from empty, the
    /// first twenty seconds read 2 173, then 1 100, then 1 850 ops/s.
    fn prefill_outboxes(&mut self, seed: u64) {
        let rng = DetRng::seeded(seed).fork("prefill");
        let topic = self.inputs.events[0];
        let wsn_body = NotificationMessage {
            topic: TopicPath::parse(&topic.path()).expect("generated topic parses"),
            producer: None,
            message: Self::message(&topic, 0),
        }
        .to_element();
        let index = self.producer.store().index().clone();
        let mut wsn_subs = self.producer.store().all();
        wsn_subs.sort_by(|a, b| a.id.cmp(&b.id));
        for sub in &wsn_subs {
            let shard = index.shard_of(sub.topic.compile().root_name().unwrap_or(""));
            for _ in 0..rng.below(BATCH_MAX as u64) {
                self.producer
                    .deliverer()
                    .enqueue(sub, shard, wsn_body.clone());
                self.matched[0] += 1;
            }
        }
        let shard = self.source.index().stats().shards() - 1;
        for sub in &self.source.index().all_active() {
            for _ in 0..rng.below(BATCH_MAX as u64) {
                self.source
                    .deliverer()
                    .enqueue(sub, shard, Self::message(&topic, 0));
                self.matched[1] += 1;
            }
        }
    }

    fn message(topic: &Topic, seq: usize) -> Element {
        Element::new("Event")
            .with_attr("band", format!("b{}", topic.band()))
            .with_attr("seq", seq.to_string())
            .with_child(Element::text_element("status", "exited"))
            .with_child(Element::text_element("exitCode", "0"))
    }

    /// One operation: the next event of the cycle, on both stacks.
    fn publish(&mut self, op: u32, t: &mut Tracer) {
        let seq = self.cursor;
        let topic = self.inputs.events[seq % self.inputs.events.len()];
        self.cursor += 1;
        let path = TopicPath::parse(&topic.path()).expect("generated topic parses");
        let (producer, source) = (&self.producer, &self.source);
        let (wsn_matched, eventing_matched) = t.span(OP, op, |t| {
            let w = t.span("wsn.notify", op, |_| {
                producer.notify(&path, Self::message(&topic, seq))
            });
            let e = t.span("eventing.notify", op, |_| {
                source.trigger(Self::message(&topic, seq))
            });
            (w, e)
        });
        self.matched[0] += wsn_matched as u64;
        self.matched[1] += eventing_matched as u64;
        if seq.is_multiple_of(CHECK_EVERY) {
            self.sampled.push(Sampled {
                topic,
                wsn_matched,
                eventing_matched,
            });
        }
    }

    fn fanout_layers(&mut self, ledger: &mut Ledger) {
        // The trie and the outbox on their own, on this workload's own
        // expressions and topics.
        let expressions: Vec<CompiledTopic> = (0..self.scale.wsn_subscriptions)
            .map(|i| wsn_expression(i).compile())
            .collect();
        let mut trie = TopicTrie::new();
        for (id, e) in expressions.iter().enumerate() {
            trie.insert(id as u64, e);
        }
        let paths: Vec<String> = self.inputs.events.iter().map(Topic::path).collect();
        let mut out = Vec::new();
        ledger.set(
            "fanout.resolve_us",
            mean_us(paths.len(), 3, |i| {
                let segs: Vec<&str> = paths[i].split('/').collect();
                out.clear();
                trie.resolve(&segs, &mut out);
                std::hint::black_box(out.len());
            }),
        );

        // Enqueue and flush through the live WS-Notification deliverer: park
        // one notification for each of 512 subscribers, then drain them all.
        let deliverer = self.producer.deliverer().clone();
        let subs: Vec<_> = self.producer.store().all().into_iter().take(512).collect();
        let body = NotificationMessage {
            topic: TopicPath::parse("jobs0/vo0/q0/t0").expect("static topic"),
            producer: None,
            message: Self::message(&self.inputs.events[0], 0),
        }
        .to_element();
        deliverer.flush();
        let received_before = self.received[0].load(Ordering::Relaxed);
        let t = Instant::now();
        for s in &subs {
            deliverer.enqueue(s, 0, body.clone());
        }
        ledger.set(
            "fanout.enqueue_us",
            t.elapsed().as_secs_f64() * 1e6 / subs.len() as f64,
        );
        let t = Instant::now();
        let flushed = deliverer.flush();
        ledger.set(
            "fanout.flush_us",
            t.elapsed().as_secs_f64() * 1e6 / flushed.max(1) as f64,
        );
        // These went around `notify`, so count them as fanned out by hand.
        self.matched[0] += self.received[0].load(Ordering::Relaxed) - received_before;
    }
}

impl Workload for FanoutWorkload {
    /// Notifications parked in both deliverers' outboxes.
    fn retained(&self) -> u64 {
        (self.producer.deliverer().pending() + self.source.deliverer().pending()) as u64
    }

    /// No outbox may hold a full batch.
    fn retained_limit(&self) -> u64 {
        ((self.scale.wsn_subscriptions + self.scale.eventing_subscriptions) * (BATCH_MAX - 1))
            as u64
    }

    fn memory_checkpoint(&self) -> u64 {
        5_000
    }

    fn measure(&mut self, window: Duration, rec: &mut Recorder) {
        let deadline = Instant::now() + window;
        let mut off = Tracer::new(false);
        let net = self.tb.network().clone();
        let mut probe = Probe::new();
        let mut op = 0u32;
        let mut now = Instant::now();
        let mut next_burst = now;
        while now < deadline {
            if now >= next_burst {
                rec.probe(probe.burst());
                now = Instant::now();
                next_burst = now + probe::EVERY;
            }
            let bytes = net.stats().bytes();
            let start = now;
            self.publish(op, &mut off);
            now = Instant::now();
            rec.record(now, now - start, net.stats().bytes() - bytes);
            op += 1;
            if op.is_multiple_of(64) {
                self.peak_pending = self.peak_pending.max(self.retained() as usize);
            }
        }
    }

    fn trace(&mut self, window: Duration, tracer: &mut Tracer, ledger: &mut Ledger) {
        let ledger_before = [
            self.producer.deliverer().ledger().snapshot(),
            self.source.deliverer().ledger().snapshot(),
        ];
        let messages_before = self.tb.network().stats().messages();
        let matched_before = self.matched;
        let mut rec = Recorder::start(self.memory_checkpoint());
        self.measure(window, &mut rec);
        let win = rec.finish();
        let ops = win.ops() as f64;
        driver_metrics(ledger, &win);
        ledger.set(
            "transport.messages_per_op",
            (self.tb.network().stats().messages() - messages_before) as f64 / ops,
        );
        ledger.set("transport.bytes_per_op", win.wire_bytes_per_op());
        let matched = (self.matched[0] - matched_before[0]) + (self.matched[1] - matched_before[1]);
        ledger.set("fanout.matches_per_event", matched as f64 / ops);
        let envelopes = |stack: usize| -> u64 {
            let deliverer_ledger = if stack == 0 {
                self.producer.deliverer().ledger().snapshot()
            } else {
                self.source.deliverer().ledger().snapshot()
            };
            deliverer_ledger
                .iter()
                .map(|(id, e)| {
                    e.envelopes - ledger_before[stack].get(id).map_or(0, |b| b.envelopes)
                })
                .sum()
        };
        ledger.set("fanout.wsn.envelopes_per_event", envelopes(0) as f64 / ops);
        ledger.set(
            "fanout.eventing.envelopes_per_event",
            envelopes(1) as f64 / ops,
        );
        ledger.set("fanout.outbox_peak_depth", self.peak_pending as f64);
        ledger.set("wsn.subscribe_us", self.subscribe_us[0]);
        ledger.set("eventing.subscribe_us", self.subscribe_us[1]);

        // Spans on and off alternate event by event, so a change of the
        // host's speed lands on both sides alike.
        let mut off = Tracer::new(false);
        let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
        for op in 0..TRACED_OPS as u32 {
            let t = Instant::now();
            self.publish(op, &mut off);
            untraced += t.elapsed();
            let t = Instant::now();
            self.publish(op, tracer);
            traced += t.elapsed();
        }
        let alloc_ops = TRACED_OPS / 10;
        alloc_metrics(ledger, alloc_ops, || {
            for op in 0..alloc_ops as u32 {
                self.publish(op, &mut off);
            }
        });
        let stages = stage_totals(tracer.spans());
        ledger.set("wsn.notify_us", stages["wsn.notify"].mean_us());
        ledger.set("eventing.notify_us", stages["eventing.notify"].mean_us());
        trace_metrics(ledger, tracer, traced, untraced);

        // Delivered envelopes, for the message-shaped layers.
        *self.captured.lock().expect("capture lock") = Some(Vec::new());
        for op in 0..512 {
            self.publish(op, &mut off);
        }
        self.producer.deliverer().flush();
        self.source.deliverer().flush();
        let wires = self
            .captured
            .lock()
            .expect("capture lock")
            .take()
            .expect("capture was on");
        message_layers(ledger, &self.tb, &wires, 10);
        let sample = Envelope::from_wire(&wires[0]).expect("sample is an envelope");
        plumbing_layers(ledger, &self.tb, &sample);
        self.fanout_layers(ledger);
    }

    fn check(self) -> Result<TeardownMetrics, String> {
        self.producer.deliverer().flush();
        self.source.deliverer().flush();
        if !self.tb.network().quiesce(Duration::from_secs(10)) {
            return Err("deliveries still in flight 10 s after the final flush".into());
        }

        // The naive matcher on the sampled events: every expression against
        // the topic, one by one; every filter's band against the event's.
        let expressions: Vec<CompiledTopic> = (0..self.scale.wsn_subscriptions)
            .map(|i| wsn_expression(i).compile())
            .collect();
        for s in &self.sampled {
            let path = s.topic.path();
            let segs: Vec<&str> = path.split('/').collect();
            let wsn_naive = expressions.iter().filter(|e| e.matches(&segs)).count();
            let eventing_naive = (0..self.scale.eventing_subscriptions)
                .filter(|i| i % BANDS == s.topic.band())
                .count();
            if (s.wsn_matched, s.eventing_matched) != (wsn_naive, eventing_naive) {
                return Err(format!(
                    "event on {path} fanned out to {} + {} subscribers, the naive matcher finds {wsn_naive} + {eventing_naive}",
                    s.wsn_matched, s.eventing_matched
                ));
            }
        }
        if self.sampled.is_empty() {
            return Err("no event was checked against the naive matcher".into());
        }

        // Everything fanned out arrived, and the ledgers balance.
        let mut imbalance = 0u64;
        let mut drops = self.producer.store().index().stats().backpressure_drops()
            + self.source.index().stats().backpressure_drops();
        for (stack, ledger) in [
            self.producer.deliverer().ledger().snapshot(),
            self.source.deliverer().ledger().snapshot(),
        ]
        .into_iter()
        .enumerate()
        {
            let (mut enqueued, mut delivered) = (0, 0);
            for e in ledger.values() {
                imbalance += e.enqueued.abs_diff(e.delivered + e.dropped);
                drops += e.dropped;
                enqueued += e.enqueued;
                delivered += e.delivered;
            }
            let received = self.received[stack].load(Ordering::Relaxed);
            if enqueued != self.matched[stack] || delivered != received {
                return Err(format!(
                    "stack {stack}: fanned out {}, enqueued {enqueued}, delivered {delivered}, received {received}",
                    self.matched[stack]
                ));
            }
        }
        let dead = self.tb.network().dead_letters().len();
        if imbalance != 0 || drops != 0 || dead != 0 {
            return Err(format!(
                "ledger imbalance {imbalance}, backpressure drops {drops}, dead letters {dead}"
            ));
        }
        Ok(vec![
            ("fanout.ledger_imbalance", imbalance as f64),
            ("fanout.backpressure_drops", drops as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale {
        wsn_subscriptions: 512,
        eventing_subscriptions: 32,
        warmup_events: 64,
    };

    #[test]
    fn the_same_seed_generates_identical_inputs() {
        assert_eq!(inputs(11, SMALL), inputs(11, SMALL));
        assert_ne!(inputs(11, SMALL).events, inputs(12, SMALL).events);
        assert_ne!(inputs(11, SMALL).wsn_order, inputs(12, SMALL).wsn_order);
    }

    #[test]
    fn every_kind_of_expression_matches_some_topic() {
        let topics = all_topics();
        for i in 0..4 * ROOTS {
            let expr = wsn_expression(i).compile();
            let hits = topics
                .iter()
                .filter(|t| {
                    let path = t.path();
                    expr.matches(&path.split('/').collect::<Vec<_>>())
                })
                .count();
            assert!(
                (1..=2).contains(&hits),
                "expression {i} matches {hits} topics"
            );
        }
    }

    #[test]
    fn a_small_run_delivers_everything_it_fans_out() {
        let mut w = FanoutWorkload::set_up_scaled(5, SMALL);
        let mut rec = Recorder::start(w.memory_checkpoint());
        w.measure(Duration::from_millis(600), &mut rec);
        assert!(rec.finish().ops() > 100);
        assert!(w.retained() <= w.retained_limit());
        let teardown = w
            .check()
            .expect("naive matcher, ledger and deliveries agree");
        assert!(teardown.contains(&("fanout.ledger_imbalance", 0.0)));
    }
}
