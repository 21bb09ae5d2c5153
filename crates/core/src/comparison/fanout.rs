//! The fan-out experiments backing `BENCH_fanout.json`:
//!
//! * **Trie vs naive** — resolving a topic path through the precompiled
//!   [`ogsa_fanout::TopicTrie`] versus the retained naive matcher (one
//!   [`CompiledTopic::matches`] scan per subscription), wall-clock, across
//!   subscriber counts (1k → 1M) and topic shapes. The two must agree on
//!   every probe; the trie must be ≥ 10× at 100k subscribers and above.
//!   The only wall-clock figures `BENCH_fanout.json` holds.
//! * **Shard scaling** — the makespan model of the xmldb sharding:
//!   notifications/sec = delivered notes ÷ the busiest shard's charged
//!   time. The per-operation *cost* is shard-count invariant; only the
//!   attribution spreads, so throughput must scale with the shard count.
//! * **Stack fan-out** — the delivery core configured per stack's honest
//!   rules: WSN routes by topic root across 8 shards and coalesces batches
//!   into `<wsnt:Notify>` envelopes; WS-Eventing has no topics (every
//!   subscription on the wildcard shard) and no batch container (one
//!   envelope per event).
//! * **Batched determinism** — a chaotic batched WSN run must replay
//!   byte-identically under the same seed, and the broker
//!   amplification ordinals must survive the recosted delivery path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ogsa_container::Testbed;
use ogsa_fanout::{
    CompiledTopic, Deliverer, DelivererConfig, DeliveryPlan, ShardedTable, Sink, Subscriber,
    TopicTrie,
};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{CostModel, SimDuration, VirtualClock};
use ogsa_telemetry::Telemetry;
use ogsa_transport::{FaultPlan, Network, RetryPolicy};
use ogsa_xml::Element;

use super::ablation::{deploy_publisher, subscribe};

/// Distinct topic roots the generators cycle through (also bounds how far
/// shard routing can spread work).
const ROOTS: usize = 256;

/// Topic shapes swept by the trie experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopicShape {
    /// Simple-dialect roots: `root{k}` matching everything beneath.
    Flat,
    /// Concrete four-segment paths: exact-match only.
    Deep,
    /// Full-dialect patterns with `*` and `//` wildcards.
    Wildcard,
}

impl TopicShape {
    pub fn all() -> [TopicShape; 3] {
        [TopicShape::Flat, TopicShape::Deep, TopicShape::Wildcard]
    }

    pub fn key(self) -> &'static str {
        match self {
            TopicShape::Flat => "flat",
            TopicShape::Deep => "deep",
            TopicShape::Wildcard => "wildcard",
        }
    }

    /// The `i`-th subscription expression of this shape.
    fn topic(self, i: usize) -> CompiledTopic {
        let r = i % ROOTS;
        match self {
            TopicShape::Flat => CompiledTopic::simple(&format!("root{r}")),
            TopicShape::Deep => {
                CompiledTopic::concrete(&format!("jobs{r}/vo{}/q{}/t{}", i % 7, i % 5, i % 11))
            }
            TopicShape::Wildcard => match i % 4 {
                0 => CompiledTopic::full(&format!("jobs{r}/*/q{}/t{}", i % 5, i % 11)),
                1 => CompiledTopic::full(&format!("jobs{r}//t{}", i % 11)),
                2 => CompiledTopic::full(&format!("root{r}/*")),
                _ => CompiledTopic::full(&format!("//exited{}", i % 13)),
            },
        }
    }

    /// The `j`-th probe path for this shape (drawn from the same space as
    /// the expressions, so probes actually hit).
    fn probe(self, j: usize) -> Vec<String> {
        let r = j % ROOTS;
        match self {
            TopicShape::Flat => vec![format!("root{r}"), format!("x{}", j % 9)],
            TopicShape::Deep | TopicShape::Wildcard => vec![
                format!("jobs{r}"),
                format!("vo{}", j % 7),
                format!("q{}", j % 5),
                format!("t{}", j % 11),
            ],
        }
    }
}

/// One (size, shape) cell of the trie-vs-naive sweep.
#[derive(Debug, Clone)]
pub struct TrieRow {
    pub subscribers: usize,
    pub shape: TopicShape,
    pub probes: usize,
    /// Total matches the probe set produced (sanity: > 0).
    pub matches: u64,
    pub trie_wall_us: f64,
    pub naive_wall_us: f64,
    /// Did the trie and the naive matcher agree on every probe's id set?
    pub agree: bool,
}

impl TrieRow {
    pub fn speedup(&self) -> f64 {
        self.naive_wall_us / self.trie_wall_us.max(1e-3)
    }
}

/// Wall-clock the trie against the naive matcher for every (size, shape).
pub fn trie_vs_naive(sizes: &[usize]) -> Vec<TrieRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        // Fewer probes at larger sizes keeps the naive arm's total work
        // (n × probes) bounded without starving the timer at small n.
        let probes = (2_000_000 / n.max(1)).clamp(16, 1024);
        for shape in TopicShape::all() {
            rows.push(trie_cell(n, shape, probes));
        }
    }
    rows
}

fn trie_cell(n: usize, shape: TopicShape, probes: usize) -> TrieRow {
    let exprs: Vec<CompiledTopic> = (0..n).map(|i| shape.topic(i)).collect();
    let mut trie = TopicTrie::new();
    for (reg, t) in exprs.iter().enumerate() {
        trie.insert(reg as u64, t);
    }
    let paths: Vec<Vec<String>> = (0..probes).map(|j| shape.probe(j)).collect();
    let path_refs: Vec<Vec<&str>> = paths
        .iter()
        .map(|p| p.iter().map(String::as_str).collect())
        .collect();

    // Agreement first (untimed): identical id sets on every probe.
    let mut agree = true;
    let mut out = Vec::new();
    for p in &path_refs {
        out.clear();
        trie.resolve(p, &mut out);
        let mut naive: Vec<u64> = exprs
            .iter()
            .enumerate()
            .filter(|(_, t)| t.matches(p))
            .map(|(reg, _)| reg as u64)
            .collect();
        naive.sort_unstable();
        agree &= out == naive;
    }

    let t0 = Instant::now();
    let mut matches = 0u64;
    for p in &path_refs {
        out.clear();
        trie.resolve(p, &mut out);
        matches += out.len() as u64;
    }
    let trie_wall_us = t0.elapsed().as_secs_f64() * 1e6;

    let t1 = Instant::now();
    let mut naive_matches = 0u64;
    for p in &path_refs {
        naive_matches += exprs.iter().filter(|t| t.matches(p)).count() as u64;
    }
    let naive_wall_us = t1.elapsed().as_secs_f64() * 1e6;

    TrieRow {
        subscribers: n,
        shape,
        probes,
        matches,
        trie_wall_us: trie_wall_us.max(1e-3),
        naive_wall_us: naive_wall_us.max(1e-3),
        agree: agree && matches == naive_matches,
    }
}

/// A minimal subscriber for the table-level experiments.
#[derive(Clone)]
pub struct BenchSub {
    id: String,
    endpoint: ogsa_addressing::EndpointReference,
}

impl BenchSub {
    fn new(i: usize) -> Self {
        BenchSub {
            id: format!("s{i:07}"),
            endpoint: ogsa_addressing::EndpointReference::service("http://consumer/inbox"),
        }
    }
}

impl Subscriber for BenchSub {
    fn sub_id(&self) -> &str {
        &self.id
    }

    fn endpoint(&self) -> &ogsa_addressing::EndpointReference {
        &self.endpoint
    }
}

/// One shard count of the makespan sweep.
#[derive(Debug, Clone)]
pub struct ShardRow {
    pub shards: usize,
    pub subscribers: usize,
    pub events: usize,
    /// Notifications fanned out across all events.
    pub notes: u64,
    /// The busiest shard's charged delivery time (inserts excluded).
    pub max_busy_us: u64,
    pub contentions: u64,
    /// Makespan throughput: notes ÷ max shard busy.
    pub rps: f64,
}

/// Sweep shard counts at a fixed population: same events, same costs, same
/// notes — only the busy-time attribution (and therefore the modelled
/// parallel makespan) may change.
pub fn shard_sweep(subscribers: usize, shard_counts: &[usize], events: usize) -> Vec<ShardRow> {
    shard_counts
        .iter()
        .map(|&k| shard_cell(subscribers, k, events))
        .collect()
}

fn shard_cell(subscribers: usize, shards: usize, events: usize) -> ShardRow {
    let table = ShardedTable::new(
        shards,
        VirtualClock::new(),
        &CostModel::calibrated_2005(),
        Telemetry::disabled(),
        "wsn",
    );
    for i in 0..subscribers {
        table.insert(BenchSub::new(i), TopicShape::Flat.topic(i), None, false);
    }
    // Charge only the delivery phase against the makespan: snapshot the
    // insert-phase busy time and subtract it per shard.
    let before = table.stats().busy_us();
    let mut notes = 0u64;
    for e in 0..events {
        let root = format!("root{}", e % ROOTS);
        notes += table.resolve(&[root.as_str(), "x"]).len() as u64;
    }
    let after = table.stats().busy_us();
    let max_busy_us = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a - b)
        .max()
        .unwrap_or(0);
    ShardRow {
        shards,
        subscribers,
        events,
        notes,
        max_busy_us,
        contentions: table.stats().contentions(),
        rps: notes as f64 / (max_busy_us as f64 / 1e6).max(1e-9),
    }
}

/// One stack's end-to-end delivery-core run.
#[derive(Debug, Clone)]
pub struct StackRow {
    pub stack: &'static str,
    pub subscribers: usize,
    pub events: usize,
    /// Notifications delivered (per subscriber per event).
    pub deliveries: u64,
    /// Wire envelopes used — WSN folds batches, WS-Eventing honestly
    /// cannot, so its envelope count equals its delivery count.
    pub envelopes: u64,
    /// Virtual time the delivery core charged.
    pub virtual_us: u64,
}

/// Run both stacks' delivery cores over the same event load, each under
/// its own honest configuration.
pub fn stack_fanout(sizes: &[usize], events: usize) -> Vec<StackRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        rows.push(stack_cell("wsn", n, events));
        rows.push(stack_cell("eventing", n, events));
    }
    rows
}

fn stack_cell(stack: &'static str, subscribers: usize, events: usize) -> StackRow {
    let clock = VirtualClock::new();
    let model = CostModel::calibrated_2005();
    let wsn = stack == "wsn";
    let table: ShardedTable<BenchSub> = ShardedTable::new(
        if wsn { 8 } else { 1 },
        clock.clone(),
        &model,
        Telemetry::disabled(),
        stack,
    );
    for i in 0..subscribers {
        let topic = if wsn {
            TopicShape::Flat.topic(i)
        } else {
            CompiledTopic::match_all()
        };
        table.insert(BenchSub::new(i), topic, None, false);
    }

    let deliveries = Arc::new(AtomicU64::new(0));
    let envelopes = Arc::new(AtomicU64::new(0));
    let (d, e) = (deliveries.clone(), envelopes.clone());
    let sink: Sink<BenchSub> = Arc::new(move |_sub, bodies: Vec<Arc<Element>>| {
        d.fetch_add(bodies.len() as u64, Ordering::Relaxed);
        // WSN: one <wsnt:Notify> envelope per drain. WS-Eventing: no batch
        // container in the spec, one wire message per event.
        e.fetch_add(if wsn { 1 } else { bodies.len() as u64 }, Ordering::Relaxed);
    });
    let net = Network::new(clock.clone(), Arc::new(model));
    let deliverer = Deliverer::new(net, "producer", &table, sink);
    deliverer.set_config(DelivererConfig {
        plan: DeliveryPlan::Coalesce { batch_max: 16 },
        outbox_capacity: 1 << 20,
    });

    let start_virtual = clock.now();
    // Events cycle a smaller root set than the subscriptions do, so each
    // subscriber sees repeated events and coalescing has something to fold.
    let event_roots = (events / 4).clamp(1, ROOTS / 8);
    for ev in 0..events {
        let root = format!("root{}", ev % event_roots);
        let path: &[&str] = if wsn {
            &[root.as_str(), "x"]
        } else {
            &["event"]
        };
        let shard = if wsn {
            table.shard_of(&root)
        } else {
            table.stats().shards() - 1
        };
        let event = Arc::new(Element::new("E"));
        for sub in table.resolve(path) {
            deliverer.enqueue(&sub, shard, event.clone());
        }
    }
    deliverer.flush();
    StackRow {
        stack,
        subscribers,
        events,
        deliveries: deliveries.load(Ordering::Relaxed),
        envelopes: envelopes.load(Ordering::Relaxed),
        virtual_us: clock.now().since(start_virtual).as_micros(),
    }
}

/// A chaotic batched WSN notification run under full tracing — the span
/// dump must be a pure function of the seed even with coalescing on.
pub fn batched_span_dump(seed: u64) -> String {
    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    let container = tb.container("host-a", SecurityPolicy::None);
    container.set_redelivery(Some(
        RetryPolicy::default_redelivery(seed).with_max_attempts(6),
    ));
    let (publisher, producer) = deploy_publisher(&container);
    let producer = producer.with_delivery(DelivererConfig {
        plan: DeliveryPlan::Coalesce { batch_max: 3 },
        outbox_capacity: 64,
    });
    let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
    let topic = ogsa_wsn::TopicExpression::simple("t");
    let (consumer, _) = subscribe(&client, &publisher, "/c", topic);

    // Arm the chaos only after the subscription round-trip: the faults are
    // aimed at the delivery plane, not at the control messages that set the
    // experiment up.
    tb.network().set_fault_plan(
        FaultPlan::seeded(seed)
            .with_drops(0.15)
            .with_delays(0.2, SimDuration::from_millis(5.0))
            .with_duplicates(0.1),
    );

    let topic = ogsa_wsn::TopicPath::parse("t/x").expect("static");
    for v in 1..=6 {
        producer.notify(&topic, Element::text_element("NewValue", v.to_string()));
    }
    producer.deliverer().flush();
    assert!(tb.network().quiesce(std::time::Duration::from_secs(10)));
    let _ = consumer.drain();
    ogsa_telemetry::export::spans_to_jsonl(&tb.telemetry().take_spans())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_agrees_with_naive_on_every_shape() {
        for row in trie_vs_naive(&[500]) {
            assert!(row.agree, "{row:?}");
            assert!(row.matches > 0, "probes must hit: {row:?}");
        }
    }

    #[test]
    fn trie_is_10x_naive_at_100k_subscribers() {
        for row in trie_vs_naive(&[100_000]) {
            assert!(row.speedup() >= 10.0, "{row:?}");
        }
    }

    #[test]
    fn shard_sweep_is_note_invariant_and_spreads_busy_time() {
        let rows = shard_sweep(2_000, &[1, 8, 16], 32);
        for r in &rows {
            assert_eq!(
                r.notes, rows[0].notes,
                "shards must not change WHAT is delivered"
            );
        }
        assert!(rows[0].notes > 0);
        assert!(
            rows[1].max_busy_us < rows[0].max_busy_us,
            "8 shards must spread the charged time: {rows:?}"
        );
        assert!(rows[1].rps > rows[0].rps);
        assert!(rows[2].rps >= 4.0 * rows[0].rps, "{rows:?}");
    }

    #[test]
    fn stacks_fold_envelopes_honestly() {
        let rows = stack_fanout(&[400], 32);
        let wsn = rows.iter().find(|r| r.stack == "wsn").unwrap();
        let ev = rows.iter().find(|r| r.stack == "eventing").unwrap();
        assert!(wsn.envelopes < wsn.deliveries, "WSN coalesces: {wsn:?}");
        assert_eq!(
            ev.envelopes, ev.deliveries,
            "WS-Eventing cannot batch: {ev:?}"
        );
        assert!(ev.deliveries > 0);
    }
}
