//! Where the milliseconds go: per-operation component breakdowns derived
//! from causal traces.
//!
//! The paper *explains* each bar of Figures 2–6 in prose — "creating a
//! resource is dominated by the Xindice insert", "under X.509 the signing
//! costs dwarf the stack differences", "WS-Eventing's Notify advantage is
//! purely the TCP vs HTTP delivery path". Here those explanations become
//! data: each measured operation is decomposed into per-kind *self time*
//! (db / security / wire / soap / dispatch / ...) folded out of the span
//! forest, alongside the wire-message count.
//!
//! Runs use the network's synchronous-delivery mode so one-way deliveries
//! happen inline on the measuring thread: every span lands on the shared
//! virtual clock in a serialized order and the whole run — spans included —
//! is deterministic.

use std::collections::BTreeMap;
use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_gridbox::{run_job, JobStep};
use ogsa_telemetry::analysis::self_time_breakdown;
use ogsa_telemetry::{SpanRecord, Telemetry};

use super::ablation::DemandLifecycle;
use super::grid::GridConfig;
use super::hello::HelloConfig;
use super::Stack;

/// Wall-clock safety net for notifications; in synchronous-delivery mode
/// receipt has already happened by the time we wait.
const WAIT: Duration = Duration::from_secs(5);
const USER: &str = "CN=alice,O=UVA-VO";

/// Counter iterations per operation in `BENCH_counter.json`, and the run
/// the paper's ordinal claims are tested on.
pub const COUNTER_ITERATIONS: usize = 8;
/// Published events in the demand lifecycle beside it.
pub const LIFECYCLE_EVENTS: usize = 4;

/// One operation's decomposed cost on one stack.
#[derive(Debug, Clone, PartialEq)]
pub struct OpBreakdown {
    pub operation: &'static str,
    pub stack: Stack,
    /// Mean virtual milliseconds per iteration (client-observed).
    pub total_ms: f64,
    /// Mean self time per span kind ("db", "security", "wire", "soap", ...).
    pub components_ms: BTreeMap<&'static str, f64>,
    /// Mean messages on the wire per iteration.
    pub messages: f64,
}

impl OpBreakdown {
    /// One component's mean self time (zero if absent).
    pub fn component_ms(&self, kind: &str) -> f64 {
        self.components_ms.get(kind).copied().unwrap_or(0.0)
    }

    /// The kind with the largest self time.
    pub fn dominant_component(&self) -> Option<&'static str> {
        self.components_ms
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(k, _)| *k)
    }
}

/// A breakdown run: the rows plus every span recorded inside the measured
/// windows, for Chrome-trace / JSONL export.
#[derive(Debug, Clone, Default)]
pub struct BreakdownRun {
    pub rows: Vec<OpBreakdown>,
    pub spans: Vec<SpanRecord>,
}

impl BreakdownRun {
    pub fn row(&self, op: &str, stack: Stack) -> Option<&OpBreakdown> {
        self.rows
            .iter()
            .find(|r| r.operation == op && r.stack == stack)
    }
}

/// Measure one window of `n` iterations: clear the span buffer, run `f`,
/// fold the recorded forest into per-kind means.
fn window(
    tb: &Testbed,
    tel: &Telemetry,
    operation: &'static str,
    stack: Stack,
    n: usize,
    f: impl FnOnce(),
) -> (OpBreakdown, Vec<SpanRecord>) {
    tel.clear_spans();
    let m0 = tb.network().stats().messages();
    let t0 = tb.clock().now();
    f();
    let total = tb.clock().now().since(t0);
    let messages = (tb.network().stats().messages() - m0) as f64 / n as f64;
    let spans = tel.take_spans();
    let fold = self_time_breakdown(&spans);
    let components_ms = fold
        .self_time
        .iter()
        .map(|(k, v)| (*k, v.as_millis() / n as f64))
        .collect();
    (
        OpBreakdown {
            operation,
            stack,
            total_ms: total.as_millis() / n as f64,
            components_ms,
            messages,
        },
        spans,
    )
}

/// Decompose the five counter operations on both stacks (distributed
/// deployment — the configuration where wire and security costs show).
pub fn counter_breakdown(config: HelloConfig) -> BreakdownRun {
    let mut run = BreakdownRun::default();
    for stack in Stack::all() {
        counter_one(config, stack, &mut run);
    }
    run
}

fn counter_one(config: HelloConfig, stack: Stack, out: &mut BreakdownRun) {
    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    let container = tb.container("host-a", config.policy);
    let agent = tb.client("host-b", USER, config.policy);
    let api = stack.deploy_counter(&container).client(agent);

    // Warm-up: connections, TLS sessions, one trip down each path.
    let warm = api.create().expect("warm create");
    api.get(&warm).expect("warm get");
    api.set(&warm, 1).expect("warm set");
    let warm_waiter = api.subscribe(&warm).expect("warm subscribe");
    api.set(&warm, 2).expect("warm notify set");
    warm_waiter.wait(WAIT).expect("warm notification");
    api.destroy(&warm).expect("warm destroy");

    let tel = tb.telemetry().clone();
    let n = config.iterations.max(1);
    let mut push = |(row, spans): (OpBreakdown, Vec<SpanRecord>)| {
        out.rows.push(row);
        out.spans.extend(spans);
    };

    let counter = api.create().expect("create");
    push(window(&tb, &tel, "Get", stack, n, || {
        for _ in 0..n {
            api.get(&counter).expect("get");
        }
    }));
    push(window(&tb, &tel, "Set", stack, n, || {
        for i in 0..n {
            api.set(&counter, i as i64).expect("set");
        }
    }));

    let waiter = api.subscribe(&counter).expect("subscribe");
    push(window(&tb, &tel, "Notify", stack, n, || {
        for i in 0..n {
            api.set(&counter, 1000 + i as i64).expect("notify set");
            waiter.wait(WAIT).expect("notification should arrive");
        }
    }));
    api.destroy(&counter).expect("cleanup");

    let mut made = Vec::new();
    push(window(&tb, &tel, "Create", stack, n, || {
        for _ in 0..n {
            made.push(api.create().expect("create"));
        }
    }));
    push(window(&tb, &tel, "Destroy", stack, n, || {
        for c in &made {
            api.destroy(c).expect("destroy");
        }
    }));
}

/// Decompose the six Grid-in-a-Box operations on both stacks.
pub fn grid_breakdown(config: GridConfig) -> BreakdownRun {
    let mut run = BreakdownRun::default();
    for stack in Stack::all() {
        grid_one(config, stack, &mut run);
    }
    run
}

fn grid_one(config: GridConfig, stack: Stack, out: &mut BreakdownRun) {
    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    let grid = stack.deploy_grid(&tb, config.policy, &[USER]);

    let tel = tb.telemetry().clone();
    let n = config.iterations.max(1);
    let mut totals = [0.0f64; 6];
    let mut msgs = [0.0f64; 6];
    let mut comps: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); 6];
    let mut automatic_unreserve = false;

    for iter in 0..n + 1 {
        let mut scenario = grid.scenario(tb.client("client-1", USER, config.policy));
        // Iteration 0 is warm-up (connection + TLS establishment).
        let warmup = iter == 0;
        tel.clear_spans();
        let mut m0 = tb.network().stats().messages();
        let mut t0 = tb.clock().now();
        run_job(&mut *scenario, &config.plan, |step| {
            let (m, t) = (tb.network().stats().messages(), tb.clock().now());
            let spans = tel.take_spans();
            // Driving the job to completion is not a measured operation.
            if let (false, JobStep::Operation(slot)) = (warmup, step) {
                totals[slot] += t.since(t0).as_millis();
                msgs[slot] += (m - m0) as f64;
                for (k, v) in self_time_breakdown(&spans).self_time {
                    *comps[slot].entry(k).or_insert(0.0) += v.as_millis();
                }
                out.spans.extend(spans);
            }
            (m0, t0) = (m, t);
        })
        .expect("Figure 6 flow");
        automatic_unreserve = scenario.unreserve_is_automatic();
    }

    if automatic_unreserve {
        totals[5] = 0.0;
        msgs[5] = 0.0;
        comps[5].clear();
    }

    for (i, operation) in super::grid::OPERATIONS.iter().enumerate() {
        out.rows.push(OpBreakdown {
            operation,
            stack,
            total_ms: totals[i] / n as f64,
            components_ms: comps[i].iter().map(|(k, v)| (*k, v / n as f64)).collect(),
            messages: msgs[i] / n as f64,
        });
    }
}

/// The paper's ordinal claims, machine-checked over the breakdowns. An
/// empty return means the reproduction still has the paper's shape;
/// otherwise each string names the claim that regressed.
pub fn check_paper_invariants(
    plain: &BreakdownRun,
    signed: &BreakdownRun,
    lifecycle: &DemandLifecycle,
) -> Vec<String> {
    let mut violations = Vec::new();

    // "Creating resources is always slower than reading or updating them",
    // and creation cost is the Xindice insert.
    for stack in Stack::all() {
        match (
            plain.row("Get", stack),
            plain.row("Set", stack),
            plain.row("Create", stack),
        ) {
            (Some(get), Some(set), Some(create)) => {
                if create.total_ms <= get.total_ms || create.total_ms <= set.total_ms {
                    violations.push(format!(
                        "{stack:?}: Create ({:.2} ms) should dominate Get ({:.2} ms) and Set ({:.2} ms)",
                        create.total_ms, get.total_ms, set.total_ms
                    ));
                }
                if create.dominant_component() != Some("db") {
                    violations.push(format!(
                        "{stack:?}: Create should be db-dominated (the Xindice insert), got {:?}: {:?}",
                        create.dominant_component(),
                        create.components_ms
                    ));
                }
            }
            _ => violations.push(format!("{stack:?}: missing counter breakdown rows")),
        }
    }

    // WS-Eventing's TCP push beats WS-Notification's HTTP delivery.
    match (
        plain.row("Notify", Stack::Wsrf),
        plain.row("Notify", Stack::Transfer),
    ) {
        (Some(wsn), Some(wse)) => {
            if wse.total_ms >= wsn.total_ms {
                violations.push(format!(
                    "WS-Eventing Notify ({:.2} ms, TCP) should beat WS-Notification ({:.2} ms, HTTP)",
                    wse.total_ms, wsn.total_ms
                ));
            }
        }
        _ => violations.push("missing Notify breakdown rows".to_owned()),
    }

    // Under X.509 the signature costs dominate every operation, on both
    // stacks — the figure-4 "differences fade" story.
    for stack in Stack::all() {
        for op in super::hello::OPERATIONS {
            match signed.row(op, stack) {
                Some(row) => {
                    if row.dominant_component() != Some("security") {
                        violations.push(format!(
                            "{stack:?}/{op} under X.509 should be security-dominated, got {:?}: {:?}",
                            row.dominant_component(),
                            row.components_ms
                        ));
                    }
                }
                None => violations.push(format!("{stack:?}/{op}: missing signed breakdown row")),
            }
        }
    }

    // Demand-based brokered publishing costs ~10x the messages of direct
    // delivery per event (§3.1: "an order of magnitude at a minimum").
    if lifecycle.factor() < 8.0 {
        violations.push(format!(
            "demand-lifecycle amplification {:.1}x (brokered {} vs direct {} messages) fell below ~10x",
            lifecycle.factor(),
            lifecycle.brokered_messages,
            lifecycle.direct_messages
        ));
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::ablation;
    use ogsa_security::SecurityPolicy;

    fn quick(policy: SecurityPolicy) -> BreakdownRun {
        counter_breakdown(HelloConfig {
            policy,
            iterations: 3,
        })
    }

    /// At the artifact's own parameters, so what `BENCH_counter.json`
    /// publishes is what was checked.
    #[test]
    fn paper_invariants_hold() {
        let run = |policy| {
            counter_breakdown(HelloConfig {
                policy,
                iterations: COUNTER_ITERATIONS,
            })
        };
        let plain = run(SecurityPolicy::None);
        let signed = run(SecurityPolicy::X509Sign);
        let lifecycle = ablation::demand_lifecycle(LIFECYCLE_EVENTS);
        let violations = check_paper_invariants(&plain, &signed, &lifecycle);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn components_roughly_account_for_the_total() {
        let run = quick(SecurityPolicy::None);
        for row in &run.rows {
            let sum: f64 = row.components_ms.values().sum();
            assert!(
                sum <= row.total_ms * 1.01 + 0.01,
                "{}/{:?}: components {sum} exceed total {}",
                row.operation,
                row.stack,
                row.total_ms
            );
            assert!(
                sum >= row.total_ms * 0.5,
                "{}/{:?}: components {sum} explain too little of total {}",
                row.operation,
                row.stack,
                row.total_ms
            );
        }
    }

    #[test]
    fn every_operation_sends_messages_and_records_spans() {
        let run = quick(SecurityPolicy::None);
        assert_eq!(run.rows.len(), 10);
        assert!(!run.spans.is_empty());
        for row in &run.rows {
            assert!(row.messages >= 1.0, "{}/{:?}", row.operation, row.stack);
            assert!(row.total_ms > 0.0, "{}/{:?}", row.operation, row.stack);
        }
    }

    #[test]
    fn grid_breakdown_covers_all_operations() {
        let run = grid_breakdown(GridConfig {
            iterations: 1,
            ..GridConfig::default()
        });
        assert_eq!(run.rows.len(), 12);
        // Security self time shows on every non-free operation (the VO
        // runs under X.509 by default).
        for row in &run.rows {
            if row.total_ms > 0.0 {
                assert!(
                    row.component_ms("security") > 0.0,
                    "{}/{:?}: {:?}",
                    row.operation,
                    row.stack,
                    row.components_ms
                );
            }
        }
    }
}
