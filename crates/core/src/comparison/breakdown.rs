//! Where the milliseconds go: per-operation component breakdowns derived
//! from causal traces.
//!
//! The paper *explains* each bar of Figures 2–6 in prose — "creating a
//! resource is dominated by the Xindice insert", "under X.509 the signing
//! costs dwarf the stack differences", "WS-Eventing's Notify advantage is
//! purely the TCP vs HTTP delivery path". Here those explanations become
//! data: each measured operation is decomposed into per-kind *self time*
//! (db / security / wire / soap / dispatch / ...) folded out of the span
//! forest, alongside the wire-message count. The rows and the spans are
//! reads of the same [`cell`](super::cell) runs the figures read.

use std::collections::BTreeMap;

use ogsa_telemetry::SpanRecord;
use ogsa_transport::Deployment;

use super::ablation::DemandLifecycle;
use super::cell::{self, CellRun, Scenario};
use super::grid::GridConfig;
use super::hello::HelloConfig;
use super::Stack;

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

/// Decompose the five counter operations on both stacks (distributed
/// deployment — the configuration where wire and security costs show).
pub fn counter_breakdown(config: HelloConfig) -> BreakdownRun {
    let scenario = Scenario::Counter(Deployment::Distributed);
    read(cell::per_stack(config.policy, config.iterations, scenario))
}

/// Decompose the six Grid-in-a-Box operations on both stacks.
pub fn grid_breakdown(config: GridConfig) -> BreakdownRun {
    let scenario = Scenario::Job(config.plan);
    read(cell::per_stack(config.policy, config.iterations, scenario))
}

/// Every operation of each run as its per-iteration means.
fn read(runs: Vec<CellRun>) -> BreakdownRun {
    let mut out = BreakdownRun::default();
    for run in runs {
        let n = run.cell.iterations.max(1) as f64;
        for op in &run.ops {
            let components_ms = op.self_time.iter();
            out.rows.push(OpBreakdown {
                operation: op.operation,
                stack: run.cell.stack,
                total_ms: run.mean_ms(op.time),
                components_ms: components_ms.map(|(k, t)| (*k, run.mean_ms(*t))).collect(),
                messages: op.messages as f64 / n,
            });
        }
        out.spans.extend(run.spans);
    }
    out
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
