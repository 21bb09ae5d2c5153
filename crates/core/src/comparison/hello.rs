//! The "hello world" counter evaluation (§4.1.3): the data behind
//! Figures 2 (no security), 3 (HTTPS) and 4 (X.509 signing).
//!
//! "We ran each of the five tests in six scenarios" — three security
//! policies × {co-located, distributed}. One [`run`] call produces one
//! figure's worth of rows (five operations × two stacks × two deployments).

use ogsa_security::SecurityPolicy;
use ogsa_transport::Deployment;

use super::cell::{self, Scenario};
use super::Stack;

/// The five measured operations, in the paper's order.
pub const OPERATIONS: [&str; 5] = ["Get", "Set", "Create", "Destroy", "Notify"];

/// One bar of Figures 2-4.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloRow {
    pub operation: &'static str,
    pub stack: Stack,
    pub deployment: Deployment,
    /// Mean virtual milliseconds per request.
    pub ms: f64,
}

/// Configuration for one figure run.
#[derive(Debug, Clone, Copy)]
pub struct HelloConfig {
    pub policy: SecurityPolicy,
    /// Measured iterations per operation.
    pub iterations: usize,
}

impl Default for HelloConfig {
    fn default() -> Self {
        HelloConfig {
            policy: SecurityPolicy::None,
            iterations: 12,
        }
    }
}

/// Run one figure's scenario sweep: a counter cell per stack and
/// deployment, each operation's mean time a bar.
pub fn run(config: HelloConfig) -> Vec<HelloRow> {
    let mut rows = Vec::new();
    for deployment in Deployment::all() {
        let scenario = Scenario::Counter(deployment);
        for run in cell::per_stack(config.policy, config.iterations, scenario) {
            rows.extend(run.ops.iter().map(|op| HelloRow {
                operation: op.operation,
                stack: run.cell.stack,
                deployment,
                ms: run.mean_ms(op.time),
            }));
        }
    }
    rows
}

/// Fetch one cell out of a row set.
pub fn cell(rows: &[HelloRow], op: &str, stack: Stack, deployment: Deployment) -> Option<f64> {
    rows.iter()
        .find(|r| r.operation == op && r.stack == stack && r.deployment == deployment)
        .map(|r| r.ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: SecurityPolicy) -> Vec<HelloRow> {
        run(HelloConfig {
            policy,
            iterations: 3,
        })
    }

    #[test]
    fn produces_the_full_matrix() {
        let rows = quick(SecurityPolicy::None);
        assert_eq!(rows.len(), 5 * 2 * 2);
        for op in OPERATIONS {
            for stack in Stack::all() {
                for dep in Deployment::all() {
                    assert!(
                        cell(&rows, op, stack, dep).is_some(),
                        "{op}/{stack:?}/{dep:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure2_shape_holds() {
        let rows = quick(SecurityPolicy::None);
        for stack in Stack::all() {
            for dep in Deployment::all() {
                let create = cell(&rows, "Create", stack, dep).unwrap();
                let get = cell(&rows, "Get", stack, dep).unwrap();
                let set = cell(&rows, "Set", stack, dep).unwrap();
                // "Creating resources ... is always slower than reading or
                // updating them."
                assert!(
                    create > get,
                    "{stack:?}/{dep:?}: create {create} vs get {get}"
                );
                assert!(create > set, "{stack:?}/{dep:?}");
                // Everything fits the paper's 0-50 ms scale.
                for op in OPERATIONS {
                    let ms = cell(&rows, op, stack, dep).unwrap();
                    assert!(ms < 50.0, "{op}/{stack:?}/{dep:?} = {ms} ms");
                    assert!(ms > 0.5, "{op}/{stack:?}/{dep:?} = {ms} ms");
                }
            }
        }
        // WSRF's cached Set beats WS-Transfer's read-then-update Put.
        for dep in Deployment::all() {
            let wsrf_set = cell(&rows, "Set", Stack::Wsrf, dep).unwrap();
            let wxf_set = cell(&rows, "Set", Stack::Transfer, dep).unwrap();
            assert!(wsrf_set < wxf_set, "{dep:?}: {wsrf_set} vs {wxf_set}");
        }
        // WS-Eventing's TCP notify beats WSN's HTTP notify.
        for dep in Deployment::all() {
            let wsn = cell(&rows, "Notify", Stack::Wsrf, dep).unwrap();
            let wse = cell(&rows, "Notify", Stack::Transfer, dep).unwrap();
            assert!(wse < wsn, "{dep:?}: {wse} vs {wsn}");
        }
        // Distributed costs more than co-located.
        for op in OPERATIONS {
            for stack in Stack::all() {
                let co = cell(&rows, op, stack, Deployment::Colocated).unwrap();
                let dist = cell(&rows, op, stack, Deployment::Distributed).unwrap();
                assert!(dist > co, "{op}/{stack:?}: {dist} vs {co}");
            }
        }
    }

    #[test]
    fn figure4_x509_dominates_and_differences_fade() {
        let plain = quick(SecurityPolicy::None);
        let signed = quick(SecurityPolicy::X509Sign);
        for op in OPERATIONS {
            for stack in Stack::all() {
                let p = cell(&plain, op, stack, Deployment::Distributed).unwrap();
                let s = cell(&signed, op, stack, Deployment::Distributed).unwrap();
                // Signing inflates everything substantially...
                assert!(s > p + 50.0, "{op}/{stack:?}: {s} vs {p}");
                // ...onto the paper's 80-160 ms scale.
                assert!(s < 170.0, "{op}/{stack:?} = {s}");
            }
        }
        // Relative stack differences shrink (percentage-wise) under X.509.
        let rel = |rows: &[HelloRow], op: &str| {
            let a = cell(rows, op, Stack::Wsrf, Deployment::Distributed).unwrap();
            let b = cell(rows, op, Stack::Transfer, Deployment::Distributed).unwrap();
            (a - b).abs() / a.max(b)
        };
        assert!(rel(&signed, "Set") < rel(&plain, "Set"));
    }

    #[test]
    fn figure3_https_is_cheap_thanks_to_session_cache() {
        let plain = quick(SecurityPolicy::None);
        let https = quick(SecurityPolicy::Https);
        let signed = quick(SecurityPolicy::X509Sign);
        for op in ["Get", "Set"] {
            let p = cell(&plain, op, Stack::Wsrf, Deployment::Distributed).unwrap();
            let h = cell(&https, op, Stack::Wsrf, Deployment::Distributed).unwrap();
            let s = cell(&signed, op, Stack::Wsrf, Deployment::Distributed).unwrap();
            // HTTPS adds a modest overhead over plain...
            assert!(h > p, "{op}");
            assert!(h < p + 10.0, "{op}: https {h} vs plain {p}");
            // ...and is far below X.509 ("HTTPS performance is much faster").
            assert!(h * 2.0 < s, "{op}: https {h} vs signed {s}");
        }
    }
}
