//! The "hello world" counter evaluation (§4.1.3): the data behind
//! Figures 2 (no security), 3 (HTTPS) and 4 (X.509 signing).
//!
//! "We ran each of the five tests in six scenarios" — three security
//! policies × {co-located, distributed}. One [`run`] call produces one
//! figure's worth of rows (five operations × two stacks × two deployments).

use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_security::SecurityPolicy;
use ogsa_transport::Deployment;

use super::Stack;

/// The five measured operations, in the paper's order.
pub const OPERATIONS: [&str; 5] = ["Get", "Set", "Create", "Destroy", "Notify"];

/// How long to wait (in real time) for an asynchronous notification.
const NOTIFY_WAIT: Duration = Duration::from_secs(5);

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

/// Run one figure's scenario sweep.
pub fn run(config: HelloConfig) -> Vec<HelloRow> {
    let mut rows = Vec::new();
    for deployment in Deployment::all() {
        for stack in Stack::all() {
            rows.extend(run_one(config, stack, deployment));
        }
    }
    rows
}

fn client_host(deployment: Deployment) -> &'static str {
    match deployment {
        Deployment::Colocated => "host-a",
        Deployment::Distributed => "host-b",
    }
}

fn run_one(config: HelloConfig, stack: Stack, deployment: Deployment) -> Vec<HelloRow> {
    // A fresh testbed per cell keeps runs independent and deterministic.
    let tb = Testbed::calibrated();
    let container = tb.container("host-a", config.policy);
    let agent = tb.client(client_host(deployment), "CN=alice,O=UVA-VO", config.policy);
    let api = stack.deploy_counter(&container).client(agent);

    // Warm-up: establish connections / TLS sessions, exercise each path
    // once (the paper measures steady state; socket caching is the whole
    // HTTPS story).
    let warm = api.create().expect("warm create");
    api.get(&warm).expect("warm get");
    api.set(&warm, 1).expect("warm set");
    let warm_waiter = api.subscribe(&warm).expect("warm subscribe");
    api.set(&warm, 2).expect("warm notify set");
    warm_waiter.wait(NOTIFY_WAIT).expect("warm notification");
    api.destroy(&warm).expect("warm destroy");

    let clock = tb.clock();
    let n = config.iterations.max(1);
    let mut get_ms = 0.0;
    let mut set_ms = 0.0;
    let mut create_ms = 0.0;
    let mut destroy_ms = 0.0;
    let mut notify_ms = 0.0;

    // Get / Set against one long-lived counter.
    let counter = api.create().expect("create");
    for i in 0..n {
        let t = clock.now();
        api.get(&counter).expect("get");
        get_ms += clock.now().since(t).as_millis();

        let t = clock.now();
        api.set(&counter, i as i64).expect("set");
        set_ms += clock.now().since(t).as_millis();
    }

    // Notify: subscribe once, then measure set → receipt.
    let waiter = api.subscribe(&counter).expect("subscribe");
    for i in 0..n {
        let t = clock.now();
        api.set(&counter, 1000 + i as i64).expect("notify set");
        waiter
            .wait(NOTIFY_WAIT)
            .expect("notification should arrive");
        notify_ms += clock.now().since(t).as_millis();
    }
    api.destroy(&counter).expect("cleanup");

    // Create / Destroy in pairs.
    for _ in 0..n {
        let t = clock.now();
        let c = api.create().expect("create");
        create_ms += clock.now().since(t).as_millis();

        let t = clock.now();
        api.destroy(&c).expect("destroy");
        destroy_ms += clock.now().since(t).as_millis();
    }

    let n = n as f64;
    [
        ("Get", get_ms / n),
        ("Set", set_ms / n),
        ("Create", create_ms / n),
        ("Destroy", destroy_ms / n),
        ("Notify", notify_ms / n),
    ]
    .into_iter()
    .map(|(operation, ms)| HelloRow {
        operation,
        stack,
        deployment,
        ms,
    })
    .collect()
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
