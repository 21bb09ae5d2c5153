//! `ogsa-bench throughput`: the multi-client closed-loop sweep over client
//! count × storage shard count, per stack, written to
//! `BENCH_throughput.json`.
//!
//! Gate: the scaling invariant — for the counter workload at ≥ 8 clients,
//! requests per virtual second must be non-decreasing in the shard count
//! and strictly better at the largest shard count than at the smallest,
//! for both stacks.

use ogsa_core::throughput::{self, ThroughputConfig};

use crate::{Gates, Outcome};

pub fn run() -> Outcome {
    let config = ThroughputConfig::default();
    let rows = throughput::run(&config);
    let violations = throughput::check_scaling_invariants(&rows);

    println!(
        "{:<8} {:<26} {:>7} {:>6} {:>8} {:>12} {:>12} {:>10}",
        "workload", "stack", "clients", "shards", "requests", "demand ms", "busy ms", "rps"
    );
    for r in &rows {
        println!(
            "{:<8} {:<26} {:>7} {:>6} {:>8} {:>12.1} {:>12.1} {:>10.1}",
            r.workload,
            r.stack.label(),
            r.clients,
            r.shards,
            r.requests,
            r.max_client_demand_ms,
            r.max_shard_busy_ms,
            r.rps
        );
    }

    Outcome {
        artifact: (
            "BENCH_throughput.json",
            format!(
                "{{\"benchmark\":\"throughput\",\"iterations\":{},\"model\":\"makespan\",\"rows\":{}",
                config.iterations,
                throughput::rows_json(&rows),
            ),
        ),
        extra: Vec::new(),
        gates: Gates::Violations(violations),
    }
}
