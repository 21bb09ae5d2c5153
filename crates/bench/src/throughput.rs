//! `ogsa-bench throughput`: the multi-client closed-loop sweep over client
//! count × storage shard count, per stack, written to
//! `BENCH_throughput.json`. Its scaling invariant on this same sweep is
//! asserted by `throughput::tests::sweep_produces_every_cell_and_scaling_holds`.

use ogsa_core::throughput::{self, ThroughputConfig};

pub fn run() -> Vec<(&'static str, String)> {
    let config = ThroughputConfig::default();
    let rows = throughput::run(&config);

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

    vec![(
        "BENCH_throughput.json",
        format!(
            "{{\"benchmark\":\"throughput\",\"iterations\":{},\"model\":\"makespan\",\"rows\":{}}}\n",
            config.iterations,
            throughput::rows_json(&rows),
        ),
    )]
}
