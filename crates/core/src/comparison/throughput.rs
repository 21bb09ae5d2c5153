//! Multi-client throughput: requests per virtual second vs. client count
//! and storage shard count, per stack.
//!
//! The paper measures single-client latency; this harness asks the capacity
//! question the Xindice deployments raised in practice: how many concurrent
//! clients can a container sustain before the XML database serialises them?
//!
//! # The makespan model
//!
//! The driver is closed-loop and single-threaded against the shared virtual
//! clock, so elapsed virtual time *sums* every client's work and cannot show
//! parallel speed-up directly. Instead each cell records two quantities the
//! sequential run measures exactly:
//!
//! * `D_c` — client `c`'s own demand: the virtual time its operations took,
//!   attributed per client by clocking each operation in the round-robin.
//! * `B_s` — shard `s`'s busy time: the virtual microseconds of database
//!   work charged against that shard ([`DbStats::shard_busy_snapshot`]).
//!
//! Under an idealised parallel schedule (every client on its own thread,
//! shard locks the only shared resource) the run cannot finish faster than
//! the busiest client or the busiest shard:
//!
//! ```text
//! makespan = max( max_c D_c , max_s B_s )
//! throughput = total_requests / makespan
//! ```
//!
//! Because shard routing is a stable hash and power-of-two shard counts
//! nest (the modulus splits each shard's key set in two), `max_s B_s` is
//! non-increasing in the shard count for the same workload, while `D_c`
//! does not depend on sharding at all — so throughput is monotonically
//! non-decreasing in the shard count, and strictly better once the store
//! stops being the bottleneck. That is the invariant
//! [`check_scaling_invariants`] states and the tests assert.

use ogsa_container::Testbed;
use ogsa_counter::CounterApi;
use ogsa_gridbox::{run_job, JobPlan};
use ogsa_security::SecurityPolicy;
use ogsa_sim::SimDuration;
use ogsa_xmldb::DbStats;

use super::{Stack, SITE_HOSTS};

/// One cell of the throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// `"counter"` or `"gridbox"`.
    pub workload: &'static str,
    pub stack: Stack,
    pub clients: usize,
    pub shards: usize,
    /// Completed requests across all clients.
    pub requests: u64,
    /// The slowest single client's demand, virtual ms (`max_c D_c`).
    pub max_client_demand_ms: f64,
    /// The busiest storage shard, virtual ms (`max_s B_s`).
    pub max_shard_busy_ms: f64,
    /// `max(max_client_demand_ms, max_shard_busy_ms)`.
    pub makespan_ms: f64,
    /// Requests per virtual second under the makespan model.
    pub rps: f64,
}

impl ThroughputRow {
    fn new(
        workload: &'static str,
        stack: Stack,
        clients: usize,
        shards: usize,
        requests: u64,
        demand_us: &[u64],
        busy_us: &[u64],
    ) -> ThroughputRow {
        let d_max = demand_us.iter().copied().max().unwrap_or(0);
        let b_max = busy_us.iter().copied().max().unwrap_or(0);
        let makespan_us = d_max.max(b_max).max(1);
        ThroughputRow {
            workload,
            stack,
            clients,
            shards,
            requests,
            max_client_demand_ms: d_max as f64 / 1_000.0,
            max_shard_busy_ms: b_max as f64 / 1_000.0,
            makespan_ms: makespan_us as f64 / 1_000.0,
            rps: requests as f64 * 1_000_000.0 / makespan_us as f64,
        }
    }
}

/// Configuration for the full sweep.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    pub policy: SecurityPolicy,
    /// Client counts for the counter workload.
    pub clients: Vec<usize>,
    /// Shard counts for the counter workload (powers of two nest, see the
    /// module docs).
    pub shards: Vec<usize>,
    /// Measured closed-loop iterations per counter client.
    pub iterations: usize,
    /// Client counts for the (heavier) Grid-in-a-Box workload.
    pub grid_clients: Vec<usize>,
    /// Shard counts for the Grid-in-a-Box workload.
    pub grid_shards: Vec<usize>,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            policy: SecurityPolicy::None,
            clients: vec![1, 2, 4, 8, 16],
            shards: vec![1, 2, 4, 8],
            iterations: 6,
            grid_clients: vec![1, 8],
            grid_shards: vec![1, 8],
        }
    }
}

/// Run the full sweep: counter cells for every (stack × clients × shards),
/// then the reduced Grid-in-a-Box grid.
pub fn run(config: &ThroughputConfig) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for stack in Stack::all() {
        for &clients in &config.clients {
            for &shards in &config.shards {
                rows.push(counter_cell(config, stack, clients, shards));
            }
        }
    }
    for stack in Stack::all() {
        for &clients in &config.grid_clients {
            for &shards in &config.grid_shards {
                rows.push(gridbox_cell(stack, clients, shards));
            }
        }
    }
    rows
}

/// Requests one counter-client iteration issues:
/// create + 2 × (get + set) + destroy.
const COUNTER_OPS_PER_ITERATION: u64 = 6;

fn counter_cell(
    config: &ThroughputConfig,
    stack: Stack,
    clients: usize,
    shards: usize,
) -> ThroughputRow {
    let tb = Testbed::calibrated().with_shards(shards);
    let container = tb.container("host-a", config.policy);
    let deployed = stack.deploy_counter(&container);
    let apis: Vec<Box<dyn CounterApi>> = (0..clients)
        .map(|i| {
            deployed.client(tb.client(
                &format!("client-{i}"),
                &format!("CN=client-{i},O=UVA-VO"),
                config.policy,
            ))
        })
        .collect();

    // Warm-up (connection + TLS establishment), outside the measurement.
    for api in &apis {
        let c = api.create().expect("warm create");
        api.get(&c).expect("warm get");
        api.set(&c, 0).expect("warm set");
        api.destroy(&c).expect("warm destroy");
    }

    let clock = tb.clock().clone();
    let stats = tb.db("host-a").stats().clone();
    let busy_before = stats.shard_busy_snapshot(shards);

    // The closed loop: round-robin, one full iteration per client per round,
    // each client driving only its own resources.
    let iterations = config.iterations.max(1);
    let mut demand_us = vec![0u64; clients];
    for round in 0..iterations {
        for (c, api) in apis.iter().enumerate() {
            let t = clock.now();
            let counter = api.create().expect("create");
            for rep in 0..2 {
                api.get(&counter).expect("get");
                api.set(&counter, (round * 2 + rep) as i64).expect("set");
            }
            api.destroy(&counter).expect("destroy");
            demand_us[c] += clock.now().since(t).as_micros();
        }
    }

    let busy_us: Vec<u64> = stats
        .shard_busy_snapshot(shards)
        .iter()
        .zip(&busy_before)
        .map(|(after, before)| after - before)
        .collect();
    let requests = (clients * iterations) as u64 * COUNTER_OPS_PER_ITERATION;
    ThroughputRow::new(
        "counter", stack, clients, shards, requests, &demand_us, &busy_us,
    )
}

/// Requests one Grid-in-a-Box submission flow issues (the six Figure 6
/// operations; driving the job to completion is not a request).
const GRID_OPS_PER_FLOW: u64 = 6;

fn gridbox_cell(stack: Stack, clients: usize, shards: usize) -> ThroughputRow {
    let tb = Testbed::calibrated().with_shards(shards);
    // Figure 6's configuration: X.509-signed messages on every hop.
    let policy = SecurityPolicy::X509Sign;
    let users: Vec<String> = (0..clients)
        .map(|i| format!("CN=client-{i},O=UVA-VO"))
        .collect();
    let user_refs: Vec<&str> = users.iter().map(String::as_str).collect();

    let grid = stack.deploy_grid(&tb, policy, &user_refs);

    let clock = tb.clock().clone();
    let site_stats: Vec<DbStats> = SITE_HOSTS
        .iter()
        .map(|h| tb.db(h).stats().clone())
        .collect();
    let busy_before: Vec<Vec<u64>> = site_stats
        .iter()
        .map(|s| s.shard_busy_snapshot(shards))
        .collect();

    // Whole submission flows stay sequential (a reservation is exclusive
    // while its job runs), so the round-robin is at flow granularity: each
    // client runs one complete flow per round.
    let plan = JobPlan {
        file_bytes: 24 * 1024,
        runtime: SimDuration::from_millis(200.0),
    };
    let mut demand_us = vec![0u64; clients];
    for (c, user) in users.iter().enumerate() {
        let mut scenario = grid.scenario(tb.client(&format!("client-{c}"), user, policy));
        let t = clock.now();
        run_job(&mut *scenario, &plan, |_| {}).expect("submission flow");
        demand_us[c] += clock.now().since(t).as_micros();
    }

    let mut busy_us = Vec::new();
    for (stats, before) in site_stats.iter().zip(&busy_before) {
        busy_us.extend(
            stats
                .shard_busy_snapshot(shards)
                .iter()
                .zip(before)
                .map(|(after, b)| after - b),
        );
    }
    let requests = clients as u64 * GRID_OPS_PER_FLOW;
    ThroughputRow::new(
        "gridbox", stack, clients, shards, requests, &demand_us, &busy_us,
    )
}

/// Fetch one cell.
pub fn cell<'a>(
    rows: &'a [ThroughputRow],
    workload: &str,
    stack: Stack,
    clients: usize,
    shards: usize,
) -> Option<&'a ThroughputRow> {
    rows.iter().find(|r| {
        r.workload == workload && r.stack == stack && r.clients == clients && r.shards == shards
    })
}

/// The scaling invariant: for the counter workload, at every client count
/// ≥ 8, throughput must be non-decreasing in the shard count and strictly
/// better at the largest shard count than at the smallest, for both stacks.
/// Returns human-readable violations.
pub fn check_scaling_invariants(rows: &[ThroughputRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut client_counts: Vec<usize> = rows
        .iter()
        .filter(|r| r.workload == "counter" && r.clients >= 8)
        .map(|r| r.clients)
        .collect();
    client_counts.sort_unstable();
    client_counts.dedup();
    for stack in Stack::all() {
        for &clients in &client_counts {
            let mut cells: Vec<&ThroughputRow> = rows
                .iter()
                .filter(|r| r.workload == "counter" && r.stack == stack && r.clients == clients)
                .collect();
            cells.sort_by_key(|r| r.shards);
            for pair in cells.windows(2) {
                if pair[1].rps < pair[0].rps {
                    violations.push(format!(
                        "{} counter @{clients} clients: rps fell from {:.1} ({} shards) to {:.1} ({} shards)",
                        stack.label(),
                        pair[0].rps,
                        pair[0].shards,
                        pair[1].rps,
                        pair[1].shards,
                    ));
                }
            }
            if let (Some(first), Some(last)) = (cells.first(), cells.last()) {
                if last.shards > first.shards && last.rps <= first.rps {
                    violations.push(format!(
                        "{} counter @{clients} clients: {} shards ({:.1} rps) not strictly better than {} shards ({:.1} rps)",
                        stack.label(),
                        last.shards,
                        last.rps,
                        first.shards,
                        first.rps,
                    ));
                }
            }
        }
    }
    violations
}

/// Rows as a deterministic JSON array (fixed field order, fixed precision).
pub fn rows_json(rows: &[ThroughputRow]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"stack\":\"{}\",\"clients\":{},\"shards\":{},\"requests\":{},\"max_client_demand_ms\":{:.3},\"max_shard_busy_ms\":{:.3},\"makespan_ms\":{:.3},\"rps\":{:.3}}}",
                r.workload,
                r.stack.key(),
                r.clients,
                r.shards,
                r.requests,
                r.max_client_demand_ms,
                r.max_shard_busy_ms,
                r.makespan_ms,
                r.rps,
            )
        })
        .collect();
    format!("[{}]", cells.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Vec<ThroughputRow> {
        run(&ThroughputConfig {
            clients: vec![1, 8],
            shards: vec![1, 2, 8],
            iterations: 3,
            grid_clients: vec![2],
            grid_shards: vec![1],
            ..ThroughputConfig::default()
        })
    }

    #[test]
    fn sweep_produces_every_cell_and_scaling_holds() {
        let rows = quick();
        // 2 stacks × 2 client counts × 3 shard counts + 2 × 1 × 1 grid cells.
        assert_eq!(rows.len(), 2 * 2 * 3 + 2);
        for r in &rows {
            assert!(r.requests > 0);
            assert!(r.rps > 0.0, "{r:?}");
            assert!(r.makespan_ms >= r.max_client_demand_ms);
            assert!(r.makespan_ms >= r.max_shard_busy_ms);
        }
        assert_eq!(check_scaling_invariants(&rows), Vec::<String>::new());
        for stack in Stack::all() {
            // At one shard the store is the bottleneck, not the client.
            let s1 = cell(&rows, "counter", stack, 8, 1).unwrap();
            assert!(s1.max_shard_busy_ms > s1.max_client_demand_ms, "{stack:?}");
        }
        // And on the default sweep `BENCH_throughput.json` publishes.
        let rows = run(&ThroughputConfig::default());
        assert_eq!(check_scaling_invariants(&rows), Vec::<String>::new());
    }

    #[test]
    fn single_client_throughput_ignores_sharding() {
        // The paper's single-client figures must be shard-invariant: one
        // client cannot contend with itself, so its demand bounds the
        // makespan identically at every shard count.
        let rows = quick();
        for stack in Stack::all() {
            let r1 = cell(&rows, "counter", stack, 1, 1).unwrap();
            let r8 = cell(&rows, "counter", stack, 1, 8).unwrap();
            assert!(
                (r1.rps - r8.rps).abs() < 1e-6,
                "{stack:?}: {} vs {}",
                r1.rps,
                r8.rps
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let config = ThroughputConfig {
            clients: vec![4],
            shards: vec![2],
            iterations: 2,
            grid_clients: vec![1],
            grid_shards: vec![2],
            ..ThroughputConfig::default()
        };
        assert_eq!(rows_json(&run(&config)), rows_json(&run(&config)));
    }
}
