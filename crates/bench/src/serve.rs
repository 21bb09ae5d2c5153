//! `ogsa-bench serve`: the socket-level load harness for the serving tier,
//! written out as `BENCH_serve.json`.
//!
//! Binds the real keep-alive TCP listener (`ogsa_serve::Server`) over a
//! span-quiet testbed, deploys the signed WS-Transfer counter, and drives
//! it with the [`loadgen`] in three shapes:
//!
//! 1. **Sustain** — `SUSTAIN_CONNECTIONS` concurrent keep-alive
//!    connections, closed loop.
//! 2. **Closed 32** — the comparison point: sustained rps beside the
//!    in-process multi-client harness at the same client count, and p99.
//! 3. **Open loop** — arrivals at a fixed fraction of the measured closed
//!    capacity, so the tail figures include queueing delay rather than
//!    just service time.
//!
//! Every request on the wire is a replay of one pre-signed envelope; the
//! server still verifies and re-signs per request, so the per-op crypto
//! cost matches the in-process harness's server side. Virtual-time
//! figures are untouched: the serving tier charges no simulated cost.
//! Wall-clock speed has one judge, `benchmark/`; that every connection
//! establishes and no request errors or panics is asserted by
//! `tests/serving_tier.rs`.

use std::time::{Duration, Instant};

use ogsa_core::security::SecurityPolicy;
use ogsa_core::serve::{ServeConfig, Server};
use ogsa_core::throughput::{self, ThroughputConfig};

use crate::fixture::SignedGet;
use crate::loadgen::{self, LoadConfig, LoadMode, LoadReport};

/// The headline concurrency figure: this many keep-alive connections held
/// open at once.
pub const SUSTAIN_CONNECTIONS: usize = 1024;

/// Client count for the in-process comparison (matches the acceptance
/// figure in BENCH_throughput.json).
const COMPARE_CLIENTS: usize = 32;

/// Fraction of measured closed-loop capacity to offer in the open-loop
/// run — below saturation, so the tail reflects queueing, not collapse.
const OPEN_LOAD_FACTOR: f64 = 0.6;

fn run_load(config: &LoadConfig) -> LoadReport {
    loadgen::run(config).unwrap_or_else(|e| panic!("loadgen run failed: {e}"))
}

fn print_report(name: &str, r: &LoadReport) {
    println!(
        "  {name:<10} {:>5}/{:<5} conns  {:>8} reqs  {:>3} errs  {:>9.0} rps  p50 {:>6}us  p99 {:>7}us  p999 {:>7}us",
        r.connections_established,
        r.connections_requested,
        r.requests,
        r.errors,
        r.rps,
        r.p50_us,
        r.p99_us,
        r.p999_us,
    );
}

/// `"name":{…}` for one load run.
fn load_report_json(name: &str, r: &LoadReport) -> String {
    format!(
        "\"{name}\":{{\"connections\":{},\"established\":{},\"requests\":{},\"errors\":{},\"elapsed_ms\":{:.1},\"rps\":{:.1},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
        r.connections_requested,
        r.connections_established,
        r.requests,
        r.errors,
        r.elapsed.as_secs_f64() * 1_000.0,
        r.rps,
        r.mean_us,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.max_us,
    )
}

pub fn run() -> Vec<(&'static str, String)> {
    let fixture = SignedGet::deploy();
    let mut server =
        Server::bind(fixture.tb.network(), ServeConfig::default()).expect("bind serving tier");
    let addr = server.addr();
    let load = |connections: usize| -> LoadConfig {
        fixture.load(
            addr,
            connections,
            Duration::from_secs(2),
            Duration::from_millis(500),
        )
    };

    println!(
        "serve loadgen (signed WS-Transfer Get, {} workers)",
        ServeConfig::default().workers
    );

    // Shape 1: hold SUSTAIN_CONNECTIONS keep-alive connections open.
    let sustain = run_load(&load(SUSTAIN_CONNECTIONS));
    print_report("sustain", &sustain);

    // Shape 2: the comparison point.
    let closed32 = run_load(&load(COMPARE_CLIENTS));
    print_report("closed-32", &closed32);

    // Shape 3: open loop below saturation for honest tail figures.
    let open_rps = (closed32.rps * OPEN_LOAD_FACTOR).max(100.0);
    let open = run_load(&LoadConfig {
        mode: LoadMode::Open { rps: open_rps },
        ..load(COMPARE_CLIENTS * 2)
    });
    print_report("open-loop", &open);

    // In-process comparison figure: the multi-client harness at the same
    // client count, measured on the host clock in this process.
    let config = ThroughputConfig {
        policy: SecurityPolicy::X509Sign,
        clients: vec![COMPARE_CLIENTS],
        shards: vec![8],
        iterations: 4,
        grid_clients: vec![],
        grid_shards: vec![],
    };
    let wall_start = Instant::now();
    let rows = throughput::run(&config);
    let wall = wall_start.elapsed();
    let in_process_requests: u64 = rows.iter().map(|r| r.requests).sum();
    let in_process_rps = in_process_requests as f64 / wall.as_secs_f64();
    let rps_ratio = in_process_rps / closed32.rps.max(1e-9);
    println!(
        "  in-process {COMPARE_CLIENTS} clients: {in_process_requests} reqs in {:.0}ms = {in_process_rps:.0} rps ({rps_ratio:.2}x the socket)",
        wall.as_secs_f64() * 1_000.0
    );

    let stats = server.stats();
    let json = format!(
        "{{\"benchmark\":\"serve\",\"workload\":\"signed transfer get\",\"policy\":\"x509\",{},{},{},\"open_loop_offered_rps\":{:.1},\"in_process\":{{\"clients\":{},\"requests\":{},\"real_elapsed_ms\":{:.1},\"real_rps\":{:.1},\"rps_ratio\":{:.3}}},\"server\":{{\"accepted\":{},\"requests\":{},\"http_errors\":{},\"dispatch_panics\":{}}}}}\n",
        load_report_json("sustain", &sustain),
        load_report_json("closed_32", &closed32),
        load_report_json("open_loop", &open),
        open_rps,
        COMPARE_CLIENTS,
        in_process_requests,
        wall.as_secs_f64() * 1_000.0,
        in_process_rps,
        rps_ratio,
        stats.accepted(),
        stats.requests(),
        stats.http_errors(),
        stats.dispatch_panics(),
    );
    server.shutdown();
    vec![("BENCH_serve.json", json)]
}
