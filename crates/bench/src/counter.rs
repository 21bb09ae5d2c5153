//! `ogsa-bench counter`: counter + Grid-in-a-Box on both stacks under full
//! causal tracing, written out as machine-readable artifacts:
//!
//! * `BENCH_counter.json` — the five counter operations, unsecured and
//!   X.509-signed, each decomposed into db / security / wire / soap self
//!   time plus wire-message counts, and the §3.1 demand-lifecycle message
//!   amplification.
//! * `BENCH_gridbox.json` — the six Grid-in-a-Box operations, decomposed
//!   the same way.
//! * `BENCH_trace.json` — a Chrome-trace (Perfetto / `chrome://tracing`)
//!   dump of the signed counter run's span forest.
//!
//! The paper's ordinal claims over the same runs are asserted by
//! `breakdown::tests::paper_invariants_hold`.

use ogsa_core::ablation;
use ogsa_core::breakdown::{self, COUNTER_ITERATIONS, LIFECYCLE_EVENTS};
use ogsa_core::grid::GridConfig;
use ogsa_core::hello::HelloConfig;
use ogsa_core::report;
use ogsa_core::security::SecurityPolicy;
use ogsa_core::telemetry::export::spans_to_chrome_trace;

const GRID_ITERATIONS: usize = 3;

pub fn run() -> Vec<(&'static str, String)> {
    let plain = breakdown::counter_breakdown(HelloConfig {
        policy: SecurityPolicy::None,
        iterations: COUNTER_ITERATIONS,
    });
    let signed = breakdown::counter_breakdown(HelloConfig {
        policy: SecurityPolicy::X509Sign,
        iterations: COUNTER_ITERATIONS,
    });
    let grid = breakdown::grid_breakdown(GridConfig {
        iterations: GRID_ITERATIONS,
        ..GridConfig::default()
    });
    let lifecycle = ablation::demand_lifecycle(LIFECYCLE_EVENTS);

    println!(
        "{}",
        report::render_breakdown("Counter, no security (distributed)", &plain.rows)
    );
    println!(
        "{}",
        report::render_breakdown("Counter, X.509 signing (distributed)", &signed.rows)
    );
    println!(
        "{}",
        report::render_breakdown("Grid-in-a-Box, X.509 signing", &grid.rows)
    );
    println!(
        "demand lifecycle: {} brokered vs {} direct messages over {} events ({:.1}x)\n",
        lifecycle.brokered_messages,
        lifecycle.direct_messages,
        lifecycle.events,
        lifecycle.factor()
    );

    vec![
        (
            "BENCH_counter.json",
            format!(
                "{{\"benchmark\":\"counter\",\"iterations\":{},\"sections\":{{\"none\":{},\"x509\":{}}},\"demand_lifecycle\":{}}}\n",
                COUNTER_ITERATIONS,
                report::breakdown_rows_json(&plain.rows),
                report::breakdown_rows_json(&signed.rows),
                report::demand_lifecycle_json(&lifecycle),
            ),
        ),
        (
            "BENCH_gridbox.json",
            format!(
                "{{\"benchmark\":\"gridbox\",\"policy\":\"x509\",\"iterations\":{},\"rows\":{}}}\n",
                GRID_ITERATIONS,
                report::breakdown_rows_json(&grid.rows)
            ),
        ),
        ("BENCH_trace.json", spans_to_chrome_trace(&signed.spans)),
    ]
}
