//! `ogsa-bench report`: the paper's figures and estimates in virtual
//! time — everything EXPERIMENTS.md reports. No artifacts, no gates.

use ogsa_core::ablation;
use ogsa_core::comparison::Stack;
use ogsa_core::grid::{self, GridConfig};
use ogsa_core::hello::{self, HelloConfig};
use ogsa_core::report;
use ogsa_core::security::SecurityPolicy;
use ogsa_core::transport::Deployment;

/// A report section: its `report <name>` argument and its body.
pub const SECTIONS: &[(&str, fn())] = &[
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("broker", broker),
    ("ablations", ablations),
];

/// One hello-world figure plus the who-wins summary the paper's text draws
/// from it.
fn hello_figure(title: &str, policy: SecurityPolicy) {
    let rows = hello::run(HelloConfig {
        policy,
        iterations: 12,
    });
    println!("{}", report::render_hello(title, &rows));
    let cell = |op, stack, dep| hello::cell(&rows, op, stack, dep).unwrap_or(f64::NAN);
    for dep in Deployment::all() {
        let set_gap = cell("Set", Stack::Transfer, dep) - cell("Set", Stack::Wsrf, dep);
        let notify_gap = cell("Notify", Stack::Wsrf, dep) - cell("Notify", Stack::Transfer, dep);
        println!(
            "  {}: WSRF.NET faster on Set by {:.1} ms (cache); WS-Eventing faster on Notify by {:.1} ms (TCP)",
            dep.label(),
            set_gap,
            notify_gap
        );
    }
}

fn fig2() {
    hello_figure(
        "Figure 2: Testing \"Hello World\" with no security (ms per request)",
        SecurityPolicy::None,
    );
}

fn fig3() {
    hello_figure(
        "Figure 3: Testing \"Hello World\" over HTTPS (ms per request)",
        SecurityPolicy::Https,
    );
    println!("  (socket/session caching keeps HTTPS near the unsecured numbers)");
}

fn fig4() {
    hello_figure(
        "Figure 4: Testing \"Hello World\" with X.509 Signing (ms per request)",
        SecurityPolicy::X509Sign,
    );
    println!("  (security processing dominates; stack differences fade percentage-wise)");
}

fn fig6() {
    let rows = grid::run(GridConfig::default());
    println!(
        "{}",
        report::render_grid("Figure 6: Grid-in-a-Box Performance Comparison (ms)", &rows)
    );

    let wsrf_job = grid::cell(&rows, "Instantiate Job", Stack::Wsrf).unwrap();
    let wxf_job = grid::cell(&rows, "Instantiate Job", Stack::Transfer).unwrap();
    println!(
        "Instantiate Job: WSRF {:.0} ms vs WS-Transfer {:.0} ms ({:.2}x) — \"due to the design of its\n\
         services the WSRF implementation requires several more outcalls\"",
        wsrf_job,
        wxf_job,
        wsrf_job / wxf_job
    );
    println!(
        "Unreserve: WSRF {:.0} ms (automatic via ResourceLifetime), WS-Transfer {:.0} ms (manual Put)",
        grid::cell(&rows, "Unreserve Resource", Stack::Wsrf).unwrap(),
        grid::cell(&rows, "Unreserve Resource", Stack::Transfer).unwrap()
    );
}

/// §3.1: "More messages are generated in response to a demand based
/// publisher scenario then in any other spec, by what we estimate to be an
/// order of magnitude at a minimum."
fn broker() {
    println!("Demand-based brokered publishing vs direct subscription");
    println!("(messages on the wire for registration + subscribe + 1 event + teardown)\n");
    for consumers in [1, 2, 4, 8] {
        let b = ablation::broker_amplification(consumers);
        println!("{}", report::render_broker(&b));
    }
    println!(
        "\nThe demand-based path touches up to six services (publisher, its\n\
         subscription manager, broker, broker's subscription manager, the\n\
         registration manager, and each consumer) — the §3.1 complexity claim."
    );
}

/// §4.1.3: each design choice the paper credits, toggled in isolation.
fn ablations() {
    println!("Mechanism ablations (virtual ms per operation)\n");
    for a in [
        ablation::resource_cache(12),
        ablation::tls_session_cache(12),
        ablation::notify_transport(12),
    ] {
        println!("{}", report::render_ablation(&a));
    }
    println!(
        "\nEach line isolates one claim: the write-through cache explains the Set gap,\n\
         session caching explains why Figure 3 ≈ Figure 2, and the TCP push path\n\
         explains WS-Eventing's Notify advantage."
    );
}
