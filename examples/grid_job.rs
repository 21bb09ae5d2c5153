//! The full Grid-in-a-Box flow of the paper's Figure 5, on both stacks:
//! account check → discovery → reservation → stage-in → job start →
//! claim → asynchronous completion notification → cleanup.
//!
//! ```text
//! cargo run --example grid_job
//! ```

use ogsa_grid::comparison::Stack;
use ogsa_grid::container::Testbed;
use ogsa_grid::gridbox::{run_job, JobPlan, JobStep, OPERATIONS};
use ogsa_grid::security::SecurityPolicy;
use ogsa_grid::sim::SimDuration;

const ALICE: &str = "CN=alice,O=UVA-VO";

fn drive(label: &str, stack: Stack) {
    // The configuration Figure 6 measures: X.509-signed messages, a
    // distributed VO with a VO-services host and two execution sites.
    let policy = SecurityPolicy::X509Sign;
    let tb = Testbed::calibrated();
    let grid = stack.deploy_grid(&tb, policy, &[ALICE]);
    let mut scenario = grid.scenario(tb.client("client-1", ALICE, policy));
    let plan = JobPlan {
        file_bytes: 24 * 1024,
        runtime: SimDuration::from_millis(1500.0),
    };

    println!("== {label} ==");
    let clock = tb.clock().clone();
    let mut t = clock.now();
    run_job(&mut *scenario, &plan, |step| {
        let now = clock.now();
        match step {
            JobStep::Operation(op) => println!(
                "  {:<24} {:>8.0} ms",
                OPERATIONS[op],
                now.since(t).as_millis()
            ),
            JobStep::Finished { exit_code } => {
                println!("  job finished asynchronously with exit code {exit_code}")
            }
        }
        t = now;
    })
    .expect("the flow completes");
    if scenario.unreserve_is_automatic() {
        println!("  (unreserve was automatic — the ExecService destroyed the reservation)");
    }
    println!();
}

fn main() {
    drive("WSRF / WS-Notification (5 services)", Stack::Wsrf);
    drive("WS-Transfer / WS-Eventing (4 services)", Stack::Transfer);
}
