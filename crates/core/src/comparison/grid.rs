//! The Grid-in-a-Box evaluation (§4.2.3): the data behind Figure 6.
//!
//! Six operations, measured over the full VO deployment with X.509-signed
//! messages on every hop — the configuration where "the greatest factor
//! influencing the performance of individual operations is the number of
//! web service outcalls (and message signings) triggered on the server".

use ogsa_gridbox::JobPlan;
use ogsa_security::SecurityPolicy;
use ogsa_sim::SimDuration;

use super::cell::{self, Scenario};
use super::Stack;

/// The six measured operations, in the paper's order.
pub use ogsa_gridbox::OPERATIONS;

/// One bar of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRow {
    pub operation: &'static str,
    pub stack: Stack,
    /// Mean virtual milliseconds.
    pub ms: f64,
}

/// Configuration for the Figure 6 run.
#[derive(Debug, Clone, Copy)]
pub struct GridConfig {
    pub policy: SecurityPolicy,
    pub iterations: usize,
    /// The job every iteration submits.
    pub plan: JobPlan,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            policy: SecurityPolicy::X509Sign,
            iterations: 8,
            plan: JobPlan {
                file_bytes: 24 * 1024,
                runtime: SimDuration::from_millis(2000.0),
            },
        }
    }
}

/// Run Figure 6 for both stacks: a job-flow cell per stack, each step's
/// mean time a bar.
pub fn run(config: GridConfig) -> Vec<GridRow> {
    let mut rows = Vec::new();
    let scenario = Scenario::Job(config.plan);
    for run in cell::per_stack(config.policy, config.iterations, scenario) {
        rows.extend(run.ops.iter().map(|op| GridRow {
            operation: op.operation,
            stack: run.cell.stack,
            ms: run.mean_ms(op.time),
        }));
    }
    rows
}

/// Fetch one cell.
pub fn cell(rows: &[GridRow], op: &str, stack: Stack) -> Option<f64> {
    rows.iter()
        .find(|r| r.operation == op && r.stack == stack)
        .map(|r| r.ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Vec<GridRow> {
        run(GridConfig {
            iterations: 2,
            ..GridConfig::default()
        })
    }

    #[test]
    fn figure6_shape_holds() {
        let rows = quick();
        assert_eq!(rows.len(), 12);

        // "the WSRF implementation requires several more outcalls to
        // Instantiate a Job than the WS-Transfer version."
        let wsrf_job = cell(&rows, "Instantiate Job", Stack::Wsrf).unwrap();
        let wxf_job = cell(&rows, "Instantiate Job", Stack::Transfer).unwrap();
        assert!(
            wsrf_job > 1.3 * wxf_job,
            "WSRF instantiate {wsrf_job} vs transfer {wxf_job}"
        );

        // "Un-reserving a resource also happens automatically in the WSRF
        // version (so no time is reported)."
        assert_eq!(cell(&rows, "Unreserve Resource", Stack::Wsrf), Some(0.0));
        assert!(cell(&rows, "Unreserve Resource", Stack::Transfer).unwrap() > 10.0);

        // "The Delete File operation involves a single call in both
        // implementations ... the results of these operations are
        // comparable." Within 2× of each other.
        let wsrf_del = cell(&rows, "Delete File", Stack::Wsrf).unwrap();
        let wxf_del = cell(&rows, "Delete File", Stack::Transfer).unwrap();
        assert!(wsrf_del < 2.0 * wxf_del && wxf_del < 2.0 * wsrf_del);

        // "Upload File requires a pair of calls in both" — comparable too.
        let wsrf_up = cell(&rows, "Upload File", Stack::Wsrf).unwrap();
        let wxf_up = cell(&rows, "Upload File", Stack::Transfer).unwrap();
        assert!(wsrf_up < 2.0 * wxf_up && wxf_up < 2.0 * wsrf_up);

        // Everything lands on the paper's 0-1200 ms scale, with
        // InstantiateJob the most expensive operation.
        for r in &rows {
            assert!(r.ms < 1200.0, "{} {:?} = {}", r.operation, r.stack, r.ms);
        }
        for stack in Stack::all() {
            let job = cell(&rows, "Instantiate Job", stack).unwrap();
            for op in OPERATIONS.iter().filter(|o| **o != "Instantiate Job") {
                let other = cell(&rows, op, stack).unwrap();
                assert!(job > other, "{stack:?}: job {job} vs {op} {other}");
            }
        }
    }
}
