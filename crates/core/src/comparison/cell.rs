//! The one experiment runner behind Figures 2–6 and their breakdowns.
//!
//! [`run`] builds a fresh calibrated testbed for one [`Cell`], warms it,
//! drives its scenario once and returns a [`CellRun`]: per named operation
//! the exact virtual time, the wire messages and the per-kind self time,
//! plus the spans of the measured windows. `hello::run`, `grid::run`, the
//! breakdowns and `BENCH_trace.json` are reads of it. One-way deliveries
//! run inline on the measuring thread (synchronous mode), so every span
//! lands on the virtual clock in one order and the run is deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_counter::NotificationWaiter;
use ogsa_gridbox::{run_job, JobPlan, JobStep, OPERATIONS as GRID_OPERATIONS};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{SimDuration, SimInstant};
use ogsa_telemetry::analysis::self_time_breakdown;
use ogsa_telemetry::SpanRecord;
use ogsa_transport::Deployment;

use super::Stack;

/// Wall-clock safety net for notifications; in synchronous-delivery mode
/// receipt has already happened by the time we wait.
const WAIT: Duration = Duration::from_secs(5);
const USER: &str = "CN=alice,O=UVA-VO";

/// What a cell drives.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// The five counter operations of Figures 2–4, the service on `host-a`
    /// and the client placed by the deployment.
    Counter(Deployment),
    /// The Figure 6 job flow over the full VO, each iteration submitting
    /// this job.
    Job(JobPlan),
}

/// One point of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub stack: Stack,
    pub policy: SecurityPolicy,
    /// Measured iterations per operation (at least one runs).
    pub iterations: usize,
    pub scenario: Scenario,
}

/// One operation's cost, summed over a cell's iterations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpCost {
    pub operation: &'static str,
    pub time: SimDuration,
    pub messages: u64,
    /// Self time per span kind ("db", "security", "wire", "soap", ...).
    pub self_time: BTreeMap<&'static str, SimDuration>,
}

/// The one result of driving a [`Cell`].
#[derive(Debug, Clone)]
pub struct CellRun {
    pub cell: Cell,
    /// The operations in the order they were first driven.
    pub ops: Vec<OpCost>,
    /// Every span recorded inside a measured window.
    pub spans: Vec<SpanRecord>,
}

impl CellRun {
    /// `total` as mean virtual milliseconds per iteration.
    pub fn mean_ms(&self, total: SimDuration) -> f64 {
        total.as_millis() / self.cell.iterations.max(1) as f64
    }
}

/// Name the failed step in an error.
fn at<E: fmt::Display>(step: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{step}: {e}")
}

/// Build, warm and drive one cell. An error names the step that failed.
pub fn run(cell: Cell) -> Result<CellRun, String> {
    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    let run = CellRun {
        cell,
        ops: Vec::new(),
        spans: Vec::new(),
    };
    let mut m = Meter {
        tb: &tb,
        start: (tb.clock().now(), 0),
        run,
    };
    let n = cell.iterations.max(1);
    match cell.scenario {
        Scenario::Counter(deployment) => counter(&mut m, deployment, n)?,
        Scenario::Job(plan) => job(&mut m, &plan, n)?,
    }
    Ok(m.run)
}

/// Each stack's run of one scenario, in [`Stack::all`] order. The figures
/// run on a fault-free testbed, where a failed step is a bug.
pub fn per_stack(policy: SecurityPolicy, iterations: usize, scenario: Scenario) -> Vec<CellRun> {
    let cell = |stack| Cell {
        stack,
        policy,
        iterations,
        scenario,
    };
    Stack::all()
        .map(|stack| run(cell(stack)).expect("a figure cell"))
        .into()
}

/// Charges measured windows to named operations.
struct Meter<'a> {
    tb: &'a Testbed,
    /// Clock and message count where the open window began.
    start: (SimInstant, u64),
    run: CellRun,
}

impl Meter<'_> {
    /// Open a window here, dropping the spans recorded since the last one.
    fn open(&mut self) {
        self.tb.telemetry().clear_spans();
        self.start = (self.tb.clock().now(), self.tb.network().stats().messages());
    }

    /// Close the open window, opening the next; charge what it recorded to
    /// `operation`, or discard it.
    fn close(&mut self, operation: Option<&'static str>) {
        let spans = self.tb.telemetry().take_spans();
        let (t0, m0) = self.start;
        self.open();
        let Some(operation) = operation else { return };
        let ops = &mut self.run.ops;
        let i = match ops.iter().position(|o| o.operation == operation) {
            Some(i) => i,
            None => {
                ops.push(OpCost {
                    operation,
                    ..OpCost::default()
                });
                ops.len() - 1
            }
        };
        ops[i].time += self.start.0.since(t0);
        ops[i].messages += self.start.1 - m0;
        for (kind, t) in self_time_breakdown(&spans).self_time {
            *ops[i].self_time.entry(kind).or_default() += t;
        }
        self.run.spans.extend(spans);
    }
}

/// The counter: after a warm-up trip down each path (connections, TLS
/// sessions — the paper measures steady state), each operation is one
/// window of `n` calls.
fn counter(m: &mut Meter, deployment: Deployment, n: usize) -> Result<(), String> {
    let Cell { stack, policy, .. } = m.run.cell;
    let client_host = match deployment {
        Deployment::Colocated => "host-a",
        Deployment::Distributed => "host-b",
    };
    let container = m.tb.container("host-a", policy);
    let api = stack
        .deploy_counter(&container)
        .client(m.tb.client(client_host, USER, policy));
    let notified = |waiter: &dyn NotificationWaiter| waiter.wait(WAIT).ok_or("no notification");

    let warm = api.create().map_err(at("warm create"))?;
    api.get(&warm).map_err(at("warm get"))?;
    api.set(&warm, 1).map_err(at("warm set"))?;
    let waiter = api.subscribe(&warm).map_err(at("warm subscribe"))?;
    api.set(&warm, 2).map_err(at("warm notify set"))?;
    notified(&*waiter).map_err(at("warm notify"))?;
    api.destroy(&warm).map_err(at("warm destroy"))?;

    let counter = api.create().map_err(at("create"))?;
    m.open();
    for _ in 0..n {
        api.get(&counter).map_err(at("get"))?;
    }
    m.close(Some("Get"));
    for i in 0..n {
        api.set(&counter, i as i64).map_err(at("set"))?;
    }
    m.close(Some("Set"));
    let waiter = api.subscribe(&counter).map_err(at("subscribe"))?;
    m.open();
    for i in 0..n {
        api.set(&counter, 1000 + i as i64)
            .map_err(at("notify set"))?;
        notified(&*waiter).map_err(at("notify"))?;
    }
    m.close(Some("Notify"));
    api.destroy(&counter).map_err(at("cleanup"))?;

    m.open();
    let made: Vec<_> = (0..n)
        .map(|_| api.create())
        .collect::<Result<_, _>>()
        .map_err(at("create"))?;
    m.close(Some("Create"));
    for c in &made {
        api.destroy(c).map_err(at("destroy"))?;
    }
    m.close(Some("Destroy"));
    Ok(())
}

/// The Figure 6 flow: one warm-up submission, then `n` measured ones, each
/// step of each a window. Driving the job to completion is not a Figure 6
/// operation, and an unreserve the stack performs itself reports nothing.
fn job(m: &mut Meter, plan: &JobPlan, n: usize) -> Result<(), String> {
    let Cell { stack, policy, .. } = m.run.cell;
    let grid = stack.deploy_grid(m.tb, policy, &[USER]);
    let mut automatic_unreserve = false;
    for iteration in 0..=n {
        let mut scenario = grid.scenario(m.tb.client("client-1", USER, policy));
        let measured = iteration > 0;
        m.open();
        run_job(&mut *scenario, plan, |step| match step {
            JobStep::Operation(slot) if measured => m.close(Some(GRID_OPERATIONS[slot])),
            _ => m.close(None),
        })
        .map_err(at(if measured { "job" } else { "warm-up job" }))?;
        automatic_unreserve = scenario.unreserve_is_automatic();
    }
    if automatic_unreserve {
        let unreserve = GRID_OPERATIONS[5];
        if let Some(op) = m.run.ops.iter_mut().find(|o| o.operation == unreserve) {
            *op = OpCost {
                operation: unreserve,
                ..OpCost::default()
            };
        }
    }
    Ok(())
}
