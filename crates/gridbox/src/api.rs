//! The uniform Grid-in-a-Box scenario surface the Figure-6 harness drives.

use std::time::Duration;

use ogsa_container::InvokeError;
use ogsa_sim::SimDuration;

/// Errors surfaced by scenario steps.
#[derive(Debug)]
pub enum ScenarioError {
    Invoke(InvokeError),
    /// A step ran out of order or a precondition is missing.
    State(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invoke(e) => write!(f, "{e}"),
            ScenarioError::State(s) => write!(f, "scenario state error: {s}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<InvokeError> for ScenarioError {
    fn from(e: InvokeError) -> Self {
        ScenarioError::Invoke(e)
    }
}

/// One grid user's session against a deployed VO — the operations of
/// Figure 6, in their natural order. Implementations keep the scenario
/// state (chosen site, reservation, data directory, running job) so each
/// step can be timed in isolation by the harness.
pub trait GridScenario {
    /// Stack label for reports.
    fn stack_name(&self) -> &'static str;

    /// "What resources are available for my application?" Picks (and
    /// remembers) a site offering `application`. Errors if none.
    fn get_available_resource(&mut self, application: &str) -> Result<(), ScenarioError>;

    /// Reserve the chosen site under the user's DN.
    fn make_reservation(&mut self) -> Result<(), ScenarioError>;

    /// Stage a file into the user's data space on the chosen site.
    fn upload_file(&mut self, name: &str, size_bytes: usize) -> Result<(), ScenarioError>;

    /// Start the job (runtime/exit scripted by `runtime`): verifies the
    /// reservation, claims it, subscribes for completion, spawns.
    fn instantiate_job(&mut self, runtime: SimDuration) -> Result<(), ScenarioError>;

    /// Delete a previously staged file.
    fn delete_file(&mut self, name: &str) -> Result<(), ScenarioError>;

    /// Release the reservation. In the WSRF version this is automatic
    /// (the ExecService destroys the reservation when the job completes),
    /// so the implementation performs no client work and reports so via
    /// [`GridScenario::unreserve_is_automatic`].
    fn unreserve_resource(&mut self) -> Result<(), ScenarioError>;

    /// True if unreserve costs the client nothing (reported as 0 in
    /// Figure 6).
    fn unreserve_is_automatic(&self) -> bool;

    /// Drive the job to completion: advance virtual time past the job's
    /// runtime, pump the exec service's completion monitor, and wait for
    /// the asynchronous job-exited notification. Returns the exit code.
    fn finish_job(&mut self, wait: Duration) -> Result<i32, ScenarioError>;
}

/// The six operations Figure 6 measures, in the paper's order.
pub const OPERATIONS: [&str; 6] = [
    "Get Available Resource",
    "Make Reservation",
    "Upload File",
    "Instantiate Job",
    "Delete File",
    "Unreserve Resource",
];

/// What [`run_job`] reports as each step of the flow completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStep {
    /// The Figure 6 operation named by this index into [`OPERATIONS`].
    Operation(usize),
    /// The job was driven to completion and exited with this code — not an
    /// operation of Figure 6.
    Finished { exit_code: i32 },
}

/// What varies between one submission and the next; the application and
/// the staged file's name do not.
#[derive(Debug, Clone, Copy)]
pub struct JobPlan {
    /// Size of the staged input file.
    pub file_bytes: usize,
    /// Scripted runtime of the submitted job.
    pub runtime: SimDuration,
}

const APPLICATION: &str = "blast";
const INPUT_FILE: &str = "input.dat";
/// Wall-clock safety net on the wait for the completion notification.
const COMPLETION_WAIT: Duration = Duration::from_secs(10);

/// One user's pass through the whole flow — discover, reserve, stage in,
/// start, run to completion, clean up, release — on whichever stack
/// `scenario` belongs to. `on_step` is called as each step completes, and
/// nothing runs between that call and the next step: a harness that reads
/// its clock (or drains its trace) there has timed exactly that step.
/// Returns the job's exit code.
pub fn run_job(
    scenario: &mut dyn GridScenario,
    plan: &JobPlan,
    mut on_step: impl FnMut(JobStep),
) -> Result<i32, ScenarioError> {
    scenario.get_available_resource(APPLICATION)?;
    on_step(JobStep::Operation(0));
    scenario.make_reservation()?;
    on_step(JobStep::Operation(1));
    scenario.upload_file(INPUT_FILE, plan.file_bytes)?;
    on_step(JobStep::Operation(2));
    scenario.instantiate_job(plan.runtime)?;
    on_step(JobStep::Operation(3));
    let exit_code = scenario.finish_job(COMPLETION_WAIT)?;
    on_step(JobStep::Finished { exit_code });
    scenario.delete_file(INPUT_FILE)?;
    on_step(JobStep::Operation(4));
    scenario.unreserve_resource()?;
    on_step(JobStep::Operation(5));
    Ok(exit_code)
}
