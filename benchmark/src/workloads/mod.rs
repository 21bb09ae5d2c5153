//! The four workloads and what they have in common.
//!
//! Every workload is X.509-signed on every hop, runs under
//! `CostModel::free()` on a span-quiet testbed, and is a closed loop: the
//! paper's clients wait for a reply. The seed drives key order, template
//! shuffle and topic order; the program sees only the generated inputs.

use std::time::Duration;

use ogsa_core::container::Testbed;
use ogsa_core::sim::DetRng;

use crate::metrics::Ledger;
use crate::stats::{Recorder, Window};
use crate::sys::count_allocations;
use crate::trace::{unattributed_pct, Tracer};

pub mod fanout;
pub mod gridbox;
pub mod socket;

/// The workload names, as registered in `BENCHMARK.json`.
pub const NAMES: [&str; 4] = [
    "get_signed",
    "put_logged_mem",
    "gridbox_jobs",
    "notify_fanout",
];

/// Documents in every collection of the named hosts' databases.
pub fn stored_docs(tb: &Testbed, hosts: &[&str]) -> u64 {
    hosts
        .iter()
        .map(|host| {
            let db = tb.db(host);
            db.collection_names()
                .iter()
                .map(|name| db.collection(name).len() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// `0..n` in seeded random order.
pub fn shuffled(rng: &DetRng, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// The `driver.*` metrics: the traced run's short window as the wall clock
/// saw it, and the host speed the probe measured beside it.
pub fn driver_metrics(ledger: &mut Ledger, win: &Window) {
    ledger.set("driver.mean_throughput_ops_s", win.mean_throughput_ops_s());
    ledger.set("driver.latency_p99_us", win.whole_window_latency_us(0.99));
    ledger.set("driver.latency_max_us", win.whole_window_latency_us(1.0));
    ledger.set("driver.slice_spread_pct", win.slice_spread_pct());
    ledger.set("driver.host_speed", win.host_speed());
    ledger.set("driver.ops_attempted", win.ops() as f64);
    ledger.set("driver.ops_failed", win.failed as f64);
}

/// The `alloc.*` metrics: `run` performs `ops` operations with spans off
/// while every allocation of the process is counted.
pub fn alloc_metrics(ledger: &mut Ledger, ops: usize, run: impl FnOnce()) {
    let (allocs, bytes) = count_allocations(run);
    ledger.set("alloc.count_per_op", allocs as f64 / ops as f64);
    ledger.set("alloc.bytes_per_op", bytes as f64 / ops as f64);
}

/// The `trace.*` metrics, from the spans and from what the same replayed
/// operations took with spans on and off.
pub fn trace_metrics(ledger: &mut Ledger, tracer: &Tracer, traced: Duration, untraced: Duration) {
    ledger.set("trace.spans", tracer.spans().len() as f64);
    ledger.set("trace.unattributed_pct", unattributed_pct(tracer.spans()));
    ledger.set(
        "trace.overhead_pct",
        100.0 * (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
    );
}

/// Layer metrics only teardown can measure, by name.
pub type TeardownMetrics = Vec<(&'static str, f64)>;

/// A workload that has been set up. Set-up — everything from nothing to the
/// first measured operation: build the testbed, preload, pre-sign, bind and
/// connect, and a fixed-count warm-up — is the constructor of each
/// implementation, and is what `setup_s` times.
pub trait Workload: Sized {
    /// Run the closed loop for `window`, recording every completed
    /// operation. Tracing is off.
    fn measure(&mut self, window: Duration, rec: &mut Recorder);

    /// Replay a fixed number of operations stage by stage on this thread,
    /// one span per stage into `tracer`, and fill in the layer metrics this
    /// workload exercises. `window` is a short untraced run through
    /// [`Workload::measure`] that the `driver.*` figures come from.
    fn trace(&mut self, window: Duration, tracer: &mut Tracer, ledger: &mut Ledger);

    /// How much the program holds that operations should give back: stored
    /// documents, parked notifications. Counted, so it is exact where the
    /// rate of a third of the window is not.
    fn retained(&self) -> u64;

    /// What [`Workload::retained`] may reach in steady state.
    fn retained_limit(&self) -> u64;

    /// After how many operations of the window peak memory is read: a fixed
    /// amount of work that even a slow window completes in its first third.
    fn memory_checkpoint(&self) -> u64;

    /// Tear down and check that the outputs are correct.
    fn check(self) -> Result<TeardownMetrics, String>;
}
