//! Chaos tests: both stacks, same seeded fault schedule, equivalent
//! behaviour. The simulated wire drops, delays, duplicates, and garbles
//! messages according to a pure function of (seed, edge, sequence number),
//! so every run of a scenario under the same seed injects *exactly* the
//! same faults — which lets us assert bit-level reproducibility (identical
//! `NetStatsSnapshot`s) on top of the paper's functional equivalence claim.
//!
//! No partitions here: partition windows are judged against the live
//! virtual clock on the request path, which is only deterministic under a
//! serialized schedule. Drops/delays/duplicates/garbles are judged purely
//! by sequence number and are schedule-independent.

use std::collections::BTreeSet;
use std::time::Duration;

use ogsa_grid::comparison::Stack;
use ogsa_grid::container::Testbed;
use ogsa_grid::gridbox::{run_job, JobPlan};
use ogsa_grid::security::SecurityPolicy;
use ogsa_grid::sim::SimDuration;
use ogsa_grid::transport::{FaultPlan, NetStatsSnapshot, RetryPolicy};

/// Three independent fault schedules — the issue asks for at least three.
const SEEDS: &[u64] = &[11, 23, 47];
/// Counter mutations per scenario.
const SETS: i64 = 8;
/// Wall-clock bound for draining the async delivery queue (virtual-time
/// backoffs resolve almost instantly in wall time).
const DRAIN: Duration = Duration::from_secs(10);
/// Wall-clock wait for one already-quiesced notification hop.
const NOTE_WAIT: Duration = Duration::from_millis(250);
const ALICE: &str = "CN=alice,O=UVA-VO";

/// Roughly one fault per 2.5 messages: drops and garbles force the retry
/// path, delays exercise deadlines without tripping them, duplicates
/// exercise at-least-once delivery.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drops(0.15)
        .with_delays(0.2, SimDuration::from_millis(5.0))
        .with_duplicates(0.1)
        .with_garbles(0.1)
}

/// Generous budgets so no scripted schedule above can exhaust them:
/// p(10 consecutive losses at 25%) ≈ 1e-6 per call, and the decisions are
/// seed-fixed anyway — once a seed passes, it always passes.
fn call_policy(seed: u64) -> RetryPolicy {
    RetryPolicy::default_call(seed).with_max_attempts(10)
}

fn redelivery_policy(seed: u64) -> RetryPolicy {
    RetryPolicy::default_redelivery(seed).with_max_attempts(6)
}

/// Everything observable a counter run produces. Two runs under the same
/// (stack, seed) must compare equal on ALL of it.
#[derive(Debug, PartialEq, Eq)]
struct CounterOutcome {
    final_value: i64,
    /// Distinct values announced through the subscription — duplicates
    /// collapse, which is exactly the "modulo duplicates" equivalence the
    /// stacks promise under at-least-once delivery.
    notified: BTreeSet<i64>,
    stats: NetStatsSnapshot,
    dead_letters: usize,
}

fn run_counter(stack: Stack, seed: u64) -> CounterOutcome {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    // Before deploy: notification agents capture the policy at construction.
    container.set_redelivery(Some(redelivery_policy(seed)));
    let agent = tb
        .client("host-b", "CN=alice", SecurityPolicy::None)
        .with_retry(call_policy(seed));
    let api = stack.deploy_counter(&container).client(agent);

    tb.network().set_fault_plan(chaos_plan(seed));

    let counter = api.create().expect("create under chaos");
    let waiter = api.subscribe(&counter).expect("subscribe under chaos");
    for v in 1..=SETS {
        api.set(&counter, v).expect("set under chaos");
        assert!(tb.network().quiesce(DRAIN), "delivery queue drained");
    }
    let final_value = api.get(&counter).expect("get under chaos");

    let mut notified = BTreeSet::new();
    while let Some(v) = waiter.wait(NOTE_WAIT) {
        notified.insert(v);
    }

    api.destroy(&counter).expect("destroy under chaos");
    assert!(tb.network().quiesce(DRAIN));
    CounterOutcome {
        final_value,
        notified,
        stats: tb.network().stats().snapshot(),
        dead_letters: tb.network().dead_letters().len(),
    }
}

#[test]
fn counter_chaos_is_reproducible_and_stacks_agree() {
    for &seed in SEEDS {
        let mut per_stack = Vec::new();
        for stack in [Stack::Wsrf, Stack::Transfer] {
            let first = run_counter(stack, seed);
            let second = run_counter(stack, seed);
            assert_eq!(
                first, second,
                "{stack:?}/seed {seed}: same seed must replay the same run"
            );
            assert!(
                first.stats.faults_injected() > 0,
                "{stack:?}/seed {seed}: the chaos plan actually fired"
            );
            assert!(
                first.stats.retries > 0,
                "{stack:?}/seed {seed}: losses were retried, not absorbed"
            );
            assert_eq!(first.dead_letters, 0, "{stack:?}/seed {seed}: budgets held");
            per_stack.push(first);
        }
        let (wsrf, transfer) = (&per_stack[0], &per_stack[1]);
        // Functional equivalence across stacks: same final state, same set
        // of announced values (duplicates collapsed).
        assert_eq!(wsrf.final_value, SETS);
        assert_eq!(transfer.final_value, SETS);
        assert_eq!(
            wsrf.notified, transfer.notified,
            "seed {seed}: stacks announce the same value set modulo duplicates"
        );
        let expected: BTreeSet<i64> = (1..=SETS).collect();
        assert_eq!(
            wsrf.notified, expected,
            "seed {seed}: no update went missing"
        );
    }
}

#[derive(Debug, PartialEq, Eq)]
struct GridOutcome {
    exit_code: i32,
    stats: NetStatsSnapshot,
    dead_letters: usize,
}

fn run_grid(stack: Stack, seed: u64) -> GridOutcome {
    let tb = Testbed::free();
    let policy = SecurityPolicy::None;
    let agent = tb
        .client("client-1", ALICE, policy)
        .with_retry(call_policy(seed));
    let grid = stack.deploy_grid(&tb, policy, &[ALICE]);
    let mut scenario = grid.scenario(agent);

    // Arm after deploy: the VO's own bootstrap is not part of the measured
    // scenario (and deploy-time agents carry no retry budget).
    tb.network().set_fault_plan(chaos_plan(seed));

    let plan = JobPlan {
        file_bytes: 8 * 1024,
        runtime: SimDuration::from_millis(500.0),
    };
    let exit_code = run_job(&mut *scenario, &plan, |_| {}).expect("the whole flow under chaos");

    assert!(tb.network().quiesce(DRAIN));
    GridOutcome {
        exit_code,
        stats: tb.network().stats().snapshot(),
        dead_letters: tb.network().dead_letters().len(),
    }
}

#[test]
fn grid_in_a_box_chaos_is_reproducible_on_both_stacks() {
    for &seed in SEEDS {
        for stack in [Stack::Wsrf, Stack::Transfer] {
            let first = run_grid(stack, seed);
            let second = run_grid(stack, seed);
            assert_eq!(
                first, second,
                "{stack:?}/seed {seed}: same seed must replay the same run"
            );
            // Equivalent final state: the job ran to completion and exited
            // cleanly on both stacks despite the unreliable wire.
            assert_eq!(first.exit_code, 0, "{stack:?}/seed {seed}");
            assert!(
                first.stats.faults_injected() > 0,
                "{stack:?}/seed {seed}: the chaos plan actually fired"
            );
            assert_eq!(first.dead_letters, 0, "{stack:?}/seed {seed}: budgets held");
        }
    }
}
