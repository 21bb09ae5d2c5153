//! Reproducibility: the figure harness is deterministic run-to-run, so the
//! regenerated tables in EXPERIMENTS.md are stable artefacts, not samples.

use ogsa_grid::grid::{self, GridConfig};
use ogsa_grid::hello::{self, HelloConfig};
use ogsa_grid::report;
use ogsa_grid::security::SecurityPolicy;

#[test]
fn hello_world_runs_are_bit_identical() {
    let config = HelloConfig {
        policy: SecurityPolicy::None,
        iterations: 3,
    };
    let a = hello::run(config);
    let b = hello::run(config);
    assert_eq!(a, b);
    assert_eq!(
        report::render_hello("Figure 2", &a),
        report::render_hello("Figure 2", &b)
    );
}

#[test]
fn grid_runs_are_bit_identical() {
    let config = GridConfig {
        iterations: 2,
        ..GridConfig::default()
    };
    let a = grid::run(config);
    let b = grid::run(config);
    assert_eq!(a, b);
}

#[test]
fn signed_runs_are_deterministic_too() {
    // Signing involves digests over generated ids; determinism must
    // survive the whole security pipeline.
    let config = HelloConfig {
        policy: SecurityPolicy::X509Sign,
        iterations: 2,
    };
    assert_eq!(hello::run(config), hello::run(config));
}

#[test]
fn broker_amplification_is_deterministic() {
    let a = ogsa_grid::ablation::broker_amplification(2);
    let b = ogsa_grid::ablation::broker_amplification(2);
    assert_eq!(a, b);
}

/// Run a chaotic counter workload under full tracing and dump the span
/// forest. In synchronous-delivery mode every delivery (and every injected
/// fault, backoff, and redelivery) happens inline on one thread against the
/// virtual clock, so the dump is a pure function of the seed.
fn traced_span_dump(seed: u64) -> String {
    use ogsa_grid::container::Testbed;
    use ogsa_grid::counter::{CounterApi, WsrfCounter};
    use ogsa_grid::sim::SimDuration;
    use ogsa_grid::telemetry::export::spans_to_jsonl;
    use ogsa_grid::transport::{FaultPlan, RetryPolicy};
    use std::time::Duration;

    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    tb.network().set_fault_plan(
        FaultPlan::seeded(seed)
            .with_drops(0.15)
            .with_delays(0.2, SimDuration::from_millis(5.0))
            .with_duplicates(0.1),
    );
    let container = tb.container("host-a", SecurityPolicy::None);
    let agent = tb
        .client("host-b", "CN=alice,O=UVA-VO", SecurityPolicy::None)
        .with_retry(RetryPolicy::default_call(seed).with_max_attempts(10))
        .with_redelivery(RetryPolicy::default_redelivery(seed).with_max_attempts(6));
    let api = WsrfCounter::deploy(&container).client(agent);

    let c = api.create().expect("create");
    let waiter = api.subscribe(&c).expect("subscribe");
    for i in 0..6 {
        api.set(&c, i).expect("set");
        // A notification can be legitimately lost to an exhausted
        // redelivery budget; the dump still records every attempt.
        let _ = waiter.wait(Duration::from_millis(100));
    }
    api.get(&c).expect("get");
    api.destroy(&c).expect("destroy");
    spans_to_jsonl(&tb.telemetry().take_spans())
}

#[test]
fn same_seed_span_dumps_are_byte_identical() {
    let a = traced_span_dump(11);
    let b = traced_span_dump(11);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay byte-identically");
}

/// The calibrated signed counter scenario's span dump. With `observe`, wall
/// clocks are on and the whole scenario is captured into a flight recorder,
/// as the serving tier does per request.
fn signed_counter_dump(observe: bool) -> String {
    use ogsa_grid::container::Testbed;
    use ogsa_grid::counter::{CounterApi, WsrfCounter};
    use ogsa_grid::telemetry::export::spans_to_jsonl;
    use ogsa_grid::telemetry::FlightRecorder;

    let tb = Testbed::calibrated();
    tb.network().set_synchronous_oneways(true);
    let tel = tb.telemetry();
    if observe {
        tel.set_wall_clock(true);
        tel.begin_capture();
    }
    let container = tb.container("host-a", SecurityPolicy::X509Sign);
    let agent = tb.client("host-b", "CN=alice,O=UVA-VO", SecurityPolicy::X509Sign);
    let api = WsrfCounter::deploy(&container).client(agent);
    let c = api.create().expect("create");
    api.set(&c, 42).expect("set");
    api.get(&c).expect("get");
    api.destroy(&c).expect("destroy");
    if observe {
        let recorder = FlightRecorder::default();
        recorder.offer(u64::MAX, "virtual-scenario", tel.end_capture());
        assert_eq!(recorder.len(), 1, "scenario trace retained");
    }
    spans_to_jsonl(&tel.take_spans())
}

#[test]
fn observing_a_run_leaves_its_span_dump_byte_identical() {
    let plain = signed_counter_dump(false);
    assert!(!plain.is_empty());
    assert_eq!(plain, signed_counter_dump(true));
}

#[test]
fn different_seeds_produce_different_span_dumps() {
    assert_ne!(
        traced_span_dump(11),
        traced_span_dump(12),
        "different fault schedules must leave different traces"
    );
}
