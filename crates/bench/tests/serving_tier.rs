//! The serving tier under socket load, driven through `ogsa-bench`'s socket
//! load client against the signed WS-Transfer Get fixture.

use std::sync::Mutex;
use std::time::Duration;

use ogsa_bench::fixture::SignedGet;
use ogsa_bench::loadgen::{self, LoadConfig, LoadReport};
use ogsa_core::serve::{ObsConfig, ServeConfig, Server};

/// The headline concurrency figure: this many keep-alive connections held
/// open at once.
const SUSTAIN_CONNECTIONS: usize = 1024;

const WARMUP: Duration = Duration::from_millis(200);

/// One load run at a time: a calibration taken while another test floods
/// the host would set a threshold nothing later reaches.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run_load(config: &LoadConfig) -> LoadReport {
    loadgen::run(config).expect("load run")
}

/// Every one of the headline 1 024 keep-alive connections establishes and
/// completes requests, and none errors or panics the dispatcher.
#[test]
fn sustains_every_connection_without_errors_or_panics() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fixture = SignedGet::deploy();
    let server = Server::bind(fixture.tb.network(), ServeConfig::default()).expect("bind");
    let report = run_load(&fixture.load(
        server.addr(),
        SUSTAIN_CONNECTIONS,
        Duration::from_secs(1),
        WARMUP,
    ));
    assert_eq!(report.connections_established, SUSTAIN_CONNECTIONS);
    assert!(report.requests > 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(server.stats().http_errors(), 0);
    assert_eq!(server.stats().dispatch_panics(), 0);
}

/// The observability plane under load. The slow threshold is the p99 one
/// client sees against a default server — the server times its own
/// service, not the queueing more clients would add — and the slow ring is
/// large enough never to evict, so:
/// every round's mid-run `/metrics` scrape parses with consistent
/// histograms and its request counter covers the client's tally; every
/// exemplar resolves to a retained slow trace holding its `serve:request`
/// span; and no request errors on either server. Up to three rounds run,
/// until one request is slow enough to leave an exemplar.
#[test]
fn observed_server_scrapes_consistently_and_every_exemplar_resolves() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fixture = SignedGet::deploy();
    let window = Duration::from_millis(800);
    let calibrating =
        Server::bind(fixture.tb.network(), ServeConfig::default()).expect("bind server");
    let calibration = run_load(&fixture.load(calibrating.addr(), 1, window, WARMUP));
    assert_eq!(calibration.errors, 0, "{calibration:?}");
    let slow_threshold_us = calibration.p99_us.max(1);

    let observed = Server::bind(
        fixture.tb.network(),
        ServeConfig {
            observe: ObsConfig {
                slow_threshold_us,
                slow_capacity: 65_536,
                ..ObsConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind observed server");
    let plane = observed.plane();
    let mut exemplars = Vec::new();
    for _ in 0..3 {
        let report = run_load(&LoadConfig {
            scrape_admin: Some(observed.admin_addr()),
            ..fixture.load(observed.addr(), 16, window, WARMUP)
        });
        assert_eq!(report.errors, 0, "{report:?}");
        let scrape = report.scrape.as_ref().expect("scrape ran");
        assert!(scrape.consistent_with(report.requests), "{scrape:?}");
        exemplars = plane.exemplars().snapshot().into_iter().flatten().collect();
        if !exemplars.is_empty() {
            break;
        }
    }
    assert!(
        !exemplars.is_empty(),
        "no request reached {slow_threshold_us} µs"
    );
    let traces = plane.recorder().dump();
    for e in &exemplars {
        assert!(e.latency_us >= slow_threshold_us, "{e:?}");
        assert!(
            traces.iter().any(|t| t.seq == e.seq
                && t.slow
                && t.latency_us == e.latency_us
                && t.spans.iter().any(|s| s.name == "serve:request")),
            "exemplar {e:?} resolves to no retained slow trace"
        );
    }
}
