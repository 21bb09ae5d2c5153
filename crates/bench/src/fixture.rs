//! Workloads more than one subcommand runs.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use ogsa_core::container::Testbed;
use ogsa_core::counter::{CounterApi, TransferCounter};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::serve::{loadgen, LoadConfig, LoadMode, LoadReport};
use ogsa_core::sim::{CostModel, VirtualClock};
use ogsa_core::transfer::messages;
use ogsa_core::xml::Element;
use ogsa_core::xmldb::{BackendKind, Database};

/// The collection the storage subcommands write to.
pub const COLL: &str = "resources";

pub fn doc(v: i64) -> Element {
    Element::new("counter").with_child(Element::text_element("value", v.to_string()))
}

/// Virtual duration of a fixed calibrated workload on `backend`: the
/// figure that must not move when durability or replication is switched
/// on underneath it.
pub fn virtual_elapsed(backend: BackendKind) -> u64 {
    let clock = VirtualClock::new();
    let start = clock.now();
    let db = Database::new(
        clock.clone(),
        Arc::new(CostModel::calibrated_2005()),
        backend,
    );
    let c = db.collection(COLL);
    for i in 0..20 {
        c.insert(&format!("k{i}"), doc(i)).unwrap();
    }
    c.insert_many((0..10).map(|i| (format!("b{i}"), doc(i))).collect())
        .unwrap();
    for i in 0..20 {
        c.get(&format!("k{i}"));
    }
    c.update("k3", doc(33)).unwrap();
    c.remove("k7");
    clock.now().since(start).as_micros()
}

/// A span-quiet testbed serving one signed WS-Transfer counter, and the
/// pre-signed Get every load connection replays against it. The server
/// still verifies the signature and signs its response per request.
pub struct SignedGet {
    pub tb: Testbed,
    host: String,
    target: String,
    wire: String,
}

impl SignedGet {
    pub fn deploy() -> Self {
        // Span-quiet: a load run completes hundreds of thousands of
        // requests and must not accumulate a span per dispatch. Metrics
        // still record; virtual time is free and never advanced by the
        // socket path.
        let tb = Testbed::new_quiet(CostModel::free(), BackendKind::Memory);
        let container = tb.container("host-a", SecurityPolicy::X509Sign);
        let wxf = TransferCounter::deploy(&container);
        let agent = tb.client("host-b", "CN=loadgen,O=VO", SecurityPolicy::X509Sign);
        let counter = wxf.client(agent.clone()).create().expect("create counter");
        wxf.client(agent.clone())
            .set(&counter, 42)
            .expect("seed counter");
        let (address, wire) =
            agent.prepare_wire(&counter, messages::actions::GET, messages::get_request());
        let rest = address.strip_prefix("http://").expect("http address");
        let slash = rest.find('/').expect("address path");
        SignedGet {
            tb,
            host: rest[..slash].to_owned(),
            target: rest[slash..].to_owned(),
            wire,
        }
    }

    /// A closed-loop run of the signed Get against `addr`.
    pub fn load(
        &self,
        addr: SocketAddr,
        connections: usize,
        duration: Duration,
        warmup: Duration,
    ) -> LoadConfig {
        LoadConfig {
            addr,
            connections,
            duration,
            warmup,
            mode: LoadMode::Closed,
            target: self.target.clone(),
            host: self.host.clone(),
            body: self.wire.clone(),
            scrape_admin: None,
        }
    }
}

pub fn run_load(config: &LoadConfig) -> LoadReport {
    loadgen::run(config).unwrap_or_else(|e| panic!("loadgen run failed: {e}"))
}

/// `"name":{…}` for one load run.
pub fn load_report_json(name: &str, r: &LoadReport) -> String {
    format!(
        "\"{name}\":{{\"connections\":{},\"established\":{},\"requests\":{},\"errors\":{},\"elapsed_ms\":{:.1},\"rps\":{:.1},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
        r.connections_requested,
        r.connections_established,
        r.requests,
        r.errors,
        r.elapsed.as_secs_f64() * 1_000.0,
        r.rps,
        r.mean_us,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.max_us,
    )
}
