//! The workload the serving-tier tests drive over sockets.

use std::net::SocketAddr;
use std::time::Duration;

use ogsa_core::container::Testbed;
use ogsa_core::counter::{CounterApi, TransferCounter};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::sim::CostModel;
use ogsa_core::transfer::messages;
use ogsa_core::xmldb::BackendKind;

use crate::loadgen::LoadConfig;

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
            target: self.target.clone(),
            host: self.host.clone(),
            body: self.wire.clone(),
            scrape_admin: None,
        }
    }
}
