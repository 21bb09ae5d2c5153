//! One registry, one scrape: a serving tier over a testbed with both
//! stacks deployed and one subscription each exposes every crate's series
//! on `/metrics` — the serving tier's own, the per-host database's, both
//! stacks' fan-out cores', the simulated wire's, the WAL's and the lifetime
//! manager's — and the monotonic ones as counters.

use std::io::{Read, Write};
use std::net::TcpStream;

use ogsa_container::Testbed;
use ogsa_counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_security::SecurityPolicy;
use ogsa_serve::{ServeConfig, Server};
use ogsa_telemetry::prometheus::parse_exposition;
use ogsa_xmldb::DurableConfig;

#[test]
fn one_scrape_reaches_every_crate_through_one_registry() {
    let tb = Testbed::free().with_durable(DurableConfig::default());
    let container = tb.container("host-a", SecurityPolicy::None);
    let agent = tb.client("host-b", "CN=scraper,O=VO", SecurityPolicy::None);
    let stacks: [Box<dyn CounterApi>; 2] = [
        Box::new(WsrfCounter::deploy(&container).client(agent.clone())),
        Box::new(TransferCounter::deploy(&container).client(agent.clone())),
    ];
    let _waiters: Vec<_> = stacks
        .iter()
        .map(|api| {
            let counter = api.create().expect("create");
            let waiter = api.subscribe(&counter).expect("subscribe");
            api.set(&counter, 1).expect("set");
            waiter
        })
        .collect();

    // One request through the socket: nothing is bound at this path.
    let mut server = Server::bind(tb.network(), ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /nowhere HTTP/1.1\r\nHost: host-a\r\nContent-Length: 0\r\n\r\n")
        .expect("write");
    let mut head = [0u8; 12];
    stream.read_exact(&mut head).expect("read status line");
    assert_eq!(&head[9..12], b"404");
    assert!(tb.network().quiesce(std::time::Duration::from_secs(10)));

    let text = server.plane().render_metrics();
    let exp = parse_exposition(&text).expect("strict exposition parse");
    let present = |name: &str, label: Option<(&str, &str)>| {
        exp.samples
            .iter()
            .any(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
    };
    for (name, label) in [
        ("serve_requests", None),
        ("serve_http_errors", Some(("status", "404"))),
        ("db_reads", Some(("host", "host-a"))),
        ("db_lock_contentions", Some(("host", "host-a"))),
        ("db_shard_busy_us", Some(("host", "host-a"))),
        ("wsn_subscribers", Some(("stack", "wsn"))),
        ("wsn_subscribers", Some(("stack", "eventing"))),
        ("wsn_filter_evaluations", Some(("stack", "wsn"))),
        ("wsn_filter_evaluations", Some(("stack", "eventing"))),
        ("net_requests", None),
        ("net_bytes", None),
        ("wal_appends", None),
        ("container_lifetime_tracked", Some(("host", "host-a"))),
    ] {
        assert!(present(name, label), "{name} {label:?} missing:\n{text}");
    }
    for name in ["db_reads", "net_requests", "db_lock_contentions"] {
        assert_eq!(exp.types.get(name).map(String::as_str), Some("counter"));
    }
    assert_eq!(
        exp.get("serve_requests", &[]).map(|s| s.value),
        Some(server.stats().requests() as f64)
    );
    assert_eq!(
        exp.total("net_requests"),
        tb.network().stats().requests() as f64,
        "the scrape and the view read one series"
    );
    server.shutdown();
}
