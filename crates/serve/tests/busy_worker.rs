//! Connections go to workers that wait for work: a worker held in a slow
//! handler is handed no new one, and idle workers share them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ogsa_serve::{http, ServeConfig, Server};
use ogsa_soap::Envelope;
use ogsa_transport::Network;
use ogsa_xml::Element;

const HELD_FOR_AT_MOST: Duration = Duration::from_secs(10);

fn request(target: &str) -> Vec<u8> {
    let env = Envelope::new(Element::text_element("Ping", "hello"));
    let mut wire = Vec::new();
    http::write_request(&mut wire, target, "host-a", false, &env.to_wire());
    wire
}

/// Read one `Connection: close` answer to its end.
fn answer(mut stream: TcpStream) -> String {
    stream
        .set_read_timeout(Some(HELD_FOR_AT_MOST + Duration::from_secs(5)))
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn send(addr: SocketAddr, target: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&request(target)).unwrap();
    stream
}

#[test]
fn a_new_connection_is_not_parked_behind_a_busy_worker() {
    let net = Network::free();
    let (entered, handler_entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let (entered, released) = (Mutex::new(entered), Mutex::new(released));
    net.bind(
        "http://host-a/services/hold",
        Arc::new(move |req: Envelope| {
            let _ = entered.lock().unwrap().send(());
            let _ = released.lock().unwrap().recv_timeout(HELD_FOR_AT_MOST);
            Envelope::new(req.body)
        }),
    );
    net.bind(
        "http://host-a/services/echo",
        Arc::new(|req: Envelope| Envelope::new(req.body)),
    );
    let server = Server::bind(
        &net,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let held = send(server.addr(), "/services/hold");
    handler_entered
        .recv_timeout(HELD_FOR_AT_MOST)
        .expect("the holding handler runs");
    // One worker is inside the handler; the other is idle. Round-robin
    // hand-off would park the second of these behind the busy one.
    for i in 0..2 {
        let started = Instant::now();
        let text = answer(send(server.addr(), "/services/echo"));
        let waited = started.elapsed();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(
            waited < Duration::from_secs(5),
            "connection {i} waited {waited:?}"
        );
    }

    release.send(()).unwrap();
    let text = answer(held);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    assert_eq!(server.stats().requests(), 3);
}

/// Keep-alive connections opened one after another against idle workers
/// are shared between them, not all owned by the first worker to wait.
#[test]
fn connections_opened_against_idle_workers_are_shared_between_them() {
    const CONNECTIONS: usize = 32;
    let net = Network::free();
    net.bind(
        "http://host-a/services/echo",
        Arc::new(|req: Envelope| Envelope::new(req.body)),
    );
    let server = Server::bind(
        &net,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let env = Envelope::new(Element::text_element("Ping", "hello"));
    let mut wire = Vec::new();
    http::write_request(&mut wire, "/services/echo", "host-a", true, &env.to_wire());
    let held: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_read_timeout(Some(HELD_FOR_AT_MOST)).unwrap();
            stream.write_all(&wire).unwrap();
            let (mut got, mut buf) = (Vec::new(), [0u8; 4096]);
            while !got.ends_with(b"Envelope>") {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "closed after {got:?}");
                got.extend_from_slice(&buf[..n]);
            }
            assert!(got.starts_with(b"HTTP/1.1 200 OK\r\n"));
            stream
        })
        .collect();
    // Each worker publishes its count at the end of the wakeup that wrote
    // the answer: give the last one a moment.
    std::thread::sleep(Duration::from_millis(100));
    let metrics = server.plane().render_metrics();
    let owned: Vec<u64> = ["0", "1"]
        .map(|worker| {
            let series = format!("serve_worker_connections{{worker=\"{worker}\"}} ");
            metrics
                .lines()
                .find_map(|line| line.strip_prefix(series.as_str()))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no {series} in {metrics}"))
        })
        .to_vec();
    assert_eq!(owned.iter().sum::<u64>(), CONNECTIONS as u64, "{owned:?}");
    assert!(
        owned.iter().all(|&n| n >= CONNECTIONS as u64 / 4),
        "connections per worker: {owned:?}"
    );
    drop(held);
}
