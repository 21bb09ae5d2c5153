//! The serving tier: a real TCP listener in front of the container host.
//!
//! Threading model: a small pool of workers and nothing else. Each worker
//! owns an epoll instance, its own connection table and its own dispatcher
//! scratch buffers. Both listeners (service and admin) sit in every
//! worker's epoll, registered `EPOLLEXCLUSIVE`, so the kernel wakes one
//! worker that is waiting in `epoll_wait` for a new connection; that worker
//! accepts it and owns it until it closes. A worker held in a slow handler
//! is not waiting, so it is not handed new connections while another worker
//! sits idle, and idle workers take turns (see `Worker::accept`).
//! Everything about a connection happens on one thread, which keeps the
//! request path lock-free: the only cross-thread touches are the container
//! handler's own internals. Shutdown writes once to one eventfd that every
//! worker's epoll holds.
//!
//! Dispatch goes through [`Network::handler_for`]: the serving tier looks
//! up the handler bound at `http://{Host}{target}` and calls it directly,
//! bypassing the simulated wire. Real-socket serving charges no virtual
//! time and injects no simulated faults — the virtual-time twin stays the
//! paper-invariant instrument, this tier is the wall-clock one.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use ogsa_soap::Envelope;
use ogsa_telemetry::{MetricsRegistry, SpanKind};
use ogsa_transport::Network;

use crate::admin::{AdminDispatcher, AdminPlane, ObsConfig, ReadyState};
use crate::conn::{Advance, Conn, Dispatch, Request};
use crate::epoll::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::http;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Local address to listen on; port 0 picks a free port.
    pub addr: String,
    /// Worker event loops. Keep small on small hosts: each worker is a
    /// busy thread under load.
    pub workers: usize,
    /// Live observability plane (admin port, wall-clock latency shards,
    /// flight recorder); it is always on.
    pub observe: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            observe: ObsConfig::default(),
        }
    }
}

/// Wall-clock serving counters: a read view over the `serve.*` series the
/// workers count into the network's metrics registry.
#[derive(Debug, Clone)]
pub struct ServeStats {
    metrics: MetricsRegistry,
}

impl ServeStats {
    /// Connections accepted (service and admin port).
    pub fn accepted(&self) -> u64 {
        self.metrics.counter("serve.accepted", &[])
    }

    /// Requests that reached dispatch (including ones answered 4xx/5xx).
    pub fn requests(&self) -> u64 {
        self.metrics.counter("serve.requests", &[])
    }

    /// Requests answered with an error status.
    pub fn http_errors(&self) -> u64 {
        STATUS_LABELS
            .iter()
            .map(|&status| self.errors(status))
            .sum()
    }

    /// Handler panics converted into 500s — the only 500 the dispatcher
    /// answers.
    pub fn dispatch_panics(&self) -> u64 {
        self.errors("500")
    }

    fn errors(&self, status: &str) -> u64 {
        self.metrics
            .counter("serve.http_errors", &[("status", status)])
    }
}

/// Turns parsed requests into HTTP responses by calling the container
/// handler bound on the [`Network`]. One per worker: the scratch buffers
/// make the happy path allocation-free once warmed.
struct Dispatcher {
    net: Network,
    plane: AdminPlane,
    /// This worker's index: its latency shard in `plane`.
    worker: usize,
    /// Scratch for the reconstructed bound address.
    addr_buf: String,
    /// Pooled response-serialisation buffer (`Envelope::to_wire_into`).
    body_buf: String,
}

impl Dispatcher {
    fn new(net: Network, plane: AdminPlane, worker: usize) -> Dispatcher {
        Dispatcher {
            net,
            plane,
            worker,
            addr_buf: String::with_capacity(64),
            body_buf: String::with_capacity(4096),
        }
    }

    /// Answer an error status with an empty body, counted under its label
    /// of `serve.http_errors`.
    fn answer_error(&self, status: u16, reason: &str, keep_alive: bool, out: &mut Vec<u8>) {
        self.net
            .telemetry()
            .metrics()
            .inc("serve.http_errors", &[("status", status_label(status))]);
        http::write_response(out, status, reason, keep_alive, "");
    }
}

/// Every `status` label of `serve.http_errors`.
const STATUS_LABELS: [&str; 8] = ["400", "404", "405", "411", "413", "431", "500", "other"];

fn status_label(status: u16) -> &'static str {
    STATUS_LABELS
        .iter()
        .find(|label| label.parse() == Ok(status))
        .unwrap_or(&"other")
}

impl Dispatch for Dispatcher {
    fn dispatch(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        // Capture the handler's spans, read the latency off
        // `serve:request`'s wall stamps and copy target and spans only for
        // a kept trace; every sink is a per-worker shard or a
        // lock-on-retention ring, so no worker waits on another here.
        let target = req.target;
        self.net.telemetry().begin_capture();
        self.handle(req, keep_alive, out);
        let plane = &self.plane;
        self.net.telemetry().end_capture_with(|capture| {
            let latency_us = capture.root_wall_us().unwrap_or(0);
            plane.shard(self.worker).record(latency_us);
            let recorder = plane.recorder();
            let slow = latency_us >= recorder.threshold_us();
            let target = std::str::from_utf8(target).unwrap_or("?");
            if let Some(seq) = recorder.offer_with(latency_us, target, || capture.records()) {
                // Only threshold-crossing traces become bucket exemplars;
                // reservoir picks stay reachable via /debug/trace.
                if slow {
                    plane.exemplars().note(latency_us, seq);
                }
            }
        });
    }
}

impl Dispatcher {
    fn handle(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        let tel = self.net.telemetry().clone();
        let mut span = tel.span(SpanKind::Server, "serve:request");
        let metrics = tel.metrics();
        metrics.inc("serve.requests", &[]);
        // Connection-reuse ledger, mirroring the TLS session cache: the
        // first request on a connection is the "handshake", every
        // pipelined/keep-alive follow-up a "resumption".
        if req.first_on_connection {
            metrics.inc("serve.handshakes", &[]);
        } else {
            metrics.inc("serve.resumptions", &[]);
        }

        // SOAP dispatch is POST-only; GETs belong on the admin port.
        if req.method != http::Method::Post {
            span.set_attr("outcome", "method-not-allowed");
            return self.answer_error(405, "Method Not Allowed", keep_alive, out);
        }

        let (Some(host), Ok(target)) = (
            req.host.and_then(|h| std::str::from_utf8(h).ok()),
            std::str::from_utf8(req.target),
        ) else {
            span.set_attr("outcome", "bad-request");
            return self.answer_error(400, "Bad Request", keep_alive, out);
        };
        self.addr_buf.clear();
        self.addr_buf.push_str("http://");
        self.addr_buf.push_str(host);
        self.addr_buf.push_str(target);

        let Some(handler) = self.net.handler_for(&self.addr_buf) else {
            span.set_attr("outcome", "not-found");
            return self.answer_error(404, "Not Found", keep_alive, out);
        };

        let envelope = match std::str::from_utf8(req.body)
            .ok()
            .and_then(|wire| Envelope::from_wire(wire).ok())
        {
            Some(env) => env,
            None => {
                span.set_attr("outcome", "bad-envelope");
                return self.answer_error(400, "Bad Request", keep_alive, out);
            }
        };

        // The container pipeline nests its own spans under serve:request
        // (it picks up tel.current() on this thread). A panicking handler
        // must not take the worker down with it: answer 500 and move on.
        match catch_unwind(AssertUnwindSafe(|| handler(envelope))) {
            Ok(response) => {
                self.body_buf.clear();
                response.to_wire_into(&mut self.body_buf);
                span.set_attr("outcome", "ok");
                http::write_response(out, 200, "OK", keep_alive, &self.body_buf);
            }
            Err(_) => {
                span.set_attr("outcome", "panic");
                self.answer_error(500, "Internal Server Error", false, out);
            }
        }
    }
}

/// A running serving tier. Dropping (or calling [`Server::shutdown`])
/// stops the workers and closes every connection.
pub struct Server {
    addr: SocketAddr,
    admin_addr: SocketAddr,
    plane: AdminPlane,
    stats: ServeStats,
    /// Held by every worker's epoll; one write stops them all.
    shutdown: EventFd,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind both listeners and start the workers. Handlers are resolved
    /// per request, so services may be deployed on `net` before or after
    /// the server starts.
    pub fn bind(net: &Network, config: ServeConfig) -> io::Result<Server> {
        let listeners = Arc::new([
            TcpListener::bind(&config.addr)?,
            TcpListener::bind(&config.observe.admin_addr)?,
        ]);
        for listener in listeners.iter() {
            listener.set_nonblocking(true)?;
        }
        let workers = config.workers.max(1);
        let mut server = Server {
            addr: listeners[0].local_addr()?,
            admin_addr: listeners[1].local_addr()?,
            plane: AdminPlane::new(workers, &config.observe, net.telemetry().clone()),
            stats: ServeStats {
                metrics: net.telemetry().metrics().clone(),
            },
            shutdown: EventFd::new()?,
            threads: Vec::with_capacity(workers),
        };
        // An error in this loop drops `server`, which stops the workers
        // already started.
        for index in 0..workers {
            let ep = Epoll::new()?;
            ep.add(server.shutdown.raw(), EPOLLIN, SHUTDOWN)?;
            for (token, listener) in [SERVICE_LISTENER, ADMIN_LISTENER]
                .into_iter()
                .zip(&*listeners)
            {
                ep.add(listener.as_raw_fd(), LISTENING, token)?;
            }
            let worker = Worker {
                ep,
                listeners: listeners.clone(),
                dispatcher: Dispatcher::new(net.clone(), server.plane.clone(), index),
                admin: AdminDispatcher {
                    plane: server.plane.clone(),
                },
                conns: HashMap::new(),
                next_token: FIRST_CONNECTION,
            };
            server.threads.push(
                std::thread::Builder::new()
                    .name(format!("ogsa-serve-worker-{index}"))
                    .spawn(move || worker.run())?,
            );
        }
        server.plane.set_state(ReadyState::Ready);
        Ok(server)
    }

    /// The bound socket address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin-plane address.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// The live observability plane — for registering readiness probes or
    /// inspecting the flight recorder in-process.
    pub fn plane(&self) -> &AdminPlane {
        &self.plane
    }

    /// Wall-clock serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Stop accepting, close every connection, join every thread.
    pub fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.plane.set_state(ReadyState::Draining);
        self.shutdown.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Epoll tokens: the shutdown eventfd, the two listeners, then one per
/// connection.
const SHUTDOWN: u64 = 0;
const SERVICE_LISTENER: u64 = 1;
const ADMIN_LISTENER: u64 = 2;
const FIRST_CONNECTION: u64 = 3;

/// A listener's interest in every worker's epoll.
const LISTENING: u32 = EPOLLIN | EPOLLEXCLUSIVE;

struct Entry {
    conn: Conn,
    wants_write: bool,
    admin: bool,
}

/// One event loop: it accepts, reads, dispatches and writes for the
/// connections it owns.
struct Worker {
    ep: Epoll,
    /// The service and the admin listener, in token order.
    listeners: Arc<[TcpListener; 2]>,
    dispatcher: Dispatcher,
    admin: AdminDispatcher,
    conns: HashMap<u64, Entry>,
    next_token: u64,
}

impl Worker {
    fn run(mut self) {
        let plane = self.dispatcher.plane.clone();
        let gauges = plane.worker(self.dispatcher.worker);
        let mut events = [EpollEvent::zeroed(); 256];
        loop {
            let Ok(n) = self.ep.wait(&mut events, -1) else {
                return;
            };
            gauges.wakeups.fetch_add(1, Ordering::Relaxed);
            for ev in &events[..n] {
                match ev.parts() {
                    (SHUTDOWN, _) => return,
                    (token @ (SERVICE_LISTENER | ADMIN_LISTENER), _) => self.accept(token),
                    (token, bits) => self.advance(token, bits),
                }
            }
            gauges
                .connections
                .store(self.conns.len() as u64, Ordering::Relaxed);
        }
    }

    /// Take every connection waiting on one listener, then register the
    /// listener anew. The kernel wakes the first waiting epoll in the
    /// listener's wait queue, and a registration joins that queue at its
    /// end: without the move, the first worker would take every connection
    /// that arrives while all of them wait.
    fn accept(&mut self, listener_token: u64) {
        let admin = listener_token == ADMIN_LISTENER;
        let listener = &self.listeners[usize::from(admin)];
        let mut took_one = false;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // WouldBlock: the backlog is empty (or another worker took
                // it). Anything else (ECONNABORTED, EMFILE) is about one
                // connection, never the listener: wait for the next event.
                Err(_) => break,
            };
            took_one = true;
            self.dispatcher
                .net
                .telemetry()
                .metrics()
                .inc("serve.accepted", &[]);
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            let token = self.next_token;
            self.next_token += 1;
            if self
                .ep
                .add(conn.stream().as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                .is_ok()
            {
                let entry = Entry {
                    conn,
                    wants_write: false,
                    admin,
                };
                self.conns.insert(token, entry);
            }
        }
        if took_one {
            self.ep.delete(listener.as_raw_fd());
            // The delete freed the watch this takes again, so only ENOMEM
            // can fail it.
            let _ = self.ep.add(listener.as_raw_fd(), LISTENING, listener_token);
        }
    }

    /// Drive one connection after a readiness event.
    fn advance(&mut self, token: u64, bits: u32) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        let advance = if bits & (EPOLLERR | EPOLLHUP) != 0 {
            Advance::Closed
        } else if entry.admin {
            entry.conn.advance(&mut self.admin)
        } else {
            entry.conn.advance(&mut self.dispatcher)
        };
        match advance {
            Advance::Closed => {
                self.ep.delete(entry.conn.stream().as_raw_fd());
                self.conns.remove(&token);
            }
            Advance::Open { wants_write } if wants_write != entry.wants_write => {
                entry.wants_write = wants_write;
                let interest = EPOLLIN | EPOLLRDHUP | if wants_write { EPOLLOUT } else { 0 };
                let _ = self
                    .ep
                    .modify(entry.conn.stream().as_raw_fd(), interest, token);
            }
            Advance::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::Element;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc as StdArc;

    fn echo_net() -> Network {
        let net = Network::free();
        net.bind(
            "http://host-a/services/echo",
            StdArc::new(|req: Envelope| Envelope::new(req.body)),
        );
        net.bind(
            "http://host-a/services/boom",
            StdArc::new(|_req: Envelope| panic!("service blew up")),
        );
        net
    }

    fn raw_request(addr: SocketAddr, wire: &[u8]) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(wire).unwrap();
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let _ = c.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = c.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    fn soap_request(target: &str, keep_alive: bool) -> Vec<u8> {
        let env = Envelope::new(Element::text_element("Ping", "hello"));
        let mut wire = Vec::new();
        http::write_request(&mut wire, target, "host-a", keep_alive, &env.to_wire());
        wire
    }

    #[test]
    fn serves_soap_over_a_real_socket() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(text.contains("hello"));
        assert_eq!(server.stats().requests(), 1);
        assert_eq!(server.stats().http_errors(), 0);
    }

    #[test]
    fn unknown_service_is_404_and_unparsable_body_400() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/nope", false));
        assert!(text.starts_with("HTTP/1.1 404 "), "got: {text}");

        let mut wire = Vec::new();
        http::write_request(
            &mut wire,
            "/services/echo",
            "host-a",
            false,
            "not xml at all",
        );
        let text = raw_request(server.addr(), &wire);
        assert!(text.starts_with("HTTP/1.1 400 "), "got: {text}");
        assert_eq!(server.stats().http_errors(), 2);
    }

    #[test]
    fn handler_panic_becomes_500_and_worker_survives() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/boom", false));
        assert!(text.starts_with("HTTP/1.1 500 "), "got: {text}");
        assert_eq!(server.stats().dispatch_panics(), 1);
        // The pool is still alive and serving.
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    }

    #[test]
    fn keep_alive_charges_one_handshake_for_many_requests() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let wire = soap_request("/services/echo", true);
        let mut buf = vec![0u8; 65536];
        for _ in 0..3 {
            c.write_all(&wire).unwrap();
            let mut got = String::new();
            loop {
                let n = c.read(&mut buf).unwrap();
                assert!(n > 0);
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
                if got.ends_with("Envelope>") {
                    break;
                }
            }
            assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "got: {got}");
        }
        let m = net.telemetry().metrics().snapshot();
        assert_eq!(m.counter("serve.handshakes"), 1);
        assert_eq!(m.counter("serve.resumptions"), 2);
        assert_eq!(m.counter("serve.requests"), 3);
        assert_eq!(server.stats().accepted(), 1);
    }

    fn get_request(target: &str) -> Vec<u8> {
        let mut wire = Vec::new();
        http::write_get_request(&mut wire, target, "admin", false);
        wire
    }

    #[test]
    fn get_on_the_service_port_is_405() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &get_request("/services/echo"));
        assert!(text.starts_with("HTTP/1.1 405 "), "got: {text}");
    }

    #[test]
    fn admin_endpoints_answer_over_the_shared_workers() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let admin = server.admin_addr();

        // Generate some traffic so /metrics has latency observations.
        for _ in 0..3 {
            let text = raw_request(server.addr(), &soap_request("/services/echo", false));
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        }

        let health = raw_request(admin, &get_request("/healthz"));
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "got: {health}");

        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");
        assert!(ready.contains("ready"), "got: {ready}");

        let metrics = raw_request(admin, &get_request("/metrics"));
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "got: {metrics}");
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        let exp = ogsa_telemetry::prometheus::parse_exposition(body).expect("scrape parses");
        exp.check_histograms().expect("histograms consistent");
        let count = exp
            .get("serve_request_wall_us_count", &[])
            .expect("latency histogram present");
        assert!(count.value as u64 >= 3, "got: {}", count.value);
        assert!(exp.get("serve_ready", &[]).unwrap().value as u64 == 1);
        assert!(exp.get("serve_flight_traces", &[]).is_some());
        for worker in ["0", "1"] {
            for gauge in ["serve_worker_wakeups", "serve_worker_connections"] {
                assert!(exp.get(gauge, &[("worker", worker)]).is_some(), "{gauge}");
            }
        }

        let nope = raw_request(admin, &get_request("/nope"));
        assert!(nope.starts_with("HTTP/1.1 404 "), "got: {nope}");

        // The admin plane is GET-only.
        let post = raw_request(admin, &soap_request("/metrics", false));
        assert!(post.starts_with("HTTP/1.1 405 "), "got: {post}");
    }

    #[test]
    fn slow_requests_are_retained_with_exemplars() {
        let net = echo_net();
        let server = Server::bind(
            &net,
            ServeConfig {
                observe: ObsConfig {
                    // Everything counts as slow: every request must be
                    // retained in full and attached as an exemplar.
                    slow_threshold_us: 0,
                    ..ObsConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let admin = server.admin_addr();
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");

        let trace = raw_request(admin, &get_request("/debug/trace"));
        assert!(trace.starts_with("HTTP/1.1 200 OK\r\n"), "got: {trace}");
        let body = trace.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("\"traces\":["), "got: {body}");
        assert!(body.contains("\"slow\":true"), "got: {body}");
        assert!(body.contains("/services/echo"), "got: {body}");
        assert!(body.contains("serve:request"), "got: {body}");

        let metrics = raw_request(admin, &get_request("/metrics"));
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# {seq=\""), "no exemplar in: {body}");

        let plane = server.plane();
        assert!(!plane.recorder().is_empty());
        assert!(plane.recorder().dump().iter().all(|t| t.slow));
    }

    #[test]
    fn readiness_probe_failure_turns_readyz_503() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let admin = server.admin_addr();
        let healthy = StdArc::new(AtomicBool::new(true));
        let h = healthy.clone();
        server.plane().add_ready_probe(Box::new(move || {
            if h.load(Ordering::SeqCst) {
                Ok(())
            } else {
                Err("wal disk died".to_owned())
            }
        }));
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");
        healthy.store(false, Ordering::SeqCst);
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 503 "), "got: {ready}");
        assert!(ready.contains("wal disk died"), "got: {ready}");
    }

    /// The replication-aware readiness seam: a primary whose replicas fall
    /// more than `max_lag` records behind stops advertising ready, so a
    /// load balancer drains it before the unreplicated window grows.
    #[test]
    fn replica_lag_probe_gates_readyz() {
        use ogsa_xmldb::repl::{LoopbackFabric, ReplConfig, ReplicaNode, Replicator};
        use ogsa_xmldb::wal::WalOp;
        use ogsa_xmldb::{FsyncPolicy, WalObserver};

        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let admin = server.admin_addr();

        let fabric = LoopbackFabric::new();
        fabric.register("r1", ReplicaNode::new(FsyncPolicy::PerWrite));
        let repl = StdArc::new(Replicator::new(
            "primary",
            &["r1"],
            fabric.clone(),
            ReplConfig { quorum: 1 },
        ));
        let probe_repl = repl.clone();
        server
            .plane()
            .add_ready_probe(Box::new(move || probe_repl.lag_check(1)));

        let put = |key: &str| WalOp::Put {
            collection: "c".to_owned(),
            key: key.to_owned(),
            doc: ogsa_xml::Element::new("d"),
        };
        // In sync: ready.
        repl.on_append(&put("k1"), true);
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");

        // Partition the replica; writes pile up past the lag budget.
        fabric.sever("primary", "r1");
        repl.on_append(&put("k2"), true);
        repl.on_append(&put("k3"), true);
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 503 "), "got: {ready}");
        assert!(ready.contains("lag"), "got: {ready}");

        // Heal and catch up: ready again.
        fabric.heal("primary", "r1");
        assert!(repl.catch_up("r1"));
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let net = echo_net();
        let mut server = Server::bind(&net, ServeConfig::default()).unwrap();
        let addr = server.addr();
        let text = raw_request(addr, &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
        // Idempotent.
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly into a dead backlog; a write or
                // read must then fail fast.
                let mut c = TcpStream::connect(addr).unwrap();
                c.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                    .unwrap();
                let _ = c.write_all(b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
                let mut b = [0u8; 16];
                matches!(c.read(&mut b), Ok(0) | Err(_))
            }
        );
    }
}
