//! The serving tier: a real TCP listener in front of the container host.
//!
//! Threading model: one acceptor thread plus a small pool of workers.
//! Each worker owns its own epoll instance, its own connection table, and
//! its own dispatcher scratch buffers — accepted connections are handed
//! over round-robin through a mutex-guarded inbox plus an eventfd wake,
//! and from then on everything about a connection happens on one thread.
//! That per-worker sharding is what keeps the request path lock-free: the
//! only cross-thread touches after accept are the container handler's own
//! internals.
//!
//! Dispatch goes through [`Network::handler_for`]: the serving tier looks
//! up the handler bound at `{scheme}://{Host}{target}` and calls it
//! directly, bypassing the simulated wire. Real-socket serving charges no
//! virtual time and injects no simulated faults — the virtual-time twin
//! stays the paper-invariant instrument, this tier is the wall-clock one.
//!
//! On non-Linux hosts a portable fallback (blocking accept, one thread
//! per connection) provides the same API; the epoll path is the one the
//! benches gate.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ogsa_soap::Envelope;
use ogsa_telemetry::{MetricsRegistry, SpanKind};
use ogsa_transport::Network;

use crate::admin::{AdminDispatcher, AdminPlane, ObsConfig, ReadyState};
use crate::conn::{Conn, Dispatch, Request};
use crate::http;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Local address to listen on; port 0 picks a free port.
    pub addr: String,
    /// Worker event loops. Keep small on small hosts: each worker is a
    /// busy thread under load.
    pub workers: usize,
    /// When false every response carries `Connection: close` — the
    /// serving-tier analogue of running with the paper's socket caching
    /// disabled (§4.1.3).
    pub keep_alive: bool,
    /// Scheme used to reconstruct the bound address (`http` unless the
    /// container was deployed with a TLS policy).
    pub scheme: String,
    /// Live observability plane (admin port, wall-clock latency shards,
    /// flight recorder); it is always on.
    pub observe: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            keep_alive: true,
            scheme: "http".to_owned(),
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
    scheme: String,
    force_close: bool,
    plane: AdminPlane,
    /// This worker's index: its latency shard in `plane`.
    worker: usize,
    /// Scratch for the reconstructed bound address.
    addr_buf: String,
    /// Pooled response-serialisation buffer (`Envelope::to_wire_into`).
    body_buf: String,
}

impl Dispatcher {
    fn new(net: Network, config: &ServeConfig, plane: AdminPlane, worker: usize) -> Dispatcher {
        Dispatcher {
            net,
            scheme: config.scheme.clone(),
            force_close: !config.keep_alive,
            plane,
            worker,
            addr_buf: String::with_capacity(64),
            body_buf: String::with_capacity(4096),
        }
    }

    fn answer_error(&self, error: http::HttpError, keep_alive: bool, out: &mut Vec<u8>) {
        let status = error.status();
        self.net
            .telemetry()
            .metrics()
            .inc("serve.http_errors", &[("status", status_label(status))]);
        http::write_response(out, status, error.reason(), keep_alive, "");
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
        let keep_alive = keep_alive && !self.force_close;

        // SOAP dispatch is POST-only; GETs belong on the admin port.
        if req.method != http::Method::Post {
            span.set_attr("outcome", "method-not-allowed");
            return self.answer_error(http::HttpError::MethodNotAllowed, keep_alive, out);
        }

        let (Some(host), Ok(target)) = (
            req.host.and_then(|h| std::str::from_utf8(h).ok()),
            std::str::from_utf8(req.target),
        ) else {
            span.set_attr("outcome", "bad-request");
            return self.answer_error(http::HttpError::BadRequest, keep_alive, out);
        };
        self.addr_buf.clear();
        self.addr_buf.push_str(&self.scheme);
        self.addr_buf.push_str("://");
        self.addr_buf.push_str(host);
        self.addr_buf.push_str(target);

        let Some(handler) = self.net.handler_for(&self.addr_buf) else {
            span.set_attr("outcome", "not-found");
            metrics.inc("serve.http_errors", &[("status", "404")]);
            http::write_response(out, 404, "Not Found", keep_alive, "");
            return;
        };

        let envelope = match std::str::from_utf8(req.body)
            .ok()
            .and_then(|wire| Envelope::from_wire(wire).ok())
        {
            Some(env) => env,
            None => {
                span.set_attr("outcome", "bad-envelope");
                return self.answer_error(http::HttpError::BadRequest, keep_alive, out);
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
                metrics.inc("serve.http_errors", &[("status", "500")]);
                http::write_response(out, 500, "Internal Server Error", false, "");
            }
        }
    }
}

/// A running serving tier. Dropping (or calling [`Server::shutdown`])
/// stops the acceptor, drains the workers, and closes every connection.
pub struct Server {
    addr: SocketAddr,
    admin_addr: SocketAddr,
    plane: AdminPlane,
    stats: ServeStats,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    platform: platform::Shutdown,
}

impl Server {
    /// Bind the listener and start the acceptor + workers. Handlers are
    /// resolved per request, so services may be deployed on `net` before
    /// or after the server starts.
    pub fn bind(net: &Network, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = ServeStats {
            metrics: net.telemetry().metrics().clone(),
        };
        let admin_listener = TcpListener::bind(&config.observe.admin_addr)?;
        let admin_addr = admin_listener.local_addr()?;
        let plane = AdminPlane::new(config.workers, &config.observe, net.telemetry().clone());
        // Spans opened while serving carry wall timestamps from here on;
        // the deterministic exporters never render them.
        net.telemetry().set_wall_clock(true);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (threads, platform) = platform::start(
            net,
            &config,
            listener,
            admin_listener,
            &plane,
            shutdown.clone(),
        )?;
        plane.set_state(ReadyState::Ready);
        Ok(Server {
            addr,
            admin_addr,
            plane,
            stats,
            shutdown,
            threads,
            platform,
        })
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
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.plane.set_state(ReadyState::Draining);
        self.platform.wake_all(self.addr);
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

mod platform {
    //! The nonblocking acceptor and the per-worker epoll event loops.

    use super::*;
    use crate::epoll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::os::fd::AsRawFd;

    /// Token reserved for each loop's eventfd; connections start above it.
    const WAKE: u64 = 0;
    /// Acceptor tokens for the service and admin listeners.
    const SERVICE_LISTENER: u64 = 1;
    const ADMIN_LISTENER: u64 = 2;

    /// Handles the shutdown path needs to reach from the control thread.
    pub(super) struct Shutdown {
        wakes: Vec<Arc<EventFd>>,
    }

    impl Shutdown {
        pub(super) fn wake_all(&self, _addr: SocketAddr) {
            for w in &self.wakes {
                w.wake();
            }
        }
    }

    struct WorkerShared {
        wake: Arc<EventFd>,
        /// Accepted connections awaiting pickup; the bool marks admin-port
        /// connections, which dispatch to the [`AdminDispatcher`].
        inbox: Mutex<Vec<(TcpStream, bool)>>,
    }

    pub(super) fn start(
        net: &Network,
        config: &ServeConfig,
        listener: TcpListener,
        admin_listener: TcpListener,
        plane: &AdminPlane,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<(Vec<JoinHandle<()>>, Shutdown)> {
        listener.set_nonblocking(true)?;
        admin_listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        let mut shared = Vec::with_capacity(workers);
        let mut wakes = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let ws = Arc::new(WorkerShared {
                wake: Arc::new(EventFd::new()?),
                inbox: Mutex::new(Vec::new()),
            });
            wakes.push(ws.wake.clone());
            shared.push(ws.clone());
            let dispatcher = Dispatcher::new(net.clone(), config, plane.clone(), i);
            let admin_dispatcher = AdminDispatcher {
                plane: plane.clone(),
            };
            let plane = plane.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ogsa-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(ws, i, dispatcher, admin_dispatcher, plane, shutdown)
                    })?,
            );
        }

        let accept_wake = Arc::new(EventFd::new()?);
        wakes.push(accept_wake.clone());
        {
            let plane = plane.clone();
            let metrics = net.telemetry().metrics().clone();
            threads.push(
                std::thread::Builder::new()
                    .name("ogsa-serve-accept".into())
                    .spawn(move || {
                        accept_loop(
                            listener,
                            admin_listener,
                            plane,
                            shared,
                            accept_wake,
                            shutdown,
                            metrics,
                        )
                    })?,
            );
        }
        Ok((threads, Shutdown { wakes }))
    }

    /// Drain one listener's accept backlog, handing connections to the
    /// workers round-robin. Returns the advanced round-robin cursor.
    fn drain_accepts(
        listener: &TcpListener,
        is_admin: bool,
        workers: &[Arc<WorkerShared>],
        plane: &AdminPlane,
        metrics: &MetricsRegistry,
        mut next: usize,
    ) -> usize {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    metrics.inc("serve.accepted", &[]);
                    let idx = next % workers.len();
                    let w = &workers[idx];
                    next += 1;
                    let depth = {
                        let mut inbox = w.inbox.lock();
                        inbox.push((stream, is_admin));
                        inbox.len() as u64
                    };
                    plane
                        .worker(idx)
                        .pending_handoffs
                        .store(depth, Ordering::Relaxed);
                    w.wake.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (e.g.
                // ECONNABORTED, EMFILE) must not kill the acceptor.
                Err(_) => break,
            }
        }
        next
    }

    fn accept_loop(
        listener: TcpListener,
        admin_listener: TcpListener,
        plane: AdminPlane,
        workers: Vec<Arc<WorkerShared>>,
        wake: Arc<EventFd>,
        shutdown: Arc<AtomicBool>,
        metrics: MetricsRegistry,
    ) {
        let Ok(ep) = Epoll::new() else { return };
        for (fd, token) in [
            (listener.as_raw_fd(), SERVICE_LISTENER),
            (admin_listener.as_raw_fd(), ADMIN_LISTENER),
            (wake.raw(), WAKE),
        ] {
            if ep.add(fd, EPOLLIN, token).is_err() {
                return;
            }
        }
        let mut events = [EpollEvent::zeroed(); 16];
        let mut next = 0usize;
        while !shutdown.load(Ordering::SeqCst) {
            let n = match ep.wait(&mut events, -1) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let (listener, is_admin) = match ev.parts().0 {
                    WAKE => {
                        wake.drain();
                        continue;
                    }
                    ADMIN_LISTENER => (&admin_listener, true),
                    _ => (&listener, false),
                };
                next = drain_accepts(listener, is_admin, &workers, &plane, &metrics, next);
            }
        }
    }

    struct Entry {
        conn: Conn,
        wants_write: bool,
        admin: bool,
    }

    fn worker_loop(
        shared: Arc<WorkerShared>,
        index: usize,
        mut dispatcher: Dispatcher,
        mut admin_dispatcher: AdminDispatcher,
        plane: AdminPlane,
        shutdown: Arc<AtomicBool>,
    ) {
        let Ok(ep) = Epoll::new() else { return };
        if ep.add(shared.wake.raw(), EPOLLIN, WAKE).is_err() {
            return;
        }
        let gauges = plane.worker(index);
        let mut conns: HashMap<u64, Entry> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut events = [EpollEvent::zeroed(); 256];
        loop {
            let n = match ep.wait(&mut events, -1) {
                Ok(n) => n,
                Err(_) => return,
            };
            gauges.wakeups.fetch_add(1, Ordering::Relaxed);
            for ev in &events[..n] {
                let (token, bits) = ev.parts();
                if token == WAKE {
                    shared.wake.drain();
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let fresh = std::mem::take(&mut *shared.inbox.lock());
                    // Depth of the hand-off queue at wake: how far the
                    // acceptor ran ahead of this worker.
                    gauges
                        .queue_depth
                        .store(fresh.len() as u64, Ordering::Relaxed);
                    gauges.pending_handoffs.store(0, Ordering::Relaxed);
                    for (stream, admin) in fresh {
                        let Ok(conn) = Conn::new(stream) else {
                            continue;
                        };
                        let token = next_token;
                        next_token += 1;
                        if ep
                            .add(conn.stream().as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                            .is_ok()
                        {
                            conns.insert(
                                token,
                                Entry {
                                    conn,
                                    wants_write: false,
                                    admin,
                                },
                            );
                        }
                    }
                    gauges
                        .connections
                        .store(conns.len() as u64, Ordering::Relaxed);
                    continue;
                }
                let Some(entry) = conns.get_mut(&token) else {
                    continue;
                };
                let advance = if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    crate::conn::Advance::Closed
                } else if entry.admin {
                    entry.conn.advance(&mut admin_dispatcher)
                } else {
                    entry.conn.advance(&mut dispatcher)
                };
                match advance {
                    crate::conn::Advance::Closed => {
                        if let Some(entry) = conns.remove(&token) {
                            ep.delete(entry.conn.stream().as_raw_fd());
                        }
                        gauges
                            .connections
                            .store(conns.len() as u64, Ordering::Relaxed);
                    }
                    crate::conn::Advance::Open { wants_write } => {
                        if wants_write != entry.wants_write {
                            entry.wants_write = wants_write;
                            let mut interest = EPOLLIN | EPOLLRDHUP;
                            if wants_write {
                                interest |= crate::epoll::EPOLLOUT;
                            }
                            let _ = ep.modify(entry.conn.stream().as_raw_fd(), interest, token);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::Element;
    use std::io::{Read, Write};
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
    fn keep_alive_false_forces_connection_close() {
        let net = echo_net();
        let server = Server::bind(
            &net,
            ServeConfig {
                keep_alive: false,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Client asks for keep-alive; the ablation config overrides.
        let text = raw_request(server.addr(), &soap_request("/services/echo", true));
        assert!(text.contains("Connection: close"), "got: {text}");
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

        let vars = raw_request(admin, &get_request("/vars"));
        let body = vars.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with('{'), "got: {body}");
        assert!(body.contains("\"state\":\"ready\""), "got: {body}");
        assert!(body.contains("\"workers\":["), "got: {body}");

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
            ReplConfig {
                quorum: 1,
                max_retries: 2,
            },
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
