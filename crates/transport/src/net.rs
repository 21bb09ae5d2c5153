//! The network: endpoint registry, ports, and the three bindings.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SendError, Sender};
use std::sync::Arc;

use ogsa_sim::rng::mix64;
use ogsa_sim::{CostModel, SimDuration, SimInstant, VirtualClock};
use ogsa_soap::Envelope;
use ogsa_telemetry::{Span, SpanId, SpanKind, Telemetry, TraceId};
use ogsa_xml::{pooled_string, PooledString};
use parking_lot::{Mutex, RwLock};

use crate::error::TransportError;
use crate::fault::{DeadLetter, FaultDecision, FaultKind, FaultPlan};
use crate::retry::RetryPolicy;
use crate::stats::NetStats;

/// A service-side message handler. Receives the parsed request envelope and
/// produces the response envelope (which may carry a SOAP fault).
pub type Handler = Arc<dyn Fn(Envelope) -> Envelope + Send + Sync>;

/// A one-way consumer (notification receiver). No response.
pub type OnewayHandler = Arc<dyn Fn(Envelope) + Send + Sync>;

enum Endpoint {
    RequestResponse(Handler),
    Oneway(OnewayHandler),
}

struct OnewayJob {
    to: String,
    wire: String,
    from_host: String,
    /// Per-edge sequence number drawn on the sender's thread, so fault
    /// decisions for this message (and all its redelivery attempts) are
    /// fixed at send time, independent of worker-thread interleaving.
    seq: u64,
    /// Simulated time of the original send.
    enqueued_at: SimInstant,
    /// Logical time of *this* attempt: `enqueued_at` plus every backoff and
    /// injected delay charged so far. Partition windows are evaluated
    /// against this, not against racy live reads of the shared clock.
    logical_at: SimInstant,
    /// 1-based delivery attempt.
    attempt: u32,
    /// When present, failed attempts are redelivered with backoff until
    /// `policy.max_attempts`, then dead-lettered. When absent the message
    /// is fire-and-forget: a lost attempt is simply lost.
    policy: Option<RetryPolicy>,
    /// The sender's causal context, captured at send time: every delivery
    /// attempt of this message becomes a child span of the span that sent
    /// it, even when delivery happens on the worker thread.
    trace: Option<(TraceId, SpanId)>,
}

/// Result of one delivery attempt of a one-way job.
enum OnewayOutcome {
    /// Delivered, lost for good, or dead-lettered.
    Terminal,
    /// Failed within the redelivery budget: deliver this job again.
    Retry(OnewayJob),
}

/// In-flight one-way message count with a worker-idle signal: the delivery
/// worker notifies the condvar whenever the count drains to zero, so
/// [`Network::quiesce`] blocks on the signal instead of sleep-polling
/// wall-clock time (which flaked on slow machines and put a wall-clock
/// dependency inside an otherwise virtual-time simulation).
#[derive(Default)]
struct PendingOneways {
    count: std::sync::Mutex<u64>,
    idle: std::sync::Condvar,
}

impl PendingOneways {
    fn count(&self) -> std::sync::MutexGuard<'_, u64> {
        self.count.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A one-way message was accepted for background delivery.
    fn accept(&self) {
        *self.count() += 1;
    }

    /// A previously accepted message reached a terminal state.
    fn resolve(&self) {
        let mut count = self.count();
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.idle.notify_all();
        }
    }

    fn current(&self) -> u64 {
        *self.count()
    }

    /// Wait for the count to drain to zero, or `timeout` (`None`: however
    /// long that takes).
    fn wait_idle(&self, timeout: Option<std::time::Duration>) -> bool {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut count = self.count();
        while *count > 0 {
            count = match deadline {
                None => self.idle.wait(count).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    let Some(remaining) = deadline.checked_duration_since(now) else {
                        return false;
                    };
                    let waited = self.idle.wait_timeout(count, remaining);
                    waited.unwrap_or_else(|p| p.into_inner()).0
                }
            };
        }
        true
    }
}

struct NetInner {
    clock: VirtualClock,
    model: Arc<CostModel>,
    endpoints: RwLock<HashMap<String, Endpoint>>,
    /// Established TLS sessions, by `edge_key` of (client, server host).
    tls_sessions: Mutex<HashSet<String>>,
    /// Pooled connections, by `edge_key` of (client, server host, scheme).
    connections: Mutex<HashSet<String>>,
    /// Toggle for the HTTPS socket/session cache (ablation).
    tls_session_cache: RwLock<bool>,
    stats: NetStats,
    /// The delivery worker's queue; `None` when no worker could be
    /// started, and one-ways then deliver inline on the sender's thread.
    oneway_tx: Mutex<Option<Sender<OnewayJob>>>,
    /// Armed fault schedule, if any.
    fault_plan: RwLock<Option<FaultPlan>>,
    /// Per-edge message sequence numbers feeding the fault plan's pure
    /// decision function, by `edge_key` of (sending host, destination).
    edge_seqs: Mutex<HashMap<String, u64>>,
    /// Messages that exhausted their redelivery budget.
    dead_letters: Mutex<Vec<DeadLetter>>,
    /// One-way messages accepted but not yet terminally resolved
    /// (delivered, dropped for good, or dead-lettered), with the
    /// worker-idle signal `quiesce` drains on.
    pending_oneways: PendingOneways,
    /// Causal tracing + metrics handle shared with the rest of the substrate.
    tel: Telemetry,
    /// When set, one-way sends deliver inline on the sender's thread instead
    /// of the background worker, making a whole run single-threaded — the
    /// mode the bench and determinism tests use so span timestamps (virtual
    /// clock reads) are reproducible.
    sync_oneways: AtomicBool,
}

/// The simulated network. Cloning shares the wire.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl Network {
    pub fn new(clock: VirtualClock, model: Arc<CostModel>) -> Self {
        let tel = Telemetry::new(clock.clone());
        Network::with_telemetry(clock, model, tel)
    }

    /// A network recording spans and metrics into a caller-provided
    /// [`Telemetry`] handle (which should share `clock`, so span timestamps
    /// and wire costs land on the same timeline).
    pub fn with_telemetry(clock: VirtualClock, model: Arc<CostModel>, tel: Telemetry) -> Self {
        let inner = Arc::new(NetInner {
            clock,
            model,
            endpoints: RwLock::new(HashMap::new()),
            tls_sessions: Mutex::new(HashSet::new()),
            connections: Mutex::new(HashSet::new()),
            tls_session_cache: RwLock::new(true),
            stats: NetStats::new(tel.metrics().clone()),
            oneway_tx: Mutex::new(None),
            fault_plan: RwLock::new(None),
            edge_seqs: Mutex::new(HashMap::new()),
            dead_letters: Mutex::new(Vec::new()),
            pending_oneways: PendingOneways::default(),
            tel,
            sync_oneways: AtomicBool::new(false),
        });
        let net = Network { inner };
        net.start_oneway_worker();
        net
    }

    /// A free network for functional tests.
    pub fn free() -> Self {
        Network::new(VirtualClock::new(), Arc::new(CostModel::free()))
    }

    /// Start the one-way delivery worker. If the thread cannot be spawned
    /// the network still works: without a worker queue every one-way is
    /// delivered inline, as under [`Network::set_synchronous_oneways`].
    fn start_oneway_worker(&self) {
        let (tx, rx) = mpsc::channel::<OnewayJob>();
        // Weak reference: the worker must not keep the network alive.
        let weak = Arc::downgrade(&self.inner);
        let spawned = std::thread::Builder::new()
            .name("ogsa-oneway-delivery".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let Some(inner) = weak.upgrade() else { break };
                    let net = Network { inner };
                    match net.deliver_oneway(job) {
                        OnewayOutcome::Terminal => {
                            net.inner.pending_oneways.resolve();
                        }
                        OnewayOutcome::Retry(job) => {
                            let requeued = net
                                .inner
                                .oneway_tx
                                .lock()
                                .as_ref()
                                .map(|tx| tx.send(job).is_ok())
                                .unwrap_or(false);
                            if !requeued {
                                net.inner.pending_oneways.resolve();
                            }
                        }
                    }
                }
            });
        if spawned.is_ok() {
            *self.inner.oneway_tx.lock() = Some(tx);
        }
    }

    /// Bind a request/response handler at `address`
    /// (e.g. `http://host-a/services/Counter`).
    pub fn bind(&self, address: &str, handler: Handler) {
        self.inner
            .endpoints
            .write()
            .insert(address.to_owned(), Endpoint::RequestResponse(handler));
    }

    /// Bind a one-way consumer at `address`
    /// (e.g. `tcp://client-1/notifications`).
    pub fn bind_oneway(&self, address: &str, handler: OnewayHandler) {
        self.inner
            .endpoints
            .write()
            .insert(address.to_owned(), Endpoint::Oneway(handler));
    }

    /// Remove a binding.
    pub fn unbind(&self, address: &str) {
        self.inner.endpoints.write().remove(address);
    }

    /// Look up the request/response handler bound at `address`, if any.
    /// The real-socket serving tier uses this to dispatch straight into
    /// the container pipeline without crossing the simulated wire (no
    /// virtual-time charges, no simulated-fault injection).
    pub fn handler_for(&self, address: &str) -> Option<Handler> {
        match self.inner.endpoints.read().get(address) {
            Some(Endpoint::RequestResponse(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// A client port stationed on `host`.
    pub fn port(&self, host: &str) -> Port {
        Port {
            net: self.clone(),
            host: host.to_owned(),
        }
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    pub fn model(&self) -> &CostModel {
        &self.inner.model
    }

    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// The causal-tracing and metrics handle wired to this network.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.tel
    }

    /// Deliver one-way messages inline on the sender's thread instead of on
    /// the background worker. The whole run becomes single-threaded, so the
    /// virtual-clock timestamps in spans are deterministic and two runs of
    /// the same seed produce byte-identical span dumps.
    pub fn set_synchronous_oneways(&self, on: bool) {
        self.inner.sync_oneways.store(on, Ordering::SeqCst);
    }

    /// Enable/disable the HTTPS session cache (the paper's "socket caching").
    /// Turning it off evicts cached sessions *and* zeroes the connection
    /// counters, so an ablation measured after a warm run starts from a
    /// genuinely cold ledger.
    pub fn set_tls_session_cache(&self, enabled: bool) {
        *self.inner.tls_session_cache.write() = enabled;
        if !enabled {
            self.inner.tls_sessions.lock().clear();
            self.inner.stats.reset_connection_counters();
        }
    }

    /// Forget all pooled connections and TLS sessions (cold start). Also
    /// zeroes the connection counters (`connects`, `tls_handshakes`,
    /// `tls_resumptions`): stats accumulated while the pools were warm
    /// would otherwise leak into whatever cold-start measurement follows.
    pub fn reset_connections(&self) {
        self.inner.connections.lock().clear();
        self.inner.tls_sessions.lock().clear();
        self.inner.stats.reset_connection_counters();
    }

    // ---- fault injection ---------------------------------------------------

    /// Arm a fault schedule. Every message from now on is judged by `plan`.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.inner.fault_plan.write() = Some(plan);
    }

    /// Disarm fault injection; the wire goes back to perfect.
    pub fn clear_fault_plan(&self) {
        *self.inner.fault_plan.write() = None;
    }

    /// The armed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan.read().clone()
    }

    /// Messages that exhausted their redelivery budget, in the order they
    /// were given up on.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.dead_letters.lock().clone()
    }

    /// How many one-way messages are accepted but not yet terminally
    /// resolved (delivered, dropped for good, or dead-lettered).
    pub fn pending_oneways(&self) -> u64 {
        self.inner.pending_oneways.current()
    }

    /// Block until every accepted one-way message reaches a terminal state,
    /// woken by the delivery worker's idle signal (no sleep-polling, no
    /// machine-speed sensitivity). Returns `true` when drained; the timeout
    /// is purely a liveness backstop against a wedged worker. After a `true`
    /// return, delivery counts, dead letters, and stats are final.
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        self.inner.pending_oneways.wait_idle(Some(timeout))
    }

    /// [`Network::quiesce`] without the backstop: wait on the worker-idle
    /// signal however long the drain takes.
    pub fn drain(&self) {
        self.inner.pending_oneways.wait_idle(None);
    }

    // ---- external in-flight work -------------------------------------------

    /// Register one unit of in-flight work that lives *outside* the wire
    /// layer — e.g. a notification parked in a fan-out outbox awaiting a
    /// coalesced drain. While any external work is open, [`Network::quiesce`]
    /// and [`Network::drain`] block, exactly as they do for accepted one-way
    /// messages; the unit also shows up in [`Network::pending_oneways`].
    pub fn begin_external_work(&self) {
        self.inner.pending_oneways.accept();
    }

    /// Resolve one unit of external work opened by
    /// [`Network::begin_external_work`]. Call only after any follow-on wire
    /// sends have been accepted, so the network never looks momentarily idle
    /// mid-hand-off.
    pub fn end_external_work(&self) {
        self.inner.pending_oneways.resolve();
    }

    /// Record a dead letter decided *outside* the wire retry machinery —
    /// e.g. a notification evicted from a bounded fan-out outbox by
    /// backpressure. Counted in the `oneway.dead_letters` metric and the
    /// [`Network::dead_letters`] record like any wire-level dead letter.
    pub fn record_dead_letter(&self, letter: DeadLetter) {
        self.inner
            .tel
            .metrics()
            .inc("oneway.dead_letters", &[("reason", letter.reason.label())]);
        self.inner.dead_letters.lock().push(letter);
    }

    /// Judge a raw (non-SOAP) transfer from host `from` to host `to_host`
    /// against the armed fault plan, WITHOUT charging the virtual clock and
    /// without touching the SOAP per-edge sequence streams: the decision is
    /// drawn on a distinct `repl://{to_host}` edge. Replication shipping
    /// uses this, so arming a fault plan perturbs the replication stream
    /// with the same seeded schedule machinery as port calls while the
    /// virtual-time figures stay byte-identical with replication enabled —
    /// and the SOAP fault schedule never shifts underneath existing tests.
    pub fn judge_raw(&self, from: &str, to_host: &str) -> FaultDecision {
        self.armed_plan().map_or(FaultDecision::default(), |p| {
            let seq = self.next_edge_seq(from, &format!("repl://{to_host}"));
            p.decide(from, to_host, seq, self.inner.clock.now())
        })
    }

    /// The armed fault plan, unless it is benign. Bound once per message:
    /// only a decision drawn from it can garble, and it does the garbling.
    fn armed_plan(&self) -> Option<FaultPlan> {
        self.inner
            .fault_plan
            .read()
            .clone()
            .filter(|p| !p.is_benign())
    }

    fn count(&self, name: &str) {
        self.inner.tel.metrics().inc(name, &[]);
    }

    /// One more `kind` message and its bytes, landing together.
    fn count_message(&self, kind: &str, bytes: usize) {
        let deltas = [(kind, 1), ("net.bytes", bytes as u64)];
        self.inner.tel.metrics().add_all(&[], &deltas);
    }

    /// Next per-edge sequence number for a message from `from` to the
    /// destination address `to`.
    fn next_edge_seq(&self, from: &str, to: &str) -> u64 {
        let key = edge_key(&[from, to]);
        let mut seqs = self.inner.edge_seqs.lock();
        if let Some(seq) = seqs.get_mut(key.as_str()) {
            *seq += 1;
            return *seq - 1;
        }
        seqs.insert(key.as_str().to_owned(), 1);
        0
    }

    // ---- internals ---------------------------------------------------------

    fn scheme_and_host(address: &str) -> (&str, &str) {
        let (scheme, rest) = address.split_once("://").unwrap_or(("http", address));
        let host = rest.split('/').next().unwrap_or(rest);
        (scheme, host)
    }

    /// Charge connection-establishment costs for `from → to` over `scheme`,
    /// honouring the connection pool and the TLS session cache.
    fn charge_connection(&self, from: &str, to: &str, scheme: &str) {
        let m = &self.inner.model;
        // Decide under each lock, charge after releasing it: the pool and
        // session caches are network-global, and holding them across a
        // charged handshake would serialise unrelated clients' connection
        // setup (the lock-hold-across-charged-work pattern the container
        // dispatch path is audited for). Two clients racing the same fresh
        // edge each pay the full setup — exactly what a real pool does.
        let fresh_connection = first_sighting(&self.inner.connections, &[from, to, scheme]);
        if fresh_connection {
            self.inner
                .clock
                .advance(SimDuration::from_micros(m.tcp_connect_us));
            self.count("net.connects");
        }
        if scheme == "https" {
            let cache_enabled = *self.inner.tls_session_cache.read();
            let resumed = cache_enabled && !first_sighting(&self.inner.tls_sessions, &[from, to]);
            if resumed {
                let _s = self.inner.tel.span(SpanKind::Security, "tls:resume");
                self.inner
                    .clock
                    .advance(SimDuration::from_micros(m.tls_resume_us));
                self.count("net.tls_resumptions");
            } else {
                let _s = self.inner.tel.span(SpanKind::Security, "tls:handshake");
                self.inner
                    .clock
                    .advance(SimDuration::from_micros(m.tls_handshake_us));
                self.count("net.tls_handshakes");
            }
        }
    }

    /// Charge the one-way wire cost for a message of `bytes` from `from` to
    /// `to_host` over `scheme`.
    fn charge_wire(&self, bytes: usize, from: &str, to_host: &str, scheme: &str) {
        let m = &self.inner.model;
        let distributed = from != to_host;
        self.inner.clock.advance(m.wire_time(bytes, distributed));
        if scheme == "https" {
            self.inner.clock.advance(m.tls_record_time(bytes));
        }
    }

    /// Inline delivery: the attempt (and any redeliveries) resolve before
    /// this returns, on the caller's thread and clock.
    fn deliver_inline(&self, mut job: OnewayJob) {
        while let OnewayOutcome::Retry(next) = self.deliver_oneway(job) {
            job = next;
        }
    }

    /// Deliver one attempt of a one-way job. [`OnewayOutcome::Terminal`]
    /// means the job resolved (delivered, lost for good, or dead-lettered);
    /// [`OnewayOutcome::Retry`] hands the job back for its next attempt.
    /// Each attempt is one `Delivery` span, joined to the sender's trace
    /// when the job carries one; injected faults, backoffs, and dead
    /// letters become span events.
    fn deliver_oneway(&self, job: OnewayJob) -> OnewayOutcome {
        let m = self.inner.model.clone();
        let (scheme, to_host) = {
            let (s, h) = Self::scheme_and_host(&job.to);
            (s.to_owned(), h.to_owned())
        };
        let tel = self.inner.tel.clone();
        let mut span = match job.trace {
            Some((trace, parent)) => {
                tel.child_span(SpanKind::Delivery, "oneway:deliver", trace, Some(parent))
            }
            None => tel.span(SpanKind::Delivery, "oneway:deliver"),
        };
        span.set_attr("to", &job.to);
        let attempt = job.attempt.to_string();
        span.set_attr("attempt", &attempt);
        tel.metrics().inc("oneway.attempts", &[("scheme", &scheme)]);

        // Judge this attempt. The draw folds the attempt number into the
        // sequence so each redelivery is judged independently, and salts
        // the mix so one-way traffic decorrelates from request traffic on
        // the same host pair.
        let plan = self.armed_plan();
        let decision = plan.as_ref().map_or(FaultDecision::default(), |p| {
            let seq = mix64(&[job.seq, u64::from(job.attempt), ONEWAY_SALT]);
            p.decide(&job.from_host, &to_host, seq, job.logical_at)
        });

        if decision.partitioned {
            // Connect refused; nothing reaches the wire.
            self.inner
                .clock
                .advance(SimDuration::from_micros(m.tcp_connect_us));
            self.count("net.partition_refusals");
            span.event("fault:partition");
            return self.fail_oneway_attempt(job, FaultKind::Partition, &mut span);
        }

        // Connection + per-send overhead: raw TCP (the WSE SoapReceiver
        // path) keeps a persistent socket; HTTP delivery targets the
        // client's embedded custom HTTP server, which does not keep
        // connections alive — every notification reconnects (the paper's
        // "TCP vs. HTTP issue").
        if scheme == "tcp" {
            self.charge_connection(&job.from_host, &to_host, &scheme);
        } else {
            self.inner
                .clock
                .advance(SimDuration::from_micros(m.tcp_connect_us));
            self.count("net.connects");
        }
        let overhead = if scheme == "tcp" {
            m.tcp_send_overhead_us
        } else {
            m.http_request_overhead_us
        };
        self.inner.clock.advance(SimDuration::from_micros(overhead));
        if let Some(extra) = decision.delay {
            self.inner.clock.advance(extra);
            self.count("net.injected_delays");
            let extra_us = extra.as_micros().to_string();
            span.event_with("fault:delay", &[("extra_us", &extra_us)]);
        }
        self.charge_wire(job.wire.len(), &job.from_host, &to_host, &scheme);
        self.count_message("net.oneways", job.wire.len());

        if decision.drop {
            self.count("net.injected_drops");
            span.event("fault:drop");
            return self.fail_oneway_attempt(job, FaultKind::Drop, &mut span);
        }

        // Receiver-side parse (of corrupted bytes, if garbled in flight).
        let parsed = match (&plan, decision.garble) {
            (Some(plan), true) => {
                self.count("net.injected_garbles");
                span.event("fault:garble");
                Envelope::from_wire(&plan.garble_wire(&job.wire, job.seq))
            }
            _ => Envelope::from_wire(&job.wire),
        };
        let env = match parsed {
            Ok(env) => env,
            // Fire-and-forget garbage is dropped silently, like UDP-ish
            // one-ways; reliable sends treat the missing ack as a failed
            // attempt and redeliver.
            Err(_) => return self.fail_oneway_attempt(job, FaultKind::Garble, &mut span),
        };
        self.inner.clock.advance(m.soap_time(job.wire.len()));
        let handler = {
            let endpoints = self.inner.endpoints.read();
            match endpoints.get(&job.to) {
                Some(Endpoint::Oneway(h)) => Some(h.clone()),
                _ => None,
            }
        };
        let Some(h) = handler else {
            // Nobody bound. A reliable send keeps trying — the subscriber
            // may heal within the redelivery budget.
            span.event("unbound_consumer");
            return self.fail_oneway_attempt(job, FaultKind::Drop, &mut span);
        };
        if decision.duplicate {
            // A second copy of the same bytes arrives back-to-back.
            self.inner.clock.advance(SimDuration::from_micros(overhead));
            self.charge_wire(job.wire.len(), &job.from_host, &to_host, &scheme);
            self.count_message("net.oneways", job.wire.len());
            self.count("net.injected_duplicates");
            self.inner.clock.advance(m.soap_time(job.wire.len()));
            span.event("fault:duplicate");
            tel.metrics()
                .inc("oneway.delivered", &[("scheme", &scheme)]);
            h(env.clone());
        }
        tel.metrics()
            .inc("oneway.delivered", &[("scheme", &scheme)]);
        h(env);
        OnewayOutcome::Terminal
    }

    /// A delivery attempt failed. Fire-and-forget jobs are simply lost;
    /// reliable jobs back off and come back as [`OnewayOutcome::Retry`]
    /// until the policy's budget is exhausted, then land in the dead-letter
    /// record. Every backoff and every dead letter is stamped on the
    /// attempt's span and counted in the metrics registry.
    fn fail_oneway_attempt(
        &self,
        mut job: OnewayJob,
        reason: FaultKind,
        span: &mut Span,
    ) -> OnewayOutcome {
        let metrics = self.inner.tel.metrics();
        let Some(policy) = job.policy.clone() else {
            metrics.inc("oneway.lost", &[("reason", reason.label())]);
            return OnewayOutcome::Terminal;
        };
        if job.attempt >= policy.max_attempts {
            let attempts = job.attempt.to_string();
            span.event_with(
                "dead_letter",
                &[("reason", reason.label()), ("attempts", &attempts)],
            );
            metrics.inc("oneway.dead_letters", &[("reason", reason.label())]);
            self.inner.dead_letters.lock().push(DeadLetter {
                to: job.to.clone(),
                from_host: job.from_host.clone(),
                attempts: job.attempt,
                reason,
                enqueued_at: job.enqueued_at,
                wire_bytes: job.wire.len(),
            });
            return OnewayOutcome::Terminal;
        }
        let backoff = policy.backoff(job.attempt);
        let backoff_us = backoff.as_micros().to_string();
        span.event_with(
            "retry:backoff",
            &[("reason", reason.label()), ("backoff_us", &backoff_us)],
        );
        self.inner.clock.advance(backoff);
        metrics.inc("oneway.redeliveries", &[("reason", reason.label())]);
        job.logical_at = job.logical_at.plus(backoff);
        job.attempt += 1;
        OnewayOutcome::Retry(job)
    }
}

/// `parts` as one key in a pooled buffer, so looking an edge up allocates
/// nothing; each part follows its length, so no two lists share a key.
fn edge_key(parts: &[&str]) -> PooledString {
    let mut key = pooled_string();
    for part in parts {
        let _ = write!(key, "{}:{part}", part.len());
    }
    key
}

/// Whether `set` had not held the edge `parts` yet; it does now.
fn first_sighting(set: &Mutex<HashSet<String>>, parts: &[&str]) -> bool {
    let key = edge_key(parts);
    let mut set = set.lock();
    !set.contains(key.as_str()) && set.insert(key.as_str().to_owned())
}

/// Salt decorrelating one-way fault draws from request/response draws on
/// the same host pair.
const ONEWAY_SALT: u64 = 0x6f6e_6577; // "onew"

/// A client-side port: the pair (network, host the client runs on).
#[derive(Clone)]
pub struct Port {
    net: Network,
    host: String,
}

impl Port {
    pub fn host(&self) -> &str {
        &self.host
    }

    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Synchronous request/response call: serialise, charge the wire both
    /// ways, run the service handler inline (its own costs land on the same
    /// clock), parse the response.
    pub fn call(&self, address: &str, request: Envelope) -> Result<Envelope, TransportError> {
        self.call_with_deadline(address, request, None)
    }

    /// [`Port::call`] with a per-attempt simulated-time budget. When the
    /// armed fault plan loses or over-delays the request, the caller burns
    /// `deadline` of simulated time and gets `TransportError::Timeout`
    /// (retryable) instead of blocking forever on a response that will
    /// never come. Without a deadline, a lost request surfaces immediately
    /// as `TransportError::Dropped`.
    pub fn call_with_deadline(
        &self,
        address: &str,
        request: Envelope,
        deadline: Option<SimDuration>,
    ) -> Result<Envelope, TransportError> {
        let inner = &self.net.inner;
        let m = inner.model.clone();
        let (scheme, to_host) = Network::scheme_and_host(address);

        // One Wire span per exchange: connection, overhead, both wire
        // crossings, and injected faults are its self time; SOAP codec work
        // and the server pipeline nest under it as children.
        let mut span = inner.tel.span(SpanKind::Wire, "net:call");
        span.set_attr("to", address);
        span.set_attr("scheme", scheme);

        // Client-side serialisation, into a pooled buffer reused across
        // calls on this thread (the virtual-time charge is unchanged: it is
        // keyed off the byte length, not how the buffer was obtained).
        let mut wire = pooled_string();
        {
            let _s = inner.tel.span(SpanKind::Soap, "soap:encode");
            request.to_wire_into(&mut wire);
            inner.clock.advance(m.soap_time(wire.len()));
        }

        // Judge this attempt before anything crosses the wire.
        let plan = self.net.armed_plan();
        let (decision, seq) = match &plan {
            Some(p) => {
                let seq = self.net.next_edge_seq(&self.host, address);
                (p.decide(&self.host, to_host, seq, inner.clock.now()), seq)
            }
            None => (FaultDecision::default(), 0),
        };

        if decision.partitioned {
            // Connect refused; nothing reaches the wire.
            inner
                .clock
                .advance(SimDuration::from_micros(m.tcp_connect_us));
            self.net.count("net.partition_refusals");
            span.event("fault:partition");
            return self.lost_request(address, deadline, &mut span);
        }

        // Connection + HTTP round-trip overhead.
        self.net.charge_connection(&self.host, to_host, scheme);
        inner
            .clock
            .advance(SimDuration::from_micros(m.http_request_overhead_us));

        // Request over the wire.
        self.net
            .charge_wire(wire.len(), &self.host, to_host, scheme);
        self.net.count_message("net.requests", wire.len());

        if decision.drop {
            // The request vanished in flight; the client waits in vain.
            self.net.count("net.injected_drops");
            span.event("fault:drop");
            return self.lost_request(address, deadline, &mut span);
        }
        if let Some(extra) = decision.delay {
            self.net.count("net.injected_delays");
            let extra_us = extra.as_micros().to_string();
            span.event_with("fault:delay", &[("extra_us", &extra_us)]);
            if let Some(d) = deadline {
                if extra >= d {
                    // The reply would land after the caller gave up.
                    inner.clock.advance(d);
                    span.event("timeout");
                    self.net.count("net.timeouts");
                    return Err(TransportError::Timeout {
                        address: address.to_owned(),
                        after: d,
                    });
                }
            }
            inner.clock.advance(extra);
        }
        if let (Some(plan), true) = (&plan, decision.garble) {
            self.net.count("net.injected_garbles");
            span.event("fault:garble");
            *wire = plan.garble_wire(&wire, seq);
        }

        // Server-side parse.
        let parsed = {
            let _s = inner.tel.span(SpanKind::Soap, "soap:decode");
            let parsed = Envelope::from_wire(&wire).map_err(|e| TransportError::WireGarbage {
                detail: e.to_string(),
            })?;
            inner.clock.advance(m.soap_time(wire.len()));
            parsed
        };

        // Locate and invoke the handler without holding the registry lock
        // (handlers make nested outcalls).
        let handler = {
            let endpoints = inner.endpoints.read();
            match endpoints.get(address) {
                Some(Endpoint::RequestResponse(h)) => h.clone(),
                Some(Endpoint::Oneway(_)) | None => {
                    return Err(TransportError::NoEndpoint {
                        address: address.to_owned(),
                    })
                }
            }
        };
        let response = handler(parsed);

        // Server-side serialisation, response wire, client-side parse.
        let mut resp_wire = pooled_string();
        {
            let _s = inner.tel.span(SpanKind::Soap, "soap:encode");
            response.to_wire_into(&mut resp_wire);
            inner.clock.advance(m.soap_time(resp_wire.len()));
        }
        self.net
            .charge_wire(resp_wire.len(), to_host, &self.host, scheme);
        self.net.count_message("net.responses", resp_wire.len());
        let _s = inner.tel.span(SpanKind::Soap, "soap:decode");
        let resp = Envelope::from_wire(&resp_wire).map_err(|e| TransportError::WireGarbage {
            detail: e.to_string(),
        })?;
        inner.clock.advance(m.soap_time(resp_wire.len()));
        Ok(resp)
    }

    /// How the caller observes a request that never reached the service:
    /// with a deadline it burns the budget and times out; without one it
    /// learns of the loss immediately.
    fn lost_request(
        &self,
        address: &str,
        deadline: Option<SimDuration>,
        span: &mut Span,
    ) -> Result<Envelope, TransportError> {
        match deadline {
            Some(d) => {
                self.net.inner.clock.advance(d);
                span.event("timeout");
                self.net.count("net.timeouts");
                Err(TransportError::Timeout {
                    address: address.to_owned(),
                    after: d,
                })
            }
            None => {
                span.event("dropped");
                Err(TransportError::Dropped {
                    address: address.to_owned(),
                })
            }
        }
    }

    /// Asynchronous one-way send (notification delivery). Returns
    /// immediately; a background worker charges the wire and invokes the
    /// consumer. Fire-and-forget: a lost message is simply lost.
    pub fn send_oneway(&self, address: &str, message: Envelope) {
        self.send_oneway_with_policy(address, message, None)
    }

    /// One-way send with optional redelivery: when `policy` is present,
    /// attempts lost to injected faults (or an unbound consumer) back off
    /// and redeliver up to `policy.max_attempts`, then land in the
    /// network's dead-letter record.
    pub fn send_oneway_with_policy(
        &self,
        address: &str,
        message: Envelope,
        policy: Option<RetryPolicy>,
    ) {
        let inner = &self.net.inner;
        let (scheme, _) = Network::scheme_and_host(address);
        // Capture the sender's causal context now: delivery attempts — on
        // whatever thread — become children of the span doing the send.
        let trace = inner.tel.current();
        // Sender-side serialisation happens on the caller's thread, and so
        // does the sequence draw — fault decisions for this message are
        // fixed at send time, whatever the worker thread is up to.
        let wire = {
            let _s = inner.tel.span(SpanKind::Soap, "soap:encode");
            let wire = message.to_wire();
            inner.clock.advance(inner.model.soap_time(wire.len()));
            wire
        };
        inner
            .tel
            .metrics()
            .inc("oneway.sent", &[("scheme", scheme)]);
        let seq = self.net.next_edge_seq(&self.host, address);
        let now = inner.clock.now();
        let mut job = OnewayJob {
            to: address.to_owned(),
            wire,
            from_host: self.host.clone(),
            seq,
            enqueued_at: now,
            logical_at: now,
            attempt: 1,
            policy,
            trace,
        };
        if inner.sync_oneways.load(Ordering::SeqCst) {
            return self.net.deliver_inline(job);
        }
        if let Some(tx) = inner.oneway_tx.lock().as_ref() {
            inner.pending_oneways.accept();
            match tx.send(job) {
                Ok(()) => return,
                Err(SendError(back)) => {
                    inner.pending_oneways.resolve();
                    job = back;
                }
            }
        }
        // No worker to hand the job to: deliver it here.
        self.net.deliver_inline(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::Element;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn echo_handler() -> Handler {
        Arc::new(|req: Envelope| {
            let mut body = req.body.clone();
            body.set_attr("echoed", "true");
            Envelope::new(body)
        })
    }

    #[test]
    fn request_response_roundtrip() {
        let net = Network::free();
        net.bind("http://host-a/svc", echo_handler());
        let port = net.port("host-a");
        let resp = port
            .call(
                "http://host-a/svc",
                Envelope::new(Element::text_element("Hi", "x")),
            )
            .unwrap();
        assert_eq!(resp.body.attr_local("echoed"), Some("true"));
        assert_eq!(resp.body.text(), "x");
    }

    #[test]
    fn missing_endpoint_errors() {
        let net = Network::free();
        let err = net
            .port("h")
            .call("http://h/ghost", Envelope::new(Element::new("X")))
            .unwrap_err();
        assert!(matches!(err, TransportError::NoEndpoint { .. }));
    }

    #[test]
    fn unbind_removes_endpoint() {
        let net = Network::free();
        net.bind("http://h/svc", echo_handler());
        net.unbind("http://h/svc");
        assert!(net
            .port("h")
            .call("http://h/svc", Envelope::new(Element::new("X")))
            .is_err());
    }

    #[test]
    fn distributed_costs_more_than_colocated() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model);
        net.bind("http://host-a/svc", echo_handler());

        // Warm both connections first so we compare steady-state.
        net.port("host-a")
            .call("http://host-a/svc", Envelope::new(Element::new("W")))
            .unwrap();
        net.port("host-b")
            .call("http://host-a/svc", Envelope::new(Element::new("W")))
            .unwrap();

        let co = net.port("host-a");
        let t0 = net.clock().now();
        co.call("http://host-a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        let co_cost = net.clock().now().since(t0);

        let dist = net.port("host-b");
        let t1 = net.clock().now();
        dist.call("http://host-a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        let dist_cost = net.clock().now().since(t1);

        assert!(dist_cost > co_cost, "{dist_cost:?} vs {co_cost:?}");
    }

    #[test]
    fn https_first_call_pays_handshake_then_resumes() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model.clone());
        net.bind("https://host-a/svc", echo_handler());
        let port = net.port("host-b");

        let t0 = net.clock().now();
        port.call("https://host-a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        let first = net.clock().now().since(t0);

        let t1 = net.clock().now();
        port.call("https://host-a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        let second = net.clock().now().since(t1);

        assert!(first.as_micros() > second.as_micros() + model.tls_handshake_us / 2);
        assert_eq!(net.stats().tls_handshakes(), 1);
        assert_eq!(net.stats().tls_resumptions(), 1);
    }

    #[test]
    fn disabling_session_cache_pays_handshake_every_time() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model);
        net.set_tls_session_cache(false);
        net.bind("https://host-a/svc", echo_handler());
        let port = net.port("host-b");
        for _ in 0..3 {
            port.call("https://host-a/svc", Envelope::new(Element::new("X")))
                .unwrap();
        }
        assert_eq!(net.stats().tls_handshakes(), 3);
        assert_eq!(net.stats().tls_resumptions(), 0);
    }

    #[test]
    fn oneway_delivery_reaches_consumer() {
        let net = Network::free();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        net.bind_oneway(
            "tcp://client-1/notify",
            Arc::new(move |env: Envelope| {
                assert_eq!(env.body.text(), "ding");
                hits2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        net.port("host-a").send_oneway(
            "tcp://client-1/notify",
            Envelope::new(Element::text_element("N", "ding")),
        );
        // Wait for the background worker.
        for _ in 0..200 {
            if hits.load(Ordering::SeqCst) == 1 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("one-way message never delivered");
    }

    #[test]
    fn tcp_oneway_is_cheaper_than_http_oneway() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model);
        let done = Arc::new(AtomicU64::new(0));
        for addr in ["tcp://c/notify", "http://c/notify"] {
            let done = done.clone();
            net.bind_oneway(
                addr,
                Arc::new(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        let port = net.port("host-a");
        // Warm connections.
        port.send_oneway("tcp://c/notify", Envelope::new(Element::new("W")));
        port.send_oneway("http://c/notify", Envelope::new(Element::new("W")));
        while done.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        let t0 = net.clock().now();
        port.send_oneway("tcp://c/notify", Envelope::new(Element::new("X")));
        while done.load(Ordering::SeqCst) < 3 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let tcp_cost = net.clock().now().since(t0);

        let t1 = net.clock().now();
        port.send_oneway("http://c/notify", Envelope::new(Element::new("X")));
        while done.load(Ordering::SeqCst) < 4 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let http_cost = net.clock().now().since(t1);

        assert!(tcp_cost < http_cost, "{tcp_cost:?} vs {http_cost:?}");
    }

    #[test]
    fn nested_outcalls_do_not_deadlock() {
        let net = Network::free();
        let net2 = net.clone();
        // Service A calls service B during its handler.
        net.bind("http://host-a/b", echo_handler());
        net.bind(
            "http://host-a/a",
            Arc::new(move |req: Envelope| {
                let inner = net2
                    .port("host-a")
                    .call("http://host-a/b", req)
                    .expect("nested call");
                let mut body = inner.body;
                body.set_attr("outer", "yes");
                Envelope::new(body)
            }),
        );
        let resp = net
            .port("host-a")
            .call("http://host-a/a", Envelope::new(Element::new("X")))
            .unwrap();
        assert_eq!(resp.body.attr_local("outer"), Some("yes"));
        assert_eq!(resp.body.attr_local("echoed"), Some("true"));
        assert_eq!(net.stats().requests(), 2);
        assert_eq!(net.stats().responses(), 2);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net = Network::free();
        net.bind("http://h/svc", echo_handler());
        net.port("h")
            .call("http://h/svc", Envelope::new(Element::new("X")))
            .unwrap();
        assert_eq!(net.stats().requests(), 1);
        assert_eq!(net.stats().responses(), 1);
        assert!(net.stats().bytes() > 0);
    }

    #[test]
    fn armed_drops_surface_and_are_counted() {
        let net = Network::free();
        net.bind("http://h/svc", echo_handler());
        net.set_fault_plan(FaultPlan::seeded(3).with_drops(0.5));
        let port = net.port("h");
        let mut ok = 0u64;
        let mut dropped = 0u64;
        for _ in 0..40 {
            match port.call("http://h/svc", Envelope::new(Element::new("X"))) {
                Ok(_) => ok += 1,
                Err(TransportError::Dropped { .. }) => dropped += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(ok > 0 && dropped > 0, "ok={ok} dropped={dropped}");
        assert_eq!(net.stats().injected_drops(), dropped);
    }

    #[test]
    fn dropped_call_with_deadline_times_out() {
        let net = Network::free();
        net.bind("http://h/svc", echo_handler());
        net.set_fault_plan(FaultPlan::seeded(1).with_drops(1.0));
        let budget = SimDuration::from_millis(100.0);
        let t0 = net.clock().now();
        let err = net
            .port("h")
            .call_with_deadline(
                "http://h/svc",
                Envelope::new(Element::new("X")),
                Some(budget),
            )
            .unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }));
        assert_eq!(net.clock().now().since(t0), budget);
        assert_eq!(net.stats().timeouts(), 1);
    }

    #[test]
    fn garbled_call_is_wire_garbage() {
        let net = Network::free();
        net.bind("http://h/svc", echo_handler());
        net.set_fault_plan(FaultPlan::seeded(1).with_garbles(1.0));
        let err = net
            .port("h")
            .call("http://h/svc", Envelope::new(Element::new("X")))
            .unwrap_err();
        assert!(matches!(err, TransportError::WireGarbage { .. }));
        assert_eq!(net.stats().injected_garbles(), 1);
        assert!(err.is_retryable());
    }

    #[test]
    fn benign_plan_is_invisible() {
        let runs: Vec<_> = [None, Some(FaultPlan::seeded(77))]
            .into_iter()
            .map(|plan| {
                let net = Network::free();
                net.bind("http://h/svc", echo_handler());
                if let Some(p) = plan {
                    net.set_fault_plan(p);
                }
                for _ in 0..10 {
                    net.port("h")
                        .call("http://h/svc", Envelope::new(Element::new("X")))
                        .unwrap();
                }
                net.stats().snapshot()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn oneway_duplicates_deliver_twice() {
        let net = Network::free();
        net.set_fault_plan(FaultPlan::seeded(5).with_duplicates(1.0));
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        net.bind_oneway(
            "tcp://c/notify",
            Arc::new(move |_| {
                hits2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        net.port("h")
            .send_oneway("tcp://c/notify", Envelope::new(Element::new("N")));
        assert!(net.quiesce(std::time::Duration::from_secs(5)));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(net.stats().injected_duplicates(), 1);
        assert_eq!(net.stats().oneways(), 2);
    }

    #[test]
    fn without_a_delivery_worker_oneways_deliver_inline() {
        // What a network whose worker thread could not be spawned does.
        let net = Network::free();
        drop(net.inner.oneway_tx.lock().take());
        let hits = Arc::new(AtomicU64::new(0));
        let seen = hits.clone();
        net.bind_oneway(
            "tcp://c/notify",
            Arc::new(move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
            }),
        );
        net.port("h")
            .send_oneway("tcp://c/notify", Envelope::new(Element::new("N")));
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "delivered before the send returned"
        );
        assert_eq!(net.pending_oneways(), 0);
        assert_eq!(net.stats().oneways(), 1);
    }

    #[test]
    fn reliable_oneway_redelivers_through_a_partition() {
        let net = Network::free();
        // Partition covers the first two logical attempts; backoff carries
        // the third past the window.
        let policy = RetryPolicy::default_redelivery(1)
            .with_backoff(
                SimDuration::from_millis(50.0),
                SimDuration::from_millis(50.0),
            )
            .with_jitter(0.0)
            .with_max_attempts(4);
        net.set_fault_plan(FaultPlan::seeded(1).with_partition(
            "h",
            "c",
            SimInstant(0),
            SimInstant(0).plus(SimDuration::from_millis(75.0)),
        ));
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        net.bind_oneway(
            "tcp://c/notify",
            Arc::new(move |_| {
                hits2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        net.port("h").send_oneway_with_policy(
            "tcp://c/notify",
            Envelope::new(Element::new("N")),
            Some(policy),
        );
        assert!(net.quiesce(std::time::Duration::from_secs(5)));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(net.stats().partition_refusals(), 2);
        assert_eq!(net.stats().retries(), 2);
        assert!(net.dead_letters().is_empty());
    }

    #[test]
    fn exhausted_redelivery_dead_letters() {
        let net = Network::free();
        let policy = RetryPolicy::default_redelivery(1).with_max_attempts(3);
        // Partition never lifts within reach of the backoff budget.
        net.set_fault_plan(FaultPlan::seeded(1).with_partition(
            "h",
            "c",
            SimInstant(0),
            SimInstant(u64::MAX),
        ));
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        net.bind_oneway(
            "tcp://c/notify",
            Arc::new(move |_| {
                hits2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        net.port("h").send_oneway_with_policy(
            "tcp://c/notify",
            Envelope::new(Element::new("N")),
            Some(policy),
        );
        assert!(net.quiesce(std::time::Duration::from_secs(5)));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        let dead = net.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].attempts, 3);
        assert_eq!(dead[0].reason, FaultKind::Partition);
        assert_eq!(dead[0].to, "tcp://c/notify");
        assert_eq!(net.stats().dead_letters(), 1);
        assert_eq!(net.stats().retries(), 2);
    }

    #[test]
    fn unbound_consumer_dead_letters_after_budget() {
        // No fault plan at all: a reliable send to an address nobody is
        // listening on retries on its own, then gives up.
        let net = Network::free();
        let policy = RetryPolicy::default_redelivery(9).with_max_attempts(3);
        net.port("h").send_oneway_with_policy(
            "tcp://c/notify",
            Envelope::new(Element::new("N")),
            Some(policy),
        );
        assert!(net.quiesce(std::time::Duration::from_secs(5)));
        let dead = net.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].attempts, 3);
        assert_eq!(dead[0].reason, FaultKind::Drop);
    }

    #[test]
    fn synchronous_oneways_deliver_inline_with_spans() {
        let net = Network::free();
        net.set_synchronous_oneways(true);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        net.bind_oneway(
            "tcp://c/notify",
            Arc::new(move |_| {
                hits2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        net.port("h")
            .send_oneway("tcp://c/notify", Envelope::new(Element::new("N")));
        // No quiesce needed: inline delivery resolved before send returned.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(net.pending_oneways(), 0);
        let spans = net.telemetry().finished_spans();
        assert!(spans.iter().any(|s| s.name == "oneway:deliver"));
        assert_eq!(
            net.telemetry()
                .metrics()
                .counter("oneway.delivered", &[("scheme", "tcp")]),
            1
        );
    }

    #[test]
    fn calls_open_wire_spans_with_fault_events() {
        let net = Network::free();
        net.bind("http://h/svc", echo_handler());
        net.set_fault_plan(FaultPlan::seeded(1).with_drops(1.0));
        let _ = net
            .port("h")
            .call("http://h/svc", Envelope::new(Element::new("X")));
        let spans = net.telemetry().finished_spans();
        let wire = spans.iter().find(|s| s.name == "net:call").unwrap();
        assert!(wire.has_event("fault:drop"));
        assert!(wire.has_event("dropped"));
    }

    #[test]
    fn dead_letters_reach_metrics_and_span_events() {
        let net = Network::free();
        net.set_synchronous_oneways(true);
        let policy = RetryPolicy::default_redelivery(9).with_max_attempts(2);
        net.port("h").send_oneway_with_policy(
            "tcp://c/nobody",
            Envelope::new(Element::new("N")),
            Some(policy),
        );
        assert_eq!(net.dead_letters().len(), 1);
        let m = net.telemetry().metrics().snapshot();
        assert_eq!(m.counter_total("oneway.dead_letters"), 1);
        assert_eq!(m.counter_total("oneway.redeliveries"), 1);
        assert_eq!(m.counter_total("oneway.attempts"), 2);
        let spans = net.telemetry().finished_spans();
        assert!(spans.iter().any(|s| s.has_event("dead_letter")));
        assert!(spans.iter().any(|s| s.has_event("retry:backoff")));
        // The exhausted budget must survive into the exported artifacts.
        let trace = ogsa_telemetry::export::spans_to_chrome_trace(&spans);
        assert!(trace.contains("\"name\":\"dead_letter\""));
        assert!(trace.contains("\"name\":\"retry:backoff\""));
        let metrics = ogsa_telemetry::export::metrics_to_json(&m);
        assert!(metrics.contains("oneway.dead_letters"));
    }

    #[test]
    fn oneway_attempts_join_the_senders_trace() {
        let net = Network::free();
        net.set_synchronous_oneways(true);
        net.bind_oneway("tcp://c/notify", Arc::new(|_| {}));
        let tel = net.telemetry().clone();
        let root = tel.span(ogsa_telemetry::SpanKind::Client, "send");
        let root_trace = root.trace_id().unwrap();
        net.port("h")
            .send_oneway("tcp://c/notify", Envelope::new(Element::new("N")));
        drop(root);
        let spans = tel.finished_spans();
        let deliver = spans.iter().find(|s| s.name == "oneway:deliver").unwrap();
        assert_eq!(deliver.trace, root_trace);
        assert!(deliver.parent.is_some());
    }

    #[test]
    fn reset_connections_forces_reconnect() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model);
        net.bind("http://a/svc", echo_handler());
        let p = net.port("b");
        p.call("http://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        p.call("http://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        assert_eq!(net.stats().connects(), 1);
        net.reset_connections();
        // The reset zeroes the connection ledger along with the pools, so
        // the post-reset measurement starts cold: exactly one connect.
        assert_eq!(net.stats().connects(), 0);
        p.call("http://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        assert_eq!(net.stats().connects(), 1);
    }

    #[test]
    fn reset_connections_clears_stale_handshake_counts() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model);
        net.bind("https://a/svc", echo_handler());
        let p = net.port("b");
        for _ in 0..3 {
            p.call("https://a/svc", Envelope::new(Element::new("X")))
                .unwrap();
        }
        assert_eq!(net.stats().tls_handshakes(), 1);
        assert_eq!(net.stats().tls_resumptions(), 2);
        let warm_messages = net.stats().messages();

        net.reset_connections();
        p.call("https://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        // Cold-start ablation after a warm run: the connection ledger
        // reflects only post-reset traffic...
        assert_eq!(net.stats().connects(), 1);
        assert_eq!(net.stats().tls_handshakes(), 1);
        assert_eq!(net.stats().tls_resumptions(), 0);
        // ...while the message ledger keeps accumulating.
        assert_eq!(net.stats().messages(), warm_messages + 2);
    }

    #[test]
    fn disabling_session_cache_resets_connection_ledger() {
        let model = Arc::new(CostModel::calibrated_2005());
        let net = Network::new(VirtualClock::new(), model);
        net.bind("https://a/svc", echo_handler());
        let p = net.port("b");
        p.call("https://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        assert_eq!(net.stats().tls_handshakes(), 1);
        net.set_tls_session_cache(false);
        assert_eq!(net.stats().tls_handshakes(), 0);
        p.call("https://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        p.call("https://a/svc", Envelope::new(Element::new("X")))
            .unwrap();
        assert_eq!(net.stats().tls_handshakes(), 2);
        assert_eq!(net.stats().tls_resumptions(), 0);
    }

    #[test]
    fn handler_for_returns_bound_request_handlers_only() {
        let net = Network::free();
        net.bind("http://a/svc", echo_handler());
        net.bind_oneway("tcp://c/notify", Arc::new(|_| {}));
        let h = net.handler_for("http://a/svc").expect("bound handler");
        let resp = h(Envelope::new(Element::new("Ping")));
        assert_eq!(&*resp.body.name.local, "Ping");
        assert!(net.handler_for("http://a/other").is_none());
        assert!(net.handler_for("tcp://c/notify").is_none());
        net.unbind("http://a/svc");
        assert!(net.handler_for("http://a/svc").is_none());
    }
}
