//! `get_signed` and `put_logged_mem`: the counter services of both stacks
//! behind the real serving tier, driven over loopback TCP.
//!
//! One driver thread and one server worker, on the one CPU the process is
//! pinned to. Connection 0 carries WS-Transfer requests, connection 1 WSRF
//! requests, four pipelined requests in flight on each. Every request was
//! signed during set-up and is sent verbatim; the server parses, verifies,
//! runs the service, signs and serialises every one.
//!
//! * `get_signed` reads 4 096 distinct counters per stack out of 10 000, so a
//!   response cache cannot answer everything and the store's read path does
//!   real lookups. The WAL and the fan-out plane do nothing.
//! * `put_logged_mem` writes 256 counters per stack over the durable backend
//!   **on its in-memory media**: every write is framed, checksummed and
//!   appended as a WAL record with one `sync` call, and a snapshot is encoded
//!   and installed every 1 024 writes, but no byte reaches a file and no
//!   fsync is paid (see [`DURABLE`] for why). The same layers used the other
//!   way, so a gain for reads that costs writes shows here. Teardown restarts
//!   the store from its media alone and requires every counter to hold the
//!   last value the server acknowledged.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ogsa_core::addressing::EndpointReference;
use ogsa_core::container::{ClientAgent, Testbed};
use ogsa_core::counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::serve::{http, HeadParse, ServeConfig, Server};
use ogsa_core::sim::{CostModel, DetRng, VirtualClock};
use ogsa_core::soap::Envelope;
use ogsa_core::transfer::{messages as wxf, TransferProxy};
use ogsa_core::transport::net::Handler;
use ogsa_core::wsrf::properties::{self as wsrp, SetComponent};
use ogsa_core::wsrf::proxy::actions as wsrf_actions;
use ogsa_core::xml::{pooled_string, Element};
use ogsa_core::xmldb::{BackendKind, Database, DurableBackend, DurableConfig, FsyncPolicy};

use super::{
    alloc_metrics, driver_metrics, shuffled, stored_docs, trace_metrics, TeardownMetrics, Workload,
};
use crate::http_client::{ClosedLoop, Completion, Until};
use crate::layers::{mean_us, message_layers, plumbing_layers};
use crate::metrics::Ledger;
use crate::probe::{self, Burst, Probe};
use crate::stats::{quantile, Recorder};
use crate::trace::{stage_totals, Tracer, OP};

const HOST: &str = "host-a";
const TRANSFER_PATH: &str = "/services/Counter";
const WSRF_PATH: &str = "/services/CounterService";
const PROBE_PATH: &str = "/services/Probe";
/// Pipelined requests in flight on each of the two connections.
const WINDOW_PER_LANE: usize = 4;
/// Every this-many-th response is parsed, signature-verified and compared
/// with the value the counter must hold.
const VERIFY_EVERY: u64 = 64;
/// `put_logged_mem` logs every write (one record, one sync call) and snapshots
/// and truncates the log every 1 024 writes — on the store's in-memory media
/// (`DurableBackend::sim`), not on files, and is named for that. The issue's
/// `DurableBackend::file` with an fsync per write measures this host's shared
/// disk: ten runs read 770 to 2 428 ops/s, quartile distances of 19% to 41% of
/// the median, where the largest bound a metric may have is 25% (README,
/// "Where this departs"). The media keep every byte the file ones would:
/// framing, CRCs, the shadow image, snapshot encoding and recovery all run, and
/// a change of fsync policy shows in the exact count `xmldb.fsyncs_per_op`.
/// The traced run times real file appends and fsyncs on twin stores, as
/// `xmldb.wal_append_us` and `xmldb.fsync_us`.
const DURABLE: DurableConfig = DurableConfig {
    fsync: FsyncPolicy::PerWrite,
    snapshot_every: 1024,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Get,
    Put,
}

/// How big a run is. The unit tests shrink it; the benchmark never does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub counters_per_stack: usize,
    pub templates_per_stack: usize,
    /// Requests sent before the first measured one. Fixed, so that warm-up
    /// is the same amount of work in every run and counts into `setup_s`.
    pub warmup_requests: u64,
    /// Operations replayed in-thread by the traced run.
    pub replay_ops: usize,
}

pub const GET_SCALE: Scale = Scale {
    counters_per_stack: 10_000,
    templates_per_stack: 4_096,
    warmup_requests: 10_000,
    replay_ops: 20_000,
};

/// The warm-up covers 54 snapshot cycles, so the store's background work has
/// levelled off before the window opens.
pub const PUT_SCALE: Scale = Scale {
    counters_per_stack: 256,
    templates_per_stack: 2_048,
    warmup_requests: 56_000,
    replay_ops: 20_000,
};

/// What the seed decides for one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneInputs {
    /// Template `j` addresses counter `targets[j]`.
    pub targets: Vec<u32>,
    /// Template indices in sending order, cycled.
    pub order: Vec<u32>,
}

/// Seeded choice of which counters the templates address and in which order
/// the templates are sent, uniformly.
pub fn lane_inputs(seed: u64, lane: usize, scale: Scale) -> LaneInputs {
    let rng = DetRng::seeded(seed).fork(if lane == 0 { "transfer" } else { "wsrf" });
    let counters = shuffled(&rng, scale.counters_per_stack);
    let targets = (0..scale.templates_per_stack)
        .map(|j| counters[j % counters.len()])
        .collect();
    let order = (0..scale.templates_per_stack * 16)
        .map(|_| rng.below(scale.templates_per_stack as u64) as u32)
        .collect();
    LaneInputs { targets, order }
}

/// The value counter `i` of `lane` is preloaded with for `get_signed`.
fn preset_value(lane: usize, i: usize) -> i64 {
    (i * 2 + lane) as i64
}

/// The value template `j` writes in `put_logged_mem`.
fn written_value(j: usize) -> i64 {
    j as i64 + 1
}

fn transfer_doc(value: i64) -> Element {
    Element::new("counter").with_child(Element::text_element("value", value.to_string()))
}

/// Checks responses as they arrive and remembers what the server
/// acknowledged.
struct Checker {
    mode: Mode,
    agent: ClientAgent,
    targets: [Vec<u32>; 2],
    /// `put_logged_mem`: the last value acknowledged per counter. Writes to one
    /// counter travel on one connection, so acknowledgement order is write
    /// order.
    last_acked: [Vec<i64>; 2],
    seen: u64,
    verified: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Checker {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    fn observe(&mut self, c: &Completion<'_>) {
        self.seen += 1;
        if c.status != 200 {
            return self.fail(format!("HTTP {} on connection {}", c.status, c.lane));
        }
        let counter = self.targets[c.lane][c.template] as usize;
        if self.mode == Mode::Put {
            self.last_acked[c.lane][counter] = written_value(c.template);
        }
        if !self.seen.is_multiple_of(VERIFY_EVERY) {
            return;
        }
        let body = match std::str::from_utf8(c.body)
            .map_err(|e| e.to_string())
            .and_then(|wire| self.agent.decode_response(wire).map_err(|e| e.to_string()))
        {
            Ok(body) => body,
            Err(e) => return self.fail(format!("response rejected: {e}")),
        };
        self.verified += 1;
        if self.mode == Mode::Get {
            let got: Option<i64> = if c.lane == 0 {
                wxf::parse_get_response(&body).and_then(|rep| rep.child_parse("value"))
            } else {
                body.child_elements()
                    .next()
                    .and_then(|cv| cv.text().trim().parse().ok())
            };
            let want = preset_value(c.lane, counter);
            if got != Some(want) {
                self.fail(format!(
                    "counter {counter} on connection {} read {got:?}, holds {want}",
                    c.lane
                ));
            }
        }
    }
}

pub struct SocketWorkload {
    mode: Mode,
    scale: Scale,
    tb: Testbed,
    agent: ClientAgent,
    transfer: TransferCounter,
    wsrf: WsrfCounter,
    server: Server,
    client: ClosedLoop,
    checker: Checker,
    /// Per connection: the counters' EPRs, the whole HTTP requests, and the
    /// sending order.
    eprs: [Vec<EndpointReference>; 2],
    requests: [Arc<Vec<Vec<u8>>>; 2],
    inputs: [LaneInputs; 2],
    durable: Option<Arc<DurableBackend>>,
    /// Operations replayed in-thread so far: where the next replay resumes.
    replayed: usize,
}

/// A directory of this process's own under the benchmark's `out/`.
fn scratch_dir(label: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    crate::out_dir().join(format!("tmp-{}-{label}-{n}", std::process::id()))
}

impl SocketWorkload {
    pub fn set_up_scaled(seed: u64, mode: Mode, scale: Scale) -> SocketWorkload {
        let durable = (mode == Mode::Put).then(|| Arc::new(DurableBackend::sim(DURABLE)));
        let backend = match &durable {
            Some(d) => BackendKind::Custom(d.clone()),
            None => BackendKind::Memory,
        };
        let tb = Testbed::new_quiet(CostModel::free(), backend);
        let container = tb.container(HOST, SecurityPolicy::X509Sign);
        let transfer = TransferCounter::deploy(&container);
        let wsrf = WsrfCounter::deploy(&container);
        let agent = tb.client("host-b", "CN=benchmark,O=VO", SecurityPolicy::X509Sign);

        // Preload. WSRF has a batch factory; WS-Transfer has none, so under
        // the durable backend its counters go in through the store's own
        // batch insert: one WAL record and one sync instead of 256.
        let n = scale.counters_per_stack;
        let wsrf_client = wsrf.client(agent.clone());
        let wsrf_eprs = wsrf_client.create_many(n).expect("createBatch");
        let transfer_eprs: Vec<EndpointReference> = match mode {
            Mode::Get => {
                let proxy = TransferProxy::new(&agent);
                (0..n)
                    .map(|i| {
                        proxy
                            .create(&transfer.factory_epr, transfer_doc(preset_value(0, i)))
                            .expect("Create")
                            .0
                    })
                    .collect()
            }
            Mode::Put => {
                let ids: Vec<String> = (0..n).map(|i| format!("c{i:05}")).collect();
                tb.db(HOST)
                    .collection(&format!("wxf:{TRANSFER_PATH}"))
                    .insert_many(ids.iter().map(|id| (id.clone(), transfer_doc(0))).collect())
                    .expect("batch insert");
                ids.into_iter()
                    .map(|id| EndpointReference::resource(transfer.factory_epr.address.clone(), id))
                    .collect()
            }
        };
        if mode == Mode::Get {
            for (i, epr) in wsrf_eprs.iter().enumerate() {
                wsrf_client.set(epr, preset_value(1, i)).expect("preset");
            }
        }
        let eprs = [transfer_eprs, wsrf_eprs];

        // Pre-sign every request.
        let inputs = [lane_inputs(seed, 0, scale), lane_inputs(seed, 1, scale)];
        let requests = [0, 1].map(|lane| {
            let path = if lane == 0 { TRANSFER_PATH } else { WSRF_PATH };
            let built: Vec<Vec<u8>> = inputs[lane]
                .targets
                .iter()
                .enumerate()
                .map(|(j, &counter)| {
                    let epr = &eprs[lane][counter as usize];
                    let (action, body) = request_for(mode, lane, j);
                    let (_, wire) = agent.prepare_wire(epr, action, body);
                    let mut request = Vec::with_capacity(wire.len() + 128);
                    http::write_request(&mut request, path, HOST, true, &wire);
                    request
                })
                .collect();
            Arc::new(built)
        });

        // The host-speed probe runs where the work runs: on the server worker,
        // behind an endpoint of the benchmark's own, asked every so often on
        // connection 0. Its request is that connection's last template.
        let probe = Mutex::new(Probe::new());
        tb.network().bind(
            &format!("http://{HOST}{PROBE_PATH}"),
            Arc::new(move |_request: Envelope| {
                let burst = probe.lock().expect("probe lock").burst();
                Envelope::new(Element::text_element(
                    "burst",
                    format!("{} {}", burst.speed, burst.took.as_nanos()),
                ))
            }),
        );
        let mut requests = requests;
        let mut probe_request = Vec::new();
        http::write_request(
            &mut probe_request,
            PROBE_PATH,
            HOST,
            true,
            &Envelope::new(Element::new("probe")).to_wire(),
        );
        Arc::get_mut(&mut requests[0])
            .expect("not shared yet")
            .push(probe_request);

        let server = Server::bind(
            tb.network(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .expect("bind the serving tier");
        let client = ClosedLoop::connect(
            server.addr(),
            [0, 1]
                .map(|lane| (requests[lane].clone(), inputs[lane].order.clone()))
                .into(),
            WINDOW_PER_LANE,
        )
        .expect("connect");
        let mut client = client;
        client.send_periodically(0, scale.templates_per_stack, probe::EVERY);
        let checker = Checker {
            mode,
            agent: agent.clone(),
            targets: [inputs[0].targets.clone(), inputs[1].targets.clone()],
            last_acked: [vec![0; n], vec![0; n]],
            seen: 0,
            verified: 0,
            failed: 0,
            first_failure: None,
        };
        let mut workload = SocketWorkload {
            mode,
            scale,
            tb,
            agent,
            transfer,
            wsrf,
            server,
            client,
            checker,
            eprs,
            requests,
            inputs,
            durable,
            replayed: 0,
        };
        workload.drive(Until::Sent(scale.warmup_requests), &mut |_| {}, &mut |_| {});
        workload
    }

    /// Run the closed loop until `until`; every counter response goes
    /// through the checker and then to `each`, every probe response to
    /// `burst`.
    fn drive(
        &mut self,
        until: Until,
        each: &mut dyn FnMut(&Completion<'_>),
        burst: &mut dyn FnMut(Burst),
    ) {
        let probe_template = self.scale.templates_per_stack;
        let SocketWorkload {
            client, checker, ..
        } = self;
        client
            .run(until, &mut |c| {
                if c.lane == 0 && c.template == probe_template {
                    burst(parse_burst(c.body).expect("the probe endpoint's own format"));
                } else {
                    checker.observe(&c);
                    each(&c);
                }
            })
            .expect("socket driver");
    }

    /// The closed loop for `window`; with `per_lane`, each connection's
    /// latencies (microseconds) are kept apart as well.
    fn measure_lanes(
        &mut self,
        window: Duration,
        rec: &mut Recorder,
        mut per_lane: Option<&mut [Vec<f64>; 2]>,
    ) {
        let failed_before = self.checker.failed;
        let deadline = Instant::now() + window;
        // Both closures write to the recorder, one at a time.
        let rec = std::cell::RefCell::new(rec);
        self.drive(
            Until::Deadline(deadline),
            &mut |c| {
                let latency = c.done.duration_since(c.sent);
                rec.borrow_mut().record(c.done, latency, c.wire_bytes);
                if let Some(lanes) = per_lane.as_deref_mut() {
                    lanes[c.lane].push(latency.as_secs_f64() * 1e6);
                }
            },
            &mut |burst| rec.borrow_mut().probe(burst),
        );
        rec.into_inner().failed += self.checker.failed - failed_before;
    }

    fn handler(&self, lane: usize) -> Handler {
        let path = if lane == 0 { TRANSFER_PATH } else { WSRF_PATH };
        self.tb
            .network()
            .handler_for(&format!("http://{HOST}{path}"))
            .expect("counter service bound")
    }

    /// Replay `ops` requests through the stages the server worker runs, on
    /// this thread: HTTP head, envelope parse, the bound container handler,
    /// serialisation, HTTP response. Returns the responses' SOAP wires for
    /// the first `keep` operations.
    fn replay(&mut self, ops: usize, keep: usize, tracer: &mut Tracer) -> Vec<String> {
        let handlers = [self.handler(0), self.handler(1)];
        let mut kept = Vec::with_capacity(keep);
        let mut out = Vec::with_capacity(16 * 1024);
        for op in self.replayed..self.replayed + ops {
            let lane = op % 2;
            let order = &self.inputs[lane].order;
            let template = order[(op / 2) % order.len()] as usize;
            let request = &self.requests[lane][template];
            let handler = &handlers[lane];
            out.clear();
            tracer.span(OP, op as u32, |t| {
                let head = t.span("serve.http_head", op as u32, |_| {
                    match http::parse_head(request) {
                        HeadParse::Parsed(head) => head,
                        other => panic!("own request does not parse: {other:?}"),
                    }
                });
                let body = std::str::from_utf8(&request[head.head_len..]).expect("utf-8 body");
                let envelope = t.span("soap.from_wire", op as u32, |_| {
                    Envelope::from_wire(body).expect("own request is an envelope")
                });
                let response = t.span("container.pipeline", op as u32, |_| handler(envelope));
                let mut wire = pooled_string();
                t.span("soap.to_wire", op as u32, |_| {
                    response.to_wire_into(&mut wire)
                });
                t.span("serve.http_write", op as u32, |_| {
                    http::write_response(&mut out, 200, "OK", head.keep_alive, &wire)
                });
                if kept.len() < keep {
                    kept.push(wire.to_string());
                }
            });
            if self.mode == Mode::Put {
                let counter = self.inputs[lane].targets[template] as usize;
                self.checker.last_acked[lane][counter] = written_value(template);
            }
        }
        self.replayed += ops;
        kept
    }

    fn xmldb_layers(&self, ledger: &mut Ledger) {
        let db = self.tb.db(HOST);
        let live = db.collection(&format!("wxf:{TRANSFER_PATH}"));
        let ids: Vec<String> = (0..256)
            .map(|k| {
                let counter = self.inputs[0].targets[k] as usize;
                self.eprs[0][counter]
                    .resource_id()
                    .expect("resource EPR")
                    .to_owned()
            })
            .collect();
        ledger.set(
            "xmldb.get_us",
            mean_us(ids.len(), 20, |i| {
                std::hint::black_box(live.get_serialized(&ids[i]).expect("preloaded"));
            }),
        );

        // Insert and update on a collection of the benchmark's own, under
        // the workload's backend: with the durable one each is logged.
        let scratch = db.collection("bench:scratch");
        let doc = transfer_doc(7);
        let keys: Vec<String> = (0..400).map(|i| format!("k{i:04}")).collect();
        let t = Instant::now();
        for k in &keys {
            scratch.insert(k, doc.clone()).expect("fresh key");
        }
        ledger.set(
            "xmldb.insert_us",
            t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64,
        );
        let update_us = mean_us(keys.len(), 4, |i| {
            scratch.update(&keys[i], doc.clone()).expect("present");
        });
        ledger.set("xmldb.update_us", update_us);
        for k in &keys {
            scratch.remove(k);
        }
        let contentions = db
            .stats()
            .snapshot()
            .into_iter()
            .find(|(name, _)| *name == "lock_contentions")
            .map_or(0, |(_, v)| v);
        ledger.set("xmldb.shard_contentions", contentions as f64);

        let Some(durable) = &self.durable else {
            return;
        };
        let t = Instant::now();
        for _ in 0..5 {
            assert!(durable.snapshot_now(), "snapshot install");
        }
        ledger.set("xmldb.snapshot_us", t.elapsed().as_secs_f64() * 1e6 / 5.0);
        ledger.set(
            "xmldb.store_bytes_per_doc",
            durable.encoded_image().len() as f64 / durable.doc_count().max(1) as f64,
        );

        // What real files add, on twin stores under the benchmark's `out/`:
        // the same update logged to a file without fsync (against the
        // in-memory store: the append), and with one (against that: the
        // fsync).
        let memory = Database::in_memory_free().collection("bench:scratch");
        for k in &keys {
            memory.insert(k, doc.clone()).expect("fresh key");
        }
        let memory_us = mean_us(keys.len(), 4, |i| {
            memory.update(&keys[i], doc.clone()).expect("present");
        });
        let on_files = |fsync: FsyncPolicy, rounds: usize| -> (f64, f64) {
            let dir = scratch_dir("twin");
            let twin = Arc::new(
                DurableBackend::file(
                    &dir,
                    DurableConfig {
                        fsync,
                        snapshot_every: 0,
                    },
                )
                .expect("create the twin WAL"),
            );
            let collection = Database::new(
                VirtualClock::new(),
                Arc::new(CostModel::free()),
                BackendKind::Custom(twin.clone()),
            )
            .collection("bench:scratch");
            for k in &keys {
                collection.insert(k, doc.clone()).expect("fresh key");
            }
            let wal_before = twin.wal_len();
            let us = mean_us(keys.len(), rounds, |i| {
                collection.update(&keys[i], doc.clone()).expect("present");
            });
            let bytes = (twin.wal_len() - wal_before) as f64 / (keys.len() * (rounds + 1)) as f64;
            drop((collection, twin));
            let _ = std::fs::remove_dir_all(&dir);
            (us, bytes)
        };
        let (appended_us, wal_bytes) = on_files(FsyncPolicy::Never, 4);
        let (synced_us, _) = on_files(FsyncPolicy::PerWrite, 1);
        ledger.set("xmldb.wal_append_us", (appended_us - memory_us).max(0.0));
        ledger.set("xmldb.fsync_us", (synced_us - appended_us).max(0.0));
        ledger.set("xmldb.wal_bytes_per_op", wal_bytes);
    }

    fn counter_layers(&self, ledger: &mut Ledger) {
        let clients: [Box<dyn CounterApi>; 2] = [
            Box::new(self.transfer.client(self.agent.clone())),
            Box::new(self.wsrf.client(self.agent.clone())),
        ];
        let sample = 200;
        let mut get_us = [0.0; 2];
        for lane in 0..2 {
            let client = &clients[lane];
            let counters: Vec<usize> = (0..sample)
                .map(|k| self.inputs[lane].targets[k] as usize)
                .collect();
            get_us[lane] = mean_us(sample, 3, |i| {
                std::hint::black_box(client.get(&self.eprs[lane][counters[i]]).expect("Get"));
            });
            // Writing the value a counter already holds keeps every check valid.
            let set_us = mean_us(sample, 1, |i| {
                let value = match self.mode {
                    Mode::Get => preset_value(lane, counters[i]),
                    Mode::Put => self.checker.last_acked[lane][counters[i]],
                };
                client
                    .set(&self.eprs[lane][counters[i]], value)
                    .expect("Set");
            });
            ledger.set(["transfer.get_us", "wsrf.get_us"][lane], get_us[lane]);
            ledger.set(["transfer.put_us", "wsrf.set_us"][lane], set_us);
        }
        let (a, b) = match self.mode {
            Mode::Get => (get_us[0], get_us[1]),
            Mode::Put => (ledger.get("transfer.put_us"), ledger.get("wsrf.set_us")),
        };
        ledger.set("counter.stack_gap_pct", 100.0 * (b - a).abs() / a.min(b));
    }
}

/// What the probe endpoint answered: `<burst>speed nanoseconds</burst>`.
fn parse_burst(body: &[u8]) -> Option<Burst> {
    let text = std::str::from_utf8(body).ok()?;
    let inner = text.split_once("<burst>")?.1.split_once("</burst>")?.0;
    let (speed, took_ns) = inner.split_once(' ')?;
    Some(Burst {
        speed: speed.parse().ok()?,
        took: Duration::from_nanos(took_ns.parse().ok()?),
    })
}

/// The request template `j` of `lane` sends.
fn request_for(mode: Mode, lane: usize, j: usize) -> (&'static str, Element) {
    match (mode, lane) {
        (Mode::Get, 0) => (wxf::actions::GET, wxf::get_request()),
        (Mode::Get, _) => (wsrf_actions::GET_RP, wsrp::get_property_request("cv")),
        (Mode::Put, 0) => (
            wxf::actions::PUT,
            wxf::put_request(transfer_doc(written_value(j))),
        ),
        (Mode::Put, _) => (
            wsrf_actions::SET_RP,
            wsrp::set_properties_request(&[SetComponent::Update(vec![Element::text_element(
                "cv",
                written_value(j).to_string(),
            )])]),
        ),
    }
}

impl Workload for SocketWorkload {
    /// Documents in the host's store. (The other thing `put_logged_mem` could
    /// pile up, the WAL between snapshots, is bounded in [`Workload::check`].)
    fn retained(&self) -> u64 {
        stored_docs(&self.tb, &[HOST])
    }

    /// The counters, and nothing else.
    fn retained_limit(&self) -> u64 {
        2 * self.scale.counters_per_stack as u64
    }

    fn memory_checkpoint(&self) -> u64 {
        60_000
    }

    fn measure(&mut self, window: Duration, rec: &mut Recorder) {
        self.measure_lanes(window, rec, None);
    }

    fn trace(&mut self, window: Duration, tracer: &mut Tracer, ledger: &mut Ledger) {
        // 1. A short untraced run through the real sockets.
        let served_before = self.server.stats().requests();
        let durable_before = self
            .durable
            .as_ref()
            .map(|d| (d.fsyncs(), d.appended_ops()));
        let mut rec = Recorder::start(self.memory_checkpoint());
        let mut lanes = [Vec::new(), Vec::new()];
        self.measure_lanes(window, &mut rec, Some(&mut lanes));
        let win = rec.finish();
        let ops = win.ops() as f64;
        driver_metrics(ledger, &win);
        ledger.set("transfer.socket_p50_us", quantile(&lanes[0], 0.5));
        ledger.set("wsrf.socket_p50_us", quantile(&lanes[1], 0.5));
        let stats = self.server.stats();
        ledger.set("serve.requests", (stats.requests() - served_before) as f64);
        ledger.set("serve.http_errors", stats.http_errors() as f64);
        ledger.set("serve.dispatch_panics", stats.dispatch_panics() as f64);
        let bytes_in: usize = (0..2)
            .map(|lane| {
                let counter_requests = self.requests[lane]
                    .iter()
                    .take(self.scale.templates_per_stack);
                counter_requests.map(Vec::len).sum::<usize>()
            })
            .sum();
        let bytes_in_per_op = bytes_in as f64 / (2 * self.scale.templates_per_stack) as f64;
        ledger.set("serve.bytes_in_per_op", bytes_in_per_op);
        ledger.set(
            "serve.bytes_out_per_op",
            win.wire_bytes_per_op() - bytes_in_per_op,
        );
        ledger.set("transport.messages_per_op", 2.0);
        ledger.set("transport.bytes_per_op", win.wire_bytes_per_op());
        if let (Some(d), Some((fsyncs, appended))) = (&self.durable, durable_before) {
            ledger.set("xmldb.fsyncs_per_op", (d.fsyncs() - fsyncs) as f64 / ops);
            // Every write is one logged op and a snapshot follows every
            // `snapshot_every` of them.
            ledger.set(
                "xmldb.snapshots",
                ((d.appended_ops() - appended) / DURABLE.snapshot_every as u64) as f64,
            );
        }

        // 2. The same requests replayed stage by stage on this thread. Spans
        // on and off alternate a hundred requests at a time, so a change of
        // the host's speed lands on both sides alike; then a short pass
        // counting allocations.
        let replay_ops = self.scale.replay_ops;
        let mut off = Tracer::new(false);
        let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..replay_ops / 100 {
            let t = Instant::now();
            self.replay(100, 0, &mut off);
            untraced += t.elapsed();
            let t = Instant::now();
            self.replay(100, 0, tracer);
            traced += t.elapsed();
        }
        let untraced_us = untraced.as_secs_f64() * 1e6 / replay_ops as f64;
        let mut responses = Vec::new();
        let alloc_ops = replay_ops / 10;
        alloc_metrics(ledger, alloc_ops, || {
            responses = self.replay(alloc_ops, 128, &mut off);
        });
        let stages = stage_totals(tracer.spans());
        ledger.set("serve.http_head_us", stages["serve.http_head"].mean_us());
        ledger.set("serve.http_write_us", stages["serve.http_write"].mean_us());
        ledger.set(
            "container.pipeline_us",
            stages["container.pipeline"].mean_us(),
        );
        // What the socket path costs beyond the in-thread stages: syscalls,
        // epoll, per-request observability.
        ledger.set(
            "serve.loop_residual_us",
            1e6 / win.mean_throughput_ops_s() - untraced_us,
        );
        trace_metrics(ledger, tracer, traced, untraced);

        // 3. The layers under the handler, on the same messages.
        let mut wires: Vec<String> = (0..128)
            .map(|k| {
                let request = &self.requests[k % 2][k / 2];
                let HeadParse::Parsed(head) = http::parse_head(request) else {
                    panic!("own request does not parse");
                };
                String::from_utf8(request[head.head_len..].to_vec()).expect("utf-8 body")
            })
            .collect();
        wires.extend(responses);
        message_layers(ledger, &self.tb, &wires, 10);
        let sample = Envelope::from_wire(&wires[0]).expect("sample is an envelope");
        plumbing_layers(ledger, &self.tb, &sample);
        self.xmldb_layers(ledger);
        self.counter_layers(ledger);
        let store_us = match self.mode {
            Mode::Get => {
                let live = self.tb.db(HOST).collection(&format!("wxf:{TRANSFER_PATH}"));
                let id = self.eprs[0][0]
                    .resource_id()
                    .expect("resource EPR")
                    .to_owned();
                mean_us(1, 2_000, |_| {
                    std::hint::black_box(live.get(&id));
                })
            }
            Mode::Put => ledger.get("xmldb.update_us"),
        };
        ledger.set(
            "container.residual_us",
            ledger.get("container.pipeline_us")
                - ledger.get("security.verify_us")
                - ledger.get("security.sign_us")
                - store_us,
        );
    }

    fn check(mut self) -> Result<TeardownMetrics, String> {
        self.server.shutdown();
        let stats = self.server.stats();
        if let Some(failure) = &self.checker.first_failure {
            return Err(format!(
                "{} failed responses, first: {failure}",
                self.checker.failed
            ));
        }
        if stats.http_errors() != 0 || stats.dispatch_panics() != 0 {
            return Err(format!(
                "server counted {} HTTP errors and {} handler panics",
                stats.http_errors(),
                stats.dispatch_panics()
            ));
        }
        if self.checker.verified == 0 {
            return Err("no response was signature-verified".into());
        }
        let Some(backend) = self.durable.take() else {
            return Ok(Vec::new());
        };
        // A snapshot truncates the log every `snapshot_every` writes of a
        // few hundred bytes each.
        let wal_limit = DURABLE.snapshot_every as u64 * 1024;
        if backend.wal_len() > wal_limit {
            return Err(format!(
                "the WAL holds {} bytes between snapshots, more than {wal_limit}",
                backend.wal_len()
            ));
        }

        // Restart: drop the server, the testbed and its database, recover
        // from the media alone into a fresh database, and compare with what
        // the server acknowledged.
        let ids = [0, 1].map(|lane| {
            self.eprs[lane]
                .iter()
                .map(|e| e.resource_id().expect("resource EPR").to_owned())
                .collect::<Vec<_>>()
        });
        let last_acked = std::mem::take(&mut self.checker.last_acked);
        drop(self);
        let t = Instant::now();
        let report = backend.recover();
        let db = Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(backend.clone()),
        );
        backend.restore_into(&db);
        let recovery_s = t.elapsed().as_secs_f64();
        let collections = [
            (format!("wxf:{TRANSFER_PATH}"), "value"),
            (format!("wsrf:{WSRF_PATH}"), "cv"),
        ];
        for lane in 0..2 {
            let (name, member) = &collections[lane];
            let collection = db.collection(name);
            for (i, id) in ids[lane].iter().enumerate() {
                let got: Option<i64> = collection.get(id).and_then(|d| d.child_parse(member));
                if got != Some(last_acked[lane][i]) {
                    return Err(format!(
                        "after recovery `{id}` holds {got:?}, last acknowledged write was {}",
                        last_acked[lane][i]
                    ));
                }
            }
        }
        Ok(vec![
            ("xmldb.recovery_s", recovery_s),
            ("xmldb.recovered_docs", report.docs as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale {
        counters_per_stack: 24,
        templates_per_stack: 64,
        warmup_requests: 200,
        replay_ops: 100,
    };

    #[test]
    fn the_same_seed_generates_byte_identical_requests() {
        for mode in [Mode::Get, Mode::Put] {
            let a = SocketWorkload::set_up_scaled(7, mode, SMALL);
            let b = SocketWorkload::set_up_scaled(7, mode, SMALL);
            let c = SocketWorkload::set_up_scaled(8, mode, SMALL);
            for lane in 0..2 {
                assert_eq!(a.inputs[lane], b.inputs[lane]);
                assert_eq!(a.requests[lane], b.requests[lane], "{mode:?} lane {lane}");
                assert_ne!(a.inputs[lane], c.inputs[lane]);
                assert_ne!(a.requests[lane], c.requests[lane], "{mode:?} lane {lane}");
                // Every request is a complete, framed HTTP request.
                for request in a.requests[lane].iter() {
                    let HeadParse::Parsed(head) = http::parse_head(request) else {
                        panic!("generated request does not parse");
                    };
                    assert_eq!(head.head_len + head.content_length, request.len());
                }
            }
            for w in [a, b, c] {
                w.check().expect("warm-up responses check out");
            }
        }
    }

    #[test]
    fn a_shortened_put_logged_mem_recovers_every_acknowledged_write() {
        let mut w = SocketWorkload::set_up_scaled(3, Mode::Put, SMALL);
        // Batch creates: before the warm-up's one sync per write, set-up
        // logged two records, not one per counter.
        let syncs = w.durable.as_ref().expect("durable").fsyncs();
        assert_eq!(syncs - SMALL.warmup_requests, 2);
        let mut rec = Recorder::start(w.memory_checkpoint());
        w.measure(Duration::from_millis(1_200), &mut rec);
        let window = rec.finish();
        assert_eq!(window.failed, 0);
        assert!(window.ops() > 100);
        assert!(w.retained() <= w.retained_limit());
        let teardown = w.check().expect("recovery holds every last-acked value");
        let docs = teardown
            .iter()
            .find(|(name, _)| *name == "xmldb.recovered_docs")
            .expect("recovery reported");
        assert_eq!(docs.1, 2.0 * SMALL.counters_per_stack as f64);
    }

    #[test]
    fn a_lost_write_is_caught_at_teardown() {
        let mut w = SocketWorkload::set_up_scaled(3, Mode::Put, SMALL);
        // Pretend the server acknowledged a value it never stored.
        w.checker.last_acked[0][0] += 1_000;
        let err = w.check().unwrap_err();
        assert!(err.contains("after recovery"), "{err}");
    }
}
