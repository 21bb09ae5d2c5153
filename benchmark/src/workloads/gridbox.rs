//! `gridbox_jobs`: the paper's Figure 6 application on both stacks.
//!
//! A full VO per stack — `vo-host`, two execution sites, one client — over
//! the in-process network with one-way messages delivered inline, so a whole
//! operation runs on the driver thread. One operation is one user session
//! that runs the whole job flow once on each stack, WSRF then WS-Transfer:
//! discover, reserve, upload 24 KB, instantiate, finish, delete, unreserve,
//! and then what a well-behaved client owes the VO — destroy the job, the
//! subscription and (WSRF) the directory. Pairing the stacks keeps the
//! latency distribution unimodal: alternating single jobs would put p50 on
//! the boundary between a 1.2 ms and a 2 ms mode.
//!
//! Container outcalls, the wsrf/wsn/transfer/eventing service code and
//! per-hop signing do the work; the serving tier and the WAL do nothing.
//!
//! Without the clean-up the workload is not in steady state: every job's
//! exit notification goes to every earlier job's subscriber and
//! `pumpCompletions` scans every earlier job, so job time grows linearly
//! (3.7 ms, 8.0 ms, 11.9 ms, 15.7 ms over four rounds of a hundred jobs).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ogsa_core::addressing::EndpointReference;
use ogsa_core::container::Testbed;
use ogsa_core::eventing::messages as wse;
use ogsa_core::gridbox::{GridScenario, TransferGrid, WsrfGrid};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::sim::{CostModel, SimDuration};
use ogsa_core::soap::Envelope;
use ogsa_core::transfer::TransferProxy;
use ogsa_core::wsrf::WsrfProxy;
use ogsa_core::xmldb::BackendKind;

use super::{alloc_metrics, driver_metrics, stored_docs, trace_metrics, TeardownMetrics, Workload};
use crate::layers::{message_layers, plumbing_layers};
use crate::metrics::Ledger;
use crate::probe::{self, Probe};
use crate::stats::Recorder;
use crate::trace::{stage_totals, Tracer, OP};

const POLICY: SecurityPolicy = SecurityPolicy::X509Sign;
const USER: &str = "CN=alice,O=UVA-VO";
const CLIENT_HOST: &str = "client-1";
const HOSTS: [&str; 3] = ["vo-host", "site-a", "site-b"];
const FILE: &str = "input.dat";
const FILE_BYTES: usize = 24 * 1024;
const WAIT: Duration = Duration::from_secs(5);
/// Job pairs run before the first measured one.
pub const WARMUP_OPS: usize = 1_150;
/// Job pairs replayed with spans by the traced run.
const TRACED_OPS: usize = 500;

const STEPS: [&str; 8] = [
    "discover",
    "reserve",
    "upload",
    "instantiate",
    "finish",
    "delete",
    "unreserve",
    "cleanup",
];
const WSRF_SPANS: [&str; 8] = [
    "gridbox.wsrf.discover",
    "gridbox.wsrf.reserve",
    "gridbox.wsrf.upload",
    "gridbox.wsrf.instantiate",
    "gridbox.wsrf.finish",
    "gridbox.wsrf.delete",
    "gridbox.wsrf.unreserve",
    "gridbox.wsrf.cleanup",
];
const TRANSFER_SPANS: [&str; 8] = [
    "gridbox.transfer.discover",
    "gridbox.transfer.reserve",
    "gridbox.transfer.upload",
    "gridbox.transfer.instantiate",
    "gridbox.transfer.finish",
    "gridbox.transfer.delete",
    "gridbox.transfer.unreserve",
    "gridbox.transfer.cleanup",
];

/// The scenarios name their consumer endpoints from process-wide counters;
/// these follow them so the endpoints can be unbound again.
static WSRF_CONSUMERS: AtomicU64 = AtomicU64::new(0);
static TRANSFER_CONSUMERS: AtomicU64 = AtomicU64::new(0);

/// The seven Figure 6 steps, one span each. The clean-up is the caller's:
/// it needs the concrete scenario.
fn flow(
    scenario: &mut dyn GridScenario,
    spans: &[&'static str; 8],
    op: u32,
    t: &mut Tracer,
) -> Result<(), String> {
    let fail = |step: usize, e: &dyn std::fmt::Display| format!("{}: {e}", spans[step]);
    t.span(spans[0], op, |_| scenario.get_available_resource("blast"))
        .map_err(|e| fail(0, &e))?;
    t.span(spans[1], op, |_| scenario.make_reservation())
        .map_err(|e| fail(1, &e))?;
    t.span(spans[2], op, |_| scenario.upload_file(FILE, FILE_BYTES))
        .map_err(|e| fail(2, &e))?;
    t.span(spans[3], op, |_| {
        scenario.instantiate_job(SimDuration::from_millis(2000.0))
    })
    .map_err(|e| fail(3, &e))?;
    let exit = t
        .span(spans[4], op, |_| scenario.finish_job(WAIT))
        .map_err(|e| fail(4, &e))?;
    if exit != 0 {
        return Err(format!("{}: job exited {exit}", spans[4]));
    }
    t.span(spans[5], op, |_| scenario.delete_file(FILE))
        .map_err(|e| fail(5, &e))?;
    t.span(spans[6], op, |_| scenario.unreserve_resource())
        .map_err(|e| fail(6, &e))?;
    Ok(())
}

/// Reads, inserts, updates, deletes and queries on every host's database.
fn db_ops(tb: &Testbed) -> u64 {
    const OPS: [&str; 5] = ["reads", "inserts", "updates", "deletes", "queries"];
    HOSTS
        .iter()
        .flat_map(|host| tb.db(host).stats().snapshot())
        .filter(|(name, _)| OPS.contains(name))
        .map(|(_, v)| v)
        .sum()
}

fn signatures(tb: &Testbed) -> u64 {
    tb.telemetry()
        .metrics()
        .counter("sec.c14n_passes", &[("stage", "sign")])
}

fn quiet_testbed() -> Testbed {
    let tb = Testbed::new_quiet(CostModel::free(), BackendKind::Memory);
    tb.network().set_synchronous_oneways(true);
    tb
}

pub struct GridboxWorkload {
    wsrf_tb: Testbed,
    wsrf: WsrfGrid,
    transfer_tb: Testbed,
    transfer: TransferGrid,
    /// Subscriptions created so far on each notification source, by address:
    /// both stacks number them from zero.
    subscriptions: HashMap<String, u64>,
    /// Documents both VOs hold between jobs.
    resting_docs: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl GridboxWorkload {
    pub fn set_up(_seed: u64) -> GridboxWorkload {
        // The flow has no free input: the seed has nothing to vary. Every
        // job is the same user, application and file size, as in Figure 6.
        let sites = &HOSTS[1..];
        let wsrf_tb = quiet_testbed();
        let wsrf = WsrfGrid::deploy(&wsrf_tb, POLICY, sites, &["blast"], &[USER]);
        let transfer_tb = quiet_testbed();
        let transfer = TransferGrid::deploy(&transfer_tb, POLICY, sites, &["blast"], &[USER]);
        let resting_docs = stored_docs(&wsrf_tb, &HOSTS) + stored_docs(&transfer_tb, &HOSTS);
        let mut workload = GridboxWorkload {
            wsrf_tb,
            wsrf,
            transfer_tb,
            transfer,
            subscriptions: HashMap::new(),
            resting_docs,
            failed: 0,
            first_failure: None,
        };
        let mut off = Tracer::new(false);
        for op in 0..WARMUP_OPS {
            workload.run_op(op as u32, &mut off);
        }
        workload
    }

    fn next_subscription(&mut self, source: &str) -> u64 {
        let n = self.subscriptions.entry(source.to_owned()).or_insert(0);
        *n += 1;
        *n - 1
    }

    fn wsrf_job(&mut self, op: u32, t: &mut Tracer) -> Result<(), String> {
        let agent = self.wsrf_tb.client(CLIENT_HOST, USER, POLICY);
        let mut scenario = self.wsrf.scenario(agent.clone());
        let consumer = WSRF_CONSUMERS.fetch_add(1, Ordering::Relaxed);
        flow(&mut scenario, &WSRF_SPANS, op, t)?;
        let job = scenario.job_epr().expect("job instantiated").clone();
        drop(scenario);
        let site = self
            .wsrf
            .sites
            .iter()
            .find(|s| s.exec_epr.address == job.address)
            .expect("job runs on a registered site");
        let (site_host, data_address) = (site.host.clone(), site.data_epr.address.clone());
        let subscription = self.next_subscription(&job.address);
        let tb = &self.wsrf_tb;
        t.span(WSRF_SPANS[7], op, |_| {
            let proxy = WsrfProxy::new(&agent);
            proxy.destroy(&job)?;
            proxy.destroy(&EndpointReference::resource(
                format!("{}/subscriptions", job.address),
                format!("sub-{subscription}"),
            ))?;
            // Directory names are the service's own; ask its store.
            for dir in tb.db(&site_host).collection("wsrf:/services/Data").keys() {
                proxy.destroy(&EndpointReference::resource(data_address.clone(), dir))?;
            }
            tb.network()
                .unbind(&format!("http://{CLIENT_HOST}/gib-notify/{consumer}"));
            Ok(())
        })
        .map_err(|e: ogsa_core::container::InvokeError| format!("{}: {e}", WSRF_SPANS[7]))
    }

    fn transfer_job(&mut self, op: u32, t: &mut Tracer) -> Result<(), String> {
        let agent = self.transfer_tb.client(CLIENT_HOST, USER, POLICY);
        let mut scenario = self.transfer.scenario(agent.clone());
        let consumer = TRANSFER_CONSUMERS.fetch_add(1, Ordering::Relaxed);
        flow(&mut scenario, &TRANSFER_SPANS, op, t)?;
        let job = scenario.job_epr().expect("job instantiated").clone();
        drop(scenario);
        let events = format!("{}Events", job.address);
        let subscription = self.next_subscription(&events);
        let tb = &self.transfer_tb;
        t.span(TRANSFER_SPANS[7], op, |_| {
            TransferProxy::new(&agent).delete(&job)?;
            agent.invoke(
                &EndpointReference::resource(
                    format!("{events}/manager"),
                    format!("es-{subscription}"),
                ),
                wse::actions::UNSUBSCRIBE,
                wse::unsubscribe_request(),
            )?;
            tb.network()
                .unbind(&format!("tcp://{CLIENT_HOST}/gib-events/{consumer}"));
            Ok(())
        })
        .map_err(|e: ogsa_core::container::InvokeError| format!("{}: {e}", TRANSFER_SPANS[7]))
    }

    /// One operation: one job on each stack, then nothing left behind.
    fn run_op(&mut self, op: u32, t: &mut Tracer) -> bool {
        let outcome = t.span(OP, op, |t| {
            t.span("gridbox.wsrf.job", op, |t| self.wsrf_job(op, t))?;
            t.span("gridbox.transfer.job", op, |t| self.transfer_job(op, t))
        });
        let outcome = outcome.and_then(|()| {
            let docs = self.retained();
            if docs == self.resting_docs {
                Ok(())
            } else {
                Err(format!(
                    "{} documents left behind (file, reservation, job, subscription or directory)",
                    docs as i64 - self.resting_docs as i64
                ))
            }
        });
        if let Err(e) = &outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(e.clone());
        }
        outcome.is_ok()
    }

    fn wire_bytes(&self) -> u64 {
        self.wsrf_tb.network().stats().bytes() + self.transfer_tb.network().stats().bytes()
    }

    /// Capture the request envelopes of one WSRF job by standing in front of
    /// every service handler of that VO, then put the handlers back. (The
    /// WS-Transfer VO has its own certificate store; one sample set can only
    /// be verified against one.)
    fn sample_wires(&mut self) -> Vec<String> {
        let captured = Arc::new(Mutex::new(Vec::new()));
        let net = self.wsrf_tb.network().clone();
        let mut addresses = vec![
            self.wsrf.account_epr.address.clone(),
            self.wsrf.allocation_epr.address.clone(),
            self.wsrf.reservation_epr.address.clone(),
        ];
        for s in &self.wsrf.sites {
            addresses.push(s.exec_epr.address.clone());
            addresses.push(s.data_epr.address.clone());
        }
        let originals: Vec<_> = addresses
            .iter()
            .map(|address| net.handler_for(address).expect("service bound"))
            .collect();
        for (address, inner) in addresses.iter().zip(&originals) {
            let (sink, forward) = (captured.clone(), inner.clone());
            net.bind(
                address,
                Arc::new(move |req: Envelope| {
                    sink.lock().expect("capture lock").push(req.to_wire());
                    forward(req)
                }),
            );
        }
        self.wsrf_job(u32::MAX, &mut Tracer::new(false))
            .expect("sampled job");
        for (address, inner) in addresses.iter().zip(originals) {
            net.bind(address, inner);
        }
        let wires = std::mem::take(&mut *captured.lock().expect("capture lock"));
        wires
    }
}

impl Workload for GridboxWorkload {
    /// Documents both VOs hold right now.
    fn retained(&self) -> u64 {
        stored_docs(&self.wsrf_tb, &HOSTS) + stored_docs(&self.transfer_tb, &HOSTS)
    }

    /// Between jobs, exactly what the freshly deployed VOs held.
    fn retained_limit(&self) -> u64 {
        self.resting_docs
    }

    fn memory_checkpoint(&self) -> u64 {
        1_500
    }

    fn measure(&mut self, window: Duration, rec: &mut Recorder) {
        let deadline = Instant::now() + window;
        let mut off = Tracer::new(false);
        let mut probe = Probe::new();
        let mut op = 0u32;
        let mut now = Instant::now();
        let mut next_burst = now;
        while now < deadline {
            if now >= next_burst {
                rec.probe(probe.burst());
                now = Instant::now();
                next_burst = now + probe::EVERY;
            }
            let bytes = self.wire_bytes();
            let start = now;
            if !self.run_op(op, &mut off) {
                rec.failed += 1;
            }
            now = Instant::now();
            rec.record(now, now - start, self.wire_bytes() - bytes);
            op += 1;
        }
    }

    fn trace(&mut self, window: Duration, tracer: &mut Tracer, ledger: &mut Ledger) {
        let mut rec = Recorder::start(self.memory_checkpoint());
        self.measure(window, &mut rec);
        let win = rec.finish();
        driver_metrics(ledger, &win);

        // Counts per job, exact: the paper's "outcalls and signings".
        let counts = |tb: &Testbed| (tb.network().stats().messages(), signatures(tb), db_ops(tb));
        let before = (counts(&self.wsrf_tb), counts(&self.transfer_tb));
        // Spans on and off alternate job pair by job pair, so a change of the
        // host's speed lands on both sides alike.
        let mut off = Tracer::new(false);
        let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
        for op in 0..TRACED_OPS as u32 {
            let t = Instant::now();
            assert!(self.run_op(op, &mut off), "replayed job");
            untraced += t.elapsed();
            let t = Instant::now();
            assert!(self.run_op(op, tracer), "traced job");
            traced += t.elapsed();
        }
        let after = (counts(&self.wsrf_tb), counts(&self.transfer_tb));
        let jobs = 2.0 * TRACED_OPS as f64;
        for (stack, b, a) in [("wsrf", before.0, after.0), ("transfer", before.1, after.1)] {
            ledger.set(
                &format!("gridbox.{stack}.messages_per_job"),
                (a.0 - b.0) as f64 / jobs,
            );
            ledger.set(
                &format!("gridbox.{stack}.signatures_per_job"),
                (a.1 - b.1) as f64 / jobs,
            );
            ledger.set(
                &format!("gridbox.{stack}.db_ops_per_job"),
                (a.2 - b.2) as f64 / jobs,
            );
        }
        let messages = (after.0 .0 - before.0 .0) + (after.1 .0 - before.1 .0);
        ledger.set("transport.messages_per_op", messages as f64 / jobs);
        ledger.set("transport.bytes_per_op", win.wire_bytes_per_op());

        let alloc_ops = TRACED_OPS / 10;
        alloc_metrics(ledger, alloc_ops, || {
            for op in 0..alloc_ops {
                self.run_op(op as u32, &mut off);
            }
        });
        let stages = stage_totals(tracer.spans());
        for (spans, stack) in [(&WSRF_SPANS, "wsrf"), (&TRANSFER_SPANS, "transfer")] {
            for (span, step) in spans.iter().zip(STEPS) {
                ledger.set(
                    &format!("gridbox.{stack}.{step}_us"),
                    stages[span].mean_us(),
                );
            }
        }
        trace_metrics(ledger, tracer, traced, untraced);

        let wires = self.sample_wires();
        message_layers(ledger, &self.wsrf_tb, &wires, 10);
        let sample = Envelope::from_wire(&wires[0]).expect("sample is an envelope");
        plumbing_layers(ledger, &self.wsrf_tb, &sample);
    }

    fn check(self) -> Result<TeardownMetrics, String> {
        if let Some(failure) = self.first_failure {
            return Err(format!("{} failed jobs, first: {failure}", self.failed));
        }
        for tb in [&self.wsrf_tb, &self.transfer_tb] {
            if !tb.network().dead_letters().is_empty() {
                return Err("a job-exit notification was dead-lettered".into());
            }
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_leave_nothing_behind() {
        // Set-up runs the warm-up jobs; a failed one fails `check`.
        let mut w = GridboxWorkload::set_up(1);
        assert_eq!(w.retained(), w.retained_limit());
        let mut tracer = Tracer::new(true);
        assert!(w.run_op(0, &mut tracer));
        assert_eq!(w.retained(), w.retained_limit());
        // One operation: a root, two jobs, eight steps each.
        assert_eq!(tracer.spans().len(), 1 + 2 * 9);
        assert!(crate::trace::unattributed_pct(tracer.spans()) < 15.0);
        w.check().expect("every job exited 0 and cleaned up");
    }
}
