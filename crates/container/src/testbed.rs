//! The testbed: everything the paper's two identically-configured machines
//! provided, in one factory object.

use std::collections::HashMap;
use std::sync::Arc;

use ogsa_security::{CertAuthority, CertStore, SecurityPolicy};
use ogsa_sim::{CostModel, DetRng, VirtualClock};
use ogsa_transport::Network;
use ogsa_xmldb::{BackendKind, Database, DbConfig, DurableBackend, DurableConfig, RecoveryReport};
use parking_lot::Mutex;

use crate::client::ClientAgent;
use crate::host::Container;
use crate::replication::ReplicaSet;

/// Owns the virtual clock, cost model, network, PKI, and per-host databases;
/// stamps out containers and client agents wired to all of them.
#[derive(Clone)]
pub struct Testbed {
    clock: VirtualClock,
    model: Arc<CostModel>,
    network: Network,
    cert_store: CertStore,
    ca: CertAuthority,
    rng: DetRng,
    backend: BackendKind,
    db_config: DbConfig,
    durable_cfg: Option<DurableConfig>,
    durables: Arc<Mutex<HashMap<String, Arc<DurableBackend>>>>,
    dbs: Arc<Mutex<HashMap<String, Database>>>,
}

impl Testbed {
    /// A testbed with the given cost model and storage backend.
    pub fn new(model: CostModel, backend: BackendKind) -> Self {
        Testbed::build(model, backend, false)
    }

    /// Like [`Testbed::new`] but with span recording disabled (metrics
    /// still record). Long wall-clock runs — the real-socket load
    /// generator in particular — would otherwise accumulate one span
    /// record per request, unbounded.
    pub fn new_quiet(model: CostModel, backend: BackendKind) -> Self {
        Testbed::build(model, backend, true)
    }

    fn build(model: CostModel, backend: BackendKind, quiet: bool) -> Self {
        let clock = VirtualClock::new();
        let model = Arc::new(model);
        let network = if quiet {
            Network::with_telemetry(
                clock.clone(),
                model.clone(),
                ogsa_telemetry::Telemetry::disabled(),
            )
        } else {
            Network::new(clock.clone(), model.clone())
        };
        let cert_store = CertStore::new();
        let ca = cert_store.authority("CN=UVA-Grid-CA,O=University of Virginia");
        Testbed {
            clock,
            model,
            network,
            cert_store,
            ca,
            rng: DetRng::default(),
            backend,
            db_config: DbConfig::default(),
            durable_cfg: None,
            durables: Arc::new(Mutex::new(HashMap::new())),
            dbs: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Reconfigure the per-host databases to use `shards` key shards — the
    /// knob the throughput harness sweeps. Must be set before the first call
    /// to [`Testbed::db`] for a host; already-built databases keep their
    /// shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.db_config = DbConfig { shards };
        self
    }

    /// The shard count freshly-built per-host databases will use.
    pub fn shards(&self) -> usize {
        self.db_config.shards
    }

    /// Back every per-host database with a crash-injectable durable store
    /// (WAL + snapshots, [`DurableBackend::sim`] media): the configuration
    /// the crash harness drives. Must be set before the first call to
    /// [`Testbed::db`] for a host. Virtual-time figures are unchanged —
    /// the durable backend reports the same calibrated cost profile.
    pub fn with_durable(mut self, cfg: DurableConfig) -> Self {
        self.durable_cfg = Some(cfg);
        self
    }

    /// The durable backend behind `host`'s database, when
    /// [`Testbed::with_durable`] is active and the database exists — arm
    /// crash points through its [`DurableBackend::sim_medium`].
    pub fn durable(&self, host: &str) -> Option<Arc<DurableBackend>> {
        self.durables.lock().get(host).cloned()
    }

    /// Kill and reboot `host`'s storage: every in-memory database state is
    /// discarded (exactly what a process crash destroys), the durable
    /// backend recovers from its WAL + snapshot, and a fresh database is
    /// repopulated from the recovered image. Containers built before the
    /// restart still hold the dead database — build new ones, as a real
    /// redeploy would. Returns `None` when the testbed is not durable or
    /// the host never had a database.
    pub fn restart_host(&self, host: &str) -> Option<RecoveryReport> {
        let backend = self.durable(host)?;
        self.dbs.lock().remove(host)?;
        let report = backend.recover();
        let db = self.db(host);
        backend.restore_into(&db);
        Some(report)
    }

    /// Discard `host`'s in-memory database and build a fresh one (same
    /// durable backend). The replication seams use this when a host's
    /// authoritative state changes wholesale — a promoted replica
    /// installing the converged image, a deposed primary truncating its
    /// split-brain tail — because merging into the stale in-memory state
    /// would resurrect deleted documents. Same caveat as
    /// [`Testbed::restart_host`]: containers built before the reset still
    /// hold the dead database.
    pub(crate) fn reset_host_db(&self, host: &str) -> Database {
        self.dbs.lock().remove(host);
        self.db(host)
    }

    /// The configuration all figures are regenerated under: calibrated 2005
    /// costs, Xindice-like disk storage.
    pub fn calibrated() -> Self {
        Testbed::new(CostModel::calibrated_2005(), BackendKind::SimDisk)
    }

    /// Zero-cost, in-memory testbed for functional tests.
    pub fn free() -> Self {
        Testbed::new(CostModel::free(), BackendKind::Memory)
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    pub fn network(&self) -> &Network {
        &self.network
    }

    pub fn cert_store(&self) -> &CertStore {
        &self.cert_store
    }

    pub fn ca(&self) -> &CertAuthority {
        &self.ca
    }

    pub fn rng(&self) -> &DetRng {
        &self.rng
    }

    /// The telemetry sink every component in this testbed reports into (it
    /// lives on the network, which everything already shares).
    pub fn telemetry(&self) -> &ogsa_telemetry::Telemetry {
        self.network.telemetry()
    }

    /// The database on `host` (one Xindice instance per machine; containers
    /// on the same host share it).
    ///
    /// The database counts into the shared
    /// [`MetricsRegistry`](ogsa_telemetry::MetricsRegistry) as
    /// `db.<op>{host}` (`db.reads`, ...), and its scrape-time gauges
    /// ([`ogsa_xmldb::DbStats::register_gauges`]) ride every `gather()` — and
    /// therefore every `/metrics` scrape of a serving tier sharing this
    /// telemetry.
    pub fn db(&self, host: &str) -> Database {
        self.dbs
            .lock()
            .entry(host.to_owned())
            .or_insert_with(|| {
                let backend = match self.durable_cfg {
                    Some(cfg) => BackendKind::Custom(
                        self.durables
                            .lock()
                            .entry(host.to_owned())
                            .or_insert_with(|| {
                                Arc::new(
                                    DurableBackend::sim(cfg)
                                        .with_telemetry(self.network.telemetry().clone()),
                                )
                            })
                            .clone(),
                    ),
                    None => self.backend.clone(),
                };
                let db = Database::with_config(
                    host,
                    self.clock.clone(),
                    self.model.clone(),
                    backend,
                    self.network.telemetry().clone(),
                    self.db_config,
                );
                db.stats().register_gauges(db.config().shards);
                db
            })
            .clone()
    }

    /// Replicate `primary`'s durable store to `replicas`: the primary's
    /// WAL is tapped by a [`Replicator`](ogsa_xmldb::Replicator) shipping
    /// framed records over the simulated network (judged by the armed
    /// [`FaultPlan`](ogsa_transport::FaultPlan) on `repl://{host}` edges,
    /// charging **zero** virtual time), with one
    /// [`ReplicaNode`](ogsa_xmldb::ReplicaNode) per replica host. Requires
    /// [`Testbed::with_durable`].
    ///
    /// The returned [`ReplicaSet`] owns the failover seams —
    /// [`ReplicaSet::promote_longest_acked`] when the fault plan partitions
    /// the primary, [`ReplicaSet::rejoin`] to truncate and readmit it.
    ///
    /// Registers a scrape-time collector publishing `repl.term`,
    /// `repl.quorum_acked_seq`, and per-host `repl.acked_seq` /
    /// `repl.lag_records` / `repl.reachable` gauges on every `gather()`;
    /// like the db stats gauges, these never appear in the deterministic
    /// `snapshot()`.
    pub fn with_replicas(&self, primary: &str, replicas: &[&str]) -> Arc<ReplicaSet> {
        let cfg = self
            .durable_cfg
            .expect("with_replicas requires with_durable (the WAL is what ships)");
        self.db(primary);
        let set = ReplicaSet::new(self.clone(), primary, replicas, cfg.fsync);
        let stats = set.clone();
        self.network
            .telemetry()
            .metrics()
            .register_collector(move |snap| {
                let repl = stats.replicator();
                snap.set_gauge("repl.term", &[], repl.term());
                snap.set_gauge("repl.quorum_acked_seq", &[], repl.quorum_acked_seq());
                snap.set_gauge(
                    "repl.acked_seq",
                    &[("host", repl.self_id())],
                    repl.primary_acked_seq(),
                );
                let last = repl.last_seq();
                for (host, _matched, acked, reachable) in repl.member_status() {
                    snap.set_gauge("repl.acked_seq", &[("host", &host)], acked);
                    snap.set_gauge(
                        "repl.lag_records",
                        &[("host", &host)],
                        last.saturating_sub(acked),
                    );
                    snap.set_gauge("repl.reachable", &[("host", &host)], u64::from(reachable));
                }
            });
        set
    }

    /// A container on `host` under `policy`, with its own service identity.
    ///
    /// Registers a scrape-time collector for the container's lifetime
    /// manager — `container.lifetime_tracked`,
    /// `container.lifetime_next_deadline_us`, `container.lifetime_expired`
    /// and `container.lifetime_sweep_examined`, per host — on the same
    /// terms as the db stats gauges: `gather()` only.
    pub fn container(&self, host: &str, policy: SecurityPolicy) -> Container {
        let identity = self.ca.issue(&format!("CN=container,O=VO,OU={host}"));
        let container = Container::new(
            host.to_owned(),
            policy,
            self.network.clone(),
            self.db(host),
            self.clock.clone(),
            self.model.clone(),
            identity,
            self.cert_store.clone(),
        );
        container
            .lifetime()
            .register_metrics(self.network.telemetry(), host);
        container
    }

    /// A client agent on `host` with a freshly-issued identity for `dn`.
    pub fn client(&self, host: &str, dn: &str, policy: SecurityPolicy) -> ClientAgent {
        let identity = self.ca.issue(dn);
        ClientAgent::new(
            self.network.port(host),
            identity,
            self.cert_store.clone(),
            policy,
            self.clock.clone(),
            self.model.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_host_shares_a_database() {
        let tb = Testbed::free();
        tb.db("host-a")
            .collection("c")
            .insert("k", ogsa_xml::Element::new("d"))
            .unwrap();
        assert!(tb.db("host-a").collection("c").get("k").is_some());
        assert!(tb.db("host-b").collection("c").get("k").is_none());
    }

    #[test]
    fn containers_share_clock_and_network() {
        let tb = Testbed::free();
        let a = tb.container("host-a", SecurityPolicy::None);
        let b = tb.container("host-b", SecurityPolicy::None);
        tb.clock().advance(ogsa_sim::SimDuration::from_micros(5));
        assert_eq!(a.clock().now(), b.clock().now());
    }

    #[test]
    fn shard_knob_reaches_the_per_host_database() {
        let tb = Testbed::free().with_shards(2);
        assert_eq!(tb.shards(), 2);
        assert_eq!(tb.db("host-a").config().shards, 2);
        // Default testbeds keep the default shard count.
        assert_eq!(
            Testbed::free().db("host-a").config().shards,
            ogsa_xmldb::DEFAULT_SHARDS
        );
    }

    #[test]
    fn quiet_testbed_records_metrics_but_no_spans() {
        let tb = Testbed::new_quiet(CostModel::free(), BackendKind::Memory);
        assert!(!tb.telemetry().is_enabled());
        {
            let _s = tb
                .telemetry()
                .span(ogsa_telemetry::SpanKind::Other, "probe");
        }
        assert_eq!(tb.telemetry().span_count(), 0);
        tb.telemetry().metrics().inc("probe.hits", &[]);
        assert_eq!(tb.telemetry().metrics().counter("probe.hits", &[]), 1);
    }

    #[test]
    fn durable_testbed_restarts_a_host_without_losing_fsynced_writes() {
        let tb = Testbed::free().with_durable(DurableConfig::default());
        let doc = |v: i64| {
            ogsa_xml::Element::new("r")
                .with_child(ogsa_xml::Element::text_element("v", v.to_string()))
        };
        tb.db("host-a").collection("c").insert("k", doc(7)).unwrap();
        assert!(tb.durable("host-a").is_some());
        assert!(tb.durable("host-b").is_none(), "no db built yet");

        let report = tb.restart_host("host-a").unwrap();
        assert_eq!(report.docs, 1);
        assert_eq!(
            tb.db("host-a")
                .collection("c")
                .get("k")
                .unwrap()
                .child_parse::<i64>("v"),
            Some(7),
            "a per-write-fsynced insert survives the restart"
        );
        // wal.* telemetry flows into the shared metrics registry.
        assert!(tb.telemetry().metrics().counter("wal.appends", &[]) >= 1);
        assert_eq!(tb.telemetry().metrics().counter("wal.recoveries", &[]), 1);
    }

    #[test]
    fn restart_of_an_unknown_or_non_durable_host_is_none() {
        let tb = Testbed::free();
        tb.db("host-a");
        assert!(tb.restart_host("host-a").is_none(), "not durable");
        let tb = Testbed::free().with_durable(DurableConfig::default());
        assert!(tb.restart_host("ghost").is_none(), "no database yet");
    }

    #[test]
    fn db_stats_flow_into_gathered_metrics_per_host_and_shard() {
        let tb = Testbed::calibrated();
        let db = tb.db("host-a");
        let c = db.collection("c");
        c.insert("k", ogsa_xml::Element::new("d")).unwrap();
        c.get("k");

        let snap = tb.telemetry().metrics().gather();
        assert!(snap.counter("db.inserts{host=host-a}") >= 1);
        assert!(snap.counter("db.reads{host=host-a}") >= 1);
        // Contention scalar is present even when never contended.
        assert!(snap
            .counters
            .contains_key("db.lock_contentions{host=host-a}"));
        assert_eq!(snap.counter("db.lock_contentions{host=host-a}"), 0);

        // Per-shard busy gauges partition the store's total busy time.
        let per_shard: u64 = (0..db.config().shards)
            .map(|i| snap.gauge(&format!("db.shard_busy_us{{host=host-a,shard={i}}}")))
            .sum();
        assert!(per_shard > 0, "calibrated inserts charge shard busy time");
        assert_eq!(per_shard, db.stats().total_busy_us());

        // The deterministic snapshot stays gauge-free: collectors run only
        // on gather(), so figure regeneration is unaffected.
        let det = tb.telemetry().metrics().snapshot();
        assert!(det.gauges.is_empty());
        assert_eq!(det.counter("db.reads{host=host-a}"), db.stats().reads());
    }

    #[test]
    fn client_identities_carry_the_requested_dn() {
        let tb = Testbed::free();
        let c = tb.client("host-b", "CN=bob,O=VO", SecurityPolicy::None);
        assert_eq!(c.dn(), "CN=bob,O=VO");
    }
}
