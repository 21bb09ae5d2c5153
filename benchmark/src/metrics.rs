//! The metric names, units and directions the benchmark reports. The same
//! tables are registered in `BENCHMARK.json`; a unit test keeps them equal.
//! Later issues name metrics and workloads exactly as they are named here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, higher_is_better)`.
pub type MetricDef = (&'static str, &'static str, bool);

/// What a user of the system sees; measured with tracing off, the same seven
/// on every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("throughput_ops_s", "1/s", true),
    ("latency_p50_us", "us", false),
    ("latency_p90_us", "us", false),
    ("cpu_us_per_op", "us", false),
    ("wire_bytes_per_op", "bytes", false),
    ("peak_rss_mb", "MiB", false),
    ("setup_s", "s", false),
];

/// One layer each (layer = crate); reported by the traced run. A layer the
/// workload does not exercise reads 0: that is the "no change expected
/// here" half of every prediction in the README's table.
pub const PER_LAYER: &[MetricDef] = &[
    // serve
    ("serve.http_head_us", "us", false),
    ("serve.http_write_us", "us", false),
    ("serve.loop_residual_us", "us", false),
    ("serve.requests", "count", true),
    ("serve.http_errors", "count", false),
    ("serve.dispatch_panics", "count", false),
    ("serve.bytes_in_per_op", "bytes", false),
    ("serve.bytes_out_per_op", "bytes", false),
    // xml, soap, addressing
    ("xml.parse_us", "us", false),
    ("xml.parse_mb_s", "MB/s", true),
    ("xml.serialize_us", "us", false),
    ("xml.c14n_us", "us", false),
    ("soap.from_wire_us", "us", false),
    ("soap.to_wire_us", "us", false),
    ("addressing.headers_us", "us", false),
    // security
    ("security.verify_us", "us", false),
    ("security.sign_us", "us", false),
    ("security.c14n_passes_per_op", "count", false),
    ("security.sha256_mb_s", "MB/s", true),
    // container, telemetry, transport
    ("container.pipeline_us", "us", false),
    ("container.residual_us", "us", false),
    ("telemetry.record_us", "us", false),
    ("transport.call_us", "us", false),
    ("transport.messages_per_op", "count", false),
    ("transport.bytes_per_op", "bytes", false),
    // xmldb
    ("xmldb.get_us", "us", false),
    ("xmldb.insert_us", "us", false),
    ("xmldb.update_us", "us", false),
    ("xmldb.wal_append_us", "us", false),
    ("xmldb.fsync_us", "us", false),
    ("xmldb.wal_bytes_per_op", "bytes", false),
    ("xmldb.fsyncs_per_op", "count", false),
    ("xmldb.snapshots", "count", false),
    ("xmldb.snapshot_us", "us", false),
    ("xmldb.recovery_s", "s", false),
    ("xmldb.recovered_docs", "count", true),
    ("xmldb.store_bytes_per_doc", "bytes", false),
    ("xmldb.shard_contentions", "count", false),
    // counter, wsrf, transfer
    ("transfer.get_us", "us", false),
    ("wsrf.get_us", "us", false),
    ("transfer.put_us", "us", false),
    ("wsrf.set_us", "us", false),
    ("transfer.socket_p50_us", "us", false),
    ("wsrf.socket_p50_us", "us", false),
    ("counter.stack_gap_pct", "%", false),
    // gridbox
    ("gridbox.wsrf.discover_us", "us", false),
    ("gridbox.wsrf.reserve_us", "us", false),
    ("gridbox.wsrf.upload_us", "us", false),
    ("gridbox.wsrf.instantiate_us", "us", false),
    ("gridbox.wsrf.finish_us", "us", false),
    ("gridbox.wsrf.delete_us", "us", false),
    ("gridbox.wsrf.unreserve_us", "us", false),
    ("gridbox.wsrf.cleanup_us", "us", false),
    ("gridbox.wsrf.messages_per_job", "count", false),
    ("gridbox.wsrf.signatures_per_job", "count", false),
    ("gridbox.wsrf.db_ops_per_job", "count", false),
    ("gridbox.transfer.discover_us", "us", false),
    ("gridbox.transfer.reserve_us", "us", false),
    ("gridbox.transfer.upload_us", "us", false),
    ("gridbox.transfer.instantiate_us", "us", false),
    ("gridbox.transfer.finish_us", "us", false),
    ("gridbox.transfer.delete_us", "us", false),
    ("gridbox.transfer.unreserve_us", "us", false),
    ("gridbox.transfer.cleanup_us", "us", false),
    ("gridbox.transfer.messages_per_job", "count", false),
    ("gridbox.transfer.signatures_per_job", "count", false),
    ("gridbox.transfer.db_ops_per_job", "count", false),
    // fanout, wsn, eventing
    ("fanout.resolve_us", "us", false),
    ("fanout.matches_per_event", "count", false),
    ("fanout.enqueue_us", "us", false),
    ("fanout.flush_us", "us", false),
    ("fanout.wsn.envelopes_per_event", "count", false),
    ("fanout.eventing.envelopes_per_event", "count", false),
    ("fanout.outbox_peak_depth", "count", false),
    ("fanout.backpressure_drops", "count", false),
    ("fanout.ledger_imbalance", "count", false),
    ("wsn.notify_us", "us", false),
    ("eventing.notify_us", "us", false),
    ("wsn.subscribe_us", "us", false),
    ("eventing.subscribe_us", "us", false),
    // the benchmark's own
    ("driver.mean_throughput_ops_s", "1/s", true),
    ("driver.latency_p99_us", "us", false),
    ("driver.latency_max_us", "us", false),
    ("driver.slice_spread_pct", "%", false),
    ("driver.host_speed", "ratio", true),
    ("driver.ops_attempted", "count", true),
    ("driver.ops_failed", "count", false),
    ("alloc.count_per_op", "count", false),
    ("alloc.bytes_per_op", "bytes", false),
    ("trace.spans", "count", true),
    ("trace.unattributed_pct", "%", false),
    ("trace.overhead_pct", "%", false),
];

/// The values of one run, every metric of its table present.
pub struct Ledger {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Every metric of `defs` at 0.
    pub fn new(defs: &'static [MetricDef]) -> Ledger {
        Ledger {
            defs,
            values: defs.iter().map(|d| (d.0, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this table"));
        assert!(value.is_finite(), "metric `{name}` is not a finite number");
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `name value unit`, one per line, in table order.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, _) in self.defs {
            let _ = writeln!(out, "{name:<40} {:>16.4} {unit}", self.values[name]);
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit kept.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .defs
            .iter()
            .map(|(name, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.values[name]
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit, better)` triples of one array of `BENCHMARK.json`.
    /// The file is written by hand in one fixed shape, so a scan for the
    /// three keys in order is enough; no JSON parser is available offline.
    fn registered(json: &str, array: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_owned()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn as_registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|(n, u, higher)| {
                let better = if *higher { "higher" } else { "lower" };
                (n.to_string(), u.to_string(), better.to_owned())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_registers_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(registered(&json, "end_to_end"), as_registered(END_TO_END));
        assert_eq!(registered(&json, "per_layer"), as_registered(PER_LAYER));
        for w in crate::workloads::NAMES {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "{w} registered"
            );
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(seen.insert(*name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn ledger_prints_every_metric_and_rejects_strangers() {
        let mut l = Ledger::new(END_TO_END);
        l.set("setup_s", 3.25);
        assert_eq!(l.get("setup_s"), 3.25);
        assert_eq!(l.table().lines().count(), END_TO_END.len());
        assert!(l
            .json()
            .contains("\"setup_s\": {\"value\": 3.25, \"unit\": \"s\"}"));
        let stranger = std::panic::catch_unwind(move || l.set("latency_p99_us", 1.0));
        assert!(stranger.is_err());
    }
}
