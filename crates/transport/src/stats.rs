//! Message counters — the instrument behind the paper's §3.1 claim that
//! demand-based brokered publishing generates "an order of magnitude" more
//! messages than any other interaction.
//!
//! The counts live in the network's [`MetricsRegistry`], bumped where each
//! fact happens; [`NetStats`] reads them. A message's count and its bytes
//! land under one registry lock, so [`NetStats::snapshot`], read from one
//! registry snapshot, is a *consistent cut* — which the chaos and
//! determinism tests, comparing snapshots across runs, rely on.

use std::sync::Arc;

use ogsa_telemetry::MetricsRegistry;
use parking_lot::Mutex;

/// The series [`NetStats::reset_connection_counters`] zeroes in the view.
const CONNECTION_SERIES: [&str; 3] = ["net.connects", "net.tls_handshakes", "net.tls_resumptions"];

/// A typed read view over the network's counters.
#[derive(Debug, Clone)]
pub struct NetStats {
    metrics: MetricsRegistry,
    /// [`CONNECTION_SERIES`] at the last reset, subtracted by the view so
    /// the registry series stay monotonic.
    reset_at: Arc<Mutex<[u64; 3]>>,
}

/// A plain-data copy of every counter: the series `net.<field>`, except
/// `retries` (`invoke.retries` plus `oneway.redeliveries`) and
/// `dead_letters` (`oneway.dead_letters`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    pub requests: u64,
    pub responses: u64,
    pub oneways: u64,
    pub bytes: u64,
    pub tls_handshakes: u64,
    pub tls_resumptions: u64,
    pub connects: u64,
    pub injected_drops: u64,
    pub injected_delays: u64,
    pub injected_duplicates: u64,
    pub injected_garbles: u64,
    pub partition_refusals: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub dead_letters: u64,
}

impl NetStatsSnapshot {
    /// Total injected faults of every kind.
    pub fn faults_injected(&self) -> u64 {
        self.injected_drops
            + self.injected_delays
            + self.injected_duplicates
            + self.injected_garbles
            + self.partition_refusals
    }
}

/// Accessors reading one field of [`NetStats::snapshot`].
macro_rules! from_snapshot {
    ($($field:ident),*) => {
        $(pub fn $field(&self) -> u64 {
            self.snapshot().$field
        })*
    };
}

impl NetStats {
    pub(crate) fn new(metrics: MetricsRegistry) -> Self {
        let reset_at = Arc::default();
        NetStats { metrics, reset_at }
    }

    from_snapshot! {
        requests, responses, oneways, connects, tls_handshakes, tls_resumptions,
        injected_drops, injected_duplicates, injected_garbles, partition_refusals,
        timeouts, retries, dead_letters
    }

    /// Total SOAP messages on the wire (requests + responses + one-ways).
    pub fn messages(&self) -> u64 {
        ["net.requests", "net.responses", "net.oneways"]
            .iter()
            .map(|series| self.metrics.counter(series, &[]))
            .sum()
    }

    pub fn bytes(&self) -> u64 {
        self.metrics.counter("net.bytes", &[])
    }

    /// Zero `connects`, `tls_handshakes` and `tls_resumptions` as seen
    /// through this view, leaving the message ledger and the registry
    /// series intact: evicting the pooled connections / TLS sessions calls
    /// this, so a cold-start ablation doesn't report stale warm-run counts.
    pub(crate) fn reset_connection_counters(&self) {
        *self.reset_at.lock() = CONNECTION_SERIES.map(|series| self.metrics.counter(series, &[]));
    }

    /// A consistent plain-data copy of every counter.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        let reset_at = *self.reset_at.lock();
        let snap = self.metrics.snapshot();
        let net = |field: &str| snap.counter(&format!("net.{field}"));
        let since_reset = |i: usize| snap.counter(CONNECTION_SERIES[i]) - reset_at[i];
        NetStatsSnapshot {
            requests: net("requests"),
            responses: net("responses"),
            oneways: net("oneways"),
            bytes: net("bytes"),
            connects: since_reset(0),
            tls_handshakes: since_reset(1),
            tls_resumptions: since_reset(2),
            injected_drops: net("injected_drops"),
            injected_delays: net("injected_delays"),
            injected_duplicates: net("injected_duplicates"),
            injected_garbles: net("injected_garbles"),
            partition_refusals: net("partition_refusals"),
            timeouts: net("timeouts"),
            retries: snap.counter_total("invoke.retries")
                + snap.counter_total("oneway.redeliveries"),
            dead_letters: snap.counter_total("oneway.dead_letters"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(m: &MetricsRegistry, kind: &str, bytes: u64) {
        m.add_all(&[], &[(kind, 1), ("net.bytes", bytes)]);
    }

    #[test]
    fn messages_is_the_sum() {
        let m = MetricsRegistry::new();
        let s = NetStats::new(m.clone());
        message(&m, "net.requests", 10);
        message(&m, "net.responses", 20);
        message(&m, "net.oneways", 5);
        message(&m, "net.oneways", 5);
        assert_eq!(s.messages(), 4);
        assert_eq!(s.bytes(), 40);
    }

    #[test]
    fn retries_and_dead_letters_read_the_series_that_name_them() {
        let m = MetricsRegistry::new();
        let s = NetStats::new(m.clone());
        m.inc("invoke.retries", &[("action", "Get")]);
        m.inc("oneway.redeliveries", &[("reason", "drop")]);
        m.inc("oneway.dead_letters", &[("reason", "partition")]);
        m.inc("net.partition_refusals", &[]);
        m.inc("net.injected_delays", &[]);
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(s.retries(), 2);
        assert_eq!(s.dead_letters(), 1);
        assert_eq!(snap.faults_injected(), 2);
    }

    #[test]
    fn reset_connection_counters_leaves_message_ledger_and_series() {
        let m = MetricsRegistry::new();
        let s = NetStats::new(m.clone());
        message(&m, "net.requests", 10);
        for name in CONNECTION_SERIES {
            m.inc(name, &[]);
        }
        s.reset_connection_counters();
        let snap = s.snapshot();
        assert_eq!(
            (snap.connects, snap.tls_handshakes, snap.tls_resumptions),
            (0, 0, 0)
        );
        assert_eq!((snap.requests, snap.bytes), (1, 10));
        // The registry series stay monotonic, as Prometheus counters must.
        assert_eq!(m.counter("net.connects", &[]), 1);
        m.inc("net.connects", &[]);
        assert_eq!(s.connects(), 1);
        assert_eq!(s.clone().snapshot().connects, 1, "clones share the reset");
    }

    #[test]
    fn snapshot_is_a_consistent_cut() {
        // A request's count and bytes land together: concurrent snapshots
        // never see requests advanced without the matching bytes.
        let m = MetricsRegistry::new();
        let s = NetStats::new(m.clone());
        let writer = std::thread::spawn(move || {
            for _ in 0..1_000 {
                message(&m, "net.requests", 7);
            }
        });
        for _ in 0..200 {
            let snap = s.snapshot();
            assert_eq!(snap.bytes, snap.requests * 7);
        }
        writer.join().unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.requests, 1_000);
        assert_eq!(snap.bytes, 7_000);
    }
}
