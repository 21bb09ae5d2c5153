//! Span identifiers and finished-span records.
//!
//! Everything here is plain data timestamped on the **virtual clock**, so a
//! trace is a statement about simulated time, not about how fast the host
//! machine happened to run the simulation. IDs serialise as fixed-width
//! 16-hex-digit strings: the on-wire header size is invariant across runs
//! even when the IDs themselves differ, which keeps message byte counts —
//! and therefore every size-derived cost — reproducible.

use ogsa_sim::{SimDuration, SimInstant};

/// Identifies one causal tree (one top-level client interaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. Unique per [`crate::Telemetry`]
/// instance, not just per trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Fixed-width wire form (16 hex digits, zero-padded).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<Self> {
        u64::from_str_radix(s.trim(), 16).ok().map(TraceId)
    }
}

impl SpanId {
    /// Fixed-width wire form (16 hex digits, zero-padded).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<Self> {
        u64::from_str_radix(s.trim(), 16).ok().map(SpanId)
    }
}

/// What layer of the substrate a span measures. The component breakdowns in
/// `BENCH_*.json` are self-time aggregations over these kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Client-side invoke (proxy object): the trace root for most traces.
    Client,
    /// Server-side container pipeline for one request.
    Server,
    /// Container dispatch + lifetime sweep.
    Dispatch,
    /// Service code proper.
    Service,
    /// WS-Security signing/verification and TLS handshakes.
    Security,
    /// An xmldb (Xindice stand-in) operation.
    Db,
    /// SOAP serialisation/parsing.
    Soap,
    /// Time on the simulated wire: connects, per-message overhead, bytes.
    Wire,
    /// One delivery attempt of a one-way (notification) message.
    Delivery,
    /// Anything else.
    Other,
}

impl SpanKind {
    /// Every kind, in a fixed order (the column order of breakdown reports).
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Client,
        SpanKind::Server,
        SpanKind::Dispatch,
        SpanKind::Service,
        SpanKind::Security,
        SpanKind::Db,
        SpanKind::Soap,
        SpanKind::Wire,
        SpanKind::Delivery,
        SpanKind::Other,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Client => "client",
            SpanKind::Server => "server",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Service => "service",
            SpanKind::Security => "security",
            SpanKind::Db => "db",
            SpanKind::Soap => "soap",
            SpanKind::Wire => "wire",
            SpanKind::Delivery => "delivery",
            SpanKind::Other => "other",
        }
    }
}

/// A point event inside a span (an injected fault, a backoff sleep, a
/// redelivery, a dead-letter...).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub at: SimInstant,
    pub name: &'static str,
    pub attrs: Vec<(&'static str, String)>,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub kind: SpanKind,
    pub start: SimInstant,
    pub end: SimInstant,
    /// Monotonic host-clock stamps ([`crate::wallclock::wall_now_us`]),
    /// populated only for spans opened under a capture
    /// ([`crate::Telemetry::begin_capture`]).
    /// Deliberately **excluded** from every deterministic exporter
    /// ([`crate::export`]): the byte-identical same-seed JSONL/Chrome
    /// dumps are statements about virtual time only. Live-observability
    /// consumers (the flight recorder's `/debug/trace` dump) read them
    /// for wall-clock self-time attribution.
    pub wall_start_us: Option<u64>,
    pub wall_end_us: Option<u64>,
    pub attrs: Vec<(&'static str, String)>,
    pub events: Vec<SpanEvent>,
}

impl SpanRecord {
    /// Virtual time between start and end (saturating).
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// First attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True if any event carries this name.
    pub fn has_event(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name == name)
    }

    /// Wall-clock duration in microseconds, when both stamps are present.
    pub fn wall_duration_us(&self) -> Option<u64> {
        match (self.wall_start_us, self.wall_end_us) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_fixed_width_hex() {
        let t = TraceId(0x2a);
        assert_eq!(t.to_hex(), "000000000000002a");
        assert_eq!(t.to_hex().len(), 16);
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        let s = SpanId(u64::MAX);
        assert_eq!(SpanId::from_hex(&s.to_hex()), Some(s));
        assert_eq!(TraceId::from_hex("not hex"), None);
    }

    #[test]
    fn kind_strings_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in SpanKind::ALL {
            assert!(seen.insert(k.as_str()), "duplicate {:?}", k);
        }
    }

    #[test]
    fn record_duration_saturates() {
        let r = SpanRecord {
            trace: TraceId(1),
            id: SpanId(2),
            parent: None,
            name: "x",
            kind: SpanKind::Other,
            start: SimInstant(100),
            end: SimInstant(40),
            wall_start_us: None,
            wall_end_us: None,
            attrs: vec![("k", "v".into())],
            events: Vec::new(),
        };
        assert_eq!(r.duration(), SimDuration::ZERO);
        assert_eq!(r.attr("k"), Some("v"));
        assert_eq!(r.attr("missing"), None);
        assert!(!r.has_event("boom"));
        assert_eq!(r.wall_duration_us(), None);
        let timed = SpanRecord {
            wall_start_us: Some(10),
            wall_end_us: Some(35),
            ..r
        };
        assert_eq!(timed.wall_duration_us(), Some(25));
    }
}
