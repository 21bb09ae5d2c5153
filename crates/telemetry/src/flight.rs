//! The always-on flight recorder: a bounded record of recently completed
//! request traces, kept cheap enough to leave running in production.
//!
//! Retention policy (threshold + reservoir):
//! * any request slower than the configured threshold is **always**
//!   retained in full (a bounded ring — oldest slow trace evicted first),
//!   and its sequence number is handed back so the caller can attach it
//!   as an exemplar to the latency histogram bucket it landed in;
//! * fast requests are **reservoir-sampled** (Algorithm R over every fast
//!   offer since the last drain) so the recorder always holds a uniform
//!   picture of normal traffic to contrast an outlier against.
//!
//! The hot path for a fast, unsampled request is one atomic increment and
//! one xorshift draw; mutexes are touched, and span records built
//! ([`FlightRecorder::offer_with`]), only when a trace is actually
//! retained. Dumps render as JSON for `GET /debug/trace`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::export::json_escape;
use crate::span::SpanRecord;
use crate::wallclock::wall_now_us;

/// Default latency threshold above which a request is always retained.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;
/// Default capacity of the slow-trace ring.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;
/// Default size of the fast-traffic reservoir.
pub const DEFAULT_RESERVOIR_CAPACITY: usize = 32;

/// One retained request trace.
#[derive(Debug, Clone)]
pub struct FlightTrace {
    /// Monotonically increasing retention sequence number (shared across
    /// slow and sampled traces); exemplars reference this.
    pub seq: u64,
    /// End-to-end request latency, wall microseconds.
    pub latency_us: u64,
    /// Retained because it crossed the slow threshold (else: reservoir).
    pub slow: bool,
    /// Request target (e.g. the HTTP path).
    pub target: String,
    /// [`wall_now_us`] stamp at retention.
    pub at_wall_us: u64,
    /// The full span tree captured for this request.
    pub spans: Vec<SpanRecord>,
}

/// Fixed-footprint recorder of recent request traces. Cloning shares the
/// recorder.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

#[derive(Debug)]
struct FlightInner {
    threshold_us: AtomicU64,
    /// Retention sequence counter (also stamps reservoir picks).
    seq: AtomicU64,
    /// Fast offers seen since the last [`FlightRecorder::drain`] — the `n`
    /// of Algorithm R.
    fast_seen: AtomicU64,
    /// xorshift64* state for reservoir picks; speed over quality, and no
    /// std RNG exists in the offline build.
    rng: AtomicU64,
    slow_capacity: usize,
    slow: Mutex<VecDeque<FlightTrace>>,
    reservoir_capacity: usize,
    reservoir: Mutex<Vec<FlightTrace>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(
            DEFAULT_SLOW_THRESHOLD_US,
            DEFAULT_SLOW_CAPACITY,
            DEFAULT_RESERVOIR_CAPACITY,
        )
    }
}

impl FlightRecorder {
    pub fn new(threshold_us: u64, slow_capacity: usize, reservoir_capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                threshold_us: AtomicU64::new(threshold_us),
                seq: AtomicU64::new(1),
                fast_seen: AtomicU64::new(0),
                rng: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
                slow_capacity: slow_capacity.max(1),
                slow: Mutex::new(VecDeque::with_capacity(slow_capacity.max(1))),
                reservoir_capacity: reservoir_capacity.max(1),
                reservoir: Mutex::new(Vec::with_capacity(reservoir_capacity.max(1))),
            }),
        }
    }

    /// The current slow threshold in wall microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.inner.threshold_us.load(Ordering::Relaxed)
    }

    /// Reconfigure the slow threshold at runtime.
    pub fn set_threshold_us(&self, us: u64) {
        self.inner.threshold_us.store(us, Ordering::Relaxed);
    }

    fn next_rand(&self) -> u64 {
        // xorshift64* step via a relaxed CAS-free update: racing workers
        // may occasionally reuse a draw, which only perturbs sampling
        // uniformity, never correctness.
        let mut x = self.inner.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.inner.rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Offer one completed request. Returns the retention sequence number
    /// when the trace was kept (always, for a slow request), `None` when
    /// it was sampled away.
    pub fn offer(&self, latency_us: u64, target: &str, spans: Vec<SpanRecord>) -> Option<u64> {
        self.offer_with(latency_us, target, || spans)
    }

    /// [`FlightRecorder::offer`], deciding retention first: `spans` runs
    /// (and the target is copied) only for a trace that is kept.
    pub fn offer_with(
        &self,
        latency_us: u64,
        target: &str,
        spans: impl FnOnce() -> Vec<SpanRecord>,
    ) -> Option<u64> {
        let slow = latency_us >= self.threshold_us();
        // Algorithm R over fast offers: the k-th offer (1-based) fills the
        // reservoir while it has room, then replaces a uniformly random
        // slot with probability capacity/k.
        let slot = if slow {
            None
        } else {
            let k = self.inner.fast_seen.fetch_add(1, Ordering::Relaxed) + 1;
            let cap = self.inner.reservoir_capacity as u64;
            let j = if k > cap { self.next_rand() % k } else { k - 1 };
            if j >= cap {
                return None;
            }
            Some(j as usize)
        };
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let trace = FlightTrace {
            seq,
            latency_us,
            slow,
            target: target.to_owned(),
            at_wall_us: wall_now_us(),
            spans: spans(),
        };
        match slot {
            None => {
                let mut ring = self.inner.slow.lock();
                if ring.len() == self.inner.slow_capacity {
                    ring.pop_front();
                }
                ring.push_back(trace);
            }
            Some(slot) => {
                let mut res = self.inner.reservoir.lock();
                if slot < res.len() {
                    res[slot] = trace;
                } else {
                    res.push(trace);
                }
            }
        }
        Some(seq)
    }

    /// Copies of every retained trace, slow ring first then reservoir,
    /// each in ascending sequence order.
    pub fn dump(&self) -> Vec<FlightTrace> {
        let mut out: Vec<FlightTrace> = self.inner.slow.lock().iter().cloned().collect();
        let mut sampled: Vec<FlightTrace> = self.inner.reservoir.lock().clone();
        sampled.sort_by_key(|t| t.seq);
        out.extend(sampled);
        out
    }

    /// Is a retained trace with this sequence number still present?
    pub fn contains_seq(&self, seq: u64) -> bool {
        self.inner.slow.lock().iter().any(|t| t.seq == seq)
            || self.inner.reservoir.lock().iter().any(|t| t.seq == seq)
    }

    /// Number of retained traces (slow + sampled).
    pub fn len(&self) -> usize {
        self.inner.slow.lock().len() + self.inner.reservoir.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear everything and restart the fast-offer count (a fresh
    /// sampling window).
    pub fn drain(&self) -> Vec<FlightTrace> {
        let mut out: Vec<FlightTrace> = self.inner.slow.lock().drain(..).collect();
        out.extend(self.inner.reservoir.lock().drain(..));
        self.inner.fast_seen.store(0, Ordering::Relaxed);
        out.sort_by_key(|t| t.seq);
        out
    }

    /// Render the current contents as a JSON document for `/debug/trace`.
    /// Spans include their wall stamps (this is the live view — the
    /// deterministic exporters remain wall-free).
    pub fn to_json(&self) -> String {
        let traces = self.dump();
        let mut out = String::from("{\"threshold_us\":");
        out.push_str(&self.threshold_us().to_string());
        out.push_str(",\"traces\":[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"latency_us\":{},\"slow\":{},\"target\":\"{}\",\"at_wall_us\":{},\"spans\":[",
                t.seq,
                t.latency_us,
                t.slow,
                json_escape(&t.target),
                t.at_wall_us
            ));
            for (j, s) in t.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let parent = match s.parent {
                    Some(p) => format!("\"{}\"", p.to_hex()),
                    None => "null".to_owned(),
                };
                out.push_str(&format!(
                    "{{\"span\":\"{}\",\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\",\"wall_start_us\":{},\"wall_end_us\":{}}}",
                    s.id.to_hex(),
                    parent,
                    s.kind.as_str(),
                    json_escape(s.name),
                    s.wall_start_us.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                    s.wall_end_us.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq_hint: u64) -> Vec<SpanRecord> {
        use crate::span::{SpanId, SpanKind, TraceId};
        use ogsa_sim::SimInstant;
        vec![SpanRecord {
            trace: TraceId(seq_hint),
            id: SpanId(seq_hint),
            parent: None,
            name: "serve:request",
            kind: SpanKind::Server,
            start: SimInstant(0),
            end: SimInstant(0),
            wall_start_us: Some(1),
            wall_end_us: Some(2),
            attrs: Vec::new(),
            events: Vec::new(),
        }]
    }

    #[test]
    fn slow_requests_are_always_retained() {
        let fr = FlightRecorder::new(1_000, 4, 2);
        for i in 0..10u64 {
            let seq = fr.offer(5_000 + i, "/svc", rec(i));
            assert!(seq.is_some(), "slow request {i} must be retained");
        }
        let slow: Vec<_> = fr.dump().into_iter().filter(|t| t.slow).collect();
        assert_eq!(slow.len(), 4, "ring keeps the most recent 4");
        assert!(slow.iter().all(|t| t.latency_us >= 5_006));
    }

    #[test]
    fn fast_requests_fill_a_bounded_reservoir() {
        let fr = FlightRecorder::new(1_000_000, 4, 8);
        let mut retained = 0;
        for i in 0..1_000u64 {
            if fr.offer(10, "/svc", rec(i)).is_some() {
                retained += 1;
            }
        }
        let dump = fr.dump();
        assert_eq!(dump.len(), 8, "reservoir is bounded");
        assert!(dump.iter().all(|t| !t.slow));
        assert!(retained >= 8, "at least the fills were retained");
        assert!(retained < 1_000, "most offers are sampled away");
    }

    #[test]
    fn threshold_is_runtime_configurable() {
        let fr = FlightRecorder::new(1_000, 4, 4);
        assert_eq!(fr.threshold_us(), 1_000);
        fr.set_threshold_us(10);
        let seq = fr.offer(50, "/svc", rec(1)).unwrap();
        assert!(fr.dump().iter().any(|t| t.seq == seq && t.slow));
        assert!(fr.contains_seq(seq));
        assert!(!fr.contains_seq(seq + 999));
    }

    #[test]
    fn dump_json_parses_shape() {
        let fr = FlightRecorder::new(100, 4, 4);
        fr.offer(500, "/a\"b", rec(1));
        fr.offer(10, "/fast", rec(2));
        let json = fr.to_json();
        assert!(json.starts_with("{\"threshold_us\":100,\"traces\":["));
        assert!(json.contains("\"slow\":true"));
        assert!(json.contains("\"slow\":false"));
        assert!(json.contains("/a\\\"b"));
        assert!(json.contains("\"wall_start_us\":1"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn drain_resets_the_window() {
        let fr = FlightRecorder::new(100, 4, 4);
        fr.offer(500, "/s", rec(1));
        fr.offer(10, "/f", rec(2));
        let drained = fr.drain();
        assert_eq!(drained.len(), 2);
        assert!(drained.windows(2).all(|w| w[0].seq <= w[1].seq));
        assert!(fr.is_empty());
    }
}
