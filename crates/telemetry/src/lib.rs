//! Causal tracing and virtual-time metrics for the simulated OGSA substrate.
//!
//! The paper's argument is quantitative — *where* a WSRF or WS-Transfer
//! request spends its time (Xindice, WS-Security, the wire) and *how many*
//! messages each interaction pattern costs. This crate records exactly that:
//!
//! * [`Telemetry`] hands out RAII [`Span`] guards. Every client invoke opens
//!   a trace; container pipeline stages, security processing, database
//!   operations, wire crossings, and one-way delivery attempts nest under it
//!   via a per-thread context stack, and trace/span IDs ride the simulated
//!   wire in `tel:` SOAP headers (next to WS-Addressing `MessageID`) so the
//!   tree survives process — here: thread — hops.
//! * Injected faults, backoff sleeps, redelivery attempts, and dead letters
//!   are span *events*, timestamped on the virtual clock like everything
//!   else. Under the network's synchronous-delivery mode a whole run is
//!   single-threaded, so two runs of the same seed produce byte-identical
//!   span dumps.
//! * [`MetricsRegistry`] keeps monotonic counters and virtual-time latency
//!   histograms keyed by `name{label=value,...}` series.
//! * [`export`] renders Chrome-trace JSON (load in `chrome://tracing` /
//!   Perfetto), sorted JSONL span dumps, and metrics JSON; [`analysis`]
//!   folds a span forest into per-kind self-time — the db/security/wire
//!   component breakdowns of `BENCH_counter.json` and `BENCH_gridbox.json`.

mod capture;
mod metrics;
mod span;

pub mod analysis;
pub mod export;
pub mod flight;
pub mod prometheus;
pub mod wallclock;
pub mod wire;

pub use capture::Capture;
pub use flight::{FlightRecorder, FlightTrace};
pub use metrics::{series_key, Histogram, MetricsRegistry, MetricsSnapshot, LATENCY_BUCKETS_US};
pub use span::{SpanEvent, SpanId, SpanKind, SpanRecord, TraceId};
pub use wallclock::{wall_now_us, Exemplar, ExemplarStore, WallHistogram, WallSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use capture::{Stamp, LOCAL};
use ogsa_sim::VirtualClock;
use parking_lot::Mutex;

/// The tracing handle: shared by everything wired to one virtual clock
/// (cloning shares the store). A disabled instance ([`Telemetry::disabled`])
/// costs one branch per call and records nothing.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

struct TelemetryInner {
    clock: VirtualClock,
    enabled: bool,
    /// Next span id; trace ids are drawn from the same counter (a trace id
    /// is its root span's id), so both are unique per instance.
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// An enabled instance recording against `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        Telemetry::with(clock, true)
    }

    /// An instance that records nothing (for components constructed without
    /// a testbed).
    pub fn disabled() -> Self {
        Telemetry::with(VirtualClock::new(), false)
    }

    fn with(clock: VirtualClock, enabled: bool) -> Self {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                clock,
                enabled,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The key identifying this instance (shared by clones) in the
    /// thread-local context/capture tables.
    fn instance_key(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// Start capturing this thread's finished spans into this thread's
    /// capture buffer (reused from the last capture). Spans opened under a
    /// capture carry wall-clock stamps ([`wallclock::wall_now_us`]), which
    /// the deterministic exporters never render. Works even on a
    /// disabled instance — the global store stays empty (or, on an enabled
    /// instance, is fed exactly as without the capture), so deterministic
    /// dumps are unaffected. The serving tier brackets each request with
    /// this to feed the flight recorder.
    pub fn begin_capture(&self) {
        let key = self.instance_key();
        LOCAL.with(|l| l.borrow_mut().begin_capture(key));
    }

    /// Stop the capture started by [`Telemetry::begin_capture`] and return
    /// the spans this thread finished since. Empty if no capture was active.
    pub fn end_capture(&self) -> Vec<SpanRecord> {
        self.end_capture_with(Capture::records)
    }

    /// Stop the capture and let `f` read it before its buffers go back to
    /// this thread for the next one: a caller that keeps few captures
    /// builds [`SpanRecord`]s ([`Capture::records`]) only for those.
    pub fn end_capture_with<R>(&self, f: impl FnOnce(&Capture) -> R) -> R {
        let key = self.instance_key();
        let capture = LOCAL.with(|l| l.borrow_mut().end_capture(key));
        let out = f(&capture);
        LOCAL.with(|l| l.borrow_mut().recycle(capture));
        out
    }

    /// Is a capture active on this thread for this instance?
    pub fn is_capturing(&self) -> bool {
        let key = self.instance_key();
        LOCAL.with(|l| l.borrow().recording(key, false))
    }

    /// The innermost open span on this thread, if any.
    pub fn current(&self) -> Option<(TraceId, SpanId)> {
        let key = self.instance_key();
        LOCAL.with(|l| {
            let l = l.borrow();
            l.current(key)
                .filter(|_| l.recording(key, self.inner.enabled))
        })
    }

    /// Open a span under the thread's current context; with no context open,
    /// this starts a **new trace** rooted here.
    pub fn span(&self, kind: SpanKind, name: &'static str) -> Span {
        self.open(kind, name, None)
    }

    /// Open a span with explicit parentage — how a delivery worker thread
    /// re-joins the sender's trace carried in the message headers.
    pub fn child_span(
        &self,
        kind: SpanKind,
        name: &'static str,
        trace: TraceId,
        parent: Option<SpanId>,
    ) -> Span {
        self.open(kind, name, Some((trace, parent)))
    }

    /// One thread-local access: decide whether to record and whether to
    /// stamp the wall clock, find the parent, and push the new span as this
    /// thread's innermost.
    fn open(
        &self,
        kind: SpanKind,
        name: &'static str,
        joined: Option<(TraceId, Option<SpanId>)>,
    ) -> Span {
        let (key, inner) = (self.instance_key(), &self.inner);
        let stamp = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let capturing = l.capture(key).is_some();
            if !(inner.enabled || capturing) {
                return None;
            }
            let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
            let (trace, parent) = joined.unwrap_or_else(|| match l.current(key) {
                Some((trace, parent)) => (trace, Some(parent)),
                None => (TraceId(id.0), None),
            });
            l.ctx.push((key, trace, id));
            let wall_start_us = capturing.then(wallclock::wall_now_us);
            let start = inner.clock.now();
            Some(Stamp {
                trace,
                id,
                parent,
                name,
                kind,
                start,
                end: start,
                wall_start_us,
                wall_end_us: None,
            })
        });
        let state = stamp.map(|stamp| SpanState {
            tel: self.clone(),
            stamp,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        Span { state }
    }

    /// Copies of every finished span, in finish order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// Drain the finished spans (a fresh measurement window).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.inner.spans.lock())
    }

    /// Forget finished spans without returning them.
    pub fn clear_spans(&self) {
        self.inner.spans.lock().clear();
    }

    pub fn span_count(&self) -> usize {
        self.inner.spans.lock().len()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled)
            .field("finished_spans", &self.span_count())
            .finish()
    }
}

struct SpanState {
    tel: Telemetry,
    /// Its end stamps are filled in when the span drops.
    stamp: Stamp,
    /// Kept by an enabled instance only, for its store; a capture keeps
    /// the values in its own arena.
    attrs: Vec<(&'static str, String)>,
    events: Vec<SpanEvent>,
}

/// An open span. Dropping it stamps the end time (virtual clock) and files
/// the record. All methods are no-ops on a disabled instance's spans.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// A span that records nothing (placeholder on untraced paths).
    pub fn noop() -> Span {
        Span { state: None }
    }

    /// Is this span actually recording?
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    pub fn trace_id(&self) -> Option<TraceId> {
        self.state.as_ref().map(|s| s.stamp.trace)
    }

    pub fn id(&self) -> Option<SpanId> {
        self.state.as_ref().map(|s| s.stamp.id)
    }

    /// Attach a key/value attribute.
    pub fn set_attr(&mut self, key: &'static str, value: impl AsRef<str>) {
        let Some(s) = &mut self.state else { return };
        let value = value.as_ref();
        if s.tel.inner.enabled {
            s.attrs.push((key, value.to_owned()));
        }
        let instance = s.tel.instance_key();
        LOCAL.with(|l| {
            if let Some(capture) = l.borrow_mut().capture(instance) {
                capture.push_attr(s.stamp.id, key, value);
            }
        });
    }

    /// Record a point event at the current virtual time.
    pub fn event(&mut self, name: &'static str) {
        self.event_with(name, &[]);
    }

    /// Record a point event with attributes at the current virtual time.
    pub fn event_with(&mut self, name: &'static str, attrs: &[(&'static str, &str)]) {
        if let Some(s) = &mut self.state {
            let at = s.tel.inner.clock.now();
            s.events.push(SpanEvent {
                at,
                name,
                attrs: attrs.iter().map(|(k, v)| (*k, (*v).to_owned())).collect(),
            });
        }
    }

    /// Close the span now (same as dropping, but reads better at call
    /// sites that want an explicit end).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut s) = self.state.take() else {
            return;
        };
        let inner = &s.tel.inner;
        s.stamp.end = inner.clock.now();
        s.stamp.wall_end_us = s.stamp.wall_start_us.map(|_| wallclock::wall_now_us());
        let key = s.tel.instance_key();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.pop(key, s.stamp.trace, s.stamp.id);
            // A capture observes; it never diverts. The global store is
            // fed below exactly as it would be without the capture, so
            // deterministic dumps are unchanged by live observation.
            if let Some(capture) = l.capture(key) {
                let events = if inner.enabled {
                    s.events.clone()
                } else {
                    std::mem::take(&mut s.events)
                };
                capture.push(s.stamp, events);
            }
        });
        if inner.enabled {
            inner.spans.lock().push(s.stamp.record(s.attrs, s.events));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_sim::{SimDuration, SimInstant};

    #[test]
    fn nested_spans_share_a_trace_and_parent_correctly() {
        let tel = Telemetry::new(VirtualClock::new());
        {
            let root = tel.span(SpanKind::Client, "invoke");
            let root_id = root.id().unwrap();
            {
                let child = tel.span(SpanKind::Db, "db:get");
                assert_eq!(child.trace_id(), root.trace_id());
                let gchild = tel.span(SpanKind::Soap, "soap:encode");
                assert_eq!(gchild.trace_id(), root.trace_id());
                drop(gchild);
                drop(child);
            }
            assert_eq!(tel.current(), Some((root.trace_id().unwrap(), root_id)));
        }
        assert_eq!(tel.current(), None);
        let spans = tel.finished_spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "invoke").unwrap();
        let child = spans.iter().find(|s| s.name == "db:get").unwrap();
        let gchild = spans.iter().find(|s| s.name == "soap:encode").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(gchild.parent, Some(child.id));
        assert_eq!(root.trace.0, root.id.0, "trace id is the root span's id");
    }

    #[test]
    fn sibling_roots_get_distinct_traces() {
        let tel = Telemetry::new(VirtualClock::new());
        let a = tel.span(SpanKind::Client, "a");
        let ta = a.trace_id().unwrap();
        drop(a);
        let b = tel.span(SpanKind::Client, "b");
        assert_ne!(b.trace_id().unwrap(), ta);
    }

    #[test]
    fn spans_measure_virtual_time() {
        let clock = VirtualClock::new();
        let tel = Telemetry::new(clock.clone());
        {
            let mut s = tel.span(SpanKind::Db, "op");
            clock.advance(SimDuration::from_micros(250));
            s.event("halfway");
            clock.advance(SimDuration::from_micros(250));
        }
        let spans = tel.finished_spans();
        assert_eq!(spans[0].duration(), SimDuration::from_micros(500));
        assert_eq!(spans[0].events[0].at, SimInstant(250));
    }

    #[test]
    fn child_span_joins_a_remote_trace() {
        let tel = Telemetry::new(VirtualClock::new());
        let remote_trace = TraceId(99);
        let remote_parent = SpanId(7);
        {
            let s = tel.child_span(
                SpanKind::Delivery,
                "deliver",
                remote_trace,
                Some(remote_parent),
            );
            assert_eq!(tel.current(), Some((remote_trace, s.id().unwrap())));
            // Nested spans inherit the joined context.
            let inner = tel.span(SpanKind::Security, "verify");
            assert_eq!(inner.trace_id(), Some(remote_trace));
        }
        let spans = tel.finished_spans();
        assert_eq!(spans[1].parent, Some(remote_parent));
        assert_eq!(spans[0].parent, spans[1].id.into());
    }

    #[test]
    fn disabled_instance_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut s = tel.span(SpanKind::Client, "x");
        assert!(!s.is_recording());
        s.set_attr("k", "v");
        s.event("e");
        drop(s);
        assert_eq!(tel.span_count(), 0);
        assert_eq!(tel.current(), None);
    }

    #[test]
    fn take_spans_drains() {
        let tel = Telemetry::new(VirtualClock::new());
        tel.span(SpanKind::Other, "a").finish();
        assert_eq!(tel.take_spans().len(), 1);
        assert_eq!(tel.span_count(), 0);
    }

    #[test]
    fn capture_collects_spans_on_a_disabled_instance() {
        let tel = Telemetry::disabled();
        tel.begin_capture();
        {
            let root = tel.span(SpanKind::Server, "serve:request");
            assert!(root.is_recording(), "capture forces recording");
            let child = tel.span(SpanKind::Db, "db:get");
            assert_eq!(child.trace_id(), root.trace_id());
        }
        let captured = tel.end_capture();
        assert_eq!(captured.len(), 2);
        assert_eq!(tel.span_count(), 0, "global store stays empty");
        assert!(!tel.is_capturing());
        // After the capture ends the instance is silent again.
        tel.span(SpanKind::Other, "after").finish();
        assert!(tel.end_capture().is_empty());
        assert_eq!(tel.span_count(), 0);
    }

    #[test]
    fn capture_observes_without_diverting_on_an_enabled_instance() {
        let tel = Telemetry::new(VirtualClock::new());
        tel.begin_capture();
        tel.span(SpanKind::Other, "both").finish();
        let captured = tel.end_capture();
        assert_eq!(captured.len(), 1);
        assert_eq!(tel.span_count(), 1, "global store is fed as usual");
        assert_eq!(captured[0], tel.finished_spans()[0]);
    }

    #[test]
    fn captures_are_per_thread_and_per_instance() {
        let tel = Telemetry::disabled();
        tel.begin_capture();
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            // Same instance, different thread: not capturing here.
            assert!(!tel2.is_capturing());
            tel2.span(SpanKind::Other, "elsewhere").finish();
        })
        .join()
        .unwrap();
        let other = Telemetry::disabled();
        other.span(SpanKind::Other, "other-instance").finish();
        assert!(tel.end_capture().is_empty());
    }

    #[test]
    fn wall_clock_stamps_only_under_a_capture() {
        let tel = Telemetry::new(VirtualClock::new());
        tel.span(SpanKind::Other, "before").finish();
        tel.begin_capture();
        tel.span(SpanKind::Other, "during").finish();
        tel.end_capture();
        tel.span(SpanKind::Other, "after").finish();
        let spans = tel.finished_spans();
        for outside in [&spans[0], &spans[2]] {
            assert_eq!(outside.wall_start_us, None);
            assert_eq!(outside.wall_end_us, None);
        }
        let (ws, we) = (
            spans[1].wall_start_us.expect("stamped"),
            spans[1].wall_end_us.expect("stamped"),
        );
        assert!(we >= ws);
        // Virtual time is untouched by wall stamping.
        assert_eq!(spans[1].start, spans[1].end);
    }

    #[test]
    fn context_stacks_are_per_thread() {
        let tel = Telemetry::new(VirtualClock::new());
        let _root = tel.span(SpanKind::Client, "main-thread");
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            // A fresh thread sees no inherited context.
            assert_eq!(tel2.current(), None);
        })
        .join()
        .unwrap();
    }
}
