//! This thread's span context and capture buffers. The serving tier
//! captures every request and keeps almost none, so a capture records a
//! finished span as one `Copy` [`Stamp`] and its attribute values into one
//! text arena, in buffers the thread reuses; [`SpanRecord`]s are built only
//! for a capture somebody keeps.

use std::cell::RefCell;
use std::ops::Range;

use ogsa_sim::SimInstant;

use crate::span::{SpanEvent, SpanId, SpanKind, SpanRecord, TraceId};

/// A capture that grew past this many stamps, or this much attribute text,
/// is released when it ends instead of kept for the next one, so what a
/// thread holds between captures stays bounded.
const KEEP_STAMPS: usize = 256;
const KEEP_TEXT: usize = 16 * 1024;

thread_local! {
    /// Per thread, not a shared `Mutex<HashMap<ThreadId, ...>>`: span
    /// open/close is the serving tier's hot path, and a global lock there
    /// is exactly the cross-worker synchronisation the observability plane
    /// must not add.
    pub(crate) static LOCAL: RefCell<Local> = RefCell::default();
}

/// A span's identity and timing: its record without attributes and events.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    pub(crate) trace: TraceId,
    pub(crate) id: SpanId,
    pub(crate) parent: Option<SpanId>,
    pub(crate) name: &'static str,
    pub(crate) kind: SpanKind,
    pub(crate) start: SimInstant,
    pub(crate) end: SimInstant,
    pub(crate) wall_start_us: Option<u64>,
    pub(crate) wall_end_us: Option<u64>,
}

impl Stamp {
    pub(crate) fn record(
        self,
        attrs: Vec<(&'static str, String)>,
        events: Vec<SpanEvent>,
    ) -> SpanRecord {
        SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            name: self.name,
            kind: self.kind,
            start: self.start,
            end: self.end,
            wall_start_us: self.wall_start_us,
            wall_end_us: self.wall_end_us,
            attrs,
            events,
        }
    }
}

/// The spans one thread finished during one capture, in finish order.
#[derive(Debug, Default)]
pub struct Capture {
    stamps: Vec<Stamp>,
    /// Attribute values back to back; `attrs` holds (span, key, range).
    text: String,
    attrs: Vec<(SpanId, &'static str, Range<usize>)>,
    /// The events of the spans that had any (only faults make them).
    events: Vec<(SpanId, Vec<SpanEvent>)>,
}

impl Capture {
    /// Wall-clock duration of the last root span to finish — for the
    /// serving tier, the `serve:request` span, i.e. the request's latency.
    pub fn root_wall_us(&self) -> Option<u64> {
        let root = self.stamps.iter().rev().find(|s| s.parent.is_none())?;
        Some(root.wall_end_us?.saturating_sub(root.wall_start_us?))
    }

    /// The captured spans as records, equal field for field to what each
    /// span files in an enabled instance's store.
    pub fn records(&self) -> Vec<SpanRecord> {
        let records = self.stamps.iter().map(|stamp| {
            let attrs = self.attrs.iter().filter(|(span, ..)| *span == stamp.id);
            let events = self.events.iter().find(|(span, _)| *span == stamp.id);
            stamp.record(
                attrs
                    .map(|(_, key, at)| (*key, self.text[at.clone()].to_owned()))
                    .collect(),
                events.map(|(_, e)| e.clone()).unwrap_or_default(),
            )
        });
        records.collect()
    }

    pub(crate) fn push_attr(&mut self, span: SpanId, key: &'static str, value: &str) {
        let start = self.text.len();
        self.text.push_str(value);
        self.attrs.push((span, key, start..self.text.len()));
    }

    pub(crate) fn push(&mut self, stamp: Stamp, events: Vec<SpanEvent>) {
        if !events.is_empty() {
            self.events.push((stamp.id, events));
        }
        self.stamps.push(stamp);
    }
}

/// This thread's state for every [`crate::Telemetry`] instance, each keyed
/// by its `Arc` address. Linear tables: a thread has a handful of open
/// spans and one capture at a time.
#[derive(Default)]
pub(crate) struct Local {
    /// Open spans, innermost last.
    pub(crate) ctx: Vec<(usize, TraceId, SpanId)>,
    captures: Vec<(usize, Capture)>,
    /// The buffers of the last capture to end, cleared, for the next.
    spare: Capture,
}

impl Local {
    pub(crate) fn capture(&mut self, key: usize) -> Option<&mut Capture> {
        let found = self.captures.iter_mut().find(|(k, _)| *k == key);
        found.map(|(_, capture)| capture)
    }

    pub(crate) fn recording(&self, key: usize, enabled: bool) -> bool {
        enabled || self.captures.iter().any(|(k, _)| *k == key)
    }

    pub(crate) fn current(&self, key: usize) -> Option<(TraceId, SpanId)> {
        let open = self.ctx.iter().rev().find(|(k, ..)| *k == key);
        open.map(|&(_, trace, id)| (trace, id))
    }

    pub(crate) fn pop(&mut self, key: usize, trace: TraceId, id: SpanId) {
        if let Some(at) = self.ctx.iter().rposition(|&e| e == (key, trace, id)) {
            self.ctx.remove(at);
        }
    }

    pub(crate) fn begin_capture(&mut self, key: usize) {
        self.captures.retain(|(k, _)| *k != key);
        self.captures.push((key, std::mem::take(&mut self.spare)));
    }

    /// Take the capture out (empty if none was active), so its reader may
    /// open spans while it reads; hand it back with [`Local::recycle`].
    pub(crate) fn end_capture(&mut self, key: usize) -> Capture {
        let at = self.captures.iter().position(|(k, _)| *k == key);
        at.map(|at| self.captures.swap_remove(at).1)
            .unwrap_or_default()
    }

    pub(crate) fn recycle(&mut self, mut capture: Capture) {
        if capture.stamps.capacity() <= KEEP_STAMPS && capture.text.capacity() <= KEEP_TEXT {
            capture.stamps.clear();
            capture.text.clear();
            capture.attrs.clear();
            capture.events.clear();
            self.spare = capture;
        }
    }
}
