//! Pins the flight recorder's capture: a request the recorder does not keep
//! costs no allocation once warm, and a request it keeps holds the records
//! the parent's cloning capture held. A test binary of its own, with a
//! counting global allocator, so nothing else allocates on the counted
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ogsa_sim::{SimDuration, SimInstant, VirtualClock};
use ogsa_telemetry::{
    FlightRecorder, Span, SpanEvent, SpanId, SpanKind, SpanRecord, Telemetry, TraceId,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One step of a span script.
#[derive(Clone, Copy)]
enum Step {
    Open(SpanKind, &'static str),
    Attr(&'static str, &'static str),
    /// A point event with one attribute (what an injected fault records).
    Event(&'static str),
    Advance(u64),
    Close,
}

use Step::*;

/// The serving tier's shape for a signed WS-Transfer Get: `serve:request`
/// with six spans nested under it and four attributes. The parent's
/// capture allocated 11 times for it, warm.
const GET: &[Step] = &[
    Open(SpanKind::Server, "serve:request"),
    Open(SpanKind::Server, "container:pipeline"),
    Attr(
        "action",
        "http://schemas.xmlsoap.org/ws/2004/09/transfer/Get",
    ),
    Open(SpanKind::Security, "x509:verify"),
    Advance(3),
    Close,
    Open(SpanKind::Dispatch, "container:dispatch"),
    Open(SpanKind::Service, "service:handle"),
    Open(SpanKind::Db, "db:get"),
    Attr("collection", "counters"),
    Attr("key", "c-17"),
    Advance(2),
    Close,
    Close,
    Close,
    Open(SpanKind::Security, "x509:sign"),
    Advance(3),
    Close,
    Close,
    Attr("outcome", "ok"),
    Close,
];

/// A request that met faults: events on two spans, a second root after the
/// first closes, an attribute set twice.
const FAULTED: &[Step] = &[
    Open(SpanKind::Client, "client:invoke"),
    Event("fault:drop"),
    Advance(5),
    Open(SpanKind::Wire, "wire:send"),
    Event("fault:delay"),
    Event("retry:backoff"),
    Attr("attempt", "1"),
    Attr("attempt", "2"),
    Advance(7),
    Close,
    Close,
    Open(SpanKind::Other, "after"),
    Attr("note", ""),
    Close,
];

/// Drive `script` through `tel`, holding open spans in `open` (reused, so
/// the script itself allocates nothing once `open` has room).
fn run(tel: &Telemetry, script: &[Step], open: &mut Vec<Span>) {
    for step in script {
        match *step {
            Open(kind, name) => open.push(tel.span(kind, name)),
            Attr(key, value) => open
                .last_mut()
                .expect("a span is open")
                .set_attr(key, value),
            Event(name) => open
                .last_mut()
                .expect("a span is open")
                .event_with(name, &[("attempt", "1")]),
            Advance(us) => {
                tel.clock().advance(SimDuration::from_micros(us));
            }
            Close => drop(open.pop()),
        }
    }
}

/// The parent's cloning capture, by its rules, on a fresh instance: ids
/// from 1 in open order, a root's trace is its own id, a span's parent is
/// the innermost open span, start and end read the virtual clock, and the
/// record — attributes and events in the order set — is filed at close.
/// Wall stamps are not modelled (the tests check them separately).
fn cloning_capture(script: &[Step]) -> Vec<SpanRecord> {
    let (mut now, mut next_id) = (SimInstant(0), 1);
    let (mut open, mut filed) = (Vec::<SpanRecord>::new(), Vec::new());
    for step in script {
        match *step {
            Open(kind, name) => {
                let id = SpanId(next_id);
                next_id += 1;
                let (trace, parent) = match open.last() {
                    Some(p) => (p.trace, Some(p.id)),
                    None => (TraceId(id.0), None),
                };
                open.push(SpanRecord {
                    trace,
                    id,
                    parent,
                    name,
                    kind,
                    start: now,
                    end: now,
                    wall_start_us: None,
                    wall_end_us: None,
                    attrs: Vec::new(),
                    events: Vec::new(),
                });
            }
            Attr(key, value) => open.last_mut().unwrap().attrs.push((key, value.to_owned())),
            Event(name) => open.last_mut().unwrap().events.push(SpanEvent {
                at: now,
                name,
                attrs: vec![("attempt", "1".to_owned())],
            }),
            Advance(us) => now = SimInstant(now.0 + us),
            Close => {
                let mut record = open.pop().unwrap();
                record.end = now;
                filed.push(record);
            }
        }
    }
    filed
}

fn without_wall(records: Vec<SpanRecord>) -> Vec<SpanRecord> {
    let strip = |r| SpanRecord {
        wall_start_us: None,
        wall_end_us: None,
        ..r
    };
    records.into_iter().map(strip).collect()
}

#[test]
fn a_warm_capture_the_recorder_does_not_keep_allocates_nothing() {
    let tel = Telemetry::disabled();
    tel.set_wall_clock(true);
    // Nothing is slow, and a reservoir of one keeps the k-th fast offer
    // with probability 1/k: nearly every request below is dropped.
    let recorder = FlightRecorder::new(u64::MAX, 4, 1);
    let mut open = Vec::with_capacity(16);
    let (mut kept, mut dropped) = (Vec::with_capacity(64), Vec::with_capacity(64));
    for _ in 0..64 {
        let mut seq = None;
        let spent = allocations(|| {
            tel.begin_capture();
            run(&tel, GET, &mut open);
            seq = tel.end_capture_with(|capture| {
                let latency = capture.root_wall_us().expect("wall clock on");
                recorder.offer_with(latency, "/services/counter", || capture.records())
            });
        });
        match seq {
            Some(_) => kept.push(spent),
            None => dropped.push(spent),
        }
    }
    assert!(dropped.len() >= 48, "{} of 64 dropped", dropped.len());
    assert!(
        dropped.iter().all(|&n| n == 0),
        "allocations per dropped request: {dropped:?}"
    );
    // The counter sees the capture: a kept request builds its records.
    assert!(kept[1..].iter().all(|&n| n > 7), "{kept:?}");
}

#[test]
fn a_kept_capture_equals_the_cloning_capture_it_replaces() {
    let mut open = Vec::new();
    for script in [GET, FAULTED] {
        // The serving tier's case: a disabled instance, wall clock on.
        let tel = Telemetry::disabled();
        tel.set_wall_clock(true);
        let recorder = FlightRecorder::new(0, 4, 4);
        tel.begin_capture();
        run(&tel, script, &mut open);
        let (latency, seq) = tel.end_capture_with(|capture| {
            let latency = capture.root_wall_us().expect("wall clock on");
            (
                latency,
                recorder.offer_with(latency, "/s", || capture.records()),
            )
        });
        let seq = seq.expect("a slow trace is always kept");
        let kept = recorder.dump().into_iter().find(|t| t.seq == seq);
        let spans = kept.expect("retained").spans;
        for s in &spans {
            let (start, end) = (s.wall_start_us.unwrap(), s.wall_end_us.unwrap());
            assert!(start <= end, "{s:?}");
        }
        let root = spans.iter().rev().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(Some(latency), root.wall_duration_us());
        assert_eq!(without_wall(spans), cloning_capture(script));
        assert_eq!(tel.span_count(), 0, "a disabled store stays empty");

        // An enabled instance files each span from the span's own state,
        // as the parent's capture cloned it: equal, wall stamps included.
        let tel = Telemetry::new(VirtualClock::new());
        tel.set_wall_clock(true);
        tel.begin_capture();
        run(&tel, script, &mut open);
        assert_eq!(tel.end_capture(), tel.finished_spans());
    }
}

/// The parent's `offer`, reduced to the decision: the same threshold test,
/// Algorithm R over the same `fast_seen`, the same xorshift64* sequence.
struct ParentRecorder {
    threshold_us: u64,
    slow_capacity: usize,
    reservoir_capacity: u64,
    seq: u64,
    fast_seen: u64,
    rng: u64,
    slow: Vec<u64>,
    reservoir: Vec<u64>,
}

impl ParentRecorder {
    fn offer(&mut self, latency_us: u64) -> Option<u64> {
        if latency_us >= self.threshold_us {
            let seq = self.next_seq();
            if self.slow.len() == self.slow_capacity {
                self.slow.remove(0);
            }
            self.slow.push(seq);
            return Some(seq);
        }
        self.fast_seen += 1;
        let (k, cap) = (self.fast_seen, self.reservoir_capacity);
        let slot = if k <= cap {
            k - 1
        } else {
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            let j = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % k;
            if j >= cap {
                return None;
            }
            j
        } as usize;
        let seq = self.next_seq();
        match self.reservoir.get_mut(slot) {
            Some(held) => *held = seq,
            None => self.reservoir.push(seq),
        }
        Some(seq)
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }
}

#[test]
fn the_recorder_keeps_the_same_slow_and_sampled_seqs_as_before() {
    let recorder = FlightRecorder::new(900, 8, 6);
    let mut parent = ParentRecorder {
        threshold_us: 900,
        slow_capacity: 8,
        reservoir_capacity: 6,
        seq: 1,
        fast_seen: 0,
        rng: 0x9e37_79b9_7f4a_7c15,
        slow: Vec::new(),
        reservoir: Vec::new(),
    };
    let mut built = 0;
    for i in 0..2_000u64 {
        // One request in about thirteen is slow.
        let latency = (i * 7_919) % 1_000;
        let got = recorder.offer_with(latency, "/s", || {
            built += 1;
            Vec::new()
        });
        assert_eq!(got, parent.offer(latency), "offer {i}, latency {latency}");
    }
    let kept = |slow| -> Vec<u64> {
        let dump = recorder.dump().into_iter();
        dump.filter(|t| t.slow == slow).map(|t| t.seq).collect()
    };
    let mut sampled = parent.reservoir.clone();
    sampled.sort();
    assert_eq!(kept(true), parent.slow);
    assert_eq!(kept(false), sampled);
    assert_eq!(built, parent.seq - 1, "records built for kept traces only");
}

#[test]
fn capture_on_an_enabled_instance_leaves_its_store_unchanged() {
    let mut open = Vec::new();
    let plain = Telemetry::new(VirtualClock::new());
    run(&plain, GET, &mut open);
    run(&plain, FAULTED, &mut open);

    let observed = Telemetry::new(VirtualClock::new());
    observed.begin_capture();
    run(&observed, GET, &mut open);
    let first = observed.end_capture();
    observed.begin_capture();
    run(&observed, FAULTED, &mut open);
    let second = observed.end_capture();

    assert_eq!(observed.finished_spans(), plain.finished_spans());
    assert_eq!([first, second].concat(), plain.finished_spans());
}
