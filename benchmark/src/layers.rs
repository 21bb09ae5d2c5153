//! Layer timings taken from outside: timed calls into each crate's public
//! functions on messages the workload itself produced. Nothing here changes
//! a file of the program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ogsa_core::addressing::MessageHeaders;
use ogsa_core::container::Testbed;
use ogsa_core::security::{c14n_passes, sha256, sign_envelope, verify_envelope};
use ogsa_core::soap::Envelope;
use ogsa_core::telemetry::wallclock::WallHistogram;
use ogsa_core::transport::Network;
use ogsa_core::xml::{self, canonicalize_into, ns, pooled_string, CanonSink, Element, QName};

use crate::metrics::Ledger;

/// Mean microseconds of one call of `f`, over `rounds` passes across
/// `0..items` after one untimed pass.
pub fn mean_us(items: usize, rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    assert!(items > 0 && rounds > 0);
    (0..items).for_each(&mut f);
    let start = Instant::now();
    for _ in 0..rounds {
        (0..items).for_each(&mut f);
    }
    start.elapsed().as_secs_f64() * 1e6 / (items * rounds) as f64
}

/// Counts canonical bytes and keeps none: times canonicalisation alone.
struct NullSink(usize);

impl CanonSink for NullSink {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }
}

/// The message-shaped layers — xml, soap, addressing, security — timed on
/// `wires`, signed SOAP envelopes the workload put on its wire. `rounds`
/// passes over the sample each.
pub fn message_layers(ledger: &mut Ledger, tb: &Testbed, wires: &[String], rounds: usize) {
    assert!(!wires.is_empty(), "no sample messages captured");
    let n = wires.len();
    let bytes: usize = wires.iter().map(String::len).sum();
    let mean_len = bytes as f64 / n as f64;

    let parse_us = mean_us(n, rounds, |i| {
        black_box(xml::parse(&wires[i]).expect("sample parses"));
    });
    ledger.set("xml.parse_us", parse_us);
    ledger.set("xml.parse_mb_s", mean_len / parse_us);

    let roots: Vec<Element> = wires
        .iter()
        .map(|w| xml::parse(w).expect("sample parses"))
        .collect();
    let mut out = String::with_capacity(64 * 1024);
    ledger.set(
        "xml.serialize_us",
        mean_us(n, rounds, |i| {
            out.clear();
            xml::writer::write_document_into(&roots[i], &mut out);
            black_box(out.len());
        }),
    );

    let envelopes: Vec<Envelope> = wires
        .iter()
        .map(|w| Envelope::from_wire(w).expect("sample is a SOAP envelope"))
        .collect();
    ledger.set(
        "xml.c14n_us",
        mean_us(n, rounds, |i| {
            let mut sink = NullSink(0);
            canonicalize_into(&envelopes[i].body, &mut sink);
            black_box(sink.0);
        }),
    );
    ledger.set(
        "soap.from_wire_us",
        mean_us(n, rounds, |i| {
            black_box(Envelope::from_wire(&wires[i]).expect("sample is a SOAP envelope"));
        }),
    );
    ledger.set(
        "soap.to_wire_us",
        mean_us(n, rounds, |i| {
            let mut buf = pooled_string();
            envelopes[i].to_wire_into(&mut buf);
            black_box(buf.len());
        }),
    );
    ledger.set(
        "addressing.headers_us",
        mean_us(n, rounds, |i| {
            let headers = MessageHeaders::extract(&envelopes[i]).expect("sample is addressed");
            black_box(headers.apply(Envelope::new(Element::new("probe"))));
        }),
    );

    let (store, clock, model) = (tb.cert_store(), tb.clock(), tb.model());
    let passes_before = c14n_passes();
    ledger.set(
        "security.verify_us",
        mean_us(n, rounds, |i| {
            black_box(
                verify_envelope(&envelopes[i], store, clock, model).expect("sample verifies"),
            );
        }),
    );
    // Sign the same messages again: strip the signature, keep the rest.
    let identity = tb.ca().issue("CN=ledger-signer,O=VO");
    let security = QName::new(ns::WSSE, "Security");
    let unsigned: Vec<Envelope> = envelopes
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.take_header(&security);
            e
        })
        .collect();
    let mut scratch: Vec<Envelope> = Vec::new();
    let mut sign_ns = 0u128;
    for pass in 0..=rounds {
        scratch.clone_from(&unsigned);
        let t = Instant::now();
        for env in &mut scratch {
            sign_envelope(env, &identity, clock, model);
        }
        // Pass 0 is the untimed one, as in `mean_us`.
        if pass > 0 {
            sign_ns += t.elapsed().as_nanos();
        }
    }
    ledger.set(
        "security.sign_us",
        sign_ns as f64 / 1e3 / (n * rounds) as f64,
    );
    // One verify and one sign per request/response exchange.
    ledger.set(
        "security.c14n_passes_per_op",
        (c14n_passes() - passes_before) as f64 / (n * (rounds + 1)) as f64,
    );
    let sha_us = mean_us(n, rounds, |i| {
        black_box(sha256(wires[i].as_bytes()));
    });
    ledger.set("security.sha256_mb_s", mean_len / sha_us);
}

/// The per-request observability set the serving tier and the container
/// record — two counters and one wall-clock histogram sample — and one
/// unsigned echo through the in-process transport.
pub fn plumbing_layers(ledger: &mut Ledger, tb: &Testbed, sample: &Envelope) {
    let metrics = tb.telemetry().metrics();
    let hist = WallHistogram::new();
    ledger.set(
        "telemetry.record_us",
        mean_us(1_000, 20, |i| {
            metrics.inc("bench.probe", &[]);
            metrics.inc("bench.probe", &[("kind", "labelled")]);
            hist.record(i as u64);
        }),
    );

    let net = Network::free();
    net.bind(
        "http://echo-host/services/echo",
        Arc::new(|req: Envelope| Envelope::new(req.body)),
    );
    let port = net.port("probe-host");
    ledger.set(
        "transport.call_us",
        mean_us(1_000, 5, |_| {
            black_box(
                port.call("http://echo-host/services/echo", sample.clone())
                    .expect("echo answers"),
            );
        }),
    );
}
