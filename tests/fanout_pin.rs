//! Pins what the fan-out core charges and emits, probed at the commit
//! before the filter index, `Arc` entries and per-subscriber slots went in.
//! Those changes may move the wall clock only: the same deliveries, the
//! same envelopes, the same virtual microseconds, the same spans.

use ogsa_grid::comparison::fanout::{batched_span_dump, stack_fanout};
use ogsa_grid::sim::rng::hash_str;

#[test]
fn stack_fanout_charges_and_counts_are_pinned() {
    let rows = stack_fanout(&[1_000], 256);
    let got: Vec<_> = rows
        .iter()
        .map(|r| (r.stack, r.virtual_us, r.deliveries, r.envelopes))
        .collect();
    assert_eq!(
        got,
        [
            ("wsn", 153_600, 1_024, 128),
            ("eventing", 30_750_720, 256_000, 256_000),
        ]
    );
}

#[test]
fn batched_span_dump_is_pinned() {
    let dump = batched_span_dump(11);
    assert_eq!(
        (dump.len(), hash_str(&dump)),
        (3_442, 0xe41f_c845_d63c_c45d)
    );
}
