//! The interner is bounded: names that arrive off a socket cannot grow the
//! process without limit. A test binary of its own, because it fills the
//! process-wide table.

use std::sync::Arc;

use ogsa_xml::{intern, interned_len, parse, INTERN_CAPACITY};

/// splitmix64 — distinct, unguessable-looking names without a dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn hostile_names_leave_the_table_at_its_bound_and_trees_still_compare_equal() {
    let early = intern("urn:interned-early");
    let mut state = 7;
    for _ in 0..100_000 {
        let (e, a, u) = (next(&mut state), next(&mut state), next(&mut state));
        let doc = format!("<p:e{e:x} xmlns:p=\"urn:{u:x}\" a{a:x}=\"v\"><c{e:x}/></p:e{e:x}>");
        // Two parses of one document: past the bound their names are
        // separate allocations, and must still be equal by content.
        assert_eq!(parse(&doc).unwrap(), parse(&doc).unwrap());
    }
    assert_eq!(interned_len(), INTERN_CAPACITY);
    let doc = "<never-seen-before k=\"v\"/>";
    assert_eq!(parse(doc).unwrap(), parse(doc).unwrap());
    assert_eq!(interned_len(), INTERN_CAPACITY);
    // Past the bound a string is shared by nothing, this thread's memo in
    // front of the table included; what the table held before still is.
    let (a, b) = (intern("never-seen-before"), intern("never-seen-before"));
    assert!(!Arc::ptr_eq(&a, &b));
    assert!(Arc::ptr_eq(&early, &intern("urn:interned-early")));
}
