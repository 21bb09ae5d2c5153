//! Allocation pin for the signed message path: sign → wire → parse →
//! verify, in process, counted by a counting global allocator. A test
//! binary of its own, so nothing else allocates on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ogsa_security::{sign_envelope, verify_envelope, CertStore};
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_soap::{AddressingHeader, Envelope};
use ogsa_xml::{ns, Element, QName};

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

fn body(note: &str) -> Element {
    Element::new(QName::new(ns::COUNTER, "SetCounter"))
        .with_child(Element::text_element(
            QName::new(ns::COUNTER, "value"),
            "41",
        ))
        .with_child(Element::text_element(QName::new(ns::COUNTER, "note"), note))
}

/// A request the size and shape of the counter workload's: four addressing
/// headers (one an echoed reference property) and a two-field body, every
/// header built as a tree.
fn request(note: &str) -> Envelope {
    let wsa = |local: &str, text: &str| Element::text_element(QName::new(ns::WSA, local), text);
    Envelope::new(body(note))
        .with_header(wsa("To", "http://host-a/services/Counter"))
        .with_header(wsa("Action", "urn:counter/Set"))
        .with_header(wsa("MessageID", "uuid:client-1234"))
        .with_header(Element::text_element("ResourceID", "c-7"))
}

/// The same request stamped as a client stamps it: the `wsa:` headers a
/// typed block from the start.
fn stamped(note: &str) -> Envelope {
    let to = "http://host-a/services/Counter";
    let block = AddressingHeader::request(to, "urn:counter/Set", "uuid:client-1234".into());
    Envelope::new(body(note))
        .with_addressing(block)
        .with_header(Element::text_element("ResourceID", "c-7"))
}

/// Allocations of one signed round trip of `unsigned`, everything warm.
fn round_trip_allocations(unsigned: &Envelope) -> u64 {
    let store = CertStore::new();
    let identity = store.authority("CN=UVA-CA").issue("CN=alice,O=UVA-VO");
    let clock = VirtualClock::new();
    let model = CostModel::calibrated_2005();
    let mut wire = String::with_capacity(4096);

    let mut round_trip = || {
        let mut env = unsigned.clone();
        sign_envelope(&mut env, &identity, &clock, &model);
        wire.clear();
        env.to_wire_into(&mut wire);
        let received = Envelope::from_wire(&wire).expect("own wire parses");
        verify_envelope(&received, &store, &clock, &model).expect("own signature verifies");
    };
    // Once untimed: interner, vocabularies and buffers warm.
    round_trip();
    let before = ALLOCATIONS.with(Cell::get);
    round_trip();
    ALLOCATIONS.with(Cell::get) - before
}

/// One signed round trip measured at the parent commit (the security block
/// a ~20-node tree, built, serialised, parsed, walked and dropped), with
/// this same file.
const PARENT_ALLOCATIONS: u64 = 116;

/// With the block typed, 53. With the certificate shared instead of copied,
/// the prefix assignment remembered and the block read against its
/// template, 38. With the addressing headers read into their typed block,
/// 35. With the reader's stacks pooled and the received certificate, key
/// name, `To` and `Action` shared per thread: no more than this.
const ALLOCATIONS_NOW: u64 = 23;

/// A stamped request's round trip: its clone shares three strings, not
/// three trees (32 while it copied them).
const STAMPED_NOW: u64 = 17;

#[test]
fn a_signed_round_trip_allocates_at_most_two_thirds_of_what_it_did() {
    let spent = round_trip_allocations(&request("some text of a plausible length"));
    assert!(
        spent <= ALLOCATIONS_NOW,
        "{spent} allocations, {ALLOCATIONS_NOW} when this was written"
    );
    assert!(
        spent * 3 <= PARENT_ALLOCATIONS * 2,
        "{spent} allocations against {PARENT_ALLOCATIONS} at the parent"
    );
}

/// The typed sender path: the same bytes on the wire, fewer allocations.
#[test]
fn a_stamped_round_trip_allocates_less_than_a_tree_built_one() {
    let note = "some text of a plausible length";
    let (trees, typed) = (request(note), stamped(note));
    assert_eq!(typed.to_wire(), trees.to_wire());
    assert!(typed.addressing.is_some() && trees.addressing.is_none());
    let spent = round_trip_allocations(&typed);
    assert!(
        spent <= STAMPED_NOW,
        "{spent} allocations, {STAMPED_NOW} when this was written"
    );
    assert!(spent < round_trip_allocations(&trees));
}

/// What a container reads of a received request's addressing, and the
/// block it answers with, allocate nothing once warm: the strings are the
/// request's, shared. (3 at the parent, which copied the echoed reference
/// property out with them.)
#[test]
fn reading_and_answering_the_addressing_allocates_nothing() {
    let received = Envelope::from_wire(&stamped("note").to_wire()).expect("own wire parses");
    let id: std::sync::Arc<str> = "uuid:host-a-1".into();
    let answer = || {
        let request = AddressingHeader::extract(&received).expect("addressed");
        request.response(id.clone())
    };
    answer();
    assert_eq!(allocations(|| drop(answer())), 0);
}

/// Canonicalisation streams escaped text into the digest as clean run,
/// entity, clean run: text that needs escaping costs the two passes no
/// `String`. (The reader still owns one for the decoded text either way —
/// the tree stores it.)
#[test]
fn text_that_needs_escaping_costs_no_more_allocations_than_clean_text() {
    let clean = round_trip_allocations(&request("some text of a plausible length"));
    let dirty = round_trip_allocations(&request("some <&>t of a plausible length"));
    assert!(dirty <= clean, "{dirty} allocations dirty, {clean} clean");
}

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Writing never sizes its buffer first, and the prefix assignment is
/// remembered: once warm, pricing a message and writing it into a buffer
/// allocate nothing, and `to_wire()` exactly the one `String` it returns.
#[test]
fn writing_allocates_only_the_string_it_returns() {
    let store = CertStore::new();
    let identity = store.authority("CN=UVA-CA").issue("CN=alice,O=UVA-VO");
    let mut env = request("some <&>t of a plausible length");
    sign_envelope(
        &mut env,
        &identity,
        &VirtualClock::new(),
        &CostModel::calibrated_2005(),
    );
    // Warm: the pool `to_wire()` writes through, and the caller's buffer.
    let mut wire = env.to_wire();

    let priced = allocations(|| assert_eq!(env.wire_size(), wire.len()));
    wire.clear();
    let written = allocations(|| env.to_wire_into(&mut wire));
    let mut owned = String::new();
    let returned = allocations(|| owned = env.to_wire());
    assert_eq!(owned, wire);
    assert_eq!(
        (priced, written),
        (0, 0),
        "neither the bytes nor the prefixes"
    );
    assert_eq!(returned, 1, "one `String`, at its final length");
    assert_eq!(owned.capacity(), owned.len());
}
