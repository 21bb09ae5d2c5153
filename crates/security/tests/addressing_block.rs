//! The typed WS-Addressing block against the trees it stands for.
//!
//! `MessageHeaders::apply` used to stamp `wsa:To`, `Action`, `MessageID`,
//! `ReplyTo` and `RelatesTo` as trees; the oracle's `trees_from_wire` reads
//! every header as a tree, as the parser did then. Over arbitrary field
//! text the block must write those trees' bytes, digest to their headers
//! digest and read back to the same headers; and every header shape the
//! block cannot hold must parse, verify and extract as it did as trees.

#[path = "../../soap/tests/oracle/mod.rs"]
mod oracle;

use ogsa_addressing::{EndpointReference, MessageHeaders};
use ogsa_security::{sign_envelope, verify_envelope, CertStore, Identity, SecurityError};
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_soap::Envelope;
use ogsa_xml::{ns, Element, QName};
use proptest::prelude::*;

struct World {
    store: CertStore,
    identity: Identity,
    model: CostModel,
}

impl World {
    fn new() -> World {
        let store = CertStore::new();
        let identity = store.authority("CN=UVA-CA").issue("CN=alice,O=UVA-VO");
        World {
            store,
            identity,
            model: CostModel::calibrated_2005(),
        }
    }

    /// Signed at a fixed instant, so two envelopes that digest alike get
    /// the same block.
    fn sign(&self, env: &mut Envelope) {
        sign_envelope(env, &self.identity, &VirtualClock::new(), &self.model);
    }

    fn verify(&self, env: &Envelope) -> Result<String, SecurityError> {
        verify_envelope(env, &self.store, &VirtualClock::new(), &self.model)
            .map(|s| s.dn().to_owned())
    }
}

fn wsa(local: &str, text: &str) -> Element {
    Element::text_element(QName::new(ns::WSA, local), text)
}

/// `h` stamped as the parent's `apply` stamped it: one tree per header.
fn stamped_as_trees(h: &MessageHeaders, body: Element) -> Envelope {
    let mut env = Envelope::new(body)
        .with_header(wsa("To", &h.to))
        .with_header(wsa("Action", &h.action))
        .with_header(wsa("MessageID", &h.message_id));
    if let Some(r) = &h.reply_to {
        env.headers
            .push(r.to_element_named(QName::new(ns::WSA, "ReplyTo")));
    }
    if let Some(r) = &h.relates_to {
        env.headers.push(wsa("RelatesTo", r));
    }
    env.headers.extend(h.reference_properties.iter().cloned());
    env
}

fn body() -> Element {
    Element::new(QName::new(ns::COUNTER, "SetCounter"))
        .with_child(Element::text_element("value", "41"))
}

/// Field text with everything the wire escapes or decodes, and nothing.
fn arb_field() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([ -~]|[<>&\r\n\t]|\u{e9}|\u{2603}|\u{1d11e}){0,16}").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_block_writes_digests_and_reads_as_its_trees(
        (to, action, message_id) in (arb_field(), arb_field(), arb_field()),
        reply_to in proptest::option::of(arb_field()),
        relates_to in proptest::option::of(arb_field()),
        resource in "[a-z0-9-]{1,12}",
    ) {
        let w = World::new();
        let mut h = MessageHeaders::request(
            &EndpointReference::resource(to, resource),
            action,
            message_id,
        );
        h.reply_to = reply_to.map(EndpointReference::service);
        h.relates_to = relates_to.map(Into::into);

        let mut typed = h.apply(Envelope::new(body()));
        let mut trees = stamped_as_trees(&h, body());
        prop_assert!(typed.addressing.is_some());
        prop_assert_eq!(typed.to_wire(), trees.to_wire());
        prop_assert_eq!(typed.wire_size(), trees.wire_size());

        // Same headers digest, so the same signature value.
        w.sign(&mut typed);
        w.sign(&mut trees);
        prop_assert_eq!(&typed.security, &trees.security);
        let wire = typed.to_wire();
        prop_assert_eq!(&wire, &trees.to_wire());

        // Read back: verifies, and extracts to what was stamped — as the
        // parent's trees extract.
        let received = Envelope::from_wire(&wire).unwrap();
        prop_assert_eq!(w.verify(&received), Ok("CN=alice,O=UVA-VO".to_owned()));
        let back = MessageHeaders::extract(&received).unwrap();
        prop_assert_eq!(&back, &h);
        let parent = oracle::trees_from_wire(&wire).unwrap();
        prop_assert_eq!(&MessageHeaders::extract(&parent).unwrap(), &h);
        prop_assert_eq!(received.to_wire(), parent.to_wire());
    }
}

/// `wire` read now and read as the parent read it: the same verdict, the
/// same headers extracted, the same bytes written back out. Returns whether
/// the block was filled, and the verdict.
fn read_as_the_parent(w: &World, wire: &str) -> (bool, Result<String, SecurityError>) {
    let now = Envelope::from_wire(wire).unwrap();
    let parent = oracle::trees_from_wire(wire).unwrap();
    assert_eq!(now, oracle::from_wire(wire).unwrap(), "{wire}");
    let verdict = w.verify(&now);
    assert_eq!(verdict, w.verify(&parent), "{wire}");
    assert_eq!(
        MessageHeaders::extract(&now),
        MessageHeaders::extract(&parent),
        "{wire}"
    );
    assert_eq!(now.to_wire(), parent.to_wire(), "{wire}");
    (now.addressing.is_some(), verdict)
}

fn request() -> MessageHeaders {
    MessageHeaders::request(
        &EndpointReference::resource("http://h/s", "c-7"),
        "urn:set",
        "uuid:m-2",
    )
}

fn signed(w: &World, mut env: Envelope) -> String {
    w.sign(&mut env);
    env.to_wire()
}

/// Headers the block cannot hold stay trees in document order, and sign,
/// verify and extract as trees always did.
#[test]
fn shapes_the_block_cannot_hold_are_the_trees_they_were() {
    let w = World::new();
    let [to, action, id] = [
        wsa("To", "http://h/s"),
        wsa("Action", "urn:set"),
        wsa("MessageID", "m"),
    ];
    let shapes = [
        (
            "attribute on To",
            vec![to.clone().with_attr("Id", "t"), action.clone(), id.clone()],
        ),
        (
            "element content in Action",
            vec![
                to.clone(),
                action.clone().with_child(Element::new("x")),
                id.clone(),
            ],
        ),
        (
            "Action before To",
            vec![action.clone(), to.clone(), id.clone()],
        ),
        (
            "repeated To",
            vec![to.clone(), to.clone(), action.clone(), id.clone()],
        ),
        (
            "after another header",
            vec![
                Element::new("Other"),
                to.clone(),
                action.clone(),
                id.clone(),
            ],
        ),
        ("no MessageID", vec![to.clone(), action.clone()]),
        (
            "empty MessageID",
            vec![to.clone(), action.clone(), wsa("MessageID", "")],
        ),
    ];
    for (what, headers) in shapes {
        let mut env = Envelope::new(body());
        env.headers = headers;
        let wire = signed(&w, env);
        assert_eq!(
            read_as_the_parent(&w, &wire),
            (false, Ok("CN=alice,O=UVA-VO".to_owned())),
            "{what}"
        );
    }
    // Held by the block up to the repeat, which stays a tree after it; its
    // first `To` is the one extracted, as it always was.
    let mut env = Envelope::new(body());
    env.headers = vec![to.clone(), action, id, wsa("To", "http://elsewhere/s")];
    let wire = signed(&w, env);
    assert_eq!(
        read_as_the_parent(&w, &wire),
        (true, Ok("CN=alice,O=UVA-VO".to_owned()))
    );
    let extracted = MessageHeaders::extract(&Envelope::from_wire(&wire).unwrap()).unwrap();
    assert_eq!(&*extracted.to, "http://h/s");
}

/// Other spellings of the same headers: the template declines, the events
/// fill the block, and the signature holds.
#[test]
fn spellings_only_the_events_read_fill_the_block() {
    let w = World::new();
    let wire = signed(&w, request().apply(Envelope::new(body())));
    let rebound = {
        let mut header = wire.replace("<wsa:", "<a:").replace("</wsa:", "</a:");
        header = header.replacen(
            "<soap:Header>",
            &format!("<soap:Header xmlns:a=\"{}\">", ns::WSA),
            1,
        );
        header
    };
    assert_ne!(rebound, wire);
    let escaped = wire.replacen("http://h/s", "http&#58;//h&#x2F;s", 1);
    let mut amp = request();
    amp.to = "http://h/s?a=1&b=<2>".into();
    let ampersand = signed(&w, amp.apply(Envelope::new(body())));
    assert!(ampersand.contains("&amp;b=&lt;2&gt;"));
    for spelled in [&wire, &rebound, &escaped, &ampersand] {
        assert_eq!(
            read_as_the_parent(&w, spelled),
            (true, Ok("CN=alice,O=UVA-VO".to_owned())),
            "{spelled}"
        );
    }
}

#[test]
fn a_tampered_to_fails_verification_as_it_did() {
    let w = World::new();
    let wire = signed(&w, request().apply(Envelope::new(body())));
    let tampered = wire.replacen("http://h/s", "http://evil/s", 1);
    let mismatch = Err(SecurityError::DigestMismatch {
        reference: "#Headers".into(),
    });
    assert_eq!(read_as_the_parent(&w, &tampered), (true, mismatch));
}
