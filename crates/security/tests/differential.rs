//! Differential and adversarial tests for the typed `wsse:Security` block.
//!
//! The oracle (`crates/soap/tests/oracle`) is the message path as it was
//! when the block was an `Element` tree. Over arbitrary envelopes and
//! identities the template writer must produce its bytes and the event
//! reader its envelopes; tampering is applied to the *wire string*, as an
//! attacker would, and must be caught with the same error on both paths;
//! and no departure from the block's grammar may panic or verify.

#[path = "../../soap/tests/oracle/mod.rs"]
mod oracle;
#[path = "../../xml/tests/reference/mod.rs"]
mod reference;

use ogsa_security::{sign_envelope, verify_envelope, CertStore, Identity, SecurityError};
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_soap::{Envelope, SecurityHeader};
use ogsa_xml::{canonicalize, canonicalize_into, ns, ByteCount, Element, Node, QName, Sink};
use oracle::corpus::{self, arb_parts, arb_text, between, edit, Caught};
use proptest::prelude::*;
use std::sync::Arc;

// ---- arbitrary envelopes × identities -----------------------------------

/// The shared strategy's parts as an envelope.
fn arb_envelope() -> impl Strategy<Value = Envelope> {
    arb_parts().prop_map(|(body, headers)| {
        let mut env = Envelope::new(body);
        env.headers = headers;
        env
    })
}

struct World {
    store: CertStore,
    clock: VirtualClock,
    model: CostModel,
}

impl World {
    fn new() -> World {
        World {
            store: CertStore::new(),
            clock: VirtualClock::new(),
            model: CostModel::calibrated_2005(),
        }
    }

    fn identity(&self, issuer: &str, subject: &str) -> Identity {
        self.store.authority(issuer).issue(subject)
    }

    fn sign(&self, env: &mut Envelope, identity: &Identity) {
        sign_envelope(env, identity, &self.clock, &self.model);
    }

    fn verify(&self, env: &Envelope) -> Result<String, SecurityError> {
        verify_envelope(env, &self.store, &self.clock, &self.model).map(|s| s.dn().to_owned())
    }

    /// Verify `wire` by way of the event reader and by way of the oracle;
    /// the two must agree on the envelope and on the verdict (error
    /// variant — a malformed block's reason is worded per reader).
    fn verify_wire(&self, wire: &str) -> Result<String, SecurityError> {
        let fast = Envelope::from_wire(wire).expect("tampered wire is still XML");
        let tree = oracle::from_wire(wire).expect("tampered wire is still XML");
        assert_eq!(fast.headers, tree.headers);
        assert_eq!(fast.body, tree.body);
        match (&fast.security, &tree.security) {
            (Some(SecurityHeader::Malformed(_)), Some(SecurityHeader::Malformed(_))) => {}
            (a, b) => assert_eq!(a, b),
        }
        let verdict = self.verify(&fast);
        let oracle_verdict = self.verify(&tree);
        assert_eq!(
            std::mem::discriminant(&verdict.clone().err()),
            std::mem::discriminant(&oracle_verdict.clone().err())
        );
        if !matches!(verdict, Err(SecurityError::Malformed(_))) {
            assert_eq!(verdict, oracle_verdict);
        }
        verdict
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn template_and_event_reader_match_the_tree_oracle(
        mut env in arb_envelope(),
        issuer in arb_text(),
        subject in arb_text(),
        unsigned in 0u8..5,
        advance in 0u64..u64::MAX / 2,
    ) {
        let w = World::new();
        let signed = unsigned != 0;
        w.clock.advance(ogsa_sim::SimDuration::from_micros(advance));
        if signed {
            w.sign(&mut env, &w.identity(&issuer, &subject));
        }
        // Out: the template's bytes and price are the tree's.
        let wire = env.to_wire();
        prop_assert_eq!(&wire, &oracle::to_wire(&env));
        prop_assert_eq!(env.wire_size(), wire.len());
        // In: the events' envelope is the tree's, block and all.
        let fast = Envelope::from_wire(&wire).unwrap();
        let tree = oracle::from_wire(&wire).unwrap();
        prop_assert_eq!(&fast, &tree);
        prop_assert_eq!(&fast.security, &env.security);
        // And the verdict is the same.
        let verdict = w.verify(&fast);
        prop_assert_eq!(&verdict, &w.verify(&tree));
        prop_assert_eq!(verdict.is_ok(), signed);
    }

    /// A body whose members are shared subtrees (one event under many
    /// subscribers' `wsnt:Notify`) is signed, written, priced, read and
    /// verified as its all-owned twin: the oracle copies every shared node
    /// out before it writes, and reads back a tree that never had one.
    #[test]
    fn shared_body_members_are_their_owned_twins(
        (first, members) in arb_parts(),
        issuer in arb_text(),
    ) {
        let w = World::new();
        let members: Vec<Arc<Element>> =
            std::iter::once(first).chain(members).map(Arc::new).collect();
        let mut notify = Element::new(QName::new(ns::WSNT, "Notify"));
        notify.children.extend(members.iter().cloned().map(Node::Shared));
        let twin = oracle::owned(&notify);
        prop_assert_eq!(&notify, &twin);
        prop_assert_eq!(canonicalize(&notify), canonicalize(&twin));

        let mut env = Envelope::new(notify);
        w.sign(&mut env, &w.identity(&issuer, "CN=producer"));
        let wire = env.to_wire();
        prop_assert_eq!(&wire, &oracle::to_wire(&env));
        prop_assert_eq!(env.wire_size(), wire.len());
        let fast = Envelope::from_wire(&wire).unwrap();
        prop_assert_eq!(&fast, &oracle::from_wire(&wire).unwrap());
        prop_assert_eq!(&fast.security, &env.security);
        prop_assert!(w.verify(&fast).is_ok());
        prop_assert!(w.verify(&env).is_ok());
        // Sent and dropped, the envelope let go of every member.
        drop(env);
        prop_assert!(members.iter().all(|m| Arc::strong_count(m) == 1));
    }

    /// A sink is handed fragments, and where it puts them is its own
    /// business: recorded one by one they are the bytes a `String` got —
    /// from the envelope's writer (tree writer, declarations and template
    /// together), from the template alone, and from the canonicaliser.
    #[test]
    fn any_sink_sees_the_bytes_a_string_does(
        mut env in arb_envelope(),
        subject in arb_text(),
    ) {
        let w = World::new();
        w.sign(&mut env, &w.identity("CN=CA", &subject));
        let wire = env.to_wire();

        let mut fragments = Fragments::default();
        env.write_wire(&mut fragments);
        prop_assert_eq!(&fragments.0.concat(), &wire);

        let block = env.security.as_ref().unwrap();
        let mut fragments = Fragments::default();
        block.write_into(&mut fragments);
        let template = fragments.0.concat();
        prop_assert_eq!(template.len(), ByteCount::of(|n| block.write_into(n)));
        prop_assert_eq!(wire.matches(&template).count(), 1);

        let mut fragments = Fragments::default();
        canonicalize_into(&env.body, &mut fragments);
        prop_assert_eq!(fragments.0.concat().into_bytes(), canonicalize(&env.body));
    }

    #[test]
    fn taking_the_security_header_yields_the_tree_it_reads_as(
        mut env in arb_envelope(),
        subject in arb_text(),
    ) {
        let w = World::new();
        w.sign(&mut env, &w.identity("CN=CA", &subject));
        let block = env.security.clone().unwrap();
        let taken = env.take_header(&QName::new(ns::WSSE, "Security")).unwrap();
        // Text that serialises to nothing leaves no node behind.
        let mut expected = oracle::security_element(&block);
        drop_empty_text(&mut expected);
        prop_assert_eq!(taken, expected);
        prop_assert!(env.security.is_none());
        prop_assert_eq!(w.verify(&env), Err(SecurityError::NotSigned));
    }
}

/// Keeps every fragment as it arrived.
#[derive(Default)]
struct Fragments(Vec<String>);

impl Sink for Fragments {
    fn push_str(&mut self, s: &str) {
        self.0.push(s.to_owned());
    }
}

fn drop_empty_text(e: &mut Element) {
    e.children
        .retain(|n| !matches!(n, ogsa_xml::Node::Text(t) if t.is_empty()));
    e.child_elements_mut().for_each(drop_empty_text);
}

// ---- tampering with the wire string --------------------------------------

fn sample() -> Envelope {
    sample_setting("41")
}

fn sample_setting(value: &str) -> Envelope {
    let (body, headers) = corpus::sample_parts(value);
    let mut env = Envelope::new(body);
    env.headers = headers;
    env
}

fn signed_sample(w: &World) -> (Identity, String) {
    let alice = w.identity("CN=UVA-CA", "CN=alice,O=UVA-VO");
    let mut env = sample();
    w.sign(&mut env, &alice);
    (alice, env.to_wire())
}

#[test]
fn untampered_wire_verifies() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);
    assert_eq!(w.verify_wire(&wire).unwrap(), "CN=alice,O=UVA-VO");
}

#[test]
fn wire_tampering_is_caught_with_the_same_error_on_both_paths() {
    let w = World::new();
    let (alice, wire) = signed_sample(&w);
    let signed_wire = |mut env: Envelope, identity: &Identity| {
        w.sign(&mut env, identity);
        env.to_wire()
    };
    let theirs = signed_wire(sample(), &w.identity("CN=UVA-CA", "CN=mallory"));
    let other = signed_wire(sample_setting("9999"), &alice);

    let mismatch = |r: &str| {
        Err(SecurityError::DigestMismatch {
            reference: r.into(),
        })
    };
    for (caught, what, tampered) in corpus::tampered(&wire, &theirs, &other) {
        let verdict = w.verify_wire(&tampered);
        let expected = match caught {
            Caught::BodyDigest => mismatch("#Body"),
            Caught::HeadersDigest => mismatch("#Headers"),
            Caught::BadSignature => Err(SecurityError::BadSignature),
            Caught::Malformed => {
                assert!(
                    matches!(verdict, Err(SecurityError::Malformed(_))),
                    "{what}"
                );
                continue;
            }
            Caught::UnknownSigner => Err(SecurityError::UnknownSigner),
            Caught::UntrustedIssuer => Err(SecurityError::UntrustedIssuer {
                issuer: "CN=Rogue".into(),
            }),
            // The subject is whatever the (trusted) certificate says.
            Caught::Nothing => Ok("CN=alice,O=UVA-VO".to_owned()),
        };
        assert_eq!(verdict, expected, "{what}");
    }
}

#[test]
fn an_unsigned_sibling_cannot_ride_along() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);
    let body = between(&wire, "<soap:Body>", "</soap:Body>").to_owned();
    let evil = body.replace("41", "9999");
    for smuggled in [
        // A second payload, Body or Header is not an envelope at all.
        edit(&wire, &body, &format!("{body}{evil}")),
        edit(&wire, &body, &format!("{evil}{body}")),
        edit(
            &wire,
            "</soap:Body>",
            &format!("</soap:Body><soap:Body>{evil}</soap:Body>"),
        ),
        edit(
            &wire,
            "<soap:Header>",
            "<soap:Header><Forged/></soap:Header><soap:Header>",
        ),
    ] {
        assert!(matches!(
            Envelope::from_wire(&smuggled),
            Err(ogsa_xml::XmlError::Schema(_))
        ));
        assert!(oracle::from_wire(&smuggled).is_err());
    }
}

/// `attr_local` answers with the first of two like-named attributes while
/// canonicalisation digests both: a signed payload carrying a pair — spelt
/// alike, or through two prefixes bound to one namespace — is not XML, on
/// either path, before any verdict.
#[test]
fn a_duplicate_attribute_in_the_signed_payload_is_not_a_message() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);
    for hostile in [
        edit(&wire, "<value>", "<value unit=\"a\" unit=\"b\">"),
        edit(
            &wire,
            "<value>",
            "<value xmlns:p=\"urn:x\" xmlns:q=\"urn:x\" p:unit=\"a\" q:unit=\"b\">",
        ),
        edit(&wire, "<cnt:SetCounter>", "<cnt:SetCounter id='1' id='1'>"),
    ] {
        assert!(matches!(
            Envelope::from_wire(&hostile),
            Err(ogsa_xml::XmlError::Parse { .. })
        ));
        assert!(oracle::from_wire(&hostile).is_err());
        assert!(reference::parse(&hostile).is_err());
    }
    // One of each is only an edit under the signature.
    let single = edit(&wire, "<value>", "<value unit=\"a\">");
    assert_eq!(
        w.verify_wire(&single),
        Err(SecurityError::DigestMismatch {
            reference: "#Body".into()
        })
    );
}

// ---- long clean runs: the block search under every pass --------------------

/// Sign → wire → parse → verify with a clean Body text on each side of the
/// search's 32-byte block, at the benchmark's upload size and at a megabyte:
/// the priced size is the written size, the round trip verifies, and the
/// last payload byte is under the digest.
#[test]
fn long_clean_payloads_round_trip_and_their_last_byte_is_signed() {
    let w = World::new();
    let alice = w.identity("CN=UVA-CA", "CN=alice,O=UVA-VO");
    for len in [0usize, 31, 32, 33, 24_576, 1 << 20] {
        // Clean text of exactly `len` bytes, its one `z` last.
        let mut payload: String = ('a'..='y').cycle().take(len.saturating_sub(1)).collect();
        payload.extend((len > 0).then_some('z'));
        let mut env = sample_setting(&payload);
        w.sign(&mut env, &alice);
        let wire = env.to_wire();
        assert_eq!(env.wire_size(), wire.len(), "{len}");
        let received = Envelope::from_wire(&wire).unwrap();
        // (Empty text leaves no node behind.)
        assert_eq!(received.body.child_text("value").unwrap_or(""), payload);
        assert_eq!(w.verify(&received).unwrap(), "CN=alice,O=UVA-VO", "{len}");

        if len > 0 {
            let flipped = edit(&wire, "z</value>", "Z</value>");
            let tampered = Envelope::from_wire(&flipped).unwrap();
            assert_eq!(
                w.verify(&tampered),
                Err(SecurityError::DigestMismatch {
                    reference: "#Body".into()
                }),
                "{len}"
            );
        }
    }
}

// ---- the hostile block corpus ---------------------------------------------

/// Every entry is well-formed XML whose security block departs from the
/// grammar: read as malformed by both readers, rejected as malformed by
/// verification, never a panic, never accepted.
#[test]
fn departures_from_the_block_grammar_are_malformed_never_accepted() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);

    let corpus = corpus::departures(&wire);
    let token = format!(
        "<wsse:BinarySecurityToken>{}</wsse:BinarySecurityToken>",
        between(
            &wire,
            "<wsse:BinarySecurityToken>",
            "</wsse:BinarySecurityToken>"
        )
    );
    let nest = |depth: usize| format!("{}x{}", "<d>".repeat(depth), "</d>".repeat(depth));

    for (what, hostile) in &corpus {
        assert!(
            matches!(w.verify_wire(hostile), Err(SecurityError::Malformed(_))),
            "{what}"
        );
        // Written back out it is still a message, still malformed.
        let env = Envelope::from_wire(hostile).unwrap();
        let again = Envelope::from_wire(&env.to_wire()).unwrap();
        assert_eq!(env.wire_size(), env.to_wire().len(), "{what}");
        assert!(
            matches!(again.security, Some(SecurityHeader::Malformed(_))),
            "{what}"
        );
    }

    // Deeper than any call stack: refused by the reader before a tree that
    // would be dropped recursively is built.
    let abyss = edit(
        &wire,
        &token,
        &format!(
            "<wsse:BinarySecurityToken>{}</wsse:BinarySecurityToken>",
            nest(200_000)
        ),
    );
    assert!(Envelope::from_wire(&abyss).is_err());

    // A reason never quotes more than a bounded piece of hostile text.
    for (_, hostile) in &corpus {
        if let Some(SecurityHeader::Malformed(reason)) =
            Envelope::from_wire(hostile).unwrap().security
        {
            assert!(reason.len() < 256, "{reason}");
        }
    }
}

/// A block that is not even well-formed XML is a parse error, as it always
/// was — the reader checks what it skips.
#[test]
fn broken_xml_inside_the_block_is_an_xml_error() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);
    for broken in corpus::broken_xml(&wire) {
        assert!(Envelope::from_wire(&broken).is_err(), "{broken}");
        assert!(oracle::from_wire(&broken).is_err());
    }
}

/// The comments a canonical form drops are dropped here too.
#[test]
fn comments_inside_the_block_change_nothing() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);
    let commented = corpus::commented(&wire);
    assert_eq!(w.verify_wire(&commented).unwrap(), "CN=alice,O=UVA-VO");
}
