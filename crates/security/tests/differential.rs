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

use ogsa_security::{sign_envelope, verify_envelope, CertStore, Identity, SecurityError};
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_soap::{Envelope, SecurityHeader};
use ogsa_xml::{canonicalize, canonicalize_into, ns, ByteCount, Element, QName, Sink};
use proptest::prelude::*;

// ---- arbitrary envelopes × identities -----------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_]{0,8}").unwrap()
}

/// Text that exercises escaping on every field it lands in.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([ -~]|[<>&\"'\t\r\n]){1,24}").unwrap()
}

/// No namespace, a well-known one (preferred prefix), or an unknown one
/// (generated `nsN` prefix).
fn arb_uri() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some(ns::WSA.to_owned())),
        Just(Some(ns::COUNTER.to_owned())),
        Just(Some(ns::DS.to_owned())),
        proptest::string::string_regex("urn:[a-z]{1,6}")
            .unwrap()
            .prop_map(Some),
    ]
}

fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (
        arb_name(),
        arb_uri(),
        proptest::option::of((arb_name(), arb_text())),
        proptest::option::of(arb_text()),
    )
        .prop_map(|(name, uri, attr, text)| {
            let mut e = match uri {
                Some(u) => Element::new(QName::new(&u, &name)),
                None => Element::new(name.as_str()),
            };
            if let Some((k, v)) = attr {
                e.set_attr(k.as_str(), v);
            }
            if let Some(text) = text {
                e.add_text(text);
            }
            e
        });
    leaf.prop_recursive(2, 8, 3, |inner| {
        (
            arb_name(),
            arb_uri(),
            proptest::collection::vec(inner, 0..3),
        )
            .prop_map(|(name, uri, kids)| {
                let e = match uri {
                    Some(u) => Element::new(QName::new(&u, &name)),
                    None => Element::new(name.as_str()),
                };
                e.with_children(kids)
            })
    })
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        arb_element(),
        proptest::collection::vec(arb_element(), 0..4),
    )
        .prop_map(|(body, headers)| {
            let mut env = Envelope::new(body);
            // `wsse:`/`wsu:` names are the security layer's own.
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
    Envelope::new(
        Element::new(QName::new(ns::COUNTER, "SetCounter"))
            .with_child(Element::text_element("value", value)),
    )
    .with_header(Element::text_element(
        QName::new(ns::WSA, "To"),
        "http://h/s",
    ))
    .with_header(Element::text_element(
        QName::new(ns::WSA, "Action"),
        "urn:set",
    ))
}

fn signed_sample(w: &World) -> (Identity, String) {
    let alice = w.identity("CN=UVA-CA", "CN=alice,O=UVA-VO");
    let mut env = sample();
    w.sign(&mut env, &alice);
    (alice, env.to_wire())
}

/// Replace the one occurrence of `from`.
fn edit(wire: &str, from: &str, to: &str) -> String {
    assert_eq!(wire.matches(from).count(), 1, "`{from}` in {wire}");
    wire.replacen(from, to, 1)
}

/// The text between the first `open` and the following `close`.
fn between<'w>(wire: &'w str, open: &str, close: &str) -> &'w str {
    let start = wire.find(open).expect(open) + open.len();
    &wire[start..start + wire[start..].find(close).expect(close)]
}

/// The `n`th `<ds:DigestValue>` (0 = body, 1 = headers).
fn digest_value(wire: &str, n: usize) -> &str {
    let open = "<ds:DigestValue>";
    let at = wire.match_indices(open).nth(n).expect("digest").0;
    between(&wire[at..], open, "</ds:DigestValue>")
}

/// Another valid digest: its first hex digit moved on by one.
fn flipped(hex: &str) -> String {
    let first = if hex.starts_with('0') { '1' } else { '0' };
    format!("{first}{}", &hex[1..])
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
    let mismatch = |r: &str| SecurityError::DigestMismatch {
        reference: r.into(),
    };

    let body_text = edit(&wire, "<value>41</value>", "<value>9999</value>");
    assert_eq!(w.verify_wire(&body_text), Err(mismatch("#Body")));

    let header = edit(&wire, "http://h/s", "http://evil/s");
    assert_eq!(w.verify_wire(&header), Err(mismatch("#Headers")));

    let injected = edit(&wire, "<soap:Header>", "<soap:Header><Forged>x</Forged>");
    assert_eq!(w.verify_wire(&injected), Err(mismatch("#Headers")));

    let body_digest = digest_value(&wire, 0);
    let claimed = edit(&wire, body_digest, &flipped(body_digest));
    assert_eq!(w.verify_wire(&claimed), Err(mismatch("#Body")));

    let headers_digest = digest_value(&wire, 1);
    let claimed = edit(&wire, headers_digest, &flipped(headers_digest));
    assert_eq!(w.verify_wire(&claimed), Err(mismatch("#Headers")));

    let value = between(&wire, "<ds:SignatureValue>", "</ds:SignatureValue>");
    let forged = edit(&wire, value, &flipped(value));
    assert_eq!(w.verify_wire(&forged), Err(SecurityError::BadSignature));

    // The right digests under somebody else's signature, alice's
    // certificate kept.
    let mallory = w.identity("CN=UVA-CA", "CN=mallory");
    let mut theirs = sample();
    w.sign(&mut theirs, &mallory);
    let theirs = theirs.to_wire();
    let spliced = edit(
        &wire,
        value,
        between(&theirs, "<ds:SignatureValue>", "</ds:SignatureValue>"),
    );
    assert_eq!(w.verify_wire(&spliced), Err(SecurityError::BadSignature));

    // A body changed *and* its digest recomputed: the signature no longer
    // covers the SignedInfo.
    let mut other = sample_setting("9999");
    w.sign(&mut other, &alice);
    let other = other.to_wire();
    let redigested = edit(&body_text, body_digest, digest_value(&other, 0));
    assert_eq!(w.verify_wire(&redigested), Err(SecurityError::BadSignature));

    let key = alice.cert.key_id.as_str();
    let key_name = edit(
        &wire,
        &format!("<ds:KeyName>{key}</ds:KeyName>"),
        "<ds:KeyName>0000000000000000</ds:KeyName>",
    );
    assert!(matches!(
        w.verify_wire(&key_name),
        Err(SecurityError::Malformed(_))
    ));

    let unknown = wire.replace(key, "0000000000000000");
    assert_eq!(w.verify_wire(&unknown), Err(SecurityError::UnknownSigner));

    let issuer = edit(
        &wire,
        "<Issuer>CN=UVA-CA</Issuer>",
        "<Issuer>CN=Rogue</Issuer>",
    );
    assert_eq!(
        w.verify_wire(&issuer),
        Err(SecurityError::UntrustedIssuer {
            issuer: "CN=Rogue".into()
        })
    );

    // Not under the signature, so not tampering: the subject is whatever
    // the (trusted) certificate says, and the timestamp is informational.
    let created = between(&wire, "<wsu:Created>", "</wsu:Created>");
    let later = edit(
        &wire,
        &format!("<wsu:Created>{created}<"),
        "<wsu:Created>7<",
    );
    assert_eq!(w.verify_wire(&later).unwrap(), "CN=alice,O=UVA-VO");
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
        assert!(ogsa_xml::reference::parse(&hostile).is_err());
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

    // The whole of the first element `<name>…</name>`.
    let whole = |name: &str| {
        let (open, close) = (format!("<{name}>"), format!("</{name}>"));
        format!("{open}{}{close}", between(&wire, &open, &close))
    };
    let block = whole("wsse:Security");
    let timestamp = whole("wsu:Timestamp");
    let token = whole("wsse:BinarySecurityToken");
    let signature = whole("ds:Signature");
    let signed_info = whole("ds:SignedInfo");
    let signature_value = whole("ds:SignatureValue");
    let key_info = whole("ds:KeyInfo");
    let created = whole("wsu:Created");
    let body_ref = {
        let open = "<ds:Reference URI=\"#Body\">";
        format!(
            "{open}{}</ds:Reference>",
            between(&wire, open, "</ds:Reference>")
        )
    };
    let headers_ref = {
        let open = "<ds:Reference URI=\"#Headers\">";
        format!(
            "{open}{}</ds:Reference>",
            between(&wire, open, "</ds:Reference>")
        )
    };
    let digest = digest_value(&wire, 0).to_owned();
    let nest = |depth: usize| format!("{}x{}", "<d>".repeat(depth), "</d>".repeat(depth));

    let corpus: Vec<(&str, String)> = vec![
        // Missing children.
        ("no timestamp", edit(&wire, &timestamp, "")),
        ("no token", edit(&wire, &token, "")),
        ("no signature", edit(&wire, &signature, "")),
        ("no signed info", edit(&wire, &signed_info, "")),
        ("no signature value", edit(&wire, &signature_value, "")),
        ("no key info", edit(&wire, &key_info, "")),
        ("no body reference", edit(&wire, &body_ref, "")),
        ("no headers reference", edit(&wire, &headers_ref, "")),
        (
            "no certificate",
            edit(&wire, "<X509Certificate>", "<X509Certificate/><Other>").replacen(
                "</X509Certificate>",
                "</Other>",
                1,
            ),
        ),
        ("empty block", edit(&wire, &block, "<wsse:Security/>")),
        (
            "empty token",
            edit(&wire, &token, "<wsse:BinarySecurityToken/>"),
        ),
        // Duplicated children.
        (
            "two blocks",
            edit(&wire, &block, &format!("{block}{block}")),
        ),
        (
            "two timestamps",
            edit(&wire, &timestamp, &format!("{timestamp}{timestamp}")),
        ),
        (
            "two tokens",
            edit(&wire, &token, &format!("{token}{token}")),
        ),
        (
            "two signatures",
            edit(&wire, &signature, &format!("{signature}{signature}")),
        ),
        (
            "two signed infos",
            edit(&wire, &signed_info, &format!("{signed_info}{signed_info}")),
        ),
        (
            "two body references",
            edit(&wire, &body_ref, &format!("{body_ref}{body_ref}")),
        ),
        (
            "a third reference",
            edit(&wire, &headers_ref, &format!("{headers_ref}{body_ref}")),
        ),
        (
            "two signature values",
            edit(
                &wire,
                &signature_value,
                &format!("{signature_value}{signature_value}"),
            ),
        ),
        (
            "two digest values",
            edit(
                &wire,
                &body_ref,
                &body_ref.replace(
                    "</ds:Reference>",
                    &format!("<ds:DigestValue>{digest}</ds:DigestValue></ds:Reference>"),
                ),
            ),
        ),
        // Reordered children.
        (
            "token before timestamp",
            edit(
                &wire,
                &format!("{timestamp}{token}"),
                &format!("{token}{timestamp}"),
            ),
        ),
        (
            "signature first",
            edit(
                &wire,
                &format!("{timestamp}{token}{signature}"),
                &format!("{signature}{timestamp}{token}"),
            ),
        ),
        (
            "references swapped",
            edit(
                &wire,
                &format!("{body_ref}{headers_ref}"),
                &format!("{headers_ref}{body_ref}"),
            ),
        ),
        (
            "value before signed info",
            edit(
                &wire,
                &format!("{signed_info}{signature_value}"),
                &format!("{signature_value}{signed_info}"),
            ),
        ),
        ("issuer before subject", {
            let subject = "<Subject>CN=alice,O=UVA-VO</Subject>";
            let issuer = "<Issuer>CN=UVA-CA</Issuer>";
            edit(
                &wire,
                &format!("{subject}{issuer}"),
                &format!("{issuer}{subject}"),
            )
        }),
        // Extra attributes and children.
        (
            "attribute on the block",
            edit(
                &wire,
                "<wsse:Security>",
                "<wsse:Security soap:mustUnderstand=\"1\">",
            ),
        ),
        (
            "attribute on signed info",
            edit(&wire, "<ds:SignedInfo>", "<ds:SignedInfo Id=\"si\">"),
        ),
        (
            "second attribute on a reference",
            edit(
                &wire,
                "<ds:Reference URI=\"#Body\">",
                "<ds:Reference URI=\"#Body\" Type=\"t\">",
            ),
        ),
        (
            "qualified URI attribute",
            edit(
                &wire,
                "<ds:Reference URI=\"#Body\">",
                "<ds:Reference ds:URI=\"#Body\">",
            ),
        ),
        (
            "no URI attribute",
            edit(&wire, "<ds:Reference URI=\"#Body\">", "<ds:Reference>"),
        ),
        (
            "attribute on a digest",
            edit(
                &wire,
                &format!("<ds:DigestValue>{digest}"),
                &format!("<ds:DigestValue Id=\"d\">{digest}"),
            ),
        ),
        (
            "child in signed info",
            edit(
                &wire,
                "<ds:SignedInfo>",
                "<ds:SignedInfo><ds:CanonicalizationMethod/>",
            ),
        ),
        (
            "trailing child in signed info",
            edit(&wire, "</ds:SignedInfo>", "<ds:Extra/></ds:SignedInfo>"),
        ),
        (
            "trailing child in the block",
            edit(&wire, "</wsse:Security>", "<Extra/></wsse:Security>"),
        ),
        (
            "child in a digest",
            edit(
                &wire,
                &format!("<ds:DigestValue>{digest}"),
                &format!("<ds:DigestValue><b/>{digest}"),
            ),
        ),
        (
            "text in the block",
            edit(&wire, "<wsse:Security>", "<wsse:Security>\n  "),
        ),
        (
            "text in signed info",
            edit(&wire, "</ds:SignedInfo>", " </ds:SignedInfo>"),
        ),
        (
            "empty CDATA between elements",
            edit(&wire, "<ds:Signature>", "<ds:Signature><![CDATA[]]>"),
        ),
        // Names from the wrong namespace.
        (
            "unqualified signature",
            edit(
                &wire,
                &signature,
                &signature.replace("ds:Signature>", "Signature>"),
            ),
        ),
        (
            "certificate under a default namespace",
            edit(
                &wire,
                "<wsse:BinarySecurityToken>",
                "<wsse:BinarySecurityToken xmlns=\"urn:x\">",
            ),
        ),
        (
            "rebound ds prefix",
            edit(
                &wire,
                "<ds:Signature>",
                "<ds:Signature xmlns:ds=\"urn:not-dsig\">",
            ),
        ),
        // Values out of their one spelling.
        (
            "non-hex digest",
            edit(&wire, &digest, &format!("g{}", &digest[1..])),
        ),
        (
            "upper-case digest",
            edit(
                &wire,
                &digest,
                &digest.to_uppercase().replace(char::is_numeric, "A"),
            ),
        ),
        ("short digest", edit(&wire, &digest, &digest[1..])),
        ("long digest", edit(&wire, &digest, &format!("{digest}0"))),
        ("empty digest", edit(&wire, &digest, "")),
        ("padded digest", edit(&wire, &digest, &format!(" {digest}"))),
        (
            "short signature value",
            edit(
                &wire,
                &signature_value,
                "<ds:SignatureValue>abc</ds:SignatureValue>",
            ),
        ),
        (
            "unknown reference URI",
            edit(&wire, "URI=\"#Body\"", "URI=\"#Other\""),
        ),
        (
            "empty reference URI",
            edit(&wire, "URI=\"#Body\"", "URI=\"\""),
        ),
        (
            "a megabyte of Created",
            edit(
                &wire,
                &created,
                &format!("<wsu:Created>{}</wsu:Created>", "9".repeat(1 << 20)),
            ),
        ),
        (
            "Created that is no number",
            edit(
                &wire,
                &created,
                "<wsu:Created>2005-11-12T10:00:00Z</wsu:Created>",
            ),
        ),
        (
            "Created with a leading zero",
            edit(&wire, &created, "<wsu:Created>007</wsu:Created>"),
        ),
        (
            "Created past u64",
            edit(
                &wire,
                &created,
                "<wsu:Created>18446744073709551616</wsu:Created>",
            ),
        ),
        (
            "negative serial",
            edit(&wire, "<Serial>1</Serial>", "<Serial>-1</Serial>"),
        ),
        (
            "padded serial",
            edit(&wire, "<Serial>1</Serial>", "<Serial> 1 </Serial>"),
        ),
        (
            "empty serial",
            edit(&wire, "<Serial>1</Serial>", "<Serial/>"),
        ),
        // Nesting where a leaf belongs.
        (
            "deep nesting in the token",
            edit(
                &wire,
                &token,
                &format!(
                    "<wsse:BinarySecurityToken>{}</wsse:BinarySecurityToken>",
                    nest(2_000)
                ),
            ),
        ),
        (
            "deep nesting in a leaf",
            edit(&wire, "<Subject>", &format!("<Subject>{}", nest(2_000))),
        ),
    ];

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

    // Deeper than any call stack: the event reader keeps no frame per level
    // (the oracle's tree would be dropped recursively, so it sits this out).
    let abyss = edit(
        &wire,
        &token,
        &format!(
            "<wsse:BinarySecurityToken>{}</wsse:BinarySecurityToken>",
            nest(200_000)
        ),
    );
    let env = Envelope::from_wire(&abyss).unwrap();
    assert!(matches!(w.verify(&env), Err(SecurityError::Malformed(_))));

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
    for broken in [
        edit(&wire, "</ds:SignedInfo>", "</ds:SignedInf>"),
        edit(&wire, "<ds:Signature>", "<Extra><ds:Signature>"),
        edit(&wire, "<wsu:Created>", "<wsu:Created>&bogus;"),
        edit(&wire, "<ds:Signature>", "<ds:Signature><unbound:x/>"),
        // After a departure the rest of the block is skipped, not trusted.
        edit(&wire, "<wsu:Timestamp>", "<Odd/><wsu:Timestamp>")
            .replace("</ds:KeyInfo>", "</ds:KeyInf>"),
    ] {
        assert!(Envelope::from_wire(&broken).is_err(), "{broken}");
        assert!(oracle::from_wire(&broken).is_err());
    }
}

/// The comments a canonical form drops are dropped here too.
#[test]
fn comments_inside_the_block_change_nothing() {
    let w = World::new();
    let (_, wire) = signed_sample(&w);
    let commented = edit(
        &wire,
        "<ds:SignedInfo>",
        "<!-- a --><ds:SignedInfo><!-- b -->",
    );
    let digest = digest_value(&wire, 0);
    let commented = edit(
        &commented,
        digest,
        &format!("{}<!-- c -->{}", &digest[..9], &digest[9..]),
    );
    assert_eq!(w.verify_wire(&commented).unwrap(), "CN=alice,O=UVA-VO");
}
