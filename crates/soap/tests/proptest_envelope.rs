//! Property tests: envelopes with arbitrary headers and bodies survive the
//! wire; faults round-trip through their XML form.

mod oracle;

use ogsa_soap::{Envelope, Fault, FaultCode};
use ogsa_xml::{ns, Element, QName};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_]{0,10}").unwrap()
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}").unwrap()
}

fn arb_element() -> impl Strategy<Value = Element> {
    (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
        arb_text(),
    )
        .prop_map(|(name, kids, text)| {
            let mut e = Element::new(name.as_str());
            if !text.is_empty() {
                e.add_text(text);
            }
            for (k, v) in kids {
                // Empty text nodes do not survive the wire (serialise to
                // nothing); the infoset equivalence is on non-empty text.
                let mut kid = Element::new(k.as_str());
                if !v.is_empty() {
                    kid.add_text(v);
                }
                e.add_child(kid);
            }
            e
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_wire_roundtrip(body in arb_element(), headers in proptest::collection::vec(arb_element(), 0..4)) {
        let mut env = Envelope::new(body);
        env.headers = headers;
        let back = Envelope::from_wire(&env.to_wire()).unwrap();
        prop_assert_eq!(env, back);
    }

    #[test]
    fn fault_roundtrip(reason in arb_text(), code in 0usize..4, detail in proptest::option::of(arb_element())) {
        let code = [FaultCode::Client, FaultCode::Server, FaultCode::MustUnderstand, FaultCode::VersionMismatch][code];
        let mut f = Fault::new(code, reason);
        f.detail = detail;
        let back = Fault::from_element(&f.to_element()).unwrap();
        prop_assert_eq!(f, back);
    }

    #[test]
    fn fast_wire_path_is_byte_identical_to_tree_serialisation(body in arb_element(), headers in proptest::collection::vec(arb_element(), 0..4)) {
        let mut env = Envelope::new(body);
        env.headers = headers;
        let legacy = oracle::to_wire(&env);
        prop_assert_eq!(env.to_wire(), legacy.clone());
        prop_assert_eq!(env.wire_size(), legacy.len());
        prop_assert_eq!(Envelope::from_wire(&legacy), oracle::from_wire(&legacy));
    }

    #[test]
    fn wire_size_monotone_in_payload(text in "[a-z]{0,400}") {
        let small = Envelope::new(Element::text_element("B", ""));
        let sized = Envelope::new(Element::text_element("B", text.clone()));
        prop_assert!(sized.wire_size() >= small.wire_size());
        prop_assert!(sized.wire_size() >= text.len());
    }
}

#[test]
fn fast_wire_path_matches_the_tree_on_namespaced_shapes() {
    let cases = [
        Envelope::new(Element::new("X")),
        Envelope::new(Element::text_element("Ping", "hello"))
            .with_header(Element::new(QName::new(ns::WSA, "Action")).with_text("urn:ping")),
        Envelope::new(
            Element::new(QName::new(ns::COUNTER, "createCounter"))
                .with_attr("note", "a<b & \"c\"")
                .with_child(Element::text_element("seed", "42")),
        )
        .with_header(Element::new(QName::new(ns::WSU, "Timestamp")).with_text("12:00")),
        Envelope::new(
            Element::new(QName::new("urn:one", "a"))
                .with_child(Element::new(QName::new("urn:two", "b"))),
        ),
    ];
    for env in cases {
        let legacy = oracle::to_wire(&env);
        assert_eq!(env.to_wire(), legacy);
        assert_eq!(env.wire_size(), legacy.len());
        assert_eq!(Envelope::from_wire(&legacy), oracle::from_wire(&legacy));
    }
}
