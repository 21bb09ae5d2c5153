//! Property tests: EPRs and message headers survive XML round trips with
//! arbitrary addresses and reference properties.

use ogsa_addressing::epr::{property, RESOURCE_ID};
use ogsa_addressing::EndpointReference;
use ogsa_soap::{AddressingHeader, Envelope};
use ogsa_xml::Element;
use proptest::prelude::*;

fn arb_host() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9-]{0,12}").unwrap()
}

fn arb_id() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9 ,=/_.-]{1,40}").unwrap()
}

fn arb_epr() -> impl Strategy<Value = EndpointReference> {
    (
        arb_host(),
        proptest::string::string_regex("[a-z]{1,8}(/[a-z]{1,8}){0,2}").unwrap(),
        proptest::option::of(arb_id()),
        proptest::collection::vec(
            (
                proptest::string::string_regex("[A-Za-z]{1,10}").unwrap(),
                arb_id(),
            ),
            0..3,
        ),
    )
        .prop_map(|(host, path, rid, props)| {
            let mut epr = EndpointReference::service(format!("http://{host}/{path}"));
            if let Some(rid) = rid {
                epr = epr.with_resource_id(rid);
            }
            for (k, v) in props {
                // Avoid colliding with the ResourceID property.
                if k != "ResourceID" {
                    epr = epr.with_ref_property(Element::text_element(k.as_str(), v));
                }
            }
            epr
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn epr_xml_roundtrip(epr in arb_epr()) {
        let back = EndpointReference::from_element(&epr.to_element()).unwrap();
        prop_assert_eq!(epr, back);
    }

    #[test]
    fn epr_survives_the_wire(epr in arb_epr()) {
        // Serialise inside an envelope (as responses embed EPRs), reparse.
        let env = Envelope::new(Element::new("R").with_child(epr.to_element()));
        let back_env = Envelope::from_wire(&env.to_wire()).unwrap();
        let back = EndpointReference::from_element(
            back_env.body.child_elements().next().unwrap(),
        )
        .unwrap();
        prop_assert_eq!(epr, back);
    }

    #[test]
    fn headers_apply_extract_roundtrip(epr in arb_epr(), action in "[a-z:/]{1,30}", msg in "[a-z0-9-]{1,20}") {
        let block = AddressingHeader::request(&epr.address, &action, msg.as_str().into());
        let mut env = block.apply(Envelope::new(Element::new("B")));
        env.headers.extend(epr.reference_properties.iter().cloned());
        let wire = Envelope::from_wire(&env.to_wire()).unwrap();
        let back = AddressingHeader::extract(&wire).unwrap();
        prop_assert_eq!(property(&wire.headers, RESOURCE_ID), epr.resource_id());
        prop_assert_eq!(&*back.action, action.as_str());
        prop_assert_eq!(&*back.message_id, msg.as_str());
        prop_assert_eq!(&*back.to, epr.address.as_str());
    }

    #[test]
    fn host_path_decomposition_reassembles(host in arb_host(), path in "[a-z]{1,8}(/[a-z]{1,8}){0,2}") {
        let address = format!("https://{host}/{path}");
        let epr = EndpointReference::service(address.clone());
        prop_assert_eq!(epr.scheme(), "https");
        prop_assert_eq!(
            format!("{}://{}{}", epr.scheme(), epr.host(), epr.path()),
            address
        );
    }
}
