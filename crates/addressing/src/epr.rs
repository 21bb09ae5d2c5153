//! Endpoint references.

use ogsa_xml::{ns, Element, QName, XmlError, XmlResult};

/// A WS-Addressing endpoint reference: a transport address plus the opaque
/// reference properties/parameters that, for both stacks, carry resource
/// identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EndpointReference {
    /// Transport address, e.g. `http://host-a/services/CounterService`.
    pub address: String,
    /// Reference properties (2004/08 style — echoed as SOAP headers).
    pub reference_properties: Vec<Element>,
    /// Reference parameters.
    pub reference_parameters: Vec<Element>,
}

/// The conventional name of the reference property both implementations in
/// the paper used to carry the resource key.
pub const RESOURCE_ID: &str = "ResourceID";

impl EndpointReference {
    /// An EPR with only a transport address (a plain service, no resource).
    pub fn service(address: impl Into<String>) -> Self {
        EndpointReference {
            address: address.into(),
            ..Default::default()
        }
    }

    /// An EPR addressing a resource: the address plus a `ResourceID`
    /// reference property.
    pub fn resource(address: impl Into<String>, resource_id: impl Into<String>) -> Self {
        EndpointReference::service(address).with_resource_id(resource_id)
    }

    /// Add / replace the `ResourceID` reference property.
    pub fn with_resource_id(mut self, id: impl Into<String>) -> Self {
        self.reference_properties
            .retain(|p| &*p.name.local != RESOURCE_ID);
        self.reference_properties
            .push(Element::text_element(RESOURCE_ID, id.into()));
        self
    }

    /// Add an arbitrary reference property (builder style).
    pub fn with_ref_property(mut self, prop: Element) -> Self {
        self.reference_properties.push(prop);
        self
    }

    /// The `ResourceID` reference property, if present.
    pub fn resource_id(&self) -> Option<&str> {
        self.ref_property(RESOURCE_ID)
    }

    /// Text of the first reference property with the given local name.
    pub fn ref_property(&self, local: &str) -> Option<&str> {
        property(&self.reference_properties, local)
    }

    // ---- address decomposition -----------------------------------------

    /// URI scheme (`http`, `https`, `tcp`).
    pub fn scheme(&self) -> &str {
        self.address.split("://").next().unwrap_or("")
    }

    /// Host component of the address.
    pub fn host(&self) -> &str {
        let rest = self
            .address
            .split_once("://")
            .map(|(_, r)| r)
            .unwrap_or(&self.address);
        rest.split('/').next().unwrap_or(rest)
    }

    /// Path component (with leading `/`), or `"/"`.
    pub fn path(&self) -> &str {
        let rest = self
            .address
            .split_once("://")
            .map(|(_, r)| r)
            .unwrap_or(&self.address);
        match rest.find('/') {
            Some(i) => &rest[i..],
            None => "/",
        }
    }

    // ---- XML form --------------------------------------------------------

    /// Serialise under the given element name (EPRs appear under many names:
    /// `wsa:EndpointReference`, `wsnt:ConsumerReference`, `wse:NotifyTo`...).
    pub fn to_element_named(&self, name: QName) -> Element {
        let address = Element::text_element(QName::new(ns::WSA, "Address"), self.address.clone());
        let mut e = Element::new(name).with_child(address);
        for (local, list) in [
            ("ReferenceProperties", &self.reference_properties),
            ("ReferenceParameters", &self.reference_parameters),
        ] {
            if !list.is_empty() {
                let list = list.iter().cloned();
                e.add_child(Element::new(QName::new(ns::WSA, local)).with_children(list));
            }
        }
        e
    }

    /// Serialise as `wsa:EndpointReference`.
    pub fn to_element(&self) -> Element {
        self.to_element_named(QName::new(ns::WSA, "EndpointReference"))
    }

    /// Parse an EPR from any element with the WS-Addressing shape.
    pub fn from_element(e: &Element) -> XmlResult<Self> {
        let child = |local| {
            e.child(&QName::new(ns::WSA, local))
                .or_else(|| e.child_local(local))
        };
        let list = |local| child(local).map(|p| p.child_elements().cloned().collect());
        let address = child("Address")
            .ok_or_else(|| XmlError::Schema("EPR missing wsa:Address".into()))?
            .text();
        Ok(EndpointReference {
            address,
            reference_properties: list("ReferenceProperties").unwrap_or_default(),
            reference_parameters: list("ReferenceParameters").unwrap_or_default(),
        })
    }
}

/// Text of the first of `props` with the given local name (`""` if it has
/// none).
pub(crate) fn property<'p>(props: &'p [Element], local: &str) -> Option<&'p str> {
    let p = props.iter().find(|p| &*p.name.local == local)?;
    Some(
        p.children
            .iter()
            .find_map(|n| match n {
                ogsa_xml::Node::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .unwrap_or(""),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_epr_roundtrip() {
        let epr = EndpointReference::service("http://host-a/services/Account");
        let back = EndpointReference::from_element(&epr.to_element()).unwrap();
        assert_eq!(epr, back);
        assert!(back.resource_id().is_none());
    }

    #[test]
    fn resource_epr_roundtrip() {
        let epr = EndpointReference::resource("http://host-a/services/Counter", "c-42");
        let back = EndpointReference::from_element(&epr.to_element()).unwrap();
        assert_eq!(back.resource_id(), Some("c-42"));
        assert_eq!(back, epr);
    }

    #[test]
    fn with_resource_id_replaces() {
        let epr = EndpointReference::resource("http://h/s", "a").with_resource_id("b");
        assert_eq!(epr.resource_id(), Some("b"));
        assert_eq!(epr.reference_properties.len(), 1);
    }

    #[test]
    fn custom_reference_properties() {
        // The WS-Transfer Grid-in-a-Box embeds a user DN in the EPR (§4.2.2).
        let epr = EndpointReference::service("http://h/data")
            .with_ref_property(Element::text_element("UserDN", "CN=alice,O=UVa"));
        assert_eq!(epr.ref_property("UserDN"), Some("CN=alice,O=UVa"));
        let back = EndpointReference::from_element(&epr.to_element()).unwrap();
        assert_eq!(back.ref_property("UserDN"), Some("CN=alice,O=UVa"));
    }

    #[test]
    fn address_decomposition() {
        let epr = EndpointReference::service("https://host-b/services/Exec");
        assert_eq!(epr.scheme(), "https");
        assert_eq!(epr.host(), "host-b");
        assert_eq!(epr.path(), "/services/Exec");
        let bare = EndpointReference::service("tcp://client-1");
        assert_eq!(bare.scheme(), "tcp");
        assert_eq!(bare.host(), "client-1");
        assert_eq!(bare.path(), "/");
    }

    #[test]
    fn missing_address_is_schema_error() {
        let e = Element::new(QName::new(ns::WSA, "EndpointReference"));
        assert!(EndpointReference::from_element(&e).is_err());
    }

    #[test]
    fn empty_resource_id_reads_as_empty_string() {
        let epr =
            EndpointReference::service("http://h/s").with_ref_property(Element::new(RESOURCE_ID));
        assert_eq!(epr.resource_id(), Some(""));
    }

    #[test]
    fn reference_parameters_roundtrip() {
        let mut epr = EndpointReference::service("http://h/s");
        epr.reference_parameters
            .push(Element::text_element("SessionKey", "xyz"));
        let back = EndpointReference::from_element(&epr.to_element()).unwrap();
        assert_eq!(back.reference_parameters.len(), 1);
    }
}
