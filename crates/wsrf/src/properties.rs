//! WS-ResourceProperties: the document view, the four operations, and their
//! message formats.
//!
//! The same functions serve both sides of the wire: clients build request
//! bodies with the `*_request` constructors; the `ServiceBase` dispatcher
//! (see [`crate::service_base`]) parses them and applies the operation to
//! the resource-properties document.

use ogsa_xml::{ns, Element, QName, XPath, XPathContext};

use crate::faults::BaseFault;
use ogsa_sim::SimInstant;

/// The XPath 1.0 dialect URI for `QueryResourceProperties`.
pub const XPATH_DIALECT: &str = "http://www.w3.org/TR/1999/REC-xpath-19991116";

fn q(local: &str) -> QName {
    QName::new(ns::WSRF_RP, local)
}

// ------------------------------------------------------------ requests ----

/// `wsrp:GetResourceProperty` request body.
pub fn get_property_request(property: &str) -> Element {
    Element::text_element(q("GetResourceProperty"), property)
}

/// `wsrp:GetMultipleResourceProperties` request body.
pub fn get_multiple_request(properties: &[&str]) -> Element {
    let mut e = Element::new(q("GetMultipleResourceProperties"));
    for p in properties {
        e.add_child(Element::text_element(q("ResourceProperty"), *p));
    }
    e
}

/// One component of a `SetResourceProperties` request.
#[derive(Debug, Clone, PartialEq)]
pub enum SetComponent {
    /// Add new property elements.
    Insert(Vec<Element>),
    /// Replace all properties sharing each element's name.
    Update(Vec<Element>),
    /// Remove all properties with this local name.
    Delete(String),
}

/// `wsrp:SetResourceProperties` request body.
pub fn set_properties_request(components: &[SetComponent]) -> Element {
    let mut e = Element::new(q("SetResourceProperties"));
    for c in components {
        match c {
            SetComponent::Insert(elems) => {
                e.add_child(Element::new(q("Insert")).with_children(elems.iter().cloned()));
            }
            SetComponent::Update(elems) => {
                e.add_child(Element::new(q("Update")).with_children(elems.iter().cloned()));
            }
            SetComponent::Delete(name) => {
                e.add_child(Element::new(q("Delete")).with_attr("resourceProperty", name.clone()));
            }
        }
    }
    e
}

/// `wsrp:QueryResourceProperties` request body (XPath dialect).
pub fn query_request(expression: &str) -> Element {
    Element::new(q("QueryResourceProperties")).with_child(
        Element::new(q("QueryExpression"))
            .with_attr("Dialect", XPATH_DIALECT)
            .with_text(expression),
    )
}

/// Parse the components back out of a `SetResourceProperties` body.
pub fn parse_set_request(body: &Element) -> Vec<SetComponent> {
    let mut out = Vec::new();
    for child in body.child_elements() {
        match &*child.name.local {
            "Insert" => out.push(SetComponent::Insert(
                child.child_elements().cloned().collect(),
            )),
            "Update" => out.push(SetComponent::Update(
                child.child_elements().cloned().collect(),
            )),
            "Delete" => {
                if let Some(name) = child.attr_local("resourceProperty") {
                    out.push(SetComponent::Delete(name.to_owned()));
                }
            }
            _ => {}
        }
    }
    out
}

// ----------------------------------------------------------- operations ----

/// Apply `GetResourceProperty`: all child elements of the RP document whose
/// local name matches. Empty + unknown name → `InvalidResourcePropertyQNameFault`.
#[allow(clippy::result_large_err)]
pub fn get_property<'a>(
    rp_doc: &'a Element,
    property: &str,
    now: SimInstant,
) -> Result<Vec<&'a Element>, BaseFault> {
    let hits: Vec<&Element> = rp_doc
        .child_elements()
        .filter(|e| &*e.name.local == property)
        .collect();
    if hits.is_empty() {
        return Err(BaseFault::invalid_property(now, property));
    }
    Ok(hits)
}

/// Apply a `SetResourceProperties` request to the resource document.
pub fn apply_set(doc: &mut Element, components: &[SetComponent]) {
    for c in components {
        match c {
            SetComponent::Insert(elems) => {
                for e in elems {
                    doc.add_child(e.clone());
                }
            }
            SetComponent::Update(elems) => {
                for e in elems {
                    // Replace every existing element with the same local
                    // name, preserving Update semantics for multi-valued
                    // properties.
                    let name = e.name.clone();
                    doc.children
                        .retain(|n| n.as_element().is_none_or(|el| el.name.local != name.local));
                    doc.add_child(e.clone());
                }
            }
            SetComponent::Delete(name) => {
                doc.children.retain(|n| {
                    n.as_element()
                        .is_none_or(|el| &*el.name.local != name.as_str())
                });
            }
        }
    }
}

/// Apply `QueryResourceProperties`: evaluate the XPath against the RP doc.
#[allow(clippy::result_large_err)]
pub fn query(
    rp_doc: &Element,
    expression: &str,
    now: SimInstant,
) -> Result<Vec<Element>, BaseFault> {
    let xp = XPath::compile(expression)
        .map_err(|e| BaseFault::new(now, format!("invalid query expression: {e}")))?;
    match xp.evaluate(rp_doc, &XPathContext::new()) {
        Ok(ogsa_xml::XPathValue::Nodes(nodes)) => Ok(nodes.into_iter().cloned().collect()),
        Ok(ogsa_xml::XPathValue::Strings(strings)) => Ok(strings
            .into_iter()
            .map(|s| Element::text_element(q("QueryResult"), s))
            .collect()),
        Ok(other) => Ok(vec![Element::text_element(
            q("QueryResult"),
            other.string_value(),
        )]),
        Err(e) => Err(BaseFault::new(now, format!("query failed: {e}"))),
    }
}

/// Extract the dialect + expression from a `QueryResourceProperties` body.
pub fn parse_query_request(body: &Element) -> Option<(String, String)> {
    let qe = body.child_local("QueryExpression")?;
    Some((
        qe.attr_local("Dialect").unwrap_or_default().to_owned(),
        qe.text(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp_doc() -> Element {
        Element::new("CounterProperties")
            .with_child(Element::text_element("cv", "5"))
            .with_child(Element::text_element("owner", "alice"))
            .with_child(Element::text_element("tag", "a"))
            .with_child(Element::text_element("tag", "b"))
    }

    #[test]
    fn get_property_returns_all_matches() {
        let doc = rp_doc();
        let hits = get_property(&doc, "tag", SimInstant(0)).unwrap();
        assert_eq!(hits.len(), 2);
        let hits = get_property(&doc, "cv", SimInstant(0)).unwrap();
        assert_eq!(hits[0].text(), "5");
    }

    #[test]
    fn get_unknown_property_faults() {
        let doc = rp_doc();
        let fault = get_property(&doc, "ghost", SimInstant(0)).unwrap_err();
        assert!(fault.is(ns::WSRF_RP, "InvalidResourcePropertyQNameFault"));
    }

    #[test]
    fn set_update_replaces_all_same_named() {
        let mut doc = rp_doc();
        apply_set(
            &mut doc,
            &[SetComponent::Update(vec![Element::text_element(
                "tag", "z",
            )])],
        );
        let tags: Vec<_> = doc
            .child_elements()
            .filter(|e| &*e.name.local == "tag")
            .map(|e| e.text())
            .collect();
        assert_eq!(tags, ["z"]);
    }

    #[test]
    fn set_insert_appends() {
        let mut doc = rp_doc();
        apply_set(
            &mut doc,
            &[SetComponent::Insert(vec![Element::text_element(
                "tag", "c",
            )])],
        );
        assert_eq!(
            doc.child_elements()
                .filter(|e| &*e.name.local == "tag")
                .count(),
            3
        );
    }

    #[test]
    fn set_delete_removes_all() {
        let mut doc = rp_doc();
        apply_set(&mut doc, &[SetComponent::Delete("tag".into())]);
        assert_eq!(
            doc.child_elements()
                .filter(|e| &*e.name.local == "tag")
                .count(),
            0
        );
        assert!(doc.child_text("cv").is_some());
    }

    #[test]
    fn set_request_roundtrip() {
        let components = vec![
            SetComponent::Insert(vec![Element::text_element("x", "1")]),
            SetComponent::Update(vec![Element::text_element("cv", "9")]),
            SetComponent::Delete("owner".into()),
        ];
        let body = set_properties_request(&components);
        assert_eq!(parse_set_request(&body), components);
    }

    #[test]
    fn query_selects_nodes() {
        let doc = rp_doc();
        let out = query(&doc, "/CounterProperties/tag", SimInstant(0)).unwrap();
        assert_eq!(out.len(), 2);
        let out = query(&doc, "count(/CounterProperties/tag)", SimInstant(0)).unwrap();
        assert_eq!(out[0].text(), "2");
    }

    #[test]
    fn bad_query_faults() {
        let doc = rp_doc();
        assert!(query(&doc, "///", SimInstant(0)).is_err());
    }

    #[test]
    fn query_request_roundtrip() {
        let body = query_request("/a/b");
        let (dialect, expr) = parse_query_request(&body).unwrap();
        assert_eq!(dialect, XPATH_DIALECT);
        assert_eq!(expr, "/a/b");
    }

    #[test]
    fn get_multiple_request_shape() {
        let body = get_multiple_request(&["cv", "owner"]);
        let names: Vec<_> = body.child_elements().map(|e| e.text()).collect();
        assert_eq!(names, ["cv", "owner"]);
    }
}
