//! WS-Addressing message information headers.

use ogsa_soap::Envelope;
use ogsa_xml::{ns, Element, QName, XmlError, XmlResult};

use crate::epr::EndpointReference;

/// The WS-Addressing header names, built once: every message reuses these
/// instead of paying two interner lookups per name.
struct Names {
    to: QName,
    action: QName,
    message_id: QName,
    reply_to: QName,
    relates_to: QName,
}

fn names() -> &'static Names {
    static NAMES: std::sync::OnceLock<Names> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| Names {
        to: QName::new(ns::WSA, "To"),
        action: QName::new(ns::WSA, "Action"),
        message_id: QName::new(ns::WSA, "MessageID"),
        reply_to: QName::new(ns::WSA, "ReplyTo"),
        relates_to: QName::new(ns::WSA, "RelatesTo"),
    })
}

/// The anonymous reply address: "respond on the connection".
pub const ANONYMOUS: &str = "http://schemas.xmlsoap.org/ws/2004/08/addressing/role/anonymous";

/// The message-information headers stamped on every exchange: destination,
/// action URI, message id, optional reply-to/relates-to, plus the target
/// EPR's reference properties echoed as first-class headers (the 2004/08
/// binding rule WSRF.NET's "wrapper service" relies on to locate the
/// WS-Resource).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageHeaders {
    pub to: String,
    pub action: String,
    pub message_id: String,
    pub reply_to: Option<EndpointReference>,
    pub relates_to: Option<String>,
    /// Reference properties echoed from the target EPR.
    pub reference_properties: Vec<Element>,
}

impl MessageHeaders {
    /// Headers for a request to `target` with the given action URI.
    pub fn request(
        target: &EndpointReference,
        action: impl Into<String>,
        message_id: impl Into<String>,
    ) -> Self {
        MessageHeaders {
            to: target.address.clone(),
            action: action.into(),
            message_id: message_id.into(),
            reply_to: None,
            relates_to: None,
            reference_properties: target
                .reference_properties
                .iter()
                .chain(target.reference_parameters.iter())
                .cloned()
                .collect(),
        }
    }

    /// Headers for the response to `request`.
    pub fn response(request: &MessageHeaders, message_id: impl Into<String>) -> Self {
        MessageHeaders {
            to: request
                .reply_to
                .as_ref()
                .map(|r| r.address.clone())
                .unwrap_or_else(|| ANONYMOUS.to_owned()),
            action: format!("{}Response", request.action),
            message_id: message_id.into(),
            reply_to: None,
            relates_to: Some(request.message_id.clone()),
            reference_properties: Vec::new(),
        }
    }

    /// Set the reply-to EPR (builder style) — used by asynchronous
    /// notification subscriptions.
    pub fn with_reply_to(mut self, epr: EndpointReference) -> Self {
        self.reply_to = Some(epr);
        self
    }

    /// Stamp these headers onto an envelope.
    pub fn apply(&self, mut env: Envelope) -> Envelope {
        let n = names();
        env.headers
            .push(Element::text_element(n.to.clone(), self.to.clone()));
        env.headers
            .push(Element::text_element(n.action.clone(), self.action.clone()));
        env.headers.push(Element::text_element(
            n.message_id.clone(),
            self.message_id.clone(),
        ));
        if let Some(r) = &self.reply_to {
            env.headers.push(r.to_element_named(n.reply_to.clone()));
        }
        if let Some(r) = &self.relates_to {
            env.headers
                .push(Element::text_element(n.relates_to.clone(), r.clone()));
        }
        for p in &self.reference_properties {
            env.headers.push(p.clone());
        }
        env
    }

    /// Extract the addressing headers from an envelope. The leftover headers
    /// (anything not in the wsa namespace) are treated as echoed reference
    /// properties, per the 2004/08 binding.
    pub fn extract(env: &Envelope) -> XmlResult<Self> {
        let n = names();
        let text = |name: &QName| env.header(name).map(|h| h.text());
        let to = text(&n.to).ok_or_else(|| XmlError::Schema("missing wsa:To".into()))?;
        let action =
            text(&n.action).ok_or_else(|| XmlError::Schema("missing wsa:Action".into()))?;
        let message_id = text(&n.message_id).unwrap_or_default();
        let reply_to = env
            .header(&n.reply_to)
            .map(EndpointReference::from_element)
            .transpose()?;
        let relates_to = text(&n.relates_to);
        let reference_properties = env
            .headers
            .iter()
            .filter(|h| {
                !h.name.in_ns(ns::WSA)
                    && !h.name.in_ns(ns::WSSE)
                    && !h.name.in_ns(ns::WSU)
                    && !h.name.in_ns(ns::TEL)
            })
            .cloned()
            .collect();
        Ok(MessageHeaders {
            to,
            action,
            message_id,
            reply_to,
            relates_to,
            reference_properties,
        })
    }

    /// The echoed `ResourceID` reference property, if any — how a service
    /// locates the WS-Resource (or WS-Transfer resource) a request targets.
    pub fn resource_id(&self) -> Option<&str> {
        self.reference_properties
            .iter()
            .find(|p| &*p.name.local == crate::epr::RESOURCE_ID)
            .map(|p| {
                p.children
                    .iter()
                    .find_map(|n| match n {
                        ogsa_xml::Node::Text(t) => Some(t.as_str()),
                        _ => None,
                    })
                    .unwrap_or("")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> EndpointReference {
        EndpointReference::resource("http://host-a/services/Counter", "c-7")
    }

    #[test]
    fn request_headers_echo_reference_properties() {
        let h = MessageHeaders::request(&target(), "urn:get", "msg-1");
        assert_eq!(h.resource_id(), Some("c-7"));
        assert_eq!(h.to, "http://host-a/services/Counter");
    }

    #[test]
    fn apply_extract_roundtrip() {
        let h = MessageHeaders::request(&target(), "urn:get", "msg-1")
            .with_reply_to(EndpointReference::service("http://client/notify"));
        let env = h.apply(Envelope::new(Element::new("Get")));
        let back = MessageHeaders::extract(&env).unwrap();
        assert_eq!(back.to, h.to);
        assert_eq!(back.action, "urn:get");
        assert_eq!(back.message_id, "msg-1");
        assert_eq!(back.resource_id(), Some("c-7"));
        assert_eq!(back.reply_to.unwrap().address, "http://client/notify");
    }

    #[test]
    fn response_relates_to_request() {
        let req = MessageHeaders::request(&target(), "urn:get", "msg-9");
        let resp = MessageHeaders::response(&req, "msg-10");
        assert_eq!(resp.relates_to.as_deref(), Some("msg-9"));
        assert_eq!(resp.action, "urn:getResponse");
        assert_eq!(resp.to, ANONYMOUS);
    }

    #[test]
    fn response_targets_reply_to_when_present() {
        let req = MessageHeaders::request(&target(), "urn:a", "m")
            .with_reply_to(EndpointReference::service("http://client/cb"));
        let resp = MessageHeaders::response(&req, "m2");
        assert_eq!(resp.to, "http://client/cb");
    }

    #[test]
    fn extract_requires_to_and_action() {
        let env = Envelope::new(Element::new("X"));
        assert!(MessageHeaders::extract(&env).is_err());
    }

    #[test]
    fn telemetry_headers_are_not_reference_properties() {
        let h = MessageHeaders::request(&target(), "urn:get", "m");
        let mut env = h.apply(Envelope::new(Element::new("Get")));
        env.headers.push(Element::text_element(
            QName::new(ns::TEL, "TraceId"),
            "00ff",
        ));
        env.headers
            .push(Element::text_element(QName::new(ns::TEL, "SpanId"), "00aa"));
        let back = MessageHeaders::extract(&env).unwrap();
        assert_eq!(back.reference_properties.len(), 1);
        assert_eq!(back.resource_id(), Some("c-7"));
    }

    #[test]
    fn security_headers_are_not_reference_properties() {
        let h = MessageHeaders::request(&target(), "urn:get", "m");
        let mut env = h.apply(Envelope::new(Element::new("Get")));
        env.headers
            .push(Element::new(QName::new(ns::WSSE, "Security")));
        let back = MessageHeaders::extract(&env).unwrap();
        assert_eq!(back.reference_properties.len(), 1);
    }
}
