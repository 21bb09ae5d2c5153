//! WS-Addressing message information headers.

use std::fmt::Write;
use std::sync::Arc;

use ogsa_soap::addressing::shared;
use ogsa_soap::{AddressingHeader, Envelope};
use ogsa_xml::{ns, pooled_string, Element, QName, XmlError, XmlResult};

use crate::epr::EndpointReference;

/// The anonymous reply address: "respond on the connection".
pub const ANONYMOUS: &str = "http://schemas.xmlsoap.org/ws/2004/08/addressing/role/anonymous";

/// The message-information headers stamped on every exchange: destination,
/// action URI, message id, optional reply-to/relates-to, plus the target
/// EPR's reference properties echoed as first-class headers (the 2004/08
/// binding rule WSRF.NET's "wrapper service" relies on to locate the
/// WS-Resource).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageHeaders {
    pub to: Arc<str>,
    pub action: Arc<str>,
    pub message_id: Arc<str>,
    pub reply_to: Option<EndpointReference>,
    pub relates_to: Option<Arc<str>>,
    /// Reference properties echoed from the target EPR.
    pub reference_properties: Vec<Element>,
}

impl MessageHeaders {
    /// Headers for a request to `target` with the given action URI.
    pub fn request(
        target: &EndpointReference,
        action: impl AsRef<str>,
        message_id: impl Into<Arc<str>>,
    ) -> Self {
        MessageHeaders {
            to: shared(&target.address),
            action: shared(action.as_ref()),
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

    /// Headers for the response to `request`, relating to its `MessageID`.
    pub fn response(request: &MessageHeaders, message_id: impl Into<Arc<str>>) -> Self {
        MessageHeaders {
            to: shared(request.reply_to.as_ref().map_or(ANONYMOUS, |r| &r.address)),
            action: response_action(&request.action),
            message_id: message_id.into(),
            reply_to: None,
            relates_to: Some(request.message_id.clone()),
            reference_properties: Vec::new(),
        }
    }

    /// Stamp copies of these headers onto an envelope.
    pub fn apply(&self, env: Envelope) -> Envelope {
        self.clone().stamp(env)
    }

    /// Move these headers onto an envelope: the message-information headers
    /// as its typed block, then the reference properties.
    pub fn stamp(self, env: Envelope) -> Envelope {
        let reply_to = self
            .reply_to
            .map(|r| r.to_element_named(QName::new(ns::WSA, "ReplyTo")));
        let mut env = env.with_addressing(AddressingHeader {
            to: self.to,
            action: self.action,
            message_id: self.message_id,
            reply_to,
            relates_to: self.relates_to,
        });
        env.headers.extend(self.reference_properties);
        env
    }

    /// Extract the addressing headers from an envelope: from its typed
    /// block, and from the first `wsa:` tree of each name for any the block
    /// does not hold. The leftover headers (anything not in the wsa
    /// namespace) are treated as echoed reference properties, per the
    /// 2004/08 binding.
    pub fn extract(env: &Envelope) -> XmlResult<Self> {
        let b = env.addressing.as_ref();
        let tree = |local: &str| {
            let named = |h: &&Element| h.name.in_ns(ns::WSA) && *h.name.local == *local;
            env.headers.iter().find(named)
        };
        let text = |local, held: Option<&Arc<str>>| {
            held.cloned()
                .or_else(|| Some(Arc::from(tree(local)?.text())))
        };
        let missing = |local| move || XmlError::Schema(format!("missing wsa:{local}"));
        let reply_to = b
            .and_then(|b| b.reply_to.as_ref())
            .or_else(|| tree("ReplyTo"));
        Ok(MessageHeaders {
            to: text("To", b.map(|b| &b.to)).ok_or_else(missing("To"))?,
            action: text("Action", b.map(|b| &b.action)).ok_or_else(missing("Action"))?,
            message_id: text("MessageID", b.map(|b| &b.message_id)).unwrap_or_default(),
            reply_to: reply_to.map(EndpointReference::from_element).transpose()?,
            relates_to: text("RelatesTo", b.and_then(|b| b.relates_to.as_ref())),
            reference_properties: env
                .headers
                .iter()
                .filter(|h| {
                    ![ns::WSA, ns::WSSE, ns::WSU, ns::TEL]
                        .iter()
                        .any(|u| h.name.in_ns(u))
                })
                .cloned()
                .collect(),
        })
    }

    /// The echoed `ResourceID` reference property, if any — how a service
    /// locates the WS-Resource (or WS-Transfer resource) a request targets.
    pub fn resource_id(&self) -> Option<&str> {
        crate::epr::property(&self.reference_properties, crate::epr::RESOURCE_ID)
    }
}

/// A message id, `uuid:{origin}-{seq}`, written once at its length
/// (writing into a `String` cannot fail).
pub fn message_id(origin: &str, seq: u64) -> Arc<str> {
    let mut id = pooled_string();
    let _ = write!(id, "uuid:{origin}-{seq}");
    Arc::from(id.as_str())
}

/// `{action}Response`, written into a pooled buffer and shared.
fn response_action(action: &str) -> Arc<str> {
    let mut response = pooled_string();
    let _ = write!(response, "{action}Response");
    shared(&response)
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
        assert_eq!(&*h.to, "http://host-a/services/Counter");
    }

    #[test]
    fn apply_extract_roundtrip() {
        let h = MessageHeaders {
            reply_to: Some(EndpointReference::service("http://client/notify")),
            ..MessageHeaders::request(&target(), "urn:get", "msg-1")
        };
        let env = h.apply(Envelope::new(Element::new("Get")));
        let back = MessageHeaders::extract(&env).unwrap();
        assert_eq!(back.to, h.to);
        assert_eq!(&*back.action, "urn:get");
        assert_eq!(&*back.message_id, "msg-1");
        assert_eq!(back.resource_id(), Some("c-7"));
        assert_eq!(back.reply_to.unwrap().address, "http://client/notify");
    }

    #[test]
    fn response_relates_to_request() {
        let req = MessageHeaders::request(&target(), "urn:get", "msg-9");
        let resp = MessageHeaders::response(&req, "msg-10");
        assert_eq!(resp.relates_to.as_deref(), Some("msg-9"));
        assert_eq!(&*resp.action, "urn:getResponse");
        assert_eq!(&*resp.to, ANONYMOUS);
    }

    /// A response shares its request's `MessageID` as its `RelatesTo`, and
    /// responses to one action share one `…Response` string.
    #[test]
    fn responses_share_their_strings() {
        let req = MessageHeaders::request(&target(), "urn:get", "msg-9");
        let (one, two) = (
            MessageHeaders::response(&req, "msg-10"),
            MessageHeaders::response(&req, "msg-11"),
        );
        assert!(Arc::ptr_eq(
            one.relates_to.as_ref().unwrap(),
            &req.message_id
        ));
        assert!(Arc::ptr_eq(&one.action, &two.action));
        assert_eq!(&*message_id("host-a", 42), "uuid:host-a-42");
    }

    #[test]
    fn response_targets_reply_to_when_present() {
        let req = MessageHeaders {
            reply_to: Some(EndpointReference::service("http://client/cb")),
            ..MessageHeaders::request(&target(), "urn:a", "m")
        };
        let resp = MessageHeaders::response(&req, "m2");
        assert_eq!(&*resp.to, "http://client/cb");
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
