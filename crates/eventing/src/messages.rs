//! WS-Eventing message formats.

use ogsa_addressing::EndpointReference;
use ogsa_sim::SimInstant;
use ogsa_xml::{ns, Element, QName};

fn q(local: &str) -> QName {
    QName::new(ns::WSE, local)
}

/// The spec-defined push delivery mode URI — the only mode this stack (like
/// the specification) offers; `Subscribe` faults on any other.
pub const PUSH_MODE: &str = "http://schemas.xmlsoap.org/ws/2004/08/eventing/DeliveryModes/Push";

/// Action stamped on pushed event messages (application-level; WS-Eventing
/// does not define one).
pub const EVENT_ACTION: &str = "http://virginia.edu/ogsa/eventing/Event";

/// WS-Addressing actions for the WS-Eventing operations.
pub mod actions {
    pub const SUBSCRIBE: &str = "http://schemas.xmlsoap.org/ws/2004/08/eventing/Subscribe";
    pub const RENEW: &str = "http://schemas.xmlsoap.org/ws/2004/08/eventing/Renew";
    pub const GET_STATUS: &str = "http://schemas.xmlsoap.org/ws/2004/08/eventing/GetStatus";
    pub const UNSUBSCRIBE: &str = "http://schemas.xmlsoap.org/ws/2004/08/eventing/Unsubscribe";
    pub const SUBSCRIPTION_END: &str =
        "http://schemas.xmlsoap.org/ws/2004/08/eventing/SubscriptionEnd";
}

/// A `Subscribe` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeRequest {
    /// Where event messages are pushed (`wse:NotifyTo` inside `Delivery`).
    pub notify_to: EndpointReference,
    /// Delivery mode URI; push is the only spec-defined mode.
    pub mode: String,
    /// Optional XPath filter over event bodies.
    pub filter: Option<String>,
    /// Requested absolute expiration (virtual time).
    pub expires: Option<SimInstant>,
    /// Where to send `SubscriptionEnd`, if anywhere.
    pub end_to: Option<EndpointReference>,
}

impl SubscribeRequest {
    pub fn new(notify_to: EndpointReference) -> Self {
        SubscribeRequest {
            notify_to,
            mode: PUSH_MODE.to_owned(),
            filter: None,
            expires: None,
            end_to: None,
        }
    }

    pub fn with_filter(mut self, xpath: &str) -> Self {
        self.filter = Some(xpath.to_owned());
        self
    }

    pub fn with_expires(mut self, t: SimInstant) -> Self {
        self.expires = Some(t);
        self
    }

    pub fn with_mode(mut self, mode: &str) -> Self {
        self.mode = mode.to_owned();
        self
    }

    pub fn with_end_to(mut self, epr: EndpointReference) -> Self {
        self.end_to = Some(epr);
        self
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(q("Subscribe"));
        if let Some(end) = &self.end_to {
            e.add_child(end.to_element_named(q("EndTo")));
        }
        let mut delivery = Element::new(q("Delivery")).with_attr("Mode", self.mode.clone());
        delivery.add_child(self.notify_to.to_element_named(q("NotifyTo")));
        e.add_child(delivery);
        if let Some(t) = self.expires {
            e.add_child(Element::text_element(q("Expires"), t.0.to_string()));
        }
        if let Some(f) = &self.filter {
            e.add_child(
                Element::new(q("Filter"))
                    .with_attr("Dialect", "http://www.w3.org/TR/1999/REC-xpath-19991116")
                    .with_text(f.clone()),
            );
        }
        e
    }

    pub fn from_element(e: &Element) -> Option<Self> {
        let delivery = e.child_local("Delivery")?;
        let notify_to = EndpointReference::from_element(delivery.child_local("NotifyTo")?).ok()?;
        let mode = delivery.attr_local("Mode").unwrap_or(PUSH_MODE).to_owned();
        Some(SubscribeRequest {
            notify_to,
            mode,
            filter: e.child_local("Filter").map(|f| f.text().trim().to_owned()),
            expires: e.child_parse::<u64>("Expires").map(SimInstant),
            end_to: e
                .child_local("EndTo")
                .and_then(|x| EndpointReference::from_element(x).ok()),
        })
    }

    /// `SubscribeResponse`: the subscription manager EPR (carrying the
    /// subscription identifier) and the granted expiration.
    pub fn response(manager: &EndpointReference, expires: Option<SimInstant>) -> Element {
        let mut e = Element::new(q("SubscribeResponse"))
            .with_child(manager.to_element_named(q("SubscriptionManager")));
        if let Some(t) = expires {
            e.add_child(Element::text_element(q("Expires"), t.0.to_string()));
        }
        e
    }

    /// Parse `(manager EPR, granted expiration)` from a `SubscribeResponse`.
    pub fn parse_response(e: &Element) -> Option<(EndpointReference, Option<SimInstant>)> {
        let mgr = EndpointReference::from_element(e.child_local("SubscriptionManager")?).ok()?;
        Some((mgr, e.child_parse::<u64>("Expires").map(SimInstant)))
    }
}

/// Status returned by `GetStatus` / `Renew`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionStatus {
    /// Absolute expiration; `None` = never expires.
    pub expires: Option<SimInstant>,
}

impl SubscriptionStatus {
    pub fn to_element(self, name: &str) -> Element {
        let mut e = Element::new(q(name));
        if let Some(t) = self.expires {
            e.add_child(Element::text_element(q("Expires"), t.0.to_string()));
        }
        e
    }

    pub fn from_element(e: &Element) -> Self {
        SubscriptionStatus {
            expires: e.child_parse::<u64>("Expires").map(SimInstant),
        }
    }
}

/// `Renew` request body.
pub fn renew_request(expires: SimInstant) -> Element {
    Element::new(q("Renew")).with_child(Element::text_element(q("Expires"), expires.0.to_string()))
}

/// `GetStatus` request body.
pub fn get_status_request() -> Element {
    Element::new(q("GetStatus"))
}

/// `Unsubscribe` request body.
pub fn unsubscribe_request() -> Element {
    Element::new(q("Unsubscribe"))
}

/// `SubscriptionEnd` message (sent to `EndTo` when a source drops a
/// subscription).
pub fn subscription_end(reason: &str) -> Element {
    Element::new(q("SubscriptionEnd"))
        .with_child(Element::text_element(q("Reason"), reason.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notify_to() -> EndpointReference {
        EndpointReference::service("tcp://client-1/events")
    }

    #[test]
    fn subscribe_roundtrip_full() {
        let req = SubscribeRequest::new(notify_to())
            .with_filter("/JobEnded[exit='0']")
            .with_expires(SimInstant(9000))
            .with_end_to(EndpointReference::service("http://client-1/end"));
        let back = SubscribeRequest::from_element(&req.to_element()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn subscribe_roundtrip_minimal() {
        let req = SubscribeRequest::new(notify_to());
        let back = SubscribeRequest::from_element(&req.to_element()).unwrap();
        assert_eq!(back.mode, PUSH_MODE);
        assert!(back.filter.is_none());
        assert!(back.expires.is_none());
    }

    #[test]
    fn subscribe_response_roundtrip() {
        let mgr = EndpointReference::resource("http://h/mgr", "es-1");
        let resp = SubscribeRequest::response(&mgr, Some(SimInstant(77)));
        let (back_mgr, exp) = SubscribeRequest::parse_response(&resp).unwrap();
        assert_eq!(back_mgr, mgr);
        assert_eq!(exp, Some(SimInstant(77)));
    }

    #[test]
    fn status_roundtrip() {
        let s = SubscriptionStatus {
            expires: Some(SimInstant(5)),
        };
        assert_eq!(
            SubscriptionStatus::from_element(&s.to_element("GetStatusResponse")),
            s
        );
        let never = SubscriptionStatus { expires: None };
        assert_eq!(
            SubscriptionStatus::from_element(&never.to_element("GetStatusResponse")),
            never
        );
    }
}
