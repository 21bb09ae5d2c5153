//! WS-BaseNotification message formats and the subscription model.

use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_sim::SimInstant;
use ogsa_xml::{ns, Element, Node, QName, XPath, XPathContext};

use crate::topics::{TopicDialect, TopicExpression, TopicPath};

fn q(local: &str) -> QName {
    QName::new(ns::WSNT, local)
}

/// WS-Addressing actions for the WSN operations.
pub mod actions {
    pub const SUBSCRIBE: &str = "http://docs.oasis-open.org/wsn/bw/Subscribe";
    pub const NOTIFY: &str = "http://docs.oasis-open.org/wsn/bw/Notify";
    pub const PAUSE: &str = "http://docs.oasis-open.org/wsn/bw/PauseSubscription";
    pub const RESUME: &str = "http://docs.oasis-open.org/wsn/bw/ResumeSubscription";
}

/// A `Subscribe` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeRequest {
    /// Where notifications are delivered.
    pub consumer: EndpointReference,
    /// Which topics.
    pub topic: TopicExpression,
    /// Optional message-content selector (XPath over the message payload).
    pub selector: Option<String>,
    /// Requested initial lifetime.
    pub initial_termination: Option<SimInstant>,
    /// Wrapped `<Notify>` delivery (true, default) or raw messages — the
    /// interop hazard the paper flags ("the 'raw' method delivery ... is
    /// particularly problematic", §3.1).
    pub use_notify: bool,
}

impl SubscribeRequest {
    pub fn new(consumer: EndpointReference, topic: TopicExpression) -> Self {
        SubscribeRequest {
            consumer,
            topic,
            selector: None,
            initial_termination: None,
            use_notify: true,
        }
    }

    pub fn with_selector(mut self, xpath: &str) -> Self {
        self.selector = Some(xpath.to_owned());
        self
    }

    pub fn with_initial_termination(mut self, t: SimInstant) -> Self {
        self.initial_termination = Some(t);
        self
    }

    pub fn raw_delivery(mut self) -> Self {
        self.use_notify = false;
        self
    }

    pub fn to_element(&self) -> Element {
        let mut e = Element::new(q("Subscribe"));
        e.add_child(self.consumer.to_element_named(q("ConsumerReference")));
        e.add_child(
            Element::new(q("TopicExpression"))
                .with_attr("Dialect", self.topic.dialect.uri())
                .with_text(self.topic.expr.clone()),
        );
        if let Some(s) = &self.selector {
            e.add_child(Element::text_element(q("Selector"), s.clone()));
        }
        if let Some(t) = self.initial_termination {
            e.add_child(Element::text_element(
                q("InitialTerminationTime"),
                t.0.to_string(),
            ));
        }
        e.add_child(Element::text_element(
            q("UseNotify"),
            self.use_notify.to_string(),
        ));
        e
    }

    pub fn from_element(e: &Element) -> Option<Self> {
        let consumer = EndpointReference::from_element(e.child_local("ConsumerReference")?).ok()?;
        let te = e.child_local("TopicExpression")?;
        let dialect = TopicDialect::from_uri(te.attr_local("Dialect").unwrap_or(""))?;
        let topic = TopicExpression {
            dialect,
            expr: te.text().trim().to_owned(),
        };
        Some(SubscribeRequest {
            consumer,
            topic,
            selector: e.child_text("Selector").map(str::to_owned),
            initial_termination: e
                .child_parse::<u64>("InitialTerminationTime")
                .map(SimInstant),
            use_notify: e.child_parse::<bool>("UseNotify").unwrap_or(true),
        })
    }

    /// `SubscribeResponse` carrying the subscription resource EPR.
    pub fn response(subscription: &EndpointReference) -> Element {
        Element::new(q("SubscribeResponse"))
            .with_child(subscription.to_element_named(q("SubscriptionReference")))
    }

    /// Extract the subscription EPR from a `SubscribeResponse`.
    pub fn parse_response(e: &Element) -> Option<EndpointReference> {
        EndpointReference::from_element(e.child_local("SubscriptionReference")?).ok()
    }
}

/// A live subscription (the state of a subscription WS-Resource).
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    pub id: String,
    pub consumer: EndpointReference,
    pub topic: TopicExpression,
    pub selector: Option<String>,
    pub paused: bool,
    pub use_notify: bool,
}

impl Subscription {
    /// Does an emitted (topic, message) pair pass this subscription's
    /// filters? The naive matcher — it interprets the topic expression and
    /// compiles the selector on every call — kept as the oracle for the
    /// fan-out index, which is what the producer asks.
    pub fn accepts(&self, topic: &TopicPath, message: &Element) -> bool {
        if self.paused || !self.topic.matches(topic) {
            return false;
        }
        match &self.selector {
            None => true,
            Some(expr) => XPath::compile(expr)
                .and_then(|xp| xp.matches(message, &XPathContext::new()))
                .unwrap_or(false),
        }
    }

    /// Persistence form (subscriptions are WS-Resources stored in the
    /// database, like everything else in WSRF.NET).
    pub fn to_document(&self) -> Element {
        // Children are unqualified so the manager's member-level updates
        // (pause/resume via `set_member`) address them directly.
        let mut e = Element::new("SubscriptionResource");
        e.add_child(self.consumer.to_element_named("ConsumerReference".into()));
        e.add_child(
            Element::new("TopicExpression")
                .with_attr("Dialect", self.topic.dialect.uri())
                .with_text(self.topic.expr.clone()),
        );
        if let Some(s) = &self.selector {
            e.add_child(Element::text_element("Selector", s.clone()));
        }
        e.add_child(Element::text_element("Paused", self.paused.to_string()));
        e.add_child(Element::text_element(
            "UseNotify",
            self.use_notify.to_string(),
        ));
        e
    }

    pub fn from_document(id: &str, e: &Element) -> Option<Self> {
        let consumer = EndpointReference::from_element(e.child_local("ConsumerReference")?).ok()?;
        let te = e.child_local("TopicExpression")?;
        let dialect = TopicDialect::from_uri(te.attr_local("Dialect").unwrap_or(""))?;
        Some(Subscription {
            id: id.to_owned(),
            consumer,
            topic: TopicExpression {
                dialect,
                expr: te.text().trim().to_owned(),
            },
            selector: e.child_text("Selector").map(str::to_owned),
            paused: e.child_parse("Paused").unwrap_or(false),
            use_notify: e.child_parse("UseNotify").unwrap_or(true),
        })
    }
}

/// One delivered notification.
#[derive(Debug, Clone, PartialEq)]
pub struct NotificationMessage {
    pub topic: TopicPath,
    pub producer: Option<EndpointReference>,
    pub message: Element,
}

impl NotificationMessage {
    /// The bare `<wsnt:NotificationMessage>` subtree — what the coalescing
    /// deliverer queues per subscriber, so a drain can fold several of them
    /// into one `<wsnt:Notify>` envelope.
    pub fn to_element(&self) -> Element {
        let mut nm = Element::new(q("NotificationMessage"));
        nm.add_child(Element::text_element(q("Topic"), self.topic.to_string()));
        if let Some(p) = &self.producer {
            nm.add_child(p.to_element_named(q("ProducerReference")));
        }
        nm.add_child(Element::new(q("Message")).with_child(self.message.clone()));
        nm
    }

    /// The wrapped `<wsnt:Notify>` body.
    pub fn to_notify_element(&self) -> Element {
        Element::new(q("Notify")).with_child(self.to_element())
    }

    /// One `<wsnt:Notify>` envelope wrapping several already-built
    /// `<wsnt:NotificationMessage>` subtrees — WS-BaseNotification allows
    /// multiple NotificationMessage children, which is exactly what makes
    /// batch coalescing legal for this stack (and not for WS-Eventing).
    /// The members hang under it shared, not copied: one event's subtree
    /// sits in every subscriber's envelope at once.
    pub fn wrap_all<M: Into<Arc<Element>>>(messages: impl IntoIterator<Item = M>) -> Element {
        let mut notify = Element::new(q("Notify"));
        notify
            .children
            .extend(messages.into_iter().map(|m| Node::Shared(m.into())));
        notify
    }

    fn from_nm_element(nm: &Element) -> Option<Self> {
        let topic = TopicPath::parse(nm.child_text("Topic")?)?;
        let producer = nm
            .child_local("ProducerReference")
            .and_then(|p| EndpointReference::from_element(p).ok());
        let message = nm.child_local("Message")?.child_elements().next()?.clone();
        Some(NotificationMessage {
            topic,
            producer,
            message,
        })
    }

    /// Parse a wrapped `<wsnt:Notify>` body (first notification message).
    pub fn from_notify_element(e: &Element) -> Option<Self> {
        Self::from_nm_element(e.child_local("NotificationMessage")?)
    }

    /// Parse every notification message in a (possibly coalesced)
    /// `<wsnt:Notify>` envelope, in document order.
    pub fn all_from_notify_element(e: &Element) -> Vec<Self> {
        e.child_elements()
            .filter(|c| &*c.name.local == "NotificationMessage")
            .filter_map(Self::from_nm_element)
            .collect()
    }
}

/// The fan-out core indexes WSN subscriptions directly.
impl ogsa_fanout::Subscriber for Subscription {
    fn sub_id(&self) -> &str {
        &self.id
    }

    fn endpoint(&self) -> &EndpointReference {
        &self.consumer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consumer() -> EndpointReference {
        EndpointReference::service("http://client-1/consumer")
    }

    #[test]
    fn subscribe_request_roundtrip() {
        let req = SubscribeRequest::new(consumer(), TopicExpression::full("counter/*"))
            .with_selector("/CounterValueChanged[newValue > 5]")
            .with_initial_termination(SimInstant(500));
        let back = SubscribeRequest::from_element(&req.to_element()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn raw_delivery_flag_roundtrip() {
        let req = SubscribeRequest::new(consumer(), TopicExpression::simple("t")).raw_delivery();
        let back = SubscribeRequest::from_element(&req.to_element()).unwrap();
        assert!(!back.use_notify);
    }

    #[test]
    fn subscribe_response_roundtrip() {
        let sub_epr = EndpointReference::resource("http://h/subs", "sub-1");
        let resp = SubscribeRequest::response(&sub_epr);
        assert_eq!(SubscribeRequest::parse_response(&resp).unwrap(), sub_epr);
    }

    #[test]
    fn subscription_document_roundtrip() {
        let sub = Subscription {
            id: "sub-1".into(),
            consumer: consumer(),
            topic: TopicExpression::concrete("counter/valueChanged"),
            selector: Some("/v > 3".into()),
            paused: true,
            use_notify: false,
        };
        let back = Subscription::from_document("sub-1", &sub.to_document()).unwrap();
        assert_eq!(sub, back);
    }

    #[test]
    fn accepts_applies_topic_pause_and_selector() {
        let mut sub = Subscription {
            id: "s".into(),
            consumer: consumer(),
            topic: TopicExpression::simple("counter"),
            selector: Some("/Changed[newValue > 5]".into()),
            paused: false,
            use_notify: true,
        };
        let topic = TopicPath::parse("counter/valueChanged").unwrap();
        let msg_hi = Element::new("Changed").with_child(Element::text_element("newValue", "9"));
        let msg_lo = Element::new("Changed").with_child(Element::text_element("newValue", "2"));

        assert!(sub.accepts(&topic, &msg_hi));
        assert!(!sub.accepts(&topic, &msg_lo));
        assert!(!sub.accepts(&TopicPath::parse("other").unwrap(), &msg_hi));
        sub.paused = true;
        assert!(!sub.accepts(&topic, &msg_hi));
    }

    #[test]
    fn bad_selector_rejects_rather_than_panics() {
        let sub = Subscription {
            id: "s".into(),
            consumer: consumer(),
            topic: TopicExpression::simple("t"),
            selector: Some("///bad".into()),
            paused: false,
            use_notify: true,
        };
        assert!(!sub.accepts(&TopicPath::parse("t").unwrap(), &Element::new("M")));
    }

    #[test]
    fn coalesced_notify_roundtrip() {
        let mk = |v: &str| NotificationMessage {
            topic: TopicPath::parse("counter/valueChanged").unwrap(),
            producer: None,
            message: Element::text_element("NewValue", v),
        };
        let batch = vec![mk("1"), mk("2"), mk("3")];
        let envelope = NotificationMessage::wrap_all(batch.iter().map(|n| n.to_element()));
        let back = NotificationMessage::all_from_notify_element(&envelope);
        assert_eq!(back, batch);
        // The single-message parser still reads the first member.
        assert_eq!(
            NotificationMessage::from_notify_element(&envelope).unwrap(),
            batch[0]
        );
    }

    #[test]
    fn notify_wrapping_roundtrip() {
        let n = NotificationMessage {
            topic: TopicPath::parse("counter/valueChanged").unwrap(),
            producer: Some(EndpointReference::resource("http://h/counter", "c-1")),
            message: Element::text_element("NewValue", "42"),
        };
        let back = NotificationMessage::from_notify_element(&n.to_notify_element()).unwrap();
        assert_eq!(n, back);
    }
}
