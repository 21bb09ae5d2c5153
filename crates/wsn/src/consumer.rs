//! The client-side notification consumer: WSRF.NET's "custom HTTP server
//! that clients include" (§4.1.3).

use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::ClientAgent;
use ogsa_xml::Element;

use crate::base::NotificationMessage;

/// What arrived: a wrapped `<wsnt:Notify>` or a raw message (whose schema
/// the consumer must know out-of-band).
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    Wrapped(NotificationMessage),
    Raw(Element),
}

/// An in-process HTTP listener receiving notifications for one client.
pub struct NotificationConsumer {
    epr: EndpointReference,
    rx: Receiver<Delivery>,
}

impl NotificationConsumer {
    /// Start listening on `path` on the client's host over HTTP.
    pub fn listen(agent: &ClientAgent, path: &str) -> Self {
        let (tx, rx) = mpsc::channel();
        let epr = agent.listen_oneway(
            "http",
            path,
            Arc::new(move |env: ogsa_soap::Envelope| {
                // A coalesced `<Notify>` carries several NotificationMessage
                // children; expand each into its own delivery so consumers
                // are agnostic to the producer's batching plan.
                let wrapped = NotificationMessage::all_from_notify_element(&env.body);
                if wrapped.is_empty() {
                    let _ = tx.send(Delivery::Raw(env.body));
                } else {
                    for n in wrapped {
                        let _ = tx.send(Delivery::Wrapped(n));
                    }
                }
            }),
        );
        NotificationConsumer { epr, rx }
    }

    /// The EPR to put in a Subscribe request's ConsumerReference.
    pub fn epr(&self) -> &EndpointReference {
        &self.epr
    }

    /// Block (in real time) until a notification arrives or the timeout
    /// passes. Delivery is genuinely asynchronous (a worker thread), so
    /// tests and benches wait here.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Delivery> {
        self.rx.try_recv().ok()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(d) = self.try_recv() {
            out.push(d);
        }
        out
    }
}
