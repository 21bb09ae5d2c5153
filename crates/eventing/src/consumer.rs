//! The client-side event consumer: the WSE `SoapReceiver` analogue,
//! listening on raw TCP.

use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::ClientAgent;
use ogsa_xml::Element;

/// An in-process TCP listener receiving pushed events for one client.
pub struct EventConsumer {
    epr: EndpointReference,
    rx: Receiver<Element>,
}

impl EventConsumer {
    /// Start listening on `path` over raw TCP ("Plumbwork Orange uses a WSE
    /// SoapReceiver to handle notifications via TCP", §4.1.3).
    pub fn listen(agent: &ClientAgent, path: &str) -> Self {
        let (tx, rx) = mpsc::channel();
        let epr = agent.listen_oneway(
            "tcp",
            path,
            Arc::new(move |env: ogsa_soap::Envelope| {
                let _ = tx.send(env.body);
            }),
        );
        EventConsumer { epr, rx }
    }

    /// The EPR to put in a Subscribe request's `NotifyTo`.
    pub fn epr(&self) -> &EndpointReference {
        &self.epr
    }

    /// Block (real time) for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Element> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Element> {
        self.rx.try_recv().ok()
    }

    /// Drain everything queued.
    pub fn drain(&self) -> Vec<Element> {
        let mut out = Vec::new();
        while let Some(e) = self.try_recv() {
            out.push(e);
        }
        out
    }
}
