//! The WS-Transfer / WS-Eventing counter (§4.1.2).
//!
//! "Create() stores this XML document without modification into Xindice ...
//! Get() retrieves the XML document and returns the document without any
//! manipulation. The client expects the schema of the return value from
//! Get() to be the same as the document given to Create(). Put() updates
//! the corresponding XML document in Xindice with newly received value.
//! Finally, Delete() remove the XML document from Xindice."

use std::sync::Arc;
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Container, InvokeError, Operation, OperationContext};
use ogsa_eventing::messages::{actions as wse_actions, SubscribeRequest};
use ogsa_eventing::{EventConsumer, EventSourceService, NotificationManager};
use ogsa_soap::Fault;
use ogsa_transfer::{TransferLogic, TransferProxy, TransferService};
use ogsa_xml::Element;
use ogsa_xmldb::Collection;

/// The counter's transfer logic: default CRUD semantics, plus a
/// WS-Eventing trigger after every Put.
pub struct CounterTransferLogic {
    notifier: NotificationManager,
}

impl TransferLogic for CounterTransferLogic {
    fn put(
        &self,
        id: &str,
        replacement: Element,
        op: &Operation,
        ctx: &OperationContext,
        store: &Arc<Collection>,
    ) -> Result<Option<Element>, Fault> {
        // The paper's unoptimised path: read the old representation, then
        // store the new one (the extra database read of §4.1.3).
        let old = store
            .get(id)
            .ok_or_else(|| Fault::client(format!("no resource `{id}`")))?;
        let _ = (&old, op, ctx);
        store.upsert(id, replacement.clone());

        let value = replacement.child_text("value").unwrap_or("0").to_owned();
        self.notifier.trigger(
            Element::new("CounterValueChanged")
                .with_attr("counter", id.to_owned())
                .with_child(Element::text_element("newValue", value)),
        );
        Ok(None)
    }
}

/// A deployed WS-Transfer counter: the factory/resource endpoint plus the
/// WS-Eventing source.
pub struct TransferCounter {
    pub factory_epr: EndpointReference,
    pub source_epr: EndpointReference,
}

impl TransferCounter {
    /// Deploy at `/services/Counter` with the event source at
    /// `/services/CounterEvents`.
    pub fn deploy(container: &Container) -> TransferCounter {
        let (source_epr, notifier) =
            EventSourceService::deploy(container, "/services/CounterEvents");
        let logic = Arc::new(CounterTransferLogic { notifier });
        let (factory_epr, _store) = TransferService::deploy(container, "/services/Counter", logic);
        TransferCounter {
            factory_epr,
            source_epr,
        }
    }

    /// A raw-XML client bound to `agent`.
    pub fn client(&self, agent: ClientAgent) -> TransferCounterClient {
        TransferCounterClient {
            agent,
            factory_epr: self.factory_epr.clone(),
            source_epr: self.source_epr.clone(),
        }
    }
}

/// Client proxy: "the arguments and return values for the WS-Transfer proxy
/// methods are arrays of XML elements" — the counter schema
/// (`<counter><value>N</value></counter>`) is hard-coded here, §3.2's
/// schema-discovery problem in miniature.
pub struct TransferCounterClient {
    agent: ClientAgent,
    factory_epr: EndpointReference,
    source_epr: EndpointReference,
}

fn counter_representation(value: i64) -> Element {
    Element::new("counter").with_child(Element::text_element("value", value.to_string()))
}

struct WseWaiter {
    consumer: EventConsumer,
}

impl crate::api::NotificationWaiter for WseWaiter {
    fn wait(&self, timeout: Duration) -> Option<i64> {
        self.consumer.recv_timeout(timeout)?.child_parse("newValue")
    }
}

impl crate::api::CounterApi for TransferCounterClient {
    fn stack_name(&self) -> &'static str {
        "WS-Transfer / WS-Eventing"
    }

    fn create(&self) -> Result<EndpointReference, InvokeError> {
        let (epr, _modified) =
            TransferProxy::new(&self.agent).create(&self.factory_epr, counter_representation(0))?;
        Ok(epr)
    }

    fn get(&self, counter: &EndpointReference) -> Result<i64, InvokeError> {
        let rep = TransferProxy::new(&self.agent).get(counter)?;
        // Hard-coded schema: the client must know the shape out-of-band.
        rep.child_parse("value")
            .ok_or_else(|| InvokeError::Fault(Fault::server("representation missing <value>")))
    }

    fn set(&self, counter: &EndpointReference, value: i64) -> Result<(), InvokeError> {
        TransferProxy::new(&self.agent)
            .put(counter, counter_representation(value))
            .map(|_| ())
    }

    fn destroy(&self, counter: &EndpointReference) -> Result<(), InvokeError> {
        TransferProxy::new(&self.agent).delete(counter)
    }

    fn subscribe(
        &self,
        counter: &EndpointReference,
    ) -> Result<Box<dyn crate::api::NotificationWaiter>, InvokeError> {
        let counter_id = counter.resource_id().unwrap_or_default().to_owned();
        // TCP listener (WSE SoapReceiver analogue), one per subscription.
        let consumer = EventConsumer::listen(&self.agent, &format!("/events/{counter_id}"));
        // Per-resource subscription via a content filter (§3.2).
        let req = SubscribeRequest::new(consumer.epr().clone())
            .with_filter(&format!("/CounterValueChanged[@counter='{counter_id}']"));
        self.agent
            .invoke(&self.source_epr, wse_actions::SUBSCRIBE, req.to_element())?;
        Ok(Box::new(WseWaiter { consumer }))
    }
}
