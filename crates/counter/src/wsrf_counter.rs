//! The WSRF.NET counter (§4.1.1).
//!
//! "The 'resource' is simply a single variable ... The service author has
//! only had to define a single WebMethod, create, as part of this service,
//! inheriting all other WS-Resource behavior (for getting and setting the
//! counter value and for destroying a resource) from the WSRF.NET base
//! libraries."

use std::sync::{Arc, LazyLock};
use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, Container, InvokeError, Operation, OperationContext};
use ogsa_soap::Fault;
use ogsa_wsn::base::{actions as wsn_actions, SubscribeRequest};
use ogsa_wsn::consumer::Delivery;
use ogsa_wsn::manager::SubscriptionManagerService;
use ogsa_wsn::{NotificationConsumer, NotificationProducer, TopicExpression, TopicPath};
use ogsa_wsrf::properties::SetComponent;
use ogsa_wsrf::service_base::{PortType, ServiceBase, WsrfService, WsrfServiceHost};
use ogsa_wsrf::{ResourceDocument, TerminationTime, WsrfProxy};
use ogsa_xml::Element;

/// The topic raised when a counter's value changes.
pub const VALUE_CHANGED_TOPIC: &str = "counter/valueChanged";

/// [`VALUE_CHANGED_TOPIC`] as the concrete path it is.
static VALUE_CHANGED: LazyLock<Option<TopicPath>> =
    LazyLock::new(|| TopicPath::parse(VALUE_CHANGED_TOPIC));

/// The deployable WSRF counter service.
pub struct CounterService {
    producer: NotificationProducer,
}

impl WsrfService for CounterService {
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault> {
        match op.action_name() {
            // The author-defined Create: ServiceBase.Create() places a new
            // resource (cv = 0) in the backing store.
            "create" => {
                let doc =
                    Element::new("CounterResource").with_child(Element::text_element("cv", "0"));
                let res = base.create(ctx, doc)?;
                base.schedule_termination(ctx, &res.id, TerminationTime::Never);
                let epr = base.resource_epr(ctx, &res.id);
                Ok(Element::new("createResponse").with_child(epr.to_element()))
            }
            // The batch Create behind `CounterApi::create_many`: one WebMethod
            // round trip, one amortised store transaction, N new resources.
            "createBatch" => {
                let count: usize = op
                    .body
                    .child_parse("count")
                    .ok_or_else(|| Fault::client("createBatch requires a <count>"))?;
                let doc =
                    Element::new("CounterResource").with_child(Element::text_element("cv", "0"));
                let resources = base.create_batch(ctx, count, doc)?;
                let mut resp = Element::new("createBatchResponse");
                for res in resources {
                    base.schedule_termination(ctx, &res.id, TerminationTime::Never);
                    resp.add_child(base.resource_epr(ctx, &res.id).to_element());
                }
                Ok(resp)
            }
            // The producer role: Subscribe creates a subscription resource.
            "Subscribe" => {
                let req = SubscribeRequest::from_element(&op.body)
                    .ok_or_else(|| Fault::client("malformed Subscribe"))?;
                let sub_epr = self.producer.store().subscribe(ctx, &req)?;
                Ok(SubscribeRequest::response(&sub_epr))
            }
            other => Err(Fault::client(format!("no such WebMethod `{other}`"))),
        }
    }

    /// SetResourceProperties committed → raise CounterValueChanged.
    fn on_properties_changed(&self, res: &ResourceDocument, ctx: &OperationContext) {
        let Some(topic) = VALUE_CHANGED.as_ref() else {
            return;
        };
        let value = res.member_parse::<i64>("cv").unwrap_or_default();
        let message = Element::new("CounterValueChanged")
            .with_attr("counter", res.id.clone())
            .with_child(Element::text_element("newValue", value.to_string()));
        self.producer
            .notify_from(topic, message, Some(ctx.own_resource_epr(&res.id)));
    }
}

/// A deployed WSRF counter: service EPR plus the notification plumbing.
pub struct WsrfCounter {
    pub service_epr: EndpointReference,
    pub manager_epr: EndpointReference,
}

impl WsrfCounter {
    /// Deploy at `/services/CounterService` (+ subscription manager).
    pub fn deploy(container: &Container) -> WsrfCounter {
        Self::deploy_with_cache(container, true)
    }

    /// Deploy with the write-through resource cache toggled (ablation).
    pub fn deploy_with_cache(container: &Container, cache_enabled: bool) -> WsrfCounter {
        let path = "/services/CounterService";
        let (manager_epr, store) =
            SubscriptionManagerService::deploy(container, "/services/CounterService/subscriptions");
        let producer = NotificationProducer::new(store, container.service_agent());
        let service = Arc::new(CounterService { producer });
        let (service_epr, _base) =
            WsrfServiceHost::deploy(container, path, service, PortType::all(), cache_enabled);
        WsrfCounter {
            service_epr,
            manager_epr,
        }
    }

    /// A typed client bound to `agent`.
    pub fn client(&self, agent: ClientAgent) -> WsrfCounterClient {
        WsrfCounterClient {
            agent,
            service_epr: self.service_epr.clone(),
        }
    }
}

/// Typed client proxy (WSRF.NET-style: schema-aware deserialisation).
pub struct WsrfCounterClient {
    agent: ClientAgent,
    service_epr: EndpointReference,
}

struct WsnWaiter {
    consumer: NotificationConsumer,
}

impl crate::api::NotificationWaiter for WsnWaiter {
    fn wait(&self, timeout: Duration) -> Option<i64> {
        match self.consumer.recv_timeout(timeout)? {
            Delivery::Wrapped(n) => n.message.child_parse("newValue"),
            Delivery::Raw(body) => body.child_parse("newValue"),
        }
    }
}

impl crate::api::CounterApi for WsrfCounterClient {
    fn stack_name(&self) -> &'static str {
        "WSRF.NET"
    }

    fn create(&self) -> Result<EndpointReference, InvokeError> {
        let resp = self.agent.invoke(
            &self.service_epr,
            "urn:counter/create",
            Element::new("create"),
        )?;
        let epr_elem = resp
            .child_elements()
            .next()
            .ok_or_else(|| InvokeError::Fault(Fault::server("createResponse without EPR")))?;
        EndpointReference::from_element(epr_elem)
            .map_err(|e| InvokeError::Fault(Fault::server(e.to_string())))
    }

    fn create_many(&self, n: usize) -> Result<Vec<EndpointReference>, InvokeError> {
        let resp = self.agent.invoke(
            &self.service_epr,
            "urn:counter/createBatch",
            Element::new("createBatch").with_child(Element::text_element("count", n.to_string())),
        )?;
        let eprs: Result<Vec<_>, _> = resp
            .child_elements()
            .map(EndpointReference::from_element)
            .collect();
        let eprs = eprs.map_err(|e| InvokeError::Fault(Fault::server(e.to_string())))?;
        if eprs.len() != n {
            return Err(InvokeError::Fault(Fault::server(format!(
                "createBatch returned {} EPRs for a count of {n}",
                eprs.len()
            ))));
        }
        Ok(eprs)
    }

    fn get(&self, counter: &EndpointReference) -> Result<i64, InvokeError> {
        let text = WsrfProxy::new(&self.agent).get_property_text(counter, "cv")?;
        text.trim()
            .parse()
            .map_err(|_| InvokeError::Fault(Fault::server("cv is not an integer")))
    }

    fn set(&self, counter: &EndpointReference, value: i64) -> Result<(), InvokeError> {
        WsrfProxy::new(&self.agent).set_properties(
            counter,
            &[SetComponent::Update(vec![Element::text_element(
                "cv",
                value.to_string(),
            )])],
        )
    }

    fn destroy(&self, counter: &EndpointReference) -> Result<(), InvokeError> {
        WsrfProxy::new(&self.agent).destroy(counter)
    }

    fn subscribe(
        &self,
        counter: &EndpointReference,
    ) -> Result<Box<dyn crate::api::NotificationWaiter>, InvokeError> {
        let counter_id = counter.resource_id().unwrap_or_default().to_owned();
        // One consumer endpoint per subscription (unique path).
        let consumer =
            NotificationConsumer::listen(&self.agent, &format!("/consumer/{counter_id}"));
        let req = SubscribeRequest::new(
            consumer.epr().clone(),
            TopicExpression::concrete(VALUE_CHANGED_TOPIC),
        )
        .with_selector(&format!("/CounterValueChanged[@counter='{counter_id}']"));
        self.agent
            .invoke(&self.service_epr, wsn_actions::SUBSCRIBE, req.to_element())?;
        Ok(Box::new(WsnWaiter { consumer }))
    }
}
