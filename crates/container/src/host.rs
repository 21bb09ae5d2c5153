//! The container itself: deploy services, run the dispatch + security
//! pipeline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::{message_id, EndpointReference, MessageHeaders};
use ogsa_security::{sign_envelope, verify_envelope, CertStore, Identity, SecurityPolicy};
use ogsa_sim::{CostModel, SimDuration, VirtualClock};
use ogsa_soap::{Envelope, Fault};
use ogsa_telemetry::{SpanKind, Telemetry};
use ogsa_transport::{Network, RetryPolicy};
use ogsa_xmldb::Database;
use parking_lot::RwLock;

use crate::client::security_step;
use crate::lifetime::LifetimeManager;
use crate::service::{Operation, OperationContext, WebService};
use crate::ClientAgent;

struct ContainerInner {
    host: String,
    policy: SecurityPolicy,
    network: Network,
    db: Database,
    clock: VirtualClock,
    model: Arc<CostModel>,
    identity: Identity,
    cert_store: CertStore,
    lifetime: LifetimeManager,
    services: RwLock<HashMap<String, Arc<dyn WebService>>>,
    msg_seq: AtomicU64,
    /// Redelivery policy handed to every service agent's one-way sends —
    /// how this container's notification producers survive a lossy wire.
    redelivery: RwLock<Option<RetryPolicy>>,
    /// Retry policy for service agents' request/response outcalls —
    /// how this container's server-to-server invokes survive a lossy wire.
    call_retry: RwLock<Option<RetryPolicy>>,
}

/// One application-hosting environment on one host (ASP.NET + our
/// extensions, in the paper's terms). Deploy services into it with
/// [`Container::deploy`].
#[derive(Clone)]
pub struct Container {
    inner: Arc<ContainerInner>,
}

impl Container {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        host: String,
        policy: SecurityPolicy,
        network: Network,
        db: Database,
        clock: VirtualClock,
        model: Arc<CostModel>,
        identity: Identity,
        cert_store: CertStore,
    ) -> Self {
        Container {
            inner: Arc::new(ContainerInner {
                host,
                policy,
                network,
                db,
                clock,
                model,
                identity,
                cert_store,
                lifetime: LifetimeManager::new(),
                services: RwLock::new(HashMap::new()),
                msg_seq: AtomicU64::new(0),
                redelivery: RwLock::new(None),
                call_retry: RwLock::new(None),
            }),
        }
    }

    /// The host this container runs on.
    pub fn host(&self) -> &str {
        &self.inner.host
    }

    pub fn policy(&self) -> SecurityPolicy {
        self.inner.policy
    }

    pub fn db(&self) -> &Database {
        &self.inner.db
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    pub fn model(&self) -> &CostModel {
        &self.inner.model
    }

    pub fn lifetime(&self) -> &LifetimeManager {
        &self.inner.lifetime
    }

    pub fn network(&self) -> &Network {
        &self.inner.network
    }

    /// The tracing/metrics handle this container records into (the
    /// network's).
    pub fn telemetry(&self) -> &Telemetry {
        self.inner.network.telemetry()
    }

    /// The scheme requests to this container use, derived from policy.
    pub fn scheme(&self) -> &'static str {
        if self.inner.policy.uses_tls() {
            "https"
        } else {
            "http"
        }
    }

    /// Address of a service deployed at `path`.
    pub fn address_of(&self, path: &str) -> String {
        format!("{}://{}{}", self.scheme(), self.inner.host, path)
    }

    /// Give (or take away, with `None`) a redelivery policy for one-way
    /// sends made by this container's services — notification pushes in
    /// both the WS-Eventing and WSN stacks go through service agents, so
    /// this is the one knob that makes a container's notifications survive
    /// a lossy wire. Affects agents created after the call.
    pub fn set_redelivery(&self, policy: Option<RetryPolicy>) {
        *self.inner.redelivery.write() = policy;
    }

    /// The redelivery policy service agents currently inherit.
    pub fn redelivery(&self) -> Option<RetryPolicy> {
        self.inner.redelivery.read().clone()
    }

    /// Give (or take away, with `None`) a retry policy for request/response
    /// invokes made by this container's services — VO services call site
    /// services on the user's behalf, and without a budget a single lost
    /// server-to-server message surfaces as a fault the end client cannot
    /// retry safely. Affects agents created after the call.
    pub fn set_call_retry(&self, policy: Option<RetryPolicy>) {
        *self.inner.call_retry.write() = policy;
    }

    /// The invoke retry policy service agents currently inherit.
    pub fn call_retry(&self) -> Option<RetryPolicy> {
        self.inner.call_retry.read().clone()
    }

    /// An outcall agent carrying this container's (service) identity.
    pub fn service_agent(&self) -> ClientAgent {
        let agent = ClientAgent::new(
            self.inner.network.port(&self.inner.host),
            self.inner.identity.clone(),
            self.inner.cert_store.clone(),
            self.inner.policy,
            self.inner.clock.clone(),
            self.inner.model.clone(),
        );
        let agent = match self.inner.redelivery.read().clone() {
            Some(policy) => agent.with_redelivery(policy),
            None => agent,
        };
        match self.inner.call_retry.read().clone() {
            Some(policy) => agent.with_retry(policy),
            None => agent,
        }
    }

    /// The operation context services deployed here receive.
    pub fn context_for(&self, path: &str) -> OperationContext {
        OperationContext {
            host: self.inner.host.clone(),
            db: self.inner.db.clone(),
            clock: self.inner.clock.clone(),
            model: self.inner.model.clone(),
            lifetime: self.inner.lifetime.clone(),
            agent: self.service_agent(),
            own_address: self.address_of(path),
        }
    }

    /// Deploy `service` at `path` (e.g. `/services/CounterService`); returns
    /// the service EPR.
    pub fn deploy(&self, path: &str, service: Arc<dyn WebService>) -> EndpointReference {
        let address = self.address_of(path);
        self.inner
            .services
            .write()
            .insert(path.to_owned(), service.clone());

        let this = self.clone();
        let ctx = self.context_for(path);
        let handler: ogsa_transport::net::Handler =
            Arc::new(move |req: Envelope| this.pipeline(&ctx, &service, req));
        self.inner.network.bind(&address, handler);
        EndpointReference::service(address)
    }

    /// Remove a deployed service.
    pub fn undeploy(&self, path: &str) {
        let address = self.address_of(path);
        self.inner.network.unbind(&address);
        self.inner.services.write().remove(path);
    }

    /// The full request pipeline of Figure 1. One `server` span per request:
    /// dispatch, security handler, service code, and the response pass each
    /// nest under it. Parentage comes from the thread's open context when
    /// the call arrived inline, else from the `tel:` trace headers the
    /// client stamped on the wire.
    fn pipeline(
        &self,
        ctx: &OperationContext,
        service: &Arc<dyn WebService>,
        req: Envelope,
    ) -> Envelope {
        let inner = &self.inner;
        let tel = self.telemetry().clone();
        let mut span = match tel.current() {
            Some(_) => tel.span(SpanKind::Server, "container:pipeline"),
            None => match ogsa_telemetry::wire::extract(&req) {
                Some((trace, parent)) => {
                    tel.child_span(SpanKind::Server, "container:pipeline", trace, Some(parent))
                }
                None => tel.span(SpanKind::Server, "container:pipeline"),
            },
        };
        span.set_attr("host", &inner.host);

        // Dispatch cost + lifetime sweep (scheduled terminations fire as
        // requests arrive — the container's background activity).
        {
            let _d = tel.span(SpanKind::Dispatch, "container:dispatch");
            inner
                .clock
                .advance(SimDuration::from_micros(inner.model.dispatch_us));
            inner.lifetime.sweep_now(&inner.clock);
        }

        let result = self.run_service(ctx, service, req, &tel);

        // Build the response, passing back through the security handler.
        let (body, request_headers) = match result {
            Ok((body, headers)) => (body, Some(headers)),
            Err(fault) => {
                span.event("soap_fault");
                (fault.to_element(), None)
            }
        };
        let msg_id = message_id(&inner.host, inner.msg_seq.fetch_add(1, Ordering::Relaxed));
        let mut resp = match &request_headers {
            Some(h) => MessageHeaders::response(h, msg_id).stamp(Envelope::new(body)),
            None => Envelope::new(body),
        };
        if inner.policy.signs_messages() {
            security_step(&tel, "x509:sign", || {
                sign_envelope(&mut resp, &inner.identity, &inner.clock, &inner.model)
            });
        }
        resp
    }

    fn run_service(
        &self,
        ctx: &OperationContext,
        service: &Arc<dyn WebService>,
        req: Envelope,
        tel: &Telemetry,
    ) -> Result<(ogsa_xml::Element, MessageHeaders), Fault> {
        let inner = &self.inner;

        let headers = MessageHeaders::extract(&req)
            .map_err(|e| Fault::client(format!("bad addressing headers: {e}")))?;

        // Security/policy handler: authenticate the client.
        let signer_dn = if inner.policy.signs_messages() {
            let verified = security_step(tel, "x509:verify", || {
                verify_envelope(&req, &inner.cert_store, &inner.clock, &inner.model)
            });
            let signer =
                verified.map_err(|e| Fault::client(format!("security check failed: {e}")))?;
            Some(signer.dn().to_owned())
        } else {
            None
        };

        // The request is consumed here: its body moves into the Operation
        // instead of being deep-cloned alongside a second copy of the
        // headers.
        let op = Operation {
            action: headers.action.clone(),
            body: req.body,
            headers,
            signer_dn,
        };
        let body = {
            let mut s = tel.span(SpanKind::Service, "service:handle");
            s.set_attr("action", &op.action);
            service.handle(&op, ctx)?
        };
        Ok((body, op.headers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::InvokeError;
    use crate::testbed::Testbed;
    use ogsa_xml::Element;

    fn echo_service() -> Arc<dyn WebService> {
        Arc::new(
            |op: &Operation, _ctx: &OperationContext| -> Result<Element, Fault> {
                if op.action_name() == "Boom" {
                    return Err(Fault::server("boom requested"));
                }
                Ok(Element::new("EchoResponse")
                    .with_attr("action", op.action_name())
                    .with_text(op.body.text()))
            },
        )
    }

    #[test]
    fn deploy_and_invoke() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
        let resp = client
            .invoke(&epr, "urn:test/Ping", Element::text_element("In", "hello"))
            .unwrap();
        assert_eq!(resp.attr_local("action"), Some("Ping"));
        assert_eq!(resp.text(), "hello");
    }

    #[test]
    fn faults_surface_to_clients() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
        let err = client
            .invoke(&epr, "urn:test/Boom", Element::new("In"))
            .unwrap_err();
        match err {
            InvokeError::Fault(f) => assert_eq!(f.reason, "boom requested"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn x509_policy_authenticates_the_client() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::X509Sign);
        let seen = Arc::new(parking_lot::Mutex::new(None::<String>));
        let seen2 = seen.clone();
        let svc = Arc::new(
            move |op: &Operation, _ctx: &OperationContext| -> Result<Element, Fault> {
                *seen2.lock() = op.signer_dn.clone();
                Ok(Element::new("Ok"))
            },
        );
        let epr = c.deploy("/services/Who", svc);
        let client = tb.client("host-b", "CN=alice,O=VO", SecurityPolicy::X509Sign);
        client
            .invoke(&epr, "urn:whoami", Element::new("Q"))
            .unwrap();
        assert_eq!(seen.lock().as_deref(), Some("CN=alice,O=VO"));
    }

    #[test]
    fn unsigned_request_rejected_under_x509_policy() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::X509Sign);
        let epr = c.deploy("/services/Echo", echo_service());
        // A client that does not sign.
        let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
        let err = client
            .invoke(&epr, "urn:test/Ping", Element::new("In"))
            .unwrap_err();
        assert!(matches!(err, InvokeError::Fault(f) if f.reason.contains("security")));
    }

    #[test]
    fn https_container_uses_https_addresses() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::Https);
        let epr = c.deploy("/services/Echo", echo_service());
        assert!(epr.address.starts_with("https://host-a/"));
        let client = tb.client("host-b", "CN=alice", SecurityPolicy::Https);
        client
            .invoke(&epr, "urn:test/Ping", Element::new("In"))
            .unwrap();
    }

    #[test]
    fn undeploy_makes_endpoint_vanish() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        c.undeploy("/services/Echo");
        let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
        assert!(matches!(
            client.invoke(&epr, "urn:x", Element::new("In")),
            Err(InvokeError::Transport(_))
        ));
    }

    #[test]
    fn resource_id_flows_through_the_pipeline() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let svc = Arc::new(
            |op: &Operation, _ctx: &OperationContext| -> Result<Element, Fault> {
                Ok(Element::text_element(
                    "Rid",
                    op.resource_id().unwrap_or("-").to_owned(),
                ))
            },
        );
        let service_epr = c.deploy("/services/R", svc);
        let resource_epr = EndpointReference::resource(service_epr.address.clone(), "res-99");
        let client = tb.client("host-b", "CN=alice", SecurityPolicy::None);
        let resp = client
            .invoke(&resource_epr, "urn:get", Element::new("G"))
            .unwrap();
        assert_eq!(resp.text(), "res-99");
    }

    #[test]
    fn invoke_retries_through_drops() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        tb.network()
            .set_fault_plan(ogsa_transport::FaultPlan::seeded(13).with_drops(0.4));
        let client = tb
            .client("host-b", "CN=alice", SecurityPolicy::None)
            .with_retry(ogsa_transport::RetryPolicy::default_call(13).with_max_attempts(10));
        for _ in 0..20 {
            client
                .invoke(&epr, "urn:test/Ping", Element::new("In"))
                .expect("10 attempts ride out a 40% drop rate");
        }
        assert!(tb.network().stats().retries() > 0);
        // Every call eventually succeeded, so every dropped attempt burnt
        // its deadline (timeout) and was retried.
        assert_eq!(
            tb.network().stats().injected_drops(),
            tb.network().stats().retries()
        );
        assert_eq!(
            tb.network().stats().timeouts(),
            tb.network().stats().injected_drops()
        );
    }

    #[test]
    fn exhausted_invoke_retries_surface_a_timeout() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        tb.network()
            .set_fault_plan(ogsa_transport::FaultPlan::seeded(1).with_drops(1.0));
        let policy = ogsa_transport::RetryPolicy::default_call(1).with_max_attempts(3);
        let client = tb
            .client("host-b", "CN=alice", SecurityPolicy::None)
            .with_retry(policy.clone());
        let t0 = tb.clock().now();
        let err = client
            .invoke(&epr, "urn:test/Ping", Element::new("In"))
            .unwrap_err();
        assert!(matches!(
            err,
            InvokeError::Transport(ogsa_transport::TransportError::Timeout { .. })
        ));
        assert_eq!(tb.network().stats().retries(), 2);
        assert_eq!(tb.network().stats().timeouts(), 3);
        // Every attempt burnt its full deadline, plus two backoffs between.
        let spent = tb.clock().now().since(t0);
        let floor = policy.attempt_timeout.as_micros() * 3
            + policy.backoff(1).as_micros()
            + policy.backoff(2).as_micros();
        assert!(spent.as_micros() >= floor, "{spent:?} < {floor}");
    }

    #[test]
    fn soap_faults_never_retry() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        let client = tb
            .client("host-b", "CN=alice", SecurityPolicy::None)
            .with_retry(ogsa_transport::RetryPolicy::default_call(1).with_max_attempts(5));
        let err = client
            .invoke(&epr, "urn:test/Boom", Element::new("In"))
            .unwrap_err();
        assert!(matches!(err, InvokeError::Fault(_)));
        assert_eq!(tb.network().stats().retries(), 0);
    }

    #[test]
    fn service_agents_inherit_container_redelivery() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        assert!(c.service_agent().redelivery_policy().is_none());
        c.set_redelivery(Some(ogsa_transport::RetryPolicy::default_redelivery(7)));
        assert!(c.service_agent().redelivery_policy().is_some());
        c.set_redelivery(None);
        assert!(c.service_agent().redelivery_policy().is_none());
    }

    #[test]
    fn lifetime_sweep_runs_on_dispatch() {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let epr = c.deploy("/services/Echo", echo_service());
        let destroyed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let d2 = destroyed.clone();
        c.lifetime().register(
            "r",
            Some(tb.clock().now()),
            Arc::new(move |_| {
                d2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }),
        );
        tb.clock().advance(ogsa_sim::SimDuration::from_micros(1));
        let client = tb.client("host-b", "CN=a", SecurityPolicy::None);
        client
            .invoke(&epr, "urn:test/Ping", Element::new("In"))
            .unwrap();
        assert_eq!(destroyed.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
