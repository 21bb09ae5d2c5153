//! The client agent: the proxy-object layer the paper describes ("engaging
//! either counter service is ... via a Web service proxy object").
//!
//! One agent holds an identity, a security policy, and a network port; its
//! [`ClientAgent::invoke`] does what a WSE-generated proxy did — stamp the
//! addressing headers, sign the request if the policy says so, send, verify
//! the response signature, and surface SOAP faults as errors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::{message_id, EndpointReference, MessageHeaders};
use ogsa_security::{
    sign_envelope, verify_envelope, CertStore, Identity, SecurityError, SecurityPolicy,
};
use ogsa_sim::{CostModel, SimDuration, VirtualClock};
use ogsa_soap::{Envelope, Fault};
use ogsa_telemetry::{Span, SpanKind, Telemetry};
use ogsa_transport::{Network, Port, RetryPolicy, TransportError};
use ogsa_xml::Element;

/// Failures from a client-side invocation.
#[derive(Debug)]
pub enum InvokeError {
    /// The wire failed (no endpoint, garbage).
    Transport(TransportError),
    /// The service answered with a SOAP fault.
    Fault(Fault),
    /// Request/response signature processing failed.
    Security(SecurityError),
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::Transport(e) => write!(f, "transport: {e}"),
            InvokeError::Fault(e) => write!(f, "{e}"),
            InvokeError::Security(e) => write!(f, "security: {e}"),
        }
    }
}

impl std::error::Error for InvokeError {}

impl From<TransportError> for InvokeError {
    fn from(e: TransportError) -> Self {
        InvokeError::Transport(e)
    }
}

impl From<Fault> for InvokeError {
    fn from(e: Fault) -> Self {
        InvokeError::Fault(e)
    }
}

impl From<SecurityError> for InvokeError {
    fn from(e: SecurityError) -> Self {
        InvokeError::Security(e)
    }
}

/// One signature step under its span, `x509:sign` or `x509:verify`, its
/// canonicalisation passes counted as `sec.c14n_passes{stage="sign"}` (or
/// `"verify"`).
pub(crate) fn security_step<T>(tel: &Telemetry, name: &'static str, step: impl FnOnce() -> T) -> T {
    let stage = name.trim_start_matches("x509:");
    let _s = tel.span(SpanKind::Security, name);
    let before = ogsa_security::c14n_passes();
    let done = step();
    let passes = ogsa_security::c14n_passes() - before;
    tel.metrics()
        .add("sec.c14n_passes", &[("stage", stage)], passes);
    done
}

/// A client (or a service making outcalls): identity + policy + port.
#[derive(Clone)]
pub struct ClientAgent {
    port: Port,
    identity: Identity,
    cert_store: CertStore,
    policy: SecurityPolicy,
    clock: VirtualClock,
    model: Arc<CostModel>,
    seq: Arc<AtomicU64>,
    /// Request/response retry behaviour; `RetryPolicy::none()` by default.
    retry: RetryPolicy,
    /// Redelivery policy for one-way sends; fire-and-forget by default.
    redelivery: Option<RetryPolicy>,
}

impl ClientAgent {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        port: Port,
        identity: Identity,
        cert_store: CertStore,
        policy: SecurityPolicy,
        clock: VirtualClock,
        model: Arc<CostModel>,
    ) -> Self {
        ClientAgent {
            port,
            identity,
            cert_store,
            policy,
            clock,
            model,
            seq: Arc::new(AtomicU64::new(0)),
            retry: RetryPolicy::none(),
            redelivery: None,
        }
    }

    /// Retry failed invocations under `policy`: each attempt gets
    /// `policy.attempt_timeout` of simulated time, retryable transport
    /// failures back off (charged to the virtual clock) and try again up to
    /// `policy.max_attempts`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Redeliver lost one-way sends under `policy` (bounded attempts, then
    /// the network's dead-letter record).
    pub fn with_redelivery(mut self, policy: RetryPolicy) -> Self {
        self.redelivery = Some(policy);
        self
    }

    pub fn redelivery_policy(&self) -> Option<&RetryPolicy> {
        self.redelivery.as_ref()
    }

    /// This agent's DN.
    pub fn dn(&self) -> &str {
        self.identity.dn()
    }

    /// This agent's identity (services pass theirs to notification senders).
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    pub fn policy(&self) -> SecurityPolicy {
        self.policy
    }

    pub fn network(&self) -> &Network {
        self.port.network()
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    pub fn cert_store(&self) -> &CertStore {
        &self.cert_store
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    fn next_message_id(&self) -> Arc<str> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        message_id(&self.identity.cert.key_id, seq)
    }

    /// Invoke `action` on the service/resource behind `target` with `body`;
    /// returns the response body.
    ///
    /// Under a retry policy ([`ClientAgent::with_retry`]) each attempt is a
    /// complete fresh request — new message id, re-signed — with the
    /// policy's per-attempt timeout; retryable transport failures (timeout,
    /// drop, garbled wire) charge the backoff to the virtual clock and try
    /// again. SOAP faults and security failures never retry: the service
    /// answered, it just said no.
    pub fn invoke(
        &self,
        target: &EndpointReference,
        action: &str,
        body: Element,
    ) -> Result<Element, InvokeError> {
        let tel = self.network().telemetry().clone();
        let t0 = self.clock.now();
        let mut span = tel.span(SpanKind::Client, "client:invoke");
        span.set_attr("action", action);
        span.set_attr("to", &target.address);
        let result = self.invoke_attempts(target, action, body, &tel, &mut span);
        let outcome = match &result {
            Ok(_) => "ok",
            Err(InvokeError::Fault(_)) => "fault",
            Err(InvokeError::Transport(_)) => "transport",
            Err(InvokeError::Security(_)) => "security",
        };
        span.set_attr("outcome", outcome);
        tel.metrics()
            .inc("invoke.calls", &[("action", action), ("outcome", outcome)]);
        tel.metrics().observe(
            "invoke_ms",
            &[("action", action)],
            self.clock.now().since(t0),
        );
        result
    }

    /// The retry loop behind [`ClientAgent::invoke`], run inside its span.
    fn invoke_attempts(
        &self,
        target: &EndpointReference,
        action: &str,
        body: Element,
        tel: &Telemetry,
        span: &mut Span,
    ) -> Result<Element, InvokeError> {
        // `none()`'s sentinel "no budget" timeout means no deadline at all.
        let deadline = (self.retry.attempt_timeout != SimDuration(u64::MAX))
            .then_some(self.retry.attempt_timeout);
        let mut attempt = 1u32;
        // The body is cloned only while a retry could still need it; the
        // final (or only) attempt moves it into the envelope.
        let mut body = Some(body);
        loop {
            let attempt_body = if attempt < self.retry.max_attempts {
                body.clone()
                    .expect("request body present until final attempt")
            } else {
                body.take()
                    .expect("request body present until final attempt")
            };
            let headers = MessageHeaders::request(target, action, self.next_message_id());
            let mut env = headers.stamp(Envelope::new(attempt_body));
            // Trace context rides the wire next to the addressing headers,
            // under the signature like everything else.
            if let (Some(trace), Some(id)) = (span.trace_id(), span.id()) {
                env = ogsa_telemetry::wire::inject(env, trace, id);
            }
            if self.policy.signs_messages() {
                security_step(tel, "x509:sign", || {
                    sign_envelope(&mut env, &self.identity, &self.clock, &self.model)
                });
            }
            match self.port.call_with_deadline(&target.address, env, deadline) {
                Ok(resp) => {
                    if self.policy.signs_messages() {
                        security_step(tel, "x509:verify", || {
                            verify_envelope(&resp, &self.cert_store, &self.clock, &self.model)
                        })?;
                    }
                    if let Some(fault) = resp.fault() {
                        return Err(InvokeError::Fault(fault));
                    }
                    return Ok(resp.body);
                }
                Err(e) if e.is_retryable() && attempt < self.retry.max_attempts => {
                    let backoff = self.retry.backoff(attempt);
                    let backoff_us = backoff.as_micros().to_string();
                    span.event_with("retry:backoff", &[("backoff_us", &backoff_us)]);
                    self.clock.advance(backoff);
                    tel.metrics().inc("invoke.retries", &[("action", action)]);
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Serialise one complete request for `action` on `target` —
    /// addressing headers stamped, trace context omitted, signed under
    /// the policy — returning `(address, wire)`. The real-socket load
    /// generator signs one template and replays the bytes verbatim
    /// (nothing in the protocol is nonce-checked, so replay parses and
    /// verifies like a fresh request); the server still runs its full
    /// verify + sign pipeline per copy.
    pub fn prepare_wire(
        &self,
        target: &EndpointReference,
        action: &str,
        body: Element,
    ) -> (String, String) {
        let headers = MessageHeaders::request(target, action, self.next_message_id());
        let mut env = headers.stamp(Envelope::new(body));
        if self.policy.signs_messages() {
            sign_envelope(&mut env, &self.identity, &self.clock, &self.model);
        }
        (target.address.clone(), env.to_wire())
    }

    /// Decode a response that arrived over a real socket: parse the
    /// envelope, verify its signature under the policy, surface SOAP
    /// faults — the response half of [`ClientAgent::invoke`] for callers
    /// that did their own transport.
    pub fn decode_response(&self, wire: &str) -> Result<Element, InvokeError> {
        let env = Envelope::from_wire(wire).map_err(|e| {
            InvokeError::Transport(TransportError::WireGarbage {
                detail: e.to_string(),
            })
        })?;
        if self.policy.signs_messages() {
            verify_envelope(&env, &self.cert_store, &self.clock, &self.model)?;
        }
        if let Some(fault) = env.fault() {
            return Err(InvokeError::Fault(fault));
        }
        Ok(env.body)
    }

    /// Fire a one-way (notification) message at `to`; signed under the
    /// X.509 policy like any other message. With a redelivery policy
    /// ([`ClientAgent::with_redelivery`]) lost sends are redelivered with
    /// backoff, then dead-lettered.
    pub fn send_oneway(&self, to: &EndpointReference, action: &str, body: Element) {
        let tel = self.network().telemetry().clone();
        let mut span = tel.span(SpanKind::Client, "client:send_oneway");
        span.set_attr("action", action);
        span.set_attr("to", &to.address);
        let headers = MessageHeaders::request(to, action, self.next_message_id());
        let mut env = headers.stamp(Envelope::new(body));
        if let (Some(trace), Some(id)) = (span.trace_id(), span.id()) {
            env = ogsa_telemetry::wire::inject(env, trace, id);
        }
        if self.policy.signs_messages() {
            security_step(&tel, "x509:sign", || {
                sign_envelope(&mut env, &self.identity, &self.clock, &self.model)
            });
        }
        self.port
            .send_oneway_with_policy(&to.address, env, self.redelivery.clone());
    }

    /// Stand up a one-way consumer endpoint on this agent's host (the
    /// paper: "WSRF.NET uses a custom HTTP server that clients include,
    /// Plumbwork Orange uses a WSE SoapReceiver ... via TCP"). The `scheme`
    /// selects which. Returns the EPR subscribers should register.
    ///
    /// Under the X.509 policy the consumer verifies each incoming message's
    /// signature (charged to the clock) before the handler sees it;
    /// unverifiable messages are dropped.
    pub fn listen_oneway(
        &self,
        scheme: &str,
        path: &str,
        handler: Arc<dyn Fn(Envelope) + Send + Sync>,
    ) -> EndpointReference {
        let address = format!("{scheme}://{}{}", self.port.host(), path);
        let policy = self.policy;
        let store = self.cert_store.clone();
        let clock = self.clock.clone();
        let model = self.model.clone();
        let tel = self.network().telemetry().clone();
        self.port.network().bind_oneway(
            &address,
            Arc::new(move |env: Envelope| {
                if policy.signs_messages() {
                    let verified = {
                        let _s = tel.span(SpanKind::Security, "x509:verify");
                        verify_envelope(&env, &store, &clock, &model).is_ok()
                    };
                    if !verified {
                        return;
                    }
                }
                handler(env);
            }),
        );
        EndpointReference::service(address)
    }
}
