//! The service programming model: what user code sees.

use std::sync::Arc;

use ogsa_addressing::epr::{property, RESOURCE_ID};
use ogsa_addressing::EndpointReference;
use ogsa_security::SignerInfo;
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_soap::{AddressingHeader, Fault};
use ogsa_xml::Element;
use ogsa_xmldb::Database;

use crate::client::ClientAgent;
use crate::lifetime::LifetimeManager;

/// One dispatched operation: the WS-Addressing action, the request body, the
/// addressing block, the reference properties the request echoed, and —
/// when the security policy signs messages — the verified signer. All of it
/// is moved or shared out of the request, not copied.
#[derive(Debug, Clone)]
pub struct Operation {
    pub action: Arc<str>,
    pub body: Element,
    pub addressing: AddressingHeader,
    /// The request's headers outside the `wsa`, `wsse`, `wsu` and `tel`
    /// namespaces: the target EPR's reference properties, echoed as headers
    /// (the 2004/08 binding rule WSRF.NET's "wrapper service" relies on to
    /// locate the WS-Resource).
    pub reference_properties: Vec<Element>,
    /// The verified signer (X.509 policy only).
    pub signer: Option<SignerInfo>,
}

impl Operation {
    /// The `ResourceID` reference property echoed in the headers — how both
    /// stacks identify the resource a request targets.
    pub fn resource_id(&self) -> Option<&str> {
        property(&self.reference_properties, RESOURCE_ID)
    }

    /// The authenticated signer's DN (X.509 policy only).
    pub fn signer_dn(&self) -> Option<&str> {
        self.signer.as_ref().map(SignerInfo::dn)
    }

    /// The resource id, or a client fault naming the operation.
    pub fn require_resource_id(&self) -> Result<&str, Fault> {
        self.resource_id().ok_or_else(|| {
            Fault::client(format!(
                "operation {} requires a resource EPR (no ResourceID reference property)",
                self.action
            ))
        })
    }

    /// Last path segment of the action URI (`.../Get` → `Get`) — services
    /// dispatch on this.
    pub fn action_name(&self) -> &str {
        self.action
            .rsplit(['/', ':'])
            .next()
            .unwrap_or(&self.action)
    }
}

/// Everything a service implementation can reach: the host's storage, clock,
/// lifetime manager, and an outcall agent carrying the *service's* identity
/// (services in Grid-in-a-Box call each other — the "web service outcalls"
/// that dominate Figure 6).
#[derive(Clone)]
pub struct OperationContext {
    pub(crate) host: String,
    pub(crate) db: Database,
    pub(crate) clock: VirtualClock,
    pub(crate) model: Arc<CostModel>,
    pub(crate) lifetime: LifetimeManager,
    pub(crate) agent: ClientAgent,
    pub(crate) own_address: String,
}

impl OperationContext {
    /// The host this container runs on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Host-local storage.
    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The container's lifetime-management component.
    pub fn lifetime(&self) -> &LifetimeManager {
        &self.lifetime
    }

    /// Outcall agent with this service's identity.
    pub fn agent(&self) -> &ClientAgent {
        &self.agent
    }

    /// The address this service is deployed at.
    pub fn own_address(&self) -> &str {
        &self.own_address
    }

    /// An EPR for a resource managed by this service.
    pub fn own_resource_epr(&self, resource_id: &str) -> EndpointReference {
        EndpointReference::resource(self.own_address.clone(), resource_id)
    }
}

/// A deployed web service: receives dispatched operations, returns a
/// response body or a fault.
pub trait WebService: Send + Sync {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault>;
}

/// Blanket impl so closures can be deployed directly in tests.
impl<F> WebService for F
where
    F: Fn(&Operation, &OperationContext) -> Result<Element, Fault> + Send + Sync,
{
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        self(op, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(action: &str) -> Operation {
        Operation {
            action: action.into(),
            body: Element::new("X"),
            addressing: AddressingHeader::default(),
            reference_properties: Vec::new(),
            signer: None,
        }
    }

    #[test]
    fn action_name_takes_last_segment() {
        assert_eq!(op("http://x/y/Get").action_name(), "Get");
        assert_eq!(op("urn:wsrf:Destroy").action_name(), "Destroy");
        assert_eq!(op("Bare").action_name(), "Bare");
    }

    #[test]
    fn require_resource_id_faults_without_epr() {
        let o = op("urn:Get");
        let fault = o.require_resource_id().unwrap_err();
        assert!(fault.reason.contains("urn:Get"));
    }

    #[test]
    fn resource_id_reads_reference_properties() {
        let target = EndpointReference::resource("http://h/s", "r-1");
        let mut o = op("urn:Get");
        o.reference_properties = target.reference_properties;
        assert_eq!(o.resource_id(), Some("r-1"));
        assert_eq!(o.require_resource_id().unwrap(), "r-1");
    }
}
