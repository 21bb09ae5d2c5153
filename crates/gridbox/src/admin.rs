//! The administrative client (§4.2.2 names "two clients (grid user and
//! admin client)"): typed wrappers for VO administration on both stacks —
//! account management and computing-site registration.

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, InvokeError};
use ogsa_transfer::TransferProxy;
use ogsa_xml::Element;

use crate::transfer_gib::TransferGrid;
use crate::vo::wrap_epr;
use crate::wsrf_gib::WsrfGrid;

/// Admin operations against the WSRF VO (plain WebMethods on the Account
/// and ResourceAllocation services — not CRUD, per §4.2.1).
pub struct WsrfAdminClient {
    account_epr: EndpointReference,
    allocation_epr: EndpointReference,
    pub(crate) agent: ClientAgent,
}

impl WsrfAdminClient {
    pub fn new(grid: &WsrfGrid, agent: ClientAgent) -> Self {
        Self::over(&grid.account_epr, &grid.allocation_epr, agent)
    }

    /// The client of a VO whose grid is still being deployed.
    pub(crate) fn over(
        account_epr: &EndpointReference,
        allocation_epr: &EndpointReference,
        agent: ClientAgent,
    ) -> Self {
        WsrfAdminClient {
            account_epr: account_epr.clone(),
            allocation_epr: allocation_epr.clone(),
            agent,
        }
    }

    /// `addAccount(dn, privileges)`.
    pub fn add_account(&self, dn: &str, privileges: &[&str]) -> Result<(), InvokeError> {
        let mut body = Element::new("addAccount").with_child(Element::text_element("dn", dn));
        for p in privileges {
            body.add_child(Element::text_element("privilege", *p));
        }
        self.agent
            .invoke(&self.account_epr, "urn:gib/addAccount", body)?;
        Ok(())
    }

    /// `accountExists(dn)`.
    pub fn account_exists(&self, dn: &str) -> Result<bool, InvokeError> {
        let resp = self.agent.invoke(
            &self.account_epr,
            "urn:gib/accountExists",
            Element::new("accountExists").with_child(Element::text_element("dn", dn)),
        )?;
        Ok(resp.text() == "true")
    }

    /// `removeAccount(dn)`.
    pub fn remove_account(&self, dn: &str) -> Result<(), InvokeError> {
        self.agent.invoke(
            &self.account_epr,
            "urn:gib/removeAccount",
            Element::new("removeAccount").with_child(Element::text_element("dn", dn)),
        )?;
        Ok(())
    }

    /// Register an additional computing site with the allocation service.
    pub fn register_site(
        &self,
        name: &str,
        host: &str,
        applications: &[&str],
        exec: &EndpointReference,
        data: &EndpointReference,
    ) -> Result<(), InvokeError> {
        let mut body = Element::new("registerSite")
            .with_child(Element::text_element("name", name))
            .with_child(Element::text_element("host", host));
        for app in applications {
            body.add_child(Element::text_element("application", *app));
        }
        body.add_child(wrap_epr("execEPR", exec));
        body.add_child(wrap_epr("dataEPR", data));
        self.agent
            .invoke(&self.allocation_epr, "urn:gib/registerSite", body)?;
        Ok(())
    }
}

/// Admin operations against the WS-Transfer VO — everything maps to CRUD:
/// accounts and sites are Created and Deleted like any other resource
/// (§4.2.2: "Create() and Delete() are administrative functions and can be
/// called only from the administrative client").
pub struct TransferAdminClient {
    account_epr: EndpointReference,
    allocation_epr: EndpointReference,
    pub(crate) agent: ClientAgent,
}

impl TransferAdminClient {
    pub fn new(grid: &TransferGrid, agent: ClientAgent) -> Self {
        Self::over(&grid.account_epr, &grid.allocation_epr, agent)
    }

    /// The client of a VO whose grid is still being deployed.
    pub(crate) fn over(
        account_epr: &EndpointReference,
        allocation_epr: &EndpointReference,
        agent: ClientAgent,
    ) -> Self {
        TransferAdminClient {
            account_epr: account_epr.clone(),
            allocation_epr: allocation_epr.clone(),
            agent,
        }
    }

    /// Create an account resource (id = the user's DN).
    pub fn add_account(
        &self,
        dn: &str,
        privileges: &[&str],
    ) -> Result<EndpointReference, InvokeError> {
        let mut rep = Element::new("account").with_child(Element::text_element("dn", dn));
        for p in privileges {
            rep.add_child(Element::text_element("privilege", *p));
        }
        rep.add_child(Element::text_element("owner", self.agent.dn()));
        let (epr, _) = TransferProxy::new(&self.agent).create(&self.account_epr, rep)?;
        Ok(epr)
    }

    /// Does an account exist (Get on the DN-keyed EPR)?
    pub fn account_exists(&self, dn: &str) -> bool {
        let epr = EndpointReference::resource(self.account_epr.address.clone(), dn);
        TransferProxy::new(&self.agent).get(&epr).is_ok()
    }

    /// Privileges of an account — the Get mode that "queries the account
    /// service whether a particular user can perform a certain action".
    pub fn privileges(&self, dn: &str) -> Result<Vec<String>, InvokeError> {
        let epr = EndpointReference::resource(self.account_epr.address.clone(), dn);
        let rep = TransferProxy::new(&self.agent).get(&epr)?;
        Ok(rep
            .child_elements()
            .filter(|e| &*e.name.local == "privilege")
            .map(|e| e.text())
            .collect())
    }

    /// Delete — "removes all the privileges of a particular user". The
    /// Delete body is empty, so in unsigned deployments the requester rides
    /// on the EPR as a reference property (signed deployments authenticate
    /// the signature instead).
    pub fn remove_account(&self, dn: &str) -> Result<(), InvokeError> {
        let epr = EndpointReference::resource(self.account_epr.address.clone(), dn)
            .with_ref_property(Element::text_element("RequesterDN", self.agent.dn()));
        TransferProxy::new(&self.agent).delete(&epr)
    }

    /// Register a computing site (Create on the unified allocation service).
    pub fn register_site(
        &self,
        name: &str,
        host: &str,
        applications: &[&str],
        exec_address: &str,
        data_address: &str,
    ) -> Result<EndpointReference, InvokeError> {
        let mut rep = Element::new("site")
            .with_attr("name", name)
            .with_child(Element::text_element("host", host))
            .with_child(Element::text_element("execAddress", exec_address))
            .with_child(Element::text_element("dataAddress", data_address))
            .with_child(Element::text_element("owner", self.agent.dn()));
        for app in applications {
            rep.add_child(Element::text_element("application", *app));
        }
        let (epr, _) = TransferProxy::new(&self.agent).create(&self.allocation_epr, rep)?;
        Ok(epr)
    }

    /// Permanently remove a computing site (Delete).
    pub fn unregister_site(&self, name: &str) -> Result<(), InvokeError> {
        let epr = EndpointReference::resource(self.allocation_epr.address.clone(), name)
            .with_ref_property(Element::text_element("RequesterDN", self.agent.dn()));
        TransferProxy::new(&self.agent).delete(&epr)
    }
}
