//! WS-ServiceGroup: "how collections of Web services and/or WS-Resources
//! can be represented and managed" (§2.1).
//!
//! The group is itself a WS-Resource; each membership is an *entry*
//! WS-Resource holding the member's EPR and a content document. Membership
//! content rules constrain what content a member must advertise. Entries are
//! destroyed through the ordinary WS-ResourceLifetime `Destroy` — removing a
//! member is just destroying its entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::{Container, Operation, OperationContext};
use ogsa_soap::Fault;
use ogsa_xml::{ns, Element, QName};

use crate::service_base::{PortType, ServiceBase, WsrfService, WsrfServiceHost};

fn q(local: &str) -> QName {
    QName::new(ns::WSRF_SG, local)
}

/// The id of the singleton group resource.
pub const GROUP_RESOURCE_ID: &str = "group";

/// A WS-ServiceGroup service.
pub struct ServiceGroupService {
    /// Local names every entry's content document must contain.
    content_rules: Vec<String>,
    seq: AtomicU64,
}

impl ServiceGroupService {
    /// Deploy a service group at `path` with the given membership content
    /// rules. Returns (service EPR, group resource EPR), or the fault that
    /// kept the group resource from being created.
    pub fn deploy(
        container: &Container,
        path: &str,
        content_rules: Vec<String>,
    ) -> Result<(EndpointReference, EndpointReference), Fault> {
        let service = Arc::new(ServiceGroupService {
            content_rules,
            seq: AtomicU64::new(0),
        });
        let (service_epr, base) =
            WsrfServiceHost::deploy(container, path, service, PortType::all(), true);
        // The singleton group resource.
        let ctx = container.context_for(path);
        base.create_with_id(&ctx, GROUP_RESOURCE_ID, Element::new(q("ServiceGroupRP")))?;
        let group_epr = EndpointReference::resource(service_epr.address.clone(), GROUP_RESOURCE_ID);
        Ok((service_epr, group_epr))
    }

    /// Build an `Add` request body.
    pub fn add_request(member: &EndpointReference, content: Element) -> Element {
        Element::new(q("Add"))
            .with_child(member.to_element_named(q("MemberEPR")))
            .with_child(Element::new(q("Content")).with_child(content))
    }

    /// Parse the entry EPR out of an `AddResponse`.
    pub fn parse_add_response(resp: &Element) -> Option<EndpointReference> {
        let entry = resp.child_local("EntryEPR")?;
        EndpointReference::from_element(entry).ok()
    }

    fn check_content(&self, content: &Element) -> Result<(), Fault> {
        for rule in &self.content_rules {
            if content.find_local(rule).is_none() {
                return Err(Fault::client(format!(
                    "membership content rule violated: missing `{rule}`"
                )));
            }
        }
        Ok(())
    }
}

impl WsrfService for ServiceGroupService {
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault> {
        match op.action_name() {
            "Add" => {
                let member_elem = op
                    .body
                    .child_local("MemberEPR")
                    .ok_or_else(|| Fault::client("Add without MemberEPR"))?;
                let member = EndpointReference::from_element(member_elem)
                    .map_err(|e| Fault::client(format!("bad MemberEPR: {e}")))?;
                let content = op
                    .body
                    .child_local("Content")
                    .cloned()
                    .unwrap_or_else(|| Element::new(q("Content")));
                self.check_content(&content)?;

                let entry_id = format!("entry-{}", self.seq.fetch_add(1, Ordering::Relaxed));
                let entry_doc = Element::new(q("Entry"))
                    .with_child(member.to_element_named(q("MemberServiceEPR")))
                    .with_child(content);
                base.create_with_id(ctx, &entry_id, entry_doc)?;
                let entry_epr = base.resource_epr(ctx, &entry_id);
                Ok(Element::new(q("AddResponse"))
                    .with_child(entry_epr.to_element_named(q("EntryEPR"))))
            }
            other => Err(Fault::client(format!(
                "unknown operation `{other}` on ServiceGroup"
            ))),
        }
    }

    /// The group resource's RP document lists every entry.
    fn resource_properties(
        &self,
        res: &crate::ResourceDocument,
        ctx: &OperationContext,
    ) -> Element {
        if res.id != GROUP_RESOURCE_ID {
            return res.doc.clone();
        }
        let mut doc = res.doc.clone();
        // Entries live in the same collection under entry- ids; the view is
        // computed dynamically, like the DataService's file list (§4.2.3).
        let collection = ctx
            .db()
            .collection(&format!("wsrf:{}", service_path_of(ctx)));
        for key in collection.keys() {
            if key.starts_with("entry-") {
                if let Some(entry) = collection.get(&key) {
                    doc.add_child(entry);
                }
            }
        }
        doc
    }
}

fn service_path_of(ctx: &OperationContext) -> String {
    // own_address is scheme://host/path — recover the path.
    let addr = ctx.own_address();
    let after_scheme = addr.split_once("://").map(|(_, r)| r).unwrap_or(addr);
    match after_scheme.find('/') {
        Some(i) => after_scheme[i..].to_owned(),
        None => "/".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::WsrfProxy;
    use ogsa_container::{InvokeError, Testbed};
    use ogsa_security::SecurityPolicy;

    fn setup() -> (Testbed, EndpointReference, EndpointReference) {
        let tb = Testbed::free();
        let c = tb.container("host-a", SecurityPolicy::None);
        let (svc, group) =
            ServiceGroupService::deploy(&c, "/services/Registry", vec!["AppName".into()])
                .expect("deploy");
        (tb, svc, group)
    }

    #[test]
    fn add_and_list_members() {
        let (tb, svc, group) = setup();
        let client = tb.client("host-b", "CN=admin", SecurityPolicy::None);
        let member = EndpointReference::service("http://host-b/services/Exec");
        let resp = client
            .invoke(
                &svc,
                "urn:sg/Add",
                ServiceGroupService::add_request(
                    &member,
                    Element::text_element("AppName", "blast"),
                ),
            )
            .unwrap();
        let entry_epr = ServiceGroupService::parse_add_response(&resp).unwrap();
        assert!(entry_epr.resource_id().unwrap().starts_with("entry-"));

        // The group RP document lists the entry.
        let proxy = WsrfProxy::new(&client);
        let entries = proxy.get_property(&group, "Entry").unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].find_local("AppName").is_some());
    }

    #[test]
    fn content_rules_are_enforced() {
        let (tb, svc, _group) = setup();
        let client = tb.client("host-b", "CN=admin", SecurityPolicy::None);
        let member = EndpointReference::service("http://host-b/services/Exec");
        let err = client
            .invoke(
                &svc,
                "urn:sg/Add",
                ServiceGroupService::add_request(
                    &member,
                    Element::text_element("WrongElement", "x"),
                ),
            )
            .unwrap_err();
        assert!(matches!(err, InvokeError::Fault(f) if f.reason.contains("AppName")));
    }

    #[test]
    fn destroying_an_entry_removes_the_member() {
        let (tb, svc, group) = setup();
        let client = tb.client("host-b", "CN=admin", SecurityPolicy::None);
        let member = EndpointReference::service("http://host-b/services/Exec");
        let resp = client
            .invoke(
                &svc,
                "urn:sg/Add",
                ServiceGroupService::add_request(
                    &member,
                    Element::text_element("AppName", "blast"),
                ),
            )
            .unwrap();
        let entry_epr = ServiceGroupService::parse_add_response(&resp).unwrap();

        let proxy = WsrfProxy::new(&client);
        proxy.destroy(&entry_epr).unwrap();
        let err = proxy.get_property(&group, "Entry").unwrap_err();
        // No entries left → InvalidResourcePropertyQNameFault.
        assert!(matches!(err, InvokeError::Fault(_)));
    }

    #[test]
    fn multiple_members_accumulate() {
        let (tb, svc, group) = setup();
        let client = tb.client("host-b", "CN=admin", SecurityPolicy::None);
        for i in 0..3 {
            let member = EndpointReference::service(format!("http://host-{i}/services/Exec"));
            client
                .invoke(
                    &svc,
                    "urn:sg/Add",
                    ServiceGroupService::add_request(
                        &member,
                        Element::text_element("AppName", format!("app{i}")),
                    ),
                )
                .unwrap();
        }
        let proxy = WsrfProxy::new(&client);
        assert_eq!(proxy.get_property(&group, "Entry").unwrap().len(), 3);
    }
}
