//! The WSRF.NET programming model: `ServiceBase`, the wrapper service, and
//! the port-type aggregator.
//!
//! In WSRF.NET a "wrapper service ... automatically resolve\[s\] the execution
//! context specified by an EndpointReference": before the user method runs,
//! the resource named by the EPR is loaded from the database; afterwards it
//! is stored back. Spec-defined port types are "imported" declaratively and
//! the PortTypeAggregator emits the deployable service. Here:
//!
//! * [`ServiceBase`] owns the resource store (with the write-through cache
//!   that makes WSRF.NET's `Set` fast) and provides the library-level
//!   `Create()` that the WSRF specs famously do not define.
//! * [`WsrfService`] is the user-code trait (custom WebMethods + the
//!   resource-properties *view* + destroy hooks).
//! * [`WsrfServiceHost`] is the aggregated, deployable service: it
//!   dispatches imported port-type operations itself and forwards the rest
//!   to user code.

use std::collections::HashSet;
use std::sync::Arc;

use ogsa_addressing::EndpointReference;
use ogsa_container::{Container, Operation, OperationContext, WebService};
use ogsa_sim::{DetRng, SimDuration};
use ogsa_soap::Fault;
use ogsa_xml::{ns, Element, QName};
use ogsa_xmldb::ResourceCache;

use crate::faults::BaseFault;
use crate::lifetime::{self, TerminationTime};
use crate::properties;
use crate::resource::ResourceDocument;

/// The spec-defined port types a WSRF service can import (the
/// PortTypeAggregator's menu).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortType {
    GetResourceProperty,
    GetMultipleResourceProperties,
    SetResourceProperties,
    QueryResourceProperties,
    /// WS-ResourceLifetime immediate destruction (`Destroy`).
    ImmediateResourceTermination,
    /// WS-ResourceLifetime scheduled destruction (`SetTerminationTime` +
    /// lifetime resource properties).
    ScheduledResourceTermination,
}

impl PortType {
    /// Everything — the typical WSRF.NET deployment.
    pub fn all() -> HashSet<PortType> {
        [
            PortType::GetResourceProperty,
            PortType::GetMultipleResourceProperties,
            PortType::SetResourceProperties,
            PortType::QueryResourceProperties,
            PortType::ImmediateResourceTermination,
            PortType::ScheduledResourceTermination,
        ]
        .into_iter()
        .collect()
    }
}

/// User code: the part of a WSRF service its author writes.
pub trait WsrfService: Send + Sync + 'static {
    /// Service-specific WebMethods (e.g. the counter's `create`). Called
    /// when no imported port type matches the action.
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault>;

    /// Assemble the resource-properties *view* of a resource ("a view or
    /// projection of the state ... typically not equivalent", §2.1).
    /// Default: the raw state document. Computed properties (WSRF.NET's
    /// `[ResourceProperty]` getters) are added by overriding this.
    fn resource_properties(&self, res: &ResourceDocument, _ctx: &OperationContext) -> Element {
        res.doc.clone()
    }

    /// Called before a resource is destroyed (explicitly or by scheduled
    /// termination) — where the ExecService kills the running job.
    fn on_destroy(&self, _res: &ResourceDocument, _ctx: &OperationContext) {}

    /// Called after `SetResourceProperties` commits — where the counter
    /// service raises its `CounterValueChanged` notification.
    fn on_properties_changed(&self, _res: &ResourceDocument, _ctx: &OperationContext) {}
}

/// The wrapper-service core: resource storage, id minting, create/load/save.
#[derive(Clone)]
pub struct ServiceBase {
    path: String,
    store: ResourceCache,
    rng: DetRng,
}

impl ServiceBase {
    /// Build a base for the service at `path` inside `container`, with the
    /// write-through cache on (pass `false` to ablate it).
    pub fn new(container: &Container, path: &str, cache_enabled: bool) -> Self {
        let collection = container.db().collection(&format!("wsrf:{path}"));
        let hit = SimDuration::from_micros(container.model().cache_hit_us);
        ServiceBase {
            path: path.to_owned(),
            store: ResourceCache::new(collection, hit, cache_enabled),
            rng: DetRng::seeded(0x5157 ^ path.len() as u64),
        }
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    pub fn store(&self) -> &ResourceCache {
        &self.store
    }

    /// Key in the container's lifetime manager for a resource id.
    pub fn lifetime_key(&self, id: &str) -> String {
        format!("{}#{id}", self.path)
    }

    /// The WSRF.NET `ServiceBase.Create()` library method: place a new
    /// resource in the backing store and mint its EPR. *How the service
    /// exposes this is up to the service author* (§3.1) — it is not a wire
    /// operation here, exactly as in WSRF.NET.
    pub fn create(&self, ctx: &OperationContext, doc: Element) -> Result<ResourceDocument, Fault> {
        let id = self.rng.guid();
        self.create_with_id(ctx, &id, doc)
    }

    /// `ServiceBase.Create()` for a whole batch: mint `count` resources, each
    /// initialised to `doc`, in one store transaction. Xindice-era stores
    /// amortise the per-transaction overhead (connection, commit, index
    /// flush) across the batch, so this is much cheaper than `count`
    /// independent `create` calls.
    pub fn create_batch(
        &self,
        _ctx: &OperationContext,
        count: usize,
        doc: Element,
    ) -> Result<Vec<ResourceDocument>, Fault> {
        let entries: Vec<(String, Element)> =
            (0..count).map(|_| (self.rng.guid(), doc.clone())).collect();
        self.store
            .insert_many(entries.clone())
            .map_err(|e| Fault::server(e.to_string()))?;
        Ok(entries
            .into_iter()
            .map(|(id, doc)| ResourceDocument::new(&id, doc))
            .collect())
    }

    /// Create with a caller-chosen id (the Account service keys accounts by
    /// DN, for instance).
    pub fn create_with_id(
        &self,
        _ctx: &OperationContext,
        id: &str,
        doc: Element,
    ) -> Result<ResourceDocument, Fault> {
        self.store
            .insert(id, doc.clone())
            .map_err(|e| Fault::server(e.to_string()))?;
        Ok(ResourceDocument::new(id, doc))
    }

    /// Register a freshly-created resource for scheduled termination.
    pub fn schedule_termination(&self, ctx: &OperationContext, id: &str, initial: TerminationTime) {
        let store = self.store.clone();
        let rid = id.to_owned();
        ctx.lifetime().register(
            &self.lifetime_key(id),
            initial.as_option(),
            Arc::new(move |_key| {
                store.remove(&rid);
            }),
        );
    }

    /// Load the resource the request EPR names (the wrapper service's
    /// pre-invocation step).
    pub fn load(&self, ctx: &OperationContext, id: &str) -> Result<ResourceDocument, Fault> {
        match self.store.get(id) {
            Some(doc) => Ok(ResourceDocument::new(id, doc)),
            None => Err(BaseFault::resource_unknown(ctx.clock().now(), id).to_soap_fault()),
        }
    }

    /// Store the resource back (the wrapper service's post-invocation step).
    pub fn save(&self, _ctx: &OperationContext, res: &ResourceDocument) -> Result<(), Fault> {
        self.store
            .update(&res.id, res.doc.clone())
            .map_err(|e| Fault::server(e.to_string()))
    }

    /// Remove a resource from store and lifetime tracking.
    pub fn destroy(&self, ctx: &OperationContext, id: &str) -> bool {
        ctx.lifetime().deregister(&self.lifetime_key(id));
        self.store.remove(id).is_some()
    }

    /// EPR for a resource of this service inside `ctx`'s container.
    pub fn resource_epr(&self, ctx: &OperationContext, id: &str) -> EndpointReference {
        ctx.own_resource_epr(id)
    }
}

/// The aggregated deployable service (PortTypeAggregator output).
pub struct WsrfServiceHost<S: WsrfService> {
    base: ServiceBase,
    service: Arc<S>,
    imported: HashSet<PortType>,
}

impl<S: WsrfService> WsrfServiceHost<S> {
    /// Aggregate `service` with the given imported port types.
    pub fn new(base: ServiceBase, service: Arc<S>, imported: HashSet<PortType>) -> Self {
        WsrfServiceHost {
            base,
            service,
            imported,
        }
    }

    /// Aggregate and deploy into `container` at the base's path; returns the
    /// service EPR.
    pub fn deploy(
        container: &Container,
        path: &str,
        service: Arc<S>,
        imported: HashSet<PortType>,
        cache_enabled: bool,
    ) -> (EndpointReference, ServiceBase) {
        let base = ServiceBase::new(container, path, cache_enabled);
        let host = WsrfServiceHost::new(base.clone(), service, imported);
        let epr = container.deploy(path, Arc::new(host));
        (epr, base)
    }

    fn rp_view(&self, res: &ResourceDocument, ctx: &OperationContext) -> Element {
        let mut doc = self.service.resource_properties(res, ctx);
        if self
            .imported
            .contains(&PortType::ScheduledResourceTermination)
        {
            let termination = ctx
                .lifetime()
                .termination(&self.base.lifetime_key(&res.id))
                .map(|t| match t {
                    Some(instant) => TerminationTime::At(instant),
                    None => TerminationTime::Never,
                })
                .unwrap_or(TerminationTime::Never);
            for p in lifetime::lifetime_properties(ctx.clock().now(), termination) {
                doc.add_child(p);
            }
        }
        doc
    }

    fn ported(&self, pt: PortType, op: &Operation) -> Result<(), Fault> {
        if self.imported.contains(&pt) {
            Ok(())
        } else {
            Err(Fault::client(format!(
                "port type for action {} is not imported by this service",
                op.action
            )))
        }
    }
}

impl<S: WsrfService> WebService for WsrfServiceHost<S> {
    fn handle(&self, op: &Operation, ctx: &OperationContext) -> Result<Element, Fault> {
        let now = ctx.clock().now();
        let rp = |local: &str| QName::new(ns::WSRF_RP, local);
        match op.action_name() {
            "GetResourceProperty" => {
                self.ported(PortType::GetResourceProperty, op)?;
                let id = op.require_resource_id()?;
                let res = self.base.load(ctx, id)?;
                let doc = self.rp_view(&res, ctx);
                let hits = properties::get_property(&doc, op.body.text().trim(), now)
                    .map_err(|f| f.to_soap_fault())?;
                Ok(Element::new(rp("GetResourcePropertyResponse"))
                    .with_children(hits.into_iter().cloned()))
            }
            "GetMultipleResourceProperties" => {
                self.ported(PortType::GetMultipleResourceProperties, op)?;
                let id = op.require_resource_id()?;
                let res = self.base.load(ctx, id)?;
                let doc = self.rp_view(&res, ctx);
                let mut out = Element::new(rp("GetMultipleResourcePropertiesResponse"));
                for want in op.body.child_elements() {
                    let hits = properties::get_property(&doc, want.text().trim(), now)
                        .map_err(|f| f.to_soap_fault())?;
                    for h in hits {
                        out.add_child(h.clone());
                    }
                }
                Ok(out)
            }
            "SetResourceProperties" => {
                self.ported(PortType::SetResourceProperties, op)?;
                let id = op.require_resource_id()?;
                let mut res = self.base.load(ctx, id)?;
                let components = properties::parse_set_request(&op.body);
                properties::apply_set(&mut res.doc, &components);
                self.base.save(ctx, &res)?;
                self.service.on_properties_changed(&res, ctx);
                Ok(Element::new(rp("SetResourcePropertiesResponse")))
            }
            "QueryResourceProperties" => {
                self.ported(PortType::QueryResourceProperties, op)?;
                let id = op.require_resource_id()?;
                let res = self.base.load(ctx, id)?;
                let doc = self.rp_view(&res, ctx);
                let (dialect, expr) = properties::parse_query_request(&op.body)
                    .ok_or_else(|| Fault::client("malformed QueryResourceProperties"))?;
                if dialect != properties::XPATH_DIALECT {
                    return Err(Fault::client(format!("unknown query dialect {dialect}")));
                }
                let results = properties::query(&doc, &expr, now).map_err(|f| f.to_soap_fault())?;
                Ok(Element::new(rp("QueryResourcePropertiesResponse")).with_children(results))
            }
            "Destroy" => {
                self.ported(PortType::ImmediateResourceTermination, op)?;
                let id = op.require_resource_id()?;
                let res = self.base.load(ctx, id)?;
                self.service.on_destroy(&res, ctx);
                self.base.destroy(ctx, id);
                Ok(lifetime::destroy_response())
            }
            "SetTerminationTime" => {
                self.ported(PortType::ScheduledResourceTermination, op)?;
                let id = op.require_resource_id()?;
                let _res = self.base.load(ctx, id)?;
                let requested = lifetime::parse_set_termination(&op.body)
                    .ok_or_else(|| Fault::client("malformed SetTerminationTime"))?;
                if let TerminationTime::At(t) = requested {
                    if t < now {
                        return Err(BaseFault::termination_rejected(
                            now,
                            "requested termination time is in the past",
                        )
                        .to_soap_fault());
                    }
                }
                let key = self.base.lifetime_key(id);
                if !ctx.lifetime().set_termination(&key, requested.as_option()) {
                    // Resource exists but was never scheduled: register now.
                    self.base.schedule_termination(ctx, id, requested);
                }
                Ok(lifetime::set_termination_response(requested, now))
            }
            _ => self.service.handle_custom(op, ctx, &self.base),
        }
    }
}
