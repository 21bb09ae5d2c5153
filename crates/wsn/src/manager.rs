//! The Subscription Manager Service and the shared subscription store.
//!
//! Subscriptions are WS-Resources: they live in the XML database, clients
//! delete them with WS-ResourceLifetime `Destroy`, extend them with
//! `SetTerminationTime`, and pause/resume them with the WSN operations. The
//! *creation* of a subscription, though, has no spec-defined factory — the
//! producer's `Subscribe` handler calls [`SubscriptionStore::subscribe`]
//! directly, the "specific, non-standard way of creating and retrieving
//! subscriptions" the paper's §3.1 complains about.
//!
//! Fan-out is served by a sharded in-memory index
//! ([`ogsa_fanout::ShardedTable`]) kept strictly in lock-step with the
//! database: `subscribe` inserts, pause/resume flips the indexed flag,
//! `Destroy` and WS-RL expiry evict **eagerly** (a dead subscriber never
//! costs a delivery attempt), and deploy rebuilds the index from whatever
//! subscription documents already exist (container restart). A `Selector`
//! is compiled once as its subscription enters the index and evaluated once
//! per event for all the candidates that share its text; one that does not
//! compile (nobody validated it, or a stored document went bad) matches
//! nothing. The naive full-database scan is retained as
//! [`SubscriptionStore::active_matching_naive`] — the differential oracle
//! the property tests compare the index against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use ogsa_addressing::EndpointReference;
use ogsa_container::{Container, Operation, OperationContext};
use ogsa_fanout::ShardedTable;
use ogsa_soap::Fault;
use ogsa_wsrf::service_base::{PortType, ServiceBase, WsrfService, WsrfServiceHost};
use ogsa_wsrf::{ResourceDocument, TerminationTime};
use ogsa_xml::{Element, XPath, XPathContext, XmlResult};

use crate::base::{actions, SubscribeRequest, Subscription};
use crate::topics::TopicPath;

/// Routed fan-out shards per subscription table (plus the wildcard shard).
pub const DEFAULT_FANOUT_SHARDS: usize = 8;

/// Shared, database-backed subscription state: used by the producer (to
/// match and deliver) and by the manager service (to manipulate).
#[derive(Clone)]
pub struct SubscriptionStore {
    base: ServiceBase,
    manager_address: String,
    seq: Arc<AtomicU64>,
    index: Arc<ShardedTable<Subscription>>,
}

/// Every subscription document in the database, in key order — one charged
/// query. Nothing, should the query fail.
fn stored_subscriptions(base: &ServiceBase) -> Vec<(String, Element)> {
    static ALL: LazyLock<XmlResult<XPath>> =
        LazyLock::new(|| XPath::compile("/SubscriptionResource"));
    let query = |all| base.store().collection().query(all, &XPathContext::new());
    let docs = ALL.as_ref().ok().and_then(|all| query(all).ok());
    docs.unwrap_or_default()
}

impl SubscriptionStore {
    /// Index `sub` under its compiled topic expression and selector.
    fn index_subscription(index: &ShardedTable<Subscription>, sub: Subscription) {
        let topic = sub.topic.compile();
        let selector = sub
            .selector
            .as_deref()
            .map(|s| index.compile_filter_lenient(s));
        let paused = sub.paused;
        index.insert(sub, topic, selector, paused);
    }

    /// Create a subscription from a parsed request; returns its EPR (on the
    /// manager service).
    pub fn subscribe(
        &self,
        ctx: &OperationContext,
        req: &SubscribeRequest,
    ) -> Result<EndpointReference, Fault> {
        let id = format!("sub-{}", self.seq.fetch_add(1, Ordering::Relaxed));
        let sub = Subscription {
            id: id.clone(),
            consumer: req.consumer.clone(),
            topic: req.topic.clone(),
            selector: req.selector.clone(),
            paused: false,
            use_notify: req.use_notify,
        };
        self.base.create_with_id(ctx, &id, sub.to_document())?;
        Self::index_subscription(&self.index, sub);
        // Clients can request an initial lifetime; the manager controls it
        // thereafter (§2.1). The destructor evicts from the fan-out index
        // *at expiry*, not lazily on the next notify — an expired
        // subscriber is never charged a delivery attempt.
        let cache = self.base.store().clone();
        let index = self.index.clone();
        let rid = id.clone();
        ctx.lifetime().register(
            &self.base.lifetime_key(&id),
            match req.initial_termination {
                Some(t) => TerminationTime::At(t),
                None => TerminationTime::Never,
            }
            .as_option(),
            Arc::new(move |_key| {
                cache.remove(&rid);
                index.remove(&rid);
            }),
        );
        Ok(EndpointReference::resource(
            self.manager_address.clone(),
            id,
        ))
    }

    /// All unpaused subscriptions whose filters pass for (topic, message):
    /// one trie walk over the routed shard + the wildcard shard, then each
    /// distinct message-content selector among the survivors, once.
    pub fn active_matching(&self, topic: &TopicPath, message: &Element) -> Vec<Arc<Subscription>> {
        let segs: Vec<&str> = topic.segments().iter().map(String::as_str).collect();
        self.index.resolve_matching(&segs, message)
    }

    /// The seed's matcher: a full database scan testing every subscription
    /// document — one database query, as WSRF.NET's database-resident
    /// subscriptions imply. Retained as the differential oracle for
    /// [`SubscriptionStore::active_matching`].
    pub fn active_matching_naive(&self, topic: &TopicPath, message: &Element) -> Vec<Subscription> {
        stored_subscriptions(&self.base)
            .iter()
            .filter_map(|(id, doc)| Subscription::from_document(id, doc))
            .filter(|s| s.accepts(topic, message))
            .collect()
    }

    /// Is there at least one unpaused subscription matching `topic`? The
    /// broker's demand bookkeeping — an index resolve, not a table scan.
    pub fn has_active_matching(&self, topic: &TopicPath) -> bool {
        let segs: Vec<&str> = topic.segments().iter().map(String::as_str).collect();
        !self.index.resolve(&segs).is_empty()
    }

    /// All subscriptions, paused or not.
    pub fn all(&self) -> Vec<Arc<Subscription>> {
        self.index.all().into_iter().map(|(s, _)| s).collect()
    }

    /// The shared fan-out index.
    pub fn index(&self) -> &Arc<ShardedTable<Subscription>> {
        &self.index
    }

    /// The manager service address subscription EPRs point at.
    pub fn manager_address(&self) -> &str {
        &self.manager_address
    }
}

/// The deployable Subscription Manager Service.
pub struct SubscriptionManagerService {
    index: Arc<ShardedTable<Subscription>>,
}

impl SubscriptionManagerService {
    /// Deploy at `path` with [`DEFAULT_FANOUT_SHARDS`] routed shards;
    /// returns (manager service EPR, shared store).
    pub fn deploy(container: &Container, path: &str) -> (EndpointReference, SubscriptionStore) {
        let index = Arc::new(ShardedTable::new(
            DEFAULT_FANOUT_SHARDS,
            container.clock().clone(),
            container.model(),
            container.telemetry().clone(),
            "wsn",
        ));
        index.stats().register_gauges();
        let (epr, base) = WsrfServiceHost::deploy(
            container,
            path,
            Arc::new(SubscriptionManagerService {
                index: index.clone(),
            }),
            PortType::all(),
            true,
        );
        // Container restart: re-index subscription documents that survived
        // in the database, and keep fresh ids clear of the old ones.
        let mut max_seq = 0;
        for (id, doc) in stored_subscriptions(&base).iter() {
            let Some(sub) = Subscription::from_document(id, doc) else {
                continue;
            };
            if let Some(n) = id.strip_prefix("sub-").and_then(|n| n.parse::<u64>().ok()) {
                max_seq = max_seq.max(n + 1);
            }
            SubscriptionStore::index_subscription(&index, sub);
        }
        let store = SubscriptionStore {
            base,
            manager_address: epr.address.clone(),
            seq: Arc::new(AtomicU64::new(max_seq)),
            index,
        };
        (epr, store)
    }
}

impl WsrfService for SubscriptionManagerService {
    fn handle_custom(
        &self,
        op: &Operation,
        ctx: &OperationContext,
        base: &ServiceBase,
    ) -> Result<Element, Fault> {
        let set_paused = |paused: bool| -> Result<Element, Fault> {
            let id = op.require_resource_id()?;
            let mut res = base.load(ctx, id)?;
            res.set_member("Paused", paused.to_string());
            base.save(ctx, &res)?;
            self.index.set_paused(id, paused);
            Ok(Element::new(if paused {
                "PauseSubscriptionResponse"
            } else {
                "ResumeSubscriptionResponse"
            }))
        };
        match op.action_name() {
            "PauseSubscription" => set_paused(true),
            "ResumeSubscription" => set_paused(false),
            other => Err(Fault::client(format!(
                "unknown operation `{other}` on SubscriptionManager"
            ))),
        }
    }

    /// `Destroy` (unsubscribe) evicts from the fan-out index immediately —
    /// same eager eviction as the expiry destructor.
    fn on_destroy(&self, res: &ResourceDocument, _ctx: &OperationContext) {
        self.index.remove(&res.id);
    }
}

/// Client-side helpers for manipulating subscriptions.
pub struct SubscriptionProxy<'a> {
    agent: &'a ogsa_container::ClientAgent,
}

impl<'a> SubscriptionProxy<'a> {
    pub fn new(agent: &'a ogsa_container::ClientAgent) -> Self {
        SubscriptionProxy { agent }
    }

    /// Unsubscribe = Destroy the subscription resource (§2.1: "they delete
    /// their subscription through the Subscription Manager service").
    pub fn unsubscribe(
        &self,
        subscription: &EndpointReference,
    ) -> Result<(), ogsa_container::InvokeError> {
        ogsa_wsrf::WsrfProxy::new(self.agent).destroy(subscription)
    }

    pub fn pause(
        &self,
        subscription: &EndpointReference,
    ) -> Result<(), ogsa_container::InvokeError> {
        self.agent.invoke(
            subscription,
            actions::PAUSE,
            Element::new("PauseSubscription"),
        )?;
        Ok(())
    }

    pub fn resume(
        &self,
        subscription: &EndpointReference,
    ) -> Result<(), ogsa_container::InvokeError> {
        self.agent.invoke(
            subscription,
            actions::RESUME,
            Element::new("ResumeSubscription"),
        )?;
        Ok(())
    }
}
