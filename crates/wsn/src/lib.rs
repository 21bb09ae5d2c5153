//! # ogsa-wsn
//!
//! WS-Notification, the asynchronous half of the WSRF stack (§2.1, §3.1):
//!
//! * [`topics`] — **WS-Topics**: the three topic-expression dialects
//!   (Simple, Concrete, Full with `*` and `//` wildcards), compiled into
//!   and interpreted by the fan-out core's `CompiledTopic`.
//! * [`base`] — **WS-BaseNotification**: `Subscribe`/`Notify` messages,
//!   subscription resources, message selectors, wrapped vs "raw" delivery.
//! * [`manager`] — the Subscription Manager Service: subscriptions are
//!   WS-Resources (unsubscribe = `Destroy`, lifetime = scheduled
//!   termination, plus `PauseSubscription`/`ResumeSubscription`). The
//!   paper's §3.1 complaint — "the lack of a standardized 'create' ...
//!   All notification producers and brokers must be implemented with a
//!   specific, non-standard way of creating and retrieving subscriptions"
//!   — is visible in the code: subscriptions are created by the producer's
//!   idiosyncratic `Subscribe` handler, not by any spec-defined factory.
//! * [`producer`] — the container's notification-producer component:
//!   matches emitted messages against the sharded fan-out index
//!   (`ogsa_fanout::ShardedTable`, with the database remaining the store
//!   of record) and delivers them over HTTP one-ways (WSRF.NET's custom
//!   HTTP server on the client side) through the fan-out core's
//!   coalescing deliverer.
//! * [`consumer`] — the client-side notification consumer.
//! * [`broker`] — **WS-BrokeredNotification** with demand-based publishing,
//!   including the pause/resume cascade the paper estimates generates "an
//!   order of magnitude at a minimum" more messages than anything else.
//!
//! Omitted as out of scope (and called "optional" complexity by the paper):
//! subscription preconditions over producer resource properties, topic
//! namespaces and topic set hierarchies, and `GetCurrentMessage` (no
//! producer here retains the last message per topic).

pub mod base;
pub mod broker;
pub mod consumer;
pub mod manager;
pub mod producer;
pub mod topics;

pub use base::{NotificationMessage, SubscribeRequest, Subscription};
pub use broker::BrokerService;
pub use consumer::NotificationConsumer;
pub use manager::{SubscriptionManagerService, SubscriptionStore};
pub use producer::NotificationProducer;
pub use topics::{TopicDialect, TopicExpression, TopicPath};
