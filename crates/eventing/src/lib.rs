//! # ogsa-eventing
//!
//! WS-Eventing, as the paper used it: not a from-scratch design but a
//! faithful analogue of the **Plumbwork Orange** implementation (§3.2):
//!
//! * an **Event Source Service** accepting `Subscribe` with an optional
//!   XPath filter ("a filter can be used for registering a subscription per
//!   resource" — unlike WSN, subscriptions attach to the *service*);
//! * a **Subscription Manager Service** with `Renew`, `GetStatus` and
//!   `Unsubscribe`, which "maintains the subscription lists in a flat XML
//!   file" — reproduced by [`store::FlatXmlStore`], including the file I/O
//!   cost on every access;
//! * a **Notification Manager**, "not defined in the spec ... a convenient
//!   tool for an event source to trigger notifications";
//! * **push** delivery over raw TCP (WSE `SoapReceiver`) — the transport
//!   that makes WS-Eventing's Notify faster than WS-Notification's HTTP
//!   path in Figures 2-4. The spec calls delivery modes an extension point
//!   but defines only push ([`PUSH_MODE`]); so does this stack, and
//!   `Subscribe` answers any other mode with
//!   `DeliveryModeRequestedUnavailable`.
//!
//! Fan-out rides the shared `ogsa_fanout` core through [`fanout::EventIndex`]
//! — with honest per-stack accounting: WS-Eventing has no topics, so every
//! entry lands on the wildcard shard (no shard scaling), and no batch
//! container, so coalescing never folds events into one envelope.

pub mod consumer;
pub mod fanout;
pub mod manager;
pub mod messages;
pub mod source;
pub mod store;

pub use consumer::EventConsumer;
pub use fanout::EventIndex;
pub use manager::EventingSubscriptionManager;
pub use messages::{actions, SubscribeRequest, SubscriptionStatus, PUSH_MODE};
pub use source::{EventSourceService, NotificationManager};
pub use store::{EventSubscription, FlatXmlStore};
