//! # ogsa-fanout
//!
//! The notification fan-out core shared by both of the paper's stacks
//! (WS-Notification in `crates/wsn`, WS-Eventing in `crates/eventing`).
//!
//! The paper's notification measurements cover a handful of subscribers;
//! this crate rebuilds the delivery path so the same two stacks scale to
//! internet-size subscriber populations without changing the calibrated
//! per-message costs:
//!
//! * [`table::ShardedTable`] — subscription tables sharded by topic-root
//!   key on the shared `ogsa_sim::shard::Shards`: per-shard `RwLock`s with
//!   contention telemetry (`wsn.shard_contention`) and per-shard
//!   subscriber and outbox-depth gauges. The shard count changes which
//!   lock an operation takes, never what it returns or costs.
//! * [`trie::TopicTrie`] — a precompiled WS-Topics trie over interned path
//!   segments, with `*` (one-segment) and `//` (any-depth) wildcard nodes;
//!   resolves a concrete topic path to its subscriber set in one walk. The
//!   naive per-subscription matcher ([`trie::CompiledTopic::matches`]) is
//!   retained as a differential oracle.
//! * [`filter::ContentFilter`] — the compiled-filter index: a content
//!   filter (WS-Eventing `Filter`, WS-Notification `Selector`) is compiled
//!   once when its subscription enters the table and grouped by text, so
//!   [`table::ShardedTable::resolve_matching`] evaluates each distinct
//!   filter among an event's candidates once. Event cost follows what the
//!   event matches, not how many subscriptions exist.
//! * [`outbox::Deliverer`] — bounded per-subscriber outboxes drained by a
//!   coalescing deliverer, with drop-oldest backpressure
//!   (`wsn.backpressure_drops` + PR-1 dead-letter records) and a durable
//!   [`outbox::RedeliveryLedger`] — one slot per subscriber holding both.
//!   Parked batches count as external work on the
//!   [`ogsa_transport::Network`], so `quiesce()`/`drain()` cannot return
//!   while notifications are still queued. A deliverer is built over its
//!   table, and [`table::ShardedTable::remove`] is the one eviction path:
//!   whichever way a subscription ends, its parked batch is discarded and
//!   its ledger row forgotten there.
//!
//! Honest accounting: WS-Eventing has no topic space, so its entries all
//! use [`trie::CompiledTopic::match_all`] and land on the wildcard shard —
//! its operations all take one lock, exactly as the real stack's would.
//! Its sink also never coalesces multiple events into one envelope,
//! because WS-Eventing's spec has no batch container.

pub mod filter;
pub mod outbox;
pub mod table;
pub mod trie;

pub use filter::ContentFilter;
pub use outbox::{Deliverer, DelivererConfig, DeliveryPlan, LedgerEntry, RedeliveryLedger, Sink};
pub use table::{FanoutStats, ShardedTable, Subscriber};
pub use trie::{CompiledTopic, Seg, TopicTrie};
