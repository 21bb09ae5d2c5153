//! # ogsa-xmldb
//!
//! The Xindice-analogue XML database both of the paper's implementations
//! store resources in: named collections of XML documents, keyed by a
//! resource id, queryable with XPath.
//!
//! The paper's performance sections hinge on this layer:
//!
//! * "Both counter implementations' performance is dominated by Xindice."
//! * "Creating resources (and adding them to the database) in particular is
//!   always slower than reading or updating them" — reproduced by the
//!   calibrated cost profile of the [`backend::BackendKind::SimDisk`]
//!   backend.
//! * WSRF.NET's "write-through resource caching" makes its `Set` faster than
//!   the WS-Transfer `Put` (which re-reads the old representation first) —
//!   reproduced by [`cache::ResourceCache`].
//!
//! Like WSRF.NET, the database supports multiple backends: the simulated
//! Xindice disk store, a cheap in-memory collection, and a [`backend::CustomBackend`]
//! hook "useful for legacy systems" (paper §3.1).

//!
//! Beyond the paper's simulated-disk calibration, the store has a **real
//! durable backend** ([`durable::DurableBackend`]): an append-only
//! write-ahead log with CRC-framed records and configurable fsync policy
//! ([`wal`]), periodic atomically-installed snapshots with log compaction
//! ([`snapshot`]), and crash recovery that replays the log up to the first
//! torn record. The crash-harness suite (`tests/crash_harness.rs`) proves
//! the recovery invariants at every injected WAL byte offset.

//!
//! The durable store replicates: [`repl::Replicator`] taps the primary's
//! WAL and ships `[term|seq]`-headed, CRC-framed records to N
//! [`repl::ReplicaNode`]s, with quorum-fsync ack watermarks, snapshot +
//! log-suffix catch-up, and deterministic partition-tolerant failover
//! (promotion of the longest acked prefix, divergent-tail truncation on
//! rejoin). The failover harness (`tests/replication_failover.rs`) sweeps
//! a partition across every replication-record boundary.

pub mod backend;
pub mod cache;
pub mod db;
pub mod durable;
pub mod error;
pub mod repl;
pub mod snapshot;
pub mod stats;
pub mod wal;

pub use backend::{BackendKind, CostProfile, CustomBackend};
pub use cache::ResourceCache;
pub use db::{Collection, Database, DbConfig, InvalidationHook, DEFAULT_SHARDS};
pub use durable::{DurableBackend, DurableConfig, RecoveryReport, WalObserver};
pub use error::DbError;
pub use repl::{
    promote, LoopbackFabric, PromoteError, ReplConfig, ReplFabric, ReplRecord, ReplicaNode,
    Replicator, ShipError,
};
pub use snapshot::{encode_store, StoreImage};
pub use stats::{DbStats, MAX_SHARDS};
pub use wal::{CrashPoint, FsyncPolicy, SimMedium, TornReason};
