//! `ogsa-bench replication`: times replica catch-up on the wall clock,
//! written to `BENCH_replication.json`.
//!
//! An empty replica joins a primary holding a compacted base plus a log
//! suffix and catches up through snapshot + suffix shipping. The failover
//! theorems, the catch-up bound and the virtual-time invariance of
//! shipping are asserted in `crates/xmldb/tests/replication_failover.rs`
//! and `container::replication`'s tests.

use std::sync::Arc;
use std::time::Instant;

use ogsa_core::sim::{CostModel, VirtualClock};
use ogsa_core::xmldb::repl::{LoopbackFabric, ReplConfig, ReplicaNode, Replicator};
use ogsa_core::xmldb::{BackendKind, Database, DurableBackend, DurableConfig, FsyncPolicy};

use crate::fixture::{doc, COLL};

const PRIMARY: &str = "primary";

fn insert_range(db: &Database, lo: usize, hi: usize) {
    let c = db.collection(COLL);
    for i in lo..hi {
        c.insert(&format!("k{i}"), doc(i as i64)).unwrap();
    }
}

/// Wall time for an empty replica to catch up to a primary holding
/// `base_ops` compacted into a snapshot plus `suffix_ops` of log, and
/// whether it got all of them.
fn catch_up_wall(base_ops: usize, suffix_ops: usize) -> (bool, f64) {
    let backend = Arc::new(DurableBackend::sim(DurableConfig {
        fsync: FsyncPolicy::PerWrite,
        snapshot_every: 0,
    }));
    let db = Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::free()),
        BackendKind::Custom(backend.clone()),
    );
    let fabric = LoopbackFabric::new();
    let replica = ReplicaNode::new(FsyncPolicy::PerWrite);
    fabric.register("r1", ReplicaNode::new(FsyncPolicy::PerWrite));
    fabric.register("r2", replica.clone());
    let repl = Arc::new(Replicator::new(
        PRIMARY,
        &["r1", "r2"],
        fabric.clone(),
        ReplConfig::majority(3),
    ));
    backend.set_observer(repl.clone());

    fabric.sever(PRIMARY, "r2");
    insert_range(&db, 0, base_ops);
    repl.compact();
    insert_range(&db, base_ops, base_ops + suffix_ops);
    fabric.heal(PRIMARY, "r2");
    let start = Instant::now();
    let ok = repl.catch_up("r2");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (
        ok && replica.acked_seq() == (base_ops + suffix_ops) as u64,
        wall_ms,
    )
}

pub fn run() -> Vec<(&'static str, String)> {
    let (base_ops, suffix_ops) = (2_000, 500);
    let (caught_up, catch_up_ms) = catch_up_wall(base_ops, suffix_ops);
    println!(
        "catch-up: {base_ops} base + {suffix_ops} suffix records in {catch_up_ms:.1} ms (complete: {caught_up})"
    );
    vec![(
        "BENCH_replication.json",
        format!(
            "{{\"benchmark\":\"replication\",\"catch_up\":{{\"base_ops\":{base_ops},\"suffix_ops\":{suffix_ops},\"wall_ms\":{catch_up_ms:.3},\"complete\":{caught_up}}}}}\n"
        ),
    )]
}
