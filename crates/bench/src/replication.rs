//! `ogsa-bench replication`: re-proves the failover theorems in release
//! mode, times replica catch-up on wall clock, and checks the virtual-time
//! invariance of shipping, written to `BENCH_replication.json`.
//!
//! Gates:
//!
//! 1. **Zero lost quorum-acked writes** — a partition sweep over every
//!    replication-record boundary (replica first, then the primary),
//!    promoting the longest-acked survivor each time: the promotion point
//!    must never fall below the quorum-acked watermark, and every member
//!    must converge to a single whole-prefix history.
//! 2. **Replica catch-up under 10 s wall** — an empty replica joining a
//!    primary with a compacted base plus a log suffix (snapshot + suffix
//!    shipping) must fully catch up in under 10 seconds of real time.
//! 3. **Virtual-time invariance** — a fixed calibrated workload charges
//!    the identical virtual duration with a replication tap attached and
//!    without one, so every virtual-time figure in the repo is
//!    bit-identical with replication enabled.
//! 4. **Deterministic failover** — the full partition sweep, run twice,
//!    produces byte-identical converged images at every boundary.

use std::sync::Arc;
use std::time::Instant;

use ogsa_core::sim::{CostModel, VirtualClock};
use ogsa_core::xmldb::repl::{promote, LoopbackFabric, ReplConfig, ReplicaNode, Replicator};
use ogsa_core::xmldb::snapshot::apply_op;
use ogsa_core::xmldb::wal::WalOp;
use ogsa_core::xmldb::{
    encode_store, BackendKind, Database, DurableBackend, DurableConfig, FsyncPolicy, StoreImage,
};

use crate::fixture::{doc, virtual_elapsed, COLL};
use crate::{Gates, Outcome};

const PRIMARY: &str = "primary";

struct Cluster {
    db: Database,
    repl: Arc<Replicator>,
    fabric: Arc<LoopbackFabric>,
    replicas: Vec<(String, Arc<ReplicaNode>)>,
}

fn cluster() -> Cluster {
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
    let mut replicas = Vec::new();
    for id in ["r1", "r2"] {
        let node = ReplicaNode::new(FsyncPolicy::PerWrite);
        fabric.register(id, node.clone());
        replicas.push((id.to_owned(), node));
    }
    let repl = Arc::new(Replicator::new(
        PRIMARY,
        &["r1", "r2"],
        fabric.clone(),
        ReplConfig::majority(3),
    ));
    backend.set_observer(repl.clone());
    Cluster {
        db,
        repl,
        fabric,
        replicas,
    }
}

fn workload_ops(n: usize) -> Vec<WalOp> {
    (0..n)
        .map(|i| WalOp::Put {
            collection: COLL.to_owned(),
            key: format!("k{i}"),
            doc: doc(i as i64),
        })
        .collect()
}

fn run_workload(db: &Database, lo: usize, hi: usize) {
    let c = db.collection(COLL);
    for i in lo..hi {
        c.insert(&format!("k{i}"), doc(i as i64)).unwrap();
    }
}

/// Image after each whole-op prefix of `workload_ops(n)`.
fn prefix_images(n: usize) -> Vec<Vec<u8>> {
    let mut image = StoreImage::new();
    let mut out = vec![encode_store(&image)];
    for op in &workload_ops(n) {
        apply_op(&mut image, op);
        out.push(encode_store(&image));
    }
    out
}

struct SweepResult {
    boundaries: u64,
    lost_acked: u64,
    diverged: u64,
    images: Vec<Vec<u8>>,
}

/// Partition r1 after 2 part-2 records and the primary after `j`, promote
/// the longest-acked survivor, rejoin the deposed primary, and report
/// whether anything quorum-acked was lost or any member diverged.
fn failover_at(part1: usize, part2: usize, j: u64) -> (bool, bool, Vec<u8>) {
    let images = prefix_images(part1 + part2);
    let cl = cluster();
    run_workload(&cl.db, 0, part1);
    cl.fabric.sever_after(PRIMARY, "r1", 2.min(j));
    cl.fabric.sever_after(PRIMARY, "r2", j);
    run_workload(&cl.db, part1, part1 + part2);
    cl.fabric.sever(PRIMARY, "r1");
    cl.fabric.sever(PRIMARY, "r2");
    let watermark = cl.repl.quorum_acked_seq();

    let promotee = if cl.replicas[0].1.acked_seq() >= cl.replicas[1].1.acked_seq() {
        "r1"
    } else {
        "r2"
    };
    let new_repl = promote(
        promotee,
        &cl.replicas,
        3,
        cl.fabric.clone(),
        ReplConfig::majority(3),
    )
    .expect("two survivors allow promotion");
    let lost = new_repl.promotion_seq() < watermark;

    let old_node = cl.repl.to_node(FsyncPolicy::PerWrite);
    cl.fabric.register("old-primary", old_node.clone());
    for peer in ["r1", "r2", "old-primary"] {
        cl.fabric.heal(promotee, peer);
    }
    new_repl.admit("old-primary");
    let mut diverged = !new_repl.catch_up("old-primary");
    for (id, _) in &cl.replicas {
        if id != promotee {
            diverged |= !new_repl.catch_up(id);
        }
    }
    let converged = encode_store(&new_repl.image());
    diverged |= old_node.encoded_image() != converged;
    for (id, node) in &cl.replicas {
        if id != promotee {
            diverged |= node.encoded_image() != converged;
        }
    }
    // The converged image must be a whole prefix at or past the watermark.
    match images.iter().rposition(|img| *img == converged) {
        Some(p) if (p as u64) >= watermark => {}
        _ => diverged = true,
    }
    (lost, diverged, converged)
}

fn failover_sweep(part1: usize, part2: usize) -> SweepResult {
    let mut lost_acked = 0;
    let mut diverged = 0;
    let mut images = Vec::new();
    for j in 0..=(part2 as u64) {
        let (lost, div, image) = failover_at(part1, part2, j);
        lost_acked += u64::from(lost);
        diverged += u64::from(div);
        images.push(image);
    }
    SweepResult {
        boundaries: part2 as u64 + 1,
        lost_acked,
        diverged,
        images,
    }
}

/// Wall time for an empty replica to catch up to a primary holding
/// `base_ops` compacted into a snapshot plus `suffix_ops` of log.
fn catch_up_wall(base_ops: usize, suffix_ops: usize) -> (bool, f64) {
    let cl = cluster();
    cl.fabric.sever(PRIMARY, "r2");
    run_workload(&cl.db, 0, base_ops);
    cl.repl.compact();
    run_workload(&cl.db, base_ops, base_ops + suffix_ops);
    cl.fabric.heal(PRIMARY, "r2");
    let start = Instant::now();
    let ok = cl.repl.catch_up("r2");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let total = (base_ops + suffix_ops) as u64;
    let caught = ok && cl.replicas[1].1.acked_seq() == total;
    (caught, wall_ms)
}

/// [`virtual_elapsed`] over a durable backend with a replication tap
/// attached.
fn virtual_elapsed_replicated() -> u64 {
    let backend = Arc::new(DurableBackend::sim(DurableConfig::default()));
    let fabric = LoopbackFabric::new();
    fabric.register("r1", ReplicaNode::new(FsyncPolicy::PerWrite));
    fabric.register("r2", ReplicaNode::new(FsyncPolicy::PerWrite));
    let repl = Arc::new(Replicator::new(
        PRIMARY,
        &["r1", "r2"],
        fabric,
        ReplConfig::majority(3),
    ));
    backend.set_observer(repl);
    virtual_elapsed(BackendKind::Custom(backend))
}

pub fn run() -> Outcome {
    // 1 + 4: the partition-boundary failover sweep, twice, for the
    // zero-loss and determinism gates.
    let (part1, part2) = (4, 10);
    let sweep = failover_sweep(part1, part2);
    let again = failover_sweep(part1, part2);
    let deterministic = sweep.images == again.images;

    // 2: snapshot + suffix catch-up on wall clock.
    let (base_ops, suffix_ops) = (2_000, 500);
    let (caught_up, catch_up_ms) = catch_up_wall(base_ops, suffix_ops);

    // 3: virtual time must not notice the replication tap.
    let vt_plain = virtual_elapsed(BackendKind::Custom(Arc::new(DurableBackend::sim(
        DurableConfig::default(),
    ))));
    let vt_replicated = virtual_elapsed_replicated();

    println!(
        "failover sweep: {} boundaries, {} lost acked, {} diverged, deterministic: {}",
        sweep.boundaries, sweep.lost_acked, sweep.diverged, deterministic
    );
    println!(
        "catch-up: {} base + {} suffix records in {catch_up_ms:.1} ms (complete: {caught_up})",
        base_ops, suffix_ops
    );
    println!(
        "virtual time: plain {vt_plain} µs vs replicated {vt_replicated} µs (must be identical)"
    );

    let gates = vec![
        ("zero_lost_acked_writes", sweep.lost_acked == 0),
        ("single_history_convergence", sweep.diverged == 0),
        ("deterministic_failover", deterministic),
        ("catch_up_under_10s", caught_up && catch_up_ms < 10_000.0),
        ("virtual_time_identical", vt_plain == vt_replicated),
    ];

    Outcome {
        artifact: (
            "BENCH_replication.json",
            format!(
                concat!(
                    "{{\"benchmark\":\"replication\",",
                    "\"sweep\":{{\"boundaries\":{},\"lost_acked\":{},\"diverged\":{},",
                    "\"deterministic\":{}}},",
                    "\"catch_up\":{{\"base_ops\":{},\"suffix_ops\":{},\"wall_ms\":{:.3},\"complete\":{}}},",
                    "\"virtual_time\":{{\"plain_us\":{},\"replicated_us\":{}}}"
                ),
                sweep.boundaries,
                sweep.lost_acked,
                sweep.diverged,
                deterministic,
                base_ops,
                suffix_ops,
                catch_up_ms,
                caught_up,
                vt_plain,
                vt_replicated,
            ),
        ),
        extra: Vec::new(),
        gates: Gates::Named(gates),
    }
}
