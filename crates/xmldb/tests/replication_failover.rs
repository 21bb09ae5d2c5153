//! The failover harness: exhaustive partition-point sweeps over the
//! replication stream, crash-harness style.
//!
//! The cluster under test is a primary [`DurableBackend`] (writes driven
//! through the public `Collection` API, observed by a [`Replicator`])
//! shipping to two [`ReplicaNode`]s over a [`LoopbackFabric`] with
//! deterministic cut-after-k link controls. Three theorems are checked at
//! **every** replication-record boundary:
//!
//! 1. **Zero lost quorum-acked writes** — after partitioning a replica and
//!    then the primary at any pair of record boundaries, promoting the
//!    longest-acked survivor yields a history whose promotion point is at
//!    or past the quorum-acked watermark measured at partition time.
//! 2. **Single-history convergence** — after promotion, divergent-tail
//!    truncation (the deposed primary's unacked split-brain writes) and
//!    catch-up, every member's materialized image is byte-identical to the
//!    new primary's, and equals `apply(prefix)` of the original write
//!    script for a prefix ≥ the watermark.
//! 3. **Determinism** — the entire sweep, run twice, produces
//!    byte-identical converged images at every boundary.
//!
//! The property suite generalises the sweep over generated scripts ×
//! partition schedules (satellite of the PR-7 prefix-consistency
//! property).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ogsa_sim::{CostModel, VirtualClock};
use ogsa_xmldb::repl::{promote, LoopbackFabric, ReplConfig, ReplicaNode, Replicator};
use ogsa_xmldb::{encode_store, BackendKind, Database, DurableBackend, DurableConfig, FsyncPolicy};
use proptest::prelude::*;

mod script;
use script::{derive_script, prefix_images, run_script, ScriptOp};

const PRIMARY: &str = "primary";

struct Cluster {
    db: Database,
    backend: Arc<DurableBackend>,
    repl: Arc<Replicator>,
    fabric: Arc<LoopbackFabric>,
    replicas: Vec<(String, Arc<ReplicaNode>)>,
}

/// A 3-member cluster (primary + 2 replicas), majority quorum, per-write
/// fsync everywhere: each script op is exactly one replication record and
/// one delivery per healthy link.
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
        backend,
        repl,
        fabric,
        replicas,
    }
}

fn part1() -> Vec<ScriptOp> {
    vec![
        ScriptOp::Insert("a".into(), 1),
        ScriptOp::Insert("b".into(), 2),
        ScriptOp::Batch((0..4).map(|i| (format!("batch-{i}"), 100 + i)).collect()),
        ScriptOp::Update("a".into(), 10),
    ]
}

fn part2() -> Vec<ScriptOp> {
    vec![
        ScriptOp::Insert("c".into(), 3),
        ScriptOp::Update("b".into(), 20),
        ScriptOp::Batch((0..3).map(|i| (format!("tail-{i}"), 200 + i)).collect()),
        ScriptOp::Delete("a".into()),
        ScriptOp::Insert("d".into(), 4),
        ScriptOp::Update("c".into(), 30),
        ScriptOp::Insert("e".into(), 5),
        ScriptOp::Delete("b".into()),
    ]
}

/// The headline sweep body: replica r1 partitioned after `k` records of
/// part 2, the primary partitioned after `j` records of part 2, then
/// failover, rejoin, convergence. Returns the converged encoded image.
fn failover_at(k: u64, j: u64) -> Vec<u8> {
    let script1 = part1();
    let script2 = part2();
    let full: Vec<ScriptOp> = script1.iter().chain(script2.iter()).cloned().collect();
    let images = prefix_images(&full);

    let cl = cluster();
    run_script(&cl.db, &script1);
    assert_eq!(cl.repl.quorum_acked_seq(), script1.len() as u64);

    // Partition the replica after k more records, the primary (both links)
    // after j more — every record boundary of part 2 is covered by the
    // caller's (k, j) grid.
    cl.fabric.sever_after(PRIMARY, "r1", k);
    cl.fabric.sever_after(PRIMARY, "r2", j);
    run_script(&cl.db, &script2);
    if j >= script2.len() as u64 {
        // The cut never fired mid-script: partition now, at the last
        // boundary.
        cl.fabric.sever(PRIMARY, "r1");
        cl.fabric.sever(PRIMARY, "r2");
    }
    let watermark = cl.repl.quorum_acked_seq();
    // Quorum 2 = primary + the longer-connected replica: the watermark is
    // exactly part1 + the later cut point.
    let expect_watermark = script1.len() as u64 + k.max(j).min(script2.len() as u64);
    assert_eq!(watermark, expect_watermark, "k={k} j={j}");

    // Failover: both replicas survive (2 ≥ members − quorum + 1 = 2); the
    // longest acked prefix wins.
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

    // Theorem 1: nothing quorum-acked is ever lost.
    assert!(
        new_repl.promotion_seq() >= watermark,
        "k={k} j={j}: promotion at {} lost acked writes (watermark {watermark})",
        new_repl.promotion_seq()
    );

    // The deposed primary rejoins: its unacked tail (everything past the
    // promotion point) is truncated, then it catches up under the new term.
    let old_node = cl.repl.to_node(FsyncPolicy::PerWrite);
    cl.fabric.register("old-primary", old_node.clone());
    cl.fabric.heal(promotee, "old-primary");
    for (id, _) in &cl.replicas {
        cl.fabric.heal(promotee, id);
    }
    new_repl.admit("old-primary");
    new_repl.ship_all();
    for (id, _) in &cl.replicas {
        if id != promotee {
            assert!(
                new_repl.catch_up(id),
                "k={k} j={j}: {id} failed to catch up"
            );
        }
    }
    assert!(new_repl.catch_up("old-primary"), "k={k} j={j}");

    // The demoted host swaps its durable image for the truncated history
    // (the promotion/truncation seam in durable.rs).
    assert!(cl.backend.install_image(old_node.image()));
    assert_eq!(cl.backend.encoded_image(), old_node.encoded_image());

    // Theorem 2: single history — everyone converges to the new primary's
    // image, which is apply(prefix) of the original script with
    // prefix ≥ watermark.
    let converged = encode_store(&new_repl.image());
    assert_eq!(old_node.encoded_image(), converged, "k={k} j={j}");
    for (id, node) in &cl.replicas {
        if id != promotee {
            assert_eq!(node.encoded_image(), converged, "k={k} j={j}: {id}");
        }
    }
    let prefix = images
        .iter()
        .rposition(|img| *img == converged)
        .unwrap_or_else(|| panic!("k={k} j={j}: converged image matches no script prefix"));
    assert!(
        prefix as u64 >= watermark,
        "k={k} j={j}: converged prefix {prefix} < watermark {watermark}"
    );
    converged
}

/// The headline test: partition a replica, then the primary, at every
/// replication-stream record boundary.
#[test]
fn every_partition_point_failover_preserves_quorum_acked_writes() {
    let n = part2().len() as u64;
    // k = replica cut boundary, j = primary cut boundary. The j < k corner
    // (primary partitioned before the replica's own cut fires) and the
    // j = n corner (primary partitioned only after the full script) are
    // both in the grid. Diagonal + edges keep the sweep O(3n) while still
    // hitting every boundary in both roles.
    for k in 0..=n {
        for j in [0, k.saturating_sub(1), k, n] {
            failover_at(k, j);
        }
    }
}

/// Theorem 3: the sweep is deterministic — every boundary's converged
/// image is byte-identical across runs.
#[test]
fn failover_sweep_is_deterministic() {
    let n = part2().len() as u64;
    let run = || -> Vec<Vec<u8>> { (0..=n).map(|k| failover_at(k, n)).collect() };
    assert_eq!(run(), run());
}

/// A replica that crashes (power loss on its own WAL) mid-stream rejoins
/// with only its durable prefix and catches back up — composition of the
/// PR-7 crash semantics with shipping.
#[test]
fn replica_crash_mid_stream_recovers_and_catches_up() {
    let cl = cluster();
    run_script(&cl.db, &part1());
    let r1 = &cl.replicas[0].1;
    let wal_len = {
        use ogsa_xmldb::wal::WalMedium;
        r1.sim_medium().len()
    };
    // Tear r1's WAL a few bytes into its next record.
    r1.sim_medium()
        .arm(ogsa_xmldb::CrashPoint::AtByte(wal_len + 7));
    run_script(&cl.db, &part2());
    assert!(r1.sim_medium().crashed());
    // The un-crashed member kept the quorum going.
    let total = (part1().len() + part2().len()) as u64;
    assert_eq!(cl.repl.quorum_acked_seq(), total);
    r1.recover();
    assert!(r1.last_seq() >= part1().len() as u64);
    assert!(r1.last_seq() < total);
    assert!(cl.repl.catch_up("r1"));
    assert_eq!(r1.last_seq(), total);
    assert_eq!(r1.encoded_image(), encode_store(&cl.repl.image()));
}

/// Compaction on the primary forces snapshot + suffix catch-up, and the
/// converged image still matches the script prefix oracle. At scale, an
/// empty replica catches up through a 2 000-op compacted base and a 500-op
/// log suffix in under 10 s of wall time.
#[test]
fn catch_up_through_compaction_converges() {
    let cl = cluster();
    run_script(&cl.db, &part1());
    cl.fabric.sever(PRIMARY, "r1");
    run_script(&cl.db, &part2());
    cl.repl.compact();
    cl.fabric.heal(PRIMARY, "r1");
    assert!(cl.repl.catch_up("r1"));
    let full: Vec<ScriptOp> = part1().into_iter().chain(part2()).collect();
    let images = prefix_images(&full);
    assert_eq!(cl.replicas[0].1.encoded_image(), *images.last().unwrap());
    assert_eq!(cl.replicas[0].1.acked_seq(), full.len() as u64);

    let inserts = |keys: std::ops::Range<i64>| -> Vec<ScriptOp> {
        keys.map(|i| ScriptOp::Insert(format!("k{i}"), i)).collect()
    };
    let cl = cluster();
    cl.fabric.sever(PRIMARY, "r2");
    run_script(&cl.db, &inserts(0..2_000));
    cl.repl.compact();
    run_script(&cl.db, &inserts(2_000..2_500));
    cl.fabric.heal(PRIMARY, "r2");
    let start = Instant::now();
    assert!(cl.repl.catch_up("r2"));
    let took = start.elapsed();
    assert!(took < Duration::from_secs(10), "catch-up took {took:?}");
    assert_eq!(cl.replicas[1].1.acked_seq(), 2_500);
    assert_eq!(
        cl.replicas[1].1.encoded_image(),
        encode_store(&cl.repl.image())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sweep, generalised: any generated write script, any partition
    /// schedule (independent cut points per replica), promotion of the
    /// longest-acked survivor converges every member to apply(prefix) with
    /// prefix ≥ the quorum-acked watermark at partition time.
    #[test]
    fn any_script_and_partition_schedule_converges_past_the_watermark(
        raw in proptest::collection::vec((0..4u8, any::<u64>()), 1..14),
        cut1 in any::<u64>(),
        cut2 in any::<u64>(),
    ) {
        let script = derive_script(&raw);
        let images = prefix_images(&script);
        let n = script.len() as u64;
        let k1 = cut1 % (n + 1);
        let k2 = cut2 % (n + 1);

        let cl = cluster();
        cl.fabric.sever_after(PRIMARY, "r1", k1);
        cl.fabric.sever_after(PRIMARY, "r2", k2);
        run_script(&cl.db, &script);
        cl.fabric.sever(PRIMARY, "r1");
        cl.fabric.sever(PRIMARY, "r2");
        let watermark = cl.repl.quorum_acked_seq();
        prop_assert_eq!(watermark, k1.max(k2));

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
        .expect("two survivors");
        prop_assert!(new_repl.promotion_seq() >= watermark);

        // Rejoin the deposed primary and converge everyone.
        let old_node = cl.repl.to_node(FsyncPolicy::PerWrite);
        cl.fabric.register("old-primary", old_node.clone());
        for peer in ["r1", "r2", "old-primary"] {
            cl.fabric.heal(promotee, peer);
        }
        new_repl.admit("old-primary");
        for (id, _) in &cl.replicas {
            if id != promotee {
                prop_assert!(new_repl.catch_up(id));
            }
        }
        prop_assert!(new_repl.catch_up("old-primary"));

        let converged = encode_store(&new_repl.image());
        prop_assert_eq!(&old_node.encoded_image(), &converged);
        for (id, node) in &cl.replicas {
            if id != promotee {
                prop_assert_eq!(&node.encoded_image(), &converged);
            }
        }
        let prefix = images.iter().rposition(|img| *img == converged);
        prop_assert!(prefix.is_some(), "converged image matches no prefix");
        prop_assert!(prefix.unwrap() as u64 >= watermark);
    }
}
