//! `ogsa-bench durability`: prices the WAL's fsync policies on real
//! hardware and times crash recovery, written to `BENCH_durability.json`.
//!
//! Every row is a file-backed [`DurableBackend`] under the system temp
//! directory, beside the insert rate the calibrated simulated disk implies
//! (1e6 / `db_insert_us`). The crash-sweep invariants, the recovery bound
//! and group commit outrunning that disk are asserted in
//! `crates/xmldb/tests/crash_harness.rs`.

use std::sync::Arc;
use std::time::Instant;

use ogsa_core::sim::{CostModel, VirtualClock};
use ogsa_core::xmldb::{BackendKind, Database, DurableBackend, DurableConfig, FsyncPolicy};

use crate::fixture::{doc, COLL};
use crate::json_array;

fn fresh_db(backend: Arc<DurableBackend>) -> Database {
    Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::free()),
        BackendKind::Custom(backend),
    )
}

struct PolicyRow {
    label: &'static str,
    ops: usize,
    wall_ms: f64,
    rps: f64,
}

fn bench_policy(
    dir: &std::path::Path,
    label: &'static str,
    policy: FsyncPolicy,
    ops: usize,
) -> PolicyRow {
    let sub = dir.join(label);
    let _ = std::fs::remove_dir_all(&sub);
    let backend = Arc::new(
        DurableBackend::file(
            &sub,
            DurableConfig {
                fsync: policy,
                snapshot_every: 0,
            },
        )
        .expect("create bench wal dir"),
    );
    let db = fresh_db(backend.clone());
    let c = db.collection(COLL);
    let start = Instant::now();
    for i in 0..ops {
        c.insert(&format!("k{i}"), doc(i as i64)).unwrap();
    }
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&sub);
    PolicyRow {
        label,
        ops,
        wall_ms: wall.as_secs_f64() * 1e3,
        rps: ops as f64 / wall.as_secs_f64().max(1e-9),
    }
}

fn recovery_time(dir: &std::path::Path, ops: usize) -> (usize, f64) {
    let sub = dir.join("recovery");
    let _ = std::fs::remove_dir_all(&sub);
    let cfg = DurableConfig {
        fsync: FsyncPolicy::GroupCommit(64),
        snapshot_every: 0,
    };
    {
        let backend = Arc::new(DurableBackend::file(&sub, cfg).expect("create recovery dir"));
        let db = fresh_db(backend.clone());
        let c = db.collection(COLL);
        for i in 0..ops {
            c.insert(&format!("k{i}"), doc(i as i64)).unwrap();
        }
    }
    // A brand-new process-equivalent: reopen and replay the whole log.
    let backend = Arc::new(DurableBackend::file(&sub, cfg).expect("reopen recovery dir"));
    let start = Instant::now();
    let report = backend.recover();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&sub);
    (report.wal_records_replayed, wall_ms)
}

pub fn run() -> Vec<(&'static str, String)> {
    let tmp = std::env::temp_dir().join(format!("ogsa-durability-bench-{}", std::process::id()));

    let recovery_ops = 2_000;
    let (replayed, recovery_ms) = recovery_time(&tmp, recovery_ops);

    let simdisk_rps = 1e6 / CostModel::calibrated_2005().db_insert_us as f64;
    let rows = vec![
        bench_policy(&tmp, "per_write", FsyncPolicy::PerWrite, 300),
        bench_policy(&tmp, "group_commit_8", FsyncPolicy::GroupCommit(8), 1_000),
        bench_policy(&tmp, "never", FsyncPolicy::Never, 1_000),
    ];
    let _ = std::fs::remove_dir_all(&tmp);

    println!("recovery: {replayed} records replayed in {recovery_ms:.1} ms");
    println!(
        "{:<16} {:>8} {:>10} {:>10}   (simdisk implied: {:.1} rps)",
        "policy", "ops", "wall ms", "rps", simdisk_rps
    );
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>10.1} {:>10.1}",
            r.label, r.ops, r.wall_ms, r.rps
        );
    }

    let rows_json = json_array(rows.iter().map(|r| {
        format!(
            "{{\"policy\":\"{}\",\"ops\":{},\"wall_ms\":{:.3},\"rps\":{:.1}}}",
            r.label, r.ops, r.wall_ms, r.rps
        )
    }));
    vec![(
        "BENCH_durability.json",
        format!(
            concat!(
                "{{\"benchmark\":\"durability\",",
                "\"recovery\":{{\"ops\":{},\"replayed\":{},\"wall_ms\":{:.3}}},",
                "\"simdisk_implied_rps\":{:.1},",
                "\"throughput\":{}}}\n"
            ),
            recovery_ops, replayed, recovery_ms, simdisk_rps, rows_json,
        ),
    )]
}
