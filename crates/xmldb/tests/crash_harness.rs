//! The crash harness: deterministic torn-write injection over the durable
//! backend's WAL, proving the recovery invariants the design promises.
//!
//! Three invariants are checked at **every** injected crash point:
//!
//! 1. **Prefix consistency** — the recovered store equals the result of
//!    applying some whole-op prefix of the logged operation sequence. No
//!    crash can reorder ops, apply a suffix without its prefix, or
//!    half-apply a single op.
//! 2. **No acked loss** — the recovered prefix is at least as long as the
//!    op watermark that was acknowledged durable (fsynced or snapshotted)
//!    at the instant of the crash.
//! 3. **Batch atomicity** — a [`Collection::insert_many`] batch is one WAL
//!    record, so every recovered state contains either all of a batch's
//!    documents or none of them.
//!
//! The sweep is exhaustive (every WAL byte offset, every fsync boundary),
//! the property suite generalises it over generated scripts and policies
//! (the vendored proptest shim is fully deterministic — fixed per-case
//! seeds), and the garbled-WAL corpus reuses the PR-1 seeded fault
//! machinery ([`FaultPlan`] + `mix64`) to corrupt single bits anywhere in
//! the log.
//!
//! [`Collection::insert_many`]: ogsa_xmldb::Collection::insert_many

use std::sync::Arc;
use std::time::{Duration, Instant};

use ogsa_sim::rng::mix64;
use ogsa_sim::{CostModel, VirtualClock};
use ogsa_transport::FaultPlan;
use ogsa_xmldb::snapshot::decode_store;
use ogsa_xmldb::wal::{decode_records, WalMedium, RECORD_HEADER};
use ogsa_xmldb::{BackendKind, CrashPoint, Database, DurableBackend, DurableConfig, FsyncPolicy};
use proptest::prelude::*;

mod script;
use script::{derive_script, doc, prefix_images, run_script, ScriptOp, COLL};

fn fresh(cfg: DurableConfig) -> (Database, Arc<DurableBackend>) {
    let backend = Arc::new(DurableBackend::sim(cfg));
    let db = Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::free()),
        BackendKind::Custom(backend.clone()),
    );
    (db, backend)
}

fn no_snapshots(fsync: FsyncPolicy) -> DurableConfig {
    DurableConfig {
        fsync,
        snapshot_every: 0,
    }
}

/// Invariants 1 + 2: the recovered image equals some whole-op prefix at
/// least as long as the acked watermark. Returns the prefix length.
/// (`rposition`, not `position`: a script can revisit an earlier state —
/// insert/delete/insert — and the *latest* matching prefix is the witness.)
fn assert_prefix_consistent(
    backend: &DurableBackend,
    images: &[Vec<u8>],
    acked_at_crash: u64,
    ctx: &str,
) -> usize {
    let recovered = backend.encoded_image();
    let j = images
        .iter()
        .rposition(|img| *img == recovered)
        .unwrap_or_else(|| panic!("{ctx}: recovered store matches no whole-op prefix"));
    assert!(
        j as u64 >= acked_at_crash,
        "{ctx}: lost an acked write — longest matching prefix {j} < acked {acked_at_crash}"
    );
    j
}

/// Invariant 3: every batch in the script is wholly present or wholly
/// absent from the recovered store.
fn assert_batches_atomic(backend: &DurableBackend, ops: &[ScriptOp], ctx: &str) {
    let image = decode_store(&backend.encoded_image()).expect("recovered image decodes");
    let empty = std::collections::BTreeMap::new();
    let docs = image.get(COLL).unwrap_or(&empty);
    for (i, op) in ops.iter().enumerate() {
        if let ScriptOp::Batch(entries) = op {
            let present = entries.iter().filter(|(k, _)| docs.contains_key(k)).count();
            assert!(
                present == 0 || present == entries.len(),
                "{ctx}: batch #{i} half-applied ({present}/{} keys survived)",
                entries.len()
            );
        }
    }
}

/// A fixed mixed script: singles, an 8-document batch, updates, deletes.
/// No key in the batch is ever touched again, so batch atomicity stays
/// observable in every recovered state.
fn mixed_script() -> Vec<ScriptOp> {
    let mut ops = vec![
        ScriptOp::Insert("a".into(), 1),
        ScriptOp::Insert("b".into(), 2),
        ScriptOp::Insert("c".into(), 3),
        ScriptOp::Update("b".into(), 20),
        ScriptOp::Batch((0..8).map(|i| (format!("batch-{i}"), 100 + i)).collect()),
        ScriptOp::Delete("a".into()),
        ScriptOp::Insert("d".into(), 4),
        ScriptOp::Update("c".into(), 30),
        ScriptOp::Delete("b".into()),
        ScriptOp::Insert("e".into(), 5),
    ];
    ops.push(ScriptOp::Batch(
        (0..3).map(|i| (format!("tail-{i}"), 200 + i)).collect(),
    ));
    ops
}

/// Crash the script at WAL byte offset `at`, recover, and check all three
/// invariants. Returns (acked at crash, recovered prefix length, report).
fn crash_at_byte(
    cfg: DurableConfig,
    ops: &[ScriptOp],
    images: &[Vec<u8>],
    at: u64,
) -> (u64, usize, ogsa_xmldb::RecoveryReport) {
    let (db, backend) = fresh(cfg);
    backend
        .sim_medium()
        .expect("sim backend")
        .arm(CrashPoint::AtByte(at));
    run_script(&db, ops);
    let acked = backend.acked_ops();
    let report = backend.recover();
    let ctx = format!("crash at byte {at}");
    let j = assert_prefix_consistent(&backend, images, acked, &ctx);
    assert_batches_atomic(&backend, ops, &ctx);
    (acked, j, report)
}

#[test]
fn every_wal_byte_offset_crash_recovers_a_consistent_prefix() {
    let ops = mixed_script();
    let images = prefix_images(&ops);
    let cfg = no_snapshots(FsyncPolicy::PerWrite);

    // Clean run: learn the total log length and confirm full recovery.
    let (db, backend) = fresh(cfg);
    run_script(&db, &ops);
    let total = backend.wal_len();
    assert!(total > 0);
    let report = backend.recover();
    assert_eq!(report.wal_records_replayed, ops.len());
    assert_eq!(report.torn, None);
    assert_eq!(backend.encoded_image(), *images.last().unwrap());

    // Exhaustive sweep: a crash at every single byte offset of the log.
    for at in 0..=total {
        let (acked, j, report) = crash_at_byte(cfg, &ops, &images, at);
        // Without snapshots the witness prefix is exactly the replay count,
        // and per-write fsync means every completed append was acked.
        assert_eq!(j, report.wal_records_replayed, "crash at byte {at}");
        assert_eq!(acked, report.wal_records_replayed as u64, "at byte {at}");
        if at < total {
            assert!(j < ops.len(), "crash at byte {at} lost nothing?");
        } else {
            assert_eq!(j, ops.len());
        }
    }
}

#[test]
fn every_fsync_boundary_crash_loses_exactly_the_unsynced_tail() {
    // Singles only: with GroupCommit(3) the k-th sync covers 3(k+1) ops,
    // so a crash at sync k must recover exactly 3k ops.
    let ops: Vec<ScriptOp> = (0..12)
        .map(|i| ScriptOp::Insert(format!("k{i}"), i))
        .collect();
    let images = prefix_images(&ops);
    let cfg = no_snapshots(FsyncPolicy::GroupCommit(3));

    let (db, backend) = fresh(cfg);
    run_script(&db, &ops);
    let total_syncs = backend.fsyncs();
    assert_eq!(total_syncs, 4);

    for k in 0..total_syncs {
        let (db, backend) = fresh(cfg);
        backend.sim_medium().unwrap().arm(CrashPoint::AtSync(k));
        run_script(&db, &ops);
        let acked = backend.acked_ops();
        assert_eq!(acked, 3 * k, "acked watermark before sync {k}");
        let report = backend.recover();
        let j = assert_prefix_consistent(&backend, &images, acked, &format!("crash at sync {k}"));
        // The whole unsynced tail is lost, nothing more: recovery lands
        // exactly on the watermark.
        assert_eq!(j as u64, acked, "crash at sync {k}");
        assert_eq!(report.torn, None, "a sync-boundary image is never torn");
    }
}

#[test]
fn snapshot_compaction_under_crash_sweep_preserves_acked_prefixes() {
    let ops = mixed_script();
    let images = prefix_images(&ops);
    let cfg = DurableConfig {
        fsync: FsyncPolicy::PerWrite,
        snapshot_every: 4,
    };

    // Bound the sweep by the *uncompacted* log length: compaction only ever
    // shortens the live log, so every reachable offset is covered (offsets
    // beyond the live log simply never fire — a clean full recovery).
    let (db, backend) = fresh(no_snapshots(FsyncPolicy::PerWrite));
    run_script(&db, &ops);
    let bound = backend.wal_len();

    let mut crashed = 0u32;
    for at in 0..=bound {
        let (db, backend) = fresh(cfg);
        backend.sim_medium().unwrap().arm(CrashPoint::AtByte(at));
        run_script(&db, &ops);
        if backend.sim_medium().unwrap().crashed() {
            crashed += 1;
        }
        let acked = backend.acked_ops();
        let report = backend.recover();
        let ctx = format!("snapshotting crash at byte {at}");
        let j = assert_prefix_consistent(&backend, &images, acked, &ctx);
        assert_batches_atomic(&backend, &ops, &ctx);
        // The snapshot base plus the replayed tail reconstruct the prefix:
        // the replay alone is at most the whole script.
        assert!(report.wal_records_replayed <= ops.len());
        assert!(j <= ops.len());
    }
    assert!(crashed > 0, "the sweep never hit the live log");

    // A crash *after* a snapshot recovers through the snapshot: arm beyond
    // anything the compacted log reaches and verify the base is used.
    let (db, backend) = fresh(cfg);
    run_script(&db, &ops);
    let report = backend.recover();
    assert!(report.used_snapshot);
    assert_eq!(backend.encoded_image(), *images.last().unwrap());
}

#[test]
fn recovery_is_deterministic_at_every_sampled_crash_point() {
    let ops = mixed_script();
    let images = prefix_images(&ops);
    let cfg = no_snapshots(FsyncPolicy::PerWrite);
    let (db, backend) = fresh(cfg);
    run_script(&db, &ops);
    let total = backend.wal_len();

    for at in (0..=total).step_by(7) {
        let run = || {
            let (db, backend) = fresh(cfg);
            backend.sim_medium().unwrap().arm(CrashPoint::AtByte(at));
            run_script(&db, &ops);
            backend.recover();
            backend.encoded_image()
        };
        let first = run();
        assert_eq!(first, run(), "recovery diverged at byte {at}");
        assert!(images.contains(&first));
    }
}

#[test]
fn garbled_wal_corpus_truncates_at_the_corrupted_record() {
    // Build one clean log, then corrupt a seeded-random bit per corpus
    // entry using the PR-1 fault machinery (FaultPlan decides, mix64
    // places) and check the decoder truncates at exactly that record.
    let ops = mixed_script();
    let (db, backend) = fresh(no_snapshots(FsyncPolicy::PerWrite));
    run_script(&db, &ops);
    let medium = backend.sim_medium().unwrap();
    let clean = medium.durable_image();
    let (clean_ops, clean_len, torn) = decode_records(&clean);
    assert_eq!(torn, None);
    assert_eq!(clean_len, clean.len());
    assert_eq!(clean_ops.len(), ops.len());

    // Record start offsets, from the framing alone.
    let mut starts = Vec::new();
    let mut pos = 0usize;
    while pos < clean.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(clean[pos..pos + 4].try_into().unwrap()) as usize;
        pos += RECORD_HEADER + len;
    }
    assert_eq!(starts.len(), ops.len());

    let at = VirtualClock::new().now();
    let mut hit_records = std::collections::BTreeSet::new();
    for seq in 0..96u64 {
        let plan = FaultPlan::seeded(0xD15C ^ seq).with_garbles(1.0);
        let decision = plan.decide("wal", "disk", seq, at);
        assert!(decision.garble, "p=1.0 always garbles");
        let target = (mix64(&[plan.seed(), seq, 1]) % clean.len() as u64) as usize;
        let bit = mix64(&[plan.seed(), seq, 2]) % 8;

        let mut corrupt = clean.clone();
        corrupt[target] ^= 1 << bit;
        let (got, valid, torn) = decode_records(&corrupt);

        // The record containing the flipped bit — and everything after it —
        // is discarded; everything before survives verbatim.
        let rec = starts.partition_point(|&s| s <= target) - 1;
        hit_records.insert(rec);
        assert_eq!(got.len(), rec, "corpus #{seq}: bit {bit} of byte {target}");
        assert_eq!(valid, starts[rec]);
        assert!(torn.is_some());
        assert_eq!(got.as_slice(), &clean_ops[..rec]);
    }
    // The corpus actually spread over the log, not one lucky record.
    assert!(hit_records.len() >= ops.len() / 2, "corpus too clustered");
}

#[test]
fn recovered_store_matches_a_plain_oracle_after_clean_shutdown() {
    // Independent cross-check of the replay semantics: a plain map driven
    // by the script (no WAL code involved) agrees with the recovered store
    // document by document.
    let ops = mixed_script();
    let mut oracle: std::collections::BTreeMap<String, i64> = Default::default();
    for op in &ops {
        match op {
            ScriptOp::Insert(k, v) | ScriptOp::Update(k, v) => {
                oracle.insert(k.clone(), *v);
            }
            ScriptOp::Delete(k) => {
                oracle.remove(k);
            }
            ScriptOp::Batch(entries) => {
                for (k, v) in entries {
                    oracle.insert(k.clone(), *v);
                }
            }
        }
    }

    let (db, backend) = fresh(no_snapshots(FsyncPolicy::PerWrite));
    run_script(&db, &ops);
    backend.recover();
    let (db2, _) = {
        let db2 = Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(backend.clone()),
        );
        backend.restore_into(&db2);
        (db2, ())
    };
    let c = db2.collection(COLL);
    for (k, v) in &oracle {
        assert_eq!(
            c.get(k)
                .unwrap_or_else(|| panic!("{k} missing"))
                .child_parse::<i64>("value"),
            Some(*v)
        );
    }
    assert_eq!(backend.doc_count(), oracle.len());
}

/// Sweep a crash over every snapshot-install point: the staged image (the
/// `*.tmp` analogue) is orphaned between staging and publish, the backend
/// goes disk-died, and recovery sweeps exactly one orphan while preserving
/// every acked write — the failed install never truncated the WAL, so the
/// log still covers everything the lost snapshot would have.
#[test]
fn crash_during_snapshot_install_sweeps_the_orphan_and_loses_nothing() {
    let ops = mixed_script();
    let images = prefix_images(&ops);
    let cfg = DurableConfig {
        fsync: FsyncPolicy::PerWrite,
        snapshot_every: 4,
    };

    // Dry run: count the installs the script triggers, and check a clean
    // recovery reports zero orphans.
    let (db, backend) = fresh(cfg);
    run_script(&db, &ops);
    let installs = backend.sim_snapshot_medium().unwrap().installs();
    assert!(installs >= 2, "script must trigger multiple installs");
    assert_eq!(backend.recover().orphan_snapshots_removed, 0);

    for k in 0..installs {
        let (db, backend) = fresh(cfg);
        let snap = backend.sim_snapshot_medium().unwrap().clone();
        snap.arm_install_crash(k);
        run_script(&db, &ops);
        let ctx = format!("crash inside snapshot install #{k}");
        assert!(backend.has_failed(), "{ctx}: disk-died semantics");
        assert!(snap.has_orphan(), "{ctx}: staged image left behind");
        let acked = backend.acked_ops();
        let report = backend.recover();
        assert_eq!(report.orphan_snapshots_removed, 1, "{ctx}");
        assert!(!snap.has_orphan(), "{ctx}: orphan not swept");
        let j = assert_prefix_consistent(&backend, &images, acked, &ctx);
        assert_batches_atomic(&backend, &ops, &ctx);
        assert!(j as u64 >= acked, "{ctx}");
    }
}

/// The file medium, end to end: a stale `snapshot.tmp` planted beside the
/// WAL (what a real crash between tmp-write and rename leaves) is removed
/// by recovery and never read as a snapshot.
#[test]
fn file_backend_recovery_sweeps_orphan_snapshot_tmp() {
    let dir = std::env::temp_dir().join(format!("ogsa-orphan-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend =
        Arc::new(DurableBackend::file(&dir, no_snapshots(FsyncPolicy::PerWrite)).expect("tmp dir"));
    let db = Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::free()),
        BackendKind::Custom(backend.clone()),
    );
    let ops = mixed_script();
    run_script(&db, &ops);
    std::fs::write(dir.join("snapshot.tmp"), b"half-written snapshot").expect("plant orphan");
    let report = backend.recover();
    assert_eq!(report.orphan_snapshots_removed, 1);
    assert!(!dir.join("snapshot.tmp").exists());
    assert_eq!(
        backend.encoded_image(),
        *prefix_images(&ops).last().unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The file medium at scale: a group-commit log takes writes at least as
/// fast as the calibrated simulated disk the paper measured (1e6 /
/// `db_insert_us` inserts a second), and a fresh backend replays 2 000 of
/// them in under 10 s of wall time.
#[test]
fn file_backend_outruns_the_simulated_disk_and_recovers_2000_ops_under_10s() {
    const OPS: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("ogsa-recovery-bound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = no_snapshots(FsyncPolicy::GroupCommit(8));
    {
        let backend = Arc::new(DurableBackend::file(&dir, cfg).expect("tmp dir"));
        let db = Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(backend),
        );
        let c = db.collection(COLL);
        let start = Instant::now();
        for i in 0..OPS {
            c.insert(&format!("k{i}"), doc(i as i64)).unwrap();
        }
        let rate = OPS as f64 / start.elapsed().as_secs_f64();
        let simdisk = 1e6 / CostModel::calibrated_2005().db_insert_us as f64;
        assert!(
            rate >= simdisk,
            "group commit {rate:.1}/s < simulated disk {simdisk:.1}/s"
        );
    }
    let backend = DurableBackend::file(&dir, cfg).expect("reopen");
    let start = Instant::now();
    let report = backend.recover();
    let took = start.elapsed();
    assert_eq!(report.wal_records_replayed, OPS);
    assert!(took < Duration::from_secs(10), "recovery took {took:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exhaustive sweep, generalised: any generated script, any fsync
    /// policy, any crash offset — recovery is a prefix no shorter than the
    /// acked watermark, with batches atomic.
    #[test]
    fn any_script_policy_and_crash_offset_recovers_a_prefix(
        raw in proptest::collection::vec((0..4u8, any::<u64>()), 1..16),
        frac in 0..=1000u64,
        policy_pick in 0..3u8,
    ) {
        let ops = derive_script(&raw);
        let images = prefix_images(&ops);
        let policy = match policy_pick {
            0 => FsyncPolicy::PerWrite,
            1 => FsyncPolicy::GroupCommit(3),
            _ => FsyncPolicy::Never,
        };
        let cfg = no_snapshots(policy);

        // Clean run to size the log, then crash at a proportional offset.
        let (db, backend) = fresh(cfg);
        run_script(&db, &ops);
        let total = backend.wal_len();
        let at = total * frac / 1000;

        let (db, backend) = fresh(cfg);
        backend.sim_medium().unwrap().arm(CrashPoint::AtByte(at));
        run_script(&db, &ops);
        let acked = backend.acked_ops();
        let report = backend.recover();
        let ctx = format!("policy {policy:?}, crash at {at}/{total}");
        let j = assert_prefix_consistent(&backend, &images, acked, &ctx);
        assert_batches_atomic(&backend, &ops, &ctx);
        prop_assert!(report.wal_records_replayed as u64 >= acked);
        prop_assert!(j >= report.wal_records_replayed, "{}", ctx);
    }

    /// Acked-write durability, stated directly: whatever the script and
    /// wherever the crash lands, every op at or below the acked watermark
    /// is reflected in the recovered store.
    #[test]
    fn fsynced_writes_are_never_lost(
        raw in proptest::collection::vec((0..4u8, any::<u64>()), 1..12),
        frac in 0..=1000u64,
    ) {
        let ops = derive_script(&raw);
        let images = prefix_images(&ops);
        let cfg = no_snapshots(FsyncPolicy::PerWrite);

        let (db, backend) = fresh(cfg);
        run_script(&db, &ops);
        let total = backend.wal_len();
        let at = total * frac / 1000;

        let (db, backend) = fresh(cfg);
        backend.sim_medium().unwrap().arm(CrashPoint::AtByte(at));
        run_script(&db, &ops);
        let acked = backend.acked_ops() as usize;
        backend.recover();
        // The acked prefix image is contained in the recovered state: since
        // recovery lands exactly on a prefix >= acked, comparing against
        // the acked prefix image via the witness is exact.
        let j = assert_prefix_consistent(&backend, &images, acked as u64, "fsync durability");
        prop_assert!(j >= acked);
    }
}
