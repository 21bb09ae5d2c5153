//! Append-only write-ahead log: record framing, fsync policies, and the
//! crash-injectable storage media behind [`crate::DurableBackend`].
//!
//! Every mutation the durable backend observes becomes exactly one framed
//! record: `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`. A batch
//! insert is **one** record, so a torn write can never half-apply a batch.
//! Recovery scans the log front to back and truncates at the first record
//! that is incomplete, fails its CRC, or does not decode — everything before
//! that point is replayed, everything after is discarded.
//!
//! The log writes through a [`WalMedium`]. Two media are provided:
//!
//! * [`SimMedium`] — in-memory, with a deterministic torn-write injector:
//!   arm a [`CrashPoint`] and the medium "loses power" at an exact appended
//!   byte offset (or at the k-th fsync boundary). The surviving image is
//!   every fsynced byte plus the unsynced tail up to the crash offset —
//!   sweeping the offset over the whole log exercises every possible torn
//!   record. The crash-harness suite drives this under seeded schedules.
//! * [`FileMedium`] — a real file with real `fsync`, used by the durability
//!   bench to price the fsync policies against the calibrated simulated
//!   disk.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_xml::{parse, pooled_string, write_document_into, Element};
use parking_lot::Mutex;

/// IEEE CRC-32 lookup table, built at compile time (dependency-free).
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Bytes of framing overhead per record (length + CRC words).
pub const RECORD_HEADER: usize = 8;

/// One logged mutation. `Put` covers insert and update (the log is
/// last-writer-wins: replaying an op sequence onto a state that already
/// reflects it is a no-op, which is what makes snapshot compaction safe to
/// tear between snapshot install and log truncation).
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert or update one document.
    Put {
        collection: String,
        key: String,
        doc: Element,
    },
    /// Delete one document.
    Delete { collection: String, key: String },
    /// A whole [`crate::Collection::insert_many`] batch, atomically: the
    /// batch is durable if and only if this single record is intact.
    PutBatch {
        collection: String,
        entries: Vec<(String, Element)>,
    },
}

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_PUT_BATCH: u8 = 3;

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_doc(out: &mut Vec<u8>, doc: &Element) {
    let mut buf = pooled_string();
    write_document_into(doc, &mut buf);
    put_bytes(out, buf.as_bytes());
}

impl WalOp {
    /// Serialize the op into a record payload (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalOp::Put {
                collection,
                key,
                doc,
            } => {
                out.push(TAG_PUT);
                put_bytes(&mut out, collection.as_bytes());
                put_bytes(&mut out, key.as_bytes());
                put_doc(&mut out, doc);
            }
            WalOp::Delete { collection, key } => {
                out.push(TAG_DELETE);
                put_bytes(&mut out, collection.as_bytes());
                put_bytes(&mut out, key.as_bytes());
            }
            WalOp::PutBatch {
                collection,
                entries,
            } => {
                out.push(TAG_PUT_BATCH);
                put_bytes(&mut out, collection.as_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (key, doc) in entries {
                    put_bytes(&mut out, key.as_bytes());
                    put_doc(&mut out, doc);
                }
            }
        }
        out
    }

    /// Decode one record payload; `None` on any malformation.
    pub fn decode(payload: &[u8]) -> Option<WalOp> {
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        let op = match cur.u8()? {
            TAG_PUT => WalOp::Put {
                collection: cur.string()?,
                key: cur.string()?,
                doc: cur.doc()?,
            },
            TAG_DELETE => WalOp::Delete {
                collection: cur.string()?,
                key: cur.string()?,
            },
            TAG_PUT_BATCH => {
                let collection = cur.string()?;
                let n = cur.u32()? as usize;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((cur.string()?, cur.doc()?));
                }
                WalOp::PutBatch {
                    collection,
                    entries,
                }
            }
            _ => return None,
        };
        (cur.pos == payload.len()).then_some(op)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let w = u32::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(w)
    }

    fn slice(&mut self) -> Option<&[u8]> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn string(&mut self) -> Option<String> {
        std::str::from_utf8(self.slice()?).ok().map(str::to_owned)
    }

    fn doc(&mut self) -> Option<Element> {
        let s = std::str::from_utf8(self.slice()?).ok()?;
        parse(s).ok()
    }
}

/// Frame a payload into `out` (length + CRC + payload).
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why recovery stopped scanning the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`RECORD_HEADER`] bytes remained.
    TruncatedHeader,
    /// The declared payload length ran past the end of the log.
    TruncatedPayload,
    /// The payload's CRC-32 did not match its header.
    CrcMismatch,
    /// The CRC held but the payload did not decode as a [`WalOp`] (only
    /// possible for a log written by a different/corrupted encoder).
    MalformedPayload,
}

/// Scan a log image front to back. Returns the decoded records, the byte
/// length of the valid prefix, and why the scan stopped early (if it did).
/// Everything past the first torn record is discarded — a torn tail can
/// only ever lose *suffix* records, never reorder or half-apply one.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalOp>, usize, Option<TornReason>) {
    scan_frames(bytes, WalOp::decode)
}

/// The one scanner over [`frame_record`]'s framing, shared by the WAL and
/// the replication stream: `decode` turns each CRC-checked payload into a
/// record, and the scan stops at the first frame that is short, fails its
/// CRC or does not decode.
pub(crate) fn scan_frames<'a, T>(
    bytes: &'a [u8],
    decode: impl Fn(&'a [u8]) -> Option<T>,
) -> (Vec<T>, usize, Option<TornReason>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (records, pos, None);
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3, ref tail @ ..] = *rest else {
            return (records, pos, Some(TornReason::TruncatedHeader));
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let Some(payload) = tail.get(..len) else {
            return (records, pos, Some(TornReason::TruncatedPayload));
        };
        if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return (records, pos, Some(TornReason::CrcMismatch));
        }
        match decode(payload) {
            Some(record) => records.push(record),
            None => return (records, pos, Some(TornReason::MalformedPayload)),
        }
        pos += RECORD_HEADER + len;
    }
}

/// When appended bytes reach durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: an acked write is a durable write.
    PerWrite,
    /// `fsync` once every `n` records: a crash can lose at most the last
    /// `n-1` *unacked* records; everything through the last sync survives.
    GroupCommit(usize),
    /// Never `fsync` explicitly: durability only via snapshots (and clean
    /// shutdown). The fastest and least safe point of the trade-off.
    Never,
}

/// Where a [`SimMedium`] crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power loss once the log has persisted exactly this many appended
    /// bytes: the write in flight tears at that offset.
    AtByte(u64),
    /// Power loss at the k-th (0-based) fsync call, *before* it completes:
    /// the entire unsynced tail is lost.
    AtSync(u64),
}

/// Storage medium under the log. `append`/`sync` return `false` once the
/// medium has crashed — the backend stops persisting, exactly like a
/// process that lost its disk. `durable_image` is what a recovery started
/// *now* would read.
pub trait WalMedium: Send + Sync {
    fn append(&self, bytes: &[u8]) -> bool;
    fn sync(&self) -> bool;
    fn durable_image(&self) -> Vec<u8>;
    /// Discard the log contents (post-snapshot compaction).
    fn truncate(&self) -> bool;
    /// Total bytes appended so far (for arming byte-offset crash points).
    fn len(&self) -> u64;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Default)]
struct SimState {
    log: Vec<u8>,
    synced_len: usize,
    syncs: u64,
    crash: Option<CrashPoint>,
    crashed: bool,
    /// Image length frozen at the instant of the crash.
    torn_len: usize,
}

/// In-memory medium with deterministic crash injection. See module docs.
#[derive(Debug, Default)]
pub struct SimMedium {
    state: Mutex<SimState>,
}

impl SimMedium {
    pub fn new() -> Arc<SimMedium> {
        Arc::new(SimMedium::default())
    }

    /// Arm a crash point. Only one can be armed at a time; re-arming
    /// replaces it. Has no effect once the medium has already crashed.
    pub fn arm(&self, point: CrashPoint) {
        self.state.lock().crash = Some(point);
    }

    /// Has the armed crash fired?
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Clear the crash state after recovery: the surviving image becomes
    /// the whole log again and appends resume. (The backend calls this as
    /// part of [`crate::DurableBackend::recover`] — the simulated machine
    /// reboots.)
    pub fn revive(&self) {
        let mut s = self.state.lock();
        if s.crashed {
            let torn = s.torn_len;
            s.log.truncate(torn);
        }
        s.synced_len = s.log.len();
        s.crash = None;
        s.crashed = false;
        s.torn_len = 0;
    }
}

impl WalMedium for SimMedium {
    fn append(&self, bytes: &[u8]) -> bool {
        let mut s = self.state.lock();
        if s.crashed {
            return false;
        }
        if let Some(CrashPoint::AtByte(at)) = s.crash {
            let end = s.log.len() as u64 + bytes.len() as u64;
            if end > at {
                // Power loss mid-write: bytes up to `at` hit the platter,
                // everything fsynced earlier is already safe.
                let keep = (at as usize).saturating_sub(s.log.len());
                let keep = keep.min(bytes.len());
                s.log.extend_from_slice(&bytes[..keep]);
                s.torn_len = s.log.len().max(s.synced_len);
                s.crashed = true;
                return false;
            }
        }
        s.log.extend_from_slice(bytes);
        true
    }

    fn sync(&self) -> bool {
        let mut s = self.state.lock();
        if s.crashed {
            return false;
        }
        if let Some(CrashPoint::AtSync(k)) = s.crash {
            if s.syncs == k {
                // Power loss before the sync completes: only previously
                // synced bytes survive.
                s.torn_len = s.synced_len;
                s.crashed = true;
                return false;
            }
        }
        s.synced_len = s.log.len();
        s.syncs += 1;
        true
    }

    fn durable_image(&self) -> Vec<u8> {
        let s = self.state.lock();
        if s.crashed {
            s.log[..s.torn_len.min(s.log.len())].to_vec()
        } else {
            s.log.clone()
        }
    }

    fn truncate(&self) -> bool {
        let mut s = self.state.lock();
        if s.crashed {
            return false;
        }
        s.log.clear();
        s.synced_len = 0;
        true
    }

    fn len(&self) -> u64 {
        self.state.lock().log.len() as u64
    }
}

/// A real append-only log file with real `fsync` (`File::sync_data`), used
/// by the durability bench to measure what each [`FsyncPolicy`] costs on
/// actual hardware.
#[derive(Debug)]
pub struct FileMedium {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl FileMedium {
    /// Open (or create) the log at `path`, appending to existing content.
    pub fn open(path: &Path) -> std::io::Result<Arc<FileMedium>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        Ok(Arc::new(FileMedium {
            path: path.to_owned(),
            file: Mutex::new(file),
        }))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalMedium for FileMedium {
    fn append(&self, bytes: &[u8]) -> bool {
        self.file.lock().write_all(bytes).is_ok()
    }

    fn sync(&self) -> bool {
        self.file.lock().sync_data().is_ok()
    }

    fn durable_image(&self) -> Vec<u8> {
        let mut f = self.file.lock();
        let mut out = Vec::new();
        if f.seek(SeekFrom::Start(0)).is_ok() {
            let _ = f.read_to_end(&mut out);
            let _ = f.seek(SeekFrom::End(0));
        }
        out
    }

    fn truncate(&self) -> bool {
        let f = self.file.lock();
        f.set_len(0).is_ok()
    }

    fn len(&self) -> u64 {
        self.file.lock().metadata().map(|m| m.len()).unwrap_or(0)
    }
}

/// The write-ahead log: frames ops into records, appends them through the
/// medium, and syncs according to the policy. All appends serialise on the
/// caller (the durable backend holds its own lock), so records are never
/// interleaved.
pub struct Wal {
    medium: Arc<dyn WalMedium>,
    policy: FsyncPolicy,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    since_sync: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.policy)
            .field("appends", &self.appends())
            .field("fsyncs", &self.fsyncs())
            .finish_non_exhaustive()
    }
}

/// What happened to one append.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The record (and any policy-mandated sync) fully completed.
    pub ok: bool,
    /// A sync ran *and completed* as part of this append — every record
    /// appended so far is now durable.
    pub synced: bool,
}

impl Wal {
    pub fn new(medium: Arc<dyn WalMedium>, policy: FsyncPolicy) -> Self {
        Wal {
            medium,
            policy,
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            since_sync: AtomicU64::new(0),
        }
    }

    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    pub fn medium(&self) -> &Arc<dyn WalMedium> {
        &self.medium
    }

    /// Records appended (whether or not later lost to a crash).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Completed fsync calls.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Append one op as one framed record and apply the fsync policy.
    pub fn append(&self, op: &WalOp) -> AppendOutcome {
        self.append_payload(&op.encode())
    }

    /// Append an arbitrary pre-encoded payload as one framed record and
    /// apply the fsync policy. Replication logs its `[term|seq]`-headed
    /// records through this, reusing the exact CRC envelope and torn-write
    /// semantics of the op log.
    pub fn append_payload(&self, payload: &[u8]) -> AppendOutcome {
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame_record(payload, &mut record);
        if !self.medium.append(&record) {
            return AppendOutcome::default();
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        let pending = self.since_sync.fetch_add(1, Ordering::Relaxed) + 1;
        let want_sync = match self.policy {
            FsyncPolicy::PerWrite => true,
            FsyncPolicy::GroupCommit(n) => pending >= n.max(1) as u64,
            FsyncPolicy::Never => false,
        };
        // A policy-mandated sync that does not complete fails the append.
        let synced = want_sync && self.sync();
        AppendOutcome {
            ok: synced || !want_sync,
            synced,
        }
    }

    /// Explicit sync (group-commit flush, pre-snapshot barrier).
    pub fn sync(&self) -> bool {
        if !self.medium.sync() {
            return false;
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.since_sync.store(0, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(v: i64) -> Element {
        Element::new("counter").with_child(Element::text_element("value", v.to_string()))
    }

    fn put(k: &str, v: i64) -> WalOp {
        WalOp::Put {
            collection: "c".into(),
            key: k.into(),
            doc: doc(v),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ops_round_trip_through_encode_decode() {
        let ops = vec![
            put("k1", 7),
            WalOp::Delete {
                collection: "c".into(),
                key: "k1".into(),
            },
            WalOp::PutBatch {
                collection: "batch".into(),
                entries: (0..5).map(|i| (format!("b{i}"), doc(i))).collect(),
            },
        ];
        for op in &ops {
            assert_eq!(WalOp::decode(&op.encode()).as_ref(), Some(op));
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut payload = put("k", 1).encode();
        payload.push(0xFF);
        assert!(WalOp::decode(&payload).is_none());
    }

    #[test]
    fn a_full_log_decodes_completely() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::PerWrite);
        for i in 0..10 {
            assert!(wal.append(&put(&format!("k{i}"), i)).ok);
        }
        let image = medium.durable_image();
        let (ops, valid, torn) = decode_records(&image);
        assert_eq!(ops.len(), 10);
        assert_eq!(valid, image.len());
        assert_eq!(torn, None);
    }

    #[test]
    fn every_byte_truncation_recovers_a_record_prefix() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::PerWrite);
        for i in 0..4 {
            wal.append(&put(&format!("k{i}"), i));
        }
        let image = medium.durable_image();
        let mut last = 0;
        for cut in 0..=image.len() {
            let (ops, valid, _) = decode_records(&image[..cut]);
            assert!(valid <= cut);
            assert!(ops.len() >= last || ops.is_empty() || cut == 0);
            // The decoded prefix matches a full decode of the valid bytes.
            let (again, _, _) = decode_records(&image[..valid]);
            assert_eq!(ops, again);
            if cut == image.len() {
                assert_eq!(ops.len(), 4);
            }
            last = ops.len().max(last);
        }
    }

    #[test]
    fn corrupted_byte_fails_crc_and_truncates() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::PerWrite);
        for i in 0..3 {
            wal.append(&put(&format!("k{i}"), i));
        }
        let mut image = medium.durable_image();
        // Flip a byte inside the second record's payload.
        let (_, first_len, _) = decode_records(&image[..0]);
        assert_eq!(first_len, 0);
        let rec1_len = u32::from_le_bytes(image[0..4].try_into().unwrap()) as usize + RECORD_HEADER;
        image[rec1_len + RECORD_HEADER + 2] ^= 0x40;
        let (ops, valid, torn) = decode_records(&image);
        assert_eq!(ops.len(), 1, "only the intact first record survives");
        assert_eq!(valid, rec1_len);
        assert_eq!(torn, Some(TornReason::CrcMismatch));
    }

    #[test]
    fn crash_at_byte_tears_the_write_in_flight() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::PerWrite);
        assert!(wal.append(&put("a", 1)).ok);
        let safe = medium.len();
        medium.arm(CrashPoint::AtByte(safe + 5));
        let out = wal.append(&put("b", 2));
        assert!(!out.ok);
        assert!(medium.crashed());
        let image = medium.durable_image();
        assert_eq!(image.len() as u64, safe + 5);
        let (ops, _, torn) = decode_records(&image);
        assert_eq!(ops.len(), 1);
        assert!(torn.is_some());
        // Post-crash appends are refused.
        assert!(!wal.append(&put("c", 3)).ok);
        // Revive: the torn image becomes the log again.
        medium.revive();
        assert!(!medium.crashed());
    }

    #[test]
    fn crash_at_sync_loses_exactly_the_unsynced_tail() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::GroupCommit(2));
        assert!(wal.append(&put("a", 1)).ok); // unsynced
        let out = wal.append(&put("b", 2)); // triggers sync #0
        assert!(out.ok && out.synced);
        let synced_len = medium.len();
        medium.arm(CrashPoint::AtSync(1));
        assert!(wal.append(&put("c", 3)).ok); // unsynced
        let out = wal.append(&put("d", 4)); // sync #1 -> crash
        assert!(!out.ok);
        let image = medium.durable_image();
        assert_eq!(image.len() as u64, synced_len);
        let (ops, _, torn) = decode_records(&image);
        assert_eq!(ops.len(), 2);
        assert_eq!(torn, None);
    }

    #[test]
    fn group_commit_syncs_every_n_appends() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::GroupCommit(4));
        let mut synced = 0;
        for i in 0..12 {
            if wal.append(&put(&format!("k{i}"), i)).synced {
                synced += 1;
            }
        }
        assert_eq!(synced, 3);
        assert_eq!(wal.fsyncs(), 3);
    }

    #[test]
    fn never_policy_does_not_sync() {
        let medium = SimMedium::new();
        let wal = Wal::new(medium.clone(), FsyncPolicy::Never);
        for i in 0..8 {
            let out = wal.append(&put(&format!("k{i}"), i));
            assert!(out.ok && !out.synced);
        }
        assert_eq!(wal.fsyncs(), 0);
    }

    #[test]
    fn file_medium_round_trips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("ogsa-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        {
            let medium = FileMedium::open(&path).unwrap();
            let wal = Wal::new(medium.clone(), FsyncPolicy::PerWrite);
            for i in 0..5 {
                assert!(wal.append(&put(&format!("k{i}"), i)).ok);
            }
            let (ops, _, torn) = decode_records(&medium.durable_image());
            assert_eq!(ops.len(), 5);
            assert_eq!(torn, None);
        }
        // Re-open: the log survived the drop.
        let medium = FileMedium::open(&path).unwrap();
        let (ops, _, _) = decode_records(&medium.durable_image());
        assert_eq!(ops.len(), 5);
        assert!(medium.truncate());
        assert_eq!(medium.len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
