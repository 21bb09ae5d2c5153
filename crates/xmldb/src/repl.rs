//! Primary/replica WAL shipping with partition-tolerant failover.
//!
//! The [`Replicator`] taps the primary [`crate::DurableBackend`]'s write
//! lock (via [`crate::durable::WalObserver`]) and streams every logged op
//! to N replica hosts as **replication records**: the op payload prefixed
//! with a `[term: u64 LE][seq: u64 LE]` header, framed in the exact same
//! CRC-32 envelope as the WAL ([`frame_record`]). `seq` is a dense global
//! log position; `term` bumps at every promotion, so a record is uniquely
//! identified by `(term, seq)` and two histories agree on a prefix iff
//! their `(term, seq)` pairs do. Both ends hold their copy as one
//! [`History`]: a base image, its seq, and the log past it.
//!
//! **Protocol.** Three requests — `Append`, `InstallBase`, `TruncateTo`,
//! each under the sender's term — and one answer, `Ack {term, last_seq,
//! acked_seq}` (or `Malformed` / `Unavailable`). A gap in an `Append` is
//! an ack whose `last_seq` says where to resume; a stale sender is an ack
//! carrying the replica's higher term, which deposes it. Every message,
//! either way, is exactly one CRC-checked [`frame_record`] frame: anything
//! else decodes as `Malformed` and is resent, so a garbled byte can never
//! forge a term or a seq.
//!
//! **Ack semantics.** Each [`ReplicaNode`] appends incoming records to its
//! own WAL under its own [`FsyncPolicy`] and reports `acked_seq` — the
//! highest seq covered by a *completed* fsync (or by an atomically
//! installed base snapshot). A client write is **quorum-acked** once at
//! least `quorum` members (the primary counts as one) have fsynced it:
//! [`Replicator::quorum_acked_seq`] is the watermark the failover harness
//! proves is never lost. A rewrite (base install, truncation) writes the
//! whole new history beside the old one and switches to it in one atomic
//! [`SnapshotMedium::install`]; an install the medium does not finish
//! leaves the old history whole, and the node answers `Unavailable` until
//! [`ReplicaNode::recover`].
//!
//! **Catch-up.** A replica that fell behind receives the missing log
//! suffix; one that fell behind a primary-side compaction
//! ([`Replicator::compact`]) first receives the base snapshot
//! (`InstallBase`: the deterministic [`encode_store`] image + its seq),
//! then the suffix — snapshot + log suffix, like the backend's own
//! recovery.
//!
//! **Failover.** When the fault plan partitions the primary, the testbed
//! promotes a survivor with [`promote`]: it requires enough reachable
//! members that any write quorum must intersect the survivor set
//! (`survivors ≥ members − quorum + 1`) and picks the longest *acked*
//! prefix among them — by quorum intersection, that prefix contains every
//! quorum-acked write. The new primary's first contact with each member is
//! a `TruncateTo` at the promotion point: any divergent unacked tail (the
//! old primary's split-brain suffix) is dropped, then normal shipping
//! resumes under the new term. The deposed primary rejoins the same way
//! ([`Replicator::to_node`] + [`Replicator::admit`]).
//!
//! Shipping is transport-agnostic: a [`ReplFabric`] delivers request bytes
//! and returns response bytes. [`LoopbackFabric`] wires nodes directly
//! (with deterministic sever/heal and cut-after-k controls for the
//! exhaustive boundary sweep); the container crate provides a fabric over
//! the simulated network that consults the fault plan **without charging
//! virtual time**, so enabling replication never perturbs the paper's
//! virtual-time figures.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::durable::WalObserver;
use crate::snapshot::{
    apply_op, decode_store, encode_store, SimSnapshotMedium, SnapshotMedium, StoreImage,
};
use crate::wal::{
    frame_record, scan_frames, FsyncPolicy, SimMedium, Wal, WalMedium, WalOp, RECORD_HEADER,
};

/// Bytes of `[term|seq]` header inside every replication record payload.
pub const REPL_HEADER: usize = 16;

/// Resend budget per shipment for retryable failures (drops, garbles).
const MAX_RETRIES: usize = 8;

/// One replicated op: a WAL op stamped with its global log position.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplRecord {
    /// Leadership epoch that produced the record.
    pub term: u64,
    /// Dense global log position (1-based; seq 0 means "empty history").
    pub seq: u64,
    pub op: WalOp,
}

impl ReplRecord {
    /// Serialize into a record payload (no framing): `[term][seq][op]`.
    pub fn encode(&self) -> Vec<u8> {
        let op = self.op.encode();
        let mut out = Vec::with_capacity(REPL_HEADER + op.len());
        out.extend_from_slice(&self.term.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&op);
        out
    }

    /// Decode one record payload; `None` on any malformation.
    pub fn decode(payload: &[u8]) -> Option<ReplRecord> {
        Some(ReplRecord {
            term: u64_at(payload, 0)?,
            seq: u64_at(payload, 8)?,
            op: WalOp::decode(payload.get(REPL_HEADER..)?)?,
        })
    }
}

/// Frame a batch of replication records into a byte stream (the body of an
/// `Append` request and of a replica's own WAL).
pub fn encode_repl_stream(records: &[ReplRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        frame_record(&rec.encode(), &mut out);
    }
    out
}

/// A replicated history: the base image through `base_seq` and the
/// contiguous log of records past it, held under leadership `term`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    pub term: u64,
    pub base_image: StoreImage,
    pub base_seq: u64,
    /// Records covering `(base_seq, last_seq]`, contiguous.
    pub log: Vec<ReplRecord>,
}

impl History {
    /// Highest seq in the history (`base_seq` when the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.log.last().map_or(self.base_seq, |r| r.seq)
    }

    /// The materialized store: the base image with the log applied.
    pub fn image(&self) -> StoreImage {
        let mut image = self.base_image.clone();
        for rec in &self.log {
            apply_op(&mut image, &rec.op);
        }
        image
    }

    /// The history as a replica stores it: one frame of
    /// `[base_seq][base image]`, then the log as a replication stream. The
    /// term is the node's, not the log's.
    fn encode_log(&self) -> Vec<u8> {
        let base = [
            &self.base_seq.to_le_bytes()[..],
            &encode_store(&self.base_image),
        ]
        .concat();
        let mut out = Vec::new();
        frame_record(&base, &mut out);
        out.extend(encode_repl_stream(&self.log));
        out
    }

    /// Read back [`History::encode_log`]'s bytes and any records appended
    /// past them, up to the first torn frame.
    fn decode_log(bytes: &[u8]) -> Option<History> {
        let (frames, _, _) = scan_frames(bytes, Some);
        let (base, log) = frames.split_first()?;
        Some(History {
            term: 0,
            base_image: decode_store(base.get(8..)?).ok()?,
            base_seq: u64_at(base, 0)?,
            log: log.iter().map_while(|p| ReplRecord::decode(p)).collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

const REQ_APPEND: u8 = 1;
const REQ_INSTALL_BASE: u8 = 2;
const REQ_TRUNCATE_TO: u8 = 3;

const RESP_ACK: u8 = 1;
const RESP_MALFORMED: u8 = 2;
const RESP_UNAVAILABLE: u8 = 3;

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// One message on the wire: `[tag][words…][tail]`, as one CRC-32 frame.
fn encode_message(tag: u8, words: &[u64], tail: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + 8 * words.len() + tail.len());
    payload.push(tag);
    for word in words {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    payload.extend_from_slice(tail);
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    frame_record(&payload, &mut out);
    out
}

/// Read back exactly one intact frame and decode its `(tag, body)`; any
/// other byte sequence — short, CRC-damaged, trailing bytes — is `None`.
fn decode_message<T>(bytes: &[u8], decode: impl Fn(u8, &[u8]) -> Option<T>) -> Option<T> {
    let (mut frames, valid, _) = scan_frames(bytes, |p| {
        let (&tag, body) = p.split_first()?;
        decode(tag, body)
    });
    frames
        .pop()
        .filter(|_| frames.is_empty() && valid == bytes.len())
}

/// A primary → replica message, sent under the sender's leadership `term`.
/// A replica refuses any request under a term older than its own.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplRequest {
    /// Ship a contiguous run of records (CRC-framed stream). The per-record
    /// terms are history metadata (a new primary legally ships records
    /// minted under older terms).
    Append { term: u64, stream: Vec<u8> },
    /// Install a base snapshot: history through `base_seq` as a
    /// deterministic store image. Resets the replica's log.
    InstallBase {
        term: u64,
        base_seq: u64,
        image: Vec<u8>,
    },
    /// Adopt `term` and drop every record with a seq beyond `seq` (the new
    /// primary's promotion point) — the divergent-tail eraser.
    TruncateTo { term: u64, seq: u64 },
}

impl ReplRequest {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplRequest::Append { term, stream } => encode_message(REQ_APPEND, &[*term], stream),
            ReplRequest::InstallBase {
                term,
                base_seq,
                image,
            } => encode_message(REQ_INSTALL_BASE, &[*term, *base_seq], image),
            ReplRequest::TruncateTo { term, seq } => {
                encode_message(REQ_TRUNCATE_TO, &[*term, *seq], &[])
            }
        }
    }

    pub fn decode(bytes: &[u8]) -> Option<ReplRequest> {
        decode_message(bytes, |tag, body| {
            let term = u64_at(body, 0)?;
            match tag {
                REQ_APPEND => Some(ReplRequest::Append {
                    term,
                    stream: body[8..].to_vec(),
                }),
                REQ_INSTALL_BASE => Some(ReplRequest::InstallBase {
                    term,
                    base_seq: u64_at(body, 8)?,
                    image: body.get(16..)?.to_vec(),
                }),
                REQ_TRUNCATE_TO if body.len() == 16 => Some(ReplRequest::TruncateTo {
                    term,
                    seq: u64_at(body, 8)?,
                }),
                _ => None,
            }
        })
    }
}

/// A replica → primary answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplResponse {
    /// Position report: highest contiguous appended seq and highest
    /// fsynced seq, under the replica's `term`. After a gap `last_seq` is
    /// where the primary resends from; a `term` above the sender's deposes
    /// it.
    Ack {
        term: u64,
        last_seq: u64,
        acked_seq: u64,
    },
    /// The request failed its frame check or did not decode — resend.
    Malformed,
    /// The replica's own WAL medium has crashed: nothing durable can
    /// happen here until it recovers.
    Unavailable,
}

impl ReplResponse {
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            ReplResponse::Ack {
                term,
                last_seq,
                acked_seq,
            } => encode_message(RESP_ACK, &[term, last_seq, acked_seq], &[]),
            ReplResponse::Malformed => encode_message(RESP_MALFORMED, &[], &[]),
            ReplResponse::Unavailable => encode_message(RESP_UNAVAILABLE, &[], &[]),
        }
    }

    pub fn decode(bytes: &[u8]) -> Option<ReplResponse> {
        decode_message(bytes, |tag, body| match (tag, body.len()) {
            (RESP_ACK, 24) => Some(ReplResponse::Ack {
                term: u64_at(body, 0)?,
                last_seq: u64_at(body, 8)?,
                acked_seq: u64_at(body, 16)?,
            }),
            (RESP_MALFORMED, 0) => Some(ReplResponse::Malformed),
            (RESP_UNAVAILABLE, 0) => Some(ReplResponse::Unavailable),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Replica node
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct NodeInner {
    history: History,
    /// Highest seq covered by a completed fsync or the installed base.
    acked_seq: u64,
    /// The WAL medium crashed: refuse requests until [`ReplicaNode::recover`].
    crashed: bool,
}

impl NodeInner {
    fn ack(&self) -> ReplResponse {
        ReplResponse::Ack {
            term: self.history.term,
            last_seq: self.history.last_seq(),
            acked_seq: self.acked_seq,
        }
    }
}

/// One replica host's replication engine: applies the primary's record
/// stream to its own WAL (own fsync policy, own crash injection) and
/// answers every request with its position. Pure protocol machine — no
/// transport, no clock; the fabric feeds it raw request bytes. Its durable
/// log is the history its last rewrite installed plus the WAL records
/// appended since.
pub struct ReplicaNode {
    inner: Mutex<NodeInner>,
    wal: Wal,
    sim: Arc<SimMedium>,
    snap: Arc<SimSnapshotMedium>,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ReplicaNode")
            .field("term", &inner.history.term)
            .field("last_seq", &inner.history.last_seq())
            .field("acked_seq", &inner.acked_seq)
            .finish_non_exhaustive()
    }
}

impl ReplicaNode {
    /// An empty replica under `fsync` (its own policy — a durability
    /// trade-off independent of the primary's).
    pub fn new(fsync: FsyncPolicy) -> Arc<ReplicaNode> {
        let sim = SimMedium::new();
        Arc::new(ReplicaNode {
            inner: Mutex::new(NodeInner::default()),
            wal: Wal::new(sim.clone(), fsync),
            sim,
            snap: SimSnapshotMedium::new(),
        })
    }

    /// The crash-injectable medium under this node's WAL.
    pub fn sim_medium(&self) -> &Arc<SimMedium> {
        &self.sim
    }

    pub fn term(&self) -> u64 {
        self.inner.lock().history.term
    }

    /// Highest contiguous seq appended here.
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().history.last_seq()
    }

    /// Highest seq this node has made durable (fsync or installed base).
    pub fn acked_seq(&self) -> u64 {
        self.inner.lock().acked_seq
    }

    /// The node's current materialized store image.
    pub fn image(&self) -> StoreImage {
        self.inner.lock().history.image()
    }

    /// Deterministically encoded image (for convergence assertions).
    pub fn encoded_image(&self) -> Vec<u8> {
        encode_store(&self.image())
    }

    /// Reboot after a crash: revive the medium, sweep a half-done install,
    /// and rebuild the history from what is durable — the last installed
    /// history, then the WAL records that survived past it (the acked
    /// prefix plus whatever unsynced tail reached the platter). That
    /// history is installed again, so no torn frame stays on the WAL in
    /// front of what the node appends next.
    pub fn recover(&self) {
        let mut inner = self.inner.lock();
        self.sim.revive();
        self.snap.discard_orphans();
        let mut durable = self
            .snap
            .load()
            .unwrap_or_else(|| History::default().encode_log());
        durable.extend(self.sim.durable_image());
        let mut history = History::decode_log(&durable).unwrap_or_default();
        history.term = inner.history.term;
        inner.crashed = false;
        // Everything that survived the crash is on the platter now — it is
        // all durable, so the ack watermark moves to the survived tip.
        self.rewrite(&mut inner, history);
        self.wal.sync();
    }

    /// Handle one raw request, producing raw response bytes. Any framing or
    /// decoding damage (the fault plan's garble) answers `Malformed`, which
    /// the primary treats as "resend".
    pub fn handle(&self, request: &[u8]) -> Vec<u8> {
        let Some(req) = ReplRequest::decode(request) else {
            return ReplResponse::Malformed.encode();
        };
        let mut inner = self.inner.lock();
        let (ReplRequest::Append { term, .. }
        | ReplRequest::InstallBase { term, .. }
        | ReplRequest::TruncateTo { term, .. }) = req;
        let resp = match req {
            _ if inner.crashed => ReplResponse::Unavailable,
            // A deposed sender: the ack's higher term tells it so.
            _ if term < inner.history.term => inner.ack(),
            ReplRequest::Append { stream, .. } => self.handle_append(&mut inner, term, &stream),
            ReplRequest::InstallBase {
                base_seq, image, ..
            } => match decode_store(&image) {
                Ok(base_image) => {
                    let next = History {
                        term,
                        base_image,
                        base_seq,
                        log: Vec::new(),
                    };
                    self.rewrite(&mut inner, next)
                }
                Err(_) => ReplResponse::Malformed,
            },
            ReplRequest::TruncateTo { seq, .. } => {
                let mut next = inner.history.clone();
                next.term = term;
                next.log.retain(|r| r.seq <= seq);
                self.rewrite(&mut inner, next)
            }
        };
        resp.encode()
    }

    fn handle_append(&self, inner: &mut NodeInner, term: u64, stream: &[u8]) -> ReplResponse {
        // Each record's CRC-checked payload is appended as it came; the
        // decoded op is what the in-memory history applies.
        let (records, valid, _) = scan_frames(stream, |p| Some((p, ReplRecord::decode(p)?)));
        if valid != stream.len() {
            return ReplResponse::Malformed;
        }
        inner.history.term = term;
        for (payload, rec) in records {
            let expected = inner.history.last_seq() + 1;
            if rec.seq > expected {
                // A gap: the ack's `last_seq` says where to resend from.
                break;
            }
            if rec.seq < expected {
                // Duplicate resend of an already-appended record: skip.
                continue;
            }
            let outcome = self.wal.append_payload(payload);
            if !outcome.ok {
                inner.crashed = true;
                return ReplResponse::Unavailable;
            }
            inner.history.log.push(rec);
            if outcome.synced {
                inner.acked_seq = inner.history.last_seq();
            }
        }
        inner.ack()
    }

    /// Switch the node to `next` in one step: the whole new history, base
    /// and log, is installed beside the old one, and only then is the WAL
    /// (the records past the old install) emptied and `next` adopted. An
    /// install the medium does not finish leaves the old history whole and
    /// crashes the node, like a failed append, and nothing is acked.
    fn rewrite(&self, inner: &mut NodeInner, next: History) -> ReplResponse {
        if !self.snap.install(next.encode_log()) {
            inner.crashed = true;
            return ReplResponse::Unavailable;
        }
        // Cannot fail: the medium dies only inside an append or a sync, and
        // a node whose medium died refuses every request until `recover`.
        self.wal.medium().truncate();
        inner.history = next;
        inner.acked_seq = inner.history.last_seq();
        inner.ack()
    }
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

/// Why a shipment did not produce a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipError {
    /// The link is partitioned: no delivery, no response, try again after
    /// a heal.
    Unreachable,
    /// The message was lost in flight (fault-plan drop): retryable now.
    Dropped,
}

/// Delivers raw request bytes from a primary to a member and returns the
/// raw response bytes. Implementations decide what a link is: the loopback
/// fabric calls the node directly; the container's fabric consults the
/// simulated network's fault plan (partitions, drops, garbles) without
/// charging virtual time.
pub trait ReplFabric: Send + Sync {
    fn deliver(&self, from: &str, to: &str, request: &[u8]) -> Result<Vec<u8>, ShipError>;
}

#[derive(Debug, Default)]
struct LinkState {
    severed: bool,
    /// Sever the link once this many deliveries have succeeded on it.
    sever_after: Option<u64>,
    delivered: u64,
    /// Flip this bit of the next request (then clear): deterministic garble.
    garble_bit: Option<u64>,
}

/// Direct node-to-node fabric for the failover harness: deterministic,
/// transportless, with per-link sever/heal, cut-after-k-deliveries (the
/// record-boundary sweep control), and single-shot bit flips.
#[derive(Default)]
pub struct LoopbackFabric {
    nodes: Mutex<HashMap<String, Arc<ReplicaNode>>>,
    links: Mutex<HashMap<(String, String), LinkState>>,
}

impl LoopbackFabric {
    pub fn new() -> Arc<LoopbackFabric> {
        Arc::new(LoopbackFabric::default())
    }

    /// Attach a node under `id`.
    pub fn register(&self, id: &str, node: Arc<ReplicaNode>) {
        self.nodes.lock().insert(id.to_owned(), node);
    }

    pub fn node(&self, id: &str) -> Option<Arc<ReplicaNode>> {
        self.nodes.lock().get(id).cloned()
    }

    fn with_link<T>(&self, from: &str, to: &str, f: impl FnOnce(&mut LinkState) -> T) -> T {
        let mut links = self.links.lock();
        f(links.entry((from.to_owned(), to.to_owned())).or_default())
    }

    /// Cut both directions between `a` and `b` immediately.
    pub fn sever(&self, a: &str, b: &str) {
        for (from, to) in [(a, b), (b, a)] {
            self.with_link(from, to, |l| l.severed = true);
        }
    }

    /// Cut `from → to` after exactly `k` more successful deliveries (the
    /// reverse direction severs at the same moment — a partition, not a
    /// one-way wire fault).
    pub fn sever_after(&self, from: &str, to: &str, k: u64) {
        self.with_link(from, to, |l| l.sever_after = Some(l.delivered + k));
    }

    /// Restore both directions between `a` and `b`.
    pub fn heal(&self, a: &str, b: &str) {
        for (from, to) in [(a, b), (b, a)] {
            self.with_link(from, to, |l| {
                l.severed = false;
                l.sever_after = None;
            });
        }
    }

    /// Successful deliveries so far on `from → to`.
    pub fn delivered(&self, from: &str, to: &str) -> u64 {
        self.with_link(from, to, |l| l.delivered)
    }

    /// Flip bit `bit` (of the request byte stream) on the next delivery
    /// `from → to`, once.
    pub fn garble_next(&self, from: &str, to: &str, bit: u64) {
        self.with_link(from, to, |l| l.garble_bit = Some(bit));
    }
}

impl ReplFabric for LoopbackFabric {
    fn deliver(&self, from: &str, to: &str, request: &[u8]) -> Result<Vec<u8>, ShipError> {
        let garble = {
            let mut links = self.links.lock();
            let link = links.entry((from.to_owned(), to.to_owned())).or_default();
            if link.sever_after.is_some_and(|at| link.delivered >= at) {
                link.sever_after = None;
                drop(links);
                // A partition cuts both directions at once.
                self.sever(from, to);
                return Err(ShipError::Unreachable);
            }
            if link.severed {
                return Err(ShipError::Unreachable);
            }
            link.delivered += 1;
            link.garble_bit.take()
        };
        let node = self.node(to).ok_or(ShipError::Unreachable)?;
        match garble {
            Some(bit) if !request.is_empty() => {
                let mut garbled = request.to_vec();
                let idx = (bit / 8) as usize % garbled.len();
                garbled[idx] ^= 1 << (bit % 8);
                Ok(node.handle(&garbled))
            }
            _ => Ok(node.handle(request)),
        }
    }
}

// ---------------------------------------------------------------------------
// Replicator (primary side)
// ---------------------------------------------------------------------------

/// Replication tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Members (primary + replicas) whose fsync a write needs before it is
    /// quorum-acked.
    pub quorum: usize,
}

impl ReplConfig {
    /// Majority quorum for a cluster of `members` total members.
    pub fn majority(members: usize) -> ReplConfig {
        ReplConfig {
            quorum: members / 2 + 1,
        }
    }
}

/// Why a promotion was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteError {
    /// Too few reachable members: a write quorum might not intersect the
    /// survivor set, so the longest acked survivor could still be missing
    /// a quorum-acked write.
    TooFewSurvivors { have: usize, need: usize },
    /// The chosen promotee does not hold the longest acked prefix among
    /// the survivors.
    NotLongestAcked { best: u64, chosen: u64 },
}

#[derive(Debug, Clone)]
struct MemberState {
    id: String,
    /// Highest seq known appended at the member.
    matched_seq: u64,
    /// Highest seq known fsynced at the member.
    acked_seq: u64,
    /// Last shipment reached the member.
    reachable: bool,
    /// First contact must erase any divergent tail beyond the promotion
    /// point before appends resume.
    needs_truncate: bool,
}

impl MemberState {
    fn new(id: &str, needs_truncate: bool) -> MemberState {
        MemberState {
            id: id.to_owned(),
            matched_seq: 0,
            acked_seq: 0,
            reachable: true,
            needs_truncate,
        }
    }
}

struct PrimaryState {
    history: History,
    /// Highest seq fsynced on the primary itself.
    primary_acked: u64,
    /// Seq at which this primary's term began (members truncate to here).
    promotion_seq: u64,
    members: Vec<MemberState>,
    /// A member answered with a higher term: this primary was deposed.
    deposed: bool,
}

/// The primary-side shipping engine. Observes the primary's WAL (in write
/// order, under the backend's lock), stamps each op with `(term, seq)`,
/// and pushes the stream to every member, tracking per-member matched and
/// acked positions. See the module docs for the protocol.
pub struct Replicator {
    self_id: String,
    fabric: Arc<dyn ReplFabric>,
    cfg: ReplConfig,
    state: Mutex<PrimaryState>,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Replicator")
            .field("self_id", &self.self_id)
            .field("term", &st.history.term)
            .field("last_seq", &st.history.last_seq())
            .field("quorum", &self.cfg.quorum)
            .finish_non_exhaustive()
    }
}

impl Replicator {
    /// A fresh cluster: `self_id` is the primary, `member_ids` the replica
    /// hosts, term 1, empty history.
    pub fn new(
        self_id: &str,
        member_ids: &[&str],
        fabric: Arc<dyn ReplFabric>,
        cfg: ReplConfig,
    ) -> Replicator {
        let history = History {
            term: 1,
            ..History::default()
        };
        let members = member_ids.iter().map(|id| MemberState::new(id, false));
        Replicator::with_history(self_id, history, members.collect(), fabric, cfg)
    }

    /// A primary whose term begins at the end of `history`, which it holds
    /// as fsynced.
    fn with_history(
        self_id: &str,
        history: History,
        members: Vec<MemberState>,
        fabric: Arc<dyn ReplFabric>,
        cfg: ReplConfig,
    ) -> Replicator {
        let promotion_seq = history.last_seq();
        Replicator {
            self_id: self_id.to_owned(),
            fabric,
            cfg,
            state: Mutex::new(PrimaryState {
                history,
                primary_acked: promotion_seq,
                promotion_seq,
                members,
                deposed: false,
            }),
        }
    }

    pub fn self_id(&self) -> &str {
        &self.self_id
    }

    pub fn term(&self) -> u64 {
        self.state.lock().history.term
    }

    pub fn last_seq(&self) -> u64 {
        self.state.lock().history.last_seq()
    }

    /// Seq at which the current term began.
    pub fn promotion_seq(&self) -> u64 {
        self.state.lock().promotion_seq
    }

    /// Highest seq fsynced on the primary itself.
    pub fn primary_acked_seq(&self) -> u64 {
        self.state.lock().primary_acked
    }

    /// Has a member told this primary its term is stale?
    pub fn is_deposed(&self) -> bool {
        self.state.lock().deposed
    }

    /// The primary's materialized image (base + log).
    pub fn image(&self) -> StoreImage {
        self.state.lock().history.image()
    }

    /// The full history this primary would ship to an empty member.
    pub fn history(&self) -> History {
        self.state.lock().history.clone()
    }

    /// The quorum-acked watermark: the highest seq that at least
    /// `cfg.quorum` members (primary included) have fsynced. Every write at
    /// or below this survives any single failover, by quorum intersection.
    pub fn quorum_acked_seq(&self) -> u64 {
        let st = self.state.lock();
        let mut acked: Vec<u64> = st.members.iter().map(|m| m.acked_seq).collect();
        acked.push(st.primary_acked);
        acked.sort_unstable_by(|a, b| b.cmp(a));
        if self.cfg.quorum == 0 || self.cfg.quorum > acked.len() {
            return 0;
        }
        acked[self.cfg.quorum - 1]
    }

    /// Records the member has not yet durably stored.
    pub fn lag_of(&self, id: &str) -> Option<u64> {
        let st = self.state.lock();
        let last = st.history.last_seq();
        st.members
            .iter()
            .find(|m| m.id == id)
            .map(|m| last.saturating_sub(m.acked_seq))
    }

    /// Readiness probe: `Err` when any replica's durable lag exceeds
    /// `max_lag` records (wire into the admin plane's `/readyz`).
    pub fn lag_check(&self, max_lag: u64) -> Result<(), String> {
        let st = self.state.lock();
        let last = st.history.last_seq();
        for m in &st.members {
            let lag = last.saturating_sub(m.acked_seq);
            if lag > max_lag {
                return Err(format!(
                    "replica {} lags {} records (> {})",
                    m.id, lag, max_lag
                ));
            }
        }
        Ok(())
    }

    /// Fold the quorum-acked prefix of the log into the base image. After
    /// this, members behind the new base catch up via `InstallBase` —
    /// snapshot + log suffix, exactly like local recovery.
    pub fn compact(&self) {
        let watermark = self.quorum_acked_seq();
        let mut st = self.state.lock();
        let h = &mut st.history;
        while h.log.first().is_some_and(|r| r.seq <= watermark) {
            let rec = h.log.remove(0);
            apply_op(&mut h.base_image, &rec.op);
            h.base_seq = rec.seq;
        }
    }

    /// Re-ship to one member now (after a heal): sends whatever it is
    /// missing, installing a base snapshot first if the member is behind
    /// the compaction horizon. Returns whether the member is fully caught
    /// up (matched to the primary's last seq).
    pub fn catch_up(&self, id: &str) -> bool {
        let mut st = self.state.lock();
        let Some(idx) = st.members.iter().position(|m| m.id == id) else {
            return false;
        };
        self.ship_to(&mut st, idx);
        st.members[idx].reachable && st.members[idx].matched_seq == st.history.last_seq()
    }

    /// Re-ship to every member (group-commit flush point, heal sweep).
    pub fn ship_all(&self) {
        let mut st = self.state.lock();
        for idx in 0..st.members.len() {
            self.ship_to(&mut st, idx);
        }
    }

    /// Add a member (a rejoining deposed primary). Its first contact is a
    /// `TruncateTo` at this primary's promotion point, erasing any
    /// divergent unacked tail, then normal catch-up.
    pub fn admit(&self, id: &str) {
        let mut st = self.state.lock();
        if st.members.iter().all(|m| m.id != id) {
            st.members.push(MemberState::new(id, true));
        }
    }

    /// Wrap this (deposed) primary's entire history as a [`ReplicaNode`]
    /// so it can rejoin the cluster as a replica: the new primary's
    /// `TruncateTo` then erases the unacked divergent tail. The whole
    /// history is installed durably, so the node's `acked_seq` starts at
    /// its `last_seq`.
    pub fn to_node(&self, fsync: FsyncPolicy) -> Arc<ReplicaNode> {
        let node = ReplicaNode::new(fsync);
        node.rewrite(&mut node.inner.lock(), self.history());
        node
    }

    /// Per-member view for gauges: `(id, matched_seq, acked_seq, reachable)`.
    pub fn member_status(&self) -> Vec<(String, u64, u64, bool)> {
        self.state
            .lock()
            .members
            .iter()
            .map(|m| (m.id.clone(), m.matched_seq, m.acked_seq, m.reachable))
            .collect()
    }

    fn ship_to(&self, st: &mut PrimaryState, idx: usize) {
        if st.deposed {
            return;
        }
        let term = st.history.term;
        let mut retries = MAX_RETRIES;
        // Each healthy round trip strictly advances matched_seq or finishes,
        // and every retryable failure decrements the budget — but cap the
        // total rounds anyway so a misbehaving member can never wedge the
        // primary's write path.
        for _ in 0..2 * (MAX_RETRIES + 4) {
            let h = &st.history;
            let from_seq = st.members[idx].matched_seq + 1;
            let request = if st.members[idx].needs_truncate {
                ReplRequest::TruncateTo {
                    term,
                    seq: st.promotion_seq,
                }
            } else if from_seq <= h.base_seq {
                // Behind the compaction horizon: snapshot first.
                ReplRequest::InstallBase {
                    term,
                    base_seq: h.base_seq,
                    image: encode_store(&h.base_image),
                }
            } else {
                let start = (from_seq - h.base_seq - 1) as usize;
                if start >= h.log.len() {
                    st.members[idx].reachable = true;
                    return;
                }
                ReplRequest::Append {
                    term,
                    stream: encode_repl_stream(&h.log[start..]),
                }
            };
            let member = &mut st.members[idx];
            match self
                .fabric
                .deliver(&self.self_id, &member.id, &request.encode())
            {
                Ok(bytes) => match ReplResponse::decode(&bytes) {
                    Some(ReplResponse::Ack {
                        term: m_term,
                        last_seq,
                        acked_seq,
                    }) => {
                        if m_term > term {
                            st.deposed = true;
                            return;
                        }
                        member.reachable = true;
                        member.matched_seq = last_seq;
                        member.acked_seq = acked_seq;
                        // After a truncation the next round appends the
                        // suffix under the new term; otherwise a short
                        // `last_seq` (a gap) resends from there.
                        if !std::mem::take(&mut member.needs_truncate)
                            && last_seq >= st.history.last_seq()
                        {
                            return;
                        }
                    }
                    // Garbled in flight (either direction): resend.
                    Some(ReplResponse::Malformed) | None if retries > 0 => retries -= 1,
                    Some(ReplResponse::Malformed | ReplResponse::Unavailable) | None => break,
                },
                Err(ShipError::Dropped) if retries > 0 => retries -= 1,
                Err(_) => break,
            }
        }
        st.members[idx].reachable = false;
    }
}

impl WalObserver for Replicator {
    /// Called by the primary [`crate::DurableBackend`] under its write
    /// lock: stamp the op with the next `(term, seq)` and ship.
    fn on_append(&self, op: &WalOp, synced: bool) {
        let mut st = self.state.lock();
        if st.deposed {
            return;
        }
        let rec = ReplRecord {
            term: st.history.term,
            seq: st.history.last_seq() + 1,
            op: op.clone(),
        };
        if synced {
            st.primary_acked = rec.seq;
        }
        st.history.log.push(rec);
        for idx in 0..st.members.len() {
            // Skip known-unreachable members on the hot path; a heal sweep
            // (`catch_up`/`ship_all`) brings them back.
            if st.members[idx].reachable {
                self.ship_to(&mut st, idx);
            }
        }
    }
}

/// Promote `promotee_id` to primary after the old primary was partitioned
/// away. `survivors` is every reachable member `(id, node)` — there must
/// be at least `total_members - quorum + 1` of them so that any write
/// quorum intersects the survivor set, and the promotee must hold the
/// longest acked prefix among them; both are checked, because they are
/// exactly what makes "zero lost quorum-acked writes" a theorem rather
/// than luck. The returned [`Replicator`] runs term `old_term + 1` with
/// the remaining survivors as members (erase-divergence-first semantics).
pub fn promote(
    promotee_id: &str,
    survivors: &[(String, Arc<ReplicaNode>)],
    total_members: usize,
    fabric: Arc<dyn ReplFabric>,
    cfg: ReplConfig,
) -> Result<Replicator, PromoteError> {
    let need = total_members.saturating_sub(cfg.quorum) + 1;
    if survivors.len() < need {
        return Err(PromoteError::TooFewSurvivors {
            have: survivors.len(),
            need,
        });
    }
    let best = survivors
        .iter()
        .map(|(_, n)| n.acked_seq())
        .max()
        .unwrap_or(0);
    let promotee = survivors.iter().find(|(id, _)| id == promotee_id);
    let chosen = promotee.map_or(0, |(_, n)| n.acked_seq());
    let Some((_, promotee)) = promotee.filter(|_| chosen == best) else {
        return Err(PromoteError::NotLongestAcked { best, chosen });
    };
    // The promotee's full appended history (acked prefix plus any synced
    // tail that survived) becomes the cluster history; its own unacked
    // in-memory suffix is legitimate too — it is the longest surviving
    // history and nothing quorum-acked can extend past it on any survivor
    // we must honor.
    let mut history = promotee.inner.lock().history.clone();
    history.term += 1;
    let members = survivors
        .iter()
        .filter(|(id, _)| id != promotee_id)
        .map(|(id, _)| MemberState::new(id, true));
    let repl = Replicator::with_history(promotee_id, history, members.collect(), fabric, cfg);
    // First contact: truncate every surviving member to the promotion
    // point and pull them up to the new primary's history.
    repl.ship_all();
    Ok(repl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::TornReason;
    use ogsa_xml::Element;

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

    fn cluster(
        replicas: usize,
        quorum: usize,
    ) -> (Arc<LoopbackFabric>, Replicator, Vec<Arc<ReplicaNode>>) {
        let fabric = LoopbackFabric::new();
        let mut nodes = Vec::new();
        let ids: Vec<String> = (1..=replicas).map(|i| format!("r{i}")).collect();
        for id in &ids {
            let node = ReplicaNode::new(FsyncPolicy::PerWrite);
            fabric.register(id, node.clone());
            nodes.push(node);
        }
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let repl = Replicator::new("primary", &id_refs, fabric.clone(), ReplConfig { quorum });
        (fabric, repl, nodes)
    }

    #[test]
    fn records_round_trip_with_header() {
        let rec = ReplRecord {
            term: 3,
            seq: 42,
            op: put("k", 7),
        };
        assert_eq!(ReplRecord::decode(&rec.encode()), Some(rec.clone()));
        let stream = encode_repl_stream(std::slice::from_ref(&rec));
        let (records, valid, torn) = scan_frames(&stream, ReplRecord::decode);
        assert_eq!(records, vec![rec]);
        assert_eq!(valid, stream.len());
        assert_eq!(torn, None);
    }

    #[test]
    fn garbled_stream_fails_crc() {
        let stream = encode_repl_stream(&[ReplRecord {
            term: 1,
            seq: 1,
            op: put("k", 1),
        }]);
        let mut bad = stream.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        let (records, _, torn) = scan_frames(&bad, ReplRecord::decode);
        assert!(records.is_empty());
        assert_eq!(torn, Some(TornReason::CrcMismatch));
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = vec![
            ReplRequest::Append {
                term: 1,
                stream: encode_repl_stream(&[ReplRecord {
                    term: 1,
                    seq: 1,
                    op: put("k", 1),
                }]),
            },
            ReplRequest::InstallBase {
                term: 2,
                base_seq: 9,
                image: encode_store(&StoreImage::new()),
            },
            ReplRequest::TruncateTo { term: 3, seq: 12 },
        ];
        for req in &reqs {
            assert_eq!(ReplRequest::decode(&req.encode()).as_ref(), Some(req));
        }
        let resps = vec![
            ReplResponse::Ack {
                term: 2,
                last_seq: 10,
                acked_seq: 8,
            },
            ReplResponse::Malformed,
            ReplResponse::Unavailable,
        ];
        for resp in &resps {
            assert_eq!(ReplResponse::decode(&resp.encode()).as_ref(), Some(resp));
        }
        assert!(ReplRequest::decode(&[]).is_none());
        assert!(ReplRequest::decode(&[99]).is_none());
        assert!(ReplResponse::decode(&[99]).is_none());
    }

    #[test]
    fn writes_replicate_and_quorum_acks_advance() {
        let (_fabric, repl, nodes) = cluster(2, 2);
        for i in 0..5 {
            repl.on_append(&put(&format!("k{i}"), i), true);
        }
        assert_eq!(repl.last_seq(), 5);
        assert_eq!(repl.quorum_acked_seq(), 5);
        for node in &nodes {
            assert_eq!(node.last_seq(), 5);
            assert_eq!(node.acked_seq(), 5);
            assert_eq!(node.encoded_image(), encode_store(&repl.image()));
        }
    }

    #[test]
    fn severed_replica_catches_up_after_heal() {
        let (fabric, repl, nodes) = cluster(2, 2);
        repl.on_append(&put("a", 1), true);
        fabric.sever("primary", "r1");
        repl.on_append(&put("b", 2), true);
        repl.on_append(&put("c", 3), true);
        assert_eq!(nodes[0].last_seq(), 1, "severed replica is frozen");
        assert_eq!(nodes[1].last_seq(), 3);
        // Quorum 2 = primary + r2: the watermark still advances.
        assert_eq!(repl.quorum_acked_seq(), 3);
        assert_eq!(repl.lag_of("r1"), Some(2));
        assert!(repl.lag_check(1).is_err());
        fabric.heal("primary", "r1");
        assert!(repl.catch_up("r1"));
        assert_eq!(nodes[0].last_seq(), 3);
        assert!(repl.lag_check(0).is_ok());
    }

    #[test]
    fn compaction_forces_snapshot_catch_up() {
        let (fabric, repl, nodes) = cluster(2, 2);
        repl.on_append(&put("a", 1), true);
        fabric.sever("primary", "r1");
        for i in 0..6 {
            repl.on_append(&put(&format!("k{i}"), i), true);
        }
        repl.compact();
        // The log prefix through the watermark is folded away: r1 is now
        // behind the compaction horizon.
        assert_eq!(repl.history().log.len(), 0);
        fabric.heal("primary", "r1");
        assert!(repl.catch_up("r1"));
        assert_eq!(nodes[0].last_seq(), 7);
        assert_eq!(nodes[0].encoded_image(), encode_store(&repl.image()));
        // The install counts as durable: acked jumps to the base.
        assert_eq!(nodes[0].acked_seq(), 7);
    }

    #[test]
    fn garbled_shipment_is_detected_and_resent() {
        let (fabric, repl, nodes) = cluster(1, 1);
        fabric.garble_next("primary", "r1", 77);
        repl.on_append(&put("a", 1), true);
        // The first delivery was bit-flipped (CRC catches it, replica
        // answers Malformed), the resend goes through.
        assert_eq!(nodes[0].last_seq(), 1);
        assert_eq!(fabric.delivered("primary", "r1"), 2);
    }

    #[test]
    fn gap_rejection_forces_a_rewind() {
        let node = ReplicaNode::new(FsyncPolicy::PerWrite);
        let stream = encode_repl_stream(&[ReplRecord {
            term: 1,
            seq: 5,
            op: put("k", 1),
        }]);
        let resp =
            ReplResponse::decode(&node.handle(&ReplRequest::Append { term: 1, stream }.encode()))
                .unwrap();
        // The ack's last_seq is where the primary resends from.
        assert_eq!(
            resp,
            ReplResponse::Ack {
                term: 1,
                last_seq: 0,
                acked_seq: 0
            }
        );
        assert_eq!(node.last_seq(), 0);
    }

    #[test]
    fn stale_term_is_refused() {
        let node = ReplicaNode::new(FsyncPolicy::PerWrite);
        let newer = encode_repl_stream(&[ReplRecord {
            term: 3,
            seq: 1,
            op: put("k", 1),
        }]);
        node.handle(
            &ReplRequest::Append {
                term: 3,
                stream: newer,
            }
            .encode(),
        );
        let older = encode_repl_stream(&[ReplRecord {
            term: 2,
            seq: 2,
            op: put("k", 2),
        }]);
        let resp = ReplResponse::decode(
            &node.handle(
                &ReplRequest::Append {
                    term: 2,
                    stream: older,
                }
                .encode(),
            ),
        )
        .unwrap();
        // The ack carries the replica's higher term: the sender is deposed.
        assert_eq!(
            resp,
            ReplResponse::Ack {
                term: 3,
                last_seq: 1,
                acked_seq: 1
            }
        );
        // A new primary shipping records minted under an older term is
        // legal: the stale check is on the *sender's* term.
        let old_term_record = encode_repl_stream(&[ReplRecord {
            term: 1,
            seq: 2,
            op: put("k", 2),
        }]);
        let resp = ReplResponse::decode(
            &node.handle(
                &ReplRequest::Append {
                    term: 4,
                    stream: old_term_record,
                }
                .encode(),
            ),
        )
        .unwrap();
        assert_eq!(
            resp,
            ReplResponse::Ack {
                term: 4,
                last_seq: 2,
                acked_seq: 2
            }
        );
    }

    #[test]
    fn group_commit_replica_acks_lag_appends() {
        let fabric = LoopbackFabric::new();
        let node = ReplicaNode::new(FsyncPolicy::GroupCommit(3));
        fabric.register("r1", node.clone());
        let repl = Replicator::new("primary", &["r1"], fabric.clone(), ReplConfig { quorum: 2 });
        repl.on_append(&put("a", 1), true);
        repl.on_append(&put("b", 2), true);
        assert_eq!(node.last_seq(), 2);
        assert_eq!(node.acked_seq(), 0, "no fsync yet under GroupCommit(3)");
        // Quorum 2 needs the replica's fsync: watermark holds at 0.
        assert_eq!(repl.quorum_acked_seq(), 0);
        repl.on_append(&put("c", 3), true);
        assert_eq!(node.acked_seq(), 3);
        assert_eq!(repl.quorum_acked_seq(), 3);
    }

    /// A torn append leaves part of a frame on the medium; recovery must
    /// drop it, or what the node appends and acks afterwards sits behind
    /// it and is lost to the next recovery.
    #[test]
    fn acks_after_a_torn_append_survive_the_next_recovery() {
        let node = ReplicaNode::new(FsyncPolicy::PerWrite);
        node.handle(&append_term_1(2));
        let torn_at = node.sim_medium().len() + 7;
        node.sim_medium()
            .arm(crate::wal::CrashPoint::AtByte(torn_at));
        node.handle(&append_term_1(3));
        node.recover();
        assert_eq!((node.last_seq(), node.acked_seq()), (2, 2));
        node.handle(&append_term_1(4));
        assert_eq!(node.acked_seq(), 4);
        node.recover();
        assert_eq!((node.last_seq(), node.acked_seq()), (4, 4));
    }

    #[test]
    fn replica_crash_loses_only_unsynced_tail_and_recovers() {
        let fabric = LoopbackFabric::new();
        let node = ReplicaNode::new(FsyncPolicy::GroupCommit(2));
        fabric.register("r1", node.clone());
        let repl = Replicator::new("primary", &["r1"], fabric.clone(), ReplConfig { quorum: 1 });
        repl.on_append(&put("a", 1), true);
        repl.on_append(&put("b", 2), true); // sync #0 at the replica
        node.sim_medium().arm(crate::wal::CrashPoint::AtSync(1));
        repl.on_append(&put("c", 3), true); // unsynced at replica
        repl.on_append(&put("d", 4), true); // sync #1 -> replica crashes
        assert_eq!(node.acked_seq(), 2);
        node.recover();
        // Synced prefix (2 records) plus the unsynced-but-written third
        // record survive the power loss; the in-flight fourth is gone.
        assert!(node.last_seq() >= 2);
        assert_eq!(node.acked_seq(), node.last_seq());
        // The primary re-ships what is missing.
        assert!(repl.catch_up("r1"));
        assert_eq!(node.last_seq(), 4);
    }

    #[test]
    fn promotion_picks_longest_acked_and_truncates_divergence() {
        let (fabric, repl, nodes) = cluster(2, 2);
        for i in 0..4 {
            repl.on_append(&put(&format!("k{i}"), i), true);
        }
        // r1 partitioned: misses the next write.
        fabric.sever("primary", "r1");
        repl.on_append(&put("k4", 4), true);
        let watermark = repl.quorum_acked_seq();
        assert_eq!(watermark, 5);
        // Now the primary is partitioned from everyone and keeps accepting
        // writes it can no longer replicate — the divergent unacked tail.
        fabric.sever("primary", "r2");
        repl.on_append(&put("zombie", 99), true);
        assert_eq!(repl.last_seq(), 6);
        assert_eq!(repl.quorum_acked_seq(), 5, "no quorum behind a partition");

        // Failover: both replicas survive; r2 has the longest acked prefix.
        let survivors = vec![
            ("r1".to_owned(), nodes[0].clone()),
            ("r2".to_owned(), nodes[1].clone()),
        ];
        assert_eq!(
            promote("r1", &survivors, 3, fabric.clone(), ReplConfig::majority(3)).unwrap_err(),
            PromoteError::NotLongestAcked { best: 5, chosen: 4 }
        );
        let new_repl = promote("r2", &survivors, 3, fabric.clone(), ReplConfig::majority(3))
            .expect("r2 holds the longest acked prefix");
        assert_eq!(new_repl.term(), 2);
        assert_eq!(new_repl.promotion_seq(), 5);
        // r1 was truncated (no-op here, it was only behind) and caught up.
        assert_eq!(nodes[0].last_seq(), 5);
        assert_eq!(nodes[0].term(), 2);

        // New writes flow under the new term.
        new_repl.on_append(&put("k5", 5), true);
        assert_eq!(nodes[0].last_seq(), 6);

        // The deposed primary rejoins: wrap, admit, truncate its zombie
        // tail, catch up, converge.
        let old_node = repl.to_node(FsyncPolicy::PerWrite);
        assert_eq!(old_node.last_seq(), 6, "zombie tail present before rejoin");
        fabric.register("old-primary", old_node.clone());
        fabric.heal("r2", "old-primary");
        new_repl.admit("old-primary");
        assert!(new_repl.catch_up("old-primary"));
        assert_eq!(old_node.term(), 2);
        assert_eq!(old_node.last_seq(), 6);
        let expect = encode_store(&new_repl.image());
        assert_eq!(old_node.encoded_image(), expect);
        assert_eq!(nodes[0].encoded_image(), expect);
        // nodes[1] (the promotee's ReplicaNode) is superseded by new_repl:
        // promotion copied its state into the new primary, which now owns
        // the history — the vestigial node object stops tracking.
        // The zombie write is gone from everyone's history; every write up
        // to the watermark survived.
        let log = new_repl.history().log;
        assert!(log
            .iter()
            .all(|r| { !matches!(&r.op, WalOp::Put { key, .. } if key == "zombie") }));
        assert!(log.iter().filter(|r| r.seq <= watermark).count() >= 1);
    }

    #[test]
    fn promotion_requires_enough_survivors() {
        let (fabric, repl, nodes) = cluster(2, 2);
        repl.on_append(&put("a", 1), true);
        let survivors = vec![("r1".to_owned(), nodes[0].clone())];
        // 3 members, quorum 2: need 2 survivors for guaranteed quorum
        // intersection; 1 is not enough.
        assert_eq!(
            promote("r1", &survivors, 3, fabric, ReplConfig::majority(3)).unwrap_err(),
            PromoteError::TooFewSurvivors { have: 1, need: 2 }
        );
    }

    #[test]
    fn deposed_primary_stops_shipping() {
        let (fabric, repl, nodes) = cluster(1, 1);
        repl.on_append(&put("a", 1), true);
        // Promotion elsewhere bumps the node's term.
        nodes[0].handle(&ReplRequest::TruncateTo { term: 9, seq: 1 }.encode());
        repl.on_append(&put("b", 2), true);
        assert!(repl.is_deposed());
        assert_eq!(nodes[0].last_seq(), 1, "stale-term append was refused");
        let _ = fabric;
    }

    /// `(term 1, seq)` records `1..=n`, as one `Append` a node accepts.
    fn append_term_1(n: u64) -> Vec<u8> {
        let log: Vec<ReplRecord> = (1..=n)
            .map(|seq| ReplRecord {
                term: 1,
                seq,
                op: put("k", seq as i64),
            })
            .collect();
        ReplRequest::Append {
            term: 1,
            stream: encode_repl_stream(&log),
        }
        .encode()
    }

    /// Every copy of `wire` with exactly one bit flipped.
    fn bit_flips(wire: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
        (0..wire.len() * 8).map(|bit| {
            let mut flipped = wire.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            (bit, flipped)
        })
    }

    /// A garbled header is not believed: wherever one bit flips — tag,
    /// term, seq, length, CRC, record stream or image — the node answers
    /// `Malformed` and its term and position stay put.
    #[test]
    fn every_flipped_bit_of_a_request_is_malformed_and_moves_nothing() {
        let node = ReplicaNode::new(FsyncPolicy::PerWrite);
        node.handle(&append_term_1(2));
        let empty_store = encode_store(&StoreImage::new());
        assert_eq!(empty_store.len(), 8);
        let requests = [
            ReplRequest::Append {
                term: 2,
                stream: encode_repl_stream(&[ReplRecord {
                    term: 2,
                    seq: 3,
                    op: put("k", 3),
                }]),
            },
            ReplRequest::InstallBase {
                term: 2,
                base_seq: 5,
                image: empty_store,
            },
            ReplRequest::TruncateTo { term: 2, seq: 1 },
        ];
        for req in &requests {
            for (bit, garbled) in bit_flips(&req.encode()) {
                let resp = ReplResponse::decode(&node.handle(&garbled));
                assert_eq!(resp, Some(ReplResponse::Malformed), "{req:?} bit {bit}");
                assert_eq!((node.term(), node.last_seq()), (1, 2), "{req:?} bit {bit}");
            }
        }
    }

    #[test]
    fn every_flipped_bit_of_an_ack_fails_to_decode() {
        let ack = ReplResponse::Ack {
            term: 2,
            last_seq: 10,
            acked_seq: 8,
        };
        for (bit, garbled) in bit_flips(&ack.encode()) {
            assert_eq!(ReplResponse::decode(&garbled), None, "bit {bit}");
        }
    }

    /// A rewrite whose install the medium does not finish is not acked and
    /// changes nothing: after `recover()` the node holds its old history
    /// whole, and the half-written install is swept.
    #[test]
    fn an_unfinished_rewrite_is_not_acked() {
        let requests = [
            ReplRequest::TruncateTo { term: 2, seq: 3 },
            ReplRequest::InstallBase {
                term: 2,
                base_seq: 4,
                image: encode_store(&StoreImage::new()),
            },
        ];
        for req in &requests {
            let node = ReplicaNode::new(FsyncPolicy::PerWrite);
            node.handle(&append_term_1(4));
            let before = node.encoded_image();
            let snap = &node.snap;
            snap.arm_install_crash(snap.installs());
            let resp = ReplResponse::decode(&node.handle(&req.encode()));
            assert_eq!(resp, Some(ReplResponse::Unavailable), "{req:?}");
            node.recover();
            assert!(!snap.has_orphan(), "{req:?}");
            assert_eq!((node.last_seq(), node.acked_seq()), (4, 4), "{req:?}");
            assert_eq!(node.encoded_image(), before, "{req:?}");
        }
    }
}
