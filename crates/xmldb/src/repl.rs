//! Primary/replica WAL shipping with partition-tolerant failover.
//!
//! The [`Replicator`] taps the primary [`crate::DurableBackend`]'s write
//! lock (via [`crate::durable::WalObserver`]) and streams every logged op
//! to N replica hosts as **replication records**: the op payload prefixed
//! with a `[term: u64 LE][seq: u64 LE]` header, framed in the exact same
//! CRC-32 envelope as the WAL ([`frame_record`]). `seq` is a dense global
//! log position; `term` bumps at every promotion, so a record is uniquely
//! identified by `(term, seq)` and two histories agree on a prefix iff
//! their `(term, seq)` pairs do.
//!
//! **Ack semantics.** Each [`ReplicaNode`] appends incoming records to its
//! own WAL under its own [`FsyncPolicy`] and reports `acked_seq` — the
//! highest seq covered by a *completed* fsync (or by an atomically
//! installed base snapshot). A client write is **quorum-acked** once at
//! least `quorum` members (the primary counts as one) have fsynced it:
//! [`Replicator::quorum_acked_seq`] is the watermark the failover harness
//! proves is never lost.
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
//! the simulated network that consults the PR-1 fault plan **without
//! charging virtual time**, so enabling replication never perturbs the
//! paper's virtual-time figures.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::durable::WalObserver;
use crate::snapshot::{apply_op, decode_store, encode_store, StoreImage};
use crate::wal::{
    frame_record, scan_frames, FsyncPolicy, SimMedium, TornReason, Wal, WalMedium, WalOp,
};

/// Bytes of `[term|seq]` header inside every replication record payload.
pub const REPL_HEADER: usize = 16;

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
        if payload.len() < REPL_HEADER {
            return None;
        }
        let term = u64::from_le_bytes(payload[0..8].try_into().ok()?);
        let seq = u64::from_le_bytes(payload[8..16].try_into().ok()?);
        let op = WalOp::decode(&payload[REPL_HEADER..])?;
        Some(ReplRecord { term, seq, op })
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

/// Scan a replication stream front to back, CRC-checking every frame.
/// Same torn-tail semantics as the WAL scanner: everything past the first
/// damaged record is discarded.
pub fn decode_repl_stream(bytes: &[u8]) -> (Vec<ReplRecord>, usize, Option<TornReason>) {
    scan_frames(bytes, ReplRecord::decode)
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

const REQ_APPEND: u8 = 1;
const REQ_INSTALL_BASE: u8 = 2;
const REQ_STATUS: u8 = 3;
const REQ_TRUNCATE_TO: u8 = 4;

const RESP_ACK: u8 = 1;
const RESP_GAP: u8 = 2;
const RESP_STALE_TERM: u8 = 3;
const RESP_MALFORMED: u8 = 4;
const RESP_UNAVAILABLE: u8 = 5;

/// A primary → replica message.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplRequest {
    /// Ship a contiguous run of records (CRC-framed stream) under the
    /// sender's leadership `term`. The stale-primary check is on this term;
    /// the per-record terms are history metadata (a new primary legally
    /// ships records minted under older terms).
    Append { term: u64, stream: Vec<u8> },
    /// Install a base snapshot: history through `base_seq` as a
    /// deterministic store image. Resets the replica's log.
    InstallBase {
        term: u64,
        base_seq: u64,
        image: Vec<u8>,
    },
    /// Ask for the replica's current position.
    Status,
    /// Adopt `term` and drop every record with a seq beyond `seq` (the new
    /// primary's promotion point) — the divergent-tail eraser.
    TruncateTo { term: u64, seq: u64 },
}

impl ReplRequest {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ReplRequest::Append { term, stream } => {
                out.push(REQ_APPEND);
                out.extend_from_slice(&term.to_le_bytes());
                out.extend_from_slice(stream);
            }
            ReplRequest::InstallBase {
                term,
                base_seq,
                image,
            } => {
                out.push(REQ_INSTALL_BASE);
                out.extend_from_slice(&term.to_le_bytes());
                out.extend_from_slice(&base_seq.to_le_bytes());
                out.extend_from_slice(&(image.len() as u32).to_le_bytes());
                out.extend_from_slice(image);
            }
            ReplRequest::Status => out.push(REQ_STATUS),
            ReplRequest::TruncateTo { term, seq } => {
                out.push(REQ_TRUNCATE_TO);
                out.extend_from_slice(&term.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<ReplRequest> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            REQ_APPEND => {
                if rest.len() < 8 {
                    return None;
                }
                Some(ReplRequest::Append {
                    term: u64::from_le_bytes(rest[0..8].try_into().ok()?),
                    stream: rest[8..].to_vec(),
                })
            }
            REQ_INSTALL_BASE => {
                if rest.len() < 20 {
                    return None;
                }
                let term = u64::from_le_bytes(rest[0..8].try_into().ok()?);
                let base_seq = u64::from_le_bytes(rest[8..16].try_into().ok()?);
                let len = u32::from_le_bytes(rest[16..20].try_into().ok()?) as usize;
                let image = rest.get(20..20 + len)?;
                (rest.len() == 20 + len).then(|| ReplRequest::InstallBase {
                    term,
                    base_seq,
                    image: image.to_vec(),
                })
            }
            REQ_STATUS => rest.is_empty().then_some(ReplRequest::Status),
            REQ_TRUNCATE_TO => {
                if rest.len() != 16 {
                    return None;
                }
                Some(ReplRequest::TruncateTo {
                    term: u64::from_le_bytes(rest[0..8].try_into().ok()?),
                    seq: u64::from_le_bytes(rest[8..16].try_into().ok()?),
                })
            }
            _ => None,
        }
    }
}

/// A replica → primary answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplResponse {
    /// Position report: highest appended seq and highest fsynced seq under
    /// `term`.
    Ack {
        term: u64,
        last_seq: u64,
        acked_seq: u64,
    },
    /// The stream skipped records: resend starting at `expected`.
    Gap { expected: u64 },
    /// The sender's term is older than the replica's: it was deposed.
    StaleTerm { current: u64 },
    /// The request (or its record stream) failed CRC/decoding — resend.
    Malformed,
    /// The replica's own WAL medium has crashed: nothing durable can
    /// happen here until it recovers.
    Unavailable,
}

impl ReplResponse {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ReplResponse::Ack {
                term,
                last_seq,
                acked_seq,
            } => {
                out.push(RESP_ACK);
                out.extend_from_slice(&term.to_le_bytes());
                out.extend_from_slice(&last_seq.to_le_bytes());
                out.extend_from_slice(&acked_seq.to_le_bytes());
            }
            ReplResponse::Gap { expected } => {
                out.push(RESP_GAP);
                out.extend_from_slice(&expected.to_le_bytes());
            }
            ReplResponse::StaleTerm { current } => {
                out.push(RESP_STALE_TERM);
                out.extend_from_slice(&current.to_le_bytes());
            }
            ReplResponse::Malformed => out.push(RESP_MALFORMED),
            ReplResponse::Unavailable => out.push(RESP_UNAVAILABLE),
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<ReplResponse> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            RESP_ACK => {
                if rest.len() != 24 {
                    return None;
                }
                Some(ReplResponse::Ack {
                    term: u64::from_le_bytes(rest[0..8].try_into().ok()?),
                    last_seq: u64::from_le_bytes(rest[8..16].try_into().ok()?),
                    acked_seq: u64::from_le_bytes(rest[16..24].try_into().ok()?),
                })
            }
            RESP_GAP => {
                if rest.len() != 8 {
                    return None;
                }
                Some(ReplResponse::Gap {
                    expected: u64::from_le_bytes(rest.try_into().ok()?),
                })
            }
            RESP_STALE_TERM => {
                if rest.len() != 8 {
                    return None;
                }
                Some(ReplResponse::StaleTerm {
                    current: u64::from_le_bytes(rest.try_into().ok()?),
                })
            }
            RESP_MALFORMED => rest.is_empty().then_some(ReplResponse::Malformed),
            RESP_UNAVAILABLE => rest.is_empty().then_some(ReplResponse::Unavailable),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Replica node
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct NodeInner {
    term: u64,
    base_image: StoreImage,
    base_seq: u64,
    /// Records covering `(base_seq, last_seq]`, contiguous.
    log: Vec<ReplRecord>,
    /// Highest seq covered by a completed fsync or the installed base.
    acked_seq: u64,
    /// The WAL medium crashed: refuse appends until [`ReplicaNode::recover`].
    crashed: bool,
}

impl NodeInner {
    fn last_seq(&self) -> u64 {
        self.log.last().map_or(self.base_seq, |r| r.seq)
    }

    fn image(&self) -> StoreImage {
        let mut image = self.base_image.clone();
        for rec in &self.log {
            apply_op(&mut image, &rec.op);
        }
        image
    }
}

/// One replica host's replication engine: applies the primary's record
/// stream to its own WAL (own fsync policy, own crash injection) and
/// answers position/gap/stale-term per request. Pure protocol machine —
/// no transport, no clock; the fabric feeds it raw request bytes.
pub struct ReplicaNode {
    inner: Mutex<NodeInner>,
    wal: Wal,
    sim: Arc<SimMedium>,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ReplicaNode")
            .field("term", &inner.term)
            .field("last_seq", &inner.last_seq())
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
            inner: Mutex::new(NodeInner {
                term: 0,
                base_image: StoreImage::new(),
                base_seq: 0,
                log: Vec::new(),
                acked_seq: 0,
                crashed: false,
            }),
            wal: Wal::new(sim.clone(), fsync),
            sim,
        })
    }

    /// Build a node from an existing history (the deposed primary wrapping
    /// itself up to rejoin the cluster as a replica). The whole history is
    /// written through the node's WAL and fsynced, so `acked_seq` starts at
    /// `last_seq`.
    pub fn from_history(
        term: u64,
        base_image: StoreImage,
        base_seq: u64,
        log: Vec<ReplRecord>,
        fsync: FsyncPolicy,
    ) -> Arc<ReplicaNode> {
        let node = ReplicaNode::new(fsync);
        {
            let mut inner = node.inner.lock();
            for rec in &log {
                node.wal.append_payload(&rec.encode());
            }
            node.wal.sync();
            inner.term = term;
            inner.base_image = base_image;
            inner.base_seq = base_seq;
            inner.acked_seq = log.last().map_or(base_seq, |r| r.seq);
            inner.log = log;
        }
        node
    }

    /// The crash-injectable medium under this node's WAL.
    pub fn sim_medium(&self) -> &Arc<SimMedium> {
        &self.sim
    }

    pub fn term(&self) -> u64 {
        self.inner.lock().term
    }

    /// Highest contiguous seq appended here.
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().last_seq()
    }

    /// Highest seq this node has made durable (fsync or installed base).
    pub fn acked_seq(&self) -> u64 {
        self.inner.lock().acked_seq
    }

    /// The node's current materialized store image.
    pub fn image(&self) -> StoreImage {
        self.inner.lock().image()
    }

    /// Deterministically encoded image (for convergence assertions).
    pub fn encoded_image(&self) -> Vec<u8> {
        encode_store(&self.inner.lock().image())
    }

    /// Reboot after a WAL crash: revive the medium and rebuild the log from
    /// the bytes that survived (the acked prefix plus whatever unsynced
    /// tail reached the platter). The installed base survives by
    /// construction (installs are atomic).
    pub fn recover(&self) {
        let mut inner = self.inner.lock();
        self.sim.revive();
        let image = self.sim.durable_image();
        let (records, _, _) = decode_repl_stream(&image);
        // Everything that survived the crash is on the platter now — it is
        // all durable, so the ack watermark moves to the survived tip.
        inner.log = records;
        let last = inner.last_seq();
        inner.acked_seq = last;
        inner.crashed = false;
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
        let resp = match req {
            ReplRequest::Append { term, stream } => self.handle_append(&mut inner, term, &stream),
            ReplRequest::InstallBase {
                term,
                base_seq,
                image,
            } => self.handle_install(&mut inner, term, base_seq, &image),
            ReplRequest::Status => self.ack(&inner),
            ReplRequest::TruncateTo { term, seq } => self.handle_truncate(&mut inner, term, seq),
        };
        resp.encode()
    }

    fn ack(&self, inner: &NodeInner) -> ReplResponse {
        ReplResponse::Ack {
            term: inner.term,
            last_seq: inner.last_seq(),
            acked_seq: inner.acked_seq,
        }
    }

    fn handle_append(&self, inner: &mut NodeInner, term: u64, stream: &[u8]) -> ReplResponse {
        if inner.crashed {
            return ReplResponse::Unavailable;
        }
        if term < inner.term {
            return ReplResponse::StaleTerm {
                current: inner.term,
            };
        }
        inner.term = term;
        let (records, valid, torn) = decode_repl_stream(stream);
        if torn.is_some() || valid != stream.len() {
            return ReplResponse::Malformed;
        }
        for rec in records {
            let expected = inner.last_seq() + 1;
            if rec.seq > expected {
                return ReplResponse::Gap { expected };
            }
            if rec.seq < expected {
                // Duplicate resend of an already-appended record: skip.
                continue;
            }
            let outcome = self.wal.append_payload(&rec.encode());
            if !outcome.ok {
                inner.crashed = true;
                return ReplResponse::Unavailable;
            }
            inner.log.push(rec);
            if outcome.synced {
                inner.acked_seq = inner.last_seq();
            }
        }
        self.ack(inner)
    }

    fn handle_install(
        &self,
        inner: &mut NodeInner,
        term: u64,
        base_seq: u64,
        image: &[u8],
    ) -> ReplResponse {
        if inner.crashed {
            return ReplResponse::Unavailable;
        }
        if term < inner.term {
            return ReplResponse::StaleTerm {
                current: inner.term,
            };
        }
        let Ok(base) = decode_store(image) else {
            return ReplResponse::Malformed;
        };
        inner.term = term;
        inner.base_image = base;
        inner.base_seq = base_seq;
        inner.log.clear();
        // The base install is atomic (snapshot semantics): durable at once.
        self.wal.medium().truncate();
        self.wal.sync();
        inner.acked_seq = base_seq;
        self.ack(inner)
    }

    fn handle_truncate(&self, inner: &mut NodeInner, term: u64, seq: u64) -> ReplResponse {
        if inner.crashed {
            return ReplResponse::Unavailable;
        }
        if term < inner.term {
            return ReplResponse::StaleTerm {
                current: inner.term,
            };
        }
        inner.term = term;
        inner.log.retain(|r| r.seq <= seq);
        // Rewrite the WAL to match the truncated log so a crash after the
        // truncation cannot resurrect the dropped tail. The rewrite ends in
        // a sync, so the whole surviving log is durable again.
        self.wal.medium().truncate();
        for rec in &inner.log {
            self.wal.append_payload(&rec.encode());
        }
        self.wal.sync();
        inner.acked_seq = inner.last_seq();
        self.ack(inner)
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
        self.with_link(a, b, |l| l.severed = true);
        self.with_link(b, a, |l| l.severed = true);
    }

    /// Cut `from → to` after exactly `k` more successful deliveries (the
    /// reverse direction severs at the same moment — a partition, not a
    /// one-way wire fault).
    pub fn sever_after(&self, from: &str, to: &str, k: u64) {
        self.with_link(from, to, |l| l.sever_after = Some(l.delivered + k));
    }

    /// Restore both directions between `a` and `b`.
    pub fn heal(&self, a: &str, b: &str) {
        self.with_link(a, b, |l| {
            l.severed = false;
            l.sever_after = None;
        });
        self.with_link(b, a, |l| {
            l.severed = false;
            l.sever_after = None;
        });
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
                link.severed = true;
                link.sever_after = None;
                // A partition cuts both directions at once.
                links
                    .entry((to.to_owned(), from.to_owned()))
                    .or_default()
                    .severed = true;
                return Err(ShipError::Unreachable);
            }
            let link = links.entry((from.to_owned(), to.to_owned())).or_default();
            if link.severed {
                return Err(ShipError::Unreachable);
            }
            link.delivered += 1;
            link.garble_bit.take()
        };
        let node = self
            .nodes
            .lock()
            .get(to)
            .cloned()
            .ok_or(ShipError::Unreachable)?;
        let response = match garble {
            Some(bit) if !request.is_empty() => {
                let mut garbled = request.to_vec();
                let idx = (bit / 8) as usize % garbled.len();
                garbled[idx] ^= 1 << (bit % 8);
                node.handle(&garbled)
            }
            _ => node.handle(request),
        };
        Ok(response)
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
    /// Resend budget per shipment for retryable failures (drops, garbles).
    pub max_retries: usize,
}

impl ReplConfig {
    /// Majority quorum for a cluster of `members` total members.
    pub fn majority(members: usize) -> ReplConfig {
        ReplConfig {
            quorum: members / 2 + 1,
            max_retries: 8,
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

struct PrimaryState {
    term: u64,
    base_image: StoreImage,
    base_seq: u64,
    /// Records covering `(base_seq, next_seq)`, contiguous.
    log: Vec<ReplRecord>,
    next_seq: u64,
    /// Highest seq fsynced on the primary itself.
    primary_acked: u64,
    /// Seq at which this primary's term began (members truncate to here).
    promotion_seq: u64,
    members: Vec<MemberState>,
    /// A member answered with a higher term: this primary was deposed.
    deposed: bool,
}

impl PrimaryState {
    fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    fn image(&self) -> StoreImage {
        let mut image = self.base_image.clone();
        for rec in &self.log {
            apply_op(&mut image, &rec.op);
        }
        image
    }
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
            .field("term", &st.term)
            .field("last_seq", &st.last_seq())
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
        Replicator {
            self_id: self_id.to_owned(),
            fabric,
            cfg,
            state: Mutex::new(PrimaryState {
                term: 1,
                base_image: StoreImage::new(),
                base_seq: 0,
                log: Vec::new(),
                next_seq: 1,
                primary_acked: 0,
                promotion_seq: 0,
                members: member_ids
                    .iter()
                    .map(|id| MemberState {
                        id: (*id).to_owned(),
                        matched_seq: 0,
                        acked_seq: 0,
                        reachable: true,
                        needs_truncate: false,
                    })
                    .collect(),
                deposed: false,
            }),
        }
    }

    pub fn self_id(&self) -> &str {
        &self.self_id
    }

    pub fn term(&self) -> u64 {
        self.state.lock().term
    }

    pub fn last_seq(&self) -> u64 {
        self.state.lock().last_seq()
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

    pub fn member_ids(&self) -> Vec<String> {
        self.state
            .lock()
            .members
            .iter()
            .map(|m| m.id.clone())
            .collect()
    }

    /// The primary's materialized image (base + log).
    pub fn image(&self) -> StoreImage {
        self.state.lock().image()
    }

    /// The full history this primary would ship to an empty member.
    pub fn history(&self) -> (StoreImage, u64, Vec<ReplRecord>) {
        let st = self.state.lock();
        (st.base_image.clone(), st.base_seq, st.log.clone())
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
        let last = st.last_seq();
        st.members
            .iter()
            .find(|m| m.id == id)
            .map(|m| last.saturating_sub(m.acked_seq))
    }

    /// The worst member lag.
    pub fn max_lag(&self) -> u64 {
        let st = self.state.lock();
        let last = st.last_seq();
        st.members
            .iter()
            .map(|m| last.saturating_sub(m.acked_seq))
            .max()
            .unwrap_or(0)
    }

    /// Readiness probe: `Err` when any replica's durable lag exceeds
    /// `max_lag` records (wire into the admin plane's `/readyz`).
    pub fn lag_check(&self, max_lag: u64) -> Result<(), String> {
        let st = self.state.lock();
        let last = st.last_seq();
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
        while st.log.first().is_some_and(|r| r.seq <= watermark) {
            let rec = st.log.remove(0);
            apply_op(&mut st.base_image, &rec.op);
            st.base_seq = rec.seq;
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
        st.members[idx].reachable && st.members[idx].matched_seq == st.last_seq()
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
        if st.members.iter().any(|m| m.id == id) {
            return;
        }
        st.members.push(MemberState {
            id: id.to_owned(),
            matched_seq: 0,
            acked_seq: 0,
            reachable: true,
            needs_truncate: true,
        });
    }

    /// Wrap this (deposed) primary's entire history as a [`ReplicaNode`]
    /// so it can rejoin the cluster as a replica: the new primary's
    /// `TruncateTo` then erases the unacked divergent tail.
    pub fn to_node(&self, fsync: FsyncPolicy) -> Arc<ReplicaNode> {
        let st = self.state.lock();
        ReplicaNode::from_history(
            st.term,
            st.base_image.clone(),
            st.base_seq,
            st.log.clone(),
            fsync,
        )
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
        let term = st.term;
        let promotion_seq = st.promotion_seq;
        let mut retries = self.cfg.max_retries;
        // Each healthy round trip strictly advances matched_seq or finishes,
        // and every retryable failure decrements the budget — but cap the
        // total rounds anyway so a misbehaving member can never wedge the
        // primary's write path.
        let mut rounds = 2 * (self.cfg.max_retries + 4);
        loop {
            if rounds == 0 {
                st.members[idx].reachable = false;
                return;
            }
            rounds -= 1;
            let (needs_truncate, from_seq) = {
                let m = &st.members[idx];
                (m.needs_truncate, m.matched_seq + 1)
            };
            let request = if needs_truncate {
                ReplRequest::TruncateTo {
                    term,
                    seq: promotion_seq,
                }
            } else if from_seq <= st.base_seq {
                // Behind the compaction horizon: snapshot first.
                ReplRequest::InstallBase {
                    term,
                    base_seq: st.base_seq,
                    image: encode_store(&st.base_image),
                }
            } else {
                let start = (from_seq - st.base_seq - 1) as usize;
                if start >= st.log.len() {
                    st.members[idx].reachable = true;
                    return;
                }
                ReplRequest::Append {
                    term,
                    stream: encode_repl_stream(&st.log[start..]),
                }
            };
            let to = st.members[idx].id.clone();
            match self.fabric.deliver(&self.self_id, &to, &request.encode()) {
                Err(ShipError::Unreachable) => {
                    st.members[idx].reachable = false;
                    return;
                }
                Err(ShipError::Dropped) => {
                    if retries == 0 {
                        st.members[idx].reachable = false;
                        return;
                    }
                    retries -= 1;
                }
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
                        let member = &mut st.members[idx];
                        member.reachable = true;
                        if member.needs_truncate {
                            member.needs_truncate = false;
                            member.matched_seq = last_seq;
                            member.acked_seq = acked_seq;
                            // Fall through: next loop iteration appends the
                            // suffix under the new term.
                        } else {
                            member.matched_seq = last_seq;
                            member.acked_seq = acked_seq;
                            if last_seq >= st.last_seq() {
                                return;
                            }
                        }
                    }
                    Some(ReplResponse::Gap { expected }) => {
                        st.members[idx].matched_seq = expected.saturating_sub(1);
                    }
                    Some(ReplResponse::StaleTerm { .. }) => {
                        st.deposed = true;
                        return;
                    }
                    Some(ReplResponse::Malformed) | None => {
                        // Garbled in flight (either direction): resend.
                        if retries == 0 {
                            st.members[idx].reachable = false;
                            return;
                        }
                        retries -= 1;
                    }
                    Some(ReplResponse::Unavailable) => {
                        st.members[idx].reachable = false;
                        return;
                    }
                },
            }
        }
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
        let seq = st.next_seq;
        st.next_seq += 1;
        let term = st.term;
        st.log.push(ReplRecord {
            term,
            seq,
            op: op.clone(),
        });
        if synced {
            st.primary_acked = seq;
        }
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
    let Some((_, promotee)) = survivors
        .iter()
        .find(|(id, _)| id == promotee_id)
        .filter(|(_, n)| n.acked_seq() == best)
    else {
        let chosen = survivors
            .iter()
            .find(|(id, _)| id == promotee_id)
            .map(|(_, n)| n.acked_seq())
            .unwrap_or(0);
        return Err(PromoteError::NotLongestAcked { best, chosen });
    };
    // The promotee's full appended history (acked prefix plus any synced
    // tail that survived) becomes the cluster history; its own unacked
    // in-memory suffix is legitimate too — it is the longest surviving
    // history and nothing quorum-acked can extend past it on any survivor
    // we must honor.
    let inner = promotee.inner.lock();
    let term = inner.term + 1;
    let promotion_seq = inner.last_seq();
    let state = PrimaryState {
        term,
        base_image: inner.base_image.clone(),
        base_seq: inner.base_seq,
        log: inner.log.clone(),
        next_seq: promotion_seq + 1,
        primary_acked: promotion_seq,
        promotion_seq,
        members: survivors
            .iter()
            .filter(|(id, _)| id != promotee_id)
            .map(|(id, _)| MemberState {
                id: id.clone(),
                matched_seq: 0,
                acked_seq: 0,
                reachable: true,
                needs_truncate: true,
            })
            .collect(),
        deposed: false,
    };
    drop(inner);
    let repl = Replicator {
        self_id: promotee_id.to_owned(),
        fabric,
        cfg,
        state: Mutex::new(state),
    };
    // First contact: truncate every surviving member to the promotion
    // point and pull them up to the new primary's history.
    repl.ship_all();
    Ok(repl)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let repl = Replicator::new(
            "primary",
            &id_refs,
            fabric.clone(),
            ReplConfig {
                quorum,
                max_retries: 8,
            },
        );
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
        let (records, valid, torn) = decode_repl_stream(&stream);
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
        let (records, _, torn) = decode_repl_stream(&bad);
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
            ReplRequest::Status,
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
            ReplResponse::Gap { expected: 4 },
            ReplResponse::StaleTerm { current: 5 },
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
        assert_eq!(repl.history().2.len(), 0);
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
        assert_eq!(resp, ReplResponse::Gap { expected: 1 });
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
        assert_eq!(resp, ReplResponse::StaleTerm { current: 3 });
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
        let repl = Replicator::new(
            "primary",
            &["r1"],
            fabric.clone(),
            ReplConfig {
                quorum: 2,
                max_retries: 8,
            },
        );
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

    #[test]
    fn replica_crash_loses_only_unsynced_tail_and_recovers() {
        let fabric = LoopbackFabric::new();
        let node = ReplicaNode::new(FsyncPolicy::GroupCommit(2));
        fabric.register("r1", node.clone());
        let repl = Replicator::new(
            "primary",
            &["r1"],
            fabric.clone(),
            ReplConfig {
                quorum: 1,
                max_retries: 8,
            },
        );
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
        let (_, _, log) = new_repl.history();
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
}
