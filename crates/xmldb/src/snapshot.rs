//! Periodic snapshots of the durable store image, with log compaction.
//!
//! A snapshot is the full store serialized as a magic header plus one
//! CRC-framed record per document (reusing the WAL framing), in collection
//! then key order — so encoding is a pure function of the store contents
//! and two recoveries of the same state produce byte-identical snapshots.
//!
//! Installation is **atomic**: the [`SnapshotMedium`] either exposes the
//! complete new snapshot or the previous one, never a torn mix (the file
//! medium writes a temp file and renames it into place). The WAL is
//! truncated only *after* the install succeeds; a crash between the two
//! leaves pre-snapshot records in the log, which is harmless because
//! replaying an op sequence onto a state that already reflects it is a
//! no-op (`Put`/`Delete` are absolute, last-writer-wins).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ogsa_xml::Element;
use parking_lot::Mutex;

use crate::wal::{decode_records, frame_record, WalOp};

/// The durable image: collection name → key → document. `BTreeMap` keeps
/// iteration (and therefore snapshot bytes) deterministic.
pub type StoreImage = BTreeMap<String, BTreeMap<String, Element>>;

/// 8-byte magic + format version prefixing every snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"OGSASNP1";

/// Serialize a store image. Deterministic: same image, same bytes.
pub fn encode_store(image: &StoreImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 64 * image.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    for (collection, docs) in image {
        for (key, doc) in docs {
            let payload = WalOp::Put {
                collection: collection.clone(),
                key: key.clone(),
                doc: doc.clone(),
            }
            .encode();
            frame_record(&payload, &mut out);
        }
    }
    out
}

/// Deserialize a snapshot. Strict: a bad magic, torn record, or non-`Put`
/// op rejects the whole snapshot (installs are atomic, so a damaged
/// snapshot means the medium itself lied — better to fail loudly than
/// recover silently wrong state).
pub fn decode_store(bytes: &[u8]) -> Result<StoreImage, &'static str> {
    let body = bytes
        .strip_prefix(SNAPSHOT_MAGIC.as_slice())
        .ok_or("snapshot magic mismatch")?;
    let (ops, valid, torn) = decode_records(body);
    if torn.is_some() || valid != body.len() {
        return Err("snapshot is torn or corrupt");
    }
    let mut image = StoreImage::new();
    for op in ops {
        match op {
            WalOp::Put {
                collection,
                key,
                doc,
            } => {
                image.entry(collection).or_default().insert(key, doc);
            }
            _ => return Err("snapshot contains a non-Put record"),
        }
    }
    Ok(image)
}

/// Apply one WAL op to a store image (replay). Absolute semantics: `Put`
/// overwrites, `Delete` removes, a batch applies wholly — re-applying a
/// sequence the image already reflects changes nothing.
pub fn apply_op(image: &mut StoreImage, op: &WalOp) {
    match op {
        WalOp::Put {
            collection,
            key,
            doc,
        } => {
            image
                .entry(collection.clone())
                .or_default()
                .insert(key.clone(), doc.clone());
        }
        WalOp::Delete { collection, key } => {
            if let Some(docs) = image.get_mut(collection) {
                docs.remove(key);
                if docs.is_empty() {
                    image.remove(collection);
                }
            }
        }
        WalOp::PutBatch {
            collection,
            entries,
        } => {
            let docs = image.entry(collection.clone()).or_default();
            for (key, doc) in entries {
                docs.insert(key.clone(), doc.clone());
            }
        }
    }
}

/// Where snapshots live. `install` atomically replaces the previous
/// snapshot; `load` returns the latest complete one.
pub trait SnapshotMedium: Send + Sync {
    fn install(&self, bytes: Vec<u8>) -> bool;
    fn load(&self) -> Option<Vec<u8>>;
    /// Remove any partially-written install left behind by a crash (the
    /// staged `*.tmp` image that never got renamed into place). Returns how
    /// many orphans were removed. Recovery calls this so a crash inside
    /// `install` can never leave a stale staging file beside the WAL.
    fn discard_orphans(&self) -> usize {
        0
    }
}

/// In-memory snapshot slot (atomic by construction). Installation stages
/// the bytes first and then publishes them, mirroring the file medium's
/// tmp+rename dance — so the crash harness can arm a power loss *between*
/// the two and leave a simulated orphan tmp image behind.
#[derive(Debug, Default)]
pub struct SimSnapshotMedium {
    state: Mutex<SimSnapshotState>,
}

#[derive(Debug, Default)]
struct SimSnapshotState {
    slot: Option<Vec<u8>>,
    /// Staged-but-not-published install (the `*.tmp` analogue).
    staged: Option<Vec<u8>>,
    installs: u64,
    crash_install: Option<u64>,
}

impl SimSnapshotMedium {
    pub fn new() -> Arc<SimSnapshotMedium> {
        Arc::new(SimSnapshotMedium::default())
    }

    /// Arm a crash at the `k`-th (0-based) install: the staged bytes are
    /// written but never published — exactly a crash between the tmp
    /// write and the rename.
    pub fn arm_install_crash(&self, k: u64) {
        self.state.lock().crash_install = Some(k);
    }

    /// Is a staged-but-unpublished install lying around?
    pub fn has_orphan(&self) -> bool {
        self.state.lock().staged.is_some()
    }

    /// Completed `install` attempts (for arming sweep points).
    pub fn installs(&self) -> u64 {
        self.state.lock().installs
    }
}

impl SnapshotMedium for SimSnapshotMedium {
    fn install(&self, bytes: Vec<u8>) -> bool {
        let mut s = self.state.lock();
        s.staged = Some(bytes);
        s.installs += 1;
        if s.crash_install == Some(s.installs - 1) {
            // Power loss between staging and publish: the orphan stays.
            s.crash_install = None;
            return false;
        }
        s.slot = s.staged.take();
        true
    }

    fn load(&self) -> Option<Vec<u8>> {
        self.state.lock().slot.clone()
    }

    fn discard_orphans(&self) -> usize {
        usize::from(self.state.lock().staged.take().is_some())
    }
}

/// File snapshot: write `<path>.tmp`, fsync, rename over `<path>` — the
/// rename is the atomic install.
#[derive(Debug)]
pub struct FileSnapshotMedium {
    path: PathBuf,
}

impl FileSnapshotMedium {
    pub fn new(path: &Path) -> Arc<FileSnapshotMedium> {
        Arc::new(FileSnapshotMedium {
            path: path.to_owned(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl SnapshotMedium for FileSnapshotMedium {
    fn install(&self, bytes: Vec<u8>) -> bool {
        let tmp = self.path.with_extension("tmp");
        let write = || -> std::io::Result<()> {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
            std::fs::rename(&tmp, &self.path)
        };
        write().is_ok()
    }

    fn load(&self) -> Option<Vec<u8>> {
        std::fs::read(&self.path).ok()
    }

    fn discard_orphans(&self) -> usize {
        let tmp = self.path.with_extension("tmp");
        usize::from(tmp.exists() && std::fs::remove_file(&tmp).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(v: i64) -> Element {
        Element::new("r").with_child(Element::text_element("v", v.to_string()))
    }

    fn image() -> StoreImage {
        let mut img = StoreImage::new();
        for (c, k, v) in [("a", "k1", 1), ("a", "k2", 2), ("b", "k1", 3)] {
            img.entry(c.into()).or_default().insert(k.into(), doc(v));
        }
        img
    }

    #[test]
    fn encode_decode_round_trips() {
        let img = image();
        let bytes = encode_store(&img);
        assert_eq!(decode_store(&bytes).unwrap(), img);
        // Deterministic: same image, same bytes.
        assert_eq!(bytes, encode_store(&img));
    }

    #[test]
    fn decode_rejects_bad_magic_and_torn_bytes() {
        let img = image();
        let bytes = encode_store(&img);
        assert!(decode_store(b"NOTMAGIC").is_err());
        assert!(decode_store(&bytes[..bytes.len() - 3]).is_err());
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(decode_store(&flipped).is_err());
    }

    #[test]
    fn replaying_applied_ops_is_idempotent() {
        // The compaction-tear safety argument, executable: applying a
        // sequence onto the state it produced changes nothing.
        let ops = vec![
            WalOp::Put {
                collection: "c".into(),
                key: "k".into(),
                doc: doc(1),
            },
            WalOp::Delete {
                collection: "c".into(),
                key: "k".into(),
            },
            WalOp::PutBatch {
                collection: "c".into(),
                entries: vec![("k".into(), doc(2)), ("j".into(), doc(3))],
            },
        ];
        let mut img = StoreImage::new();
        for op in &ops {
            apply_op(&mut img, op);
        }
        let settled = img.clone();
        for op in &ops {
            apply_op(&mut img, op);
        }
        assert_eq!(img, settled);
    }

    #[test]
    fn delete_of_last_doc_drops_the_collection_entry() {
        let mut img = StoreImage::new();
        apply_op(
            &mut img,
            &WalOp::Put {
                collection: "c".into(),
                key: "k".into(),
                doc: doc(1),
            },
        );
        apply_op(
            &mut img,
            &WalOp::Delete {
                collection: "c".into(),
                key: "k".into(),
            },
        );
        assert!(img.is_empty());
        // Deleting from an absent collection is a no-op, not a panic.
        apply_op(
            &mut img,
            &WalOp::Delete {
                collection: "ghost".into(),
                key: "k".into(),
            },
        );
    }

    #[test]
    fn sim_medium_installs_atomically() {
        let m = SimSnapshotMedium::new();
        assert!(m.load().is_none());
        assert!(m.install(encode_store(&image())));
        assert_eq!(decode_store(&m.load().unwrap()).unwrap(), image());
    }

    #[test]
    fn sim_install_crash_stages_an_orphan_and_keeps_the_old_snapshot() {
        let m = SimSnapshotMedium::new();
        assert!(m.install(encode_store(&image())));
        assert!(!m.has_orphan());
        m.arm_install_crash(m.installs());
        let mut bigger = image();
        bigger
            .entry("c".into())
            .or_default()
            .insert("k9".into(), doc(9));
        assert!(!m.install(encode_store(&bigger)), "armed install crashes");
        // The previous snapshot is still the published one; the new bytes
        // are stranded in the staging slot.
        assert_eq!(decode_store(&m.load().unwrap()).unwrap(), image());
        assert!(m.has_orphan());
        assert_eq!(m.discard_orphans(), 1);
        assert!(!m.has_orphan());
        assert_eq!(m.discard_orphans(), 0);
        // Installs work again after the orphan is gone.
        assert!(m.install(encode_store(&bigger)));
        assert_eq!(decode_store(&m.load().unwrap()).unwrap(), bigger);
    }

    #[test]
    fn file_medium_discards_orphan_tmp_files() {
        let dir = std::env::temp_dir().join(format!("ogsa-snap-orphan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        let m = FileSnapshotMedium::new(&path);
        assert!(m.install(encode_store(&image())));
        // Fake a crash mid-install: a stale tmp image beside the snapshot.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, b"half-written snapshot").unwrap();
        assert_eq!(m.discard_orphans(), 1);
        assert!(!tmp.exists());
        assert_eq!(m.discard_orphans(), 0);
        // The published snapshot was untouched.
        assert_eq!(decode_store(&m.load().unwrap()).unwrap(), image());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_medium_installs_via_rename() {
        let dir = std::env::temp_dir().join(format!("ogsa-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = FileSnapshotMedium::new(&dir.join("snapshot.bin"));
        assert!(m.load().is_none());
        assert!(m.install(encode_store(&image())));
        assert_eq!(decode_store(&m.load().unwrap()).unwrap(), image());
        // A second install replaces the first.
        let mut bigger = image();
        bigger
            .entry("c".into())
            .or_default()
            .insert("k9".into(), doc(9));
        assert!(m.install(encode_store(&bigger)));
        assert_eq!(decode_store(&m.load().unwrap()).unwrap(), bigger);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
