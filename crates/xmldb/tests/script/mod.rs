//! The write scripts the crash and failover harnesses replay, and the
//! oracle they are checked against: the store image after each whole-op
//! prefix.

use ogsa_xml::Element;
use ogsa_xmldb::snapshot::apply_op;
use ogsa_xmldb::wal::WalOp;
use ogsa_xmldb::{encode_store, Database, StoreImage};

pub const COLL: &str = "resources";

/// One scripted mutation, driven through the public `Collection` API so the
/// whole `on_write`/`on_write_many` seam is under test, not just the WAL.
#[derive(Debug, Clone)]
pub enum ScriptOp {
    Insert(String, i64),
    Update(String, i64),
    Delete(String),
    Batch(Vec<(String, i64)>),
}

pub fn doc(v: i64) -> Element {
    Element::new("counter").with_child(Element::text_element("value", v.to_string()))
}

/// Run the script against the database. Ops keep applying in memory after
/// a crash (disk-died semantics) — exactly the writes recovery must lose.
pub fn run_script(db: &Database, ops: &[ScriptOp]) {
    let c = db.collection(COLL);
    for op in ops {
        match op {
            ScriptOp::Insert(k, v) => c.insert(k, doc(*v)).expect("script inserts fresh keys"),
            ScriptOp::Update(k, v) => c.update(k, doc(*v)).expect("script updates live keys"),
            ScriptOp::Delete(k) => {
                assert!(c.remove(k).is_some(), "script deletes live keys");
            }
            ScriptOp::Batch(entries) => c
                .insert_many(entries.iter().map(|(k, v)| (k.clone(), doc(*v))).collect())
                .expect("script batches are duplicate-free"),
        }
    }
}

/// The WAL op a script op turns into (entry order inside a batch does not
/// matter for the image — `PutBatch` replay is a set of absolute puts).
pub fn wal_op(op: &ScriptOp) -> WalOp {
    match op {
        ScriptOp::Insert(k, v) | ScriptOp::Update(k, v) => WalOp::Put {
            collection: COLL.to_owned(),
            key: k.clone(),
            doc: doc(*v),
        },
        ScriptOp::Delete(k) => WalOp::Delete {
            collection: COLL.to_owned(),
            key: k.clone(),
        },
        ScriptOp::Batch(entries) => WalOp::PutBatch {
            collection: COLL.to_owned(),
            entries: entries.iter().map(|(k, v)| (k.clone(), doc(*v))).collect(),
        },
    }
}

/// Encoded store image after each op prefix: `images[j]` is the state a
/// recovery or a converged cluster landing on prefix `j` must reproduce
/// byte-for-byte.
pub fn prefix_images(ops: &[ScriptOp]) -> Vec<Vec<u8>> {
    let mut image = StoreImage::new();
    let mut out = vec![encode_store(&image)];
    for op in ops {
        apply_op(&mut image, &wal_op(op));
        out.push(encode_store(&image));
    }
    out
}

/// Turn raw generated words into a valid script: updates and deletes only
/// target live keys, inserts and batches always use fresh ones.
pub fn derive_script(raw: &[(u8, u64)]) -> Vec<ScriptOp> {
    let mut live: Vec<String> = Vec::new();
    let mut next = 0usize;
    let mut ops = Vec::with_capacity(raw.len());
    for &(kind, word) in raw {
        let fresh_key = |next: &mut usize| {
            let k = format!("g{}", *next);
            *next += 1;
            k
        };
        let op = match kind % 4 {
            1 if !live.is_empty() => {
                let k = live[(word % live.len() as u64) as usize].clone();
                ScriptOp::Update(k, word as i64 & 0xFFFF)
            }
            2 if !live.is_empty() => {
                let i = (word % live.len() as u64) as usize;
                ScriptOp::Delete(live.remove(i))
            }
            3 => {
                let n = 2 + (word % 4) as usize;
                // Batch keys stay out of `live`: nothing ever updates or
                // deletes them, so batch atomicity stays observable in
                // every recovered state.
                let entries: Vec<(String, i64)> = (0..n)
                    .map(|i| (fresh_key(&mut next), (word as i64 & 0xFFF) + i as i64))
                    .collect();
                ScriptOp::Batch(entries)
            }
            _ => {
                let k = fresh_key(&mut next);
                live.push(k.clone());
                ScriptOp::Insert(k, word as i64 & 0xFFFF)
            }
        };
        ops.push(op);
    }
    ops
}
