//! Pins the outputs of the workspace's one string hash at its three
//! routing call sites. Shard busy attribution (the throughput figures),
//! span dumps and the §4.2.2 hash-of-DN directory names all depend on
//! these exact values, so relocating or "improving" the hash must fail
//! here rather than silently move them.

use std::sync::Arc;

use ogsa_grid::addressing::EndpointReference;
use ogsa_grid::fanout::{ShardedTable, Subscriber};
use ogsa_grid::gridbox::HostFs;
use ogsa_grid::sim::{CostModel, VirtualClock};
use ogsa_grid::xmldb::{BackendKind, Database, DEFAULT_SHARDS};

#[derive(Clone)]
struct Sub(EndpointReference);

impl Subscriber for Sub {
    fn sub_id(&self) -> &str {
        "sub"
    }
    fn endpoint(&self) -> &EndpointReference {
        &self.0
    }
}

#[test]
fn collection_keys_route_to_pinned_shards() {
    let db = Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::free()),
        BackendKind::Memory,
    );
    let c = db.collection("counters");
    assert_eq!((c.shard_count(), DEFAULT_SHARDS), (8, 8));
    for (key, shard) in [
        ("counter-1", 1),
        ("counter-2", 0),
        ("counter-17", 2),
        ("k0", 6),
        ("urn:uuid:0000-abcd", 0),
        ("", 5),
    ] {
        assert_eq!(c.shard_of(key), shard, "key {key:?}");
    }
}

#[test]
fn topic_roots_route_to_pinned_shards() {
    let table: ShardedTable<Sub> = ShardedTable::free(16, "wsn");
    for (root, shard) in [
        ("jobs", 13),
        ("counter", 3),
        ("grid", 1),
        ("t0", 9),
        ("ValueChanged", 14),
        ("", 5),
    ] {
        assert_eq!(table.shard_of(root), shard, "root {root:?}");
    }
}

#[test]
fn dn_directories_keep_their_names() {
    assert_eq!(
        HostFs::dn_directory("CN=alice,O=UVA-VO"),
        "u596904f4beecf52d"
    );
    assert_eq!(HostFs::dn_directory(""), "ucbf29ce484222325");
}
