//! `ogsa-bench fanout`: wall-clocks the precompiled topic trie against the
//! retained naive matcher across subscriber counts (1k → 1M) and topic
//! shapes, sweeps the sharded table's makespan throughput over shard
//! counts, runs both stacks' delivery cores under their honest batching
//! rules, and records the brokered-demand amplification factors. Results
//! go to `BENCH_fanout.json`.
//!
//! The invariants over these tables — trie/naive agreement and its ≥ 10×
//! lead at 100k subscribers, shard scaling, honest batching, amplification
//! ordinals — are asserted by the tests of `comparison::fanout` and
//! `ablation` in `ogsa-core`.

use ogsa_core::ablation;
use ogsa_core::comparison::fanout::{shard_sweep, stack_fanout, trie_vs_naive};

use crate::json_array;

pub fn run() -> Vec<(&'static str, String)> {
    let trie_rows = trie_vs_naive(&[1_000, 10_000, 100_000, 1_000_000]);
    println!(
        "{:>10} {:>9} {:>7} {:>9} {:>12} {:>12} {:>9}  agree",
        "subs", "shape", "probes", "matches", "trie µs", "naive µs", "speedup"
    );
    for r in &trie_rows {
        println!(
            "{:>10} {:>9} {:>7} {:>9} {:>12.1} {:>12.1} {:>8.1}x  {}",
            r.subscribers,
            r.shape.key(),
            r.probes,
            r.matches,
            r.trie_wall_us,
            r.naive_wall_us,
            r.speedup(),
            r.agree
        );
    }

    let shard_rows = shard_sweep(100_000, &[1, 2, 4, 8, 16], 256);
    println!(
        "\n{:>7} {:>10} {:>8} {:>9} {:>14} {:>12}",
        "shards", "subs", "events", "notes", "max busy µs", "notes/s"
    );
    for r in &shard_rows {
        println!(
            "{:>7} {:>10} {:>8} {:>9} {:>14} {:>12.0}",
            r.shards, r.subscribers, r.events, r.notes, r.max_busy_us, r.rps
        );
    }

    let stack_rows = stack_fanout(&[1_000, 10_000], 256);
    println!(
        "\n{:>9} {:>10} {:>8} {:>11} {:>10} {:>12}",
        "stack", "subs", "events", "deliveries", "envelopes", "virtual µs"
    );
    for r in &stack_rows {
        println!(
            "{:>9} {:>10} {:>8} {:>11} {:>10} {:>12}",
            r.stack, r.subscribers, r.events, r.deliveries, r.envelopes, r.virtual_us
        );
    }

    let demand = ablation::demand_lifecycle(3);
    let broker = ablation::broker_amplification(3);
    println!(
        "\namplification: demand lifecycle {:.1}x ({} vs {} msgs), broker {:.1}x",
        demand.factor(),
        demand.brokered_messages,
        demand.direct_messages,
        broker.factor()
    );

    let trie_json = json_array(trie_rows.iter().map(|r| {
        format!(
            concat!(
                "{{\"subscribers\":{},\"shape\":\"{}\",\"probes\":{},\"matches\":{},",
                "\"trie_wall_us\":{:.1},\"naive_wall_us\":{:.1},\"speedup\":{:.2},",
                "\"agree\":{}}}"
            ),
            r.subscribers,
            r.shape.key(),
            r.probes,
            r.matches,
            r.trie_wall_us,
            r.naive_wall_us,
            r.speedup(),
            r.agree
        )
    }));
    let shard_json = json_array(shard_rows.iter().map(|r| {
        format!(
            concat!(
                "{{\"shards\":{},\"subscribers\":{},\"events\":{},\"notes\":{},",
                "\"max_busy_us\":{},\"contentions\":{},\"rps\":{:.1}}}"
            ),
            r.shards, r.subscribers, r.events, r.notes, r.max_busy_us, r.contentions, r.rps
        )
    }));
    let stack_json = json_array(stack_rows.iter().map(|r| {
        format!(
            concat!(
                "{{\"stack\":\"{}\",\"subscribers\":{},\"events\":{},\"deliveries\":{},",
                "\"envelopes\":{},\"virtual_us\":{}}}"
            ),
            r.stack, r.subscribers, r.events, r.deliveries, r.envelopes, r.virtual_us
        )
    }));
    vec![(
        "BENCH_fanout.json",
        format!(
            concat!(
                "{{\"benchmark\":\"fanout\",",
                "\"trie\":{},",
                "\"shard_sweep\":{},",
                "\"stacks\":{},",
                "\"amplification\":{{\"demand_lifecycle_factor\":{:.2},",
                "\"broker_factor\":{:.2}}}}}\n"
            ),
            trie_json,
            shard_json,
            stack_json,
            demand.factor(),
            broker.factor(),
        ),
    )]
}
