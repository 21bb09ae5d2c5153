//! `ogsa-bench fanout`: wall-clocks the precompiled topic trie against the
//! retained naive matcher across subscriber counts (1k → 1M) and topic
//! shapes, sweeps the sharded table's makespan throughput over shard
//! counts, runs both stacks' delivery cores under their honest batching
//! rules, and re-proves the cross-cutting invariants in release mode.
//! Results go to `BENCH_fanout.json`.
//!
//! Gates:
//!
//! 1. **Trie/naive agreement** on every probe of every (size, shape) cell.
//! 2. **Trie ≥ 10×** the naive matcher at 100k subscribers and above.
//! 3. **Shard scaling** — at 100k subscribers the makespan throughput with
//!    16 shards is ≥ 4× the single-shard figure, and the delivered-note
//!    count is shard-count invariant (routing must never change WHAT is
//!    delivered).
//! 4. **Honest batching** — WSN folds envelopes below its delivery count;
//!    WS-Eventing's envelope count equals its delivery count.
//! 5. **PR-2 amplification ordinals preserved** — brokered demand still
//!    amplifies wire messages (≥ 8× per delivered event in the lifecycle
//!    experiment) over the recosted fan-out path.
//! 6. **Batched determinism** — a chaotic coalesced WSN run replays
//!    byte-identically under the same seed and diverges under another.

use ogsa_core::ablation;
use ogsa_core::comparison::fanout::{batched_span_dump, shard_sweep, stack_fanout, trie_vs_naive};

use crate::{json_array, Gates, Outcome};

pub fn run() -> Outcome {
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
        "\n{:>9} {:>10} {:>8} {:>11} {:>10} {:>12} {:>10}",
        "stack", "subs", "events", "deliveries", "envelopes", "virtual µs", "wall ms"
    );
    for r in &stack_rows {
        println!(
            "{:>9} {:>10} {:>8} {:>11} {:>10} {:>12} {:>10.1}",
            r.stack, r.subscribers, r.events, r.deliveries, r.envelopes, r.virtual_us, r.wall_ms
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

    let dump_a = batched_span_dump(11);
    let dump_b = batched_span_dump(11);
    let dump_c = batched_span_dump(12);
    let deterministic = !dump_a.is_empty() && dump_a == dump_b && dump_a != dump_c;
    println!(
        "batched determinism: {} span bytes, same-seed identical: {}, cross-seed distinct: {}",
        dump_a.len(),
        dump_a == dump_b,
        dump_a != dump_c
    );

    let at_scale: Vec<_> = trie_rows
        .iter()
        .filter(|r| r.subscribers >= 100_000)
        .collect();
    let min_speedup_at_scale = at_scale
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    let shard_1 = shard_rows.iter().find(|r| r.shards == 1).expect("1 shard");
    let shard_16 = shard_rows
        .iter()
        .find(|r| r.shards == 16)
        .expect("16 shards");
    let notes_invariant = shard_rows.iter().all(|r| r.notes == shard_1.notes);
    let wsn_folds = stack_rows
        .iter()
        .filter(|r| r.stack == "wsn")
        .all(|r| r.envelopes < r.deliveries);
    let eventing_honest = stack_rows
        .iter()
        .filter(|r| r.stack == "eventing")
        .all(|r| r.envelopes == r.deliveries);

    let gates = vec![
        ("trie_agrees_with_naive", trie_rows.iter().all(|r| r.agree)),
        ("trie_10x_at_100k_subs", min_speedup_at_scale >= 10.0),
        (
            "throughput_scales_with_shards",
            shard_16.rps >= 4.0 * shard_1.rps,
        ),
        ("notes_shard_count_invariant", notes_invariant),
        ("wsn_coalesces_envelopes", wsn_folds),
        ("eventing_envelopes_stay_honest", eventing_honest),
        (
            "amplification_ordinals_preserved",
            demand.factor() >= 8.0 && broker.factor() > 1.0,
        ),
        ("batched_runs_seed_deterministic", deterministic),
    ];

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
                "\"envelopes\":{},\"virtual_us\":{},\"wall_ms\":{:.3}}}"
            ),
            r.stack, r.subscribers, r.events, r.deliveries, r.envelopes, r.virtual_us, r.wall_ms
        )
    }));
    Outcome {
        artifact: (
            "BENCH_fanout.json",
            format!(
                concat!(
                    "{{\"benchmark\":\"fanout\",",
                    "\"trie\":{},",
                    "\"shard_sweep\":{},",
                    "\"stacks\":{},",
                    "\"amplification\":{{\"demand_lifecycle_factor\":{:.2},",
                    "\"broker_factor\":{:.2}}},",
                    "\"determinism\":{{\"span_bytes\":{},\"same_seed_identical\":{},",
                    "\"cross_seed_distinct\":{}}}"
                ),
                trie_json,
                shard_json,
                stack_json,
                demand.factor(),
                broker.factor(),
                dump_a.len(),
                dump_a == dump_b,
                dump_a != dump_c,
            ),
        ),
        extra: Vec::new(),
        gates: Gates::Named(gates),
    }
}
