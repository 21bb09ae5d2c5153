//! # ogsa-bench
//!
//! The paper's figures and the repo's `BENCH_*.json` artifacts, one binary:
//!
//! | `cargo run --release -p ogsa-bench -- …` | regenerates |
//! |---|---|
//! | `report` | everything EXPERIMENTS.md reports, or one section of it: |
//! | `report fig2` / `fig3` / `fig4` | Figures 2–4 (no security, HTTPS, X.509 signing) |
//! | `report fig6` | Figure 6 (Grid-in-a-Box) |
//! | `report broker` | §3.1 demand-based message estimate |
//! | `report ablations` | §4.1.3 mechanism claims |
//! | `report trajectory` | `BENCH_trajectory.json` per workload × metric across PRs, a regression against any earlier PR marked (not part of plain `report`) |
//! | `counter [out-dir]` | traced component breakdowns → `BENCH_counter/_gridbox/_trace.json` |
//! | `throughput [out-dir]` | client × shard sweep → `BENCH_throughput.json` |
//! | `fanout [out-dir]` | trie vs naive, shard scaling, both stacks' batching → `BENCH_fanout.json` |
//! | `all [out-dir]` | every subcommand above, in that order |
//!
//! `out-dir` defaults to the current directory. The exit code is nonzero
//! only on a usage or I/O error: the invariants these runs exercise are
//! asserted by `cargo test`, each in one place, and the artifacts carry
//! figures, not verdicts. Every figure is virtual time or a count, except
//! the trie-vs-naive timings in `BENCH_fanout.json`, whose ratio a test
//! asserts. How fast the implementation really runs — end to end and per
//! layer — is timed and judged only by the `benchmark/` package against
//! the parent commit (`BENCHMARK.json`).

pub mod counter;
pub mod fanout;
pub mod fixture;
pub mod loadgen;
pub mod report;
pub mod throughput;
pub mod trajectory;

/// `[a,b,c]` from already-rendered JSON values.
pub(crate) fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// An artifact subcommand: its name, and its body, which prints its rows
/// and returns each artifact as (file name, contents).
pub type Subcommand = (&'static str, fn() -> Vec<(&'static str, String)>);

/// Every artifact subcommand, in the order `all` runs them.
pub const SUBCOMMANDS: &[Subcommand] = &[
    ("counter", counter::run),
    ("throughput", throughput::run),
    ("fanout", fanout::run),
];

/// Run `subcommands` in order, writing each one's artifacts under `out_dir`.
pub fn run(out_dir: &str, subcommands: &[Subcommand]) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    for (_, body) in subcommands {
        for (file, contents) in body() {
            let path = format!("{out_dir}/{file}");
            std::fs::write(&path, contents)?;
            println!("wrote {path}");
        }
        println!();
    }
    Ok(())
}
