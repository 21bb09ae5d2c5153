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
//! | `all [out-dir]` | traced component breakdowns → `BENCH_counter/_gridbox/_trace.json` |
//!
//! `out-dir` defaults to the current directory. The exit code is nonzero
//! only on a usage or I/O error: the invariants these runs exercise are
//! asserted by `cargo test`, each in one place, and the artifacts carry
//! figures, not verdicts. Every figure is virtual time or a count, so the
//! artifacts are byte-identical run to run; nothing here reads the host
//! clock. How fast the implementation really runs — end to end and per
//! layer — is timed and judged only by the `benchmark/` package against
//! the parent commit (`BENCHMARK.json`).

pub mod counter;
pub mod report;
pub mod trajectory;
