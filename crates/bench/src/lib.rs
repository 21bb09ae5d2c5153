//! # ogsa-bench
//!
//! The virtual-time and invariant harness, one binary:
//!
//! | `cargo run --release -p ogsa-bench -- …` | regenerates / gates |
//! |---|---|
//! | `report` | everything EXPERIMENTS.md reports, or one section of it: |
//! | `report fig2` / `fig3` / `fig4` | Figures 2–4 (no security, HTTPS, X.509 signing) |
//! | `report fig6` | Figure 6 (Grid-in-a-Box) |
//! | `report broker` | §3.1 demand-based message estimate |
//! | `report ablations` | §4.1.3 mechanism claims |
//! | `report trajectory` | `BENCH_trajectory.json` per workload × metric across PRs, a regression against any earlier PR marked (not part of plain `report`) |
//! | `counter [out-dir]` | traced component breakdowns → `BENCH_counter/_gridbox/_trace.json`; the paper's ordinal claims |
//! | `throughput [out-dir]` | client × shard sweep → `BENCH_throughput.json`; the scaling invariant |
//! | `durability [out-dir]` | WAL crash sweep, recovery time, fsync policies → `BENCH_durability.json` |
//! | `serve [out-dir]` | socket load against the serving tier → `BENCH_serve.json` |
//! | `obs [out-dir]` | observability-plane fidelity (its rps cost reported, not judged) → `BENCH_obs.json` |
//! | `replication [out-dir]` | failover sweep, catch-up time → `BENCH_replication.json` |
//! | `fanout [out-dir]` | trie vs naive, shard scaling, honest batching → `BENCH_fanout.json` |
//! | `all [out-dir]` | every gated subcommand above, in that order |
//!
//! A gated subcommand exits nonzero naming each failed gate; `all` keeps
//! going past a failure and names them all at the end. `out-dir` defaults
//! to the current directory.
//!
//! What this harness judges is virtual time and invariants. How fast the
//! implementation really runs — end to end and per layer — is judged by
//! the `benchmark/` package against the parent commit (`BENCHMARK.json`).
//!
//! Each subcommand is a module that prints its rows and returns an
//! [`Outcome`]; [`run`] is the one place that creates the output
//! directory, writes the artifacts, renders the gates into them, prints
//! the pass/fail summary and decides the exit code.

use std::io::Write;
use std::process::ExitCode;

use ogsa_core::telemetry::export::json_escape;

pub mod counter;
pub mod durability;
pub mod fanout;
mod fixture;
pub mod obs;
pub mod replication;
pub mod report;
pub mod serve;
pub mod throughput;
pub mod trajectory;

/// What a gated subcommand hands [`run`].
pub struct Outcome {
    /// The gated artifact: its file name and its JSON object left open (no
    /// closing brace) — the writer appends the gates and closes it.
    pub artifact: (&'static str, String),
    /// Further artifacts, written as they are.
    pub extra: Vec<(&'static str, String)>,
    pub gates: Gates,
}

/// The checks a subcommand evaluated, in the shape its artifact records.
pub enum Gates {
    /// Fixed `(name, pass)` gates, recorded as
    /// `"gates":[{"name":…,"pass":…},…]`.
    Named(Vec<(&'static str, bool)>),
    /// Invariant checkers that describe what broke: one failed gate per
    /// violation, none when all hold. Recorded as
    /// `"invariant_violations":["…",…]`.
    Violations(Vec<String>),
}

impl Gates {
    fn failed(&self) -> Vec<&str> {
        match self {
            Gates::Named(gates) => gates
                .iter()
                .filter(|(_, pass)| !pass)
                .map(|(name, _)| *name)
                .collect(),
            Gates::Violations(violations) => violations.iter().map(String::as_str).collect(),
        }
    }

    fn json_field(&self) -> String {
        match self {
            Gates::Named(gates) => format!(
                "\"gates\":{}",
                json_array(gates.iter().map(|(name, pass)| format!(
                    "{{\"name\":\"{}\",\"pass\":{pass}}}",
                    json_escape(name)
                )))
            ),
            Gates::Violations(violations) => format!(
                "\"invariant_violations\":{}",
                json_array(violations.iter().map(|v| format!("\"{}\"", json_escape(v))))
            ),
        }
    }
}

/// `[a,b,c]` from already-rendered JSON values.
pub(crate) fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// A gated subcommand: its name and its body.
pub type Subcommand = (&'static str, fn() -> Outcome);

/// Every gated subcommand, in the order `all` runs them.
pub const GATED: &[Subcommand] = &[
    ("counter", counter::run),
    ("throughput", throughput::run),
    ("durability", durability::run),
    ("serve", serve::run),
    ("obs", obs::run),
    ("replication", replication::run),
    ("fanout", fanout::run),
];

/// Run `subcommands` in order, writing each one's artifacts under
/// `out_dir`. A failed gate never stops the run: every failure is named on
/// `err` — per subcommand as it finishes, and all together at the end —
/// and turns the exit code nonzero.
pub fn run(out_dir: &str, subcommands: &[Subcommand], err: &mut dyn Write) -> ExitCode {
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| panic!("mkdir {out_dir}: {e}"));
    let write = |name: &str, contents: &str| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    };

    let mut failures = Vec::new();
    for (name, body) in subcommands {
        let outcome = body();
        let (file, open_json) = &outcome.artifact;
        write(
            file,
            &format!("{open_json},{}}}\n", outcome.gates.json_field()),
        );
        for (file, contents) in &outcome.extra {
            write(file, contents);
        }
        let failed = outcome.gates.failed();
        if failed.is_empty() {
            println!("{name} gates: all hold\n");
        } else {
            let _ = writeln!(err, "{name} gates REGRESSED: {}\n", failed.join(", "));
            failures.extend(failed.iter().map(|gate| format!("{name}: {gate}")));
        }
    }

    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    if subcommands.len() > 1 {
        let _ = writeln!(err, "{} failed gates:", failures.len());
        for failure in &failures {
            let _ = writeln!(err, "  - {failure}");
        }
    }
    ExitCode::FAILURE
}
