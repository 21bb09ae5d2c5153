//! The `ogsa-bench` command line; see the crate docs for the subcommands.

use std::process::ExitCode;

use ogsa_bench::report::SECTIONS;
use ogsa_bench::{run, SUBCOMMANDS};

/// `a|b|c` from a subcommand table.
fn names<T>(table: &[(&str, T)]) -> String {
    let names: Vec<_> = table.iter().map(|entry| entry.0).collect();
    names.join("|")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ogsa-bench report [{}|trajectory]\n       ogsa-bench {}|all [out-dir]",
        names(SECTIONS),
        names(SUBCOMMANDS),
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    let (Some(subcommand), arg, None) = (args.next(), args.next(), args.next()) else {
        return usage();
    };

    if (subcommand, arg) == ("report", Some("trajectory")) {
        ogsa_bench::trajectory::print();
        return ExitCode::SUCCESS;
    }
    if subcommand == "report" {
        let sections: Vec<_> = SECTIONS
            .iter()
            .filter(|s| arg.is_none() || arg == Some(s.0))
            .collect();
        if sections.is_empty() {
            return usage();
        }
        for (i, (_, section)) in sections.iter().enumerate() {
            if i > 0 {
                println!();
            }
            section();
        }
        return ExitCode::SUCCESS;
    }

    let chosen: Vec<_> = SUBCOMMANDS
        .iter()
        .filter(|s| subcommand == "all" || subcommand == s.0)
        .copied()
        .collect();
    if chosen.is_empty() {
        return usage();
    }
    let out_dir = arg.unwrap_or(".");
    match run(out_dir, &chosen) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ogsa-bench: writing {out_dir}: {e}");
            ExitCode::FAILURE
        }
    }
}
