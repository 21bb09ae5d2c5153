//! The `ogsa-bench` command line; see the crate docs for the commands.

use std::process::ExitCode;

use ogsa_bench::report::SECTIONS;

fn usage() -> ExitCode {
    let sections: Vec<_> = SECTIONS.iter().map(|s| s.0).collect();
    eprintln!(
        "usage: ogsa-bench report [{}|trajectory]\n       ogsa-bench all [out-dir]",
        sections.join("|"),
    );
    ExitCode::from(2)
}

/// Write every artifact under `out_dir`.
fn write_all(out_dir: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    for (file, contents) in ogsa_bench::counter::run() {
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, contents)?;
        println!("wrote {path}");
    }
    Ok(())
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

    if subcommand != "all" {
        return usage();
    }
    let out_dir = arg.unwrap_or(".");
    match write_all(out_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ogsa-bench: writing {out_dir}: {e}");
            ExitCode::FAILURE
        }
    }
}
