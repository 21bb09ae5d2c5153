//! The shared writer behind every gated `ogsa-bench` subcommand: what a
//! failed gate does to the artifact, to stderr and to the exit code.

use std::process::ExitCode;

use ogsa_bench::{run, Gates, Outcome, Subcommand};

fn outcome(file: &'static str, gates: Gates) -> Outcome {
    Outcome {
        artifact: (file, "{\"benchmark\":\"fake\"".to_owned()),
        extra: Vec::new(),
        gates,
    }
}

fn holds() -> Outcome {
    outcome(
        "BENCH_holds.json",
        Gates::Named(vec![("first", true), ("second", true)]),
    )
}

fn one_named_gate_fails() -> Outcome {
    Outcome {
        extra: vec![("BENCH_side.json", "{}\n".to_owned())],
        ..outcome(
            "BENCH_named.json",
            Gates::Named(vec![("fine", true), ("quoted \"gate\" \\ name", false)]),
        )
    }
}

fn two_invariants_violated() -> Outcome {
    outcome(
        "BENCH_violations.json",
        Gates::Violations(vec![
            "rps fell: \"wsrf\" 3 < 4".to_owned(),
            "line\nbreak\tand \\ backslash".to_owned(),
        ]),
    )
}

fn no_violations() -> Outcome {
    outcome("BENCH_clean.json", Gates::Violations(Vec::new()))
}

fn scratch_dir(test: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ogsa-bench-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Nested, so the writer has to create more than one level.
    dir.join("out").to_string_lossy().into_owned()
}

fn read(dir: &str, file: &str) -> String {
    std::fs::read_to_string(format!("{dir}/{file}")).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn all_runs_past_failures_and_names_every_failed_gate() {
    let dir = scratch_dir("failing");
    let subcommands: [Subcommand; 4] = [
        ("holds", holds),
        ("named", one_named_gate_fails),
        ("violations", two_invariants_violated),
        ("clean", no_violations),
    ];
    let mut err = Vec::new();
    let code = run(&dir, &subcommands, &mut err);
    let err = String::from_utf8(err).unwrap();

    assert_eq!(code, ExitCode::FAILURE);

    // Failed gates land in the artifacts, JSON-escaped.
    assert_eq!(
        read(&dir, "BENCH_named.json"),
        "{\"benchmark\":\"fake\",\"gates\":[{\"name\":\"fine\",\"pass\":true},\
         {\"name\":\"quoted \\\"gate\\\" \\\\ name\",\"pass\":false}]}\n"
    );
    assert_eq!(
        read(&dir, "BENCH_violations.json"),
        "{\"benchmark\":\"fake\",\"invariant_violations\":[\"rps fell: \\\"wsrf\\\" 3 < 4\",\
         \"line\\nbreak\\tand \\\\ backslash\"]}\n"
    );
    assert_eq!(read(&dir, "BENCH_side.json"), "{}\n");

    // The subcommands after the first failure still ran.
    assert_eq!(
        read(&dir, "BENCH_clean.json"),
        "{\"benchmark\":\"fake\",\"invariant_violations\":[]}\n"
    );
    assert_eq!(
        read(&dir, "BENCH_holds.json"),
        "{\"benchmark\":\"fake\",\"gates\":[{\"name\":\"first\",\"pass\":true},\
         {\"name\":\"second\",\"pass\":true}]}\n"
    );

    // stderr names every failed gate under its subcommand, and no other.
    assert!(err.contains("3 failed gates:"), "{err}");
    for failure in [
        "  - named: quoted \"gate\" \\ name\n",
        "  - violations: rps fell: \"wsrf\" 3 < 4\n",
        "  - violations: line\nbreak\tand \\ backslash\n",
    ] {
        assert!(err.contains(failure), "{failure:?} missing from {err}");
    }
    for passing in ["holds", "clean", "fine", "first"] {
        assert!(!err.contains(passing), "{passing:?} blamed in {err}");
    }

    let _ = std::fs::remove_dir_all(std::path::Path::new(&dir).parent().unwrap());
}

#[test]
fn a_single_failing_subcommand_exits_nonzero_naming_its_gate() {
    let dir = scratch_dir("single");
    let mut err = Vec::new();
    let code = run(&dir, &[("named", one_named_gate_fails)], &mut err);
    assert_eq!(code, ExitCode::FAILURE);
    assert_eq!(
        String::from_utf8(err).unwrap(),
        "named gates REGRESSED: quoted \"gate\" \\ name\n\n"
    );
    let _ = std::fs::remove_dir_all(std::path::Path::new(&dir).parent().unwrap());
}

#[test]
fn passing_gates_exit_zero_and_say_nothing_on_stderr() {
    let dir = scratch_dir("passing");
    let mut err = Vec::new();
    let code = run(
        &dir,
        &[("holds", holds), ("clean", no_violations)],
        &mut err,
    );
    assert_eq!(code, ExitCode::SUCCESS);
    assert!(err.is_empty(), "{}", String::from_utf8_lossy(&err));
    let _ = std::fs::remove_dir_all(std::path::Path::new(&dir).parent().unwrap());
}
