//! The repository's wall-clock benchmark. See `README.md` beside this
//! package for what each workload stresses and how to read the output.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod http_client;
mod layers;
mod metrics;
mod probe;
mod stats;
mod sys;
mod trace;
mod workloads;

use metrics::{Ledger, END_TO_END, PER_LAYER};
use stats::Recorder;
use trace::Tracer;
use workloads::fanout::FanoutWorkload;
use workloads::gridbox::GridboxWorkload;
use workloads::socket::{Mode, SocketWorkload, GET_SCALE, PUT_SCALE};
use workloads::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Where trace files and the traced run's file-backed twin stores go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    json_only: bool,
}

fn parse_args(command_line: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        trace: false,
        json_only: false,
    };
    let mut it = command_line.peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone turns the traced run on; a `0` or `1` after it
            // is its value, anything else is the next flag.
            "--trace" => {
                args.trace = it.peek().map(String::as_str) != Some("0");
                it.next_if(|v| v == "0" || v == "1");
            }
            "--json" => args.json_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What one invocation found, printed as the last line of standard output.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    ledger: Ledger,
    /// What the wall clock saw, for the reader; not part of the result.
    note: String,
}

fn measured_run<W: Workload>(
    args: &Args,
    started: Instant,
    set_up: impl Fn(u64) -> W,
) -> Result<Report, String> {
    let mut workload = set_up(args.seed);
    // Process start to the first measured operation.
    let setup_wall_s = started.elapsed().as_secs_f64();
    let mut rec = Recorder::start(workload.memory_checkpoint());
    workload.measure(Duration::from_secs(args.seconds), &mut rec);
    let window = rec.finish();
    let (retained, limit) = (workload.retained(), workload.retained_limit());
    workload.check()?;
    if window.ops() == 0 {
        return Err("no operation completed".into());
    }
    if retained > limit {
        return Err(format!(
            "not in steady state: the program holds {retained} documents and parked notifications, its steady-state limit is {limit}"
        ));
    }
    let drift = window.steady_state()?;

    let mut ledger = Ledger::new(END_TO_END);
    ledger.set("throughput_ops_s", window.throughput_ops_s());
    ledger.set("latency_p50_us", window.latency_us(0.5));
    ledger.set("latency_p90_us", window.latency_us(0.9));
    ledger.set("cpu_us_per_op", window.cpu_us_per_op());
    ledger.set("wire_bytes_per_op", window.wire_bytes_per_op());
    ledger.set("peak_rss_mb", window.peak_rss_mb);
    // At reference host speed like every other time. Set-up runs inside the
    // workloads' constructors, where the probe cannot run, so it takes the
    // speed the probe read right after it.
    ledger.set("setup_s", setup_wall_s * window.early_host_speed());
    Ok(Report {
        correct: window.failed == 0,
        attempted: window.ops(),
        failed: window.failed,
        ledger,
        note: {
            let wall = window.on_the_wall_clock();
            format!(
                "on the wall clock (host speed {:.3}, CPU granted {:.1}%): throughput_ops_s {:.4} latency_p50_us {:.4} latency_p90_us {:.4} cpu_us_per_op {:.4} setup_s {setup_wall_s:.4}; slice rate moved {:+.1}% from the first third of the window to the last\n",
                window.host_speed(),
                window.granted() * 100.0,
                wall.throughput_ops_s(),
                wall.latency_us(0.5),
                wall.latency_us(0.9),
                wall.cpu_us_per_op(),
                drift * 100.0
            )
        },
    })
}

fn traced_run<W: Workload>(args: &Args, set_up: impl Fn(u64) -> W) -> Result<Report, String> {
    let mut workload = set_up(args.seed);
    let mut ledger = Ledger::new(PER_LAYER);
    let mut tracer = Tracer::new(true);
    let window = Duration::from_secs(args.seconds) / 3;
    workload.trace(window, &mut tracer, &mut ledger);
    for (name, value) in workload.check()? {
        ledger.set(name, value);
    }
    let path = out_dir().join(format!("{}.trace.jsonl", args.workload));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, trace::to_jsonl(tracer.spans())).map_err(|e| e.to_string())?;
    let unattributed = ledger.get("trace.unattributed_pct");
    if unattributed > 15.0 {
        return Err(format!(
            "trace.unattributed_pct is {unattributed:.1}: the stages no longer account for the operation"
        ));
    }
    let failed = ledger.get("driver.ops_failed") as u64;
    let attempted = ledger.get("driver.ops_attempted") as u64;
    if attempted == 0 {
        return Err("no operation completed".into());
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        ledger,
        note: format!(
            "wrote {} spans to {}\n",
            tracer.spans().len(),
            path.display()
        ),
    })
}

fn run<W: Workload>(
    args: &Args,
    started: Instant,
    set_up: impl Fn(u64) -> W,
) -> Result<Report, String> {
    if args.trace {
        traced_run(args, set_up)
    } else {
        measured_run(args, started, set_up)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    // One CPU for the whole process, threads the program starts included:
    // see "One CPU" in the README for what the scheduler and the host do
    // with two.
    if let Some(&cpu) = sys::allowed_cpus().last() {
        sys::pin_to(cpu);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ogsa-benchmark: {e}");
            eprintln!(
                "usage: --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "get_signed" => run(&args, started, |seed| {
            SocketWorkload::set_up_scaled(seed, Mode::Get, GET_SCALE)
        }),
        "put_logged_mem" => run(&args, started, |seed| {
            SocketWorkload::set_up_scaled(seed, Mode::Put, PUT_SCALE)
        }),
        "gridbox_jobs" => run(&args, started, GridboxWorkload::set_up),
        _ => run(&args, started, FanoutWorkload::set_up),
    };
    match report {
        Ok(report) => {
            if !args.json_only {
                println!(
                    "workload {} seed {} cpus {}",
                    args.workload,
                    args.seed,
                    std::thread::available_parallelism().map_or(0, usize::from)
                );
                print!("{}{}", report.ledger.table(), report.note);
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                report.correct,
                report.attempted,
                report.failed,
                report.ledger.json()
            );
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("ogsa-benchmark: {} refused: {reason}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn trace_takes_a_value_only_when_one_follows() {
        let driver = parsed("--workload get_signed --seed 9 --seconds 30 --trace 0").unwrap();
        assert!(!driver.trace && driver.seed == 9 && driver.seconds == 30);
        assert!(parsed("--workload get_signed --trace 1").unwrap().trace);
        // A flag after a bare `--trace` is a flag, not its value.
        let bare = parsed("--workload get_signed --trace --json").unwrap();
        assert!(bare.trace && bare.json_only);
        let seeded = parsed("--trace --seed 2 --workload gridbox_jobs").unwrap();
        assert!(seeded.trace && seeded.seed == 2);
        assert!(parsed("--workload put_durable").is_err());
        assert!(parsed("--workload get_signed --seconds 0").is_err());
        assert!(parsed("--workload get_signed --seed").is_err());
    }
}
