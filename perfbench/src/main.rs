//! The benchmark's measuring program. `run.py` in the package root builds
//! it and drives it; see README.md there for the workloads and metrics.
//!
//! ```text
//! perfbench measure --workload W --seed N [--stream I] --seconds S --trace 0|1 --scratch DIR
//! perfbench fill --seed N --scratch DIR        # family_batch_warm set-up
//! ```
//!
//! `--stream` numbers the measuring processes of one run; it varies the
//! family wave's job order between them (see `family::stream_seed`).
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace
//! 1`) and `info` (run context). Exits non-zero when any verdict or
//! invariant failed.

mod alpha0;
mod family;
mod flush;
mod measure;

use std::path::PathBuf;
use std::process::ExitCode;

use pipeverify_core::json::Json;
use pipeverify_core::pool;

use measure::Outcome;

/// Workers per workload: two, never more than the machine's cores.
const WORKERS: usize = 2;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    stream: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().ok_or("missing command (measure | fill)")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        stream: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::new(),
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--stream" => args.stream = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--scratch" => args.scratch = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.scratch.as_os_str().is_empty() {
        return Err("--scratch is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = WORKERS.min(cores);
    let mut out = Outcome::default();
    out.info("seed", Json::from_u64(args.seed));
    out.info("stream", Json::from_u64(args.stream));
    out.info("cores", Json::from_u64(cores as u64));
    out.info("workers", Json::from_u64(workers as u64));
    out.info("pv_threads", Json::from_u64(pool::default_threads() as u64));
    let (seconds, scratch) = (args.seconds, args.scratch.as_path());
    let seed = family::stream_seed(args.seed, args.stream);
    match (args.command.as_str(), args.workload.as_str(), args.trace) {
        ("fill", _, _) => family::fill(seed, workers, scratch, &mut out),
        ("measure", "alpha0_sweep", false) => alpha0::measure(seconds, workers, &mut out),
        ("measure", "alpha0_sweep", true) => alpha0::trace(workers, &mut out),
        ("measure", "family_batch", false) => {
            family::measure_cold(seed, seconds, workers, scratch, &mut out)
        }
        ("measure", "family_batch", true) => family::trace_cold(seed, workers, scratch, &mut out),
        ("measure", "family_batch_warm", false) => {
            family::measure_warm(seed, seconds, workers, scratch, &mut out)
        }
        ("measure", "family_batch_warm", true) => {
            family::trace_warm(seed, seconds, workers, scratch, &mut out)
        }
        ("measure", "flush_deep", false) => flush::measure(seed, seconds, workers, &mut out),
        ("measure", "flush_deep", true) => flush::trace(seed, workers, &mut out),
        (command, workload, _) => {
            eprintln!("perfbench: unknown command `{command}` / workload `{workload}`");
            return ExitCode::from(2);
        }
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.info("error_rate", Json::Num(error_rate));
    for problem in &out.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }
    println!("{}", out.render());
    if out.failed == 0 && out.broken == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
