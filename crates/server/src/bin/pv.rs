//! The `pv` command: the verification service's front door.
//!
//! * `pv serve --listen unix:/tmp/pv.sock` — serve jobs over a socket.
//! * `pv batch jobs.jsonl` — run a JSONL job file in-process; responses to
//!   stdout (one line per input line, in input order), progress to stderr.
//! * `pv soak --jobs 200` — flood an in-process server and assert zero
//!   dropped responses and bounded peak RSS.
//! * `pv trace --out trace.jsonl` — run a condensed-Alpha0 sweep with span
//!   tracing force-enabled and write the trace as JSONL (fold it with the
//!   `trace_report` tool from `pv-bench`).
//!
//! See `docs/PROTOCOL.md` for the wire format and `README.md` for a
//! quickstart.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use pipeverify_core::cache::ArtifactCache;
use pipeverify_core::json::Json;
use pipeverify_core::{pool, trace_io, BudgetExceeded, MachineSpec, SimulationPlan, Verifier};
use pv_isa::alpha0::Alpha0Config;
use pv_proc::alpha0::{self, PipelineConfig};
use pv_proc::family::{FamilyBug, FamilyConfig};
use pv_server::{
    job::JobRunner,
    protocol::{self, DesignSpec, FlowKind, JobRequest, PlanSet},
    sched,
    server::{self, BindAddr},
};

const USAGE: &str = "\
pv — the pipeline-verification service

USAGE:
    pv serve --listen <unix:PATH|tcp:HOST:PORT> [--threads N] [--cache-dir DIR | --no-cache]
    pv batch [FILE] [--threads N] [--cache-dir DIR | --no-cache]
    pv soak  [--jobs N] [--rss-limit-mb MB] [--summary PATH] [--threads N] [--listen ADDR]
             [--allow-errors] [--cache-dir DIR | --no-cache]
    pv trace [--out PATH] [--threads N]

    serve    Answer line-delimited JSON jobs over a socket (docs/PROTOCOL.md).
    batch    Run a JSONL job file (or stdin when FILE is `-` or omitted)
             in-process; one response line per input line, in input order, on
             stdout. Progress and cache statistics go to stderr.
    soak     Start an in-process server on a scratch socket, flood it with
             --jobs jobs, and fail unless every job is answered and peak RSS
             stays under --rss-limit-mb. Writes a JSON summary line to stdout
             (and to --summary, when given).
    trace    Run a condensed-Alpha0 control-transfer sweep with span tracing
             enabled under a `trace.run` root span and write the trace to
             --out (default: pv-trace.jsonl). Defaults to 1 worker thread so
             every span nests under the root; fold the file with pv-bench's
             `trace_report`.

OPTIONS:
    --threads N       Worker threads (default: PV_THREADS, else all cores;
                      `pv trace` defaults to 1).
    --cache-dir DIR   Artifact cache directory (default: PV_CACHE_DIR, else
                      .pv-cache). The soak uses a scratch directory
                      unless --cache-dir or --no-cache is given.
    --no-cache        Disable the artifact cache (every job runs cold).
    --allow-errors    (soak) Count error responses as answered instead of
                      failing the run — for chaos soaks under PV_FAILPOINTS.

Jobs without explicit budget fields inherit PV_DEADLINE_MS / PV_NODE_BUDGET
from the environment; budget-exhausted plans degrade the report (or fail the
job with a typed error when no plan completes) instead of killing the batch.
";

/// Budget aborts and injected faults unwind through `panic_any` and are
/// caught at the pool boundary — they are control flow, not crashes. The
/// default hook would still spam a full panic report for each one; replace
/// it with a single concise line for those payloads and keep the default
/// for everything genuinely unexpected.
fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if let Some(exceeded) = payload.downcast_ref::<BudgetExceeded>() {
            eprintln!("pv: worker aborted: {exceeded}");
        } else if let Some(fault) = payload.downcast_ref::<pv_obs::InjectedFault>() {
            eprintln!("pv: worker aborted: {fault}");
        } else {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "soak" => cmd_soak(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pv: {message}");
            ExitCode::from(2)
        }
    }
}

/// Shared flags of every subcommand.
struct CommonOpts {
    threads: usize,
    cache: Option<ArtifactCache>,
    /// Flags the parser did not consume, in order.
    rest: Vec<String>,
}

fn parse_common(args: &[String]) -> Result<CommonOpts, String> {
    let mut threads = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let value = it.next().ok_or("--threads needs a value")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--threads `{value}` is not a number"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                threads = Some(n);
            }
            "--cache-dir" => {
                let value = it.next().ok_or("--cache-dir needs a value")?;
                cache_dir = Some(PathBuf::from(value));
            }
            "--no-cache" => no_cache = true,
            other => rest.push(other.to_owned()),
        }
    }
    if no_cache && cache_dir.is_some() {
        return Err("--no-cache and --cache-dir are mutually exclusive".to_owned());
    }
    let cache = if no_cache {
        None
    } else {
        Some(match cache_dir {
            Some(dir) => ArtifactCache::at(dir),
            None => ArtifactCache::from_env(),
        })
    };
    Ok(CommonOpts {
        threads: threads.unwrap_or_else(pool::default_threads),
        cache,
        rest,
    })
}

/// Removes a valueless switch (e.g. `--allow-errors`) from `rest`, returning
/// whether it was present.
fn take_switch(rest: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = rest.iter().position(|a| a == name) {
        rest.remove(pos);
        true
    } else {
        false
    }
}

fn take_flag(rest: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(pos) = rest.iter().position(|a| a == name) {
        if pos + 1 >= rest.len() {
            return Err(format!("{name} needs a value"));
        }
        rest.remove(pos);
        Ok(Some(rest.remove(pos)))
    } else {
        Ok(None)
    }
}

fn cache_label(cache: &Option<ArtifactCache>) -> String {
    match cache {
        Some(cache) => format!("cache at {}", cache.dir().display()),
        None => "cache disabled".to_owned(),
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = parse_common(args)?;
    let listen = take_flag(&mut opts.rest, "--listen")?
        .ok_or("serve needs --listen <unix:PATH|tcp:HOST:PORT>")?;
    if let Some(extra) = opts.rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let addr: BindAddr = listen.parse()?;
    let runner = JobRunner::new(opts.cache.clone());
    eprintln!(
        "pv: serving at {addr} on {} worker threads ({})",
        opts.threads,
        cache_label(&opts.cache),
    );
    let shutdown = AtomicBool::new(false); // runs until the process is killed
    server::serve(&addr, &runner, opts.threads, &shutdown).map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = parse_common(args)?;
    let file = match opts.rest.len() {
        0 => "-".to_owned(),
        1 => opts.rest.remove(0),
        _ => return Err(format!("unexpected argument `{}`", opts.rest[1])),
    };
    let input = if file == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?
    };

    // Each answered line: the index of its job, or the error line that
    // answers it.
    let mut jobs: Vec<JobRequest> = Vec::new();
    let mut lines: Vec<Result<usize, Json>> = Vec::new();
    for decoded in input.lines().filter_map(protocol::decode_line) {
        lines.push(decoded.map(|job| {
            jobs.push(job);
            jobs.len() - 1
        }));
    }

    let runner = JobRunner::new(opts.cache.clone());
    eprintln!(
        "pv: batch of {} jobs on {} worker threads ({})",
        jobs.len(),
        opts.threads,
        cache_label(&opts.cache),
    );
    let started = Instant::now();
    let total = jobs.len();
    let outcomes = sched::run_jobs(
        &runner,
        &jobs,
        opts.threads,
        |index, outcome| match outcome {
            Ok(response) => eprintln!("pv: job {} done ({} of {total})", response.id, index + 1,),
            Err(error) => eprintln!("pv: job {} failed: {error}", jobs[index].id),
        },
    );

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in &lines {
        let rendered = match line {
            Ok(index) => protocol::outcome_to_json(jobs[*index].id, &outcomes[*index]).render(),
            Err(error) => error.render(),
        };
        writeln!(out, "{rendered}").map_err(|e| format!("writing stdout: {e}"))?;
    }
    let failures = lines.len() - outcomes.iter().filter(|o| o.is_ok()).count();
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "pv: batch finished in {:.3}s — {} responses, {} errors, {} cache hits, {} misses",
        started.elapsed().as_secs_f64(),
        lines.len(),
        failures,
        runner.cache_hits(),
        runner.cache_misses(),
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The soak's rotating job menu: tiny stallable family members (correct
/// and bug-seeded) through both flows, plus the one-register VSM through the
/// β-relation flow — cheap enough to flood by the hundreds, varied enough
/// that the cache sees several distinct keys. The correct member is one
/// stage deeper than the bug-seeded ones: at depth 2 the flushing flow's
/// case split is a single block, at depth 3 it is 64, so the chaos soak's
/// `flush.cube` failpoint has blocks to fire in.
fn soak_job(id: u64) -> JobRequest {
    let base = FamilyConfig::new(2, 4, 2, 0).stallable();
    let family = |config| {
        (
            DesignSpec::Family(config),
            vec![FlowKind::Beta, FlowKind::Flushing],
        )
    };
    let (design, flows) = match id % 4 {
        0 => family(FamilyConfig::new(3, 4, 2, 0).stallable()),
        1 => family(base.with_bug(FamilyBug::WrongStallCondition)),
        2 => family(base.with_bug(FamilyBug::BranchTargetOffByOne)),
        _ => (
            DesignSpec::Vsm {
                num_regs: 2,
                stallable: false,
            },
            vec![FlowKind::Beta],
        ),
    };
    JobRequest {
        id,
        design,
        flows,
        plans: PlanSet::Default,
        deadline_ms: None,
        node_budget: None,
    }
}

fn cmd_soak(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = parse_common(args)?;
    let jobs: usize = match take_flag(&mut opts.rest, "--jobs")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--jobs `{v}` is not a number"))?,
        None => 200,
    };
    let rss_limit_mb: u64 = match take_flag(&mut opts.rest, "--rss-limit-mb")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--rss-limit-mb `{v}` is not a number"))?,
        None => 1024,
    };
    let summary_path = take_flag(&mut opts.rest, "--summary")?;
    let listen = take_flag(&mut opts.rest, "--listen")?;
    let allow_errors = take_switch(&mut opts.rest, "--allow-errors");
    if let Some(extra) = opts.rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }

    let scratch = std::env::temp_dir().join(format!("pv-soak-{}", std::process::id()));
    let addr: BindAddr = match listen {
        Some(spec) => spec.parse()?,
        None => BindAddr::Unix(scratch.join("pv.sock")),
    };
    if let BindAddr::Unix(path) = &addr {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    // The soak always uses a scratch cache unless one was pinned explicitly:
    // the run must be reproducible, not warmed by yesterday's entries.
    let cache = match args.iter().any(|a| a == "--cache-dir" || a == "--no-cache") {
        true => opts.cache.clone(),
        false => Some(ArtifactCache::at(scratch.join("cache"))),
    };
    let runner = JobRunner::new(cache.clone());
    eprintln!(
        "pv: soaking {jobs} jobs at {addr} on {} worker threads ({})",
        opts.threads,
        cache_label(&cache),
    );

    let shutdown = AtomicBool::new(false);
    let started = Instant::now();
    let (received, error_lines) =
        std::thread::scope(|scope| -> Result<(Vec<u64>, usize), String> {
            let server = scope.spawn(|| server::serve(&addr, &runner, opts.threads, &shutdown));

            // Wait for the listener to come up.
            let mut client = loop {
                match addr.connect() {
                    Ok(client) => break client,
                    Err(_) if started.elapsed().as_secs() < 10 && !server.is_finished() => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Err(e) => {
                        shutdown.store(true, Ordering::Relaxed);
                        return Err(format!("connecting to {addr}: {e}"));
                    }
                }
            };

            let reader = client.reader().map_err(|e| e.to_string())?;
            let writer = scope.spawn(move || -> std::io::Result<()> {
                for id in 0..jobs as u64 {
                    let line = protocol::request_to_json(&soak_job(id)).render();
                    client.write_all(line.as_bytes())?;
                    client.write_all(b"\n")?;
                }
                client.shutdown_write()
            });

            let mut ids = Vec::with_capacity(jobs);
            let mut error_lines = 0usize;
            for line in BufReader::new(reader).lines() {
                let line = line.map_err(|e| format!("reading responses: {e}"))?;
                let value = Json::parse(&line).map_err(|e| format!("bad response line: {e}"))?;
                if value.get("ok").and_then(Json::as_bool) != Some(true) {
                    // Under fault injection (--allow-errors) an error response
                    // still *answers* its job — it counts against drops, not
                    // against the soak. Without the flag any error fails the run.
                    if !allow_errors {
                        return Err(format!("server answered an error: {line}"));
                    }
                    error_lines += 1;
                    eprintln!("pv: soak error response: {line}");
                }
                ids.push(
                    value
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or("response without an id")?,
                );
            }
            writer
                .join()
                .expect("writer thread does not panic")
                .map_err(|e| format!("sending jobs: {e}"))?;
            shutdown.store(true, Ordering::Relaxed);
            server
                .join()
                .expect("server thread does not panic")
                .map_err(|e| format!("server: {e}"))?;
            Ok((ids, error_lines))
        })?;

    let wall = started.elapsed();
    let mut ids = received.clone();
    ids.sort_unstable();
    ids.dedup();
    let dropped = jobs.saturating_sub(ids.len());
    // The probe also publishes the `server.rss_peak` gauge, so a metrics
    // snapshot of a soaked process carries the memory high-water mark.
    let peak_rss = pv_server::record_rss_peak();
    let rss_ok = peak_rss.is_none_or(|b| b <= rss_limit_mb * 1024 * 1024);
    // Crash consistency: whatever faults were injected, the cache directory
    // must hold only committed entries — a leftover `.tmp-` file means a
    // store path skipped its atomic rename.
    let stale_tmp = cache
        .as_ref()
        .and_then(|cache| std::fs::read_dir(cache.dir()).ok())
        .map_or(0usize, |entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
                .count()
        });
    let ok = dropped == 0 && received.len() == jobs && rss_ok && stale_tmp == 0;

    let summary = Json::Obj(vec![
        ("jobs".to_owned(), Json::from_u64(jobs as u64)),
        (
            "responses".to_owned(),
            Json::from_u64(received.len() as u64),
        ),
        ("dropped".to_owned(), Json::from_u64(dropped as u64)),
        ("errors".to_owned(), Json::from_u64(error_lines as u64)),
        (
            "stale_tmp_files".to_owned(),
            Json::from_u64(stale_tmp as u64),
        ),
        (
            "cache_hits".to_owned(),
            Json::from_u64(runner.cache_hits() as u64),
        ),
        (
            "cache_misses".to_owned(),
            Json::from_u64(runner.cache_misses() as u64),
        ),
        (
            "peak_rss_bytes".to_owned(),
            peak_rss.map_or(Json::Null, Json::from_u64),
        ),
        (
            "rss_limit_bytes".to_owned(),
            Json::from_u64(rss_limit_mb * 1024 * 1024),
        ),
        ("wall_ns".to_owned(), Json::from_u64(wall.as_nanos() as u64)),
        ("ok".to_owned(), Json::Bool(ok)),
    ])
    .render();
    println!("{summary}");
    if let Some(path) = summary_path {
        std::fs::write(&path, format!("{summary}\n"))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    std::fs::remove_dir_all(&scratch).ok();

    if ok {
        eprintln!(
            "pv: soak passed — {jobs} jobs answered in {:.3}s ({error_lines} error responses), peak RSS {}",
            wall.as_secs_f64(),
            peak_rss.map_or("unknown".to_owned(), |b| format!(
                "{} MiB",
                b / (1024 * 1024)
            )),
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "pv: soak FAILED — {} of {jobs} answered ({dropped} dropped, {error_lines} errors, {stale_tmp} stale tmp files), RSS within limit: {rss_ok}",
            received.len(),
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Slots and control-transfer positions of the traced sweep — the same
/// condensed-Alpha0 shape as the `alpha0_sweep_par` perf-smoke case, big
/// enough that the folded profile is dominated by real engine work.
const TRACE_SWEEP_SLOTS: usize = 4;
const TRACE_SWEEP_POSITIONS: usize = 3;

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    // `pv trace` defaults to ONE worker: the inline sequential path keeps
    // every `plan.check`/`sim.cycle` span nested under the `trace.run` root,
    // which is what makes the folded profile's coverage figure meaningful
    // (root self-time = uninstrumented engine work).
    let explicit_threads = args.iter().any(|a| a == "--threads");
    let mut opts = parse_common(args)?;
    if !explicit_threads {
        opts.threads = 1;
    }
    let out = PathBuf::from(
        take_flag(&mut opts.rest, "--out")?.unwrap_or_else(|| "pv-trace.jsonl".to_owned()),
    );
    if let Some(extra) = opts.rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }

    pv_obs::set_trace_enabled(true);
    let started = Instant::now();
    let report = {
        let _root = pv_obs::span("trace.run");
        let (pipelined, unpipelined, verifier, sweep) = {
            let _setup = pv_obs::span("trace.setup");
            let isa = Alpha0Config::condensed();
            let pipelined = alpha0::pipelined(PipelineConfig::condensed(isa))
                .map_err(|e| format!("elaborating pipelined Alpha0: {e}"))?;
            let unpipelined = alpha0::unpipelined(PipelineConfig::condensed(isa))
                .map_err(|e| format!("elaborating unpipelined Alpha0: {e}"))?;
            let verifier =
                Verifier::new(MachineSpec::alpha0_condensed(isa)).with_threads(opts.threads);
            let sweep: Vec<SimulationPlan> = (0..TRACE_SWEEP_POSITIONS)
                .map(|x| SimulationPlan::with_control_at(TRACE_SWEEP_SLOTS, x))
                .collect();
            (pipelined, unpipelined, verifier, sweep)
        };
        verifier
            .verify_plans(&pipelined, &unpipelined, &sweep)
            .map_err(|e| format!("traced sweep: {e}"))?
    };
    let wall = started.elapsed();
    pv_obs::set_trace_enabled(false);

    let events =
        trace_io::export_to_path(&out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!(
        "pv: traced a {TRACE_SWEEP_POSITIONS}-plan condensed-Alpha0 sweep in {:.3}s on {} worker thread{} — {} (equivalent: {}), {events} events to {}",
        wall.as_secs_f64(),
        opts.threads,
        if opts.threads == 1 { "" } else { "s" },
        report.machine,
        report.equivalent(),
        out.display(),
    );
    if !report.equivalent() {
        return Err("the traced sweep found a counterexample on a correct design".to_owned());
    }
    Ok(ExitCode::SUCCESS)
}
