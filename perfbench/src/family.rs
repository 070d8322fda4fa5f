//! `family_batch` and `family_batch_warm`: the 57-cell generated-family ×
//! seeded-bug matrix as one wave of `pv batch` jobs (both flows per job),
//! rendered as JSONL in a seed-shuffled order, decoded with the wire
//! protocol and run through the LPT scheduler — on a fresh cache (cold) or
//! against the cache a cold wave filled (warm).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pipeverify_core::cache::{ArtifactCache, ArtifactKind, CacheKey};
use pipeverify_core::json::Json;
use pipeverify_core::{report_io, FlowReport};
use pv_bench::matrix::{cell_bugs, matrix_configs};
use pv_netlist::{export, Netlist};
use pv_proc::family::{self, FamilyConfig};
use pv_server::protocol::{self, DesignSpec, FlowKind, JobRequest, JobResponse, PlanSet};
use pv_server::sched::{self, JobOutcome};
use pv_server::JobRunner;

use crate::measure::{self, charge, Outcome, Traced};

/// Verdicts per job: the β-relation flow and the flushing flow.
const FLOWS: usize = 2;

/// One cell of the matrix: the implementation's configuration (bug
/// included) and its correct base configuration.
struct Cell {
    config: FamilyConfig,
    base: FamilyConfig,
}

impl Cell {
    fn elaborate(&self) -> (Netlist, Netlist) {
        let _span = pv_obs::span("bench.proc.elaborate");
        (
            family::pipelined(self.config).expect("matrix designs elaborate"),
            family::unpipelined(self.base).expect("matrix designs elaborate"),
        )
    }
}

/// The matrix cells in matrix order; a job's id is its cell's index.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for base in matrix_configs() {
        cells.push(Cell { config: base, base });
        for bug in cell_bugs(&base) {
            cells.push(Cell {
                config: base.with_bug(bug),
                base,
            });
        }
    }
    cells
}

/// The job-file seed of measuring process `stream` of a run with `seed`:
/// `seed` itself for the first process, a distinct mix of the two for the
/// others, so that a run's processes average over several schedules.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A SplitMix64 stream: the seeded shuffle of the job file.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The job file of one wave: one JSONL line per cell, both flows, default
/// plans, in an order shuffled by `seed` (Fisher–Yates). The scheduler
/// breaks `cost_estimate` ties by input order, so the seed changes the
/// schedule among equal-cost jobs.
fn job_lines(cells: &[Cell], seed: u64) -> Vec<String> {
    let mut lines: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(id, cell)| {
            let job = JobRequest {
                id: id as u64,
                design: DesignSpec::Family(cell.config),
                flows: vec![FlowKind::Beta, FlowKind::Flushing],
                plans: PlanSet::Default,
                deadline_ms: None,
                node_budget: None,
            };
            protocol::request_to_json(&job).render()
        })
        .collect();
    let mut rng = SplitMix(seed);
    for i in (1..lines.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        lines.swap(i, j);
    }
    lines
}

fn decode(lines: &[String]) -> Vec<JobRequest> {
    let _span = pv_obs::span("bench.server.decode");
    lines
        .iter()
        .map(|line| {
            let json = Json::parse(line).expect("generated job lines are JSON");
            protocol::request_from_json(&json).expect("generated job lines decode")
        })
        .collect()
}

/// The wave and everything the checks need: the cells, the decoded jobs
/// and each cell's elaborated design pair (for counterexample replay).
pub struct Wave {
    cells: Vec<Cell>,
    jobs: Vec<JobRequest>,
    designs: Vec<(Netlist, Netlist)>,
}

/// Builds the wave from `seed`: elaborates every cell, renders and shuffles
/// the job file and decodes it — repeatedly (see
/// [`measure::repeated_setup`]), returning the median time.
pub fn setup(seed: u64) -> (Wave, f64) {
    measure::repeated_setup(|| {
        let cells = cells();
        let designs = cells.iter().map(Cell::elaborate).collect();
        let jobs = decode(&job_lines(&cells, seed));
        Wave {
            cells,
            jobs,
            designs,
        }
    })
}

/// One wave's run: outcomes in input order, per-job completion times from
/// submission, makespan and process CPU.
pub struct WaveRun {
    pub outcomes: Vec<JobOutcome>,
    pub latencies: Vec<f64>,
    pub wall: f64,
    pub cpu: f64,
    pub misses: usize,
}

fn run_wave(jobs: &[JobRequest], cache: Option<ArtifactCache>, workers: usize) -> WaveRun {
    let runner = JobRunner::new(cache);
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let ((outcomes, latencies), wall, cpu) = measure::timed(|| {
        let _span = pv_obs::span("bench.server.run_jobs");
        let submitted = Instant::now();
        let outcomes = sched::run_jobs(&runner, jobs, workers, |_, _| {
            let latency = submitted.elapsed().as_secs_f64();
            done.lock()
                .expect("no job panics while logging")
                .push(latency);
        });
        (outcomes, done.into_inner().expect("latency log intact"))
    });
    WaveRun {
        outcomes,
        latencies,
        wall,
        cpu,
        misses: runner.cache_misses(),
    }
}

/// A report with its wall times zeroed: what traced, untraced, warm, cold,
/// 1-worker and 2-worker runs must agree on exactly.
fn deterministic(report: &FlowReport) -> String {
    let mut report = report.clone();
    report.wall_time = Duration::ZERO;
    report
        .unit_walls
        .iter_mut()
        .for_each(|w| *w = Duration::ZERO);
    report_io::flow_report_to_json(&report).render()
}

/// Per job id, the deterministic rendering of each flow's report.
fn fingerprint(wave: &Wave, outcomes: &[JobOutcome]) -> BTreeMap<u64, Vec<String>> {
    wave.jobs
        .iter()
        .zip(outcomes)
        .map(|(job, outcome)| {
            let reports = match outcome {
                Ok(response) => response
                    .results
                    .iter()
                    .map(|r| deterministic(&r.report))
                    .collect(),
                Err(error) => vec![format!("error: {error}")],
            };
            (job.id, reports)
        })
        .collect()
}

/// Checks every verdict of a wave against the matrix oracle: correct cells
/// PASS both flows, bug cells FAIL both, and every β counterexample replays
/// to a real divergence on `ConcreteSim` with exactly the reported values.
fn check(wave: &Wave, outcomes: &[JobOutcome], out: &mut Outcome) {
    for (job, outcome) in wave.jobs.iter().zip(outcomes) {
        let cell = &wave.cells[job.id as usize];
        let label = cell.config.tag();
        let expect_pass = cell.config.bug.is_none();
        let response = match outcome {
            Ok(response) if response.results.len() == FLOWS => response,
            other => {
                for _ in 0..FLOWS {
                    out.verdict(false, || format!("{label}: job failed: {other:?}"));
                }
                continue;
            }
        };
        for result in &response.results {
            let report = &result.report;
            let mut ok = report.equivalent == expect_pass && report.unit_failures.is_empty();
            if !expect_pass && report.flow == "beta-relation" {
                let (pipelined, unpipelined) = &wave.designs[job.id as usize];
                ok &= report
                    .replay(pipelined, unpipelined)
                    .is_some_and(|r| r.diverged && r.matches_report);
            }
            out.verdict(ok, || {
                format!(
                    "{label}: {} said {} (expected {}), or its counterexample did not replay",
                    report.flow,
                    if report.equivalent { "PASS" } else { "FAIL" },
                    if expect_pass { "PASS" } else { "FAIL" },
                )
            });
        }
    }
}

/// A fresh, empty cache directory under `scratch`.
fn fresh_cache(scratch: &Path, name: &str) -> ArtifactCache {
    let dir = scratch.join(name);
    std::fs::remove_dir_all(&dir).ok();
    ArtifactCache::at(dir)
}

/// The end-to-end metrics over timed waves; `setup_s` is `None` when the
/// set-up ran in another process.
fn end_to_end(out: &mut Outcome, setup_s: Option<f64>, runs: &[WaveRun]) {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let latencies: Vec<&[f64]> = runs.iter().map(|r| r.latencies.as_slice()).collect();
    let verdicts: usize = runs.iter().map(|r| r.outcomes.len() * FLOWS).sum();
    if let Some(setup_s) = setup_s {
        out.metric("setup_s", setup_s);
    }
    out.metric("wall_s", measure::median(&walls));
    out.metric(
        "cpu_s",
        runs.iter().map(|r| r.cpu).sum::<f64>() / runs.len() as f64,
    );
    out.metric("peak_rss_mb", measure::peak_rss_mb());
    out.latency(&latencies);
    out.metric(
        "verdicts_per_s",
        verdicts as f64 / walls.iter().sum::<f64>(),
    );
    out.info("units", Json::from_u64(runs.len() as u64));
}

/// `family_batch`, timed: cold waves, each on a fresh scratch cache.
pub fn measure_cold(seed: u64, seconds: f64, workers: usize, scratch: &Path, out: &mut Outcome) {
    let (wave, setup_s) = setup(seed);
    let mut first = None;
    let runs = measure::repeat_for(seconds, || {
        let cache = fresh_cache(scratch, "cold");
        let run = run_wave(&wave.jobs, Some(cache), workers);
        check(&wave, &run.outcomes, out);
        let print = fingerprint(&wave, &run.outcomes);
        let reference = first.get_or_insert_with(|| print.clone());
        out.invariant(print == *reference, || {
            "deterministic report fields drifted between waves".to_owned()
        });
        run
    });
    end_to_end(out, Some(setup_s), &runs);
}

/// Where the warm workload's set-up leaves the filled cache and the cold
/// responses it must reproduce.
fn warm_paths(scratch: &Path) -> (PathBuf, PathBuf) {
    (
        scratch.join("warm-cache"),
        scratch.join("cold-responses.jsonl"),
    )
}

/// Renders a response as the cold run would have: `cached` cleared.
fn as_cold(response: &JobResponse) -> String {
    let mut response = response.clone();
    response.results.iter_mut().for_each(|r| r.cached = false);
    protocol::response_to_json(&response).render()
}

/// The warm workload's set-up, in a process of its own so that the timed
/// process's peak RSS is the warm path's alone: builds the wave and fills
/// the cache with one cold wave, whose responses it stores as the oracle
/// for the warm ones.
pub fn fill(seed: u64, workers: usize, scratch: &Path, out: &mut Outcome) {
    let (wave, setup_s) = setup(seed);
    let (cache_dir, responses) = warm_paths(scratch);
    let cold = run_wave(&wave.jobs, Some(ArtifactCache::at(cache_dir)), workers);
    check(&wave, &cold.outcomes, out);
    // One line per job, in job-id order: the warm processes shuffle the
    // wave with seeds of their own.
    let mut lines: Vec<(u64, String)> = wave
        .jobs
        .iter()
        .zip(&cold.outcomes)
        .map(|(job, o)| {
            let line = o.as_ref().map_or_else(|e| format!("error: {e}"), as_cold);
            (job.id, line)
        })
        .collect();
    lines.sort();
    let lines: Vec<String> = lines.into_iter().map(|(_, line)| line).collect();
    std::fs::write(&responses, lines.join("\n")).expect("the scratch directory is writable");
    out.metric("setup_s", setup_s + cold.wall);
}

/// Checks a warm wave: every flow answered from the cache, and every
/// response byte-identical to the cold one except for `cached`.
fn check_warm(wave: &Wave, run: &WaveRun, cold: &[String], out: &mut Outcome) {
    check(wave, &run.outcomes, out);
    out.invariant(run.misses == 0, || {
        format!("{} cache misses on a warm wave", run.misses)
    });
    for (job, outcome) in wave.jobs.iter().zip(&run.outcomes) {
        let cold = &cold[job.id as usize];
        let identical = outcome.as_ref().is_ok_and(|response| {
            response.results.iter().all(|r| r.cached) && as_cold(response) == *cold
        });
        out.invariant(identical, || {
            "a warm response differs from its cold twin".to_owned()
        });
    }
}

fn load_warm(seed: u64, scratch: &Path) -> (Wave, ArtifactCache, Vec<String>) {
    let (cache_dir, responses) = warm_paths(scratch);
    let cold = std::fs::read_to_string(&responses)
        .expect("the warm set-up wrote the cold responses")
        .lines()
        .map(str::to_owned)
        .collect();
    let (wave, _) = setup(seed);
    (wave, ArtifactCache::at(cache_dir), cold)
}

/// `family_batch_warm`, timed: repeated waves against the filled cache.
pub fn measure_warm(seed: u64, seconds: f64, workers: usize, scratch: &Path, out: &mut Outcome) {
    let (wave, cache, cold) = load_warm(seed, scratch);
    let runs = measure::repeat_for(seconds, || {
        let run = run_wave(&wave.jobs, Some(cache.clone()), workers);
        check_warm(&wave, &run, &cold, out);
        run
    });
    // The set-up ran in its own process; `run.py` adds its `setup_s`.
    end_to_end(out, None, &runs);
}

/// `family_batch`, traced. Every job first runs straight through
/// `JobRunner::run` on one thread, in input order: the 1-worker reference
/// for the deterministic counts, and a warm-up that leaves the scheduler's
/// histograms untouched. Then a traced and an untraced wave on `workers`
/// workers, and the per-layer decomposition of the service path.
pub fn trace_cold(seed: u64, workers: usize, scratch: &Path, out: &mut Outcome) {
    let (wave, _) = setup(seed);
    let runner = JobRunner::new(Some(fresh_cache(scratch, "seq")));
    let sequential: Vec<JobOutcome> = wave.jobs.iter().map(|job| runner.run(job)).collect();
    let cache = fresh_cache(scratch, "traced");
    let traced = measure::traced("bench.family_batch", || {
        run_wave(&wave.jobs, Some(cache.clone()), workers)
    });
    let untraced = run_wave(&wave.jobs, Some(fresh_cache(scratch, "cold")), workers);
    let reference = fingerprint(&wave, &sequential);
    check(&wave, &sequential, out);
    for (run, what) in [(&traced.value, "traced"), (&untraced, "untraced")] {
        check(&wave, &run.outcomes, out);
        out.invariant(fingerprint(&wave, &run.outcomes) == reference, || {
            format!("the {what} {workers}-worker wave's reports differ from the 1-worker run's")
        });
    }
    layers(
        &wave,
        &traced.value,
        &traced,
        1,
        &cache,
        workers,
        scratch,
        out,
    );
    out.metric("obs.trace_overhead", traced.wall / untraced.wall - 1.0);
}

/// `family_batch_warm`, traced: warm-up waves for an eighth of `seconds`,
/// untraced waves for a quarter, as many traced waves, then the per-layer
/// decomposition.
pub fn trace_warm(seed: u64, seconds: f64, workers: usize, scratch: &Path, out: &mut Outcome) {
    let (wave, cache, cold) = load_warm(seed, scratch);
    let warm_up = measure::repeat_for(seconds / 8.0, || {
        run_wave(&wave.jobs, Some(cache.clone()), workers)
    });
    let untraced = measure::repeat_for(seconds / 4.0, || {
        run_wave(&wave.jobs, Some(cache.clone()), workers)
    });
    let waves = untraced.len();
    let traced = measure::traced("bench.family_batch_warm", || {
        (0..waves)
            .map(|_| run_wave(&wave.jobs, Some(cache.clone()), workers))
            .collect::<Vec<_>>()
    });
    for run in warm_up.iter().chain(&untraced).chain(&traced.value) {
        check_warm(&wave, run, &cold, out);
    }
    let last = traced.value.last().expect("at least one traced wave");
    layers(&wave, last, &traced, waves, &cache, workers, scratch, out);
    let untraced_wall: f64 = untraced.iter().map(|r| r.wall).sum();
    out.metric("obs.trace_overhead", traced.wall / untraced_wall - 1.0);
}

/// The per-layer metrics of one wave `run` out of the `waves` waves that
/// ran under `traced` (registry deltas and span times are reported per
/// wave; histogram maxima are the process's, so over every wave run so
/// far), plus a decomposition of the service path timed by calling each
/// layer's public functions on the wave's own inputs: elaboration, netlist
/// export, FORCE ordering (once per β plan, as the verifier does), wire
/// encode/decode, report encode/decode, and cache loads and stores of every
/// report in the wave's cache.
#[allow(clippy::too_many_arguments)]
fn layers<T>(
    wave: &Wave,
    run: &WaveRun,
    traced: &Traced<T>,
    waves: usize,
    cache: &ArtifactCache,
    workers: usize,
    scratch: &Path,
    out: &mut Outcome,
) {
    let per_wave = |n: u64| n as f64 / waves as f64;
    let fresh: Vec<&FlowReport> = run
        .outcomes
        .iter()
        .flatten()
        .flat_map(|response| &response.results)
        .filter(|r| !r.cached)
        .map(|r| &r.report)
        .collect();
    let beta: Vec<&&FlowReport> = fresh.iter().filter(|r| r.flow == "beta-relation").collect();
    let flush: Vec<&&FlowReport> = fresh.iter().filter(|r| r.flow == "flushing").collect();
    let metric_sum = |reports: &[&&FlowReport], key: &str| -> u64 {
        reports
            .iter()
            .map(|r| r.metrics.get(key).copied().unwrap_or(0))
            .sum()
    };
    let hits = metric_sum(&beta, "bdd.ite.cache_hit");
    let misses = metric_sum(&beta, "bdd.ite.cache_miss");
    let plan_walls: Vec<f64> = beta
        .iter()
        .flat_map(|r| r.unit_walls.iter().map(Duration::as_secs_f64))
        .collect();
    let cube_walls: Vec<f64> = flush
        .iter()
        .flat_map(|r| r.unit_walls.iter().map(Duration::as_secs_f64))
        .collect();
    let wall_sum = |reports: &[&&FlowReport]| -> f64 {
        reports.iter().map(|r| r.wall_time.as_secs_f64()).sum()
    };
    out.metric(
        "bdd.allocated",
        beta.iter().map(|r| r.space).sum::<usize>() as f64,
    );
    out.metric(
        "bdd.peak_live",
        traced.after.get("bdd.unique.peak_live") as f64,
    );
    out.metric("bdd.ite.misses", misses as f64);
    if hits + misses > 0 {
        out.metric("bdd.ite.hit_rate", hits as f64 / (hits + misses) as f64);
    }
    out.metric("bdd.gc.runs", per_wave(traced.delta("bdd.gc.runs")));
    out.metric(
        "bdd.gc.collected",
        per_wave(traced.delta("bdd.gc.collected")),
    );
    out.metric("bdd.gc_s", traced.self_s("gc.pass") / waves as f64);
    out.metric(
        "plan.count",
        beta.iter().map(|r| r.units_checked).sum::<usize>() as f64,
    );
    out.metric(
        "plan.samples",
        beta.iter().map(|r| r.checks).sum::<usize>() as f64,
    );
    out.metric(
        "plan.wall_s.max",
        plan_walls.iter().copied().fold(0.0, f64::max),
    );
    out.metric("plan.wall_s.sum", plan_walls.iter().sum());
    out.metric("flow.beta_s", wall_sum(&beta));
    out.metric("flow.flush_s", wall_sum(&flush));
    out.metric("flush.splits", metric_sum(&flush, "euf.splits") as f64);
    out.metric(
        "flush.closure_checks",
        metric_sum(&flush, "euf.closure_checks") as f64,
    );
    out.metric(
        "flush.terms",
        flush.iter().map(|r| r.space).sum::<usize>() as f64,
    );
    out.metric(
        "flush.cube_s.max",
        cube_walls.iter().copied().fold(0.0, f64::max),
    );
    out.metric("flush.cube_s.sum", cube_walls.iter().sum());
    traced.pool_metrics(workers, waves, out);

    for (name, key) in [
        ("cache.hit", "cache.hit"),
        ("cache.miss", "cache.miss"),
        ("cache.corrupt", "cache.corrupt"),
        ("server.retry", "server.job.retry"),
    ] {
        out.metric(name, per_wave(traced.delta(key)));
    }
    let waits = traced.delta("server.job.queue_wait_us.count").max(1);
    out.metric(
        "server.queue_wait_s.mean",
        traced.delta("server.job.queue_wait_us.sum") as f64 / waits as f64 / 1e6,
    );
    out.metric(
        "server.queue_wait_s.max",
        traced.after.get("server.job.queue_wait_us.max") as f64 / 1e6,
    );
    let run_max = traced.after.get("server.job.run_us.max") as f64 / 1e6;
    let run_sum = per_wave(traced.delta("server.job.run_us.sum")) / 1e6;
    out.metric("server.run_s.max", run_max);
    out.metric(
        "sched.lpt_slack_s",
        run.wall - run_max.max(run_sum / workers as f64),
    );

    // The decomposition of one wave's service path, layer by layer.
    let mut elaborate = Duration::ZERO;
    let mut export = Duration::ZERO;
    let mut force = Duration::ZERO;
    for cell in &wave.cells {
        let (pipelined, unpipelined) = charge(&mut elaborate, || cell.elaborate());
        charge(&mut export, || {
            (export::export(&pipelined), export::export(&unpipelined))
        });
        // `Verifier::default_plans`: k + 1 plans, one FORCE run each.
        for _ in 0..=cell.config.depth {
            charge(&mut force, || pv_netlist::order::force_order(&pipelined));
        }
    }
    out.metric("proc.elaborate_s", elaborate.as_secs_f64());
    out.metric("netlist.export_s", export.as_secs_f64());
    out.metric("netlist.force_order_s", force.as_secs_f64());

    let lines: Vec<String> = wave
        .jobs
        .iter()
        .map(|job| protocol::request_to_json(job).render())
        .collect();
    let mut decode_s = Duration::ZERO;
    charge(&mut decode_s, || decode(&lines));
    let mut encode_s = Duration::ZERO;
    for response in run.outcomes.iter().flatten() {
        charge(&mut encode_s, || {
            protocol::response_to_json(response).render()
        });
    }
    out.metric("protocol.decode_s", decode_s.as_secs_f64());
    out.metric("protocol.encode_s", encode_s.as_secs_f64());

    let keys = report_keys(cache.dir());
    let copy = fresh_cache(scratch, "store-copy");
    let (mut load, mut store, mut rdecode, mut rencode) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    for key in keys {
        let Some(text) = charge(&mut load, || cache.load(ArtifactKind::Report, key)) else {
            continue;
        };
        let report = charge(&mut rdecode, || {
            Json::parse(&text)
                .ok()
                .and_then(|json| report_io::flow_report_from_json(&json).ok())
        });
        out.invariant(report.is_some(), || {
            format!("cached report {key} does not decode")
        });
        if let Some(report) = report {
            charge(&mut rencode, || {
                report_io::flow_report_to_json(&report).render()
            });
        }
        charge(&mut store, || copy.store(ArtifactKind::Report, key, &text))
            .expect("the scratch directory is writable");
    }
    out.metric("cache.load_s", load.as_secs_f64());
    out.metric("cache.store_s", store.as_secs_f64());
    out.metric("report_io.decode_s", rdecode.as_secs_f64());
    out.metric("report_io.encode_s", rencode.as_secs_f64());
}

/// The keys of every report stored in the cache directory `dir`.
fn report_keys(dir: &Path) -> Vec<CacheKey> {
    let mut keys: Vec<CacheKey> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let hex = name.strip_suffix(".report.json")?;
                    u64::from_str_radix(hex, 16).ok().map(CacheKey)
                })
                .collect()
        })
        .unwrap_or_default();
    keys.sort_by_key(|k| k.0);
    keys
}
