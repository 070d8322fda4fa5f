//! Perf-smoke gate: a table of small fixed workloads ([`CASES`]), each
//! measured as rows of exact deterministic counts plus a wall time, and one
//! gate loop that checks every row against
//! `crates/bench/baselines/BENCH_bdd.json`:
//!
//! * every count (`<case>_<count>`: BDD nodes allocated and peak live, ITE
//!   cache hits and misses, EUF splits and closure checks, artifact-cache
//!   hits and misses, the budget overshoot) must **equal** its baseline;
//! * every wall (`<case>_wall_s`) must be at most [`WALL_FACTOR`] × its
//!   baseline;
//! * the baseline must hold exactly the keys the cases measure.
//!
//! Three twin gates ([`TWINS`]) compare two rows of the same run: a parallel
//! twin must beat its sequential primary on a runner with at least two cores
//! (skipped with a notice on one), the traced Alpha0 sweep may cost at most
//! 10% over the untraced one (medians of alternating runs), and the warm
//! artifact-cache sweep at most max(0.2 × cold, 5 ms). A parallel or traced
//! twin redoes its primary's work, so its counts must equal the primary's;
//! full report identity is owned by the tests (`tests/verify_parallel.rs`,
//! `crates/flush/tests/depths.rs`, `crates/server/tests/cache.rs`,
//! `crates/bench/tests/trace_props.rs`).
//!
//! Writes the fresh rows to `BENCH_bdd.json` in the current directory and
//! exits non-zero when any gate fails.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use pipeverify_core::cache::ArtifactCache;
use pipeverify_core::json::Json;
use pipeverify_core::{MachineSpec, SimulationPlan, VerificationReport, Verifier};
use pv_bdd::{BddManager, BddVec, Budget, BudgetExceeded};
use pv_bench::counter_system;
use pv_bench::matrix::{cell_jobs, cells, smoke_configs};
use pv_flush::{FlushReport, FlushVerifier, PipelineDesc};
use pv_isa::alpha0::Alpha0Config;
use pv_proc::alpha0::{self, PipelineConfig};
use pv_proc::vsm::{self, VsmConfig};
use pv_server::job::JobRunner;
use pv_server::sched;

/// Schema tag of the baseline file and of the emitted artifact.
const SCHEMA: &str = "pipeverify-bdd-smoke-v2";
/// The one wall rule: a row's wall may be at most this factor over its
/// baseline.
const WALL_FACTOR: f64 = 1.5;
/// Worker count of every parallel twin and of the cache sweeps.
const THREADS: usize = 4;
/// Alternating untraced/traced sequential sweeps whose medians give the
/// `alpha0_sweep_seq` and `alpha0_sweep_traced` walls.
const TRACE_PAIRS: usize = 5;
/// Traced twin: traced ≤ max(factor × untraced, untraced + grace); the
/// grace covers timer noise on a sub-second sweep.
const TRACE_OVERHEAD_FACTOR: f64 = 1.10;
const TRACE_OVERHEAD_GRACE_S: f64 = 0.05;
/// Warm twin: warm ≤ max(factor × cold, grace); below the grace a warm
/// sweep is already the file-read path the ratio exists to enforce.
const CACHE_WARM_FACTOR: f64 = 0.2;
const CACHE_WARM_GRACE_S: f64 = 0.005;
/// Node budget of `budget_abort`, far below what reach12 allocates.
const BUDGET_ABORT_LIMIT: usize = 20_000;

type Counts = Vec<(&'static str, usize)>;

/// One measured case: exact deterministic counts and a wall time.
struct Row {
    case: &'static str,
    wall: f64,
    counts: Counts,
}

impl Row {
    fn new(case: &'static str, wall: f64, counts: Counts) -> Row {
        Row { case, wall, counts }
    }

    /// The row's baseline entries: `<case>_<count>` per count, then
    /// `<case>_wall_s`.
    fn entries(&self) -> Vec<(String, Json)> {
        let count = |&(name, n): &(&str, usize)| {
            (format!("{}_{name}", self.case), Json::from_u64(n as u64))
        };
        let wall = (format!("{}_wall_s", self.case), Json::Num(self.wall));
        self.counts.iter().map(count).chain([wall]).collect()
    }
}

/// How a twin row relates to its primary.
#[derive(Clone, Copy, PartialEq)]
enum Twin {
    Parallel, // more workers, same work: faster on ≥ 2 cores
    Traced,   // tracing on, same work: within the overhead budget
    Warm,     // warm cache: the primary's flow runs become file reads
}

/// `(primary, twin, rule)` for every twin gate.
const TWINS: [(&str, &str, Twin); 4] = [
    ("alpha0_sweep_seq", "alpha0_sweep_par", Twin::Parallel),
    ("alpha0_sweep_seq", "alpha0_sweep_traced", Twin::Traced),
    ("flush_par_seq", "flush_par_par", Twin::Parallel),
    ("cache_cold", "cache_warm", Twin::Warm),
];

/// The table: every case in run order, each returning its rows.
const CASES: [fn() -> Vec<Row>; 8] = [
    reach12,
    adder16,
    vsm_quickstart,
    alpha0_sweep,
    flush3,
    flush_par,
    cache,
    budget_abort,
];

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = pipeverify_core::pool::default_threads();
    println!("runner: {cores} core(s), effective PV_THREADS {threads}");
    let rows: Vec<Row> = CASES.iter().flat_map(|case| case()).collect();
    for row in &rows {
        println!("{:<20}: {:.6} s  {:?}", row.case, row.wall, row.counts);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_bdd.json");
    let failures = match std::fs::read_to_string(path).map(|text| Json::parse(&text)) {
        Ok(Ok(baseline)) => gate(&rows, &baseline, cores),
        Ok(Err(e)) => vec![format!("cannot parse {path}: {e}")],
        Err(e) => vec![format!("cannot read {path}: {e}")],
    };
    std::fs::write("BENCH_bdd.json", render(&rows)).expect("write BENCH_bdd.json");
    println!("wrote BENCH_bdd.json");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perf-smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("perf-smoke: OK");
}

/// Checks every row against the baseline and every twin against its
/// primary; returns one message per failed gate.
fn gate(rows: &[Row], baseline: &Json, cores: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        failures.push(format!("baseline schema is not `{SCHEMA}`"));
    }
    for row in rows {
        for (key, value) in row.entries() {
            let base = baseline.get(&key).and_then(Json::as_f64);
            let (Some(base), Some(v)) = (base, value.as_f64()) else {
                failures.push(format!("{key} is missing from the baseline"));
                continue;
            };
            let is_wall = key.ends_with("_wall_s");
            if is_wall && v > WALL_FACTOR * base {
                failures.push(format!("{key} = {v:.6} s > {WALL_FACTOR} x {base:.6} s"));
            } else if !is_wall && v != base {
                failures.push(format!("{key} = {v}, baseline {base} (exact)"));
            }
        }
    }
    let measured: BTreeSet<String> = rows.iter().flat_map(Row::entries).map(|e| e.0).collect();
    for (key, _) in baseline.as_obj().unwrap_or_default() {
        if key != "schema" && !measured.contains(key) {
            failures.push(format!("baseline key {key} is measured by no case"));
        }
    }
    for (primary, twin, rule) in TWINS {
        let find = |case: &str| rows.iter().find(|r| r.case == case);
        match (find(primary), find(twin)) {
            (Some(p), Some(t)) => failures.extend(twin_failure(rule, p, t, cores)),
            _ => failures.push(format!("twin pair {primary}/{twin} was not measured")),
        }
    }
    failures
}

/// The twin gate: `twin` against `primary` under `rule`.
fn twin_failure(rule: Twin, primary: &Row, twin: &Row, cores: usize) -> Option<String> {
    let (p, t, pn, tn) = (primary.wall, twin.wall, primary.case, twin.case);
    let (pc, tc) = (&primary.counts, &twin.counts);
    if rule != Twin::Warm && tc != pc {
        return Some(format!("{tn} counts {tc:?} differ from {pn} counts {pc:?}"));
    }
    let (ok, rule_text) = match rule {
        Twin::Parallel if cores < 2 => {
            println!("NOTICE: single-core runner, skipping {tn} < {pn}");
            return None;
        }
        Twin::Parallel => (t < p, "below".to_owned()),
        Twin::Traced => (
            t <= (p * TRACE_OVERHEAD_FACTOR).max(p + TRACE_OVERHEAD_GRACE_S),
            format!("within {TRACE_OVERHEAD_FACTOR} x (+{TRACE_OVERHEAD_GRACE_S} s)"),
        ),
        Twin::Warm => (
            t <= (p * CACHE_WARM_FACTOR).max(CACHE_WARM_GRACE_S),
            format!("within max({CACHE_WARM_FACTOR} x, {CACHE_WARM_GRACE_S} s)"),
        ),
    };
    println!("twin {tn:<20}: {t:.4} s vs {pn} {p:.4} s");
    (!ok).then(|| format!("{tn} {t:.4} s is not {rule_text} {pn} {p:.4} s"))
}

/// Renders rows in the baseline file's format: one key per line.
fn render(rows: &[Row]) -> String {
    let schema = ("schema".to_owned(), Json::Str(SCHEMA.to_owned()));
    let lines: Vec<String> = std::iter::once(schema)
        .chain(rows.iter().flat_map(Row::entries))
        .map(|(key, value)| format!("  {}: {}", Json::Str(key).render(), value.render()))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Runs `f` and returns its wall time in seconds with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// Allocated, peak-live, ITE-hit and ITE-miss counts, in that order.
fn bdd_counts(values: [usize; 4]) -> Counts {
    let names = ["allocated", "peak_live", "ite_hits", "ite_misses"];
    names.into_iter().zip(values).collect()
}

fn report_counts(r: &VerificationReport) -> Counts {
    let metric = |key: &str| r.metrics.get(key).map_or(0, |&n| n as usize);
    let ite = [metric("bdd.ite.cache_hit"), metric("bdd.ite.cache_miss")];
    bdd_counts([r.bdd_nodes, r.bdd_peak_live, ite[0], ite[1]])
}

fn flush_counts(r: &FlushReport) -> Counts {
    vec![("splits", r.splits), ("closure_checks", r.closure_checks)]
}

/// 12-bit counter reachability, 10 samples; counts are one sample's (every
/// sample does the same deterministic work).
fn reach12() -> Vec<Row> {
    let (wall, s) = timed(|| {
        let mut stats = None;
        for _ in 0..10 {
            let mut m = BddManager::new();
            let reach = counter_system(&mut m, 12).reachable(&mut m);
            assert!(reach.iterations >= 1 << 12, "2^12 increments");
            stats = Some(m.stats());
        }
        stats.expect("ten samples ran")
    });
    let counts = bdd_counts([s.allocated, s.peak_live, s.ite_hits, s.ite_misses]);
    vec![Row::new("reach12", wall, counts)]
}

/// 16-bit interleaved adder: the wall is the median of 100 builds.
fn adder16() -> Vec<Row> {
    let mut walls = Vec::new();
    let mut allocated = 0;
    for _ in 0..100 {
        let (wall, (m, sum)) = timed(|| {
            let mut m = BddManager::new();
            let words = BddVec::new_interleaved(&mut m, 2, 16);
            let sum = words[0].1.add(&mut m, &words[1].1);
            (m, sum)
        });
        assert_eq!(sum.width(), 16);
        walls.push(wall);
        allocated = m.stats().allocated;
    }
    let counts = vec![("allocated", allocated)];
    vec![Row::new("adder16", median(walls), counts)]
}

/// The quickstart VSM verification (§6.2), netlist construction included.
fn vsm_quickstart() -> Vec<Row> {
    let (wall, report) = timed(|| {
        let config = VsmConfig::reduced(2);
        let pipelined = vsm::pipelined(config).expect("build pipelined VSM");
        let unpipelined = vsm::unpipelined(config).expect("build unpipelined VSM");
        Verifier::new(MachineSpec::vsm_reduced(2))
            .verify(&pipelined, &unpipelined)
            .expect("verify VSM")
    });
    assert!(report.equivalent(), "quickstart VSM must verify");
    vec![Row::new("vsm", wall, report_counts(&report))]
}

/// The 3-position condensed-Alpha0 control-transfer sweep over 4-slot
/// plans: alternating untraced/traced sequential runs (so drift in the
/// machine's speed hits both medians alike), then one run on the pool.
fn alpha0_sweep() -> Vec<Row> {
    let isa = Alpha0Config::condensed();
    let pipelined = alpha0::pipelined(PipelineConfig::condensed(isa)).expect("build pipelined");
    let unpipelined =
        alpha0::unpipelined(PipelineConfig::condensed(isa)).expect("build unpipelined");
    let plans = [0, 1, 2].map(|x| SimulationPlan::with_control_at(4, x));
    let verifier = Verifier::new(MachineSpec::alpha0_condensed(isa));
    let run = |case: &'static str, threads: usize| {
        let verifier = verifier.clone().with_threads(threads);
        let (wall, report) = timed(|| verifier.verify_plans(&pipelined, &unpipelined, &plans));
        let report = report.expect("sweep");
        assert!(report.equivalent(), "the sweep must verify");
        Row::new(case, wall, report_counts(&report))
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    pv_obs::take_events(); // drop anything earlier cases buffered
    for _ in 0..TRACE_PAIRS {
        untraced.push(run("alpha0_sweep_seq", 1));
        pv_obs::set_trace_enabled(true);
        traced.push(run("alpha0_sweep_traced", 1));
        pv_obs::set_trace_enabled(false);
        let events = pv_obs::take_events();
        assert!(!events.is_empty(), "no span events");
        if let Err(e) = pv_obs::fold::check_nesting(&events) {
            panic!("the traced sweep's events violate span nesting: {e}");
        }
    }
    let with_median = |mut runs: Vec<Row>| {
        runs[0].wall = median(runs.iter().map(|r| r.wall).collect());
        runs.swap_remove(0)
    };
    let par = run("alpha0_sweep_par", THREADS);
    vec![with_median(untraced), with_median(traced), par]
}

/// Flushing of the stallable VSM, 20 runs: the term-level description is
/// derived from its netlist (three in-flight latches → flush bound 3).
fn flush3() -> Vec<Row> {
    let stallable = vsm::pipelined(VsmConfig::reduced(2).stallable()).expect("build stallable VSM");
    let verifier = FlushVerifier::from_netlist(&stallable).expect("derive flushing verifier");
    let verifier = verifier.with_threads(1);
    let bound = verifier.desc().flush_bound();
    assert_eq!(bound, 3, "the stallable VSM drains in three bubble cycles");
    let (wall, reports) = timed(|| (0..20).map(|_| verifier.verify()).collect::<Vec<_>>());
    let report = &reports[0];
    assert!(report.valid(), "stallable VSM must verify: {report}");
    vec![Row::new("flush3", wall, flush_counts(report))]
}

/// The EUF case split of a depth-12 term pipeline, sequential and parallel.
fn flush_par() -> Vec<Row> {
    let run = |case: &'static str, threads: usize| {
        let verifier = FlushVerifier::new(PipelineDesc::with_depth(12)).with_threads(threads);
        let (wall, report) = timed(|| verifier.verify());
        assert!(report.valid(), "the deep pipeline must verify");
        Row::new(case, wall, flush_counts(&report))
    };
    vec![run("flush_par_seq", 1), run("flush_par_par", THREADS)]
}

/// The family-matrix smoke sweep (both flows per cell) through the job
/// runner: cold, then warm against the same scratch cache.
fn cache() -> Vec<Row> {
    let scratch = std::env::temp_dir().join(format!("pv-perf-smoke-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let jobs = cell_jobs(&cells(&smoke_configs()));
    let sweep = |case: &'static str| {
        let runner = JobRunner::new(Some(ArtifactCache::at(scratch.join("cache"))));
        let (wall, outcomes) = timed(|| sched::run_jobs(&runner, &jobs, THREADS, |_, _| {}));
        assert!(outcomes.iter().all(Result::is_ok), "a smoke cell failed");
        let (hits, misses) = (runner.cache_hits(), runner.cache_misses());
        Row::new(case, wall, vec![("hits", hits), ("misses", misses)])
    };
    let rows = vec![sweep("cache_cold"), sweep("cache_warm")];
    std::fs::remove_dir_all(&scratch).ok();
    rows
}

/// 12-bit reachability under a node budget far below its full allocation:
/// the abort must be the node-limit abort, and its overshoot past the limit
/// (bounded by the amortized check interval) is an exact count.
fn budget_abort() -> Vec<Row> {
    let mut m = BddManager::new();
    m.set_budget(Budget::unlimited().with_node_limit(BUDGET_ABORT_LIMIT));
    let (wall, aborted) = timed(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            counter_system(&mut m, 12).reachable(&mut m);
        }))
    });
    let payload = aborted.expect_err("reachability finished under the node budget");
    let exceeded = payload.downcast_ref::<BudgetExceeded>();
    assert_eq!(exceeded, Some(&BudgetExceeded::Nodes));
    let overshoot = m.stats().allocated.saturating_sub(BUDGET_ABORT_LIMIT);
    let counts = vec![("overshoot_nodes", overshoot)];
    vec![Row::new("budget_abort", wall, counts)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic rows covering every twin pair, each twin passing its gate.
    fn rows() -> Vec<Row> {
        let nodes = || vec![("allocated", 100), ("peak_live", 40)];
        vec![
            Row::new("alpha0_sweep_seq", 0.5, nodes()),
            Row::new("alpha0_sweep_traced", 0.52, nodes()),
            Row::new("alpha0_sweep_par", 0.4, nodes()),
            Row::new("flush_par_seq", 0.4, vec![("splits", 384)]),
            Row::new("flush_par_par", 0.25, vec![("splits", 384)]),
            Row::new("cache_cold", 0.02, vec![("hits", 0), ("misses", 16)]),
            Row::new("cache_warm", 0.004, vec![("hits", 16), ("misses", 0)]),
        ]
    }

    /// The gate's failures on `cores` cores after `edit` changes the
    /// measured rows; the baseline is the unedited rows' rendering.
    fn failures(cores: usize, edit: impl FnOnce(&mut Vec<Row>)) -> Vec<String> {
        let baseline = Json::parse(&render(&rows())).expect("rendered baseline parses");
        let mut rows = rows();
        edit(&mut rows);
        gate(&rows, &baseline, cores)
    }

    #[test]
    fn the_baseline_gate_is_exact_on_counts_and_keys() {
        assert!(failures(2, |_| {}).is_empty());
        // A count off by one (twin kept equal, so only the baseline fires).
        let off_by_one = failures(2, |rows| {
            rows[3].counts[0].1 += 1;
            rows[4].counts[0].1 += 1;
        });
        assert_eq!(off_by_one.len(), 2);
        assert!(off_by_one[0].starts_with("flush_par_seq_splits = 385, baseline 384"));
        // A wall above WALL_FACTOR × baseline; the ceiling is inclusive.
        let slow = failures(2, |rows| rows[5].wall = 0.02 * WALL_FACTOR * 1.01);
        assert!(slow[0].starts_with("cache_cold_wall_s = 0.030300 s > 1.5 x 0.020000 s"));
        assert!(failures(2, |rows| rows[5].wall = 0.02 * WALL_FACTOR).is_empty());
        // A measured key the baseline lacks.
        let new_key = failures(2, |rows| rows[5].counts.push(("corrupt", 0)));
        assert_eq!(new_key, ["cache_cold_corrupt is missing from the baseline"]);
        // Baseline keys no case produces.
        let stale = failures(2, |rows| drop(rows.pop()));
        assert!(stale[0].starts_with("baseline key cache_warm_hits is measured by no"));
        assert!(stale[3].starts_with("twin pair cache_cold/cache_warm was not"));
    }

    #[test]
    fn twin_gates_fail_on_slow_or_diverging_twins() {
        // Parallel not faster: fails on two cores, skipped on one.
        let slow_par = |rows: &mut Vec<Row>| rows[2].wall = 0.5;
        let par = failures(2, slow_par);
        assert!(par[0].contains("0.5000 s is not below alpha0_sweep_seq"));
        assert!(failures(1, slow_par).is_empty());
        // Traced over max(1.1 × 0.5, 0.5 + 0.05) = 0.55.
        assert_eq!(failures(2, |rows| rows[1].wall = 0.56).len(), 1);
        // Warm over max(0.2 × 0.02, 5 ms).
        let warm = failures(2, |rows| rows[6].wall = 0.0051);
        assert!(warm[0].starts_with("cache_warm 0.0051 s is not within"));
        // A same-work twin whose counts diverge from its primary's.
        let diverged = failures(2, |rows| rows[4].counts[0].1 = 383);
        assert!(diverged[1].starts_with("flush_par_par counts"));
    }
}
