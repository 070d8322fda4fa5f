//! `flush_deep`: Burch–Dill flushing of a deep term-level pipeline —
//! the 64-cube EUF case split on the shared worker pool, no BDDs — plus one
//! seed-chosen bug-injected twin that must be rejected.

use std::time::Duration;

use pipeverify_core::json::Json;
use pv_flush::{FlushReport, FlushVerifier, PipelineBug, PipelineDesc, TermManager};

use crate::measure::{self, charge, Outcome};

/// Pipeline depth: deep enough that one check lasts seconds (depth 14 takes
/// about 0.6 s on two workers and each extra stage roughly doubles it).
const DEPTH: usize = 16;

/// The bugs that break the commuting diagram of a straight-line pipeline of
/// depth ≥ 3; the seed picks the twin.
const BUGS: [PipelineBug; 5] = [
    PipelineBug::NoForwarding,
    PipelineBug::ForwardAlways,
    PipelineBug::WriteBackBubbles,
    PipelineBug::StuckPc,
    PipelineBug::StallInverted,
];

fn desc() -> PipelineDesc {
    PipelineDesc::with_depth(DEPTH)
}

/// Builds the verification condition once, as set-up: the term-level
/// elaboration of the pipeline.
fn vc_build() -> usize {
    let _span = pv_obs::span("bench.flush.verification_condition");
    let mut terms = TermManager::new();
    FlushVerifier::new(desc()).verification_condition(&mut terms);
    terms.len()
}

fn verify(desc: PipelineDesc, workers: usize) -> FlushReport {
    let _span = pv_obs::span("bench.flush.verify");
    FlushVerifier::new(desc).with_threads(workers).verify()
}

/// The counts every run of the correct pipeline must reproduce exactly, at
/// any worker count.
fn canary(report: &FlushReport) -> (usize, usize, usize, usize) {
    (
        report.splits,
        report.closure_checks,
        report.terms,
        report.cubes_checked,
    )
}

fn check_valid(report: &FlushReport, out: &mut Outcome) {
    out.verdict(
        report.valid() && report.cubes_checked == report.cubes,
        || format!("the correct depth-{DEPTH} pipeline was rejected: {report}"),
    );
}

/// The seed-chosen bug twin must break the commuting diagram.
fn check_bug_twin(seed: u64, workers: usize, out: &mut Outcome) {
    let bug = BUGS[(seed % BUGS.len() as u64) as usize];
    let report = verify(desc().with_bug(bug), workers);
    out.verdict(!report.valid() && report.counterexample.is_some(), || {
        format!("the depth-{DEPTH} pipeline with {bug:?} was accepted")
    });
    out.info("bug_twin", Json::Str(format!("{bug:?}")));
}

pub fn measure(seed: u64, seconds: f64, workers: usize, out: &mut Outcome) {
    let (_, setup_s) = measure::repeated_setup(vc_build);
    let units = measure::repeat_for(seconds, || measure::timed(|| verify(desc(), workers)));
    let first = canary(&units[0].0);
    for (report, _, _) in &units {
        check_valid(report, out);
        out.invariant(canary(report) == first, || {
            format!(
                "EUF counts drifted between checks: {:?} vs {first:?}",
                canary(report)
            )
        });
    }
    check_bug_twin(seed, workers, out);
    let walls: Vec<f64> = units.iter().map(|u| u.1).collect();
    out.metric("setup_s", setup_s);
    out.metric("wall_s", measure::median(&walls));
    out.metric(
        "cpu_s",
        units.iter().map(|u| u.2).sum::<f64>() / units.len() as f64,
    );
    out.metric("peak_rss_mb", measure::peak_rss_mb());
    // One verdict per check, delivered when `verify` returns.
    out.latency(&walls.chunks(1).collect::<Vec<_>>());
    out.metric(
        "verdicts_per_s",
        units.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.info("units", Json::from_u64(units.len() as u64));
    out.info("depth", Json::from_u64(DEPTH as u64));
    let (splits, closure_checks, terms, _) = first;
    out.info("flush.splits", Json::from_u64(splits as u64));
    out.info(
        "flush.closure_checks",
        Json::from_u64(closure_checks as u64),
    );
    out.info("flush.terms", Json::from_u64(terms as u64));
}

pub fn trace(seed: u64, workers: usize, out: &mut Outcome) {
    // The 1-worker check goes first and doubles as the warm-up, as in the
    // `alpha0_sweep` traced run.
    let sequential = verify(desc(), 1);
    let (untraced, untraced_wall, _) = measure::timed(|| verify(desc(), workers));
    let traced = measure::traced("bench.flush_deep", || verify(desc(), workers));
    for report in [&untraced, &traced.value, &sequential] {
        check_valid(report, out);
        out.invariant(canary(report) == canary(&untraced), || {
            format!(
                "EUF counts differ between traced/untraced or 1/{workers} workers: {:?} vs {:?}",
                canary(report),
                canary(&untraced)
            )
        });
    }
    check_bug_twin(seed, workers, out);
    let mut vc = Duration::ZERO;
    charge(&mut vc, vc_build);
    let cubes: Vec<f64> = untraced
        .cube_walls
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    out.metric("flush.splits", untraced.splits as f64);
    out.metric("flush.closure_checks", untraced.closure_checks as f64);
    out.metric("flush.terms", untraced.terms as f64);
    out.metric(
        "flush.cube_s.max",
        cubes.iter().copied().fold(0.0, f64::max),
    );
    out.metric("flush.cube_s.sum", cubes.iter().sum());
    out.metric("flush.vc_s", vc.as_secs_f64());
    out.metric("flow.flush_s", untraced.wall_time.as_secs_f64());
    traced.pool_metrics(workers, 1, out);
    out.metric("obs.trace_overhead", traced.wall / untraced_wall - 1.0);
}
