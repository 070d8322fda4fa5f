//! **Profile explainer**: folds a `pv trace` JSONL trace into
//! a per-span self-time table and checks instrumentation coverage; given two
//! traces, prints how each span's self time moved between them.
//!
//! ```text
//! trace_report <trace.jsonl> [<after.jsonl>] [--root NAME] [--min-coverage FRACTION]
//! ```
//!
//! The fold is the classic flame-graph reduction (see `pv_obs::fold`): each
//! span's *self* time is its duration minus its direct children's durations,
//! so summing self time over every span except the root yields the wall time
//! the instrumentation actually explains. The report prints one row per span
//! name sorted by descending self time, then the coverage ratio
//! `attributed / root`.
//!
//! With a second trace the report is a **diff** instead: one row per span
//! name found in either trace, with its self time in the first, in the
//! second, and the delta, sorted by descending absolute delta, so an engine
//! change shows its effect layer by layer in one table. The root span's
//! wall time and coverage follow for each trace.
//!
//! The tool exits nonzero when, for any trace given:
//!
//! * the trace violates span-nesting discipline (an exit without a matching
//!   innermost enter, or a span left open),
//! * the root span (default `trace.run`, the bracket `pv trace` puts around
//!   the whole sweep) is absent, or
//! * coverage falls below `--min-coverage` (default 0.9) — meaning a hot
//!   path is running uninstrumented. Pass `--min-coverage 0` to make the
//!   report purely informational.
//!
//! The CI `trace-smoke` job runs `pv trace` followed by this tool, so a
//! regression that moves significant wall time outside the instrumented
//! spans fails the build rather than silently degrading the traces.

use std::collections::BTreeMap;
use std::process::ExitCode;

use pipeverify_core::trace_io;
use pv_obs::fold::{self, FoldReport};

/// Default root span name: the bracket `pv trace` emits around the sweep.
const DEFAULT_ROOT: &str = "trace.run";

/// Default coverage gate, matching the `trace-smoke` CI contract.
const DEFAULT_MIN_COVERAGE: f64 = 0.9;

const USAGE: &str =
    "usage: trace_report <trace.jsonl> [<after.jsonl>] [--root NAME] [--min-coverage FRACTION]";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut root = DEFAULT_ROOT.to_owned();
    let mut min_coverage = DEFAULT_MIN_COVERAGE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = it.next().ok_or("--root needs a span name")?.clone();
            }
            "--min-coverage" => {
                let raw = it.next().ok_or("--min-coverage needs a fraction")?;
                min_coverage = raw
                    .parse()
                    .map_err(|_| format!("--min-coverage: `{raw}` is not a number"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if paths.len() < 2 && !other.starts_with('-') => {
                paths.push(other.to_owned());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let reports = paths
        .iter()
        .map(|path| load(path, &root))
        .collect::<Result<Vec<_>, _>>()?;
    match reports.as_slice() {
        [] => return Err(USAGE.to_owned()),
        [report] => print_profile(report),
        [before, after] => print_diff(before, after),
        _ => unreachable!("at most two paths are accepted"),
    }
    for (path, report) in paths.iter().zip(&reports) {
        println!(
            "{path}: root `{}` {:.3} ms; attributed {:.3} ms; coverage {:.1}%",
            report.root_name,
            report.root_total_us as f64 / 1e3,
            report.attributed_us as f64 / 1e3,
            100.0 * report.coverage(),
        );
    }
    for (path, report) in paths.iter().zip(&reports) {
        if report.root_total_us == 0 {
            return Err(format!(
                "`{path}`: root span `{root}` not found in the trace"
            ));
        }
        if report.coverage() < min_coverage {
            return Err(format!(
                "`{path}`: coverage {:.1}% is below the {:.1}% floor — a hot path is running uninstrumented",
                100.0 * report.coverage(),
                100.0 * min_coverage,
            ));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads, parses and folds one trace file against the root span `root`.
fn load(path: &str, root: &str) -> Result<FoldReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let events = trace_io::parse_jsonl(&text).map_err(|e| format!("`{path}`: {e}"))?;
    // A malformed bracket sequence makes every self-time figure suspect, so
    // nesting failures are hard errors, not table footnotes.
    let spans = fold::check_nesting(&events)
        .map_err(|e| format!("`{path}`: span nesting violated: {e}"))?;
    println!(
        "trace: {path} — {} events, {spans} completed spans",
        events.len()
    );
    Ok(fold::fold(&events, root))
}

fn print_profile(report: &FoldReport) {
    println!();
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>6}",
        "span", "count", "total", "self", "self%"
    );
    let denom = report.root_total_us.max(1) as f64;
    for row in &report.rows {
        println!(
            "{:<28} {:>8} {:>9.3} ms {:>9.3} ms {:>5.1}%",
            row.name,
            row.count,
            row.total_us as f64 / 1e3,
            row.self_us as f64 / 1e3,
            100.0 * row.self_us as f64 / denom,
        );
    }
    println!();
}

/// One span name's self time in two traces.
#[derive(Debug, PartialEq)]
struct SpanDelta<'a> {
    name: &'a str,
    before_us: u64,
    after_us: u64,
}

impl SpanDelta<'_> {
    fn delta_us(&self) -> i64 {
        self.after_us as i64 - self.before_us as i64
    }
}

/// Per-span self-time deltas from `before` to `after`: one row per span
/// name found in either report (0 µs where it is absent), sorted by
/// descending absolute delta, ties by name.
fn diff<'a>(before: &'a FoldReport, after: &'a FoldReport) -> Vec<SpanDelta<'a>> {
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for row in &before.rows {
        rows.entry(&row.name).or_default().0 = row.self_us;
    }
    for row in &after.rows {
        rows.entry(&row.name).or_default().1 = row.self_us;
    }
    let mut out: Vec<SpanDelta> = rows
        .into_iter()
        .map(|(name, (before_us, after_us))| SpanDelta {
            name,
            before_us,
            after_us,
        })
        .collect();
    out.sort_by_key(|d| std::cmp::Reverse(d.delta_us().unsigned_abs()));
    out
}

fn print_diff(before: &FoldReport, after: &FoldReport) {
    println!();
    println!(
        "{:<28} {:>12} {:>12} {:>13} {:>7}",
        "span", "self before", "self after", "delta", "delta%"
    );
    for d in diff(before, after) {
        let percent = if d.before_us == 0 {
            "new".to_owned()
        } else {
            format!("{:+.1}%", 100.0 * d.delta_us() as f64 / d.before_us as f64)
        };
        println!(
            "{:<28} {:>9.3} ms {:>9.3} ms {:>+10.3} ms {:>7}",
            d.name,
            d.before_us as f64 / 1e3,
            d.after_us as f64 / 1e3,
            d.delta_us() as f64 / 1e3,
            percent,
        );
    }
    println!();
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("trace_report: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folds a hand-written JSONL trace against the root span `root`.
    fn folded(jsonl: &str) -> FoldReport {
        let events = trace_io::parse_jsonl(jsonl).expect("well-formed trace");
        fold::fold(&events, "root")
    }

    #[test]
    fn diff_pairs_self_times_by_span_name() {
        // root [0, 100] > work [10, 90] > gc [20, 30]: self times root 20,
        // work 70, gc 10.
        let before = folded(
            r#"{"tid":0,"seq":0,"kind":"enter","name":"root","t_us":0}
{"tid":0,"seq":1,"kind":"enter","name":"work","t_us":10}
{"tid":0,"seq":2,"kind":"enter","name":"gc","t_us":20}
{"tid":0,"seq":3,"kind":"exit","name":"gc","t_us":30}
{"tid":0,"seq":4,"kind":"exit","name":"work","t_us":90}
{"tid":0,"seq":5,"kind":"exit","name":"root","t_us":100}"#,
        );
        // gc grows to 25 µs and a new 5 µs `sample` span appears inside a
        // shorter work span: self times root 30, work 40, gc 25, sample 5.
        let after = folded(
            r#"{"tid":0,"seq":0,"kind":"enter","name":"root","t_us":0}
{"tid":0,"seq":1,"kind":"enter","name":"work","t_us":10}
{"tid":0,"seq":2,"kind":"enter","name":"gc","t_us":20}
{"tid":0,"seq":3,"kind":"exit","name":"gc","t_us":45}
{"tid":0,"seq":4,"kind":"enter","name":"sample","t_us":50}
{"tid":0,"seq":5,"kind":"exit","name":"sample","t_us":55}
{"tid":0,"seq":6,"kind":"exit","name":"work","t_us":80}
{"tid":0,"seq":7,"kind":"exit","name":"root","t_us":100}"#,
        );
        let rows: Vec<(&str, u64, u64, i64)> = diff(&before, &after)
            .iter()
            .map(|d| (d.name, d.before_us, d.after_us, d.delta_us()))
            .collect();
        assert_eq!(
            rows,
            [
                ("work", 70, 40, -30),
                ("gc", 10, 25, 15),
                ("root", 20, 30, 10),
                ("sample", 0, 5, 5),
            ]
        );
        assert!(diff(&after, &after).iter().all(|d| d.delta_us() == 0));
    }
}
