//! The **family campaign driver**: runs the full generated-processor ×
//! injected-bug matrix through both verification flows and prints a per-cell
//! PASS/FAIL table.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pv-bench --bin family_campaign [-- <summary-path>]
//! ```
//!
//! The summary table is also written to `<summary-path>` (default
//! `family-campaign.txt`) so CI can upload it as an artifact. The process
//! exits nonzero if any cell violates the cross-flow agreement property:
//! a correct design failing either flow, an injected bug slipping past
//! either flow, or a β counterexample that does not replay concretely.

use std::fmt::Write as _;
use std::time::Instant;

use pv_bench::matrix::{self, CellReport};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "family-campaign.txt".to_owned());

    let configs = matrix::matrix_configs();
    let started = Instant::now();
    let rows = matrix::run_campaign(&configs);
    let wall = started.elapsed();

    let mut table = String::new();
    let mut violations = 0usize;
    for (report, error) in &rows {
        let _ = writeln!(table, "{report}");
        if let Some(message) = error {
            let _ = writeln!(table, "    flow error: {message}");
        }
        if !report.ok() {
            violations += 1;
        }
    }
    let correct = rows.iter().filter(|(r, _)| r.bug.is_none()).count();
    let buggy = rows.len() - correct;
    let _ = writeln!(
        table,
        "\n{} configs, {} cells ({} correct + {} bug-injected), {} violation(s), {:.1} s wall",
        configs.len(),
        rows.len(),
        correct,
        buggy,
        violations,
        wall.as_secs_f64(),
    );
    let _ = writeln!(table, "{}", bug_legend(&rows));

    print!("{table}");
    if let Err(e) = std::fs::write(&out_path, &table) {
        eprintln!("failed to write summary to {out_path}: {e}");
        std::process::exit(2);
    }
    println!("summary written to {out_path}");
    if violations > 0 {
        eprintln!("{violations} matrix cell(s) violate cross-flow agreement");
        std::process::exit(1);
    }
}

/// One line per bug kind that actually appears in the table, with the
/// injector's own record of what it broke.
fn bug_legend(rows: &[(CellReport, Option<String>)]) -> String {
    let mut legend = String::from("injected bugs:");
    let mut seen = Vec::new();
    for (report, _) in rows {
        if let Some(bug) = report.bug {
            if !seen.contains(&bug) {
                seen.push(bug);
                let _ = write!(legend, "\n  {:?}: {}", bug, bug.description());
            }
        }
    }
    legend
}
