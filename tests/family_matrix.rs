//! The cross-flow agreement matrix as a **standing property** of the repo:
//! every member of the generated processor family must PASS both
//! verification flows, and every hazard-bug-injected mutant must FAIL both —
//! with a β-relation counterexample that replays through the concrete
//! netlist interpreter to a real divergence.
//!
//! Each cell is one job, and the cells run as one `sched::run_jobs` wave on
//! every core — the path `pv batch` takes — so this test and the service
//! verify one way.
//!
//! The full 13-configuration matrix is `--release`-only (the debug build
//! keeps a two-configuration smoke subset so `cargo test` stays fast); CI
//! runs the full matrix through the `family_campaign` binary and uploads the
//! per-cell table as an artifact.

use pv_bench::matrix::{self, CellReport};
use pv_proc::family::FamilyBug;

/// Runs the given configurations' cells and panics with a rendered table on
/// the first violation, so a failure names the exact cell and verdicts.
fn assert_cells_agree(configs: &[pv_proc::family::FamilyConfig]) {
    let rows = matrix::run_campaign(configs);
    for (report, error) in &rows {
        if let Some(message) = error {
            panic!("cell {} raised a flow error: {message}", report.label());
        }
        assert!(report.ok(), "cross-flow agreement violated:\n  {report}");
    }
}

/// Debug-build smoke subset: one zero-delay-slot and one delay-slot member,
/// correct plus every applicable bug.
#[test]
fn smoke_subset_upholds_cross_flow_agreement() {
    assert_cells_agree(&matrix::smoke_configs());
}

/// The full campaign: all 13 configurations, correct plus every applicable
/// bug — the release-only standing property behind the CI matrix job.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: full 13-config matrix; debug builds run the smoke subset"
)]
fn full_matrix_upholds_cross_flow_agreement() {
    assert_cells_agree(&matrix::matrix_configs());
}

/// Shape guarantees of the matrix itself (cheap, always on): enough distinct
/// configurations, all four bug kinds exercised, and every configuration
/// carrying at least the two universally applicable bugs.
#[test]
fn matrix_covers_the_required_design_and_bug_space() {
    let configs = matrix::matrix_configs();
    assert!(
        configs.len() >= 12,
        "matrix shrank below 12 configurations ({})",
        configs.len()
    );
    let mut tags: Vec<String> = configs.iter().map(|c| c.tag()).collect();
    tags.sort();
    tags.dedup();
    assert_eq!(tags.len(), configs.len(), "duplicate configurations");

    let mut kinds: Vec<FamilyBug> = Vec::new();
    for config in &configs {
        let bugs = matrix::cell_bugs(config);
        assert!(
            bugs.len() >= 2,
            "{} exercises fewer than two bugs",
            config.tag()
        );
        for bug in bugs {
            if !kinds.contains(&bug) {
                kinds.push(bug);
            }
        }
    }
    assert_eq!(
        kinds.len(),
        FamilyBug::ALL.len(),
        "matrix exercises only {kinds:?}"
    );
}

/// The smoke subset is a genuine subset of the full matrix, so the debug
/// gate never drifts away from what CI verifies in full.
#[test]
fn smoke_subset_is_contained_in_the_full_matrix() {
    let full: Vec<String> = matrix::matrix_configs().iter().map(|c| c.tag()).collect();
    for config in matrix::smoke_configs() {
        assert!(
            full.contains(&config.tag()),
            "smoke config {} is not part of the full matrix",
            config.tag()
        );
    }
}

/// The campaign's cells are each configuration followed by its applicable
/// bugs in `FamilyBug::ALL` order, and each cell's job id is its index.
#[test]
fn cells_list_each_config_then_its_bugs_in_order() {
    let configs = matrix::smoke_configs();
    let cells = matrix::cells(&configs);
    use FamilyBug::*;
    let expected = [
        (configs[0], None),
        (configs[0], Some(WrongStallCondition)),
        (configs[0], Some(BranchTargetOffByOne)),
        (configs[1], None),
        (configs[1], Some(DropForwardPath)),
        (configs[1], Some(WrongStallCondition)),
        (configs[1], Some(BranchTargetOffByOne)),
        (configs[1], Some(LostAnnul)),
    ];
    assert_eq!(cells, expected);
    let ids: Vec<u64> = matrix::cell_jobs(&cells).iter().map(|job| job.id).collect();
    assert_eq!(ids, (0..8).collect::<Vec<u64>>());
}

/// Every cell of the full matrix is a design the family can elaborate.
#[test]
fn every_matrix_cell_is_a_valid_design() {
    for (config, bug) in matrix::cells(&matrix::matrix_configs()) {
        let design = bug.map_or(config, |bug| config.with_bug(bug));
        assert_eq!(design.validate(), Ok(()), "{}", design.tag());
    }
}

/// A violated cell renders as a violation (guards the harness itself): a
/// fabricated report claiming a bug passed both flows must not be `ok`.
#[test]
fn harness_flags_disagreement() {
    let config = matrix::smoke_configs()[0];
    let lying = CellReport {
        config,
        bug: Some(FamilyBug::WrongStallCondition),
        beta_equivalent: true,
        flush_equivalent: true,
        replay: None,
        beta_wall: std::time::Duration::ZERO,
        flush_wall: std::time::Duration::ZERO,
    };
    assert!(!lying.ok());
    assert!(lying.to_string().contains("VIOLATION"));
}
