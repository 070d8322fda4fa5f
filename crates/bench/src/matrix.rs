//! The family **cross-flow agreement matrix**: every generated processor
//! configuration × every applicable injected hazard bug, each cell pushed
//! through *both* verification flows.
//!
//! The standing property the matrix checks (see `tests/family_matrix.rs` at
//! the workspace root and the `family_campaign` binary):
//!
//! * a **correct** design must PASS the β-relation flow *and* the flushing
//!   flow;
//! * a **bug-injected** design must FAIL both flows, each with a
//!   counterexample — and the β-relation counterexample must replay through
//!   the concrete netlist interpreter to a *real* divergence that reproduces
//!   the reported values exactly.
//!
//! Disagreement in either direction is a defect: a flow that accepts a
//! seeded bug has a soundness hole, a flow that rejects a correct design has
//! a completeness hole, and a counterexample that does not replay concretely
//! is an artefact of the symbolic machinery rather than a real divergence.
//!
//! Each cell is one `pv batch` job ([`cell_jobs`]), and the campaign runs
//! them as one wave through [`sched::run_jobs`] on every core (no cache) —
//! the path `pv batch` takes — so it exercises the service's own
//! elaboration, validation, scheduling and flow dispatch, and the
//! `PV_DEADLINE_MS`/`PV_NODE_BUDGET` defaults govern it as they govern the
//! service.

use std::fmt;
use std::time::Duration;

use pipeverify_core::{pool, ReplayOutcome};
use pv_proc::family::{FamilyBug, FamilyConfig};
use pv_server::protocol::{DesignSpec, FlowKind, JobRequest, PlanSet};
use pv_server::sched::{self, JobOutcome};
use pv_server::{job, JobRunner};

/// The campaign's configuration axis: thirteen stallable family members
/// spanning depths 2–8, two word widths, two register-file sizes and both
/// delay-slot disciplines.
pub fn matrix_configs() -> Vec<FamilyConfig> {
    let mut configs = Vec::new();
    // Zero delay slots: branches resolve at fetch.
    for (depth, w, regs) in [
        (2, 4, 2),
        (3, 4, 2),
        (4, 4, 2),
        (5, 3, 2),
        (6, 3, 2),
        (3, 4, 4),
    ] {
        configs.push(FamilyConfig::new(depth, w, regs, 0).stallable());
    }
    // One delay slot: branches resolve in execute and annul the next slot.
    for (depth, w, regs) in [
        (2, 4, 2),
        (3, 4, 2),
        (4, 4, 2),
        (5, 3, 2),
        (6, 3, 2),
        (4, 4, 4),
        (8, 3, 2),
    ] {
        configs.push(FamilyConfig::new(depth, w, regs, 1).stallable());
    }
    configs
}

/// The small always-on subset of the matrix that runs in every debug
/// `cargo test` (the full matrix rides `--release`-only).
pub fn smoke_configs() -> Vec<FamilyConfig> {
    vec![
        FamilyConfig::new(2, 4, 2, 0).stallable(),
        FamilyConfig::new(3, 4, 2, 1).stallable(),
    ]
}

/// The bug axis of one configuration: every injectable bug that applies to
/// it (see [`FamilyBug::applies_to`]).
pub fn cell_bugs(config: &FamilyConfig) -> Vec<FamilyBug> {
    FamilyBug::ALL
        .into_iter()
        .filter(|bug| bug.applies_to(config))
        .collect()
}

/// The outcome of one matrix cell: a `(configuration, optional bug)` pair
/// pushed through both flows.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The (correct) base configuration of the cell.
    pub config: FamilyConfig,
    /// The injected bug (`None` for the correct-design cell).
    pub bug: Option<FamilyBug>,
    /// Verdict of the β-relation flow (`true` = no counterexample).
    pub beta_equivalent: bool,
    /// Verdict of the flushing flow.
    pub flush_equivalent: bool,
    /// The β-relation counterexample's concrete replay, when one was found.
    pub replay: Option<ReplayOutcome>,
    /// Wall time of the β-relation flow.
    pub beta_wall: Duration,
    /// Wall time of the flushing flow.
    pub flush_wall: Duration,
}

impl CellReport {
    /// Whether this cell upholds the standing cross-flow agreement property:
    /// correct designs pass both flows; injected bugs fail both flows *and*
    /// the β counterexample replays to a real divergence with exactly the
    /// reported values.
    pub fn ok(&self) -> bool {
        match self.bug {
            None => self.beta_equivalent && self.flush_equivalent,
            Some(_) => {
                !self.beta_equivalent
                    && !self.flush_equivalent
                    && self
                        .replay
                        .as_ref()
                        .is_some_and(|r| r.diverged && r.matches_report)
            }
        }
    }

    /// The cell's label: the configuration tag, with the injected bug baked
    /// in when there is one.
    pub fn label(&self) -> String {
        match self.bug {
            Some(bug) => self.config.with_bug(bug).tag(),
            None => self.config.tag(),
        }
    }
}

impl fmt::Display for CellReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = |equivalent: bool| if equivalent { "PASS" } else { "FAIL" };
        let replay = match (&self.bug, &self.replay) {
            (None, _) => "-",
            (Some(_), Some(r)) if r.diverged && r.matches_report => "replayed",
            (Some(_), Some(_)) => "REPLAY-MISMATCH",
            (Some(_), None) => "NO-REPLAY",
        };
        write!(
            f,
            "{:<24} beta={} ({:>7.3}s)  flushing={} ({:>7.3}s)  replay={:<15} {}",
            self.label(),
            verdict(self.beta_equivalent),
            self.beta_wall.as_secs_f64(),
            verdict(self.flush_equivalent),
            self.flush_wall.as_secs_f64(),
            replay,
            if self.ok() { "ok" } else { "** VIOLATION **" },
        )
    }
}

/// The matrix cells of `configs`, in campaign order: each configuration's
/// correct cell, then one cell per applicable bug in [`FamilyBug::ALL`]
/// order.
pub fn cells(configs: &[FamilyConfig]) -> Vec<(FamilyConfig, Option<FamilyBug>)> {
    configs
        .iter()
        .flat_map(|&config| {
            let bugs = cell_bugs(&config).into_iter().map(Some);
            std::iter::once(None)
                .chain(bugs)
                .map(move |bug| (config, bug))
        })
        .collect()
}

/// One `pv batch` job per cell, with the cell's index as its id: the
/// (possibly bug-injected) design through both flows with the default plan
/// sweep and no budget of its own.
pub fn cell_jobs(cells: &[(FamilyConfig, Option<FamilyBug>)]) -> Vec<JobRequest> {
    cells
        .iter()
        .enumerate()
        .map(|(id, &(config, bug))| JobRequest {
            id: id as u64,
            design: DesignSpec::Family(bug.map_or(config, |bug| config.with_bug(bug))),
            flows: vec![FlowKind::Beta, FlowKind::Flushing],
            plans: PlanSet::Default,
            deadline_ms: None,
            node_budget: None,
        })
        .collect()
}

/// Runs the whole campaign over `configs`: the [`cells`] as one
/// [`sched::run_jobs`] wave on every core, then a concrete replay of each β
/// counterexample on the netlists [`job::elaborate`] builds for its job.
/// Rows come back in [`cells`] order for any worker count. A job error (a
/// flow rejects the generated pair, or a budget starves a flow) is folded
/// into a failing row (`beta_equivalent`/`flush_equivalent` both `false`,
/// no replay) with the error text alongside, so the campaign always produces
/// a full table — and counts the cell as a violation, since every generated
/// design must be *verifiable*.
pub fn run_campaign(configs: &[FamilyConfig]) -> Vec<(CellReport, Option<String>)> {
    let cells = cells(configs);
    let jobs = cell_jobs(&cells);
    let outcomes = sched::run_jobs(
        &JobRunner::new(None),
        &jobs,
        pool::default_threads(),
        |_, _| {},
    );
    cells
        .into_iter()
        .zip(&jobs)
        .zip(outcomes)
        .map(
            |(((config, bug), job), outcome)| match cell_report(config, bug, job, outcome) {
                Ok(report) => (report, None),
                Err(message) => {
                    let report = CellReport {
                        config,
                        bug,
                        beta_equivalent: false,
                        flush_equivalent: false,
                        replay: None,
                        beta_wall: Duration::ZERO,
                        flush_wall: Duration::ZERO,
                    };
                    (report, Some(message))
                }
            },
        )
        .collect()
}

/// One cell's row from its job's outcome: the two verdicts and walls, and
/// the β counterexample's replay on [`job::elaborate`]'s netlists.
fn cell_report(
    config: FamilyConfig,
    bug: Option<FamilyBug>,
    job: &JobRequest,
    outcome: JobOutcome,
) -> Result<CellReport, String> {
    let response = outcome.map_err(|e| e.to_string())?;
    let beta = &response.results[0].report;
    let flushing = &response.results[1].report;
    let replay = if beta.counterexample.is_some() {
        let (pipelined, unpipelined, _) = job::elaborate(&job.design)?;
        beta.replay(&pipelined, &unpipelined)
    } else {
        None
    };
    Ok(CellReport {
        config,
        bug,
        beta_equivalent: beta.equivalent,
        flush_equivalent: flushing.equivalent,
        replay,
        beta_wall: beta.wall_time,
        flush_wall: flushing.wall_time,
    })
}
