//! The unified front-end over the repository's two verification flows.
//!
//! The β-relation methodology ([`Verifier`]) and the Burch–Dill flushing
//! method (`pv-flush`'s `FlushVerifier`) answer the same question — *does the
//! pipelined netlist realise its specification?* — through very different
//! machinery: bit-level symbolic simulation over ROBDDs on one side, EUF
//! validity of a commuting diagram over an uninterpreted datapath on the
//! other. The [`VerificationFlow`] trait gives them one call shape and one
//! report shape, so a *single* stallable netlist (see
//! `Netlist::pipeline_hints`) can be pushed through both flows and the
//! verdicts compared directly:
//!
//! ```no_run
//! use pipeverify_core::{MachineSpec, VerificationFlow, Verifier};
//! use pv_proc::vsm::{self, VsmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipelined = vsm::pipelined(VsmConfig::reduced(2).stallable())?;
//! let unpipelined = vsm::unpipelined(VsmConfig::reduced(2))?;
//! let beta = Verifier::new(MachineSpec::vsm_reduced(2).with_stall_port("stall"));
//! let report = beta.verify_flow(&pipelined, &unpipelined)?;
//! assert!(report.equivalent);
//! // pv_flush::FlushVerifier::from_netlist(&pipelined)? answers through the
//! // same trait — see the `both_flows` example.
//! # Ok(())
//! # }
//! ```
//!
//! Both implementations also share their work-distribution substrate: batches
//! of independent units (simulation plans here, EUF case-split blocks in
//! `pv-flush`) run on [`crate::pool`] with the same deterministic
//! lowest-index-counterexample merge rule, so either flow's report is
//! field-by-field identical for any worker count.
//!
//! That determinism is what makes [`FlowReport`] *cacheable*: the
//! verification service (`pv-server`) serializes reports through
//! [`crate::report_io`], stores them in the content-addressed
//! [`crate::cache`] under a key that deliberately excludes the thread count,
//! and answers a warm re-run with the stored report — field-identical to
//! what a cold run would recompute (`docs/PROTOCOL.md` § "Caching").

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use pv_netlist::Netlist;

use crate::plan::run_concrete;
use crate::verify::{VerificationReport, Verifier};

/// A verification flow: anything that can check a pipelined netlist against
/// an unpipelined specification netlist and answer with the shared
/// [`FlowReport`] shape.
///
/// Implemented by the β-relation [`Verifier`] (which simulates both netlists
/// bit-level) and by `pv_flush::FlushVerifier` (which derives a term-level
/// pipeline description from the *pipelined* netlist's
/// `pv_netlist::PipelineHints` and decides the flushing commuting diagram —
/// the specification netlist is not consulted, because flushing's
/// specification is the uninterpreted single-step ISA semantics).
pub trait VerificationFlow {
    /// Short stable name of the flow (`"beta-relation"`, `"flushing"`).
    fn flow_name(&self) -> &'static str;

    /// Verifies the design pair and reports through the shared shape.
    ///
    /// # Errors
    /// Returns [`FlowError`] when the netlists do not fit the flow (missing
    /// ports, no stall input / pipeline hints, …).
    fn verify_flow(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
    ) -> Result<FlowReport, FlowError>;
}

/// How a flow (or one of its units of work) failed — the structured taxonomy
/// that lets callers distinguish "the design is wrong for this flow" from
/// "the computation ran out of resources":
///
/// * [`Invalid`](Self::Invalid) — the inputs do not fit the flow (missing
///   ports, out-of-range parameters, no pipeline hints). Deterministic and
///   not retryable.
/// * [`DeadlineExceeded`](Self::DeadlineExceeded) /
///   [`NodeBudgetExceeded`](Self::NodeBudgetExceeded) — a
///   [`pv_bdd::Budget`] bound fired at an engine safe point. The node
///   variant is deterministic for a given plan; the deadline variant is
///   typed identically but depends on the clock.
/// * [`Cancelled`](Self::Cancelled) — the cooperative cancel flag was
///   raised (a sibling hit a terminal result, or the caller gave up).
/// * [`WorkerPanicked`](Self::WorkerPanicked) — a unit of work panicked for
///   any other reason; treated as transient by the service's retry policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowErrorKind {
    /// The inputs do not fit the flow.
    Invalid,
    /// The wall-clock deadline of the attached budget passed.
    DeadlineExceeded,
    /// The allocated-node limit of the attached budget was exceeded.
    NodeBudgetExceeded,
    /// The computation was cooperatively cancelled.
    Cancelled,
    /// A worker panicked for a reason outside the budget taxonomy.
    WorkerPanicked,
}

impl FlowErrorKind {
    /// Stable lowercase wire name (`invalid`, `deadline_exceeded`,
    /// `node_budget_exceeded`, `cancelled`, `worker_panicked`).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowErrorKind::Invalid => "invalid",
            FlowErrorKind::DeadlineExceeded => "deadline_exceeded",
            FlowErrorKind::NodeBudgetExceeded => "node_budget_exceeded",
            FlowErrorKind::Cancelled => "cancelled",
            FlowErrorKind::WorkerPanicked => "worker_panicked",
        }
    }

    /// Parses a wire name back (the inverse of [`as_str`](Self::as_str)).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "invalid" => FlowErrorKind::Invalid,
            "deadline_exceeded" => FlowErrorKind::DeadlineExceeded,
            "node_budget_exceeded" => FlowErrorKind::NodeBudgetExceeded,
            "cancelled" => FlowErrorKind::Cancelled,
            "worker_panicked" => FlowErrorKind::WorkerPanicked,
            _ => return None,
        })
    }

    /// The kind a typed [`pv_bdd::BudgetExceeded`] abort maps to.
    pub fn from_budget(exceeded: pv_bdd::BudgetExceeded) -> Self {
        match exceeded {
            pv_bdd::BudgetExceeded::Deadline => FlowErrorKind::DeadlineExceeded,
            pv_bdd::BudgetExceeded::Nodes => FlowErrorKind::NodeBudgetExceeded,
            pv_bdd::BudgetExceeded::Cancelled => FlowErrorKind::Cancelled,
        }
    }

    /// Whether the service's bounded retry policy treats this failure as
    /// transient (worth re-running) rather than deterministic.
    pub fn is_transient(self) -> bool {
        matches!(self, FlowErrorKind::WorkerPanicked)
    }

    /// Classifies a caught panic payload into `(kind, message)`: the typed
    /// [`pv_bdd::BudgetExceeded`] aborts map to their budget kinds, an
    /// injected [`pv_obs::InjectedFault`] and every other payload map to
    /// [`WorkerPanicked`](Self::WorkerPanicked) with the best message
    /// available.
    pub fn classify_panic(payload: &(dyn std::any::Any + Send)) -> (Self, String) {
        if let Some(exceeded) = payload.downcast_ref::<pv_bdd::BudgetExceeded>() {
            (Self::from_budget(*exceeded), exceeded.to_string())
        } else if let Some(fault) = payload.downcast_ref::<pv_obs::InjectedFault>() {
            (FlowErrorKind::WorkerPanicked, fault.to_string())
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (FlowErrorKind::WorkerPanicked, (*s).to_owned())
        } else if let Some(s) = payload.downcast_ref::<String>() {
            (FlowErrorKind::WorkerPanicked, s.clone())
        } else {
            (
                FlowErrorKind::WorkerPanicked,
                "worker panicked with a non-string payload".to_owned(),
            )
        }
    }
}

impl fmt::Display for FlowErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A flow-agnostic verification error: which flow failed, how
/// ([`FlowErrorKind`]), and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowError {
    /// Name of the flow that failed.
    pub flow: &'static str,
    /// The failure class.
    pub kind: FlowErrorKind,
    /// Human-readable reason.
    pub message: String,
}

impl FlowError {
    /// An [`FlowErrorKind::Invalid`] error — the historical "the inputs do
    /// not fit this flow" case.
    pub fn invalid(flow: &'static str, message: impl Into<String>) -> Self {
        FlowError {
            flow,
            kind: FlowErrorKind::Invalid,
            message: message.into(),
        }
    }

    /// An error of the given kind.
    pub fn new(flow: &'static str, kind: FlowErrorKind, message: impl Into<String>) -> Self {
        FlowError {
            flow,
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            // The historical rendering for invalid inputs, which error
            // messages and tests match on.
            FlowErrorKind::Invalid => write!(f, "{} flow: {}", self.flow, self.message),
            kind => write!(f, "{} flow: {kind}: {}", self.flow, self.message),
        }
    }
}

impl std::error::Error for FlowError {}

/// One unit of work (simulation plan / case-split block) that failed — a
/// budget abort or a worker panic — while the rest of its batch completed:
/// the per-unit annotation of a gracefully-degraded [`FlowReport`], and of
/// the flow-specific reports it is rendered from. The kind is never
/// [`FlowErrorKind::Invalid`]: invalid inputs fail the whole flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnitFailure {
    /// Index of the failed unit — deterministic for any worker count.
    pub unit: usize,
    /// The failure class.
    pub kind: FlowErrorKind,
    /// Human-readable reason (the typed abort's rendering, or the panic
    /// message).
    pub message: String,
}

/// A complete, self-contained recipe for replaying a counterexample on the
/// concrete [`pv_netlist::ConcreteSim`] interpreter: every input of both
/// machines in every cycle, and the cycle/variable at which the divergence
/// was observed.
///
/// The β-relation verifier fills the recipe from the SAT witness of the
/// violated comparison (unconstrained variables take the same default —
/// `false` — the witness evaluation used, so the concrete run reproduces the
/// reported values exactly). The flushing flow works at the term level, above
/// any bit-level netlist, and reports no recipe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayRecipe {
    /// Per-cycle input rows of the pipelined implementation, from reset:
    /// `(input port, value)` pairs for every port the netlist declares.
    pub pipelined_inputs: Vec<Vec<(String, u64)>>,
    /// Per-cycle input rows of the unpipelined specification, from reset.
    pub unpipelined_inputs: Vec<Vec<(String, u64)>>,
    /// Cycle of the pipelined run at which [`variable`](Self::variable) is
    /// sampled (outputs of that cycle, before the clock edge).
    pub pipelined_sample_cycle: usize,
    /// Cycle of the unpipelined run at which the variable is sampled.
    pub unpipelined_sample_cycle: usize,
    /// The observed output on which the machines disagree.
    pub variable: String,
    /// The value the symbolic flow reported for the implementation.
    pub pipelined_value: u64,
    /// The value the symbolic flow reported for the specification.
    pub unpipelined_value: u64,
}

impl ReplayRecipe {
    /// Replays the recipe on both netlists through the concrete cycle-level
    /// interpreter and reports whether the divergence reproduces.
    ///
    /// # Panics
    /// Panics if a recorded input port does not exist on the corresponding
    /// netlist or the sampled variable is not one of its outputs — the recipe
    /// must be replayed against the same design pair it was produced from.
    pub fn replay(&self, pipelined: &Netlist, unpipelined: &Netlist) -> ReplayOutcome {
        let sample = |netlist: &Netlist, rows, cycle: usize| {
            let outputs = run_concrete(netlist, rows);
            let at = outputs
                .get(cycle)
                .expect("the sample cycle lies within the recorded input rows");
            *at.get(&self.variable).unwrap_or_else(|| {
                panic!(
                    "netlist `{}` has no output `{}`",
                    netlist.name(),
                    self.variable
                )
            })
        };
        let p = sample(
            pipelined,
            &self.pipelined_inputs,
            self.pipelined_sample_cycle,
        );
        let u = sample(
            unpipelined,
            &self.unpipelined_inputs,
            self.unpipelined_sample_cycle,
        );
        ReplayOutcome {
            variable: self.variable.clone(),
            pipelined_value: p,
            unpipelined_value: u,
            diverged: p != u,
            matches_report: p == self.pipelined_value && u == self.unpipelined_value,
        }
    }
}

/// The result of replaying a [`ReplayRecipe`] concretely.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayOutcome {
    /// The observed output that was sampled.
    pub variable: String,
    /// Its concrete value in the pipelined implementation.
    pub pipelined_value: u64,
    /// Its concrete value in the unpipelined specification.
    pub unpipelined_value: u64,
    /// `true` iff the two concrete runs disagree — a real, bit-level
    /// divergence, independent of any symbolic machinery.
    pub diverged: bool,
    /// `true` iff both concrete values equal the ones the symbolic flow
    /// reported — the counterexample reproduces *exactly*.
    pub matches_report: bool,
}

impl fmt::Display for ReplayOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "concrete replay: `{}` = {:#x} in the implementation, {:#x} in the specification ({}{})",
            self.variable,
            self.pipelined_value,
            self.unpipelined_value,
            if self.diverged { "diverged" } else { "agreed" },
            if self.matches_report { ", matching the report" } else { ", NOT matching the report" },
        )
    }
}

/// A flow-agnostic counterexample: which unit of work found it, and its
/// rendering. The flow-specific structured counterexample (instruction words
/// for the β-relation, atom assignments for flushing) stays available on the
/// flow's own report type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowCounterexample {
    /// Index of the failing unit of work (simulation plan / case-split
    /// block) — deterministic for any worker count.
    pub unit: usize,
    /// Human-readable rendering of the counterexample.
    pub description: String,
    /// A concrete replay recipe, when the flow works at the bit level (the
    /// β-relation fills this; the term-level flushing flow reports `None`).
    pub replay: Option<ReplayRecipe>,
}

/// The report shape shared by every [`VerificationFlow`]: verdict,
/// counterexample, cost statistics and a wall-time breakdown over the units
/// of work the flow distributed.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Name of the flow that produced this report.
    pub flow: &'static str,
    /// Name of the verified design (pair).
    pub design: String,
    /// `true` iff the flow found no counterexample.
    pub equivalent: bool,
    /// The first counterexample, from the lowest-indexed failing unit.
    pub counterexample: Option<FlowCounterexample>,
    /// Units of work checked (simulation plans / EUF case-split blocks) —
    /// truncated where the sequential loop would have stopped.
    pub units_checked: usize,
    /// What a unit of work is, for rendering (`"plan"`, `"case-split
    /// block"`).
    pub unit_label: &'static str,
    /// Elementary comparisons/consistency checks the flow performed
    /// (sampled-formula comparisons / congruence-closure checks).
    pub checks: usize,
    /// Size of the symbolic representation the flow built (ROBDD nodes
    /// allocated / distinct EUF terms).
    pub space: usize,
    /// What [`space`](Self::space) counts, for rendering.
    pub space_label: &'static str,
    /// Worker threads the flow ran on (1 = sequential).
    pub threads_used: usize,
    /// Total wall-clock time of the flow run (the only nondeterministic
    /// fields of the report are this and [`unit_walls`](Self::unit_walls)).
    pub wall_time: Duration,
    /// Per-unit wall-clock breakdown, in unit order, truncated like
    /// [`units_checked`](Self::units_checked).
    pub unit_walls: Vec<Duration>,
    /// Deterministic engine metrics summed over the units of work, keyed by
    /// the dotted names the `pv-obs` registry uses (`bdd.ite.cache_hit`, …).
    /// Built per unit from the flow's own counters — never from the
    /// process-global registry — so the snapshot is identical for any worker
    /// count, tracing on or off, cold or warm cache. Empty when a flow has
    /// nothing to report; [`crate::report_io`] omits the field then.
    pub metrics: BTreeMap<String, u64>,
    /// Units of work that failed for a resource reason (budget exhaustion,
    /// worker panic) while the rest of the batch completed, in unit order.
    /// Empty for a complete run; [`crate::report_io`] omits the field then.
    /// A report with unit failures is *degraded*: its verdict covers only
    /// the units that ran.
    pub unit_failures: Vec<UnitFailure>,
}

impl FlowReport {
    /// The slowest unit of work, as `(index, wall time)` — the figure any
    /// parallel speedup of the flow is bounded by.
    pub fn slowest_unit(&self) -> Option<(usize, Duration)> {
        self.unit_walls
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, w)| w)
    }

    /// Replays the counterexample's [`ReplayRecipe`] on the concrete
    /// interpreter, if the report carries one (see
    /// [`FlowCounterexample::replay`]). Returns `None` when the design pair
    /// verified or the flow works above the bit level.
    pub fn replay(&self, pipelined: &Netlist, unpipelined: &Netlist) -> Option<ReplayOutcome> {
        self.counterexample
            .as_ref()?
            .replay
            .as_ref()
            .map(|r| r.replay(pipelined, unpipelined))
    }

    /// `true` iff every unit of work completed — the verdict covers the
    /// whole sweep. `false` marks a degraded report (see
    /// [`unit_failures`](Self::unit_failures)).
    pub fn complete(&self) -> bool {
        self.unit_failures.is_empty()
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow              : {}", self.flow)?;
        writeln!(f, "design            : {}", self.design)?;
        writeln!(
            f,
            "work              : {} {}{} on {} worker thread{}",
            self.units_checked,
            self.unit_label,
            if self.units_checked == 1 { "" } else { "s" },
            self.threads_used,
            if self.threads_used == 1 { "" } else { "s" },
        )?;
        writeln!(
            f,
            "cost              : {} checks over {} {}",
            self.checks, self.space, self.space_label
        )?;
        write!(
            f,
            "wall clock        : {:.3} s total",
            self.wall_time.as_secs_f64()
        )?;
        if let Some((unit, wall)) = self.slowest_unit() {
            write!(
                f,
                ", slowest {} #{unit} at {:.3} s",
                self.unit_label,
                wall.as_secs_f64()
            )?;
        }
        writeln!(f)?;
        for failure in &self.unit_failures {
            writeln!(
                f,
                "degraded          : {} #{} {} — {}",
                self.unit_label, failure.unit, failure.kind, failure.message
            )?;
        }
        match &self.counterexample {
            None if self.complete() => writeln!(f, "verdict           : PASS (no counterexample)"),
            None => writeln!(
                f,
                "verdict           : PASS on the {} completed units ({} failed on resources)",
                self.units_checked,
                self.unit_failures.len()
            ),
            Some(cex) => writeln!(
                f,
                "verdict           : FAIL at {} #{} — {}",
                self.unit_label, cex.unit, cex.description
            ),
        }
    }
}

impl VerificationReport {
    /// Renders this β-relation report in the shared [`FlowReport`] shape
    /// (`wall_time` is the caller's measurement: the report itself only
    /// carries per-plan walls).
    pub fn to_flow_report(&self, wall_time: Duration) -> FlowReport {
        FlowReport {
            flow: "beta-relation",
            design: self.machine.clone(),
            equivalent: self.equivalent(),
            counterexample: self.counterexample.as_ref().map(|cex| FlowCounterexample {
                unit: self
                    .plan_reports
                    .last()
                    .map(|p| p.plan_index)
                    .unwrap_or_default(),
                description: cex.to_string(),
                replay: Some(cex.replay.clone()),
            }),
            units_checked: self.plans_checked,
            unit_label: "plan",
            checks: self.samples_compared,
            space: self.bdd_nodes,
            space_label: "BDD nodes",
            threads_used: self.threads_used,
            wall_time,
            unit_walls: self.plan_reports.iter().map(|p| p.wall_time).collect(),
            metrics: self.metrics.clone(),
            unit_failures: self.plan_failures.clone(),
        }
    }
}

impl VerificationFlow for Verifier {
    fn flow_name(&self) -> &'static str {
        "beta-relation"
    }

    /// Runs the default Section 5.3 plan sweep ([`Verifier::verify`]) and
    /// reports through the shared shape.
    fn verify_flow(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
    ) -> Result<FlowReport, FlowError> {
        let started = Instant::now();
        let report = self
            .verify(pipelined, unpipelined)
            .map_err(|e| FlowError::invalid(self.flow_name(), e.to_string()))?;
        Ok(report.to_flow_report(started.elapsed()))
    }
}

// Flow reports cross worker threads like the flow-specific reports do.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FlowReport>();
    assert_send_sync::<FlowCounterexample>();
    assert_send_sync::<FlowError>();
    assert_send_sync::<FlowErrorKind>();
    assert_send_sync::<UnitFailure>();
    assert_send_sync::<ReplayRecipe>();
    assert_send_sync::<ReplayOutcome>();
};
