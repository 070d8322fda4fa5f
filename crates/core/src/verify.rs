//! The verification algorithm of Figure 8: symbolic simulation of both
//! machines, output filtering, and ROBDD comparison of the sampled
//! observed-variable formulae.
//!
//! Checking one [`SimulationPlan`] is a pure, self-contained unit of work —
//! it builds its own [`BddManager`], simulates both machines, compares the
//! sampled formulae and returns a [`PlanReport`]. Nothing is shared between
//! two plan checks except the read-only inputs, so a batch of plans
//! ([`Verifier::verify_plans`]) runs on the scoped worker pool of
//! [`crate::pool`] and merges the per-plan reports deterministically: stats
//! are summed in plan order and the counterexample (if any) is taken from the
//! lowest-indexed failing plan, so the parallel report is bit-identical to
//! the sequential one.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use pv_bdd::{Bdd, BddManager, BddVec, Budget, Var};
use pv_netlist::{Netlist, SymbolicSim};

use crate::flow::FlowErrorKind;
use crate::plan::{CycleInput, SimulationPlan, SimulationSchedule, Slot};
use crate::pool;
use crate::spec::MachineSpec;

/// Errors detected before or during verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// A netlist is missing a port the specification requires.
    MissingPort {
        /// Name of the offending netlist.
        netlist: String,
        /// The missing port name.
        port: String,
    },
    /// A netlist has an input port the verifier does not know how to drive.
    UnexpectedInput {
        /// Name of the offending netlist.
        netlist: String,
        /// The unexpected input port.
        port: String,
    },
    /// An observed variable has different widths in the two machines.
    WidthMismatch {
        /// The observed variable.
        name: String,
        /// Width in the pipelined implementation.
        pipelined: usize,
        /// Width in the unpipelined specification.
        unpipelined: usize,
    },
    /// The simulation plan contains no instruction slots.
    EmptyPlan,
    /// The plan contains an interrupt slot but the specification names no
    /// interrupt port.
    InterruptWithoutIrqPort,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MissingPort { netlist, port } => {
                write!(f, "netlist `{netlist}` has no port `{port}`")
            }
            VerifyError::UnexpectedInput { netlist, port } => {
                write!(f, "netlist `{netlist}` has an input `{port}` the verifier cannot drive")
            }
            VerifyError::WidthMismatch { name, pipelined, unpipelined } => write!(
                f,
                "observed variable `{name}` is {pipelined} bits in the implementation but {unpipelined} bits in the specification"
            ),
            VerifyError::EmptyPlan => write!(f, "the simulation plan contains no instruction slots"),
            VerifyError::InterruptWithoutIrqPort => {
                write!(f, "the plan contains an interrupt slot but the specification has no irq port")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// A concrete instruction sequence on which the implementation and the
/// specification disagree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// The plan whose slots are instantiated by this counterexample.
    pub plan: SimulationPlan,
    /// One concrete instruction word per instruction slot.
    pub slot_instructions: Vec<u64>,
    /// 0-based instruction slot after which the mismatch is observed.
    pub slot: usize,
    /// The observed variable that differs.
    pub variable: String,
    /// Its value in the pipelined implementation.
    pub pipelined_value: u64,
    /// Its value in the unpipelined specification.
    pub unpipelined_value: u64,
    /// A complete concrete input schedule reproducing the divergence on
    /// [`pv_netlist::ConcreteSim`] (see [`crate::ReplayRecipe::replay`]).
    pub replay: crate::ReplayRecipe,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "after instruction slot {} of {:x?}, `{}` = {:#x} in the implementation but {:#x} in the specification",
            self.slot, self.slot_instructions, self.variable, self.pipelined_value, self.unpipelined_value
        )
    }
}

/// Outcome and cost statistics of checking a **single** simulation plan in
/// its own freshly-built BDD manager — the unit of work the worker pool
/// distributes. Everything except [`wall_time`](Self::wall_time) is a pure
/// function of `(MachineSpec, pipelined, unpipelined, plan)`.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// The plan this report describes.
    pub plan: SimulationPlan,
    /// Position of the plan in the batch handed to
    /// [`Verifier::verify_plans`] (0 for a single-plan check).
    pub plan_index: usize,
    /// Number of (slot, observed-variable) formula pairs compared.
    pub samples_compared: usize,
    /// Symbolic-simulation cycles of the pipelined implementation.
    pub pipelined_cycles: usize,
    /// Symbolic-simulation cycles of the unpipelined specification.
    pub unpipelined_cycles: usize,
    /// Total ROBDD nodes created (monotone across garbage collections).
    pub bdd_nodes: usize,
    /// Largest number of simultaneously live ROBDD nodes in this plan's
    /// manager.
    pub bdd_peak_live: usize,
    /// BDD variables allocated.
    pub bdd_vars: usize,
    /// The output filtering functions (pipelined, unpipelined) — the
    /// `1 0 0 0 1 …` strings of Section 6.2.
    pub filters: (String, String),
    /// The first counterexample found in this plan, if any.
    pub counterexample: Option<Counterexample>,
    /// Wall-clock time this plan check took (simulation of both machines plus
    /// the comparison). The only field that is not deterministic.
    pub wall_time: Duration,
    /// Deterministic engine metrics of this plan's manager, keyed by the same
    /// dotted names the `pv-obs` registry uses (`bdd.ite.cache_hit`, …).
    /// Built from [`pv_bdd::BddStats`] — a pure function of the inputs, never
    /// a process-global snapshot — so the field survives caching, thread-count
    /// changes and tracing on/off without perturbing report identity.
    pub metrics: BTreeMap<String, u64>,
}

impl PlanReport {
    /// `true` iff this plan produced no counterexample.
    pub fn equivalent(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// A plan that could not be checked: its worker aborted on a resource
/// budget (deadline, node limit, cancellation) or panicked. Failed plans
/// contribute **zero** statistics to the merged report — the outcome is a
/// pure function of the budget decision, not of how far the worker got —
/// so a degraded report stays field-identical at any thread count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanFailure {
    /// Position of the plan in the batch handed to
    /// [`Verifier::verify_plans`].
    pub plan_index: usize,
    /// The plan that failed.
    pub plan: SimulationPlan,
    /// Why the plan failed (never [`FlowErrorKind::Invalid`] — invalid
    /// inputs are [`VerifyError`]s, not failures).
    pub kind: FlowErrorKind,
    /// Human-readable detail (the budget that tripped, or the panic
    /// message).
    pub message: String,
}

impl fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan #{} {}: {}",
            self.plan_index, self.kind, self.message
        )
    }
}

/// Outcome and cost statistics of a verification run.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// Name of the design pair.
    pub machine: String,
    /// Number of simulation plans checked.
    pub plans_checked: usize,
    /// Number of (slot, observed-variable) formula pairs compared.
    pub samples_compared: usize,
    /// Total symbolic-simulation cycles of the pipelined implementation.
    pub pipelined_cycles: usize,
    /// Total symbolic-simulation cycles of the unpipelined specification.
    pub unpipelined_cycles: usize,
    /// Total ROBDD nodes created across all plans (monotone across garbage
    /// collections: reclaimed-and-recreated nodes count again).
    pub bdd_nodes: usize,
    /// Largest number of simultaneously **live** ROBDD nodes in any plan's
    /// manager — the figure bounded by the per-cycle garbage collections.
    pub bdd_peak_live: usize,
    /// Total BDD variables allocated across all plans.
    pub bdd_vars: usize,
    /// The output filtering functions of the last plan checked
    /// (pipelined, unpipelined) — the `1 0 0 0 1 …` strings of Section 6.2.
    pub filters: (String, String),
    /// The first counterexample found, if any. "First" means the one from the
    /// lowest-indexed failing plan — identical to what the sequential loop
    /// finds, regardless of the worker count.
    pub counterexample: Option<Counterexample>,
    /// Worker threads the batch ran on (1 = the sequential path).
    pub threads_used: usize,
    /// Per-plan breakdown, in plan order, truncated exactly where the
    /// sequential loop would have stopped (after the first failing plan).
    /// The per-plan [`wall_time`](PlanReport::wall_time) exposes the parallel
    /// speedup and the slowest plan directly.
    pub plan_reports: Vec<PlanReport>,
    /// Per-plan [`PlanReport::metrics`] summed key-wise in plan order —
    /// summation commutes, so the parallel merge stays field-identical to the
    /// sequential one.
    pub metrics: BTreeMap<String, u64>,
    /// Plans that could not be checked (budget aborts, worker panics), in
    /// plan order. A non-empty list marks the report **degraded**: every
    /// listed plan contributed zero statistics, and
    /// [`equivalent`](Self::equivalent) speaks only for the plans that
    /// completed — see [`complete`](Self::complete).
    pub plan_failures: Vec<PlanFailure>,
}

impl VerificationReport {
    /// `true` iff no counterexample was found: the β-relation holds on every
    /// checked plan.
    pub fn equivalent(&self) -> bool {
        self.counterexample.is_none()
    }

    /// `true` iff every plan in the batch actually completed — no budget
    /// aborts, no worker panics. A verdict of
    /// [`equivalent`](Self::equivalent) is only exhaustive when the report
    /// is also complete.
    pub fn complete(&self) -> bool {
        self.plan_failures.is_empty()
    }

    /// Deterministically merges per-plan reports (which must be the
    /// *sequential prefix*: in plan order, with only the last one allowed to
    /// carry a counterexample) into a batch report. Stats are summed in plan
    /// order, the peak-live figure is the maximum over the plans, the filters
    /// are those of the last plan checked, and the counterexample — if any —
    /// comes from the lowest-indexed failing plan, so the merged report is
    /// field-by-field identical to what the sequential loop produces.
    /// `plan_failures` lists the plans (inside the same prefix) whose
    /// workers aborted on a budget or panicked; they contribute nothing to
    /// the summed statistics and `plans_checked` counts only completions.
    pub fn merge(
        machine: String,
        threads_used: usize,
        plan_reports: Vec<PlanReport>,
        plan_failures: Vec<PlanFailure>,
    ) -> Self {
        let mut report = VerificationReport {
            machine,
            plans_checked: plan_reports.len(),
            samples_compared: 0,
            pipelined_cycles: 0,
            unpipelined_cycles: 0,
            bdd_nodes: 0,
            bdd_peak_live: 0,
            bdd_vars: 0,
            filters: (String::new(), String::new()),
            counterexample: None,
            threads_used,
            plan_reports: Vec::new(),
            metrics: BTreeMap::new(),
            plan_failures,
        };
        for plan in &plan_reports {
            debug_assert!(
                report.counterexample.is_none(),
                "only the last merged plan may carry a counterexample"
            );
            report.samples_compared += plan.samples_compared;
            report.pipelined_cycles += plan.pipelined_cycles;
            report.unpipelined_cycles += plan.unpipelined_cycles;
            report.bdd_nodes += plan.bdd_nodes;
            report.bdd_peak_live = report.bdd_peak_live.max(plan.bdd_peak_live);
            report.bdd_vars += plan.bdd_vars;
            report.filters = plan.filters.clone();
            report.counterexample = plan.counterexample.clone();
            for (key, value) in &plan.metrics {
                *report.metrics.entry(key.clone()).or_insert(0) += value;
            }
        }
        report.plan_reports = plan_reports;
        report
    }

    /// The slowest plan of the batch, by wall-clock time — on the Alpha0
    /// control-transfer sweep this is the slot-4 plan, the figure the
    /// parallel speedup is bounded by.
    pub fn slowest_plan(&self) -> Option<&PlanReport> {
        self.plan_reports.iter().max_by_key(|p| p.wall_time)
    }

    /// Sum of the per-plan wall-clock times. On a `threads = 1` run this is
    /// the sequential cost of the batch; on a parallel run each plan's wall
    /// time is measured inside its worker and therefore includes any time the
    /// worker spent preempted, so the sum over wall clock is a *concurrency*
    /// figure — for a true speedup, A/B two runs (as the `alpha0_sweep_par`
    /// perf-smoke case does).
    pub fn plan_wall_total(&self) -> Duration {
        self.plan_reports.iter().map(|p| p.wall_time).sum()
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design pair       : {}", self.machine)?;
        writeln!(
            f,
            "plans checked     : {} (on {} worker thread{})",
            self.plans_checked,
            self.threads_used,
            if self.threads_used == 1 { "" } else { "s" }
        )?;
        writeln!(f, "formulae compared : {}", self.samples_compared)?;
        writeln!(
            f,
            "simulation cycles : {} (pipelined) / {} (unpipelined)",
            self.pipelined_cycles, self.unpipelined_cycles
        )?;
        writeln!(
            f,
            "BDD nodes / vars  : {} / {} (peak live {})",
            self.bdd_nodes, self.bdd_vars, self.bdd_peak_live
        )?;
        if let Some(slowest) = self.slowest_plan() {
            writeln!(
                f,
                "plan wall clock   : {:.3} s summed, slowest plan #{} at {:.3} s",
                self.plan_wall_total().as_secs_f64(),
                slowest.plan_index,
                slowest.wall_time.as_secs_f64()
            )?;
        }
        writeln!(f, "PIPELINED filter  : {}", self.filters.0)?;
        writeln!(f, "UNPIPELINED filter: {}", self.filters.1)?;
        for failure in &self.plan_failures {
            writeln!(f, "degraded          : {failure}")?;
        }
        match (&self.counterexample, self.complete()) {
            (None, true) => writeln!(f, "result            : EQUIVALENT (β-relation holds)"),
            (None, false) => writeln!(
                f,
                "result            : EQUIVALENT on {} completed plan(s) — {} plan(s) not checked",
                self.plans_checked,
                self.plan_failures.len()
            ),
            (Some(cex), _) => writeln!(f, "result            : NOT EQUIVALENT — {cex}"),
        }
    }
}

/// The verification engine: symbolic simulation of the implementation and the
/// specification, β-relation filtering and ROBDD comparison (Figure 8).
#[derive(Clone, Debug)]
pub struct Verifier {
    spec: MachineSpec,
    threads: Option<usize>,
    budget: Option<Budget>,
}

// Plan checks run on pool workers holding `&Verifier` and `&Netlist`; keep
// everything a worker touches `Send + Sync` (all of it is plain owned data —
// the `BddManager` each check builds is owned by its worker, and
// `MachineSpec`'s class constraints are plain `fn` pointers).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Verifier>();
    assert_send_sync::<MachineSpec>();
    assert_send_sync::<SimulationPlan>();
    assert_send_sync::<Netlist>();
    assert_send_sync::<PlanReport>();
    assert_send_sync::<VerificationReport>();
    assert_send_sync::<Counterexample>();
    assert_send_sync::<VerifyError>();
    assert_send_sync::<PlanFailure>();
};

impl Verifier {
    /// Creates a verifier for a design pair with the given properties.
    /// The worker count defaults to the `PV_THREADS` environment variable
    /// (see [`with_threads`](Self::with_threads)).
    pub fn new(spec: MachineSpec) -> Self {
        Verifier {
            spec,
            threads: None,
            budget: None,
        }
    }

    /// Sets the worker count used by [`verify_plans`](Self::verify_plans)
    /// (and everything built on it): `1` runs the plans sequentially on the
    /// calling thread — exactly the pre-pool code path — and `0` restores the
    /// default, which is the `PV_THREADS` environment variable when set to a
    /// positive integer and the machine's available parallelism otherwise.
    ///
    /// The worker count never changes the report: plans are merged in plan
    /// order with the counterexample taken from the lowest-indexed failing
    /// plan (see [`VerificationReport::merge`]), so any thread count produces
    /// a field-by-field identical report (modulo the wall-time fields and
    /// [`VerificationReport::threads_used`] itself).
    ///
    /// **Memory:** every in-flight plan owns a full `BddManager`, so peak
    /// residency is up to `threads ×` the largest single plan's peak-live
    /// footprint (the Alpha0 slot-4 plan alone peaks at ~3.6 M live nodes).
    /// On a machine that runs a big sweep near its memory ceiling, set
    /// `PV_THREADS` (or this knob) below the core count — `1` restores the
    /// sequential footprint exactly.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Attaches a resource [`Budget`] — wall-clock deadline, total-node
    /// limit, cooperative cancel flag — governing every plan this verifier
    /// checks. Each plan's manager observes a [`Budget::child`] of it at the
    /// engine's safe points (per simulation cycle, and every ~1024 ITE or
    /// constrain cache misses), so a trip aborts the plan within a bounded
    /// overshoot.
    ///
    /// A tripped plan does **not** fail the batch: it is recorded as a
    /// [`PlanFailure`] with zero statistics and the remaining plans still
    /// run, so the merged report is *degraded*, not absent — and because the
    /// node limit gates on the monotone allocation total, a budget-aborted
    /// plan yields the same typed outcome at any thread count.
    ///
    /// The budget is shared, not split: `n` parallel plans each see the full
    /// node limit. Cancelling the handle (from any thread) stops all
    /// in-flight plans at their next safe point.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The resource budget attached via [`with_budget`](Self::with_budget),
    /// if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// The resolved worker count for an unbounded batch: the explicit
    /// [`with_threads`](Self::with_threads) setting if any, otherwise
    /// [`pool::default_threads`] (`PV_THREADS` / available parallelism).
    /// A batch of `n` plans uses at most `n` of them.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(pool::default_threads).max(1)
    }

    /// The machine specification this verifier uses.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The default plan sweep of Section 5.3: one all-ordinary-instruction
    /// plan plus, for each of the `k` slots, a plan with the control-transfer
    /// class in that slot (so every control-transfer position is exercised
    /// without simulating all combinations).
    pub fn default_plans(&self) -> Vec<SimulationPlan> {
        let k = self.spec.k;
        let mut plans = vec![SimulationPlan::all_normal(k)];
        plans.extend((0..k).map(|x| SimulationPlan::with_control_at(k, x)));
        plans
    }

    /// Verifies the implementation against the specification over the default
    /// plan sweep.
    ///
    /// # Errors
    /// Returns [`VerifyError`] if the netlists do not expose the ports and
    /// observed variables named in the [`MachineSpec`].
    pub fn verify(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
    ) -> Result<VerificationReport, VerifyError> {
        self.verify_plans(pipelined, unpipelined, &self.default_plans())
    }

    /// Verifies a single simulation plan.
    ///
    /// # Errors
    /// See [`Verifier::verify`].
    pub fn verify_plan(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plan: &SimulationPlan,
    ) -> Result<VerificationReport, VerifyError> {
        self.verify_plans(pipelined, unpipelined, std::slice::from_ref(plan))
    }

    /// Checks one plan as a pure, self-contained unit of work: builds a fresh
    /// [`BddManager`], simulates both machines under the plan, compares the
    /// sampled formulae and returns the per-plan report. This is the function
    /// the worker pool fans out.
    ///
    /// # Errors
    /// See [`Verifier::verify`].
    pub fn check_plan(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plan: &SimulationPlan,
    ) -> Result<PlanReport, VerifyError> {
        self.validate(pipelined)?;
        self.validate(unpipelined)?;
        let budget = self.budget.as_ref().map(Budget::child);
        let instr_order = self.instr_order(pipelined);
        self.check_plan_indexed(
            pipelined,
            unpipelined,
            plan,
            0,
            budget,
            instr_order.as_deref(),
        )
    }

    /// Verifies a sequence of plans, stopping at the first counterexample.
    ///
    /// With a worker count above 1 (see [`with_threads`](Self::with_threads)
    /// and the `PV_THREADS` default) the plans are checked concurrently, one
    /// freshly-built BDD manager per plan, and the per-plan reports are
    /// merged in plan order — the resulting report is identical to the
    /// sequential one, including which counterexample is reported and where
    /// the batch stops counting (nothing past the first failing plan is
    /// merged, even if a racing worker had already checked it).
    ///
    /// # Errors
    /// See [`Verifier::verify`].
    pub fn verify_plans(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plans: &[SimulationPlan],
    ) -> Result<VerificationReport, VerifyError> {
        self.validate(pipelined)?;
        self.validate(unpipelined)?;
        let threads = self.threads().min(plans.len().max(1));
        let instr_order = self.instr_order(pipelined);
        // One budget child per plan, created up front: every plan shares the
        // batch's deadline and node limit but carries its own cancel flag, so
        // a terminal cutoff can stop exactly the in-flight plans the
        // sequential loop would never have reached (the ones *past* the
        // cutoff — lower-indexed siblings must finish for prefix identity).
        let children: Vec<Option<Budget>> = plans
            .iter()
            .map(|_| self.budget.as_ref().map(Budget::child))
            .collect();
        let results = pool::par_map_prefix_caught(
            threads,
            plans,
            |cutoff| {
                for child in children.iter().skip(cutoff + 1).flatten() {
                    child.cancel();
                }
            },
            |index, plan| {
                let budget = children[index].clone();
                let result = self.check_plan_indexed(
                    pipelined,
                    unpipelined,
                    plan,
                    index,
                    budget,
                    instr_order.as_deref(),
                );
                let terminal = match &result {
                    Err(_) => true,
                    Ok(report) => report.counterexample.is_some(),
                };
                (result, terminal)
            },
        );
        // Consume the sequential prefix: everything up to (and including) the
        // first failing plan, exactly as the sequential loop would have. A
        // unit that unwound — budget trip or panic — is *non-terminal*: it is
        // recorded as a typed `PlanFailure` with zero statistics and the scan
        // continues, so one exploding plan degrades the report instead of
        // sinking the batch.
        let mut prefix: Vec<PlanReport> = Vec::with_capacity(plans.len());
        let mut failures: Vec<PlanFailure> = Vec::new();
        for (index, slot) in results.into_iter().enumerate() {
            match slot {
                // Past the lowest terminal index: the sequential loop would
                // never have reached this plan.
                None => break,
                Some(Ok(Err(e))) => return Err(e),
                Some(Ok(Ok(plan_report))) => {
                    let stop = plan_report.counterexample.is_some();
                    prefix.push(plan_report);
                    if stop {
                        break;
                    }
                }
                Some(Err(panic)) => {
                    let (kind, message) = FlowErrorKind::classify_panic(panic.payload_ref());
                    failures.push(PlanFailure {
                        plan_index: index,
                        plan: plans[index].clone(),
                        kind,
                        message,
                    });
                }
            }
        }
        Ok(VerificationReport::merge(
            self.spec.name.clone(),
            threads,
            prefix,
            failures,
        ))
    }

    fn validate(&self, netlist: &Netlist) -> Result<(), VerifyError> {
        let spec = &self.spec;
        let known: Vec<&str> = [
            Some(spec.instr_port.as_str()),
            Some(spec.reset_port.as_str()),
            spec.irq_port.as_deref(),
            spec.stall_port.as_deref(),
        ]
        .into_iter()
        .flatten()
        .collect();
        for required in [&spec.instr_port, &spec.reset_port] {
            if netlist.input_width(required).is_none() {
                return Err(VerifyError::MissingPort {
                    netlist: netlist.name().to_owned(),
                    port: required.clone(),
                });
            }
        }
        for port in netlist.inputs() {
            if !known.contains(&port.name.as_str()) {
                return Err(VerifyError::UnexpectedInput {
                    netlist: netlist.name().to_owned(),
                    port: port.name.clone(),
                });
            }
        }
        for observed in &spec.observed {
            if netlist.output_width(observed).is_none() {
                return Err(VerifyError::MissingPort {
                    netlist: netlist.name().to_owned(),
                    port: observed.clone(),
                });
            }
        }
        Ok(())
    }

    /// The FORCE-derived static order of the instruction bits
    /// (`pv_netlist::order`), computed from the pipelined netlist's
    /// connectivity: `order[k]` is the instruction bit that receives a slot
    /// block's k-th (topmost-first) variable, so decode-selector bits branch
    /// before operand fields. On ISAs that put the opcode in the high bits,
    /// declaration (LSB-first) order would allocate those selector bits last.
    /// The order only changes variable levels, never what is verified. `None`
    /// when FORCE does not order the whole instruction port. Plan-independent,
    /// so computed once per batch.
    fn instr_order(&self, pipelined: &Netlist) -> Option<Vec<usize>> {
        pv_netlist::order::force_order(pipelined)
            .port_orders
            .remove(&self.spec.instr_port)
            .filter(|order| order.len() == self.spec.instr_width)
    }

    /// The unit of work behind [`check_plan`](Self::check_plan): assumes the
    /// netlists have already been validated and `instr_order` computed
    /// (both are plan-independent and done once per batch).
    fn check_plan_indexed(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plan: &SimulationPlan,
        plan_index: usize,
        budget: Option<Budget>,
        instr_order: Option<&[usize]>,
    ) -> Result<PlanReport, VerifyError> {
        let _span = pv_obs::span("plan.check");
        let started = Instant::now();
        // Fault-injection sites (compiled out unless the `failpoints`
        // feature is on): a worker panic mid-plan, and an artificial
        // deadline trip — both must surface as typed `PlanFailure`s.
        pv_obs::fail::inject_panic("plan.panic");
        if pv_obs::fail::failpoint("plan.deadline") {
            std::panic::panic_any(pv_bdd::BudgetExceeded::Deadline);
        }
        let spec = &self.spec;
        if plan.instruction_count() == 0 {
            return Err(VerifyError::EmptyPlan);
        }
        if plan.slots().contains(&Slot::Interrupt) && spec.irq_port.is_none() {
            return Err(VerifyError::InterruptWithoutIrqPort);
        }
        let setup = pv_obs::span("plan.setup");
        let schedule = SimulationSchedule::expand(spec, plan);
        let mut manager = BddManager::new();
        if let Some(budget) = budget {
            manager.set_budget(budget);
        }

        // One vector of instruction variables per slot, shared by both
        // machines, restricted to the slot's instruction class. Bits that the
        // class forces to a fixed value (for instance the opcode field of a
        // control-transfer slot) are substituted by constants before the
        // simulation — this is the "cofactor the transition relation with the
        // instruction class" step of Section 5.2, and it keeps the BDDs much
        // smaller; the residual (non-cube) part of the constraint is carried
        // as an assumption and applied when the sampled formulae are compared.
        // Slot words are allocated in program order, one contiguous block
        // each; inside a block, the bits follow `instr_order`.
        let slot_vars: Vec<Vec<Var>> = schedule
            .slot_classes
            .iter()
            .map(|_| {
                let alloc = manager.new_vars(spec.instr_width);
                match instr_order {
                    Some(order) => {
                        let mut vars = alloc.clone();
                        for (k, &bit) in order.iter().enumerate() {
                            vars[bit] = alloc[k];
                        }
                        vars
                    }
                    None => alloc,
                }
            })
            .collect();
        let mut assumption = Bdd::TRUE;
        let mut slot_words: Vec<BddVec> = Vec::with_capacity(slot_vars.len());
        for (vars, class) in slot_vars.iter().zip(&schedule.slot_classes) {
            let constraint = match class {
                Slot::Normal => (spec.normal_class)(&mut manager, vars),
                Slot::ControlTransfer => (spec.control_class)(&mut manager, vars),
                // The fetched word of an interrupted slot is discarded by the
                // trap, so it is left unconstrained.
                Slot::Interrupt => Bdd::TRUE,
                Slot::Reset => Bdd::TRUE,
            };
            assumption = manager.and(assumption, constraint);
            let bits = vars
                .iter()
                .map(|&v| {
                    let forced_true = manager.restrict(constraint, v, false).is_false();
                    let forced_false = manager.restrict(constraint, v, true).is_false();
                    if forced_true {
                        manager.constant(true)
                    } else if forced_false {
                        manager.constant(false)
                    } else {
                        manager.var(v)
                    }
                })
                .collect();
            slot_words.push(BddVec::from_bits(bits));
        }
        // The assumption and the slot words live across both simulations and
        // the final comparison; pin them against the per-cycle collections.
        manager.add_root(assumption);
        for word in &slot_words {
            for &bit in word.bits() {
                manager.add_root(bit);
            }
        }
        drop(setup);

        let (pipelined_samples, pipelined_dontcare_vars) = self.simulate(
            &mut manager,
            pipelined,
            &schedule.pipelined_inputs,
            &schedule.pipelined_irq_cycles,
            &slot_words,
            &schedule
                .samples
                .iter()
                .map(|&(j, pc, _)| (j, pc))
                .collect::<Vec<_>>(),
            true,
            assumption,
        );
        let (unpipelined_samples, _) = self.simulate(
            &mut manager,
            unpipelined,
            &schedule.unpipelined_inputs,
            &schedule.unpipelined_irq_cycles,
            &slot_words,
            &schedule
                .samples
                .iter()
                .map(|&(j, _, uc)| (j, uc))
                .collect::<Vec<_>>(),
            false,
            assumption,
        );

        let compare = pv_obs::span("plan.compare");
        let mut samples_compared = 0usize;
        let mut counterexample = None;
        'outer: for &(slot, pipelined_cycle, unpipelined_cycle) in &schedule.samples {
            for name in &spec.observed {
                let p = &pipelined_samples[&slot][name];
                let u = &unpipelined_samples[&slot][name];
                if p.width() != u.width() {
                    return Err(VerifyError::WidthMismatch {
                        name: name.clone(),
                        pipelined: p.width(),
                        unpipelined: u.width(),
                    });
                }
                samples_compared += 1;
                let equal = p.eq(&mut manager, u);
                let differs = manager.not(equal);
                let violation = manager.and(assumption, differs);
                if !violation.is_false() {
                    let witness = manager.sat_one(violation).unwrap_or_default();
                    let assignment = |v: Var| {
                        witness
                            .iter()
                            .find(|&&(w, _)| w == v)
                            .map(|&(_, val)| val)
                            .unwrap_or(false)
                    };
                    let slot_instructions: Vec<u64> = slot_vars
                        .iter()
                        .map(|vars| {
                            vars.iter()
                                .enumerate()
                                .fold(0u64, |acc, (i, &v)| acc | (u64::from(assignment(v)) << i))
                        })
                        .collect();
                    let pipelined_value = p.eval(&manager, assignment);
                    let unpipelined_value = u.eval(&manager, assignment);
                    // The recipe evaluates every input word of both machines
                    // under the same witness (unassigned variables default to
                    // `false`, exactly as `eval` above does), so the concrete
                    // replay reproduces the reported values bit for bit.
                    let replay = crate::ReplayRecipe {
                        pipelined_inputs: self.replay_rows(
                            pipelined,
                            &schedule.pipelined_inputs,
                            &schedule.pipelined_irq_cycles,
                            &slot_instructions,
                            &pipelined_dontcare_vars,
                            &assignment,
                        ),
                        unpipelined_inputs: self.replay_rows(
                            unpipelined,
                            &schedule.unpipelined_inputs,
                            &schedule.unpipelined_irq_cycles,
                            &slot_instructions,
                            &[],
                            &assignment,
                        ),
                        pipelined_sample_cycle: pipelined_cycle,
                        unpipelined_sample_cycle: unpipelined_cycle,
                        variable: name.clone(),
                        pipelined_value,
                        unpipelined_value,
                    };
                    counterexample = Some(Counterexample {
                        plan: plan.clone(),
                        slot_instructions,
                        slot,
                        variable: name.clone(),
                        pipelined_value,
                        unpipelined_value,
                        replay,
                    });
                    break 'outer;
                }
            }
        }
        drop(compare);

        let stats = manager.stats();
        let metrics = BTreeMap::from([
            ("bdd.ite.cache_hit".to_owned(), stats.ite_hits as u64),
            ("bdd.ite.cache_miss".to_owned(), stats.ite_misses as u64),
            (
                "bdd.constrain.cache_hit".to_owned(),
                stats.constrain_hits as u64,
            ),
            (
                "bdd.constrain.cache_miss".to_owned(),
                stats.constrain_misses as u64,
            ),
            ("bdd.unique.grow".to_owned(), stats.unique_grows as u64),
        ]);
        Ok(PlanReport {
            plan: plan.clone(),
            plan_index,
            samples_compared,
            pipelined_cycles: schedule.pipelined_cycles(),
            unpipelined_cycles: schedule.unpipelined_cycles(),
            bdd_nodes: stats.allocated,
            bdd_peak_live: stats.peak_live,
            bdd_vars: stats.vars,
            filters: (
                schedule.pipelined_filter.to_string(),
                schedule.unpipelined_filter.to_string(),
            ),
            counterexample,
            wall_time: started.elapsed(),
            metrics,
        })
    }

    /// Assembles one machine's concrete per-cycle input rows for a
    /// counterexample's [`crate::ReplayRecipe`]: slot cycles carry the
    /// witness instruction words, don't-care cycles that were simulated with
    /// fresh symbolic variables carry their witness evaluation, and every
    /// other input is the constant the symbolic simulation drove.
    fn replay_rows(
        &self,
        netlist: &Netlist,
        cycle_inputs: &[CycleInput],
        irq_cycles: &[usize],
        slot_instructions: &[u64],
        dontcare_vars: &[(usize, Vec<Var>)],
        assignment: &impl Fn(Var) -> bool,
    ) -> Vec<Vec<(String, u64)>> {
        let spec = &self.spec;
        let has_irq = spec
            .irq_port
            .as_ref()
            .is_some_and(|p| netlist.input_width(p).is_some());
        let has_stall = spec
            .stall_port
            .as_ref()
            .is_some_and(|p| netlist.input_width(p).is_some());
        cycle_inputs
            .iter()
            .enumerate()
            .map(|(cycle, input)| {
                let (instr, reset) = match input {
                    CycleInput::Reset => (0, 1),
                    CycleInput::Slot(j) => (slot_instructions[*j], 0),
                    CycleInput::DontCare => {
                        let word = dontcare_vars
                            .iter()
                            .find(|&&(c, _)| c == cycle)
                            .map(|(_, vars)| {
                                vars.iter().enumerate().fold(0u64, |acc, (i, &v)| {
                                    acc | (u64::from(assignment(v)) << i)
                                })
                            })
                            .unwrap_or(0);
                        (word, 0)
                    }
                };
                let mut row = vec![
                    (spec.instr_port.clone(), instr),
                    (spec.reset_port.clone(), reset),
                ];
                if has_irq {
                    row.push((
                        spec.irq_port.clone().expect("checked above"),
                        u64::from(irq_cycles.contains(&cycle)),
                    ));
                }
                if has_stall {
                    row.push((spec.stall_port.clone().expect("checked above"), 0));
                }
                row
            })
            .collect()
    }

    /// Symbolically simulates one machine over the expanded cycle plan and
    /// samples the observed variables at the requested cycles. Also returns,
    /// per don't-care cycle that received fresh symbolic instruction
    /// variables, `(cycle, variables)` — the witness evaluation of these
    /// words completes a counterexample's concrete replay schedule.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::type_complexity)]
    fn simulate(
        &self,
        manager: &mut BddManager,
        netlist: &Netlist,
        cycle_inputs: &[CycleInput],
        irq_cycles: &[usize],
        slot_words: &[BddVec],
        sample_cycles: &[(usize, usize)],
        is_implementation: bool,
        assumption: Bdd,
    ) -> (
        BTreeMap<usize, BTreeMap<String, BddVec>>,
        Vec<(usize, Vec<Var>)>,
    ) {
        let _span = pv_obs::span(if is_implementation {
            "sim.pipelined"
        } else {
            "sim.unpipelined"
        });
        let spec = &self.spec;
        let sym = SymbolicSim::new(netlist);
        let mut state = sym.initial_state(manager);
        let mut samples: BTreeMap<usize, BTreeMap<String, BddVec>> = BTreeMap::new();
        let mut dontcare_vars: Vec<(usize, Vec<Var>)> = Vec::new();
        let has_irq = spec
            .irq_port
            .as_ref()
            .is_some_and(|p| netlist.input_width(p).is_some());
        // The β-relation compares the *un-stalled* behaviour: a declared
        // stall input is held at 0 for the whole simulation (the flushing
        // flow is the one that drives it — see `MachineSpec::stall_port`).
        let has_stall = spec
            .stall_port
            .as_ref()
            .is_some_and(|p| netlist.input_width(p).is_some());
        // Don't-care cycles of the *implementation* that lie before the last
        // instruction slot are annulled delay slots: they receive fresh
        // symbolic variables so annulment is checked for every possible
        // content. All other don't-care cycles — the serial specification's
        // idle phases and the trailing drain cycles of the pipeline — carry
        // inputs the β-relation marks irrelevant (the thesis smooths them
        // away), so they are driven with a constant word to keep the BDDs
        // small.
        let last_slot_cycle = cycle_inputs
            .iter()
            .rposition(|i| matches!(i, CycleInput::Slot(_)))
            .unwrap_or(0);
        for (cycle, input) in cycle_inputs.iter().enumerate() {
            let _span = pv_obs::span("sim.cycle");
            let (instr, reset) = match input {
                CycleInput::Reset => (BddVec::constant(manager, 0, spec.instr_width), true),
                CycleInput::Slot(j) => (slot_words[*j].clone(), false),
                CycleInput::DontCare if is_implementation && cycle <= last_slot_cycle => {
                    let vars = manager.new_vars(spec.instr_width);
                    dontcare_vars.push((cycle, vars.clone()));
                    (BddVec::from_vars(manager, &vars), false)
                }
                CycleInput::DontCare => (BddVec::constant(manager, 0, spec.instr_width), false),
            };
            let mut inputs = BTreeMap::new();
            inputs.insert(spec.instr_port.clone(), instr);
            inputs.insert(
                spec.reset_port.clone(),
                BddVec::constant(manager, u64::from(reset), 1),
            );
            if has_irq {
                let irq = irq_cycles.contains(&cycle);
                inputs.insert(
                    spec.irq_port.clone().expect("checked above"),
                    BddVec::constant(manager, u64::from(irq), 1),
                );
            }
            if has_stall {
                inputs.insert(
                    spec.stall_port.clone().expect("checked above"),
                    BddVec::constant(manager, 0, 1),
                );
            }
            let (mut next_state, outputs) = {
                let _span = pv_obs::span("sim.eval");
                sym.step(manager, &state, &inputs)
            };
            // Generalized cofactoring of the state by the instruction-class
            // constraint — the "cofactor the transition relation outputs with
            // respect to the inputs" step of Section 5.2. Values reachable
            // under the class assumption are preserved; behaviours of
            // instructions outside the class (which the comparison is
            // conditioned on anyway) are dropped, which keeps the state BDDs
            // within capacity.
            if !assumption.is_true() {
                let _span = pv_obs::span("sim.constrain");
                for bit in &mut next_state.regs {
                    *bit = manager.constrain(*bit, assumption);
                }
            }
            for &(slot, sample_cycle) in sample_cycles {
                if sample_cycle == cycle {
                    let _span = pv_obs::span("sim.sample");
                    let observed: BTreeMap<String, BddVec> = spec
                        .observed
                        .iter()
                        .map(|name| {
                            let word = &outputs[name];
                            let bits = (0..word.width())
                                .map(|i| manager.constrain(word.bit(i), assumption))
                                .collect();
                            (name.clone(), BddVec::from_bits(bits))
                        })
                        .collect();
                    // Sampled formulae outlive this simulation (they are
                    // compared after both machines have run), so pin them
                    // against the per-cycle collections.
                    for word in observed.values() {
                        for &bit in word.bits() {
                            manager.add_root(bit);
                        }
                    }
                    samples.insert(slot, observed);
                }
            }
            state = next_state;
            // The per-cycle garbage — intermediate net functions and
            // constrain temporaries — is dead now; everything still needed
            // is either rooted (assumption, slot words, samples) or passed
            // here (the state the next cycle starts from). This is also the
            // per-cycle budget safe point.
            manager.maybe_gc(&state.regs);
        }
        (samples, dontcare_vars)
    }
}
