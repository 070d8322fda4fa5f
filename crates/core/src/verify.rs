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
use pv_obs::Counter;

use crate::flow::{FlowErrorKind, UnitFailure};
use crate::plan::{
    concrete_rows, drive, CycleInput, PortValue, SimulationPlan, SimulationSchedule, Slot,
};
use crate::pool;
use crate::spec::MachineSpec;

/// Plans whose pipelined run stopped early because a sample read an annulled
/// slot's don't-care variables (see [`Verifier::check_plan`]).
static M_LEAK_STOPS: Counter = Counter::new("verify.leak_stops");

/// One machine's symbolic run over (a prefix of) its schedule.
struct MachineRun {
    /// The observed words sampled per instruction slot, after `constrain`.
    samples: BTreeMap<usize, BTreeMap<String, BddVec>>,
    /// Per annulled delay slot of the implementation, `(cycle, variables)`:
    /// the fresh instruction variables it was simulated with.
    dontcare_vars: Vec<(usize, Vec<Var>)>,
    /// The first slot whose implementation sample depends on one of those
    /// variables; the run stopped after that sample's cycle.
    leaked_slot: Option<usize>,
}

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
    /// Wall-clock time of the whole [`Verifier::verify_plans`] call
    /// (nondeterministic, like the per-plan walls; zero straight out of
    /// [`merge`](Self::merge)).
    pub wall_time: Duration,
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
    /// plan order, each keyed by its position in the batch handed to
    /// [`Verifier::verify_plans`]. A non-empty list marks the report
    /// **degraded**, and [`equivalent`](Self::equivalent) speaks only for
    /// the plans that completed — see [`complete`](Self::complete). Every
    /// listed plan contributed zero statistics: the outcome is a pure
    /// function of the budget decision, not of how far the worker got, so a
    /// degraded report stays field-identical at any thread count.
    pub plan_failures: Vec<UnitFailure>,
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
        plan_failures: Vec<UnitFailure>,
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
            wall_time: Duration::ZERO,
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
            writeln!(
                f,
                "degraded          : plan #{} {}: {}",
                failure.unit, failure.kind, failure.message
            )?;
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
    /// [`UnitFailure`] with zero statistics and the remaining plans still
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
    /// See [`Verifier::verify_plans`].
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
    /// See [`Verifier::verify_plans`].
    pub fn verify_plan(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plan: &SimulationPlan,
    ) -> Result<VerificationReport, VerifyError> {
        self.verify_plans(pipelined, unpipelined, std::slice::from_ref(plan))
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
    /// Returns [`VerifyError`] before any plan runs, and so before any BDD
    /// work, if the pair or a plan cannot be driven: a netlist lacks a port
    /// named in the [`MachineSpec`] or has an input it does not name, a plan
    /// has no instruction slot or interrupts a spec without an irq port, or an
    /// observed variable has different widths in the two machines. A batch
    /// with one malformed plan answers the error even if an earlier plan
    /// fails. Budget trips and panics are never errors; they degrade the
    /// report (see [`with_budget`](Self::with_budget)).
    pub fn verify_plans(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plans: &[SimulationPlan],
    ) -> Result<VerificationReport, VerifyError> {
        let started = Instant::now();
        self.spec.check(pipelined, unpipelined, plans)?;
        let threads = self.threads().min(plans.len().max(1));
        let instr_order = self.instr_order(pipelined);
        let results = pool::par_map_prefix_caught(
            threads,
            plans,
            self.budget.as_ref(),
            |index, plan, budget| {
                let report = self.check_plan(
                    pipelined,
                    unpipelined,
                    plan,
                    index,
                    budget,
                    instr_order.as_deref(),
                );
                let terminal = !report.equivalent();
                (report, terminal)
            },
        );
        // The pool hands back the sequential prefix: everything up to (and
        // including) the first failing plan. A unit that unwound — budget
        // trip or panic — is *non-terminal*: it is recorded as a typed
        // `UnitFailure` with zero statistics, so one exploding plan degrades
        // the report instead of sinking the batch.
        let mut prefix: Vec<PlanReport> = Vec::with_capacity(results.len());
        let mut failures: Vec<UnitFailure> = Vec::new();
        for (unit, result) in results.into_iter().enumerate() {
            match result {
                Ok(report) => prefix.push(report),
                Err(payload) => {
                    let (kind, message) = FlowErrorKind::classify_panic(&*payload);
                    failures.push(UnitFailure {
                        unit,
                        kind,
                        message,
                    });
                }
            }
        }
        let mut report =
            VerificationReport::merge(self.spec.name.clone(), threads, prefix, failures);
        report.wall_time = started.elapsed();
        Ok(report)
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

    /// Checks one plan as a pure, self-contained unit of work: builds a fresh
    /// [`BddManager`], simulates both machines under the plan, compares the
    /// sampled formulae and returns the per-plan report. This is the function
    /// the worker pool fans out.
    ///
    /// A plan whose implementation sample reads an annulled delay slot's
    /// don't-care variables fails without simulating past that sample: the
    /// pipelined run stops there, the specification runs only through the
    /// same slot's sample, and the comparison finds the same first
    /// counterexample as a full run would. Such a report's `bdd_nodes`,
    /// `bdd_peak_live`, `bdd_vars` and `metrics` count only the work done.
    ///
    /// Assumes [`MachineSpec::check`] has passed and `instr_order` is
    /// computed (both are plan-independent and done once per batch).
    fn check_plan(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plan: &SimulationPlan,
        plan_index: usize,
        budget: Option<&Budget>,
        instr_order: Option<&[usize]>,
    ) -> PlanReport {
        let _span = pv_obs::span("plan.check");
        let started = Instant::now();
        // Fault-injection sites (compiled out unless the `failpoints`
        // feature is on): a worker panic mid-plan, and an artificial
        // deadline trip — both must surface as typed `UnitFailure`s.
        pv_obs::fail::inject_panic("plan.panic");
        if pv_obs::fail::failpoint("plan.deadline") {
            std::panic::resume_unwind(Box::new(pv_bdd::BudgetExceeded::Deadline));
        }
        let spec = &self.spec;
        let setup = pv_obs::span("plan.setup");
        let schedule = SimulationSchedule::expand(spec, plan);
        let mut manager = BddManager::new();
        if let Some(budget) = budget {
            manager.set_budget(budget.clone());
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

        let pipelined_run = self.simulate(
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
        // A leaking sample is a violation on its own (DESIGN.md § Flow 1,
        // "Stopping at an annulment leak"), so the specification runs only
        // through that slot's sample and the comparison covers the samples
        // up to it. Samples are in slot order with increasing cycles in both
        // machines, so the prefix is exactly what both runs sampled.
        let (compared, unpipelined_inputs) = match pipelined_run.leaked_slot {
            Some(slot) => {
                let last = schedule
                    .samples
                    .iter()
                    .position(|&(j, _, _)| j == slot)
                    .expect("a leaking slot is a sampled slot");
                let (_, _, unpipelined_cycle) = schedule.samples[last];
                (
                    &schedule.samples[..=last],
                    &schedule.unpipelined_inputs[..=unpipelined_cycle],
                )
            }
            None => (&schedule.samples[..], &schedule.unpipelined_inputs[..]),
        };
        let unpipelined_run = self.simulate(
            &mut manager,
            unpipelined,
            unpipelined_inputs,
            &schedule.unpipelined_irq_cycles,
            &slot_words,
            &compared
                .iter()
                .map(|&(j, _, uc)| (j, uc))
                .collect::<Vec<_>>(),
            false,
            assumption,
        );

        let compare = pv_obs::span("plan.compare");
        let mut samples_compared = 0usize;
        let mut counterexample = None;
        'outer: for &(slot, pipelined_cycle, unpipelined_cycle) in compared {
            for name in &spec.observed {
                let p = &pipelined_run.samples[&slot][name];
                let u = &unpipelined_run.samples[&slot][name];
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
                    let word = |vars: &[Var]| {
                        vars.iter()
                            .enumerate()
                            .fold(0u64, |acc, (i, &v)| acc | (u64::from(assignment(v)) << i))
                    };
                    let slot_instructions: Vec<u64> =
                        slot_vars.iter().map(|vars| word(vars)).collect();
                    let pipelined_value = p.eval(&manager, assignment);
                    let unpipelined_value = u.eval(&manager, assignment);
                    // The recipe evaluates every input word of both machines
                    // under the same witness (unassigned variables default to
                    // `false`, exactly as `eval` above does), so the concrete
                    // replay reproduces the reported values bit for bit.
                    let annulled = |cycle: usize| {
                        pipelined_run
                            .dontcare_vars
                            .iter()
                            .find(|&&(c, _)| c == cycle)
                            .map_or(0, |(_, vars)| word(vars))
                    };
                    let replay = crate::ReplayRecipe {
                        pipelined_inputs: concrete_rows(
                            spec,
                            pipelined,
                            &schedule.pipelined_inputs,
                            &schedule.pipelined_irq_cycles,
                            &slot_instructions,
                            annulled,
                        ),
                        unpipelined_inputs: concrete_rows(
                            spec,
                            unpipelined,
                            &schedule.unpipelined_inputs,
                            &schedule.unpipelined_irq_cycles,
                            &slot_instructions,
                            |_| 0,
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
        assert!(
            pipelined_run.leaked_slot.is_none() || counterexample.is_some(),
            "engine bug: a sample reads an annulled slot's don't-care variables \
             but no compared sample differs"
        );
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
        PlanReport {
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
        }
    }

    /// Symbolically simulates one machine over the expanded cycle plan and
    /// samples the observed variables at the requested cycles. Also returns,
    /// per don't-care cycle that received fresh symbolic instruction
    /// variables, `(cycle, variables)` — the witness evaluation of these
    /// words completes a counterexample's concrete replay schedule.
    ///
    /// Once an annulled slot has received fresh variables, each later sample
    /// of the implementation is checked for them: they are allocated after
    /// every slot variable, so a sample depends on one iff its support
    /// reaches the first. The run stops after the first sample that does,
    /// and reports its slot as [`MachineRun::leaked_slot`].
    #[allow(clippy::too_many_arguments)]
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
    ) -> MachineRun {
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
        let mut leaked_slot = None;
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
        for (cycle, row) in drive(spec, netlist, cycle_inputs, irq_cycles).enumerate() {
            let _span = pv_obs::span("sim.cycle");
            let inputs: BTreeMap<String, BddVec> = row
                .into_iter()
                .map(|(port, value)| {
                    let word = match value {
                        PortValue::Slot(j) => slot_words[j].clone(),
                        PortValue::DontCare if is_implementation && cycle <= last_slot_cycle => {
                            let vars = manager.new_vars(spec.instr_width);
                            dontcare_vars.push((cycle, vars.clone()));
                            BddVec::from_vars(manager, &vars)
                        }
                        PortValue::DontCare => BddVec::constant(manager, 0, spec.instr_width),
                        PortValue::Const(value, width) => BddVec::constant(manager, value, width),
                    };
                    (port.to_owned(), word)
                })
                .collect();
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
                    if let Some((_, vars)) = dontcare_vars.first() {
                        let _span = pv_obs::span("sim.leak_check");
                        let bits: Vec<Bdd> = observed
                            .values()
                            .flat_map(|word| word.bits().iter().copied())
                            .collect();
                        if manager.support_reaches(&bits, vars[0]) {
                            leaked_slot = Some(slot);
                        }
                    }
                    samples.insert(slot, observed);
                }
            }
            if leaked_slot.is_some() {
                M_LEAK_STOPS.incr();
                break;
            }
            state = next_state;
            // The per-cycle garbage — intermediate net functions and
            // constrain temporaries — is dead now; everything still needed
            // is either rooted (assumption, slot words, samples) or passed
            // here (the state the next cycle starts from). This is also the
            // per-cycle budget safe point.
            manager.maybe_gc(&state.regs);
        }
        MachineRun {
            samples,
            dontcare_vars,
            leaked_slot,
        }
    }
}
