//! The Burch–Dill commuting-diagram verification condition and its checker.
//!
//! For an arbitrary (symbolic) implementation state `s` of the pipeline
//! described by a [`PipelineDesc`] and an arbitrary fetched instruction `i`,
//! the pipeline is correct if flushing after one implementation step reaches
//! the same architectural state as one specification step from the flushed
//! starting state:
//!
//! ```text
//! flush(impl_step(s, i)) = spec_step(flush(s), i)
//! ```
//!
//! Register files are compared at a fresh symbolic index (arrays are equal iff
//! they agree on an arbitrary index), PCs are compared directly, and the
//! resulting formula is decided by the EUF checker of [`crate::euf`].
//!
//! # Parallel case splitting
//!
//! The EUF decision is a case split over the formula's Boolean atoms, and the
//! branches are independent. [`FlushVerifier`] therefore decomposes the
//! search into a fixed set of **cubes** (every assignment of the leading pure
//! atoms, in depth-first order) and fans them out over the same
//! `pipeverify_core::pool` worker pool the β-relation verifier uses, with the
//! same deterministic merge rule: the pool returns the sequential prefix of
//! cube results (nothing past the lowest-indexed failing cube), statistics
//! are summed in cube order and the counterexample is the last cube's — so
//! the [`FlushReport`] is field-by-field identical for any worker count
//! (only the wall-time fields and [`FlushReport::threads_used`] vary).
//!
//! Cubes fail like β plans: a cube whose worker panics, or whose share of an
//! attached [`Budget`] is spent before it starts, becomes a [`UnitFailure`]
//! that contributes nothing to the statistics, and the report is *degraded*
//! ([`FlushReport::complete`] is `false`) instead of the flow unwinding.

use std::fmt;
use std::time::{Duration, Instant};

use pipeverify_core::{pool, Budget, FlowCounterexample, FlowErrorKind, FlowReport, UnitFailure};
use pv_netlist::Netlist;

use crate::euf::{self, EufCounterexample};
use crate::pipeline::{
    flush, impl_step, spec_step, ArchState, DeriveError, Instruction, PipelineDesc, PipelineState,
};
use crate::term::{Sort, Term, TermManager};

/// Number of leading pure atoms the case-split decomposition expands: a fixed
/// constant (never a function of the worker count), so the cube set — and
/// with it every deterministic report field — is identical for any thread
/// count. `2^6 = 64` cubes give a pool enough grain to balance.
const SPLIT_ATOMS: usize = 6;

/// Outcome of a flushing verification run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlushReport {
    /// The pipeline description that was checked.
    pub desc: PipelineDesc,
    /// Counterexample to the commuting diagram, if any (from the
    /// lowest-indexed failing cube — identical for any worker count).
    pub counterexample: Option<EufCounterexample>,
    /// Index of the failing case-split block, if any.
    pub failing_cube: Option<usize>,
    /// Number of case splits explored by the EUF checker, summed in cube
    /// order over the checked prefix.
    pub splits: usize,
    /// Number of congruence-closure consistency checks, summed likewise.
    pub closure_checks: usize,
    /// Number of distinct terms in the verification condition.
    pub terms: usize,
    /// Total case-split blocks (cubes) of the decomposition.
    pub cubes: usize,
    /// Cubes actually checked: all of them on a valid design, the failing
    /// prefix otherwise (exactly where a sequential search would stop).
    pub cubes_checked: usize,
    /// Worker threads the case split ran on (1 = sequential).
    pub threads_used: usize,
    /// Total wall-clock time (nondeterministic, like
    /// [`cube_walls`](Self::cube_walls); every other field is a pure function
    /// of the description).
    pub wall_time: Duration,
    /// Per-cube wall-clock breakdown, in cube order, truncated like
    /// [`cubes_checked`](Self::cubes_checked).
    pub cube_walls: Vec<Duration>,
    /// Cubes that could not be checked (budget aborts, worker panics), in
    /// cube order. A non-empty list marks the report **degraded**: every
    /// listed cube contributed zero statistics, and [`valid`](Self::valid)
    /// speaks only for the cubes that completed — see
    /// [`complete`](Self::complete).
    pub unit_failures: Vec<UnitFailure>,
}

impl FlushReport {
    /// `true` iff no counterexample was found: the commuting diagram holds
    /// on every checked cube. It is only exhaustive when the report is also
    /// [`complete`](Self::complete).
    pub fn valid(&self) -> bool {
        self.counterexample.is_none()
    }

    /// `true` iff every cube of the case split actually completed — no
    /// budget aborts, no worker panics.
    pub fn complete(&self) -> bool {
        self.unit_failures.is_empty()
    }

    /// Renders this report in the shared [`FlowReport`] shape.
    pub fn to_flow_report(&self) -> FlowReport {
        FlowReport {
            flow: "flushing",
            design: self.desc.name.clone(),
            equivalent: self.valid(),
            counterexample: self.counterexample.as_ref().map(|cex| FlowCounterexample {
                unit: self.failing_cube.unwrap_or_default(),
                description: cex.to_string(),
                // Flushing works at the term level, above any bit-level
                // netlist — there is no concrete simulator to replay on.
                replay: None,
            }),
            units_checked: self.cubes_checked,
            unit_label: "case-split block",
            checks: self.closure_checks,
            space: self.terms,
            space_label: "EUF terms",
            threads_used: self.threads_used,
            wall_time: self.wall_time,
            unit_walls: self.cube_walls.clone(),
            // Summed over the checked cube prefix in cube order, like every
            // other deterministic field — identical for any worker count.
            metrics: std::collections::BTreeMap::from([
                ("euf.splits".to_owned(), self.splits as u64),
                ("euf.closure_checks".to_owned(), self.closure_checks as u64),
            ]),
            unit_failures: self.unit_failures.clone(),
        }
    }
}

impl fmt::Display for FlushReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline model : {} ({:?})",
            self.desc.name, self.desc.bug
        )?;
        writeln!(f, "terms created  : {}", self.terms)?;
        writeln!(
            f,
            "case splits    : {} over {}/{} blocks on {} worker thread{}",
            self.splits,
            self.cubes_checked,
            self.cubes,
            self.threads_used,
            if self.threads_used == 1 { "" } else { "s" }
        )?;
        writeln!(f, "closure checks : {}", self.closure_checks)?;
        for failure in &self.unit_failures {
            writeln!(
                f,
                "degraded       : case-split block #{} {}: {}",
                failure.unit, failure.kind, failure.message
            )?;
        }
        match (&self.counterexample, self.complete()) {
            (None, true) => writeln!(f, "result         : VALID (commuting diagram holds)"),
            (None, false) => writeln!(
                f,
                "result         : VALID on {} completed block(s) — {} block(s) not checked",
                self.cubes_checked,
                self.unit_failures.len()
            ),
            (Some(cex), _) => writeln!(f, "result         : INVALID — {cex}"),
        }
    }
}

/// The flushing-method verifier for the depth-parametric term-level pipeline
/// of [`crate::pipeline`].
#[derive(Clone, Debug)]
pub struct FlushVerifier {
    desc: PipelineDesc,
    threads: Option<usize>,
    budget: Option<Budget>,
}

// Cube checks run on pool workers holding `&FlushVerifier` and the shared
// base `&TermManager`; keep everything a worker touches `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FlushVerifier>();
    assert_send_sync::<TermManager>();
    assert_send_sync::<FlushReport>();
    assert_send_sync::<PipelineDesc>();
};

impl FlushVerifier {
    /// Creates a verifier for the given pipeline description. The worker
    /// count defaults to the `PV_THREADS` environment variable — resolved
    /// through the same `pipeverify_core::pool::default_threads` the
    /// β-relation flow uses (see [`with_threads`](Self::with_threads)).
    pub fn new(desc: PipelineDesc) -> Self {
        FlushVerifier {
            desc,
            threads: None,
            budget: None,
        }
    }

    /// Derives the verifier for a stallable bit-level design: the pipeline
    /// description comes from the netlist's recorded stage/stall/forwarding
    /// structure ([`PipelineDesc::from_netlist`]) — the bridge that lets one
    /// netlist run through this flow and the β-relation flow.
    ///
    /// # Errors
    /// Returns [`DeriveError`] when the netlist records no pipeline
    /// structure or has no stall input.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, DeriveError> {
        Ok(FlushVerifier::new(PipelineDesc::from_netlist(netlist)?))
    }

    /// Sets the worker count for the EUF case split: `1` checks the cubes
    /// sequentially on the calling thread and `0` restores the default
    /// (`PV_THREADS` / available parallelism). The worker count never changes
    /// the report — cubes are merged in cube order with the counterexample
    /// taken from the lowest-indexed failing cube, exactly like the
    /// β-relation verifier's plan merge.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Attaches a resource [`Budget`] governing the case split. Every cube
    /// gets a [`Budget::child`] of it, checked before the cube starts: once
    /// the deadline has passed or the budget is cancelled, the remaining
    /// cubes are recorded as [`UnitFailure`]s with zero statistics and the
    /// report is degraded, as a budget-starved β-relation sweep is. A cube
    /// already running finishes (cubes are short: tens of milliseconds at
    /// depth 16). The node limit counts BDD nodes, so it never trips this
    /// flow, which builds none.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The resolved worker count for an unbounded batch of cubes.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(pool::default_threads).max(1)
    }

    /// The pipeline description this verifier checks.
    pub fn desc(&self) -> &PipelineDesc {
        &self.desc
    }

    /// Builds the commuting-diagram verification condition in `terms` and
    /// returns it (exposed so the benchmarks can measure construction and
    /// checking separately).
    pub fn verification_condition(&self, terms: &mut TermManager) -> Term {
        let s = PipelineState::symbolic(terms, self.desc.depth, "s");
        let fetched = Instruction::symbolic(terms, "i");
        let bubble = terms.fls();

        // Left leg: one implementation step, then flush.
        let stepped = impl_step(terms, &self.desc, &s, fetched, bubble);
        let lhs = flush(terms, &self.desc, &stepped);

        // Right leg: flush first, then one specification step. As in Burch and
        // Dill's formulation, the abstraction function is computed by running
        // the implementation itself with bubbles, so the same (possibly buggy)
        // model is used on both legs.
        let start = flush(terms, &self.desc, &s);
        let spec = spec_step(terms, &self.desc, start, fetched);

        // In an annulling description the step consumes the fetched
        // instruction only when the branch in RD/EX does not squash it, so
        // the right leg is conditional: the spec executes `i` exactly when
        // the design is *supposed* to accept it. The acceptance claim is part
        // of the correctness statement — it is computed from the pre-state,
        // never from the (possibly buggy) implementation — and for a
        // non-annulling description it is constant true, folding the
        // condition away and leaving the original unconditional diagram.
        let rhs = if self.desc.annulling {
            let annul = terms.and(s.ex.valid, s.ex.is_br);
            let accepted = terms.not(annul);
            ArchState {
                rf: terms.ite(accepted, spec.rf, start.rf),
                pc: terms.ite(accepted, spec.pc, start.pc),
            }
        } else {
            spec
        };

        self.equal_arch(terms, lhs, rhs)
    }

    fn equal_arch(&self, terms: &mut TermManager, a: ArchState, b: ArchState) -> Term {
        // Two register files are equal iff they agree at an arbitrary index.
        let index = terms.var("observed_index", Sort::Data);
        let left = terms.select(a.rf, index);
        let right = terms.select(b.rf, index);
        let rf_eq = terms.eq(left, right);
        let pc_eq = terms.eq(a.pc, b.pc);
        terms.and(rf_eq, pc_eq)
    }

    /// Checks the commuting diagram and returns a report.
    ///
    /// The negated condition is split into a fixed set of cubes
    /// (assignments of its leading pure atoms, in depth-first order) and the
    /// cubes are searched on the worker pool; a cube finding a model is
    /// *terminal* — racing workers stop, and the pool returns the cube
    /// results in order up to the lowest-indexed failing cube, so the report
    /// is identical for any thread count. A cube that panics or finds the
    /// budget spent degrades the report (see
    /// [`FlushReport::unit_failures`]).
    pub fn verify(&self) -> FlushReport {
        let started = Instant::now();
        let mut terms = TermManager::new();
        let vc = self.verification_condition(&mut terms);
        let negated = terms.not(vc);
        let term_count = terms.len();
        let cubes = euf::split_cubes(&terms, negated, SPLIT_ATOMS);
        let threads = self.threads().min(cubes.len().max(1));
        let results =
            pool::par_map_prefix_caught(threads, &cubes, self.budget.as_ref(), |_, cube, _| {
                let _span = pv_obs::span("flow.flush.cube");
                // Chaos site: a panicking cube must degrade the report.
                pv_obs::fail::inject_panic("flush.cube");
                let report = euf::check_cube(&terms, negated, cube);
                let terminal = report.counterexample.is_some();
                (report, terminal)
            });

        let mut report = FlushReport {
            desc: self.desc.clone(),
            counterexample: None,
            failing_cube: None,
            splits: 0,
            closure_checks: 0,
            terms: term_count,
            cubes: cubes.len(),
            cubes_checked: 0,
            threads_used: threads,
            wall_time: Duration::ZERO,
            cube_walls: Vec::new(),
            unit_failures: Vec::new(),
        };
        for (unit, result) in results.into_iter().enumerate() {
            match result {
                Ok(cube_report) => {
                    report.splits += cube_report.splits;
                    report.closure_checks += cube_report.closure_checks;
                    report.cube_walls.push(cube_report.wall);
                    report.cubes_checked += 1;
                    if let Some(cex) = cube_report.counterexample {
                        report.counterexample = Some(cex);
                        report.failing_cube = Some(unit);
                    }
                }
                Err(payload) => {
                    let (kind, message) = FlowErrorKind::classify_panic(&*payload);
                    report.unit_failures.push(UnitFailure {
                        unit,
                        kind,
                        message,
                    });
                }
            }
        }
        report.wall_time = started.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBug;

    #[test]
    fn the_correct_pipeline_satisfies_the_commuting_diagram() {
        let report = FlushVerifier::new(PipelineDesc::three_stage()).verify();
        assert!(report.valid(), "{report}");
        assert!(report.terms > 0 && report.splits > 0);
        assert_eq!(
            report.cubes_checked, report.cubes,
            "a valid design checks every cube"
        );
    }

    #[test]
    fn every_injected_control_bug_is_caught() {
        for bug in [
            PipelineBug::NoForwarding,
            PipelineBug::ForwardAlways,
            PipelineBug::WriteBackBubbles,
            PipelineBug::StuckPc,
        ] {
            let desc = PipelineDesc::three_stage().with_bug(bug);
            let report = FlushVerifier::new(desc).verify();
            assert!(!report.valid(), "{bug:?} must break the commuting diagram");
            let cex = report.counterexample.expect("counterexample");
            assert!(
                !cex.assignments.is_empty(),
                "{bug:?} counterexample should name atoms"
            );
            assert_eq!(report.failing_cube, Some(report.cubes_checked - 1));
        }
    }

    #[test]
    fn correct_branching_and_annulling_pipelines_satisfy_the_diagram() {
        for desc in [
            PipelineDesc::with_depth(2).with_branching(),
            PipelineDesc::three_stage().with_branching(),
            PipelineDesc::with_depth(2).with_annulment(),
            PipelineDesc::three_stage().with_annulment(),
        ] {
            let report = FlushVerifier::new(desc.clone()).verify();
            assert!(report.valid(), "{}: {report}", desc.name);
        }
    }

    #[test]
    fn every_injected_hazard_bug_is_caught_on_branching_pipelines() {
        // The wrong-stall-condition bug needs no branch semantics at all;
        // the branch-target and lost-annulment bugs need them by definition.
        let cases = [
            (PipelineDesc::three_stage(), PipelineBug::StallInverted),
            (
                PipelineDesc::with_depth(2).with_branching(),
                PipelineBug::BranchTargetOffByOne,
            ),
            (
                PipelineDesc::three_stage().with_annulment(),
                PipelineBug::BranchTargetOffByOne,
            ),
            (
                PipelineDesc::with_depth(2).with_annulment(),
                PipelineBug::LostAnnul,
            ),
            (
                PipelineDesc::three_stage().with_annulment(),
                PipelineBug::LostAnnul,
            ),
            (
                PipelineDesc::three_stage().with_annulment(),
                PipelineBug::NoForwarding,
            ),
        ];
        for (desc, bug) in cases {
            let desc = desc.with_bug(bug);
            let report = FlushVerifier::new(desc.clone()).verify();
            assert!(
                !report.valid(),
                "{}: {bug:?} must break the commuting diagram",
                desc.name
            );
            assert!(report.counterexample.is_some(), "{}", desc.name);
        }
    }

    #[test]
    fn the_verification_condition_is_a_boolean_term() {
        let mut terms = TermManager::new();
        let vc = FlushVerifier::new(PipelineDesc::three_stage()).verification_condition(&mut terms);
        // It must mention the ALU, the register file and the observed index
        // used for register-file comparison. (The PC leg folds away
        // syntactically — both legs construct `succ(s.pc)` — so only the
        // register-file comparison survives into the formula.)
        let rendered = terms.to_string(vc);
        assert!(rendered.contains("alu"), "{rendered}");
        assert!(rendered.contains("select"), "{rendered}");
        assert!(rendered.contains("observed_index"), "{rendered}");
    }

    #[test]
    fn an_expired_deadline_fails_every_cube_without_failing_the_flow() {
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        for threads in [1, 2] {
            let report = FlushVerifier::new(PipelineDesc::three_stage())
                .with_threads(threads)
                .with_budget(budget.clone())
                .verify();
            assert_eq!(report.cubes, 64);
            assert_eq!(report.cubes_checked, 0);
            assert_eq!((report.splits, report.closure_checks), (0, 0));
            assert!(report.cube_walls.is_empty());
            assert_eq!(report.unit_failures.len(), report.cubes);
            for (unit, failure) in report.unit_failures.iter().enumerate() {
                assert_eq!(failure.unit, unit);
                assert_eq!(failure.kind, FlowErrorKind::DeadlineExceeded);
            }
            assert!(report.valid(), "no counterexample was found…");
            assert!(!report.complete(), "…but nothing was actually checked");
            let flow = report.to_flow_report();
            assert_eq!(flow.unit_failures, report.unit_failures);
            assert!(report.to_string().contains("64 block(s) not checked"));
        }
    }

    #[test]
    fn parallel_case_split_reports_are_identical_to_sequential() {
        for desc in [
            PipelineDesc::three_stage(),
            PipelineDesc::with_depth(2),
            PipelineDesc::three_stage().with_bug(PipelineBug::NoForwarding),
            PipelineDesc::three_stage().with_bug(PipelineBug::StuckPc),
        ] {
            let seq = FlushVerifier::new(desc.clone()).with_threads(1).verify();
            for threads in [2, 4, 16] {
                let par = FlushVerifier::new(desc.clone())
                    .with_threads(threads)
                    .verify();
                assert_eq!(par.counterexample, seq.counterexample, "{desc:?}");
                assert_eq!(par.failing_cube, seq.failing_cube, "{desc:?}");
                assert_eq!(par.splits, seq.splits, "{desc:?}");
                assert_eq!(par.closure_checks, seq.closure_checks, "{desc:?}");
                assert_eq!(par.terms, seq.terms, "{desc:?}");
                assert_eq!(par.cubes, seq.cubes, "{desc:?}");
                assert_eq!(par.cubes_checked, seq.cubes_checked, "{desc:?}");
                assert_eq!(par.cube_walls.len(), seq.cube_walls.len(), "{desc:?}");
            }
        }
    }
}
