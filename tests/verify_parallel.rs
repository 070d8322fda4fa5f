//! Determinism of the parallel plan verifier: for any worker count, a batch
//! of plans must produce a `VerificationReport` that is field-by-field
//! identical to the sequential (`threads = 1`) run — modulo the wall-time
//! fields and `threads_used` itself — for both passing and failing design
//! pairs. This pins down the deterministic-merge rule (stats summed in plan
//! order, counterexample from the lowest-indexed failing plan, nothing past
//! the first failing plan merged) that makes the worker pool safe to enable
//! by default.
//!
//! The full-sweep VSM pair is cheap enough for the debug `cargo test -q`
//! gate; the heavier Alpha0 sweep twin is `--release`-only, as ROADMAP
//! prescribes for heavy suites (CI runs it optimised in the release step).

use pipeverify::core::{MachineSpec, PlanReport, SimulationPlan, VerificationReport, Verifier};
use pipeverify::proc::alpha0::{self, Alpha0Bug, PipelineConfig};
use pipeverify::proc::vsm::{self, VsmBug, VsmConfig};

/// Asserts every deterministic field of two reports is identical. The
/// per-plan `wall_time` and `threads_used` are the only fields allowed to
/// differ between a sequential and a parallel run.
fn assert_reports_identical(sequential: &VerificationReport, parallel: &VerificationReport) {
    assert_eq!(sequential.machine, parallel.machine);
    assert_eq!(sequential.plans_checked, parallel.plans_checked);
    assert_eq!(sequential.samples_compared, parallel.samples_compared);
    assert_eq!(sequential.pipelined_cycles, parallel.pipelined_cycles);
    assert_eq!(sequential.unpipelined_cycles, parallel.unpipelined_cycles);
    assert_eq!(sequential.bdd_nodes, parallel.bdd_nodes);
    assert_eq!(sequential.bdd_peak_live, parallel.bdd_peak_live);
    assert_eq!(sequential.bdd_vars, parallel.bdd_vars);
    assert_eq!(sequential.filters, parallel.filters);
    assert_eq!(sequential.counterexample, parallel.counterexample);
    // The per-plan breakdowns must agree plan by plan as well.
    assert_eq!(sequential.plan_reports.len(), parallel.plan_reports.len());
    for (s, p) in sequential.plan_reports.iter().zip(&parallel.plan_reports) {
        assert_eq!(s.plan, p.plan);
        assert_eq!(s.plan_index, p.plan_index);
        assert_eq!(s.samples_compared, p.samples_compared);
        assert_eq!(s.pipelined_cycles, p.pipelined_cycles);
        assert_eq!(s.unpipelined_cycles, p.unpipelined_cycles);
        assert_eq!(s.bdd_nodes, p.bdd_nodes);
        assert_eq!(s.bdd_peak_live, p.bdd_peak_live);
        assert_eq!(s.bdd_vars, p.bdd_vars);
        assert_eq!(s.filters, p.filters);
        assert_eq!(s.counterexample, p.counterexample);
        assert_eq!(s.metrics, p.metrics);
    }
    assert_eq!(sequential.metrics, parallel.metrics);
}

/// A plan report's `(bdd.gc.runs, bdd.gc.collected)`.
fn gc_counts(plan: &PlanReport) -> (u64, u64) {
    (
        plan.metrics["bdd.gc.runs"],
        plan.metrics["bdd.gc.collected"],
    )
}

fn vsm_pair(bug: Option<VsmBug>) -> (pipeverify::netlist::Netlist, pipeverify::netlist::Netlist) {
    let config = VsmConfig {
        bug,
        ..VsmConfig::reduced(2)
    };
    let correct = VsmConfig::reduced(2);
    (
        vsm::pipelined(config).expect("build pipelined"),
        vsm::unpipelined(correct).expect("build unpipelined"),
    )
}

#[test]
fn parallel_sweep_report_is_identical_to_sequential_on_a_passing_pair() {
    // Short plans keep this in the debug `cargo test -q` budget; the full
    // default sweep (and the Alpha0 pair) is covered by the release-only
    // test below.
    let (pipelined, unpipelined) = vsm_pair(None);
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    let plans = vec![
        SimulationPlan::all_normal(2),
        SimulationPlan::with_control_at(2, 0),
        SimulationPlan::with_control_at(2, 1),
    ];
    let sequential = verifier
        .clone()
        .with_threads(1)
        .verify_plans(&pipelined, &unpipelined, &plans)
        .expect("sequential verify");
    let parallel = verifier
        .with_threads(4)
        .verify_plans(&pipelined, &unpipelined, &plans)
        .expect("parallel verify");
    assert!(sequential.equivalent(), "{sequential}");
    assert_eq!(sequential.threads_used, 1);
    assert_eq!(parallel.threads_used, 3, "pool clamps to the batch size");
    assert_eq!(sequential.plans_checked, 3);
    assert_eq!(parallel.plan_reports.len(), 3);
    assert_reports_identical(&sequential, &parallel);
}

#[test]
fn parallel_sweep_report_is_identical_to_sequential_on_a_failing_pair() {
    // NoAnnul is only exposed by a control-transfer slot, so the first
    // failing plan of this batch is plan 1 (control at slot 0) — the
    // all-ordinary plan 0 passes. Both runs must stop counting there, even
    // though the parallel workers race ahead into plan 2: nothing past the
    // lowest-indexed failing plan may leak into the merged report.
    let (buggy, unpipelined) = vsm_pair(Some(VsmBug::NoAnnul));
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    let plans = vec![
        SimulationPlan::all_normal(2),
        SimulationPlan::with_control_at(2, 0),
        SimulationPlan::with_control_at(2, 1),
    ];
    let sequential = verifier
        .clone()
        .with_threads(1)
        .verify_plans(&buggy, &unpipelined, &plans)
        .expect("sequential verify");
    let parallel = verifier
        .with_threads(4)
        .verify_plans(&buggy, &unpipelined, &plans)
        .expect("parallel verify");
    assert!(!sequential.equivalent());
    assert_eq!(sequential.plans_checked, 2, "{sequential}");
    assert!(sequential.plan_reports[0].equivalent());
    assert!(!sequential.plan_reports[1].equivalent());
    assert_reports_identical(&sequential, &parallel);
}

#[test]
fn plans_under_the_collection_floor_report_no_collections() {
    // The reduced VSM plans stay far below the 2^20 live nodes at which
    // `maybe_gc` first collects, at one worker and at two.
    let (pipelined, unpipelined) = vsm_pair(None);
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    let plans = [
        SimulationPlan::all_normal(2),
        SimulationPlan::with_control_at(2, 0),
    ];
    for threads in [1, 2] {
        let report = verifier
            .clone()
            .with_threads(threads)
            .verify_plans(&pipelined, &unpipelined, &plans)
            .expect("verify");
        for plan in &report.plan_reports {
            assert_eq!(gc_counts(plan), (0, 0), "plan {}", plan.plan_index);
        }
    }
}

#[test]
fn check_plan_is_a_pure_unit_of_work() {
    // The tentpole contract: one plan, one freshly-built manager, same
    // deterministic PlanReport every time.
    let (pipelined, unpipelined) = vsm_pair(None);
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    let plan = SimulationPlan::with_control_at(2, 0);
    let check = || {
        verifier
            .verify_plan(&pipelined, &unpipelined, &plan)
            .expect("check")
            .plan_reports
            .remove(0)
    };
    let (first, second) = (check(), check());
    assert!(first.equivalent());
    assert_eq!(first.bdd_nodes, second.bdd_nodes);
    assert_eq!(first.bdd_peak_live, second.bdd_peak_live);
    assert_eq!(first.bdd_vars, second.bdd_vars);
    assert_eq!(first.samples_compared, second.samples_compared);
    assert_eq!(first.filters, second.filters);
}

#[test]
fn the_batch_wall_covers_its_plans_and_reaches_the_flow_report() {
    // One worker checks the plans one after another on the calling thread,
    // inside the batch's own wall clock.
    let (pipelined, unpipelined) = vsm_pair(None);
    let plans = [
        SimulationPlan::all_normal(2),
        SimulationPlan::with_control_at(2, 0),
    ];
    let report = Verifier::new(MachineSpec::vsm_reduced(2))
        .with_threads(1)
        .verify_plans(&pipelined, &unpipelined, &plans)
        .expect("verify");
    assert_eq!(report.plans_checked, 2);
    assert!(
        report.wall_time >= report.plan_wall_total(),
        "{:?} < {:?}",
        report.wall_time,
        report.plan_wall_total()
    );
    assert_eq!(report.to_flow_report().wall_time, report.wall_time);
}

#[test]
fn oversized_and_zero_worker_counts_are_clamped() {
    let (pipelined, unpipelined) = vsm_pair(None);
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    let plan = SimulationPlan::all_normal(2);
    // 64 workers for one plan: the pool clamps to the batch size.
    let report = verifier
        .clone()
        .with_threads(64)
        .verify_plan(&pipelined, &unpipelined, &plan)
        .expect("verify");
    assert!(report.equivalent());
    assert_eq!(report.threads_used, 1);
    // with_threads(0) restores the PV_THREADS / available-parallelism
    // default, which is always at least 1.
    assert!(verifier.with_threads(0).threads() >= 1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: four full VSM default sweeps are too slow unoptimised"
)]
fn parallel_default_sweep_is_identical_to_sequential_on_vsm() {
    // The full default sweep (1 all-ordinary plan + k control positions) of
    // the VSM pair, passing and failing, sequential vs 4 workers.
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    for bug in [None, Some(VsmBug::NoAnnul)] {
        let (pipelined, unpipelined) = vsm_pair(bug);
        let sequential = verifier
            .clone()
            .with_threads(1)
            .verify(&pipelined, &unpipelined)
            .expect("sequential verify");
        let parallel = verifier
            .clone()
            .with_threads(4)
            .verify(&pipelined, &unpipelined)
            .expect("parallel verify");
        assert_eq!(sequential.equivalent(), bug.is_none());
        assert_eq!(sequential.threads_used, 1);
        assert_eq!(parallel.threads_used, 4);
        assert_reports_identical(&sequential, &parallel);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: two Alpha0 plans are too slow unoptimised"
)]
fn collection_counts_agree_at_one_and_two_workers() {
    // The condensed Alpha0 plan with its control transfer in slot 3
    // outgrows the 2^20-node collection floor; their collection counts are a function
    // of the plan alone, whatever worker checks it.
    let cfg = pipeverify::isa::alpha0::Alpha0Config::condensed();
    let pipelined = alpha0::pipelined(PipelineConfig::condensed(cfg)).expect("build");
    let unpipelined = alpha0::unpipelined(PipelineConfig::condensed(cfg)).expect("build");
    let verifier = Verifier::new(MachineSpec::alpha0_condensed(cfg));
    let k = verifier.spec().k;
    let sweep = [
        SimulationPlan::with_control_at(k, 3),
        SimulationPlan::with_control_at(k, 2),
    ];
    let run = |threads| {
        verifier
            .clone()
            .with_threads(threads)
            .verify_plans(&pipelined, &unpipelined, &sweep)
            .expect("verify")
    };
    let (one, two) = (run(1), run(2));
    assert!(one.equivalent(), "{one}");
    assert_eq!(two.threads_used, 2);
    let counts: Vec<_> = one.plan_reports.iter().map(gc_counts).collect();
    assert!(
        counts
            .iter()
            .any(|&(runs, collected)| runs > 0 && collected > 0),
        "{counts:?}"
    );
    assert_eq!(
        counts,
        two.plan_reports.iter().map(gc_counts).collect::<Vec<_>>()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: two full Alpha0 sweeps are too slow unoptimised"
)]
fn parallel_alpha0_sweep_is_identical_to_sequential() {
    // The Alpha0 twin of the VSM determinism tests, on the condensed
    // datapath: a three-slot control-transfer sweep, sequential vs 4 workers,
    // passing and failing. Release-only per the ROADMAP test-budget rule.
    let cfg = pipeverify::isa::alpha0::Alpha0Config::condensed();
    let pipelined = alpha0::pipelined(PipelineConfig::condensed(cfg)).expect("build");
    let unpipelined = alpha0::unpipelined(PipelineConfig::condensed(cfg)).expect("build");
    let verifier = Verifier::new(MachineSpec::alpha0_condensed(cfg));
    let sweep: Vec<SimulationPlan> = (0..3)
        .map(|p| SimulationPlan::with_control_at(3, p))
        .collect();
    let sequential = verifier
        .clone()
        .with_threads(1)
        .verify_plans(&pipelined, &unpipelined, &sweep)
        .expect("sequential verify");
    let parallel = verifier
        .clone()
        .with_threads(4)
        .verify_plans(&pipelined, &unpipelined, &sweep)
        .expect("parallel verify");
    assert!(sequential.equivalent(), "{sequential}");
    assert_reports_identical(&sequential, &parallel);

    let buggy = alpha0::pipelined(PipelineConfig::condensed(cfg).bug(Alpha0Bug::NoAnnul))
        .expect("build buggy");
    let sequential = verifier
        .clone()
        .with_threads(1)
        .verify_plans(&buggy, &unpipelined, &sweep)
        .expect("sequential verify");
    let parallel = verifier
        .with_threads(4)
        .verify_plans(&buggy, &unpipelined, &sweep)
        .expect("parallel verify");
    assert!(!sequential.equivalent());
    assert_reports_identical(&sequential, &parallel);
}
