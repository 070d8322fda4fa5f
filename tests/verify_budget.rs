//! The resource-governance contract of `Verifier::with_budget`: a
//! budget-exhausted plan degrades the report instead of sinking the batch,
//! the typed outcome is identical at any thread count (the node limit gates
//! on the *monotone* allocation total, not on wall clock), and an unlimited
//! budget changes nothing at all.

use std::time::Duration;

use pipeverify::core::{
    Budget, FlowErrorKind, MachineSpec, SimulationPlan, VerificationReport, Verifier,
};
use pipeverify::proc::vsm::{self, VsmConfig};

fn vsm_pair() -> (pipeverify::netlist::Netlist, pipeverify::netlist::Netlist) {
    let config = VsmConfig::reduced(2);
    (
        vsm::pipelined(config).expect("build pipelined"),
        vsm::unpipelined(config).expect("build unpipelined"),
    )
}

// 3-slot plans: wide enough cost spread between the all-normal and the
// control-transfer plans for the node-limit calibration below, now that the
// complemented-edge engine and the FORCE static order have shrunk the small
// plans to a few thousand nodes each.
fn sweep() -> Vec<SimulationPlan> {
    vec![
        SimulationPlan::all_normal(3),
        SimulationPlan::with_control_at(3, 0),
        SimulationPlan::with_control_at(3, 1),
    ]
}

/// Every deterministic field two budget-degraded runs must agree on —
/// including which plans failed and how.
fn assert_degraded_identical(a: &VerificationReport, b: &VerificationReport) {
    assert_eq!(a.plans_checked, b.plans_checked);
    assert_eq!(a.samples_compared, b.samples_compared);
    assert_eq!(a.bdd_nodes, b.bdd_nodes);
    assert_eq!(a.bdd_peak_live, b.bdd_peak_live);
    assert_eq!(a.bdd_vars, b.bdd_vars);
    assert_eq!(a.counterexample, b.counterexample);
    assert_eq!(a.plan_failures, b.plan_failures);
    assert_eq!(a.plan_reports.len(), b.plan_reports.len());
    for (s, p) in a.plan_reports.iter().zip(&b.plan_reports) {
        assert_eq!(s.plan_index, p.plan_index);
        assert_eq!(s.bdd_nodes, p.bdd_nodes);
        assert_eq!(s.counterexample, p.counterexample);
    }
}

#[test]
fn a_node_budget_abort_degrades_the_report_identically_at_any_thread_count() {
    let (pipelined, unpipelined) = vsm_pair();
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));
    let plans = sweep();

    // Calibrate: an unbudgeted run tells us what every plan allocates, so
    // the limit can be placed to pass some plans and starve others with a
    // margin far wider than the amortized check interval (1024 ITE misses).
    let free = verifier
        .clone()
        .with_threads(1)
        .verify_plans(&pipelined, &unpipelined, &plans)
        .expect("unbudgeted verify");
    assert!(free.equivalent() && free.complete());
    let totals: Vec<usize> = free.plan_reports.iter().map(|p| p.bdd_nodes).collect();
    let (min, max) = (
        *totals.iter().min().expect("plans"),
        *totals.iter().max().expect("plans"),
    );
    assert!(
        max > min + 4_096,
        "calibration needs a wide gap between the cheapest ({min}) and the \
         most expensive ({max}) plan"
    );
    let limit = min + (max - min) / 2;

    let mut runs = Vec::new();
    for threads in [1, 2, 4] {
        let report = verifier
            .clone()
            .with_threads(threads)
            .with_budget(Budget::unlimited().with_node_limit(limit))
            .verify_plans(&pipelined, &unpipelined, &plans)
            .expect("budgeted verify");
        // Graceful degradation: the expensive plans tripped the limit, the
        // cheap ones still completed, and nobody took down the batch.
        assert!(!report.complete(), "the limit must starve some plan");
        assert!(report.plans_checked > 0, "the limit must pass some plan");
        assert_eq!(
            report.plans_checked + report.plan_failures.len(),
            plans.len()
        );
        for failure in &report.plan_failures {
            assert_eq!(failure.kind, FlowErrorKind::NodeBudgetExceeded);
            assert!(
                totals[failure.unit] > limit,
                "plan #{} failed but only allocates {} ≤ limit {}",
                failure.unit,
                totals[failure.unit],
                limit
            );
        }
        // Failed plans contribute zero statistics.
        let completed_nodes: usize = report.plan_reports.iter().map(|p| p.bdd_nodes).sum();
        assert_eq!(report.bdd_nodes, completed_nodes);
        runs.push(report);
    }
    // The degraded outcome — which plans failed, how, and what the rest
    // reported — is field-identical at every thread count.
    assert_degraded_identical(&runs[0], &runs[1]);
    assert_degraded_identical(&runs[0], &runs[2]);

    // The flow-shaped rendering carries the per-unit failures.
    let flow = runs[0].to_flow_report();
    assert_eq!(flow.unit_failures.len(), runs[0].plan_failures.len());
    assert!(flow.equivalent, "degraded but no counterexample");
}

#[test]
fn an_expired_deadline_fails_every_plan_without_failing_the_batch() {
    let (pipelined, unpipelined) = vsm_pair();
    let report = Verifier::new(MachineSpec::vsm_reduced(2))
        .with_threads(2)
        .with_budget(Budget::unlimited().with_deadline(Duration::ZERO))
        .verify_plans(&pipelined, &unpipelined, &sweep())
        .expect("verify_plans returns a degraded report, not an error");
    assert_eq!(report.plans_checked, 0);
    assert_eq!(report.plan_failures.len(), 3);
    assert!(report
        .plan_failures
        .iter()
        .all(|f| f.kind == FlowErrorKind::DeadlineExceeded));
    assert!(report.equivalent(), "no counterexample was found…");
    assert!(!report.complete(), "…but nothing was actually checked");
}

#[test]
fn cancelling_the_batch_budget_stops_every_plan() {
    let (pipelined, unpipelined) = vsm_pair();
    let budget = Budget::unlimited();
    budget.cancel(); // cancelled before the batch even starts
    let report = Verifier::new(MachineSpec::vsm_reduced(2))
        .with_threads(2)
        .with_budget(budget)
        .verify_plans(&pipelined, &unpipelined, &sweep())
        .expect("degraded report");
    assert_eq!(report.plans_checked, 0);
    assert!(report
        .plan_failures
        .iter()
        .all(|f| f.kind == FlowErrorKind::Cancelled));
}

#[test]
fn an_unlimited_budget_changes_nothing() {
    let (pipelined, unpipelined) = vsm_pair();
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2)).with_threads(1);
    let plans = sweep();
    let free = verifier
        .clone()
        .verify_plans(&pipelined, &unpipelined, &plans)
        .expect("verify");
    let governed = verifier
        .with_budget(Budget::unlimited())
        .verify_plans(&pipelined, &unpipelined, &plans)
        .expect("verify");
    assert!(governed.complete());
    assert_degraded_identical(&free, &governed);
}
