//! A budget abort is control flow, not a crash: it unwinds to the plan
//! boundary without running the panic hook, so a library caller of
//! `Verifier::with_budget` gets typed `UnitFailure`s and no panic report on
//! stderr. The test sits alone in its file because the panic hook is
//! process-wide.

use std::sync::atomic::{AtomicUsize, Ordering};

use pipeverify::core::{Budget, FlowErrorKind, MachineSpec, SimulationPlan, Verifier};
use pipeverify::proc::vsm::{self, VsmConfig};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn a_node_budget_abort_runs_no_panic_hook() {
    let config = VsmConfig::reduced(2);
    let pipelined = vsm::pipelined(config).expect("build pipelined");
    let unpipelined = vsm::unpipelined(config).expect("build unpipelined");
    let plans = [
        SimulationPlan::all_normal(2),
        SimulationPlan::with_control_at(2, 0),
    ];
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let report = Verifier::new(MachineSpec::vsm_reduced(2))
        .with_threads(2)
        .with_budget(Budget::unlimited().with_node_limit(1))
        .verify_plans(&pipelined, &unpipelined, &plans);
    drop(std::panic::take_hook());
    let report = report.expect("a degraded report, not an error");
    assert!(!report.plan_failures.is_empty(), "the limit must trip");
    for failure in &report.plan_failures {
        assert_eq!(failure.kind, FlowErrorKind::NodeBudgetExceeded);
    }
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 0, "the panic hook ran");
}
