//! Property: **tracing never perturbs verification.** A traced run and an
//! untraced run of the same [`SimulationPlan`] on the same generated-family
//! design pair must produce field-identical [`PlanReport`]s — every
//! deterministic field, including the embedded `metrics` snapshot; only the
//! wall-clock fields are exempt (they are documented as non-deterministic).
//!
//! The same property also checks the emitted JSONL: the traced run's events
//! must round-trip through `trace_io` byte-faithfully and satisfy the
//! span-nesting discipline (every exit matches the innermost open enter on
//! its thread, nothing left open) — the well-formedness `trace_report` and
//! the `trace-smoke` CI gate rely on.
//!
//! Tracing is process-global state, so the properties in this file share one
//! lock and this file stays its own test binary.

use std::sync::Mutex;

use pipeverify_core::{trace_io, MachineSpec, PlanReport, Verifier};
use proptest::prelude::*;
use pv_proc::family::{self, FamilyConfig};

/// Serializes the tests in this binary: they toggle the process-global
/// trace switch and drain the process-global event buffers.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Asserts every deterministic `PlanReport` field matches; the wall-clock
/// field `wall_time` is exempt by documentation.
fn assert_deterministic_fields_eq(
    traced: &PlanReport,
    untraced: &PlanReport,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&traced.plan, &untraced.plan);
    prop_assert_eq!(traced.plan_index, untraced.plan_index);
    prop_assert_eq!(traced.samples_compared, untraced.samples_compared);
    prop_assert_eq!(traced.pipelined_cycles, untraced.pipelined_cycles);
    prop_assert_eq!(traced.unpipelined_cycles, untraced.unpipelined_cycles);
    prop_assert_eq!(traced.bdd_nodes, untraced.bdd_nodes);
    prop_assert_eq!(traced.bdd_peak_live, untraced.bdd_peak_live);
    prop_assert_eq!(traced.bdd_vars, untraced.bdd_vars);
    prop_assert_eq!(&traced.filters, &untraced.filters);
    prop_assert_eq!(&traced.counterexample, &untraced.counterexample);
    prop_assert_eq!(&traced.metrics, &untraced.metrics);
    Ok(())
}

proptest! {
    #[test]
    fn traced_and_untraced_runs_produce_identical_plan_reports(
        depth in 2usize..4,
        delay_slots in 0usize..2,
        plan_sel in 0usize..16,
    ) {
        let _guard = TRACE_LOCK.lock().unwrap();
        let config = FamilyConfig::new(depth, 4, 2, delay_slots);
        let pipelined = family::pipelined(config).expect("build pipelined");
        let unpipelined = family::unpipelined(config).expect("build unpipelined");
        let spec = MachineSpec::family(depth, 4, 2, delay_slots);
        let verifier = Verifier::new(spec).with_threads(1);
        let plans = verifier.default_plans();
        let plan = &plans[plan_sel % plans.len()];

        pv_obs::set_trace_enabled(false);
        pv_obs::take_events(); // drop anything a previous case buffered
        let untraced = verifier
            .verify_plan(&pipelined, &unpipelined, plan)
            .expect("untraced verify");

        pv_obs::set_trace_enabled(true);
        let traced = verifier
            .verify_plan(&pipelined, &unpipelined, plan)
            .expect("traced verify");
        pv_obs::set_trace_enabled(false);
        let events = pv_obs::take_events();

        // Field-identical reports: tracing must be observationally free.
        prop_assert_eq!(traced.plan_reports.len(), 1);
        prop_assert_eq!(untraced.plan_reports.len(), 1);
        assert_deterministic_fields_eq(&traced.plan_reports[0], &untraced.plan_reports[0])?;
        prop_assert_eq!(&traced.metrics, &untraced.metrics);
        prop_assert_eq!(traced.equivalent(), untraced.equivalent());

        // The traced run must actually have traced something, and the
        // emitted JSONL must round-trip and bracket correctly.
        prop_assert!(!events.is_empty(), "traced run emitted no events");
        let jsonl = trace_io::render_jsonl(&events);
        let parsed = trace_io::parse_jsonl(&jsonl).expect("emitted JSONL must parse");
        prop_assert_eq!(parsed.len(), events.len());
        let completed = pv_obs::fold::check_nesting(&parsed)
            .map_err(|e| TestCaseError::fail(format!("span nesting violated: {e}")))?;
        prop_assert!(completed > 0, "no completed spans in the traced run");
    }
}
