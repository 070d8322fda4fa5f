//! The annulment-leak stop of the β-relation flow: a plan whose pipelined
//! sample reads an annulled delay slot's don't-care variables fails without
//! simulating past that sample, and reports exactly the counterexample the
//! full run reports. PASS plans — including plans with annulled slots — do
//! the same BDD work as before.
//!
//! The literals below were recorded from the full (non-stopping) run.

use pipeverify::core::{FlowReport, MachineSpec, Verifier};
use pipeverify::proc::family::{self, FamilyBug, FamilyConfig};

/// The depth-4, 4-bit, 2-register member with one delay slot.
fn config() -> FamilyConfig {
    FamilyConfig::new(4, 4, 2, 1).stallable()
}

fn beta_report(bug: Option<FamilyBug>) -> (FlowReport, bool) {
    let base = config();
    let implementation = bug.map_or(base, |bug| base.with_bug(bug));
    let pipelined = family::pipelined(implementation).expect("build pipelined");
    let unpipelined = family::unpipelined(base).expect("build unpipelined");
    let verifier = Verifier::new(MachineSpec::family(
        base.depth,
        base.word_width,
        base.num_regs,
        base.delay_slots,
    ));
    let report = verifier
        .verify(&pipelined, &unpipelined)
        .expect("the family pair verifies")
        .to_flow_report();
    let replayed = report
        .replay(&pipelined, &unpipelined)
        .is_some_and(|r| r.diverged && r.matches_report);
    (report, replayed)
}

/// Input rows from reset: cycle 0 asserts `reset`, every other cycle feeds
/// the given instruction word; `stall` (pipelined only) is held at 0.
fn rows(instructions: &[u64], stall: bool) -> Vec<Vec<(String, u64)>> {
    instructions
        .iter()
        .enumerate()
        .map(|(cycle, &instr)| {
            let mut row = vec![
                ("instr".to_owned(), instr),
                ("reset".to_owned(), u64::from(cycle == 0)),
            ];
            if stall {
                row.push(("stall".to_owned(), 0));
            }
            row
        })
        .collect()
}

#[test]
fn a_lost_annulment_keeps_its_counterexample_and_allocates_less() {
    let (report, replayed) = beta_report(Some(FamilyBug::LostAnnul));
    assert!(!report.equivalent);
    assert!(report.complete());
    assert_eq!(report.units_checked, 2);
    assert_eq!(report.checks, 16);
    let cex = report.counterexample.as_ref().expect("a counterexample");
    assert_eq!(cex.unit, 1);
    assert_eq!(
        cex.description,
        "after instruction slot 1 of [21, 1f, 0, 0], `r0` = 0x1 in the \
         implementation but 0x0 in the specification"
    );
    let recipe = cex
        .replay
        .as_ref()
        .expect("a β counterexample has a recipe");
    // Cycle 2 is the annulled slot after the branch in slot 0: its fresh
    // variables' witness value (0x1e) is what leaks into `r0`.
    assert_eq!(
        recipe.pipelined_inputs,
        rows(&[0, 0x21, 0x1e, 0x1f, 0, 0, 0, 0, 0, 0], true)
    );
    assert_eq!(
        recipe.unpipelined_inputs,
        rows(
            &[0, 0x21, 0, 0, 0, 0x1f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            false
        )
    );
    assert_eq!(recipe.pipelined_sample_cycle, 7);
    assert_eq!(recipe.unpipelined_sample_cycle, 9);
    assert_eq!(recipe.variable, "r0");
    assert_eq!((recipe.pipelined_value, recipe.unpipelined_value), (1, 0));
    assert!(replayed, "the counterexample must replay concretely");
    // The full run allocates 29,730 nodes; the failing plan stops at slot
    // 1's sample instead of draining the pipeline.
    assert!(
        report.space < 29_730,
        "no early stop: {} BDD nodes",
        report.space
    );
}

#[test]
fn a_correct_design_with_annulled_slots_does_the_same_bdd_work() {
    let (report, _) = beta_report(None);
    assert!(report.equivalent, "{report}");
    assert!(report.complete());
    assert_eq!(report.units_checked, 5);
    assert_eq!(report.checks, 60);
    assert_eq!(report.space, 6_553);
}
