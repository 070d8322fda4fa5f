//! Depth-parametric properties of the flushing flow: the commuting diagram
//! holds at every modelled depth, the injected control bugs break it wherever
//! the logic they corrupt exists, and the parallel EUF case split is
//! report-identical to the sequential one for any thread count.
//!
//! Depths 2–5 are exercised property-style in every build; the deeper sweep
//! rides `--release`-only per the test-budget rule (the case-split cost grows
//! roughly 5× per two stages of depth — see the `exp_flushing` bench).

use std::time::Duration;

use pipeverify_core::Budget;
use proptest::prelude::*;
use pv_flush::{FlushReport, FlushVerifier, PipelineBug, PipelineDesc};

const BUGS: [PipelineBug; 5] = [
    PipelineBug::NoForwarding,
    PipelineBug::ForwardAlways,
    PipelineBug::WriteBackBubbles,
    PipelineBug::StuckPc,
    PipelineBug::StallInverted,
];

/// Whether `bug` is expected to break the commuting diagram at `depth`.
///
/// * The forwarding bugs corrupt the bypass network, which only exists once
///   there is an in-flight window (depth ≥ 3): a depth-2 pipeline has
///   retired every older instruction before the next operand read.
/// * `WriteBackBubbles` also needs depth ≥ 3: Burch–Dill's abstraction
///   function runs the *same* (buggy) implementation on both legs, and at
///   depth 2 the spurious write of the single in-flight latch lands
///   identically on each leg — the asymmetry only appears once flushing's
///   injected bubbles occupy latches at different offsets on the two legs.
/// * `StuckPc` breaks at every depth: the specification step advances the PC
///   unconditionally.
fn breaks_at(bug: PipelineBug, depth: usize) -> bool {
    match bug {
        PipelineBug::NoForwarding | PipelineBug::ForwardAlways | PipelineBug::WriteBackBubbles => {
            depth >= 3
        }
        // An inverted stall condition means flushing's bubbles are *accepted*
        // — the machine can never drain, at any depth.
        PipelineBug::StuckPc | PipelineBug::StallInverted => true,
        // These corrupt branch logic, which the straight-line descriptions
        // this sweep builds do not have (`crates/flush/src/flushing.rs` unit
        // tests pin them on branching/annulling descriptions).
        PipelineBug::BranchTargetOffByOne | PipelineBug::LostAnnul => false,
    }
}

proptest! {
    #[test]
    fn the_commuting_diagram_holds_at_depths_2_to_5(depth in 2usize..6, threads in 1usize..5) {
        let report = FlushVerifier::new(PipelineDesc::with_depth(depth))
            .with_threads(threads)
            .verify();
        prop_assert!(report.valid());
        prop_assert_eq!(report.cubes_checked, report.cubes);
    }

    #[test]
    fn injected_bugs_break_the_diagram_wherever_their_logic_exists(
        depth in 2usize..6,
        bug_index in 0usize..5,
    ) {
        let bug = BUGS[bug_index];
        let desc = PipelineDesc::with_depth(depth).with_bug(bug);
        let report = FlushVerifier::new(desc).verify();
        prop_assert_eq!(!report.valid(), breaks_at(bug, depth));
        if breaks_at(bug, depth) {
            let cex = report.counterexample.expect("counterexample");
            prop_assert!(!cex.assignments.is_empty());
        }
    }

    /// The deterministic-merge guarantee, property-style: every report field
    /// except the wall times and `threads_used` is identical between the
    /// sequential run and a pool of any size — correct or bugged, and with
    /// a cancelled budget, whose degraded report must not depend on the
    /// worker count either.
    #[test]
    fn parallel_case_splits_are_report_identical_to_sequential(
        depth in 2usize..6,
        threads in 2usize..9,
        bug_index in 0usize..6,
        cancelled in any::<bool>(),
    ) {
        let mut desc = PipelineDesc::with_depth(depth);
        if bug_index < 5 {
            desc = desc.with_bug(BUGS[bug_index]);
        }
        let run = |threads: usize| {
            let mut verifier = FlushVerifier::new(desc.clone()).with_threads(threads);
            if cancelled {
                let budget = Budget::unlimited();
                budget.cancel();
                verifier = verifier.with_budget(budget);
            }
            deterministic_fields(verifier.verify())
        };
        let seq = run(1);
        prop_assert_eq!(seq.complete(), !cancelled);
        prop_assert_eq!(run(threads), seq);
    }
}

/// A report with its nondeterministic fields (wall times, worker count)
/// blanked, so whole reports compare for equality.
fn deterministic_fields(report: FlushReport) -> FlushReport {
    FlushReport {
        threads_used: 0,
        wall_time: Duration::ZERO,
        cube_walls: vec![Duration::ZERO; report.cube_walls.len()],
        ..report
    }
}

/// The deeper sweep: the case-split cost grows steeply with depth, so this
/// rides `--release`-only (CI runs it optimised in a dedicated step).
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: deep-pipeline case splits are too slow unoptimised"
)]
#[test]
fn deep_pipelines_verify_and_stay_deterministic() {
    for depth in [6, 8, 10] {
        let seq = FlushVerifier::new(PipelineDesc::with_depth(depth))
            .with_threads(1)
            .verify();
        assert!(seq.valid(), "depth {depth}: {seq}");
        let par = FlushVerifier::new(PipelineDesc::with_depth(depth))
            .with_threads(4)
            .verify();
        assert_eq!(par.splits, seq.splits, "depth {depth}");
        assert_eq!(par.closure_checks, seq.closure_checks, "depth {depth}");
        assert_eq!(par.counterexample, seq.counterexample, "depth {depth}");
        // The bug sweep deepens with the design: a dropped bypass network is
        // caught however long the in-flight window it should have covered.
        let bugged = PipelineDesc::with_depth(depth).with_bug(PipelineBug::NoForwarding);
        assert!(
            !FlushVerifier::new(bugged).verify().valid(),
            "depth {depth}"
        );
    }
}

/// The three description shapes the golden search test covers.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Straight,
    Branching,
    Annulling,
}

/// The EUF search itself, pinned at depth 6: for every shape, the correct
/// design and each injected bug, the verdict, the split and closure-check
/// counts, the failing cube and the counterexample text. The values were
/// recorded from the engine before its hot path was made allocation-free,
/// which had to reproduce every decision of the search.
#[test]
fn the_depth_6_search_is_pinned_on_every_shape_and_bug() {
    type Golden = (
        Shape,
        Option<PipelineBug>,
        bool,
        usize,
        usize,
        Option<usize>,
        Option<&'static str>,
    );
    #[rustfmt::skip]
    const GOLDEN: [Golden; 24] = [
        (Shape::Straight, None, true, 568, 568, None, None),
        (Shape::Straight, Some(PipelineBug::NoForwarding), false, 10, 11, Some(0), Some("(= i.dest observed_index) := true, s.res3_valid := true, (= s.res3_dest i.src1) := true, (= s.res3_dest i.src2) := true, s.ex_valid := true, (= s.ex_dest observed_index) := true, (= s.ex_dest i.src1) := true, (= s.ex_dest i.src2) := true, (= (alu i.op s.res3_value s.res3_value) (alu i.op (alu s.ex_op s.ex_a s.ex_b) (alu s.ex_op s.ex_a s.ex_b))) := false")),
        (Shape::Straight, Some(PipelineBug::ForwardAlways), false, 12, 13, Some(0), Some("(= i.dest observed_index) := true, s.ex_valid := true, s.res0_valid := true, s.res1_valid := true, s.res2_valid := true, s.res3_valid := true, (= s.ex_dest i.src1) := true, (= s.ex_dest i.src2) := false, (= s.res0_dest i.src2) := true, (= (alu i.op (alu s.ex_op s.ex_a s.ex_b) (alu s.ex_op s.ex_a s.ex_b)) (alu i.op (alu s.ex_op s.ex_a s.ex_b) s.res0_value)) := false")),
        (Shape::Straight, Some(PipelineBug::WriteBackBubbles), false, 18, 19, Some(0), Some("(= i.dest observed_index) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.res0_valid := true, (= s.res0_dest i.src1) := true, s.res1_valid := true, (= s.ex_dest i.src2) := false, (= s.res0_dest i.src2) := false, (= s.res1_dest i.src2) := false, (= s.res2_dest i.src2) := true, s.res2_valid := false, (= s.res3_dest i.src2) := true, (= (alu i.op (alu s.ex_op s.ex_a s.ex_b) s.res2_value) (alu i.op (alu s.ex_op s.ex_a s.ex_b) s.res3_value)) := false")),
        (Shape::Straight, Some(PipelineBug::StuckPc), false, 9, 10, Some(0), Some("(= i.dest observed_index) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.res0_valid := true, (= s.res0_dest i.src1) := true, s.res1_valid := true, (= s.ex_dest i.src2) := true, (= s.pc (succ s.pc)) := false")),
        (Shape::Straight, Some(PipelineBug::StallInverted), false, 12, 13, Some(0), Some("s.ex_valid := true, (= s.ex_dest observed_index) := true, s.res0_valid := true, (= s.res0_dest observed_index) := true, s.res1_valid := true, (= s.res1_dest observed_index) := true, (= i.dest observed_index) := true, (= s.ex_dest i.src1) := true, (= s.ex_dest i.src2) := true, (= (alu s.ex_op s.ex_a s.ex_b) (alu i.op (alu s.ex_op s.ex_a s.ex_b) (alu s.ex_op s.ex_a s.ex_b))) := true, (= (succ (succ (succ (succ (succ s.pc))))) (succ (succ (succ (succ (succ (succ s.pc))))))) := false")),
        (Shape::Straight, Some(PipelineBug::BranchTargetOffByOne), true, 568, 568, None, None),
        (Shape::Straight, Some(PipelineBug::LostAnnul), true, 568, 568, None, None),
        (Shape::Branching, None, true, 668, 668, None, None),
        (Shape::Branching, Some(PipelineBug::NoForwarding), false, 107, 108, Some(16), Some("(= i.dest observed_index) := true, (= i.op opbr) := false, s.res3_valid := true, (= s.res3_dest i.src1) := true, (= s.res3_dest i.src2) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.ex_is_br := true, (= s.ex_dest i.src2) := true, (= (alu i.op s.res3_value s.res3_value) (alu i.op s.ex_link s.ex_link)) := false")),
        (Shape::Branching, Some(PipelineBug::ForwardAlways), false, 108, 109, Some(16), Some("(= i.dest observed_index) := true, (= i.op opbr) := false, s.ex_valid := true, s.ex_is_br := true, s.res0_valid := true, s.res1_valid := true, (= s.ex_dest i.src1) := true, (= s.ex_dest i.src2) := false, (= s.res0_dest i.src2) := true, (= (alu i.op s.ex_link s.ex_link) (alu i.op s.ex_link s.res0_value)) := false")),
        (Shape::Branching, Some(PipelineBug::WriteBackBubbles), false, 113, 114, Some(16), Some("(= i.dest observed_index) := true, (= i.op opbr) := false, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.ex_is_br := true, s.res0_valid := true, (= s.ex_dest i.src2) := false, (= s.res0_dest i.src2) := false, (= s.res1_dest i.src2) := true, s.res1_valid := false, s.res2_valid := true, (= s.res2_dest i.src2) := true, (= (alu i.op s.ex_link s.res1_value) (alu i.op s.ex_link s.res2_value)) := false")),
        (Shape::Branching, Some(PipelineBug::StuckPc), false, 8, 9, Some(0), Some("(= i.dest observed_index) := true, (= i.op opbr) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.ex_is_br := true, s.res0_valid := true, (= s.pc (btgt (succ s.pc) i.src1)) := false")),
        (Shape::Branching, Some(PipelineBug::StallInverted), false, 16, 17, Some(0), Some("s.ex_valid := true, (= s.ex_dest observed_index) := true, s.ex_is_br := true, s.res0_valid := true, (= s.res0_dest observed_index) := true, s.res1_valid := true, (= i.dest observed_index) := true, (= i.op opbr) := true, (= opbr flushbubble4.op) := true, (= opbr flushbubble3.op) := true, (= opbr flushbubble2.op) := true, (= opbr flushbubble1.op) := true, (= opbr flushbubble0.op) := true, (= s.ex_link (succ (btgt (succ (btgt (succ (btgt (succ (btgt (succ (btgt (succ s.pc) flushbubble0.src1)) flushbubble1.src1)) flushbubble2.src1)) flushbubble3.src1)) flushbubble4.src1))) := true, (= (btgt (succ (btgt (succ (btgt (succ (btgt (succ (btgt (succ s.pc) flushbubble0.src1)) flushbubble1.src1)) flushbubble2.src1)) flushbubble3.src1)) flushbubble4.src1) (btgt (succ (btgt (succ (btgt (succ (btgt (succ (btgt (succ (btgt (succ s.pc) flushbubble0.src1)) flushbubble1.src1)) flushbubble2.src1)) flushbubble3.src1)) flushbubble4.src1)) i.src1)) := false")),
        (Shape::Branching, Some(PipelineBug::BranchTargetOffByOne), false, 8, 9, Some(0), Some("(= i.dest observed_index) := true, (= i.op opbr) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.ex_is_br := true, s.res0_valid := true, (= (btgt s.pc i.src1) (btgt (succ s.pc) i.src1)) := false")),
        (Shape::Branching, Some(PipelineBug::LostAnnul), true, 668, 668, None, None),
        (Shape::Annulling, None, true, 602, 602, None, None),
        (Shape::Annulling, Some(PipelineBug::NoForwarding), false, 131, 132, Some(20), Some("s.ex_valid := true, s.ex_is_br := false, (= i.dest observed_index) := true, (= i.op opbr) := false, s.res3_valid := true, (= s.res3_dest i.src1) := true, (= s.res3_dest i.src2) := true, (= s.ex_dest i.src1) := true, (= s.ex_dest i.src2) := true, (= (alu i.op s.res3_value s.res3_value) (alu i.op (alu s.ex_op s.ex_a s.ex_b) (alu s.ex_op s.ex_a s.ex_b))) := false")),
        (Shape::Annulling, Some(PipelineBug::ForwardAlways), false, 132, 133, Some(20), Some("s.ex_valid := true, s.ex_is_br := false, (= i.dest observed_index) := true, (= i.op opbr) := false, s.res0_valid := true, s.res1_valid := true, (= s.ex_dest i.src1) := true, (= s.ex_dest i.src2) := false, (= s.res0_dest i.src2) := true, (= (alu i.op (alu s.ex_op s.ex_a s.ex_b) (alu s.ex_op s.ex_a s.ex_b)) (alu i.op (alu s.ex_op s.ex_a s.ex_b) s.res0_value)) := false")),
        (Shape::Annulling, Some(PipelineBug::WriteBackBubbles), false, 9, 10, Some(0), Some("(= i.dest observed_index) := true, (= i.op opbr) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.ex_is_br := true, s.res0_valid := true, (= s.ex_dest observed_index) := true, (= s.ex_link (succ s.pc)) := false")),
        (Shape::Annulling, Some(PipelineBug::StuckPc), false, 104, 105, Some(16), Some("s.ex_valid := true, s.ex_is_br := false, (= i.dest observed_index) := true, (= i.op opbr) := true, (= s.ex_dest i.src1) := true, s.res0_valid := true, (= s.pc (btgt (succ s.pc) i.src1)) := false")),
        (Shape::Annulling, Some(PipelineBug::StallInverted), false, 12, 13, Some(0), Some("s.ex_valid := true, (= s.ex_dest observed_index) := true, s.ex_is_br := true, s.res0_valid := true, (= s.res0_dest observed_index) := true, s.res1_valid := true, (= opbr flushbubble1.op) := true, (= opbr flushbubble3.op) := true, (= opbr flushbubble0.op) := true, (= opbr flushbubble2.op) := true, (= (btgt (succ (btgt (succ s.ex_tgt) flushbubble1.src1)) flushbubble3.src1) (succ (btgt (succ (btgt (succ s.ex_tgt) flushbubble0.src1)) flushbubble2.src1))) := false")),
        (Shape::Annulling, Some(PipelineBug::BranchTargetOffByOne), false, 104, 105, Some(16), Some("s.ex_valid := true, s.ex_is_br := false, (= i.dest observed_index) := true, (= i.op opbr) := true, (= s.ex_dest i.src1) := true, s.res0_valid := true, (= (btgt s.pc i.src1) (btgt (succ s.pc) i.src1)) := false")),
        (Shape::Annulling, Some(PipelineBug::LostAnnul), false, 10, 11, Some(0), Some("(= i.dest observed_index) := true, (= i.op opbr) := true, s.ex_valid := true, (= s.ex_dest i.src1) := true, s.ex_is_br := true, s.res0_valid := true, (= s.ex_dest observed_index) := true, (= s.ex_link (succ s.pc)) := true, (= s.ex_tgt (btgt (succ s.pc) i.src1)) := false")),
    ];
    for (shape, bug, valid, splits, closure_checks, failing_cube, cex) in GOLDEN {
        let mut desc = PipelineDesc::with_depth(6);
        if let Shape::Branching | Shape::Annulling = shape {
            desc = desc.with_branching();
        }
        if let Shape::Annulling = shape {
            desc = desc.with_annulment();
        }
        if let Some(bug) = bug {
            desc = desc.with_bug(bug);
        }
        let report = FlushVerifier::new(desc).verify();
        let case = format!("{shape:?} {bug:?}");
        assert_eq!(report.valid(), valid, "{case}");
        assert_eq!(report.splits, splits, "{case}");
        assert_eq!(report.closure_checks, closure_checks, "{case}");
        assert_eq!(report.failing_cube, failing_cube, "{case}");
        assert_eq!(
            report.counterexample.map(|c| c.to_string()).as_deref(),
            cex,
            "{case}"
        );
    }
}
