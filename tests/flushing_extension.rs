//! Integration test for the Burch–Dill flushing extension (`pv-flush`) and
//! its relationship to the β-relation flow: both methods accept the correct
//! designs and both reject control bugs, but they work at different levels of
//! abstraction (uninterpreted terms vs. bit-level netlists). The cross-flow
//! agreement on one shared netlist is asserted by `tests/cross_flow.rs`.

use pipeverify::flush::{check_valid, FlushVerifier, PipelineBug, PipelineDesc, Sort, TermManager};

#[test]
fn the_commuting_diagram_holds_for_the_correct_pipeline() {
    let report = FlushVerifier::new(PipelineDesc::three_stage()).verify();
    assert!(report.valid(), "{report}");
    // The check is a single EUF validity query over a few dozen atoms, not a
    // cycle-by-cycle simulation.
    assert!(
        report.terms < 10_000,
        "term count stays small: {}",
        report.terms
    );
}

#[test]
fn control_bugs_break_the_commuting_diagram_with_counterexamples() {
    for bug in [
        PipelineBug::NoForwarding,
        PipelineBug::ForwardAlways,
        PipelineBug::WriteBackBubbles,
        PipelineBug::StuckPc,
    ] {
        let report = FlushVerifier::new(PipelineDesc::three_stage().with_bug(bug)).verify();
        assert!(!report.valid(), "{bug:?} must be rejected");
        let cex = report.counterexample.expect("counterexample");
        assert!(!cex.assignments.is_empty());
        // Every counterexample names at least one atom over the symbolic
        // starting state or the fetched instruction.
        assert!(
            cex.assignments
                .iter()
                .any(|a| a.atom.contains("s.") || a.atom.contains("i.")),
            "{bug:?}: {cex}"
        );
    }
}

#[test]
fn the_flush_bound_follows_the_depth() {
    // The commuting diagram holds at every modelled depth (the per-depth
    // sweep including the injected bugs is `crates/flush/tests/depths.rs`);
    // here we pin the depth → flush-bound law the schedule derives from.
    for depth in 2..=5 {
        assert_eq!(PipelineDesc::with_depth(depth).flush_bound(), depth - 1);
    }
    let report = FlushVerifier::new(PipelineDesc::with_depth(4)).verify();
    assert!(report.valid(), "{report}");
}

#[test]
fn the_depth_12_case_split_count_is_pinned() {
    // The EUF search's cost on a deep straight pipeline, on one worker and
    // on a pool: the count is thread-count-independent, and it drops only
    // when the search skips subtrees that hold no model.
    for threads in [1, 2] {
        let report = FlushVerifier::new(PipelineDesc::with_depth(12))
            .with_threads(threads)
            .verify();
        assert!(report.valid(), "{report}");
        assert_eq!(report.splits, 14_134, "{threads} worker(s)");
        assert_eq!(report.closure_checks, 14_134, "{threads} worker(s)");
    }
}

#[test]
fn the_euf_checker_decides_textbook_properties() {
    let mut t = TermManager::new();
    let a = t.var("a", Sort::Data);
    let b = t.var("b", Sort::Data);
    let c = t.var("c", Sort::Data);
    // Functional consistency through two applications.
    let ga = t.app("g", &[a, c]);
    let gb = t.app("g", &[b, c]);
    let ab = t.eq(a, b);
    let gagb = t.eq(ga, gb);
    let vc = t.implies(ab, gagb);
    assert!(check_valid(&mut t, vc).valid());
    // A property that genuinely depends on interpreting `+` is NOT valid in
    // EUF: commutativity of an uninterpreted `g`.
    let gab = t.app("g", &[a, b]);
    let gba = t.app("g", &[b, a]);
    let commut = t.eq(gab, gba);
    assert!(!check_valid(&mut t, commut).valid());
}
