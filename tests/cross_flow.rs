//! Cross-flow agreement: **one stallable netlist, two verification flows,
//! matching verdicts** — each flow's report rendered into the shared
//! `FlowReport` shape.
//!
//! The stallable reduced VSM runs through the β-relation flow (bit-level
//! symbolic simulation of the netlist pair) and through the flushing flow
//! (term-level commuting diagram over the pipeline description derived from
//! the *same* pipelined netlist). Both must pass on the correct design and
//! both must fail — with a counterexample — on the design seeded with the
//! forwarding bug, which the bit-level flow sees as stale operand values and
//! the term-level flow inherits through the netlist's recorded forwarding
//! hints.

use pipeverify::core::{FlowReport, MachineSpec, Verifier};
use pipeverify::flush::{DeriveError, FlushVerifier, PipelineDesc};
use pipeverify::netlist::Netlist;
use pipeverify::proc::vsm::{self, VsmBug, VsmConfig};

/// Register count of the reduced verification model (Section 6.2).
const REGS: usize = 2;

fn stallable(bug: Option<VsmBug>) -> VsmConfig {
    VsmConfig {
        bug,
        ..VsmConfig::reduced(REGS).stallable()
    }
}

/// Both flows' reports on one design pair, in the shared shape: the
/// β-relation's default plan sweep over the pair and the flushing check of
/// the model derived from the pipelined netlist.
fn flow_reports(pipelined: &Netlist, unpipelined: &Netlist) -> [FlowReport; 2] {
    let beta = Verifier::new(MachineSpec::vsm_reduced(REGS).with_stall_port("stall"))
        .verify(pipelined, unpipelined)
        .expect("the stallable VSM pair is well-formed");
    let flushing = FlushVerifier::from_netlist(pipelined).expect("derive");
    [beta.to_flow_report(), flushing.verify().to_flow_report()]
}

#[test]
fn both_flows_accept_the_correct_stallable_vsm() {
    let pipelined = vsm::pipelined(stallable(None)).expect("build");
    let unpipelined = vsm::unpipelined(stallable(None)).expect("build");
    let reports = flow_reports(&pipelined, &unpipelined);
    for (report, name) in reports.iter().zip(["beta-relation", "flushing"]) {
        assert_eq!(report.flow, name);
        assert!(report.equivalent, "{name} must accept: {report}");
        assert!(report.counterexample.is_none(), "{name}");
        assert!(report.units_checked > 0 && report.checks > 0, "{name}");
        assert_eq!(report.unit_walls.len(), report.units_checked, "{name}");
    }
}

#[test]
fn both_flows_reject_the_seeded_forwarding_bug_with_counterexamples() {
    // The flushing model is derived from the bugged netlist, which carries
    // `NoForwarding` into the term model.
    let pipelined = vsm::pipelined(stallable(Some(VsmBug::NoBypass))).expect("build");
    let unpipelined = vsm::unpipelined(stallable(None)).expect("build");
    for report in flow_reports(&pipelined, &unpipelined) {
        let name = report.flow;
        assert!(!report.equivalent, "{name} must reject the bug: {report}");
        let cex = report
            .counterexample
            .unwrap_or_else(|| panic!("{name}: a failing flow must carry a counterexample"));
        assert!(!cex.description.is_empty(), "{name}");
        // The failing unit index is deterministic for any worker count.
        assert_eq!(cex.unit + 1, report.units_checked, "{name}");
    }
}

#[test]
fn the_flushing_flow_requires_the_stallable_design() {
    // The un-stallable Figure 12 netlist still verifies under the β-relation
    // flow but derives no flushing model: without a stall input there is
    // nothing to drain the pipeline with.
    let pipelined = vsm::pipelined(VsmConfig::reduced(REGS)).expect("build");
    let err = FlushVerifier::from_netlist(&pipelined).expect_err("no stall input");
    assert!(matches!(err, DeriveError::NoStallInput { .. }), "{err}");
}

#[test]
fn the_derived_description_matches_the_netlist_structure() {
    // The stallable VSM has three in-flight latches (RF, EX, WB), so the
    // derived term pipeline has depth 4 and drains in three bubble cycles —
    // exactly the drain count the concrete pv-proc tests use.
    let pipelined = vsm::pipelined(stallable(None)).expect("build");
    let desc = PipelineDesc::from_netlist(&pipelined).expect("derive");
    assert_eq!(desc.depth, 4);
    assert_eq!(desc.flush_bound(), 3);
    assert_eq!(desc.bug, None);
    let buggy = vsm::pipelined(stallable(Some(VsmBug::NoBypass))).expect("build");
    let desc = PipelineDesc::from_netlist(&buggy).expect("derive");
    assert!(
        desc.bug.is_some(),
        "the dropped bypass network must surface"
    );
}
