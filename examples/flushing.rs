//! The Burch–Dill flushing method on a bit-level design (see `DESIGN.md`):
//! the pipeline description is **derived from the stallable VSM netlist** —
//! the same netlist the β-relation flow simulates bit-level — the commuting
//! diagram is decided in EUF, with the independent case-split blocks fanned
//! out over the shared worker pool, and the result is printed in the
//! `FlowReport` shape both flows share.
//!
//! The example then drops to the term level: the classic three-stage model
//! (the depth-3 instantiation of the depth-parametric pipeline) is checked
//! for the correct design and for every injectable control bug, printing the
//! counterexample assignments the EUF checker returns.
//!
//! Run with `cargo run --release --example flushing`.

use pipeverify::flush::{FlushVerifier, PipelineBug, PipelineDesc, TermManager};
use pipeverify::proc::vsm::{self, VsmConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Burch–Dill flushing verification (term level, uninterpreted ALU) ===\n");

    // ---- the model derived from a netlist ----------------------------------
    let pipelined = vsm::pipelined(VsmConfig::reduced(2).stallable())?;
    let derived = FlushVerifier::from_netlist(&pipelined)?;
    println!(
        "derived from `{}`: {:?} (flush bound {})\n",
        pipelined.name(),
        derived.desc(),
        derived.desc().flush_bound()
    );
    let flow_report = derived.verify().to_flow_report();
    print!("{flow_report}");
    assert!(flow_report.equivalent);

    // ---- the depth-3 term model, checked directly --------------------------
    let correct = FlushVerifier::new(PipelineDesc::three_stage());
    let mut terms = TermManager::new();
    let vc = correct.verification_condition(&mut terms);
    println!(
        "\nthree-stage verification condition: {} distinct terms, {} Boolean atoms\n",
        terms.len(),
        terms.atoms(vc).len()
    );

    let report = correct.verify();
    print!("{report}");
    assert!(report.valid());

    println!("\n--- injected control bugs ---");
    for bug in [
        PipelineBug::NoForwarding,
        PipelineBug::ForwardAlways,
        PipelineBug::WriteBackBubbles,
        PipelineBug::StuckPc,
    ] {
        let report = FlushVerifier::new(PipelineDesc::three_stage().with_bug(bug)).verify();
        assert!(!report.valid(), "{bug:?} must be rejected");
        let cex = report.counterexample.expect("counterexample");
        println!("\n{bug:?}: commuting diagram violated under");
        println!("  {cex}");
        println!(
            "  ({} case splits, {} congruence-closure checks)",
            report.splits, report.closure_checks
        );
    }

    println!("\nAll four control bugs were rejected; the correct design was accepted.");
    Ok(())
}
