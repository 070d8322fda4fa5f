//! One stallable netlist, two verification flows, one report shape.
//!
//! The stallable reduced VSM (a `stall` input added to the Figure 12
//! pipeline; bit-identical to it when un-stalled) runs through **both** of
//! the repository's verification flows, and each flow's report is rendered
//! into the shared `FlowReport`:
//!
//! * the **β-relation** flow simulates the pipelined and unpipelined
//!   netlists bit-level and compares the sampled observed variables as
//!   ROBDDs (the thesis's methodology);
//! * the **flushing** flow derives a term-level pipeline description from
//!   the same pipelined netlist (stall port, stage-valid registers,
//!   forwarding paths) and decides the Burch–Dill commuting diagram in EUF.
//!   Each design derives its own model, so the bugged design below yields
//!   the bugged term model.
//!
//! Both verdicts must agree: PASS on the correct design, FAIL with a
//! counterexample on the design seeded with the forwarding bug — which the
//! bit-level flow sees as stale operand values and the term-level flow sees
//! as a broken commuting diagram.
//!
//! Run with `cargo run --release --example both_flows`.

use pipeverify::core::{MachineSpec, Verifier};
use pipeverify::flush::FlushVerifier;
use pipeverify::proc::vsm::{self, VsmBug, VsmConfig};

/// Register count of the reduced verification model (Section 6.2).
const REGS: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = VsmConfig::reduced(REGS).stallable();
    let unpipelined = vsm::unpipelined(config)?;
    let spec = MachineSpec::vsm_reduced(REGS).with_stall_port("stall");

    let beta = Verifier::new(spec);

    for (title, bug, expect_pass) in [
        ("correct stallable VSM", None, true),
        (
            "stallable VSM with the forwarding (bypass) network removed",
            Some(VsmBug::NoBypass),
            false,
        ),
    ] {
        println!("=== {title} ===\n");
        let pipelined = vsm::pipelined(VsmConfig { bug, ..config })?;
        let reports = [
            beta.verify(&pipelined, &unpipelined)?.to_flow_report(),
            FlushVerifier::from_netlist(&pipelined)?
                .verify()
                .to_flow_report(),
        ];
        let mut verdicts = Vec::new();
        for report in reports {
            print!("{report}");
            println!();
            verdicts.push(report.equivalent);
        }
        assert!(
            verdicts.iter().all(|&v| v == expect_pass),
            "the two flows must agree (expected pass = {expect_pass}, got {verdicts:?})"
        );
        println!(
            "--> both flows agree: {}\n",
            if expect_pass {
                "EQUIVALENT"
            } else {
                "NOT EQUIVALENT (counterexamples above)"
            }
        );
    }
    Ok(())
}
