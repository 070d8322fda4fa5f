//! Cross-checks between the symbolic verifier's schedules and independent
//! machinery: the conventional random-simulation baseline must agree with the
//! β-relation verdicts, the product-machine procedure of Section 3.4 must
//! show that *strict* I/O equivalence does not hold between a pipelined and
//! an unpipelined machine (which is exactly why the β-relation is needed),
//! and the β-relation of Chapter 2 must hold directly on the concrete
//! netlist traces.

use pipeverify::core::{
    product_equivalence, random_simulation, Budget, MachineSpec, SimulationPlan, Slot, Verifier,
    VerifyError,
};
use pipeverify::isa::vsm::{VsmInstr, VsmOp};
use pipeverify::netlist::{Netlist, NetlistBuilder};
use pipeverify::proc::family::{self, FamilyConfig};
use pipeverify::proc::vsm::{self, VsmBug, VsmConfig};
use rand::prelude::*;

/// A small synchronous machine for the Section 3.4 product-machine baseline:
/// a `width`-bit accumulator whose output is optionally delayed by one cycle.
/// (Running the product-machine procedure on the processors themselves is
/// exactly the exhaustive state-space traversal that Chapter 4 shows the
/// methodology does not need — and it does indeed exhaust BDD capacity, which
/// is why the baseline is demonstrated on a machine it can finish.)
fn accumulator(width: usize, delayed_output: bool) -> Netlist {
    let mut b = NetlistBuilder::new(if delayed_output { "acc-delayed" } else { "acc" });
    let input = b.input("in", width);
    let acc = b.register("acc", width, 0);
    let sum = b.wadd(&acc.value(), &input);
    b.set_next(&acc, &sum);
    if delayed_output {
        let out = b.register("out", width, 0);
        b.set_next(&out, &acc.value());
        b.expose("value", &out.value());
    } else {
        b.expose("value", &acc.value());
    }
    b.finish().expect("valid netlist")
}

fn random_vsm_word(rng: &mut StdRng, class: Slot) -> u64 {
    let rc = rng.random_range(0..8) as u8;
    let ra = rng.random_range(0..8) as u8;
    let rb = rng.random_range(0..8) as u8;
    let instr = match class {
        Slot::ControlTransfer => VsmInstr::br(rc, ra),
        _ => {
            let op = [VsmOp::Add, VsmOp::Xor, VsmOp::And, VsmOp::Or][rng.random_range(0..4usize)];
            if rng.random_bool(0.5) {
                VsmInstr::alu_lit(op, rc, ra, rb)
            } else {
                VsmInstr::alu_reg(op, rc, ra, rb)
            }
        }
    };
    u64::from(instr.encode())
}

#[test]
fn random_simulation_agrees_with_the_symbolic_verdict() {
    let spec = MachineSpec::vsm();
    let pipelined = vsm::pipelined(VsmConfig::correct()).expect("build");
    let unpipelined = vsm::unpipelined(VsmConfig::correct()).expect("build");
    let plan = SimulationPlan::paper_vsm();
    let mut rng = StdRng::seed_from_u64(7);
    let report = random_simulation(&spec, &pipelined, &unpipelined, &plan, 50, |_, _, class| {
        random_vsm_word(&mut rng, class)
    })
    .expect("simulate");
    assert!(report.agreed(), "{:?}", report.mismatch);
    assert_eq!(report.programs, 50);
    assert!(report.samples_compared > 0);
}

#[test]
fn random_simulation_eventually_catches_a_blatant_bug() {
    let spec = MachineSpec::vsm();
    let buggy = vsm::pipelined(VsmConfig::with_bug(VsmBug::WrongWritebackReg)).expect("build");
    let unpipelined = vsm::unpipelined(VsmConfig::correct()).expect("build");
    let plan = SimulationPlan::all_normal(4);
    let mut rng = StdRng::seed_from_u64(8);
    let report = random_simulation(&spec, &buggy, &unpipelined, &plan, 100, |_, _, class| {
        random_vsm_word(&mut rng, class)
    })
    .expect("simulate");
    assert!(
        !report.agreed(),
        "a write-back bug must show up under random simulation"
    );
}

#[test]
fn subtle_bug_found_symbolically_can_hide_from_a_small_random_sample() {
    // The annulment bug only shows when a control-transfer slot is followed by
    // a slot whose delay-slot junk happens to change observable state; with an
    // all-ordinary plan, random simulation can never find it, while the
    // symbolic verifier's plan sweep does. (Symbolic runs use the reduced
    // register-file model, as in the thesis.)
    let spec = MachineSpec::vsm_reduced(2);
    let buggy = vsm::pipelined(VsmConfig {
        bug: Some(VsmBug::NoAnnul),
        ..VsmConfig::reduced(2)
    })
    .expect("build");
    let unpipelined = vsm::unpipelined(VsmConfig::reduced(2)).expect("build");
    let plan = SimulationPlan::all_normal(4);
    let mut rng = StdRng::seed_from_u64(9);
    let random = random_simulation(&spec, &buggy, &unpipelined, &plan, 25, |_, _, class| {
        random_vsm_word(&mut rng, class)
    })
    .expect("simulate");
    assert!(
        random.agreed(),
        "the all-ordinary plan cannot exhibit the annulment bug"
    );
    let symbolic = Verifier::new(spec)
        .verify(&buggy, &unpipelined)
        .expect("verify");
    assert!(
        !symbolic.equivalent(),
        "the plan sweep must find the annulment bug"
    );
}

#[test]
fn malformed_inputs_are_rejected_alike_by_the_verifier_and_random_simulation() {
    // Both procedures drive the pair from one schedule, so a pair or plan
    // that cannot be driven is the same error to both, raised before any
    // plan runs: a node budget of one node must not turn it into plan
    // failures.
    struct Row<'a> {
        what: &'a str,
        spec: &'a MachineSpec,
        pair: &'a (Netlist, Netlist),
        plans: Vec<SimulationPlan>,
        budget: Option<Budget>,
        expected: VerifyError,
    }
    let vsm_pair = |config: VsmConfig| {
        (
            vsm::pipelined(config).expect("build"),
            vsm::unpipelined(VsmConfig::reduced(2)).expect("build"),
        )
    };
    let reduced = vsm_pair(VsmConfig::reduced(2));
    let stallable = vsm_pair(VsmConfig::reduced(2).stallable());
    let family_pair = (
        family::pipelined(FamilyConfig::new(3, 4, 2, 0)).expect("build"),
        family::unpipelined(FamilyConfig::new(3, 3, 2, 0)).expect("build"),
    );
    let vsm_spec = MachineSpec::vsm_reduced(2);
    let family_spec = MachineSpec::family(3, 4, 2, 0);
    let width_mismatch = VerifyError::WidthMismatch {
        name: "r0".to_owned(),
        pipelined: 4,
        unpipelined: 3,
    };
    let rows = [
        Row {
            what: "empty plan",
            spec: &vsm_spec,
            pair: &reduced,
            plans: vec![SimulationPlan::new(vec![Slot::Reset])],
            budget: None,
            expected: VerifyError::EmptyPlan,
        },
        Row {
            what: "interrupt without an irq port",
            spec: &vsm_spec,
            pair: &reduced,
            plans: vec![SimulationPlan::with_interrupt_at(4, 1)],
            budget: None,
            expected: VerifyError::InterruptWithoutIrqPort,
        },
        Row {
            what: "undeclared stall input",
            spec: &vsm_spec,
            pair: &stallable,
            plans: vec![SimulationPlan::paper_vsm()],
            budget: None,
            expected: VerifyError::UnexpectedInput {
                netlist: stallable.0.name().to_owned(),
                port: "stall".to_owned(),
            },
        },
        Row {
            what: "observed widths differ",
            spec: &family_spec,
            pair: &family_pair,
            plans: vec![SimulationPlan::all_normal(3)],
            budget: None,
            expected: width_mismatch.clone(),
        },
        Row {
            what: "observed widths differ under a one-node budget",
            spec: &family_spec,
            pair: &family_pair,
            plans: Verifier::new(family_spec.clone()).default_plans(),
            budget: Some(Budget::unlimited().with_node_limit(1)),
            expected: width_mismatch,
        },
    ];
    for row in rows {
        let (pipelined, unpipelined) = row.pair;
        let mut verifier = Verifier::new(row.spec.clone()).with_threads(1);
        if let Some(budget) = row.budget {
            verifier = verifier.with_budget(budget);
        }
        let symbolic = verifier.verify_plans(pipelined, unpipelined, &row.plans);
        assert_eq!(
            symbolic.err(),
            Some(row.expected.clone()),
            "{}: verifier",
            row.what
        );
        for plan in &row.plans {
            let random = random_simulation(row.spec, pipelined, unpipelined, plan, 3, |_, _, _| 0);
            assert_eq!(
                random.err(),
                Some(row.expected.clone()),
                "{}: random simulation",
                row.what
            );
        }
    }
}

#[test]
fn strict_io_equivalence_fails_where_outputs_are_retimed() {
    // Section 3.4 checks strict input/output equivalence; a machine whose
    // outputs are delayed (retimed / pipelined) is *not* strictly equivalent
    // to the original, even though it computes the same values — the same
    // situation as a pipelined processor versus its specification, which is
    // exactly what the β-relation bridges (checked on the processors in
    // `verify_vsm.rs`).
    let spec = accumulator(3, false);
    let delayed = accumulator(3, true);
    let product = product_equivalence(&delayed, &spec).expect("product");
    assert!(!product.equivalent);
    // The traversal stops at the first frontier holding a disagreeing state:
    // one image step from reset, eight product states, well short of the
    // fixpoint.
    assert_eq!(product.iterations, 1);
    assert_eq!(product.reachable_states, 8.0);
    assert_eq!(product.bdd_nodes, 1006);
    assert_eq!(product.state_bits, 9);
    // The β-relation on the processor pair holds (reduced model, one plan).
    let pipelined = vsm::pipelined(VsmConfig::reduced(2)).expect("build");
    let unpipelined = vsm::unpipelined(VsmConfig::reduced(2)).expect("build");
    let beta = Verifier::new(MachineSpec::vsm_reduced(2))
        .verify_plan(&pipelined, &unpipelined, &SimulationPlan::paper_vsm())
        .expect("verify");
    assert!(beta.equivalent());
}

#[test]
fn product_machine_confirms_self_equivalence() {
    // Sanity: a machine is strictly equivalent to itself; the product-machine
    // procedure (exhaustive breadth-first reachability) confirms it.
    let left = accumulator(4, false);
    let right = accumulator(4, false);
    let report = product_equivalence(&left, &right).expect("product");
    assert!(report.equivalent);
    assert_eq!(report.state_bits, 8);
    // Fed the same inputs, the two copies stay in lock-step, so only the
    // "equal states" diagonal (2^4 of the 2^8 product states) is reachable.
    assert_eq!(report.reachable_states, 16.0);
    assert_eq!(report.iterations, 2);
    assert_eq!(report.bdd_nodes, 1129);
}
