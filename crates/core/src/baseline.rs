//! Baseline verification procedures the methodology is compared against.
//!
//! * [`product_equivalence`] — the classical FSM equivalence check of
//!   Section 3.4: build the product machine of two netlists with identical
//!   interfaces, traverse its reachable state space breadth-first with the
//!   transition-relation image computation, and check that the corresponding
//!   outputs agree in every reachable state under every input. This is the
//!   "exhaustive traversal" the definite-machine argument of Chapter 4 makes
//!   unnecessary for pipelined-vs-unpipelined verification.
//! * [`random_simulation`] — conventional simulation: run both machines on
//!   concrete random instruction sequences (scheduled exactly as the symbolic
//!   verifier schedules them) and compare the observed variables at the
//!   β-relation sampling points. Coverage grows only linearly with simulation
//!   effort, which is the motivation for formal verification in Chapter 1.

use std::collections::{BTreeMap, HashMap};

use pv_bdd::{Bdd, BddManager, BddVec, TransitionSystem, Var};
use pv_netlist::{ConcreteSim, Netlist, SymbolicSim};

use crate::plan::{CycleInput, SimulationPlan, SimulationSchedule, Slot};
use crate::spec::MachineSpec;
use crate::verify::VerifyError;

/// Result of a product-machine equivalence check.
#[derive(Clone, Debug)]
pub struct ProductReport {
    /// `true` iff the two machines produce identical outputs in every
    /// reachable product state under every input.
    pub equivalent: bool,
    /// Breadth-first image steps taken: to the reachability fixpoint when
    /// `equivalent`, otherwise to the first frontier holding a product state
    /// whose outputs disagree, where the check stopped.
    pub iterations: usize,
    /// Number of product states (counted over the state variables) in the
    /// final set: every reachable state when `equivalent`, otherwise the
    /// frontier where the check stopped.
    pub reachable_states: f64,
    /// Total ROBDD nodes created.
    pub bdd_nodes: usize,
    /// State bits of the product machine.
    pub state_bits: usize,
}

/// Strict input/output equivalence of two netlists with identical input and
/// output interfaces, by reachability analysis of their product machine
/// (Section 3.4).
///
/// # Errors
/// Returns [`VerifyError::MissingPort`] if the interfaces differ.
pub fn product_equivalence(left: &Netlist, right: &Netlist) -> Result<ProductReport, VerifyError> {
    for port in left.inputs() {
        if right.input_width(&port.name) != Some(port.width) {
            return Err(VerifyError::MissingPort {
                netlist: right.name().to_owned(),
                port: port.name.clone(),
            });
        }
    }
    let shared_outputs: Vec<String> = left
        .outputs()
        .iter()
        .filter(|p| right.output_width(&p.name) == Some(p.width))
        .map(|p| p.name.clone())
        .collect();
    if shared_outputs.is_empty() {
        return Err(VerifyError::MissingPort {
            netlist: right.name().to_owned(),
            port: "<any shared output>".to_owned(),
        });
    }

    let mut m = BddManager::new();
    // Shared primary-input variables.
    let mut inputs: BTreeMap<String, BddVec> = BTreeMap::new();
    let mut input_vars: Vec<Var> = Vec::new();
    for port in left.inputs() {
        let vars = m.new_vars(port.width);
        input_vars.extend_from_slice(&vars);
        inputs.insert(port.name.clone(), BddVec::from_vars(&mut m, &vars));
    }

    // Present/next state variables. Each register bit's present and next
    // variables are adjacent (required by the image computation's renaming),
    // and the two machines' registers are interleaved with each other so that
    // the "corresponding registers hold equal values" correlations that arise
    // during reachability stay small as ROBDDs.
    let bits_l = left.register_bits();
    let bits_r = right.register_bits();
    let mut pres_l = Vec::with_capacity(bits_l);
    let mut next_l = Vec::with_capacity(bits_l);
    let mut pres_r = Vec::with_capacity(bits_r);
    let mut next_r = Vec::with_capacity(bits_r);
    for i in 0..bits_l.max(bits_r) {
        if i < bits_l {
            let p = m.new_var();
            let n = m.new_var();
            pres_l.push(p);
            next_l.push(n);
        }
        if i < bits_r {
            let p = m.new_var();
            let n = m.new_var();
            pres_r.push(p);
            next_r.push(n);
        }
    }

    // One relation conjunct per register bit of either machine; the
    // partitioned image computation clusters them by support instead of ever
    // conjoining the full product relation.
    let (mut partitions, out_l, mut init_cube) =
        SymbolicSim::new(left).relation(&mut m, &inputs, &pres_l, &next_l);
    let (parts_r, out_r, init_r) =
        SymbolicSim::new(right).relation(&mut m, &inputs, &pres_r, &next_r);
    partitions.extend(parts_r);
    init_cube.extend(init_r);
    let init = m.cube(&init_cube);

    // Property: every shared output agrees (the XNOR/AND product-machine
    // output of Section 3.4).
    let mut property = Bdd::TRUE;
    for name in &shared_outputs {
        let agree = out_l[name].eq(&mut m, &out_r[name]);
        property = m.and(property, agree);
    }

    let present: Vec<Var> = pres_l.iter().chain(&pres_r).copied().collect();
    let next: Vec<Var> = next_l.iter().chain(&next_r).copied().collect();
    let state_bits = present.len();
    let system =
        TransitionSystem::from_partitions(&mut m, input_vars, present, next, partitions, init);

    // Breadth-first traversal that stops as soon as a reachable state
    // disagrees (Section 3.4); a fixpoint is only reached for equivalent
    // machines.
    let (reach, equivalent) = system.check_invariant(&mut m, property);
    let free_vars = m.var_count() - state_bits;
    let reachable_states = m.sat_count(reach.states) / 2f64.powi(free_vars as i32);
    Ok(ProductReport {
        equivalent,
        iterations: reach.iterations,
        reachable_states,
        bdd_nodes: m.stats().allocated,
        state_bits,
    })
}

/// Result of a random-simulation (conventional simulation) baseline run.
#[derive(Clone, Debug)]
pub struct RandomSimReport {
    /// Number of random instruction sequences simulated.
    pub programs: usize,
    /// Total concrete simulation cycles across both machines.
    pub cycles: usize,
    /// Number of observed-variable samples compared.
    pub samples_compared: usize,
    /// The first mismatch found, as
    /// `(program index, slot, variable, implementation value, specification value)`.
    pub mismatch: Option<(usize, usize, String, u64, u64)>,
}

impl RandomSimReport {
    /// `true` iff no mismatch was found.
    pub fn agreed(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Conventional-simulation baseline: runs `programs` random instruction
/// sequences (produced by `generate`, which receives the program index, the
/// slot index and the slot class and must return an encoded instruction word
/// of the class) through both machines, using the same cycle schedule as the
/// symbolic verifier, and compares the observed variables at every sampling
/// point.
///
/// # Errors
/// Returns [`VerifyError`] if the netlists lack the ports named in `spec`.
pub fn random_simulation<F>(
    spec: &MachineSpec,
    pipelined: &Netlist,
    unpipelined: &Netlist,
    plan: &SimulationPlan,
    programs: usize,
    mut generate: F,
) -> Result<RandomSimReport, VerifyError>
where
    F: FnMut(usize, usize, Slot) -> u64,
{
    for netlist in [pipelined, unpipelined] {
        for port in [&spec.instr_port, &spec.reset_port] {
            if netlist.input_width(port).is_none() {
                return Err(VerifyError::MissingPort {
                    netlist: netlist.name().to_owned(),
                    port: port.clone(),
                });
            }
        }
        for observed in &spec.observed {
            if netlist.output_width(observed).is_none() {
                return Err(VerifyError::MissingPort {
                    netlist: netlist.name().to_owned(),
                    port: observed.clone(),
                });
            }
        }
    }
    let schedule = SimulationSchedule::expand(spec, plan);
    let mut report = RandomSimReport {
        programs,
        cycles: 0,
        samples_compared: 0,
        mismatch: None,
    };
    'programs: for p in 0..programs {
        let words: Vec<u64> = schedule
            .slot_classes
            .iter()
            .enumerate()
            .map(|(j, class)| generate(p, j, *class))
            .collect();
        let run = |inputs: &[CycleInput], irq_cycles: &[usize], netlist: &Netlist| {
            let mut sim = ConcreteSim::new(netlist);
            let has_irq = spec
                .irq_port
                .as_ref()
                .is_some_and(|p| netlist.input_width(p).is_some());
            let has_stall = spec
                .stall_port
                .as_ref()
                .is_some_and(|p| netlist.input_width(p).is_some());
            let mut per_cycle: Vec<HashMap<String, u64>> = Vec::with_capacity(inputs.len());
            for (cycle, input) in inputs.iter().enumerate() {
                let (instr, reset) = match input {
                    CycleInput::Reset => (0, 1),
                    CycleInput::Slot(j) => (words[*j], 0),
                    CycleInput::DontCare => (0, 0),
                };
                let mut drive: Vec<(&str, u64)> = vec![
                    (spec.instr_port.as_str(), instr),
                    (spec.reset_port.as_str(), reset),
                ];
                if has_irq {
                    let irq = u64::from(irq_cycles.contains(&cycle));
                    drive.push((spec.irq_port.as_deref().expect("checked"), irq));
                }
                if has_stall {
                    // Like the symbolic flow, the baseline replays the
                    // un-stalled behaviour.
                    drive.push((spec.stall_port.as_deref().expect("checked"), 0));
                }
                per_cycle.push(sim.step(&drive));
            }
            per_cycle
        };
        let p_trace = run(
            &schedule.pipelined_inputs,
            &schedule.pipelined_irq_cycles,
            pipelined,
        );
        let u_trace = run(
            &schedule.unpipelined_inputs,
            &schedule.unpipelined_irq_cycles,
            unpipelined,
        );
        report.cycles += p_trace.len() + u_trace.len();
        for &(slot, pc, uc) in &schedule.samples {
            for name in &spec.observed {
                report.samples_compared += 1;
                let pv = p_trace[pc][name];
                let uv = u_trace[uc][name];
                if pv != uv {
                    report.mismatch = Some((p, slot, name.clone(), pv, uv));
                    break 'programs;
                }
            }
        }
    }
    Ok(report)
}
