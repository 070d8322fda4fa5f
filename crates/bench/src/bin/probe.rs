//! Diagnostic probe: per-cycle ROBDD growth of the symbolic simulation of the
//! VSM design pair under the paper's simulation plan. Useful when tuning the
//! variable order or the netlists; not part of the evaluation itself.
//!
//! Set `PROBE_SWEEP=1` to instead time the verifier's full default plan sweep
//! on the worker pool — `PV_THREADS` picks the worker count (`PV_THREADS=1`
//! is the sequential A/B twin) and the probe prints the per-plan wall-time
//! breakdown plus the realised speedup.

use std::collections::BTreeMap;
use std::time::Instant;

use pipeverify_core::{
    pool, CycleInput, MachineSpec, SimulationPlan, SimulationSchedule, Verifier,
};
use pv_bdd::{BddManager, BddVec, Var};
use pv_netlist::SymbolicSim;
use pv_proc::vsm::{self, VsmConfig};

/// `PROBE_SWEEP=1`: verify the default VSM plan sweep on the worker pool and
/// print the per-plan wall-time breakdown (the `--threads` A/B in probe form).
fn sweep_probe(spec: MachineSpec, config: VsmConfig) {
    let pipelined = vsm::pipelined(config).expect("build");
    let unpipelined = vsm::unpipelined(config).expect("build");
    let verifier = Verifier::new(spec);
    println!(
        "sweep probe: {} worker thread(s) (PV_THREADS={})",
        verifier.threads().min(verifier.default_plans().len()),
        std::env::var("PV_THREADS")
            .unwrap_or_else(|_| format!("unset; {}", pool::default_threads()))
    );
    let started = Instant::now();
    let report = verifier.verify(&pipelined, &unpipelined).expect("verify");
    pv_bench::print_sweep_breakdown(&report, started.elapsed(), |i| format!("plan {i:2}"));
}

fn main() {
    let num_regs: usize = std::env::var("PROBE_REGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    if std::env::var("PROBE_SWEEP").as_deref() == Ok("1") {
        sweep_probe(
            MachineSpec::vsm_reduced(num_regs),
            VsmConfig::reduced(num_regs),
        );
        return;
    }
    let spec = MachineSpec::vsm_reduced(num_regs);
    let plan = SimulationPlan::all_normal(4);
    let schedule = SimulationSchedule::expand(&spec, &plan);
    let pipelined = vsm::pipelined(VsmConfig::reduced(num_regs)).expect("build");
    let sym = SymbolicSim::new(&pipelined);
    let mut manager = BddManager::new();
    let slot_vars: Vec<Vec<Var>> = schedule
        .slot_classes
        .iter()
        .map(|_| manager.new_vars(spec.instr_width))
        .collect();
    let mut state = sym.initial_state(&manager);
    for (cycle, input) in schedule.pipelined_inputs.iter().enumerate() {
        let instr = match input {
            CycleInput::Reset => BddVec::constant(&manager, 0, spec.instr_width),
            CycleInput::Slot(j) => BddVec::from_vars(&mut manager, &slot_vars[*j]),
            CycleInput::DontCare => {
                let vars = manager.new_vars(spec.instr_width);
                BddVec::from_vars(&mut manager, &vars)
            }
        };
        let reset = BddVec::constant(&manager, u64::from(matches!(input, CycleInput::Reset)), 1);
        let mut inputs = BTreeMap::new();
        inputs.insert("instr".to_owned(), instr);
        inputs.insert("reset".to_owned(), reset);
        let (next, _outputs) = sym.step(&mut manager, &state, &inputs);
        state = next;
        // Collect the per-cycle garbage with only the live state rooted, so
        // the reported live count is the real per-cycle growth (the slot
        // words are rebuilt from their variables each cycle).
        manager.gc_with_roots(&state.regs);
        let state_nodes: usize = state.regs.iter().map(|&b| manager.node_count(b)).sum();
        let stats = manager.stats();
        println!(
            "cycle {cycle:2} ({input:?}): live = {:8}, allocated = {:9}, state nodes = {state_nodes:8}",
            stats.nodes, stats.allocated,
        );
    }
}
