//! Diagnostic probe: per-cycle ROBDD growth of the symbolic simulation of the
//! Alpha0 design pair under the paper's simulation plan (Section 6.3).
//!
//! Environment variables: `PROBE_SIDE` (`pipelined` | `unpipelined`, default
//! `pipelined`), `PROBE_ALU` (`full` | `condensed`, default `condensed`),
//! and `PROBE_SLOTS` (number of ordinary slots when no control transfer is
//! used).
//!
//! `PROBE_SWEEP=1` switches the probe from per-cycle growth to the parallel
//! control-transfer sweep A/B: it verifies every sweep position on the
//! verifier's worker pool (`PV_THREADS` picks the worker count, `1` is the
//! sequential twin, `ALPHA0_ONLY_SLOT` narrows the sweep) and prints the
//! per-plan wall-time breakdown plus the realised speedup.

use std::collections::BTreeMap;
use std::time::Instant;

use pipeverify_core::{
    pool, CycleInput, MachineSpec, SimulationPlan, SimulationSchedule, Verifier,
};
use pv_bdd::{BddManager, BddVec, Var};
use pv_isa::alpha0::Alpha0Config;
use pv_netlist::SymbolicSim;
use pv_proc::alpha0::{self, AluModel, PipelineConfig};

/// `PROBE_SWEEP=1`: run the Alpha0 control-transfer position sweep on the
/// worker pool and print the per-plan wall-time breakdown.
fn sweep_probe(spec: MachineSpec, config: PipelineConfig) {
    let pipelined = alpha0::pipelined(config).expect("build");
    let unpipelined = alpha0::unpipelined(config).expect("build");
    let verifier = Verifier::new(spec);
    let only_slot: Option<usize> = std::env::var("ALPHA0_ONLY_SLOT")
        .ok()
        .and_then(|v| v.parse().ok());
    let positions: Vec<usize> = (0..verifier.spec().k)
        .filter(|p| only_slot.is_none_or(|o| o == *p))
        .collect();
    let sweep: Vec<SimulationPlan> = positions
        .iter()
        .map(|&p| SimulationPlan::with_control_at(verifier.spec().k, p))
        .collect();
    println!(
        "sweep probe: {} plan(s) on {} worker thread(s) (PV_THREADS={})",
        sweep.len(),
        verifier.threads().min(sweep.len()),
        std::env::var("PV_THREADS")
            .unwrap_or_else(|_| format!("unset; {}", pool::default_threads()))
    );
    let started = Instant::now();
    let report = verifier
        .verify_plans(&pipelined, &unpipelined, &sweep)
        .expect("verify");
    pv_bench::print_sweep_breakdown(&report, started.elapsed(), |i| {
        format!("slot {}", positions[i])
    });
}

fn main() {
    let side = std::env::var("PROBE_SIDE").unwrap_or_else(|_| "pipelined".to_owned());
    let alu = match std::env::var("PROBE_ALU").as_deref() {
        Ok("full") => AluModel::Full,
        _ => AluModel::Condensed,
    };
    let isa = Alpha0Config::condensed();
    let spec = match alu {
        AluModel::Full => MachineSpec::alpha0(isa),
        AluModel::Condensed => MachineSpec::alpha0_condensed(isa),
    };
    if std::env::var("PROBE_SWEEP").as_deref() == Ok("1") {
        let mut config = PipelineConfig::with_isa(isa);
        config.alu = alu;
        sweep_probe(spec, config);
        return;
    }
    let plan = match std::env::var("PROBE_SLOTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) => SimulationPlan::all_normal(n),
        None => SimulationPlan::paper_alpha0(),
    };
    let schedule = SimulationSchedule::expand(&spec, &plan);
    let mut config = PipelineConfig::with_isa(isa);
    config.alu = alu;
    let (netlist, inputs) = if side == "unpipelined" {
        (
            alpha0::unpipelined(config).expect("build"),
            &schedule.unpipelined_inputs,
        )
    } else {
        (
            alpha0::pipelined(config).expect("build"),
            &schedule.pipelined_inputs,
        )
    };
    println!("side = {side}, alu = {alu:?}, cycles = {}", inputs.len());

    let sym = SymbolicSim::new(&netlist);
    let mut manager = BddManager::new();
    let slot_vars: Vec<Vec<Var>> = schedule
        .slot_classes
        .iter()
        .map(|_| manager.new_vars(spec.instr_width))
        .collect();
    let mut state = sym.initial_state(&manager);
    for (cycle, input) in inputs.iter().enumerate() {
        let (instr, reset) = match input {
            CycleInput::Reset => (BddVec::constant(&manager, 0, spec.instr_width), 1u64),
            CycleInput::Slot(j) => (BddVec::from_vars(&mut manager, &slot_vars[*j]), 0),
            CycleInput::DontCare => {
                let vars = manager.new_vars(spec.instr_width);
                (BddVec::from_vars(&mut manager, &vars), 0)
            }
        };
        let mut io = BTreeMap::new();
        io.insert("instr".to_owned(), instr);
        io.insert("reset".to_owned(), BddVec::constant(&manager, reset, 1));
        let (next, _outputs) = sym.step(&mut manager, &state, &io);
        state = next;
        // The per-cycle garbage is collected with only the live state
        // rooted, so the reported live count is the real per-cycle growth.
        manager.gc_with_roots(&state.regs);
        let state_nodes: usize = state.regs.iter().map(|&b| manager.node_count(b)).sum();
        let stats = manager.stats();
        println!(
            "cycle {cycle:2} ({input:?}): live = {:8}, allocated = {:9}, state nodes = {state_nodes:8}, vars = {}",
            stats.nodes, stats.allocated, stats.vars,
        );
    }
}
