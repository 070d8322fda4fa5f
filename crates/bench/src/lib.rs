//! Shared helpers for the benchmark harness that regenerates the evaluation
//! of Chapter 6 (see `benches/`). The thesis reports the symbolic-simulation
//! wall of the unpipelined and the pipelined machine separately;
//! [`traced_verify_plan`] reads both off the verifier's own `sim.*` spans,
//! so the figures measure the one symbolic-simulation loop the verifier
//! runs.

use pipeverify_core::{SimulationPlan, VerificationReport, Verifier, VerifyError};
use pv_bdd::{Bdd, BddManager, BddVec, TransitionSystem, Var};
use pv_netlist::Netlist;

pub mod matrix;

/// Checks `plan` with span tracing on and returns the report plus the
/// `sim.pipelined` and `sim.unpipelined` span walls (µs) under `plan.check`
/// — the per-machine figures of Sections 6.2/6.3. A single-plan check runs
/// on the calling thread, so its events are this thread's. Tracing is
/// process-global: the helper drains any buffered events before the run and
/// switches tracing off after it.
///
/// # Errors
/// See [`Verifier::verify`].
pub fn traced_verify_plan(
    verifier: &Verifier,
    pipelined: &Netlist,
    unpipelined: &Netlist,
    plan: &SimulationPlan,
) -> Result<(VerificationReport, u64, u64), VerifyError> {
    pv_obs::take_events();
    pv_obs::set_trace_enabled(true);
    let report = verifier.verify_plan(pipelined, unpipelined, plan);
    pv_obs::set_trace_enabled(false);
    let profile = pv_obs::fold::fold(&pv_obs::take_events(), "plan.check");
    let wall = |name: &str| {
        profile
            .rows
            .iter()
            .find(|row| row.name == name)
            .map_or(0, |row| row.total_us)
    };
    Ok((report?, wall("sim.pipelined"), wall("sim.unpipelined")))
}

/// An `n`-bit counter with an enable input, as a partitioned transition
/// system with interleaved present/next state variables — the machine family
/// the `bdd_ops` reachability benchmark and the `perf_smoke` gate sweep.
pub fn counter_system(m: &mut BddManager, n: usize) -> TransitionSystem {
    let enable = m.new_var();
    let mut present = Vec::with_capacity(n);
    let mut next = Vec::with_capacity(n);
    for _ in 0..n {
        present.push(m.new_var());
        next.push(m.new_var());
    }
    let state = BddVec::from_vars(m, &present);
    let en = m.var(enable);
    let inc = state.inc(m);
    let next_val = BddVec::mux(m, en, &inc, &state);
    let partitions: Vec<Bdd> = next
        .iter()
        .enumerate()
        .map(|(i, &nv)| {
            let v = m.var(nv);
            m.xnor(v, next_val.bit(i))
        })
        .collect();
    let init_cube: Vec<(Var, bool)> = present.iter().map(|&v| (v, false)).collect();
    let init = m.cube(&init_cube);
    TransitionSystem::from_partitions(m, vec![enable], present, next, partitions, init)
}
