//! Agreement of the partitioned (clustered, early-quantified) image
//! computation with the monolithic relation on a real design: the serial VSM
//! of Section 6.2. The counter-system `reachable` agreement is covered by
//! unit tests in `pv-bdd`; this exercises the netlist-export path end to end.
//!
//! The default test compares a bounded breadth-first frontier chain. The
//! complete fixpoint is exactly the blow-up the partitioned representation
//! avoids (minutes even in release), so it is a separate ignored test:
//! `cargo test --release -p pv-bench --test partitioned_image -- --ignored`.

use std::collections::BTreeMap;

use pv_bdd::{BddManager, BddVec, TransitionSystem};
use pv_netlist::SymbolicSim;
use pv_proc::vsm::{self, VsmConfig};

/// The unpipelined VSM exported once, as the partitioned system and as the
/// monolithic one-cluster system over the *same* variables, so canonicity
/// makes every comparison a handle equality.
fn vsm_systems(m: &mut BddManager) -> (TransitionSystem, TransitionSystem) {
    let netlist = vsm::unpipelined(VsmConfig::reduced(1)).expect("build unpipelined VSM");
    let mut inputs = BTreeMap::new();
    let mut input_vars = Vec::new();
    for port in netlist.inputs() {
        let vars = m.new_vars(port.width);
        input_vars.extend_from_slice(&vars);
        inputs.insert(port.name.clone(), BddVec::from_vars(m, &vars));
    }
    let [present, next]: [Vec<_>; 2] = m
        .new_vars_interleaved(2, netlist.register_bits())
        .try_into()
        .expect("two families");
    let (conjuncts, _, init) = SymbolicSim::new(&netlist).relation(m, &inputs, &present, &next);
    let init = m.cube(&init);
    let relation = m.and_many(&conjuncts);
    let part = TransitionSystem::from_partitions(
        m,
        input_vars.clone(),
        present.clone(),
        next.clone(),
        conjuncts,
        init,
    );
    let mono = TransitionSystem::new(m, input_vars, present, next, relation, init);
    (part, mono)
}

#[test]
fn partitioned_and_monolithic_reachable_agree_on_vsm() {
    let mut m = BddManager::new();
    let (part, mono) = vsm_systems(&mut m);
    // Breadth-first frontiers agree step for step.
    let mut frontier_part = part.init;
    let mut frontier_mono = mono.init;
    for step in 0..4 {
        let img_part = part.image(&mut m, frontier_part);
        let img_mono = mono.image(&mut m, frontier_mono);
        assert_eq!(img_part, img_mono, "image mismatch at step {step}");
        frontier_part = m.or(frontier_part, img_part);
        frontier_mono = m.or(frontier_mono, img_mono);
        assert_eq!(
            frontier_mono, frontier_part,
            "frontier mismatch at step {step}"
        );
    }
}

#[test]
#[ignore = "full monolithic VSM fixpoint: minutes in release; run with --ignored"]
fn full_partitioned_and_monolithic_fixpoints_agree_on_vsm() {
    let mut m = BddManager::new();
    let (part, mono) = vsm_systems(&mut m);
    let part_reach = part.reachable(&mut m);
    // The second fixpoint may collect garbage between iterations; pin the
    // first result across it.
    m.add_root(part_reach.states);
    let mono_reach = mono.reachable(&mut m);
    assert_eq!(part_reach.states, mono_reach.states);
    assert_eq!(part_reach.iterations, mono_reach.iterations);
    assert!(part_reach.iterations > 1, "VSM should take several steps");
}
