//! Symbolic (BDD-based) simulation of a netlist.
//!
//! Two styles are supported, mirroring the thesis:
//!
//! * **functional symbolic simulation** ([`SymbolicSim::step`]): the register
//!   state is a vector of BDDs over whatever input variables the caller has
//!   introduced so far; each step composes the next-state functions, exactly
//!   like simulating the machine cycle by cycle with symbolic inputs. This is
//!   what the Figure 8 verification algorithm consumes.
//! * **transition-relation export** ([`SymbolicSim::relation`]): the
//!   relation `A(pi, ps, ns)` of Section 3.3 as one conjunct per register bit
//!   over variables the caller allocates, for reachability-style procedures
//!   such as the product-machine equivalence check of Section 3.4, which
//!   exports both machines over shared input variables.

use std::collections::BTreeMap;

use pv_bdd::{Bdd, BddManager, BddVec, Var};

use crate::net::{NetNode, Netlist};

/// The symbolic register state of a netlist: one BDD per register bit, in
/// declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymState {
    /// One BDD per register bit.
    pub regs: Vec<Bdd>,
}

impl SymState {
    /// Packs the bits of the word-level register `name` into a [`BddVec`], or
    /// `None` if no register of that name exists in `netlist`.
    pub fn register(&self, netlist: &Netlist, name: &str) -> Option<BddVec> {
        let mut bits: Vec<(usize, Bdd)> = Vec::new();
        for (i, r) in netlist.regs.iter().enumerate() {
            if r.name == name {
                bits.push((r.bit, self.regs[i]));
            }
        }
        if bits.is_empty() {
            return None;
        }
        bits.sort_by_key(|&(bit, _)| bit);
        Some(BddVec::from_bits(
            bits.into_iter().map(|(_, b)| b).collect(),
        ))
    }
}

/// Symbolic simulator for one [`Netlist`].
#[derive(Clone, Copy, Debug)]
pub struct SymbolicSim<'a> {
    netlist: &'a Netlist,
}

impl<'a> SymbolicSim<'a> {
    /// Creates a symbolic simulator for `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        SymbolicSim { netlist }
    }

    /// The reset state as constant BDDs.
    pub fn initial_state(&self, manager: &BddManager) -> SymState {
        SymState {
            regs: self
                .netlist
                .regs
                .iter()
                .map(|r| manager.constant(r.init))
                .collect(),
        }
    }

    /// Evaluates every net as a BDD given symbolic input words and a symbolic
    /// register state, returning the per-net functions.
    fn eval_nets(
        &self,
        manager: &mut BddManager,
        state: &SymState,
        inputs: &BTreeMap<String, BddVec>,
    ) -> Vec<Bdd> {
        let netlist = self.netlist;
        // Resolve input ports to their symbolic words once.
        let port_words: Vec<Option<&BddVec>> =
            netlist.inputs.iter().map(|p| inputs.get(&p.name)).collect();
        let mut values: Vec<Bdd> = Vec::with_capacity(netlist.nodes.len());
        for node in &netlist.nodes {
            let v = match *node {
                NetNode::Const(b) => manager.constant(b),
                NetNode::Input { port, bit } => {
                    let word = port_words[port as usize].unwrap_or_else(|| {
                        panic!(
                            "symbolic simulation of `{}`: no value supplied for input `{}`",
                            netlist.name, netlist.inputs[port as usize].name
                        )
                    });
                    assert_eq!(
                        word.width(),
                        netlist.inputs[port as usize].width,
                        "input `{}` width mismatch",
                        netlist.inputs[port as usize].name
                    );
                    word.bit(bit as usize)
                }
                NetNode::Reg(r) => state.regs[r as usize],
                NetNode::Not(a) => {
                    let x = values[a.0 as usize];
                    manager.not(x)
                }
                NetNode::And(a, b) => {
                    let (x, y) = (values[a.0 as usize], values[b.0 as usize]);
                    manager.and(x, y)
                }
                NetNode::Or(a, b) => {
                    let (x, y) = (values[a.0 as usize], values[b.0 as usize]);
                    manager.or(x, y)
                }
                NetNode::Xor(a, b) => {
                    let (x, y) = (values[a.0 as usize], values[b.0 as usize]);
                    manager.xor(x, y)
                }
            };
            values.push(v);
        }
        values
    }

    /// Applies one symbolic clock cycle.
    ///
    /// Returns the next symbolic state together with the observed-output words
    /// sampled *during* this cycle (i.e. computed from the pre-step state and
    /// the given inputs, exactly as [`crate::ConcreteSim::step`] does).
    ///
    /// # Panics
    /// Panics if a declared input port is missing from `inputs` or has the
    /// wrong width.
    pub fn step(
        &self,
        manager: &mut BddManager,
        state: &SymState,
        inputs: &BTreeMap<String, BddVec>,
    ) -> (SymState, BTreeMap<String, BddVec>) {
        let values = self.eval_nets(manager, state, inputs);
        let outputs = self
            .netlist
            .outputs
            .iter()
            .map(|(name, nets)| {
                let bits = nets.iter().map(|n| values[n.0 as usize]).collect();
                (name.clone(), BddVec::from_bits(bits))
            })
            .collect();
        let regs = self
            .netlist
            .regs
            .iter()
            .map(|r| {
                let n = r
                    .next
                    .expect("finished netlists have all next-state nets assigned");
                values[n.0 as usize]
            })
            .collect();
        (SymState { regs }, outputs)
    }

    /// Samples the observed outputs in the given state without stepping.
    ///
    /// # Panics
    /// Panics if a declared input port is missing from `inputs`.
    pub fn outputs(
        &self,
        manager: &mut BddManager,
        state: &SymState,
        inputs: &BTreeMap<String, BddVec>,
    ) -> BTreeMap<String, BddVec> {
        let values = self.eval_nets(manager, state, inputs);
        self.netlist
            .outputs
            .iter()
            .map(|(name, nets)| {
                let bits = nets.iter().map(|n| values[n.0 as usize]).collect();
                (name.clone(), BddVec::from_bits(bits))
            })
            .collect()
    }

    /// Exports the netlist as a **partitioned** transition relation
    /// `A(pi, ps, ns)` over caller-allocated variables: `inputs` are the
    /// primary-input words, `present[i]` and `next[i]` the present- and
    /// next-state variables of register bit `i` (declaration order).
    ///
    /// Returns the conjuncts `ns_i ↔ f_i(pi, ps)`, one per register bit, for
    /// [`pv_bdd::TransitionSystem::from_partitions`]; the output words over
    /// `(pi, ps)`; and the reset state as a cube over `present`.
    ///
    /// # Panics
    /// Panics if `present` or `next` does not hold one variable per register
    /// bit, or if a declared input port is missing from `inputs`.
    #[allow(clippy::type_complexity)]
    pub fn relation(
        &self,
        manager: &mut BddManager,
        inputs: &BTreeMap<String, BddVec>,
        present: &[Var],
        next: &[Var],
    ) -> (Vec<Bdd>, BTreeMap<String, BddVec>, Vec<(Var, bool)>) {
        let regs = &self.netlist.regs;
        assert!(
            present.len() == regs.len() && next.len() == regs.len(),
            "one present and one next variable per register bit"
        );
        let state = SymState {
            regs: present.iter().map(|&v| manager.var(v)).collect(),
        };
        let (next_state, outputs) = self.step(manager, &state, inputs);
        let conjuncts = next_state
            .regs
            .iter()
            .zip(next)
            .map(|(&f, &n)| {
                let nv = manager.var(n);
                manager.xnor(nv, f)
            })
            .collect();
        let init = present
            .iter()
            .copied()
            .zip(regs.iter().map(|r| r.init))
            .collect();
        (conjuncts, outputs, init)
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcreteSim, Netlist, NetlistBuilder};

    fn accumulator() -> Netlist {
        let mut b = NetlistBuilder::new("acc");
        let input = b.input("in", 3);
        let acc = b.register("acc", 3, 0);
        let sum = b.wadd(&acc.value(), &input);
        b.set_next(&acc, &sum);
        b.expose("acc", &acc.value());
        b.expose("sum", &sum);
        b.finish().expect("valid")
    }

    #[test]
    fn symbolic_matches_concrete() {
        let n = accumulator();
        let sym = SymbolicSim::new(&n);
        let mut m = BddManager::new();
        // Two cycles of symbolic inputs.
        let in0 = m.new_vars(3);
        let in1 = m.new_vars(3);
        let w0 = BddVec::from_vars(&mut m, &in0);
        let w1 = BddVec::from_vars(&mut m, &in1);
        let s0 = sym.initial_state(&m);
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_owned(), w0);
        let (s1, _) = sym.step(&mut m, &s0, &inputs);
        inputs.insert("in".to_owned(), w1);
        let (s2, out2) = sym.step(&mut m, &s1, &inputs);
        // Compare against concrete simulation for every pair of inputs.
        for a in 0u64..8 {
            for b in 0u64..8 {
                let assign = |v| {
                    if let Some(i) = in0.iter().position(|&x| x == v) {
                        a >> i & 1 == 1
                    } else if let Some(i) = in1.iter().position(|&x| x == v) {
                        b >> i & 1 == 1
                    } else {
                        false
                    }
                };
                let acc_after = s2.register(&n, "acc").expect("acc exists").eval(&m, assign);
                let sum_sampled = out2["sum"].eval(&m, assign);
                let mut conc = ConcreteSim::new(&n);
                conc.step(&[("in", a)]);
                let o = conc.step(&[("in", b)]);
                assert_eq!(sum_sampled, o["sum"], "sum for {a},{b}");
                assert_eq!(
                    acc_after,
                    conc.register("acc").expect("acc"),
                    "acc for {a},{b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no value supplied")]
    fn missing_symbolic_input_panics() {
        let n = accumulator();
        let sym = SymbolicSim::new(&n);
        let mut m = BddManager::new();
        let s0 = sym.initial_state(&m);
        let _ = sym.step(&mut m, &s0, &BTreeMap::new());
    }
}
