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

use crate::net::{NetId, NetNode, Netlist};

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
///
/// [`new`](Self::new) derives an evaluation plan from the netlist once (see
/// the private `Eval`); every [`step`](Self::step), [`outputs`](Self::outputs) and
/// [`relation`](Self::relation) follows it. ROBDDs are canonical, so the plan
/// changes how many BDD operations a cycle costs, never a function computed.
#[derive(Clone, Debug)]
pub struct SymbolicSim<'a> {
    netlist: &'a Netlist,
    plan: Vec<Eval>,
}

/// How [`SymbolicSim`] evaluates one net.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Eval {
    /// The net's own node: a source, or a gate as one BDD operation.
    Node,
    /// `ite(s, t, e)` in place of an `Or` of two `And`s that nothing else
    /// reads: a multiplexer `s∧t ∨ ¬s∧e`, or a ripple carry
    /// `x∧y ∨ (x⊕y)∧c` as `ite(x⊕y, c, x)`.
    Ite(NetId, NetId, NetId),
    /// Not evaluated: a gate that no register, output or evaluated net reads
    /// (an `And` absorbed into an [`Eval::Ite`], or a dead gate).
    Skip,
}

/// The operand nets of `node` (none for a source).
fn operands(node: NetNode) -> impl Iterator<Item = NetId> {
    let (a, b) = match node {
        NetNode::Const(_) | NetNode::Input { .. } | NetNode::Reg(_) => (None, None),
        NetNode::Not(a) => (Some(a), None),
        NetNode::And(a, b) | NetNode::Or(a, b) | NetNode::Xor(a, b) => (Some(a), Some(b)),
    };
    a.into_iter().chain(b)
}

/// The single `ite` equal to `Or(a, b)`, if `a` and `b` are `And`s with no
/// other reader that form a multiplexer or a ripple carry.
fn fuse(nodes: &[NetNode], readers: &[u32], a: NetId, b: NetId) -> Option<Eval> {
    let sole_and = |n: NetId| match nodes[n.0 as usize] {
        NetNode::And(x, y) if readers[n.0 as usize] == 1 => Some([(x, y), (y, x)]),
        _ => None,
    };
    let (p, q) = (sole_and(a)?, sole_and(b)?);
    for (s, t) in p {
        for (r, e) in q {
            // `s∧t ∨ ¬s∧e`, with the select on either side.
            if nodes[r.0 as usize] == NetNode::Not(s) {
                return Some(Eval::Ite(s, t, e));
            }
            if nodes[s.0 as usize] == NetNode::Not(r) {
                return Some(Eval::Ite(r, e, t));
            }
        }
    }
    for ((x, y), pair) in [(p[0], q), (q[0], p)] {
        for (xy, c) in pair {
            // `x∧y ∨ (x⊕y)∧c` is `c` where x and y differ and `x` where they agree.
            if let NetNode::Xor(u, v) = nodes[xy.0 as usize] {
                if (u, v) == (x, y) || (u, v) == (y, x) {
                    return Some(Eval::Ite(xy, c, x));
                }
            }
        }
    }
    None
}

impl<'a> SymbolicSim<'a> {
    /// Creates a symbolic simulator for `netlist`, deriving its evaluation
    /// plan from per-net reader counts (gate operands, register next-state
    /// nets and output nets).
    pub fn new(netlist: &'a Netlist) -> Self {
        let nodes = &netlist.nodes;
        let roots = || {
            let next = netlist.regs.iter().filter_map(|r| r.next);
            next.chain(
                netlist
                    .outputs
                    .iter()
                    .flat_map(|(_, nets)| nets.iter().copied()),
            )
        };
        let mut readers = vec![0u32; nodes.len()];
        for n in nodes.iter().flat_map(|&node| operands(node)).chain(roots()) {
            readers[n.0 as usize] += 1;
        }
        let mut plan: Vec<Eval> = nodes
            .iter()
            .map(|&node| match node {
                NetNode::Or(a, b) => fuse(nodes, &readers, a, b).unwrap_or(Eval::Node),
                _ => Eval::Node,
            })
            .collect();
        // Operands precede their readers, so one backward sweep from the
        // roots finds every net the plan reads.
        let mut live = vec![false; nodes.len()];
        for n in roots() {
            live[n.0 as usize] = true;
        }
        for i in (0..nodes.len()).rev() {
            let is_gate = operands(nodes[i]).next().is_some();
            if !live[i] && is_gate {
                plan[i] = Eval::Skip;
                continue;
            }
            let mut mark = |n: NetId| live[n.0 as usize] = true;
            match plan[i] {
                Eval::Ite(s, t, e) => [s, t, e].into_iter().for_each(&mut mark),
                _ => operands(nodes[i]).for_each(&mut mark),
            }
        }
        SymbolicSim { netlist, plan }
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
        for (node, &eval) in netlist.nodes.iter().zip(&self.plan) {
            let v = match eval {
                Eval::Skip => Bdd::FALSE,
                Eval::Ite(s, t, e) => {
                    let (s, t, e) = (
                        values[s.0 as usize],
                        values[t.0 as usize],
                        values[e.0 as usize],
                    );
                    manager.ite(s, t, e)
                }
                Eval::Node => match *node {
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
                },
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
    use crate::{ConcreteSim, Netlist, NetlistBuilder, Word};

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

    /// The gate-by-gate reference for [`SymbolicSim::step`]: one BDD
    /// operation per net, no evaluation plan.
    fn reference_step(
        netlist: &Netlist,
        m: &mut BddManager,
        state: &SymState,
        inputs: &BTreeMap<String, BddVec>,
    ) -> (SymState, BTreeMap<String, BddVec>) {
        let mut values: Vec<Bdd> = Vec::new();
        for &node in &netlist.nodes {
            let at = |n: NetId| values[n.0 as usize];
            let v = match node {
                NetNode::Const(b) => m.constant(b),
                NetNode::Input { port, bit } => {
                    inputs[&netlist.inputs[port as usize].name].bit(bit as usize)
                }
                NetNode::Reg(r) => state.regs[r as usize],
                NetNode::Not(a) => m.not(at(a)),
                NetNode::And(a, b) => m.and(at(a), at(b)),
                NetNode::Or(a, b) => m.or(at(a), at(b)),
                NetNode::Xor(a, b) => m.xor(at(a), at(b)),
            };
            values.push(v);
        }
        let word =
            |nets: &[NetId]| BddVec::from_bits(nets.iter().map(|n| values[n.0 as usize]).collect());
        let regs = netlist
            .regs
            .iter()
            .map(|r| values[r.next.expect("assigned").0 as usize])
            .collect();
        let outputs = netlist
            .outputs
            .iter()
            .map(|(name, nets)| (name.clone(), word(nets)))
            .collect();
        (SymState { regs }, outputs)
    }

    /// Steps `netlist` for several cycles with fresh input variables each
    /// cycle, asserting that the planned evaluation returns the very handles
    /// the reference does, in the same manager.
    fn assert_plan_matches_reference(netlist: &Netlist) -> SymbolicSim<'_> {
        let sym = SymbolicSim::new(netlist);
        let mut m = BddManager::new();
        let mut state = sym.initial_state(&m);
        for cycle in 0..4 {
            let inputs: BTreeMap<String, BddVec> = netlist
                .inputs
                .iter()
                .map(|p| {
                    let vars = m.new_vars(p.width);
                    (p.name.clone(), BddVec::from_vars(&mut m, &vars))
                })
                .collect();
            let expected = reference_step(netlist, &mut m, &state, &inputs);
            let (next, outputs) = sym.step(&mut m, &state, &inputs);
            assert_eq!(next, expected.0, "next state in cycle {cycle}");
            assert_eq!(outputs, expected.1, "outputs in cycle {cycle}");
            state = next;
        }
        sym
    }

    fn plan_of(sym: &SymbolicSim<'_>, net: NetId) -> Eval {
        sym.plan[net.0 as usize]
    }

    #[test]
    fn multiplexers_evaluate_as_one_ite() {
        let mut b = NetlistBuilder::new("mux");
        let s = b.input("s", 1).bit(0);
        let t = b.input("t", 2);
        let u = b.input("u", 2);
        let r = b.register("r", 2, 1);
        let plain = b.wmux(s, &t, &r.value());
        // `mux(¬s, ..)` builds `¬s∧t ∨ s∧e`: the select is the `Not`.
        let ns = b.not(s);
        let negated = b.wmux(ns, &plain, &u);
        b.set_next(&r, &negated);
        b.expose("plain", &plain);
        let n = b.finish().expect("valid");
        let sym = assert_plan_matches_reference(&n);
        for bit in 0..2 {
            assert!(matches!(plan_of(&sym, plain.bit(bit)), Eval::Ite(sel, ..) if sel == s));
            assert!(matches!(plan_of(&sym, negated.bit(bit)), Eval::Ite(sel, ..) if sel == s));
        }
        // Both `And`s of every multiplexer, and the `Not` only they read,
        // are absorbed.
        assert_eq!(plan_of(&sym, ns), Eval::Skip);
        let evaluated = sym.plan.iter().filter(|&&e| e != Eval::Skip).count();
        assert_eq!(evaluated, n.nodes.len() - 2 * 4 - 1);
    }

    #[test]
    fn a_multiplexer_whose_and_has_another_reader_stays_unfused() {
        let mut b = NetlistBuilder::new("shared");
        let s = b.input("s", 1).bit(0);
        let t = b.input("t", 1).bit(0);
        let e = b.input("e", 1).bit(0);
        let m = b.mux(s, t, e);
        let st = b.and(s, t);
        b.expose_bit("m", m);
        b.expose_bit("st", st);
        let hold = b.register("hold", 1, 0);
        b.set_next(&hold, &Word::from_bit(m));
        let n = b.finish().expect("valid");
        let sym = assert_plan_matches_reference(&n);
        assert_eq!(plan_of(&sym, m), Eval::Node);
        assert_eq!(plan_of(&sym, st), Eval::Node);
    }

    #[test]
    fn adders_and_register_file_reads_match_the_reference() {
        let mut b = NetlistBuilder::new("datapath");
        let x = b.input("x", 4);
        let addr = b.input("addr", 2);
        let rf = b.reg_array("rf", 3, 4, 5);
        let read = b.reg_array_read(&rf, &addr);
        let sum = b.wadd(&read, &x);
        let diff = b.wsub(&read, &x);
        b.reg_array_write(&rf, &[(addr.bit(0), addr.clone(), sum.clone())]);
        b.expose("sum", &sum);
        b.expose("diff", &diff);
        b.expose("read", &read);
        let n = b.finish().expect("valid");
        let sym = assert_plan_matches_reference(&n);
        // The read tree's multiplexers are fused, and so is each ripple
        // carry that is an `Or` (the carries into bits 2 and 3): a sum bit is
        // `x⊕y⊕c`, and its carry operand `c` is `ite(x⊕y, c', x)`.
        let is_xor = |net: NetId| matches!(n.nodes[net.0 as usize], NetNode::Xor(..));
        for bit in 0..4 {
            assert!(matches!(plan_of(&sym, read.bit(bit)), Eval::Ite(..)));
        }
        for bit in 2..4 {
            let NetNode::Xor(a, c) = n.nodes[sum.bit(bit).0 as usize] else {
                panic!("a sum bit is an xor");
            };
            assert!([a, c]
                .into_iter()
                .any(|net| matches!(plan_of(&sym, net), Eval::Ite(sel, ..) if is_xor(sel))));
        }
    }

    #[test]
    fn dead_gates_are_skipped() {
        let mut b = NetlistBuilder::new("dead");
        let x = b.input("x", 2);
        let acc = b.register("acc", 2, 0);
        let dead = b.and(x.bit(0), x.bit(1));
        let sum = b.wadd(&acc.value(), &x);
        b.set_next(&acc, &sum);
        let n = b.finish().expect("valid");
        let sym = assert_plan_matches_reference(&n);
        assert_eq!(plan_of(&sym, dead), Eval::Skip);
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
