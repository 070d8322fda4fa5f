//! Property-based tests of the netlist builder and its two evaluators:
//! word-level operators agree with `u64` arithmetic, and concrete simulation
//! agrees with symbolic simulation on randomly generated datapaths.

use std::collections::BTreeMap;

use proptest::prelude::*;
use pv_bdd::{BddManager, BddVec};
use pv_netlist::{ConcreteSim, NetlistBuilder, SymbolicSim};

/// Builds a combinational "ALU" netlist that exposes one output per word
/// operator applied to two input words.
fn alu_netlist(width: usize) -> pv_netlist::Netlist {
    let mut b = NetlistBuilder::new("alu");
    let a = b.input("a", width);
    let x = b.input("b", width);
    let dummy = b.register("dummy", 1, 0);
    let hold = dummy.value();
    b.set_next(&dummy, &hold);
    let sum = b.wadd(&a, &x);
    let diff = b.wsub(&a, &x);
    let and = b.wand(&a, &x);
    let or = b.wor(&a, &x);
    let xor = b.wxor(&a, &x);
    let shl = b.wshl(&a, &x);
    let shr = b.wshr(&a, &x);
    let eq = b.weq(&a, &x);
    let ult = b.wult(&a, &x);
    let slt = b.wslt(&a, &x);
    b.expose("sum", &sum);
    b.expose("diff", &diff);
    b.expose("and", &and);
    b.expose("or", &or);
    b.expose("xor", &xor);
    b.expose("shl", &shl);
    b.expose("shr", &shr);
    b.expose_bit("eq", eq);
    b.expose_bit("ult", ult);
    b.expose_bit("slt", slt);
    b.finish().expect("valid netlist")
}

proptest! {
    /// The word-level operators computed by the gate-level netlist agree with
    /// native integer arithmetic.
    #[test]
    fn word_operators_match_u64(a in 0u64..256, b in 0u64..256, width in 2usize..8) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let n = alu_netlist(width);
        let sim = ConcreteSim::new(&n);
        let out = sim.outputs(&[("a", a), ("b", b)]);
        prop_assert_eq!(out["sum"], (a + b) & mask);
        prop_assert_eq!(out["diff"], a.wrapping_sub(b) & mask);
        prop_assert_eq!(out["and"], a & b);
        prop_assert_eq!(out["or"], a | b);
        prop_assert_eq!(out["xor"], a ^ b);
        let shl = if b >= width as u64 { 0 } else { (a << b) & mask };
        let shr = if b >= width as u64 { 0 } else { a >> b };
        prop_assert_eq!(out["shl"], shl);
        prop_assert_eq!(out["shr"], shr);
        prop_assert_eq!(out["eq"], u64::from(a == b));
        prop_assert_eq!(out["ult"], u64::from(a < b));
        let signed = |x: u64| if x >> (width - 1) & 1 == 1 { x as i64 - (1 << width) } else { x as i64 };
        prop_assert_eq!(out["slt"], u64::from(signed(a) < signed(b)));
    }

    /// Symbolic simulation specialises to concrete simulation: evaluating the
    /// symbolic outputs under a concrete assignment gives the concrete trace.
    #[test]
    fn symbolic_agrees_with_concrete(inputs in proptest::collection::vec(0u64..16, 1..6)) {
        // A 4-bit accumulator with a running XOR checksum, plus a
        // multiplexer-heavy part: a 4-entry file written with the sum and
        // read back through its multiplexer tree, and a register that picks
        // the read or the checksum under a `Not` select.
        let mut b = NetlistBuilder::new("acc");
        let data = b.input("data", 4);
        let acc = b.register("acc", 4, 0);
        let chk = b.register("chk", 4, 0b1010);
        let sum = b.wadd(&acc.value(), &data);
        let x = b.wxor(&chk.value(), &data);
        b.set_next(&acc, &sum);
        b.set_next(&chk, &x);
        let rf = b.reg_array("rf", 4, 4, 0b0110);
        b.reg_array_write(&rf, &[(data.bit(2), data.slice(0, 2), sum.clone())]);
        let read = b.reg_array_read(&rf, &acc.value().slice(1, 2));
        let pick = b.register("pick", 4, 0);
        let select = b.not(data.bit(3));
        let picked = b.wmux(select, &read, &x);
        b.set_next(&pick, &picked);
        b.expose("acc", &acc.value());
        b.expose("chk", &chk.value());
        let netlist = b.finish().expect("valid");
        let registers = ["acc", "chk", "pick", "rf[0]", "rf[1]", "rf[2]", "rf[3]"];

        // Concrete run.
        let mut concrete = ConcreteSim::new(&netlist);
        for &d in &inputs {
            concrete.step(&[("data", d)]);
        }

        // Symbolic run with one fresh variable vector per cycle.
        let mut m = BddManager::new();
        let sym = SymbolicSim::new(&netlist);
        let mut state = sym.initial_state(&m);
        let mut cycle_vars = Vec::new();
        for _ in &inputs {
            let vars = m.new_vars(4);
            let mut map = BTreeMap::new();
            map.insert("data".to_owned(), BddVec::from_vars(&mut m, &vars));
            let (next, _) = sym.step(&mut m, &state, &map);
            state = next;
            cycle_vars.push(vars);
        }
        let assignment = |v: pv_bdd::Var| {
            cycle_vars.iter().enumerate().any(|(c, vars)| {
                vars.iter().position(|&x| x == v).is_some_and(|bit| inputs[c] >> bit & 1 == 1)
            })
        };
        for name in registers {
            let symbolic = state.register(&netlist, name).expect("register").eval(&m, assignment);
            prop_assert_eq!(symbolic, concrete.register(name).expect("register"), "{}", name);
        }
    }

    /// Register arrays behave like software arrays under random write/read
    /// sequences.
    #[test]
    fn register_array_matches_model(ops in proptest::collection::vec((0u64..8, 0u64..16, proptest::bool::ANY), 1..12)) {
        let mut b = NetlistBuilder::new("rf");
        let waddr = b.input("waddr", 3);
        let wdata = b.input("wdata", 4);
        let wen = b.input("wen", 1);
        let rf = b.reg_array("rf", 8, 4, 0);
        b.reg_array_write(&rf, &[(wen.bit(0), waddr, wdata)]);
        for i in 0..8 {
            b.expose(&format!("q{i}"), &rf.entry(i));
        }
        let netlist = b.finish().expect("valid");
        let mut sim = ConcreteSim::new(&netlist);
        let mut model = [0u64; 8];
        for &(addr, data, enable) in &ops {
            sim.step(&[("waddr", addr), ("wdata", data), ("wen", u64::from(enable))]);
            if enable {
                model[addr as usize] = data;
            }
        }
        let out = sim.outputs(&[]);
        for (i, &expected) in model.iter().enumerate() {
            prop_assert_eq!(out[&format!("q{i}")], expected);
        }
    }
}
