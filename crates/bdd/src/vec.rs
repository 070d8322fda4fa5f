//! Fixed-width bit-vectors of BDDs.
//!
//! A [`BddVec`] is how words cross the symbolic simulator's boundary: input
//! words go in, and output words and named registers come out of
//! `pv_netlist::SymbolicSim`, which itself evaluates the netlist gate by
//! gate. The few word operations here (addition, increment, comparison,
//! multiplexing) serve hand-built transition systems and the BDD
//! benchmarks. The representation is little-endian: bit 0 is the least
//! significant bit.

use crate::{Bdd, BddManager, Var};

/// A little-endian vector of BDDs representing a `width()`-bit word.
///
/// ```
/// use pv_bdd::{BddManager, BddVec};
/// let mut m = BddManager::new();
/// let a = BddVec::constant(&m, 5, 4);
/// let b = BddVec::constant(&m, 9, 4);
/// let sum = a.add(&mut m, &b);
/// assert_eq!(sum.as_const(&m), Some(14));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BddVec {
    bits: Vec<Bdd>,
}

impl BddVec {
    /// Builds a vector from explicit bits (bit 0 first).
    pub fn from_bits(bits: Vec<Bdd>) -> Self {
        BddVec { bits }
    }

    /// The constant `value`, truncated to `width` bits.
    pub fn constant(manager: &BddManager, value: u64, width: usize) -> Self {
        let bits = (0..width)
            .map(|i| manager.constant(value >> i & 1 == 1))
            .collect();
        BddVec { bits }
    }

    /// A vector of fresh projection functions for the given variables.
    pub fn from_vars(manager: &mut BddManager, vars: &[Var]) -> Self {
        let bits = vars.iter().map(|&v| manager.var(v)).collect();
        BddVec { bits }
    }

    /// Allocates `families` fresh symbolic words of `width` bits with their
    /// variables **interleaved**: bit `i` of every word is adjacent in the
    /// variable order (`a_0, b_0, a_1, b_1, …` for two words).
    ///
    /// This is the default layout for words that will be combined bitwise or
    /// arithmetically — a ripple-carry [`add`](Self::add) over interleaved
    /// operands stays linear in the width, whereas operands allocated
    /// wholesale one after the other blow up exponentially (see
    /// [`BddManager::new_vars_interleaved`]). Returns the words together
    /// with their variables (needed for quantification and counterexample
    /// expansion).
    pub fn new_interleaved(
        manager: &mut BddManager,
        families: usize,
        width: usize,
    ) -> Vec<(Vec<Var>, BddVec)> {
        manager
            .new_vars_interleaved(families, width)
            .into_iter()
            .map(|vars| {
                let word = BddVec::from_vars(manager, &vars);
                (vars, word)
            })
            .collect()
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Borrow the underlying bits.
    pub fn bits(&self) -> &[Bdd] {
        &self.bits
    }

    /// The `i`-th bit (LSB = 0).
    ///
    /// # Panics
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: usize) -> Bdd {
        self.bits[i]
    }

    /// If every bit is constant, the value of the word.
    pub fn as_const(&self, _manager: &BddManager) -> Option<u64> {
        let mut value = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            if b.is_true() {
                value |= 1 << i;
            } else if !b.is_false() {
                return None;
            }
        }
        Some(value)
    }

    /// Evaluates the word under a total assignment.
    pub fn eval<A: Fn(Var) -> bool + Copy>(&self, manager: &BddManager, assignment: A) -> u64 {
        let mut value = 0u64;
        for (i, &b) in self.bits.iter().enumerate() {
            if manager.eval(b, assignment) {
                value |= 1 << i;
            }
        }
        value
    }

    /// Ripple-carry addition, truncated to the common width.
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn add(&self, m: &mut BddManager, other: &Self) -> Self {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let mut carry = Bdd::FALSE;
        let mut bits = Vec::with_capacity(self.width());
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let axb = m.xor(a, b);
            let sum = m.xor(axb, carry);
            let ab = m.and(a, b);
            let ac = m.and(axb, carry);
            carry = m.or(ab, ac);
            bits.push(sum);
        }
        BddVec { bits }
    }

    /// Increment by one.
    pub fn inc(&self, m: &mut BddManager) -> Self {
        let one = BddVec::constant(m, 1, self.width());
        self.add(m, &one)
    }

    /// Equality as a single BDD.
    pub fn eq(&self, m: &mut BddManager, other: &Self) -> Bdd {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let mut acc = Bdd::TRUE;
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let e = m.xnor(a, b);
            acc = m.and(acc, e);
        }
        acc
    }

    /// Unsigned less-than as a single BDD.
    pub fn ult(&self, m: &mut BddManager, other: &Self) -> Bdd {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let mut lt = Bdd::FALSE;
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            // from LSB to MSB: lt' = (¬a & b) | (a==b) & lt
            let na = m.not(a);
            let nab = m.and(na, b);
            let eqb = m.xnor(a, b);
            let keep = m.and(eqb, lt);
            lt = m.or(nab, keep);
        }
        lt
    }

    /// The reduction-OR of all bits (word is non-zero).
    pub fn nonzero(&self, m: &mut BddManager) -> Bdd {
        let bits = self.bits.clone();
        m.or_many(&bits)
    }

    /// Word-level multiplexer: `sel ? then_word : else_word`.
    pub fn mux(m: &mut BddManager, sel: Bdd, then_word: &Self, else_word: &Self) -> Self {
        assert_eq!(then_word.width(), else_word.width(), "width mismatch");
        let bits = then_word
            .bits
            .iter()
            .zip(&else_word.bits)
            .map(|(&t, &e)| m.ite(sel, t, e))
            .collect();
        BddVec { bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts(m: &BddManager, a: u64, b: u64, w: usize) -> (BddVec, BddVec) {
        (BddVec::constant(m, a, w), BddVec::constant(m, b, w))
    }

    #[test]
    fn constant_arithmetic_matches_u64() {
        let mut m = BddManager::new();
        for (a, b) in [(0u64, 0u64), (3, 5), (7, 9), (15, 1), (12, 12)] {
            let (va, vb) = consts(&m, a, b, 4);
            assert_eq!(va.add(&mut m, &vb).as_const(&m), Some((a + b) & 0xF));
            assert_eq!(va.eq(&mut m, &vb).is_true(), a == b);
            assert_eq!(va.ult(&mut m, &vb).is_true(), a < b);
        }
    }

    #[test]
    fn symbolic_add_is_functionally_correct() {
        let mut m = BddManager::new();
        let avars = m.new_vars(3);
        let bvars = m.new_vars(3);
        let a = BddVec::from_vars(&mut m, &avars);
        let b = BddVec::from_vars(&mut m, &bvars);
        let sum = a.add(&mut m, &b);
        for x in 0u64..8 {
            for y in 0u64..8 {
                let assign = |v: Var| {
                    if let Some(i) = avars.iter().position(|&w| w == v) {
                        x >> i & 1 == 1
                    } else if let Some(i) = bvars.iter().position(|&w| w == v) {
                        y >> i & 1 == 1
                    } else {
                        false
                    }
                };
                assert_eq!(sum.eval(&m, assign), (x + y) & 7, "{x}+{y}");
            }
        }
    }

    #[test]
    fn mux_selects_a_word() {
        let mut m = BddManager::new();
        let s = m.new_var();
        let sel = m.var(s);
        let (a, b) = consts(&m, 0b1010, 0b0101, 4);
        let x = BddVec::mux(&mut m, sel, &a, &b);
        assert_eq!(x.eval(&m, |v| v == s), 0b1010);
        assert_eq!(x.eval(&m, |_| false), 0b0101);
    }

    #[test]
    fn interleaved_adder_stays_linear() {
        // With interleaved operands the 16-bit ripple-carry adder's node
        // count grows linearly in the width; the sequential allocation of the
        // same adder is exponential (the regression case kept measurable in
        // `benches/bdd_ops.rs`).
        let mut m = BddManager::new();
        let words = BddVec::new_interleaved(&mut m, 2, 16);
        let (avars, a) = &words[0];
        let (bvars, b) = &words[1];
        for bit in 0..16 {
            assert_eq!(avars[bit].index() + 1, bvars[bit].index());
        }
        let sum = a.add(&mut m, b);
        // Each sum bit is O(i) nodes under interleaving (so the per-bit sum is
        // O(w²), ~440 here); the sequential ordering is Ω(2^w) per high bit.
        let total: usize = (0..16).map(|i| m.node_count(sum.bit(i))).sum();
        assert!(
            total < 1_000,
            "interleaved adder should stay polynomial, got {total} nodes"
        );
        let msb = m.node_count(sum.bit(15));
        assert!(msb < 16 * 4, "high sum bit should be linear, got {msb}");
        // Spot-check functional correctness on a few assignments.
        for (x, y) in [(0u64, 0u64), (0xffff, 1), (0x1234, 0x4321)] {
            let assign = |v: Var| {
                if let Some(i) = avars.iter().position(|&w| w == v) {
                    x >> i & 1 == 1
                } else if let Some(i) = bvars.iter().position(|&w| w == v) {
                    y >> i & 1 == 1
                } else {
                    false
                }
            };
            assert_eq!(sum.eval(&m, assign), (x + y) & 0xffff);
        }
    }

    #[test]
    fn zero_tests() {
        let mut m = BddManager::new();
        let z = BddVec::constant(&m, 0, 4);
        let nz = BddVec::constant(&m, 2, 4);
        assert!(z.nonzero(&mut m).is_false());
        assert!(nz.nonzero(&mut m).is_true());
    }
}
