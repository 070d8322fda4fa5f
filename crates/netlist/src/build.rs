//! The word-level netlist builder (the BDS/BDSYN substitute).

use std::collections::HashMap;

use crate::net::{BuildError, NetId, NetNode, Netlist, PipelineHints, PortInfo, RegInfo};

/// A little-endian vector of nets forming a multi-bit signal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Word {
    bits: Vec<NetId>,
}

impl Word {
    /// Builds a word from explicit bits (LSB first).
    pub fn from_bits(bits: Vec<NetId>) -> Self {
        Word { bits }
    }

    /// Builds a one-bit word from a single net.
    pub fn from_bit(bit: NetId) -> Self {
        Word { bits: vec![bit] }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Bit `i` (LSB = 0).
    ///
    /// # Panics
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: usize) -> NetId {
        self.bits[i]
    }

    /// Borrow the underlying bits.
    pub fn bits(&self) -> &[NetId] {
        &self.bits
    }

    /// The sub-word `[lo, lo+len)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, len: usize) -> Word {
        assert!(lo + len <= self.width(), "slice out of range");
        Word {
            bits: self.bits[lo..lo + len].to_vec(),
        }
    }

    /// Concatenates `self` (low part) with `high`.
    pub fn concat(&self, high: &Word) -> Word {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&high.bits);
        Word { bits }
    }
}

/// Handle to a word-level register: the current-value word plus the identity
/// needed to assign its next state.
#[derive(Clone, Debug)]
pub struct RegWord {
    pub(crate) name: String,
    pub(crate) reg_indices: Vec<u32>,
    pub(crate) value: Word,
}

impl RegWord {
    /// The register's current-value word (its outputs).
    pub fn value(&self) -> Word {
        self.value.clone()
    }

    /// The register's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.value.width()
    }
}

/// An addressable array of word-level registers (a register file or a small
/// memory).
#[derive(Clone, Debug)]
pub struct RegArray {
    pub(crate) name: String,
    pub(crate) words: Vec<RegWord>,
}

impl RegArray {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if the array has no entries.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The current-value word of entry `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn entry(&self, i: usize) -> Word {
        self.words[i].value()
    }

    /// Width of each entry in bits.
    pub fn width(&self) -> usize {
        self.words.first().map_or(0, RegWord::width)
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Mutable builder of a [`Netlist`].
///
/// The builder offers both single-bit gate constructors and word-level
/// operators; gate nodes are structurally hashed and constant-folded so that
/// equivalent sub-circuits are shared. See the [crate-level
/// documentation](crate) for a complete example.
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    nodes: Vec<NetNode>,
    node_cache: HashMap<NetNode, NetId>,
    regs: Vec<RegInfo>,
    inputs: Vec<PortInfo>,
    outputs: Vec<(String, Vec<NetId>)>,
    assigned: Vec<bool>,
    hints: PipelineHints,
    stall_net: Option<NetId>,
}

impl NetlistBuilder {
    /// Starts a new design with the given name.
    pub fn new(name: &str) -> Self {
        let mut b = NetlistBuilder {
            name: name.to_owned(),
            nodes: Vec::new(),
            node_cache: HashMap::new(),
            regs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            assigned: Vec::new(),
            hints: PipelineHints::default(),
            stall_net: None,
        };
        // Nets 0 and 1 are the constants.
        b.push(NetNode::Const(false));
        b.push(NetNode::Const(true));
        b
    }

    fn push(&mut self, node: NetNode) -> NetId {
        if let Some(&id) = self.node_cache.get(&node) {
            return id;
        }
        let id = NetId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.node_cache.insert(node, id);
        id
    }

    fn const_of(&self, id: NetId) -> Option<bool> {
        match self.nodes[id.0 as usize] {
            NetNode::Const(b) => Some(b),
            _ => None,
        }
    }

    // ----------------------------------------------------------- bit level --

    /// The constant net for `value`.
    pub fn lit(&mut self, value: bool) -> NetId {
        if value {
            NetId(1)
        } else {
            NetId(0)
        }
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        if let Some(v) = self.const_of(a) {
            return self.lit(!v);
        }
        if let NetNode::Not(inner) = self.nodes[a.0 as usize] {
            return inner;
        }
        self.push(NetNode::Not(a))
    }

    /// 2-input AND.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => return self.lit(false),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(NetNode::And(a, b))
    }

    /// 2-input OR.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => return self.lit(true),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(NetNode::Or(a, b))
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.lit(false);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(NetNode::Xor(a, b))
    }

    /// 2-input XNOR (equivalence).
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// Bit multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: NetId, t: NetId, e: NetId) -> NetId {
        if let Some(v) = self.const_of(sel) {
            return if v { t } else { e };
        }
        if t == e {
            return t;
        }
        let st = self.and(sel, t);
        let ns = self.not(sel);
        let se = self.and(ns, e);
        self.or(st, se)
    }

    /// Conjunction of many bits (true for an empty slice).
    pub fn and_many(&mut self, bits: &[NetId]) -> NetId {
        let mut acc = self.lit(true);
        for &b in bits {
            acc = self.and(acc, b);
        }
        acc
    }

    /// Disjunction of many bits (false for an empty slice).
    pub fn or_many(&mut self, bits: &[NetId]) -> NetId {
        let mut acc = self.lit(false);
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    // --------------------------------------------------------------- ports --

    /// Declares a primary input port of the given width.
    pub fn input(&mut self, name: &str, width: usize) -> Word {
        let port = self.inputs.len() as u32;
        self.inputs.push(PortInfo {
            name: name.to_owned(),
            width,
        });
        let bits = (0..width)
            .map(|bit| {
                self.push(NetNode::Input {
                    port,
                    bit: bit as u32,
                })
            })
            .collect();
        Word { bits }
    }

    /// Exposes a word as a named observable output (an "observed variable" in
    /// the sense of Section 5.4).
    pub fn expose(&mut self, name: &str, word: &Word) {
        self.outputs.push((name.to_owned(), word.bits.clone()));
    }

    // ----------------------------------------------- stall/bubble primitives --

    /// Declares the 1-bit **stall/bubble-injection** input and records it in
    /// the design's [`PipelineHints`]. Asserting the input must make the
    /// design insert a pipeline bubble instead of accepting the fetched
    /// instruction (use [`stall_gate`](Self::stall_gate) on the fetch-accept
    /// signal) while instructions already in flight drain normally — exactly
    /// the knob the Burch–Dill flushing abstraction drives.
    ///
    /// # Panics
    /// Panics if a stall input was already declared.
    pub fn stall_input(&mut self, name: &str) -> NetId {
        assert!(
            self.hints.stall_port.is_none(),
            "a stall input was already declared"
        );
        self.hints.stall_port = Some(name.to_owned());
        let bit = self.input(name, 1).bit(0);
        self.stall_net = Some(bit);
        bit
    }

    /// Gates a fetch-accept signal with the declared stall input:
    /// `accept ∧ ¬stall`. When no stall input has been declared this is the
    /// identity, so a design can apply the gate unconditionally and stay
    /// bit-identical to its un-stallable twin.
    pub fn stall_gate(&mut self, accept: NetId) -> NetId {
        match self.stall_net {
            None => accept,
            Some(stall) => {
                self.hints.stall_gates += 1;
                let not_stall = self.not(stall);
                self.and(accept, not_stall)
            }
        }
    }

    /// A [`stall_gate`](Self::stall_gate) with **inverted** polarity:
    /// `accept ∧ stall`. This is a deliberately seeded wrong-stall-condition
    /// bug — the design stalls when it should accept and accepts when it
    /// should stall — and it is recorded as such in the [`PipelineHints`] so
    /// a netlist-derived term-level flow inherits the bug. Identity when no
    /// stall input has been declared.
    pub fn stall_gate_inverted(&mut self, accept: NetId) -> NetId {
        match self.stall_net {
            None => accept,
            Some(stall) => {
                self.hints.stall_gates += 1;
                self.hints.stall_inverted = true;
                self.and(accept, stall)
            }
        }
    }

    /// Gates a fetch-accept signal with an annulment condition:
    /// `accept ∧ ¬annul`. Use this — rather than a bare `and`/`not` pair —
    /// where a resolved control transfer squashes its delay slot, so the
    /// annulment logic's presence is recorded in the [`PipelineHints`] (a
    /// lost-annulment bug simply never builds the gate).
    pub fn annul_gate(&mut self, accept: NetId, annul: NetId) -> NetId {
        self.hints.annul_gates += 1;
        let not_annul = self.not(annul);
        self.and(accept, not_annul)
    }

    /// Records the design's branch delay-slot count in the
    /// [`PipelineHints`]. Generators of designs with control transfers call
    /// this so a netlist-derived term-level flow knows whether the fetched
    /// instruction after a taken branch is annulled (`d = 1`) or the branch
    /// resolves at fetch (`d = 0`).
    pub fn note_delay_slots(&mut self, d: usize) {
        self.hints.delay_slots = Some(d);
    }

    /// Records the offset added to a branch's own address to form its target
    /// base in the [`PipelineHints`]: `1` is the architectural `pc + 1` base,
    /// `0` the classic off-by-one bug. Call it at the point the target adder
    /// is built so the hint always reflects the circuit.
    pub fn note_branch_base_offset(&mut self, offset: u64) {
        self.hints.branch_base_offset = Some(offset);
    }

    /// The net of the declared stall input, if any.
    pub fn stall_net(&self) -> Option<NetId> {
        self.stall_net
    }

    /// Records `reg` as a per-stage valid-bit register in the design's
    /// [`PipelineHints`]. Call once per pipeline stage, in pipeline order
    /// (fetch side first): the number of marked stages is the number of
    /// instructions the design can hold in flight, which determines the flush
    /// bound of the derived term-level pipeline.
    ///
    /// # Panics
    /// Panics if `reg` is not a 1-bit register.
    pub fn mark_stage_valid(&mut self, reg: &RegWord) {
        assert_eq!(reg.width(), 1, "a stage valid bit must be 1 bit wide");
        self.hints.stage_valids.push(reg.name.clone());
    }

    /// Records the number of operand-bypass (forwarding) paths feeding the
    /// register-read stage in the design's [`PipelineHints`]. Call it at the
    /// point the bypass network is instantiated, passing the number of
    /// in-flight sources the reads actually consult — a bug that drops the
    /// bypass network then drops it from the hints too, and the term-level
    /// flow derived from the netlist inherits the bug.
    pub fn note_forward_paths(&mut self, paths: usize) {
        self.hints.forward_paths = self.hints.forward_paths.max(paths);
    }

    /// Exposes a single bit as a named observable output.
    pub fn expose_bit(&mut self, name: &str, bit: NetId) {
        self.outputs.push((name.to_owned(), vec![bit]));
    }

    // ----------------------------------------------------------- registers --

    /// Declares a word-level register with the given reset value.
    pub fn register(&mut self, name: &str, width: usize, init: u64) -> RegWord {
        let mut reg_indices = Vec::with_capacity(width);
        let mut bits = Vec::with_capacity(width);
        for bit in 0..width {
            let idx = self.regs.len() as u32;
            self.regs.push(RegInfo {
                name: name.to_owned(),
                bit,
                init: init >> bit & 1 == 1,
                next: None,
            });
            self.assigned.push(false);
            reg_indices.push(idx);
            bits.push(self.push(NetNode::Reg(idx)));
        }
        RegWord {
            name: name.to_owned(),
            reg_indices,
            value: Word { bits },
        }
    }

    /// Assigns the next-state word of a register.
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn set_next(&mut self, reg: &RegWord, next: &Word) {
        assert_eq!(
            reg.width(),
            next.width(),
            "register `{}` width mismatch",
            reg.name
        );
        for (i, &idx) in reg.reg_indices.iter().enumerate() {
            if self.assigned[idx as usize] {
                // Defer the error to `finish` so that it is reported through
                // the Result channel rather than a panic.
                self.regs[idx as usize].next = None;
                continue;
            }
            self.assigned[idx as usize] = true;
            self.regs[idx as usize].next = Some(next.bit(i));
        }
    }

    /// Declares an addressable array of `count` registers of `width` bits,
    /// each reset to `init`.
    pub fn reg_array(&mut self, name: &str, count: usize, width: usize, init: u64) -> RegArray {
        let words = (0..count)
            .map(|i| self.register(&format!("{name}[{i}]"), width, init))
            .collect();
        RegArray {
            name: name.to_owned(),
            words,
        }
    }

    /// Combinationally reads `array[addr]` through a multiplexer tree.
    /// Addresses beyond the array length read entry `len-1`.
    pub fn reg_array_read(&mut self, array: &RegArray, addr: &Word) -> Word {
        assert!(!array.is_empty(), "cannot read an empty register array");
        let mut result = array.words[array.len() - 1].value();
        for i in (0..array.len().saturating_sub(1)).rev() {
            let here = self.addr_is(addr, i as u64);
            result = self.wmux(here, &array.words[i].value(), &result);
        }
        result
    }

    /// Assigns the next state of every entry of `array` according to a
    /// priority list of write ports `(write_enable, address, data)`; earlier
    /// ports win. Entries not written hold their value.
    ///
    /// This must be called exactly once per array (it performs the single
    /// next-state assignment of every underlying register).
    pub fn reg_array_write(&mut self, array: &RegArray, ports: &[(NetId, Word, Word)]) {
        for (i, entry) in array.words.clone().iter().enumerate() {
            let mut next = entry.value();
            // Apply in reverse so that the first port has the highest priority.
            for (we, addr, data) in ports.iter().rev() {
                let here = self.addr_is(addr, i as u64);
                let write_here = self.and(*we, here);
                next = self.wmux(write_here, data, &next);
            }
            self.set_next(entry, &next);
        }
    }

    /// Combinationally reads `array[addr]` with bypassing from a priority
    /// list of younger in-flight write sources `(forward_enable, dest_addr,
    /// data)` — earlier sources win. With an empty source list this is a
    /// plain [`reg_array_read`](Self::reg_array_read).
    ///
    /// This is the circuit both pipelined processor models build their
    /// operand reads from; record the source count with
    /// [`note_forward_paths`](Self::note_forward_paths) when the read is an
    /// operand fetch, so the bypass network's presence is visible to the
    /// netlist-derived term-level flow.
    pub fn bypassed_read(
        &mut self,
        array: &RegArray,
        addr: &Word,
        sources: &[(NetId, Word, Word)],
    ) -> Word {
        self.hints.built_forward_paths = self.hints.built_forward_paths.max(sources.len());
        let mut value = self.reg_array_read(array, addr);
        // Apply in reverse so the first source has the highest priority.
        for (enable, dest, data) in sources.iter().rev() {
            let same = self.weq(addr, dest);
            let hit = self.and(*enable, same);
            value = self.wmux(hit, data, &value);
        }
        value
    }

    fn addr_is(&mut self, addr: &Word, value: u64) -> NetId {
        let w = self.wconst(value, addr.width());
        self.weq(addr, &w)
    }

    // ----------------------------------------------------------- word ops --

    /// The constant word `value` of the given width.
    pub fn wconst(&mut self, value: u64, width: usize) -> Word {
        let bits = (0..width).map(|i| self.lit(value >> i & 1 == 1)).collect();
        Word { bits }
    }

    /// Bitwise NOT.
    pub fn wnot(&mut self, a: &Word) -> Word {
        Word {
            bits: a.bits.iter().map(|&b| self.not(b)).collect(),
        }
    }

    fn wzip(&mut self, a: &Word, b: &Word, op: fn(&mut Self, NetId, NetId) -> NetId) -> Word {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        Word {
            bits: a
                .bits
                .iter()
                .zip(&b.bits)
                .map(|(&x, &y)| op(self, x, y))
                .collect(),
        }
    }

    /// Bitwise AND.
    pub fn wand(&mut self, a: &Word, b: &Word) -> Word {
        self.wzip(a, b, Self::and)
    }

    /// Bitwise OR.
    pub fn wor(&mut self, a: &Word, b: &Word) -> Word {
        self.wzip(a, b, Self::or)
    }

    /// Bitwise XOR.
    pub fn wxor(&mut self, a: &Word, b: &Word) -> Word {
        self.wzip(a, b, Self::xor)
    }

    /// Ripple-carry addition truncated to the common width.
    pub fn wadd(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        let mut carry = self.lit(false);
        let mut bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.bits.iter().zip(&b.bits) {
            let xy = self.xor(x, y);
            let sum = self.xor(xy, carry);
            let c1 = self.and(x, y);
            let c2 = self.and(xy, carry);
            carry = self.or(c1, c2);
            bits.push(sum);
        }
        Word { bits }
    }

    /// Two's-complement subtraction truncated to the common width.
    pub fn wsub(&mut self, a: &Word, b: &Word) -> Word {
        let nb = self.wnot(b);
        let one = self.wconst(1, a.width());
        let t = self.wadd(a, &nb);
        self.wadd(&t, &one)
    }

    /// Increment by one.
    pub fn winc(&mut self, a: &Word) -> Word {
        let one = self.wconst(1, a.width());
        self.wadd(a, &one)
    }

    /// Word equality as a single bit.
    pub fn weq(&mut self, a: &Word, b: &Word) -> NetId {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        let eqs: Vec<NetId> = a
            .bits
            .iter()
            .zip(&b.bits)
            .map(|(&x, &y)| self.xnor(x, y))
            .collect();
        self.and_many(&eqs)
    }

    /// Unsigned less-than as a single bit.
    pub fn wult(&mut self, a: &Word, b: &Word) -> NetId {
        assert_eq!(a.width(), b.width(), "word width mismatch");
        let mut lt = self.lit(false);
        for (&x, &y) in a.bits.iter().zip(&b.bits) {
            let nx = self.not(x);
            let xlty = self.and(nx, y);
            let eq = self.xnor(x, y);
            let keep = self.and(eq, lt);
            lt = self.or(xlty, keep);
        }
        lt
    }

    /// Unsigned less-or-equal as a single bit.
    pub fn wule(&mut self, a: &Word, b: &Word) -> NetId {
        let gt = self.wult(b, a);
        self.not(gt)
    }

    /// Signed (two's-complement) less-than as a single bit.
    pub fn wslt(&mut self, a: &Word, b: &Word) -> NetId {
        assert!(a.width() > 0, "signed comparison of zero-width word");
        let sa = a.bit(a.width() - 1);
        let sb = b.bit(b.width() - 1);
        let ult = self.wult(a, b);
        let diff = self.xor(sa, sb);
        self.mux(diff, sa, ult)
    }

    /// Signed less-or-equal as a single bit.
    pub fn wsle(&mut self, a: &Word, b: &Word) -> NetId {
        let gt = self.wslt(b, a);
        self.not(gt)
    }

    /// `true` bit iff the word is all zeros.
    pub fn wis_zero(&mut self, a: &Word) -> NetId {
        let nz = self.or_many(a.bits());
        self.not(nz)
    }

    /// Word multiplexer: `sel ? t : e`.
    pub fn wmux(&mut self, sel: NetId, t: &Word, e: &Word) -> Word {
        assert_eq!(t.width(), e.width(), "word width mismatch");
        Word {
            bits: t
                .bits
                .iter()
                .zip(&e.bits)
                .map(|(&a, &b)| self.mux(sel, a, b))
                .collect(),
        }
    }

    /// Logical left shift by a constant.
    pub fn wshl_const(&mut self, a: &Word, amount: usize) -> Word {
        let zero = self.lit(false);
        let bits = (0..a.width())
            .map(|i| if i >= amount { a.bit(i - amount) } else { zero })
            .collect();
        Word { bits }
    }

    /// Logical right shift by a constant.
    pub fn wshr_const(&mut self, a: &Word, amount: usize) -> Word {
        let zero = self.lit(false);
        let bits = (0..a.width())
            .map(|i| {
                if i + amount < a.width() {
                    a.bit(i + amount)
                } else {
                    zero
                }
            })
            .collect();
        Word { bits }
    }

    /// Logical left shift by a symbolic amount (barrel shifter).
    pub fn wshl(&mut self, a: &Word, amount: &Word) -> Word {
        let mut acc = a.clone();
        for (stage, &abit) in amount.bits.iter().enumerate() {
            let shifted = self.wshl_const(&acc, 1 << stage);
            acc = self.wmux(abit, &shifted, &acc);
        }
        acc
    }

    /// Logical right shift by a symbolic amount (barrel shifter).
    pub fn wshr(&mut self, a: &Word, amount: &Word) -> Word {
        let mut acc = a.clone();
        for (stage, &abit) in amount.bits.iter().enumerate() {
            let shifted = self.wshr_const(&acc, 1 << stage);
            acc = self.wmux(abit, &shifted, &acc);
        }
        acc
    }

    /// Zero-extends (or truncates) to `width` bits.
    pub fn wzext(&mut self, a: &Word, width: usize) -> Word {
        let zero = self.lit(false);
        let mut bits = a.bits.clone();
        bits.truncate(width);
        while bits.len() < width {
            bits.push(zero);
        }
        Word { bits }
    }

    /// Sign-extends (or truncates) to `width` bits.
    ///
    /// # Panics
    /// Panics if the source word is empty.
    pub fn wsext(&mut self, a: &Word, width: usize) -> Word {
        assert!(a.width() > 0, "cannot sign-extend an empty word");
        let sign = a.bit(a.width() - 1);
        let mut bits = a.bits.clone();
        bits.truncate(width);
        while bits.len() < width {
            bits.push(sign);
        }
        Word { bits }
    }

    // -------------------------------------------------------------- finish --

    /// Validates the design and produces the immutable [`Netlist`].
    ///
    /// # Errors
    /// Returns [`BuildError`] if a register has no (or more than one)
    /// next-state assignment or if port names collide.
    pub fn finish(self) -> Result<Netlist, BuildError> {
        let mut seen = std::collections::HashSet::new();
        for p in &self.inputs {
            if !seen.insert(p.name.clone()) {
                return Err(BuildError::DuplicatePort {
                    name: p.name.clone(),
                });
            }
        }
        let mut seen_out = std::collections::HashSet::new();
        for (name, _) in &self.outputs {
            if !seen_out.insert(name.clone()) {
                return Err(BuildError::DuplicatePort { name: name.clone() });
            }
        }
        for (i, r) in self.regs.iter().enumerate() {
            if r.next.is_none() {
                if self.assigned[i] {
                    return Err(BuildError::DoubleAssignedRegister {
                        name: r.name.clone(),
                    });
                }
                return Err(BuildError::UnassignedRegister {
                    name: r.name.clone(),
                });
            }
        }
        Ok(Netlist {
            name: self.name,
            nodes: self.nodes,
            regs: self.regs,
            inputs: self.inputs,
            outputs: self.outputs,
            hints: self.hints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_and_sharing() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1).bit(0);
        let t = b.lit(true);
        let f = b.lit(false);
        assert_eq!(b.and(x, t), x);
        assert_eq!(b.and(x, f), f);
        assert_eq!(b.or(x, f), x);
        assert_eq!(b.xor(x, f), x);
        let n1 = b.not(x);
        let n2 = b.not(x);
        assert_eq!(n1, n2);
        assert_eq!(b.not(n1), x);
        let a1 = b.and(x, n1);
        let a2 = b.and(n1, x);
        assert_eq!(a1, a2);
    }

    #[test]
    fn unassigned_register_is_an_error() {
        let mut b = NetlistBuilder::new("t");
        let _r = b.register("r", 2, 0);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, BuildError::UnassignedRegister { .. }));
    }

    #[test]
    fn duplicate_ports_are_errors() {
        let mut b = NetlistBuilder::new("t");
        let _a = b.input("a", 1);
        let _b = b.input("a", 2);
        let r = b.register("r", 1, 0);
        let v = r.value();
        b.set_next(&r, &v);
        assert!(matches!(b.finish(), Err(BuildError::DuplicatePort { .. })));
    }

    #[test]
    fn double_assignment_is_an_error() {
        let mut b = NetlistBuilder::new("t");
        let r = b.register("r", 1, 0);
        let v = r.value();
        b.set_next(&r, &v);
        b.set_next(&r, &v);
        assert!(matches!(
            b.finish(),
            Err(BuildError::DoubleAssignedRegister { .. })
        ));
    }

    #[test]
    fn stall_primitives_record_pipeline_hints() {
        let mut b = NetlistBuilder::new("t");
        let _instr = b.input("instr", 4);
        // Without a stall input the gate is the identity.
        let x = b.input("x", 1).bit(0);
        assert_eq!(b.stall_gate(x), x);
        let stall = b.stall_input("stall");
        let gated = b.stall_gate(x);
        let not_stall = b.not(stall);
        assert_eq!(gated, b.and(x, not_stall));
        let v1 = b.register("v1", 1, 0);
        let v2 = b.register("v2", 1, 0);
        b.mark_stage_valid(&v1);
        b.mark_stage_valid(&v2);
        b.note_forward_paths(2);
        b.note_forward_paths(1); // the max is kept
        let g = Word::from_bit(gated);
        b.set_next(&v1, &g);
        let v1v = v1.value();
        b.set_next(&v2, &v1v);
        let n = b.finish().expect("build");
        let hints = n.pipeline_hints();
        assert_eq!(hints.stall_port.as_deref(), Some("stall"));
        assert_eq!(hints.stage_valids, vec!["v1".to_owned(), "v2".to_owned()]);
        assert_eq!(hints.forward_paths, 2);
        // Only the gate built *after* the stall input was declared counts.
        assert_eq!(hints.stall_gates, 1);
        assert!(!hints.stall_inverted);
        assert_eq!(hints.annul_gates, 0);
        assert_eq!(hints.delay_slots, None);
        assert_eq!(hints.branch_base_offset, None);
        assert_eq!(n.input_width("stall"), Some(1));
    }

    #[test]
    fn generator_primitives_record_pipeline_hints() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1).bit(0);
        let y = b.input("y", 1).bit(0);
        // Without a stall input the inverted gate is also the identity.
        assert_eq!(b.stall_gate_inverted(x), x);
        let stall = b.stall_input("stall");
        let inv = b.stall_gate_inverted(x);
        assert_eq!(inv, b.and(x, stall));
        let annulled = b.annul_gate(x, y);
        let not_y = b.not(y);
        assert_eq!(annulled, b.and(x, not_y));
        b.note_delay_slots(1);
        b.note_branch_base_offset(1);
        let regs = b.reg_array("r", 2, 4, 0);
        let addr = b.input("addr", 1);
        let read = b.bypassed_read(&regs, &addr, &[(x, addr.clone(), read_data(&regs))]);
        b.expose("read", &read);
        b.reg_array_write(&regs, &[]);
        let n = b.finish().expect("build");
        let hints = n.pipeline_hints();
        assert_eq!(hints.stall_gates, 1);
        assert!(hints.stall_inverted);
        assert_eq!(hints.annul_gates, 1);
        assert_eq!(hints.delay_slots, Some(1));
        assert_eq!(hints.branch_base_offset, Some(1));
        assert_eq!(hints.built_forward_paths, 1);
    }

    fn read_data(regs: &RegArray) -> Word {
        regs.words[0].value()
    }

    #[test]
    fn bypassed_read_prioritises_younger_sources() {
        let mut b = NetlistBuilder::new("t");
        let regs = b.reg_array("r", 2, 4, 0);
        let addr = b.input("addr", 1);
        let en0 = b.input("en0", 1).bit(0);
        let en1 = b.input("en1", 1).bit(0);
        let d0 = b.input("d0", 4);
        let d1 = b.input("d1", 4);
        let a = addr.clone();
        let sources = [(en0, a.clone(), d0.clone()), (en1, a.clone(), d1.clone())];
        let read = b.bypassed_read(&regs, &addr, &sources);
        b.expose("read", &read);
        for w in regs.words.clone() {
            let v = w.value();
            b.set_next(&w, &v);
        }
        let n = b.finish().expect("build");
        let mut sim = crate::ConcreteSim::new(&n);
        let out = sim.step(&[("addr", 0), ("en0", 1), ("en1", 1), ("d0", 5), ("d1", 9)]);
        assert_eq!(out["read"], 5, "the first source wins");
        let out = sim.step(&[("addr", 0), ("en0", 0), ("en1", 1), ("d0", 5), ("d1", 9)]);
        assert_eq!(out["read"], 9);
        let out = sim.step(&[("addr", 0), ("en0", 0), ("en1", 0), ("d0", 5), ("d1", 9)]);
        assert_eq!(out["read"], 0, "no source: the register file value");
    }

    #[test]
    fn word_slice_concat() {
        let mut b = NetlistBuilder::new("t");
        let w = b.input("w", 8);
        let lo = w.slice(0, 4);
        let hi = w.slice(4, 4);
        let back = lo.concat(&hi);
        assert_eq!(back, w);
    }
}
