//! A **parametric processor family**: netlist generators for in-order
//! pipelines of any depth from 2 to 8, with a configurable word width,
//! register count, forwarding network, optional stall input and an optional
//! branch delay slot — plus a seeded-bug injector that mutates the generated
//! design with the classic hazard bugs and records, in the netlist's
//! `PipelineHints`, exactly what it broke.
//!
//! Where [`crate::vsm`] and [`crate::alpha0`] reproduce the two fixed designs
//! of the thesis, this module *generates* the design space the verification
//! flows claim to cover: every configuration elaborates to a gate-level
//! [`Netlist`] pair (pipelined implementation + serial specification) built
//! from the same decode/ALU sub-circuits, ready to be pushed through **both**
//! flows — the β-relation verifier (`MachineSpec::family` names the ports and
//! observed variables) and the Burch–Dill flushing flow (the recorded
//! `PipelineHints` let `PipelineDesc::from_netlist` derive the term-level
//! model, bugs included).
//!
//! # The family ISA
//!
//! An instruction is `3·aw + 3` bits, little-endian fields
//! `[op:3 | ra:aw | rb:aw | rc:aw]` (`op` in the top three bits, `rc` in the
//! bottom `aw`), where `aw = log2(num_regs)`:
//!
//! * `op` 0–3: `rc ← ra (add|xor|and|or) rb`, PC advances by 1;
//! * `op` 4 (`br`): unconditional branch-and-link — `rc ← pc + 1`,
//!   `pc ← pc + 1 + sext(ra)` (the `ra` *field* is the displacement);
//! * `op` 5–7 behave as the ALU operation selected by the low two opcode
//!   bits (the decoder only compares against `100` for branches).
//!
//! With `delay_slots = 1` the branch resolves in the execute stage and its
//! delay-slot instruction is annulled; with `delay_slots = 0` the branch is
//! decoded combinationally at fetch and redirects immediately.

use pv_netlist::{BuildError, NetId, Netlist, NetlistBuilder, RegWord, Word};

/// Deliberate hazard bugs the injector can seed into a **generated pipelined**
/// implementation. Each mutation also updates the design's `PipelineHints`
/// through the recording builder primitives, so the netlist itself carries an
/// accurate record of what was broken — and the term-level flow derived from
/// it inherits the same defect.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FamilyBug {
    /// Drop the youngest (distance-1) operand-forwarding path: a RAW hazard
    /// against the immediately preceding instruction reads a stale register.
    /// Only meaningful at depth ≥ 3 (a depth-2 pipeline has no in-flight
    /// window to forward from).
    DropForwardPath,
    /// Invert the stall condition (`accept ∧ stall` instead of
    /// `accept ∧ ¬stall`): the machine stalls when it should accept and
    /// accepts when it should stall. Requires the stall input.
    WrongStallCondition,
    /// Compute branch targets from `pc` instead of `pc + 1` — the classic
    /// off-by-one target bug.
    BranchTargetOffByOne,
    /// Never build the annulment gate: the delay-slot instruction after a
    /// taken branch executes and retires instead of being squashed. Requires
    /// `delay_slots = 1`.
    LostAnnul,
}

impl FamilyBug {
    /// All injectable bugs, in a stable order (the campaign matrix iterates
    /// this).
    pub const ALL: [FamilyBug; 4] = [
        FamilyBug::DropForwardPath,
        FamilyBug::WrongStallCondition,
        FamilyBug::BranchTargetOffByOne,
        FamilyBug::LostAnnul,
    ];

    /// The bug's short name: the suffix [`FamilyConfig::tag`] renders after
    /// a `+`, and the `bug` tag of the service's job protocol.
    pub fn tag(self) -> &'static str {
        match self {
            FamilyBug::DropForwardPath => "drop-fwd",
            FamilyBug::WrongStallCondition => "inv-stall",
            FamilyBug::BranchTargetOffByOne => "off-by-one",
            FamilyBug::LostAnnul => "lost-annul",
        }
    }

    /// The bug named by `tag` (the inverse of [`FamilyBug::tag`]), or `None`
    /// for an unknown tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        FamilyBug::ALL.into_iter().find(|bug| bug.tag() == tag)
    }

    /// One line describing exactly what the injection broke in the circuit.
    pub fn description(self) -> &'static str {
        match self {
            FamilyBug::DropForwardPath => {
                "dropped the distance-1 operand-forwarding path (stale read on a RAW hazard)"
            }
            FamilyBug::WrongStallCondition => {
                "inverted the stall condition (accept ∧ stall instead of accept ∧ ¬stall)"
            }
            FamilyBug::BranchTargetOffByOne => "branch target computed from pc instead of pc + 1",
            FamilyBug::LostAnnul => {
                "annulment gate never built (the delay slot of a taken branch retires)"
            }
        }
    }

    /// Whether this bug can be injected into the given configuration (some
    /// bugs corrupt logic that only exists in part of the family).
    pub fn applies_to(self, config: &FamilyConfig) -> bool {
        match self {
            FamilyBug::DropForwardPath => config.depth >= 3,
            FamilyBug::WrongStallCondition => config.with_stall,
            FamilyBug::BranchTargetOffByOne => true,
            FamilyBug::LostAnnul => config.delay_slots == 1,
        }
    }
}

/// One point of the generated processor family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FamilyConfig {
    /// Pipeline depth (number of cycles from fetch to write-back), 2–8. The
    /// serial specification spends the same `k = depth` cycles per
    /// instruction.
    pub depth: usize,
    /// Data and PC width in bits.
    pub word_width: usize,
    /// Number of general-purpose registers (a power of two, 2–8).
    pub num_regs: usize,
    /// Branch delay slots: `0` (branches resolve at fetch) or `1` (branches
    /// resolve in execute and annul the following slot).
    pub delay_slots: usize,
    /// Add the 1-bit `stall` (bubble-injection) input the flushing flow
    /// drives. With the input held at 0 the design is bit-identical to its
    /// un-stallable twin.
    pub with_stall: bool,
    /// Bug injected into the pipelined implementation (`None` = correct).
    pub bug: Option<FamilyBug>,
}

impl FamilyConfig {
    /// A correct, stall-free configuration.
    pub fn new(depth: usize, word_width: usize, num_regs: usize, delay_slots: usize) -> Self {
        FamilyConfig {
            depth,
            word_width,
            num_regs,
            delay_slots,
            with_stall: false,
            bug: None,
        }
    }

    /// Adds the stall input (builder style) — required to run the generated
    /// design through the flushing flow.
    pub fn stallable(self) -> Self {
        FamilyConfig {
            with_stall: true,
            ..self
        }
    }

    /// Injects `bug` (builder style).
    pub fn with_bug(self, bug: FamilyBug) -> Self {
        FamilyConfig {
            bug: Some(bug),
            ..self
        }
    }

    /// Number of register-address bits.
    pub fn reg_addr_width(&self) -> usize {
        (self.num_regs.trailing_zeros() as usize).max(1)
    }

    /// Instruction width: three register fields plus the 3-bit opcode.
    pub fn instr_width(&self) -> usize {
        3 * self.reg_addr_width() + 3
    }

    /// Validates the configuration: the one statement of which family
    /// members exist and which bugs apply to them.
    ///
    /// # Errors
    /// Returns a message naming the first parameter out of range, or the
    /// injected bug that does not apply to this configuration (see
    /// [`FamilyBug::applies_to`]).
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=8).contains(&self.depth) {
            return Err(format!("family depth {} out of range 2..=8", self.depth));
        }
        if !self.num_regs.is_power_of_two() || !(2..=8).contains(&self.num_regs) {
            return Err(format!(
                "family num_regs {} must be a power of two in 2..=8",
                self.num_regs
            ));
        }
        if self.word_width < self.reg_addr_width() || self.word_width > 16 {
            return Err(format!(
                "family word_width {} out of range {}..=16",
                self.word_width,
                self.reg_addr_width()
            ));
        }
        if self.delay_slots > 1 {
            return Err(format!(
                "family delay_slots {} out of range 0..=1",
                self.delay_slots
            ));
        }
        match self.bug {
            Some(bug) if !bug.applies_to(self) => Err(format!(
                "bug {bug:?} does not apply to configuration {}",
                FamilyConfig { bug: None, ..*self }.tag()
            )),
            _ => Ok(()),
        }
    }

    /// Encodes an instruction word: `[op:3 | ra | rb | rc]`.
    pub fn encode(&self, op: u64, ra: u64, rb: u64, rc: u64) -> u64 {
        let aw = self.reg_addr_width();
        let am = (1u64 << aw) - 1;
        ((op & 0b111) << (3 * aw)) | ((ra & am) << (2 * aw)) | ((rb & am) << aw) | (rc & am)
    }

    /// A compact human-readable tag naming this configuration (used in
    /// netlist names and campaign tables).
    pub fn tag(&self) -> String {
        let mut tag = format!(
            "k{}w{}r{}d{}",
            self.depth, self.word_width, self.num_regs, self.delay_slots
        );
        if self.with_stall {
            tag.push('s');
        }
        if let Some(bug) = self.bug {
            tag.push('+');
            tag.push_str(bug.tag());
        }
        tag
    }
}

/// Decoded fields of a family instruction word.
struct Decode {
    op: Word,
    ra: Word,
    rb: Word,
    rc: Word,
    is_br: NetId,
}

fn decode(b: &mut NetlistBuilder, ir: &Word, aw: usize) -> Decode {
    let op = ir.slice(3 * aw, 3);
    let br_code = b.wconst(0b100, 3);
    let is_br = b.weq(&op, &br_code);
    Decode {
        op,
        ra: ir.slice(2 * aw, aw),
        rb: ir.slice(aw, aw),
        rc: ir.slice(0, aw),
        is_br,
    }
}

/// The four ALU operations selected by the low two opcode bits
/// (`00` add, `01` xor, `10` and, `11` or).
fn alu(b: &mut NetlistBuilder, op: &Word, a: &Word, bv: &Word) -> Word {
    let add = b.wadd(a, bv);
    let xor = b.wxor(a, bv);
    let and = b.wand(a, bv);
    let or = b.wor(a, bv);
    let lo = b.wmux(op.bit(0), &xor, &add);
    let hi = b.wmux(op.bit(0), &or, &and);
    b.wmux(op.bit(1), &hi, &lo)
}

/// A pass-through result latch: one pipeline stage past execute.
struct Lat {
    v: RegWord,
    rc: RegWord,
    res: RegWord,
    npc: RegWord,
}

/// Elaborates the **pipelined implementation** of `config`: a `depth`-stage
/// in-order pipeline — fetch, a combined decode/execute stage reading the
/// register file through the bypass network, `depth − 2` pass-through result
/// latches, and write-back — with the configured branch semantics, stall
/// input and injected bug.
///
/// The returned netlist's `PipelineHints` record the built structure (stage
/// valids, forwarding paths, stall gating, delay slots, branch target base),
/// so `pv-flush` can derive its term-level model — including any seeded bug —
/// directly from the circuit.
///
/// # Errors
/// Returns [`BuildError`] only if the internal construction is inconsistent
/// (which would be a bug in this crate).
///
/// # Panics
/// Panics with [`FamilyConfig::validate`]'s message on an invalid configuration.
pub fn pipelined(config: FamilyConfig) -> Result<Netlist, BuildError> {
    config.validate().unwrap_or_else(|e| panic!("{e}"));
    let bug = config.bug;
    let aw = config.reg_addr_width();
    let w = config.word_width;
    let iw = config.instr_width();
    let depth = config.depth;
    let d = config.delay_slots;
    let mut b = NetlistBuilder::new(&format!("family-pipelined-{}", config.tag()));
    let instr = b.input("instr", iw);
    let reset = b.input("reset", 1).bit(0);
    if config.with_stall {
        b.stall_input("stall");
    }
    let not_reset = b.not(reset);
    b.note_delay_slots(d);

    // Architectural and pipeline registers.
    let regs = b.reg_array("r", config.num_regs, w, 0);
    let pc = b.register("pc", w, 0);
    let fetch_pc = b.register("fetch_pc", w, 0);
    // Fetch/execute boundary.
    let ir1 = b.register("ir1", iw, 0);
    let v1 = b.register("v1", 1, 0);
    let pc1 = b.register("pc1", w, 0);
    b.mark_stage_valid(&v1);
    // Result latches for the stages between execute and write-back.
    let lats: Vec<Lat> = (2..depth)
        .map(|j| {
            let lat = Lat {
                v: b.register(&format!("v{j}"), 1, 0),
                rc: b.register(&format!("rc{j}"), aw, 0),
                res: b.register(&format!("res{j}"), w, 0),
                npc: b.register(&format!("npc{j}"), w, 0),
            };
            b.mark_stage_valid(&lat.v);
            lat
        })
        .collect();

    // ------------------------------------------------------ execute stage --
    let dec = decode(&mut b, &ir1.value(), aw);
    let s2_valid = v1.value().bit(0);
    // Bypass network: one source per in-flight result latch, youngest first.
    let mut sources: Vec<(NetId, Word, Word)> = lats
        .iter()
        .map(|l| (l.v.value().bit(0), l.rc.value(), l.res.value()))
        .collect();
    if bug == Some(FamilyBug::DropForwardPath) {
        sources.remove(0);
    }
    b.note_forward_paths(sources.len());
    let a_val = b.bypassed_read(&regs, &dec.ra, &sources);
    let b_val = b.bypassed_read(&regs, &dec.rb, &sources);
    let alu_out = alu(&mut b, &dec.op, &a_val, &b_val);
    let pc1w = pc1.value();
    let pc_plus_1 = b.winc(&pc1w);
    let disp = b.wsext(&dec.ra, w);
    let br_base = if bug == Some(FamilyBug::BranchTargetOffByOne) {
        b.note_branch_base_offset(0);
        pc1w.clone()
    } else {
        b.note_branch_base_offset(1);
        pc_plus_1.clone()
    };
    let target1 = b.wadd(&br_base, &disp);
    let result1 = b.wmux(dec.is_br, &pc_plus_1, &alu_out);
    let next_pc1 = b.wmux(dec.is_br, &target1, &pc_plus_1);

    // ----------------------------------------------- fetch accept / annul --
    let tru = b.lit(true);
    let br_in_ex = b.and(s2_valid, dec.is_br);
    let accept_pre = if d == 1 && bug != Some(FamilyBug::LostAnnul) {
        // The recording annulment gate squashes the delay slot of a taken
        // branch; the lost-annulment bug simply never builds it (and the
        // hints record zero annul gates).
        b.annul_gate(tru, br_in_ex)
    } else {
        tru
    };
    let accept = if bug == Some(FamilyBug::WrongStallCondition) {
        b.stall_gate_inverted(accept_pre)
    } else {
        b.stall_gate(accept_pre)
    };
    let v1_next = b.and(not_reset, accept);

    // ------------------------------------------------------- fetch redirect --
    let fetch_pcw = fetch_pc.value();
    let fetch_plus_1 = b.winc(&fetch_pcw);
    let advanced = match b.stall_net() {
        Some(stall) => b.wmux(stall, &fetch_pcw, &fetch_plus_1),
        None => fetch_plus_1.clone(),
    };
    let (redirect, redirect_target) = if d == 1 {
        // The branch resolves in execute; its delay slot (fetched this
        // cycle) is annulled by the gate above.
        (br_in_ex, target1.clone())
    } else {
        // Zero delay slots: decode the instruction input combinationally and
        // redirect the fetch PC in the same cycle the branch is accepted.
        let f = decode(&mut b, &instr, aw);
        let f_base = if bug == Some(FamilyBug::BranchTargetOffByOne) {
            fetch_pcw.clone()
        } else {
            fetch_plus_1.clone()
        };
        let f_disp = b.wsext(&f.ra, w);
        let f_target = b.wadd(&f_base, &f_disp);
        let taken = b.and(f.is_br, accept);
        (taken, f_target)
    };
    let redirected = b.wmux(redirect, &redirect_target, &advanced);
    let zero_pc = b.wconst(0, w);
    let fetch_next = b.wmux(reset, &zero_pc, &redirected);
    b.set_next(&fetch_pc, &fetch_next);

    // ---------------------------------------------------- state assignments --
    let zero_instr = b.wconst(0, iw);
    let ir1_next = b.wmux(reset, &zero_instr, &instr);
    b.set_next(&ir1, &ir1_next);
    b.set_next(&pc1, &fetch_pcw);
    b.set_next(&v1, &Word::from_bit(v1_next));

    // The result chain: execute's outputs flow into the first latch, each
    // latch into the next (current values are read before the next-state
    // assignment, so the chain shifts by one stage per cycle).
    let mut vin = b.and(s2_valid, not_reset);
    let mut rcin = dec.rc.clone();
    let mut resin = result1.clone();
    let mut npcin = next_pc1.clone();
    for lat in &lats {
        let cur_v = lat.v.value().bit(0);
        let cur = (lat.rc.value(), lat.res.value(), lat.npc.value());
        b.set_next(&lat.v, &Word::from_bit(vin));
        b.set_next(&lat.rc, &rcin);
        b.set_next(&lat.res, &resin);
        b.set_next(&lat.npc, &npcin);
        vin = b.and(cur_v, not_reset);
        (rcin, resin, npcin) = cur;
    }

    // ----------------------------------------------------------- write-back --
    let (wb_valid, wb_addr, wb_data, wb_npc) = match lats.last() {
        Some(l) => (
            l.v.value().bit(0),
            l.rc.value(),
            l.res.value(),
            l.npc.value(),
        ),
        // Depth 2: execute writes back directly.
        None => (s2_valid, dec.rc.clone(), result1.clone(), next_pc1.clone()),
    };
    let wb_en = b.and(wb_valid, not_reset);
    b.reg_array_write(&regs, &[(wb_en, wb_addr, wb_data)]);
    let pcw = pc.value();
    let pc_retire = b.wmux(wb_valid, &wb_npc, &pcw);
    let pc_next = b.wmux(reset, &zero_pc, &pc_retire);
    b.set_next(&pc, &pc_next);

    // Observed variables.
    for i in 0..config.num_regs {
        b.expose(&format!("r{i}"), &regs.entry(i));
    }
    b.expose("pc", &pcw);
    b.expose("fetch_pc", &fetch_pcw);
    b.finish()
}

/// Elaborates the **serial specification** of `config`: one instruction per
/// `k = depth` cycles — latched in phase 0, executed combinationally,
/// committed in phase `k − 1` — built from the same decode/ALU sub-circuits
/// as the pipeline. Bug injections are ignored: the unpipelined machine is
/// the specification.
///
/// # Errors
/// Returns [`BuildError`] only if the internal construction is inconsistent.
///
/// # Panics
/// Panics with [`FamilyConfig::validate`]'s message on an invalid configuration.
pub fn unpipelined(config: FamilyConfig) -> Result<Netlist, BuildError> {
    config.validate().unwrap_or_else(|e| panic!("{e}"));
    let aw = config.reg_addr_width();
    let w = config.word_width;
    let iw = config.instr_width();
    let k = config.depth;
    let mut b = NetlistBuilder::new(&format!(
        "family-unpipelined-k{}w{}r{}",
        config.depth, config.word_width, config.num_regs
    ));
    let instr = b.input("instr", iw);
    let reset = b.input("reset", 1).bit(0);
    let not_reset = b.not(reset);

    let regs = b.reg_array("r", config.num_regs, w, 0);
    let pc = b.register("pc", w, 0);
    // Phase counter 0 … k−1 (k need not be a power of two: explicit wrap).
    let pw = (usize::BITS - (k - 1).leading_zeros()).max(1) as usize;
    let phase = b.register("phase", pw, 0);
    let ir = b.register("ir", iw, 0);

    let phasew = phase.value();
    let zero_p = b.wconst(0, pw);
    let last_p = b.wconst((k - 1) as u64, pw);
    let is_phase0 = b.weq(&phasew, &zero_p);
    let is_last = b.weq(&phasew, &last_p);

    // Fetch: latch the instruction in phase 0.
    let zero_instr = b.wconst(0, iw);
    let fetched = b.wmux(is_phase0, &instr, &ir.value());
    let ir_next = b.wmux(reset, &zero_instr, &fetched);
    b.set_next(&ir, &ir_next);
    let phase_inc = b.winc(&phasew);
    let wrapped = b.wmux(is_last, &zero_p, &phase_inc);
    let phase_next = b.wmux(reset, &zero_p, &wrapped);
    b.set_next(&phase, &phase_next);

    // Execute (combinational from IR, registers and PC; committed in the
    // last phase).
    let dec = decode(&mut b, &ir.value(), aw);
    let a_val = b.reg_array_read(&regs, &dec.ra);
    let b_val = b.reg_array_read(&regs, &dec.rb);
    let alu_out = alu(&mut b, &dec.op, &a_val, &b_val);
    let pcw = pc.value();
    let pc_plus_1 = b.winc(&pcw);
    let disp = b.wsext(&dec.ra, w);
    let target = b.wadd(&pc_plus_1, &disp);
    let result = b.wmux(dec.is_br, &pc_plus_1, &alu_out);
    let next_pc = b.wmux(dec.is_br, &target, &pc_plus_1);

    // Commit.
    let wb_en = b.and(is_last, not_reset);
    b.reg_array_write(&regs, &[(wb_en, dec.rc.clone(), result)]);
    let zero_pc = b.wconst(0, w);
    let pc_keep = b.wmux(wb_en, &next_pc, &pcw);
    let pc_next = b.wmux(reset, &zero_pc, &pc_keep);
    b.set_next(&pc, &pc_next);

    for i in 0..config.num_regs {
        b.expose(&format!("r{i}"), &regs.entry(i));
    }
    b.expose("pc", &pcw);
    b.expose("phase", &phasew);
    b.finish()
}

/// A concrete reference interpreter for the family ISA — the ground truth
/// both netlists are checked against in this module's tests, and the
/// interpreter counterexample replays are compared to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FamilyState {
    /// The general-purpose registers.
    pub regs: Vec<u64>,
    /// The program counter.
    pub pc: u64,
}

impl FamilyState {
    /// The post-reset state: all registers and the PC at 0.
    pub fn reset(config: &FamilyConfig) -> Self {
        FamilyState {
            regs: vec![0; config.num_regs],
            pc: 0,
        }
    }

    /// Executes one instruction word.
    pub fn step(&mut self, config: &FamilyConfig, instr: u64) {
        let aw = config.reg_addr_width();
        let am = (1u64 << aw) - 1;
        let mask = if config.word_width == 64 {
            u64::MAX
        } else {
            (1u64 << config.word_width) - 1
        };
        let rc = (instr & am) as usize;
        let rb = ((instr >> aw) & am) as usize;
        let ra = ((instr >> (2 * aw)) & am) as usize;
        let op = (instr >> (3 * aw)) & 0b111;
        let link = (self.pc + 1) & mask;
        if op == 0b100 {
            // Branch-and-link: the `ra` field is the sign-extended
            // displacement.
            let raf = (instr >> (2 * aw)) & am;
            let disp = ((raf << (64 - aw)) as i64 >> (64 - aw)) as u64;
            self.regs[rc] = link;
            self.pc = link.wrapping_add(disp) & mask;
        } else {
            let a = self.regs[ra];
            let bv = self.regs[rb];
            self.regs[rc] = match op & 0b11 {
                0 => a.wrapping_add(bv),
                1 => a ^ bv,
                2 => a & bv,
                _ => a | bv,
            } & mask;
            self.pc = link;
        }
    }

    /// Runs a whole program from this state (builder style).
    pub fn run(mut self, config: &FamilyConfig, program: &[u64]) -> Self {
        for &instr in program {
            self.step(config, instr);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_netlist::ConcreteSim;
    use rand::prelude::*;

    /// Random program over ops 0–4; branch displacements stay small through
    /// the `ra` field width.
    fn random_program(
        rng: &mut impl Rng,
        config: &FamilyConfig,
        len: usize,
        with_branches: bool,
    ) -> Vec<u64> {
        let n = config.num_regs as u64;
        (0..len)
            .map(|_| {
                let op = if with_branches && rng.random_bool(0.25) {
                    4
                } else {
                    rng.random_range(0..4)
                };
                config.encode(
                    op,
                    rng.random_range(0..n),
                    rng.random_range(0..n),
                    rng.random_range(0..n),
                )
            })
            .collect()
    }

    fn is_branch(config: &FamilyConfig, instr: u64) -> bool {
        (instr >> (3 * config.reg_addr_width())) & 0b111 == 0b100
    }

    fn read_arch(
        out: &std::collections::HashMap<String, u64>,
        config: &FamilyConfig,
    ) -> (Vec<u64>, u64) {
        (
            (0..config.num_regs)
                .map(|i| out[&format!("r{i}")])
                .collect(),
            out["pc"],
        )
    }

    /// Runs `program` through the pipelined netlist — inserting a junk delay
    /// slot after every branch when `delay_slots = 1` — drains, and returns
    /// the final architectural state.
    fn run_pipelined(program: &[u64], config: FamilyConfig) -> (Vec<u64>, u64) {
        let n = pipelined(config).expect("build");
        let mut sim = ConcreteSim::new(&n);
        let junk = config.encode(0, 1, 1, 1); // r1 ← r1 + r1: must be annulled
        sim.step(&[("reset", 1), ("instr", 0)]);
        for &instr in program {
            sim.step(&[("reset", 0), ("instr", instr)]);
            if config.delay_slots == 1 && is_branch(&config, instr) {
                sim.step(&[("reset", 0), ("instr", junk)]);
            }
        }
        for _ in 0..config.depth - 1 {
            sim.step(&[("reset", 0), ("instr", 0)]);
        }
        let out = sim.outputs(&[("instr", 0), ("reset", 0)]);
        read_arch(&out, &config)
    }

    /// Runs `program` through the serial specification netlist.
    fn run_unpipelined(program: &[u64], config: FamilyConfig) -> (Vec<u64>, u64) {
        let n = unpipelined(config).expect("build");
        let mut sim = ConcreteSim::new(&n);
        sim.step(&[("reset", 1), ("instr", 0)]);
        for &instr in program {
            sim.step(&[("reset", 0), ("instr", instr)]);
            for _ in 0..config.depth - 1 {
                sim.step(&[("reset", 0), ("instr", 0)]);
            }
        }
        let out = sim.outputs(&[("instr", 0), ("reset", 0)]);
        read_arch(&out, &config)
    }

    fn isa_state(program: &[u64], config: &FamilyConfig) -> (Vec<u64>, u64) {
        let s = FamilyState::reset(config).run(config, program);
        (s.regs, s.pc)
    }

    fn sample_configs() -> Vec<FamilyConfig> {
        vec![
            FamilyConfig::new(2, 4, 2, 0),
            FamilyConfig::new(2, 4, 2, 1),
            FamilyConfig::new(3, 4, 4, 0),
            FamilyConfig::new(3, 4, 2, 1),
            FamilyConfig::new(4, 5, 4, 1),
            FamilyConfig::new(5, 4, 2, 0),
            FamilyConfig::new(6, 4, 4, 1),
            FamilyConfig::new(8, 3, 2, 0),
        ]
    }

    #[test]
    fn bug_tags_round_trip() {
        for bug in FamilyBug::ALL {
            assert_eq!(FamilyBug::from_tag(bug.tag()), Some(bug));
            let tag = FamilyConfig::new(3, 4, 2, 1)
                .stallable()
                .with_bug(bug)
                .tag();
            assert!(tag.ends_with(&format!("+{}", bug.tag())), "{tag}");
        }
        assert_eq!(FamilyBug::from_tag("nope"), None);
    }

    #[test]
    fn validate_states_one_rule_per_parameter() {
        let ok = FamilyConfig::new(2, 4, 2, 0).stallable();
        for (config, message) in [
            (
                FamilyConfig { depth: 1, ..ok },
                "family depth 1 out of range 2..=8",
            ),
            (
                FamilyConfig { depth: 9, ..ok },
                "family depth 9 out of range 2..=8",
            ),
            (
                FamilyConfig { num_regs: 3, ..ok },
                "family num_regs 3 must be a power of two in 2..=8",
            ),
            (
                FamilyConfig { num_regs: 16, ..ok },
                "family num_regs 16 must be a power of two in 2..=8",
            ),
            (
                FamilyConfig {
                    word_width: 17,
                    ..ok
                },
                "family word_width 17 out of range 1..=16",
            ),
            (
                FamilyConfig::new(2, 1, 4, 0),
                "family word_width 1 out of range 2..=16",
            ),
            (
                FamilyConfig {
                    delay_slots: 2,
                    ..ok
                },
                "family delay_slots 2 out of range 0..=1",
            ),
            (
                ok.with_bug(FamilyBug::DropForwardPath),
                "bug DropForwardPath does not apply to configuration k2w4r2d0s",
            ),
            (
                FamilyConfig::new(3, 4, 2, 0).with_bug(FamilyBug::WrongStallCondition),
                "bug WrongStallCondition does not apply to configuration k3w4r2d0",
            ),
            (
                ok.with_bug(FamilyBug::LostAnnul),
                "bug LostAnnul does not apply to configuration k2w4r2d0s",
            ),
        ] {
            assert_eq!(config.validate(), Err(message.to_owned()), "{config:?}");
        }
        for config in sample_configs() {
            assert_eq!(config.validate(), Ok(()), "{config:?}");
        }
        // Two registers need one address bit, so a 1-bit word is enough.
        assert_eq!(FamilyConfig::new(2, 1, 2, 0).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "family depth 9 out of range 2..=8")]
    fn elaborators_panic_with_the_validation_message() {
        let _ = pipelined(FamilyConfig::new(9, 4, 2, 0));
    }

    #[test]
    fn unpipelined_matches_the_reference_interpreter() {
        let mut rng = StdRng::seed_from_u64(11);
        for config in sample_configs() {
            for _ in 0..6 {
                let prog = random_program(&mut rng, &config, 6, true);
                assert_eq!(
                    run_unpipelined(&prog, config),
                    isa_state(&prog, &config),
                    "{} {prog:?}",
                    config.tag()
                );
            }
        }
    }

    #[test]
    fn pipelined_matches_the_reference_interpreter() {
        let mut rng = StdRng::seed_from_u64(12);
        for config in sample_configs() {
            for _ in 0..6 {
                let prog = random_program(&mut rng, &config, 8, true);
                assert_eq!(
                    run_pipelined(&prog, config),
                    isa_state(&prog, &config),
                    "{} {prog:?}",
                    config.tag()
                );
            }
        }
    }

    #[test]
    fn back_to_back_hazards_are_forwarded_at_every_depth() {
        // Registers start at 0 and the ALU has no literal operand, so the
        // branch link value (pc + 1) is the family ISA's only source of
        // nonzero data — `br` with displacement 0 falls through and seeds a
        // register, then every following instruction hazards on its
        // predecessor's result.
        for depth in 2..=8 {
            let config = FamilyConfig::new(depth, 4, 4, 0);
            let prog = vec![
                config.encode(4, 0, 0, 1), // r1 ← link (nonzero), fall through
                config.encode(0, 1, 1, 2), // r2 ← r1 + r1   (distance 1)
                config.encode(1, 2, 1, 3), // r3 ← r2 ^ r1   (distances 1, 2)
                config.encode(3, 3, 2, 1), // r1 ← r3 | r2   (distances 1, 2)
                config.encode(0, 1, 3, 2), // r2 ← r1 + r3   (distances 1, 2)
            ];
            assert_eq!(
                run_pipelined(&prog, config),
                isa_state(&prog, &config),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn every_applicable_bug_diverges_concretely() {
        for config in sample_configs() {
            let config = config.stallable();
            for bug in FamilyBug::ALL {
                if !bug.applies_to(&config) {
                    continue;
                }
                let buggy = config.with_bug(bug);
                // A branch first (seeding a nonzero link value — and, under
                // the lost-annulment bug, letting the junk delay slot retire
                // visibly), then distance-1 RAW hazards, then a closing
                // branch so a wrongly retiring delay slot corrupts the final
                // PC. One program exercises every seeded defect.
                let prog = vec![
                    config.encode(4, 0, 0, 1), // r1 ← link, fall through
                    config.encode(0, 1, 1, 0), // r0 ← r1 + r1  (distance 1)
                    config.encode(3, 0, 1, 1), // r1 ← r0 | r1  (distance 1)
                    config.encode(4, 1, 0, 0), // r0 ← link, branch away
                ];
                let good = run_pipelined(&prog, config);
                let bad = run_pipelined(&prog, buggy);
                assert_eq!(good, isa_state(&prog, &config), "{}", config.tag());
                assert_ne!(bad, good, "{} did not diverge", buggy.tag());
            }
        }
    }

    #[test]
    fn generated_hints_record_the_built_structure() {
        let config = FamilyConfig::new(5, 4, 4, 1).stallable();
        let n = pipelined(config).expect("build");
        let hints = n.pipeline_hints();
        assert_eq!(hints.stall_port.as_deref(), Some("stall"));
        assert_eq!(hints.stage_valids.len(), config.depth - 1);
        assert_eq!(hints.forward_paths, config.depth - 2);
        assert_eq!(hints.built_forward_paths, config.depth - 2);
        assert!(hints.stall_gates >= 1);
        assert!(!hints.stall_inverted);
        assert_eq!(hints.annul_gates, 1);
        assert_eq!(hints.delay_slots, Some(1));
        assert_eq!(hints.branch_base_offset, Some(1));
        // Each injection records exactly what it broke.
        let drop = pipelined(config.with_bug(FamilyBug::DropForwardPath)).expect("build");
        assert_eq!(drop.pipeline_hints().forward_paths, config.depth - 3);
        let inv = pipelined(config.with_bug(FamilyBug::WrongStallCondition)).expect("build");
        assert!(inv.pipeline_hints().stall_inverted);
        let off = pipelined(config.with_bug(FamilyBug::BranchTargetOffByOne)).expect("build");
        assert_eq!(off.pipeline_hints().branch_base_offset, Some(0));
        let lost = pipelined(config.with_bug(FamilyBug::LostAnnul)).expect("build");
        assert_eq!(lost.pipeline_hints().annul_gates, 0);
    }

    #[test]
    fn stallable_unstalled_behaviour_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(13);
        for config in [FamilyConfig::new(3, 4, 2, 1), FamilyConfig::new(4, 4, 4, 0)] {
            let base = pipelined(config).expect("build");
            let stallable = pipelined(config.stallable()).expect("build");
            let mut a = ConcreteSim::new(&base);
            let mut s = ConcreteSim::new(&stallable);
            let prog = random_program(&mut rng, &config, 12, true);
            let oa = a.step(&[("reset", 1), ("instr", 0)]);
            let os = s.step(&[("reset", 1), ("instr", 0), ("stall", 0)]);
            assert_eq!(oa, os);
            for &instr in &prog {
                let oa = a.step(&[("reset", 0), ("instr", instr)]);
                let os = s.step(&[("reset", 0), ("instr", instr), ("stall", 0)]);
                assert_eq!(oa, os, "{}: {prog:?}", config.tag());
            }
        }
    }

    #[test]
    fn stalling_drains_the_pipeline_to_the_architectural_state() {
        let config = FamilyConfig::new(4, 4, 4, 0).stallable();
        let prog = vec![
            config.encode(0, 1, 1, 1),
            config.encode(3, 1, 1, 2),
            config.encode(1, 2, 1, 3),
        ];
        let junk = config.encode(0, 3, 3, 3);
        let n = pipelined(config).expect("build");
        let mut sim = ConcreteSim::new(&n);
        sim.step(&[("reset", 1), ("instr", 0), ("stall", 0)]);
        for &instr in &prog {
            sim.step(&[("reset", 0), ("instr", instr), ("stall", 0)]);
        }
        // depth − 1 stalled cycles drain every in-flight stage; the junk word
        // presented meanwhile must never be accepted.
        for _ in 0..config.depth - 1 {
            sim.step(&[("reset", 0), ("instr", junk), ("stall", 1)]);
        }
        let out = sim.outputs(&[("instr", junk), ("reset", 0), ("stall", 1)]);
        assert_eq!(read_arch(&out, &config), isa_state(&prog, &config));
        // Stalled bubbles never retire: the state is a fixed point.
        for _ in 0..3 {
            sim.step(&[("reset", 0), ("instr", junk), ("stall", 1)]);
        }
        let still = sim.outputs(&[("instr", junk), ("reset", 0), ("stall", 1)]);
        assert_eq!(out, still);
    }
}
