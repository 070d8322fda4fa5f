//! Netlist implementations of the VSM (Figures 12 and 13 of the thesis).
//!
//! Two machines are provided, built from the same decode/ALU sub-circuits:
//!
//! * [`pipelined`] — the 4-stage static pipeline (IF → RF → EX → WB) with
//!   operand bypassing from the EX and WB stages and one annulled delay slot
//!   after `br` (`k = 4`, `d = 1`);
//! * [`unpipelined`] — the serial specification machine that spends `k = 4`
//!   cycles per instruction (fetch in phase 0, write-back in phase 3), so
//!   that its inputs are only relevant every `k`-th cycle.
//!
//! Both expose the same observed variables: the eight registers `r0…r7`, the
//! retired program counter `pc`, and the write-back port (`wb_en`, `wb_addr`,
//! `wb_data`). The pipelined machine additionally exposes its fetch PC.
//!
//! [`VsmConfig`] selects optional bug injections (for negative verification
//! tests) and the interrupt/trap extension used by the dynamic-β example of
//! Section 5.5.

use pv_isa::vsm::{DATA_WIDTH, INSTR_WIDTH, NUM_REGS, PC_WIDTH};
use pv_netlist::{BuildError, NetId, Netlist, NetlistBuilder, RegArray, Word};

/// Address (in instruction words) of the interrupt handler used by the
/// trap-extension machines.
pub const TRAP_HANDLER_PC: u64 = 4;
/// Register that receives the return address when a trap is taken.
pub const TRAP_LINK_REG: u64 = 7;

/// Deliberate design errors that can be injected into the *pipelined*
/// implementation; the verifier must reject every one of them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VsmBug {
    /// Remove the operand bypass network (RAW hazards read stale registers).
    NoBypass,
    /// Do not annul the delay-slot instruction after `br`.
    NoAnnul,
    /// Write results to the `Rb` field instead of `Rc`.
    WrongWritebackReg,
    /// Compute branch targets without the `+1` (off by one).
    BranchTargetOffByOne,
}

/// Configuration of the VSM netlist generators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VsmConfig {
    /// Bug injected into the pipelined implementation (`None` = correct).
    pub bug: Option<VsmBug>,
    /// Add an `irq` input and trap logic (interrupt extension, Section 5.5).
    pub with_interrupt: bool,
    /// Add a 1-bit `stall` input to the pipelined machine: asserting it
    /// inserts a pipeline bubble instead of accepting the fetched instruction
    /// while the instructions in flight drain normally. With the input held
    /// at 0 the machine is bit-identical to the un-stallable design; holding
    /// it at 1 is the Burch–Dill flushing abstraction's drain knob (see
    /// `pv-flush`).
    pub with_stall: bool,
    /// Number of general-purpose registers modelled (a power of two ≤ 8).
    ///
    /// The full VSM has eight registers; Section 6.2 reduces the machine to a
    /// single register ("the single general purpose register model") to keep
    /// the BDDs tractable. Both netlists of a pair must use the same value:
    /// register addresses are taken modulo `num_regs` everywhere.
    pub num_regs: usize,
}

impl Default for VsmConfig {
    fn default() -> Self {
        VsmConfig {
            bug: None,
            with_interrupt: false,
            with_stall: false,
            num_regs: NUM_REGS,
        }
    }
}

impl VsmConfig {
    /// The correct, interrupt-free configuration.
    pub fn correct() -> Self {
        VsmConfig::default()
    }

    /// A configuration with the given bug injected.
    pub fn with_bug(bug: VsmBug) -> Self {
        VsmConfig {
            bug: Some(bug),
            ..VsmConfig::default()
        }
    }

    /// The interrupt/trap extension of Section 5.5, without bugs.
    ///
    /// The extended machines have an additional `irq` input. When `irq` is
    /// asserted during an instruction-fetch cycle, the fetched instruction is
    /// replaced by a *trap*: the return address (the architectural PC + 1) is
    /// written to register [`TRAP_LINK_REG`] and control transfers to the
    /// fixed handler address [`TRAP_HANDLER_PC`]. In the pipelined machine
    /// the trap behaves like a control-transfer instruction — it annuls the
    /// instruction in its delay slot — so the output-filtering function has
    /// to be modified *on the fly* when the event occurs: this is the dynamic
    /// β-relation the verifier exercises in the `interrupts` example.
    pub fn with_interrupts() -> Self {
        VsmConfig {
            with_interrupt: true,
            ..VsmConfig::default()
        }
    }

    /// The reduced-register-file model of Section 6.2 (the paper uses a
    /// single register; any power of two up to 8 is accepted here).
    pub fn reduced(num_regs: usize) -> Self {
        VsmConfig {
            num_regs,
            ..VsmConfig::default()
        }
    }

    /// Adds the `stall` (bubble-injection) input to the pipelined machine
    /// (builder style) — the variant one netlist needs to run through both
    /// the β-relation flow and the flushing flow.
    pub fn stallable(self) -> Self {
        VsmConfig {
            with_stall: true,
            ..self
        }
    }

    /// Number of register-address bits for this configuration.
    pub fn reg_addr_width(&self) -> usize {
        self.num_regs.trailing_zeros().max(1) as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a message when `num_regs` is not a power of two in `1..=8`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.num_regs.is_power_of_two() || !(1..=NUM_REGS).contains(&self.num_regs) {
            return Err(format!(
                "vsm num_regs {} must be a power of two in 1..=8",
                self.num_regs
            ));
        }
        Ok(())
    }
}

/// Decoded fields of a 13-bit VSM instruction word.
struct Decode {
    op: Word,
    literal: NetId,
    ra: Word,
    rb: Word,
    rc: Word,
    is_br: NetId,
}

fn decode(b: &mut NetlistBuilder, ir: &Word) -> Decode {
    let op = ir.slice(10, 3);
    let br_code = b.wconst(0b100, 3);
    let is_br = b.weq(&op, &br_code);
    Decode {
        op,
        literal: ir.bit(9),
        ra: ir.slice(6, 3),
        rb: ir.slice(3, 3),
        rc: ir.slice(0, 3),
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

/// Sign-extends the 3-bit displacement field to the 5-bit PC width.
fn sext_disp(b: &mut NetlistBuilder, disp: &Word) -> Word {
    b.wsext(disp, PC_WIDTH)
}

fn expose_architectural_state(
    b: &mut NetlistBuilder,
    num_regs: usize,
    regs: &RegArray,
    pc: &Word,
    wb_en: NetId,
    wb_addr: &Word,
    wb_data: &Word,
) {
    for i in 0..num_regs {
        b.expose(&format!("r{i}"), &regs.entry(i));
    }
    b.expose("pc", pc);
    b.expose_bit("wb_en", wb_en);
    b.expose("wb_addr", wb_addr);
    b.expose("wb_data", wb_data);
}

/// Builds the pipelined VSM (Figure 12): 4-stage static pipeline with
/// bypassing and one annulled delay slot after `br`.
///
/// # Errors
/// Returns [`BuildError`] only if the internal construction is inconsistent
/// (which would be a bug in this crate).
///
/// # Panics
/// Panics with [`VsmConfig::validate`]'s message on an invalid configuration.
pub fn pipelined(config: VsmConfig) -> Result<Netlist, BuildError> {
    config.validate().unwrap_or_else(|e| panic!("{e}"));
    let bug = config.bug;
    let aw = config.reg_addr_width();
    let mut b = NetlistBuilder::new("vsm-pipelined");
    let instr = b.input("instr", INSTR_WIDTH);
    let reset = b.input("reset", 1).bit(0);
    let irq = if config.with_interrupt {
        Some(b.input("irq", 1).bit(0))
    } else {
        None
    };
    if config.with_stall {
        b.stall_input("stall");
    }
    let not_reset = b.not(reset);

    // Architectural and pipeline registers (declared first so that any stage
    // can refer to any other stage's current values).
    let regs = b.reg_array("r", config.num_regs, DATA_WIDTH, 0);
    let pc = b.register("pc", PC_WIDTH, 0);
    let fetch_pc = b.register("fetch_pc", PC_WIDTH, 0);
    // IF/RF boundary.
    let ir1 = b.register("ir1", INSTR_WIDTH, 0);
    let v1 = b.register("v1", 1, 0);
    let pc1 = b.register("pc1", PC_WIDTH, 0);
    let trap1 = b.register("trap1", 1, 0);
    // RF/EX boundary.
    let v2 = b.register("v2", 1, 0);
    let rc2 = b.register("rc2", aw, 0);
    let a2 = b.register("a2", DATA_WIDTH, 0);
    let b2 = b.register("b2", DATA_WIDTH, 0);
    let op2 = b.register("op2", 3, 0);
    let is_link2 = b.register("is_link2", 1, 0);
    let link2 = b.register("link2", DATA_WIDTH, 0);
    let next_pc2 = b.register("next_pc2", PC_WIDTH, 0);
    // EX/WB boundary.
    let v3 = b.register("v3", 1, 0);
    let rc3 = b.register("rc3", aw, 0);
    let result3 = b.register("result3", DATA_WIDTH, 0);
    let next_pc3 = b.register("next_pc3", PC_WIDTH, 0);
    // The pipeline structure, recorded for the netlist-derived term-level
    // flow: three in-flight instructions (RF, EX, WB stages), so flushing
    // drains the machine in three bubble cycles.
    b.mark_stage_valid(&v1);
    b.mark_stage_valid(&v2);
    b.mark_stage_valid(&v3);

    // ------------------------------------------------------------ EX stage --
    let a2w = a2.value();
    let b2w = b2.value();
    let alu2 = alu(&mut b, &op2.value(), &a2w, &b2w);
    let ex_result = b.wmux(is_link2.value().bit(0), &link2.value(), &alu2);
    let ex_valid = v2.value().bit(0);

    // ------------------------------------------------------------ WB stage --
    let wb_valid = v3.value().bit(0);
    let wb_en = b.and(wb_valid, not_reset);

    // ------------------------------------------------------------ RF stage --
    let dec = decode(&mut b, &ir1.value());
    let rf_valid = v1.value().bit(0);
    let is_trap = trap1.value().bit(0);
    let bypass_sources = if bug == Some(VsmBug::NoBypass) {
        Vec::new()
    } else {
        vec![
            (ex_valid, rc2.value(), ex_result.clone()),
            (wb_valid, rc3.value(), result3.value()),
        ]
    };
    b.note_forward_paths(bypass_sources.len());
    let ra_addr = dec.ra.slice(0, aw);
    let rb_addr = dec.rb.slice(0, aw);
    let a_val = b.bypassed_read(&regs, &ra_addr, &bypass_sources);
    let b_reg = b.bypassed_read(&regs, &rb_addr, &bypass_sources);
    let b_val = b.wmux(dec.literal, &dec.rb, &b_reg);
    let pc1w = pc1.value();
    let pc_plus_1 = b.winc(&pc1w);
    let link1 = pc_plus_1.slice(0, DATA_WIDTH);
    let disp5 = sext_disp(&mut b, &dec.ra);
    let br_base = if bug == Some(VsmBug::BranchTargetOffByOne) {
        pc1w.clone()
    } else {
        pc_plus_1.clone()
    };
    let target1 = b.wadd(&br_base, &disp5);
    let handler = b.wconst(TRAP_HANDLER_PC, PC_WIDTH);
    let trap_link_reg = b.wconst(TRAP_LINK_REG % config.num_regs as u64, aw);
    // Control-transfer classification for redirect/annul purposes.
    let is_ct = b.or(dec.is_br, is_trap);
    let br_next = b.wmux(dec.is_br, &target1, &pc_plus_1);
    let next_pc1 = b.wmux(is_trap, &handler, &br_next);
    let is_link1 = b.or(dec.is_br, is_trap);
    let rc_field = if bug == Some(VsmBug::WrongWritebackReg) {
        dec.rb.clone()
    } else {
        dec.rc.clone()
    };
    let rc_addr = rc_field.slice(0, aw);
    let rc1 = b.wmux(is_trap, &trap_link_reg, &rc_addr);

    // ------------------------------------------------------------ IF stage --
    let ct_in_rf = b.and(rf_valid, is_ct);
    let annul = if bug == Some(VsmBug::NoAnnul) {
        b.lit(false)
    } else {
        ct_in_rf
    };
    let not_annul = b.not(annul);
    // Stalling inserts a bubble instead of the fetched instruction (and holds
    // the fetch PC); instructions already in flight drain normally. Without a
    // stall input `stall_gate` is the identity, so the un-stallable design is
    // bit-identical.
    let accept = b.stall_gate(not_annul);
    let v1_next_bit = b.and(not_reset, accept);
    let fetch_plus_1 = b.winc(&fetch_pc.value());
    let advanced = match b.stall_net() {
        Some(stall) => b.wmux(stall, &fetch_pc.value(), &fetch_plus_1),
        None => fetch_plus_1,
    };
    let redirected = b.wmux(ct_in_rf, &next_pc1, &advanced);
    let zero_pc = b.wconst(0, PC_WIDTH);
    let fetch_next = b.wmux(reset, &zero_pc, &redirected);
    let trap_fetch = match irq {
        Some(irq) => b.and(irq, not_reset),
        None => b.lit(false),
    };

    // ---------------------------------------------------- state assignments --
    let zero_instr = b.wconst(0, INSTR_WIDTH);
    let ir1_next = b.wmux(reset, &zero_instr, &instr);
    b.set_next(&ir1, &ir1_next);
    b.set_next(&pc1, &fetch_pc.value());
    b.set_next(&v1, &Word::from_bit(v1_next_bit));
    b.set_next(&trap1, &Word::from_bit(trap_fetch));
    b.set_next(&fetch_pc, &fetch_next);

    let v2_next = b.and(rf_valid, not_reset);
    b.set_next(&v2, &Word::from_bit(v2_next));
    b.set_next(&rc2, &rc1);
    b.set_next(&a2, &a_val);
    b.set_next(&b2, &b_val);
    b.set_next(&op2, &dec.op);
    b.set_next(&is_link2, &Word::from_bit(is_link1));
    b.set_next(&link2, &link1);
    b.set_next(&next_pc2, &next_pc1);

    let v3_next = b.and(ex_valid, not_reset);
    b.set_next(&v3, &Word::from_bit(v3_next));
    b.set_next(&rc3, &rc2.value());
    b.set_next(&result3, &ex_result);
    b.set_next(&next_pc3, &next_pc2.value());

    // Write-back of the retiring instruction.
    b.reg_array_write(&regs, &[(wb_en, rc3.value(), result3.value())]);
    let pc_hold = pc.value();
    let pc_retire = b.wmux(wb_valid, &next_pc3.value(), &pc_hold);
    let pc_next = b.wmux(reset, &zero_pc, &pc_retire);
    b.set_next(&pc, &pc_next);

    // Observed variables.
    let pcw = pc.value();
    expose_architectural_state(
        &mut b,
        config.num_regs,
        &regs,
        &pcw,
        wb_en,
        &rc3.value(),
        &result3.value(),
    );
    b.expose("fetch_pc", &fetch_pc.value());
    b.finish()
}

/// Builds the unpipelined (serial) VSM specification machine (Figure 13):
/// the instruction is latched in phase 0 and the architectural state is
/// written in phase 3, so one instruction completes every `k = 4` cycles.
///
/// Bug injections are ignored — the unpipelined machine is the specification.
///
/// # Errors
/// Returns [`BuildError`] only if the internal construction is inconsistent.
///
/// # Panics
/// Panics with [`VsmConfig::validate`]'s message on an invalid configuration.
pub fn unpipelined(config: VsmConfig) -> Result<Netlist, BuildError> {
    config.validate().unwrap_or_else(|e| panic!("{e}"));
    let aw = config.reg_addr_width();
    let mut b = NetlistBuilder::new("vsm-unpipelined");
    let instr = b.input("instr", INSTR_WIDTH);
    let reset = b.input("reset", 1).bit(0);
    let irq = if config.with_interrupt {
        Some(b.input("irq", 1).bit(0))
    } else {
        None
    };
    let not_reset = b.not(reset);

    let regs = b.reg_array("r", config.num_regs, DATA_WIDTH, 0);
    let pc = b.register("pc", PC_WIDTH, 0);
    let phase = b.register("phase", 2, 0);
    let ir = b.register("ir", INSTR_WIDTH, 0);
    let trap_pending = b.register("trap_pending", 1, 0);

    let phasew = phase.value();
    let zero2 = b.wconst(0, 2);
    let three = b.wconst(3, 2);
    let is_phase0 = b.weq(&phasew, &zero2);
    let is_phase3 = b.weq(&phasew, &three);

    // Fetch: latch the instruction (and a pending interrupt) in phase 0.
    let zero_instr = b.wconst(0, INSTR_WIDTH);
    let fetched = b.wmux(is_phase0, &instr, &ir.value());
    let ir_next = b.wmux(reset, &zero_instr, &fetched);
    b.set_next(&ir, &ir_next);
    let trap_now = match irq {
        Some(irq) => b.and(irq, is_phase0),
        None => b.lit(false),
    };
    let trap_keep = b.mux(is_phase0, trap_now, trap_pending.value().bit(0));
    let trap_next = b.and(trap_keep, not_reset);
    b.set_next(&trap_pending, &Word::from_bit(trap_next));

    // Phase counter: 0,1,2,3,0,…
    let phase_inc = b.winc(&phasew);
    let phase_next = b.wmux(reset, &zero2, &phase_inc);
    b.set_next(&phase, &phase_next);

    // Execute (combinational from IR, registers and PC; committed in phase 3).
    let dec = decode(&mut b, &ir.value());
    let is_trap = trap_pending.value().bit(0);
    let ra_addr = dec.ra.slice(0, aw);
    let rb_addr = dec.rb.slice(0, aw);
    let a_val = b.reg_array_read(&regs, &ra_addr);
    let b_reg = b.reg_array_read(&regs, &rb_addr);
    let b_val = b.wmux(dec.literal, &dec.rb, &b_reg);
    let alu_out = alu(&mut b, &dec.op, &a_val, &b_val);
    let pcw = pc.value();
    let pc_plus_1 = b.winc(&pcw);
    let link = pc_plus_1.slice(0, DATA_WIDTH);
    let is_link = b.or(dec.is_br, is_trap);
    let result = b.wmux(is_link, &link, &alu_out);
    let disp5 = sext_disp(&mut b, &dec.ra);
    let target = b.wadd(&pc_plus_1, &disp5);
    let handler = b.wconst(TRAP_HANDLER_PC, PC_WIDTH);
    let trap_link_reg = b.wconst(TRAP_LINK_REG % config.num_regs as u64, aw);
    let rc_addr = dec.rc.slice(0, aw);
    let rc_sel = b.wmux(is_trap, &trap_link_reg, &rc_addr);
    let br_next = b.wmux(dec.is_br, &target, &pc_plus_1);
    let next_pc = b.wmux(is_trap, &handler, &br_next);

    // Commit.
    let wb_en = b.and(is_phase3, not_reset);
    b.reg_array_write(&regs, &[(wb_en, rc_sel.clone(), result.clone())]);
    let zero_pc = b.wconst(0, PC_WIDTH);
    let pc_keep = b.wmux(wb_en, &next_pc, &pcw);
    let pc_next = b.wmux(reset, &zero_pc, &pc_keep);
    b.set_next(&pc, &pc_next);

    expose_architectural_state(
        &mut b,
        config.num_regs,
        &regs,
        &pcw,
        wb_en,
        &rc_sel,
        &result,
    );
    b.expose("phase", &phasew);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_isa::vsm::{VsmInstr, VsmOp, VsmState};
    use pv_netlist::ConcreteSim;
    use rand::prelude::*;

    /// Runs `program` through the unpipelined netlist and returns the final
    /// architectural state it exposes.
    fn run_unpipelined(program: &[VsmInstr]) -> (Vec<u64>, u64) {
        let n = unpipelined(VsmConfig::correct()).expect("build");
        let mut sim = ConcreteSim::new(&n);
        sim.step(&[("reset", 1), ("instr", 0)]);
        for instr in program {
            sim.step(&[("reset", 0), ("instr", u64::from(instr.encode()))]);
            for _ in 0..3 {
                sim.step(&[("reset", 0), ("instr", 0)]);
            }
        }
        let out = sim.outputs(&[("instr", 0), ("reset", 0)]);
        (
            (0..NUM_REGS).map(|i| out[&format!("r{i}")]).collect(),
            out["pc"],
        )
    }

    /// Runs `program` through the pipelined netlist, inserting a junk cycle
    /// after every control-transfer instruction (its annulled delay slot), and
    /// returns the final architectural state.
    fn run_pipelined(program: &[VsmInstr], config: VsmConfig) -> (Vec<u64>, u64) {
        let n = pipelined(config).expect("build");
        let mut sim = ConcreteSim::new(&n);
        sim.step(&[("reset", 1), ("instr", 0)]);
        for instr in program {
            sim.step(&[("reset", 0), ("instr", u64::from(instr.encode()))]);
            if instr.is_control_transfer() {
                // Delay slot: feed an arbitrary instruction; it must be annulled.
                sim.step(&[
                    ("reset", 0),
                    ("instr", u64::from(VsmInstr::add_lit(6, 6, 7).encode())),
                ]);
            }
        }
        // Drain the pipeline: after three more cycles the last real
        // instruction has written back, while the drain instructions fed here
        // have not yet retired, so the sampled state is exactly the
        // architectural state after the program.
        for _ in 0..3 {
            sim.step(&[("reset", 0), ("instr", 0)]);
        }
        let out = sim.outputs(&[("instr", 0), ("reset", 0)]);
        (
            (0..NUM_REGS).map(|i| out[&format!("r{i}")]).collect(),
            out["pc"],
        )
    }

    fn isa_state(program: &[VsmInstr]) -> (Vec<u64>, u64) {
        let s = VsmState::reset().run(program);
        (
            s.regs.iter().map(|&r| u64::from(r)).collect(),
            u64::from(s.pc),
        )
    }

    fn random_program(rng: &mut impl Rng, len: usize, with_branches: bool) -> Vec<VsmInstr> {
        (0..len)
            .map(|_| {
                let choice = rng.random_range(0..if with_branches { 5 } else { 4 });
                let rc = rng.random_range(0..8) as u8;
                let ra = rng.random_range(0..8) as u8;
                let rb = rng.random_range(0..8) as u8;
                let literal = rng.random_bool(0.5);
                let op = match choice {
                    0 => VsmOp::Add,
                    1 => VsmOp::Xor,
                    2 => VsmOp::And,
                    3 => VsmOp::Or,
                    _ => VsmOp::Br,
                };
                if op == VsmOp::Br {
                    VsmInstr::br(rc, ra)
                } else if literal {
                    VsmInstr::alu_lit(op, rc, ra, rb)
                } else {
                    VsmInstr::alu_reg(op, rc, ra, rb)
                }
            })
            .collect()
    }

    #[test]
    fn unpipelined_matches_isa_interpreter() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let prog = random_program(&mut rng, 6, true);
            assert_eq!(run_unpipelined(&prog), isa_state(&prog), "{prog:?}");
        }
    }

    #[test]
    fn pipelined_matches_isa_interpreter() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let prog = random_program(&mut rng, 8, true);
            assert_eq!(
                run_pipelined(&prog, VsmConfig::correct()),
                isa_state(&prog),
                "{prog:?}"
            );
        }
    }

    #[test]
    fn pipelined_handles_back_to_back_hazards() {
        // r1 = 3; r2 = r1 + r1; r3 = r2 ^ r1  (RAW hazards at distance 1 and 2)
        let prog = [
            VsmInstr::add_lit(1, 0, 3),
            VsmInstr::add_reg(2, 1, 1),
            VsmInstr::alu_reg(VsmOp::Xor, 3, 2, 1),
            VsmInstr::alu_reg(VsmOp::Or, 4, 3, 2),
        ];
        assert_eq!(run_pipelined(&prog, VsmConfig::correct()), isa_state(&prog));
    }

    #[test]
    fn bypass_bug_diverges_on_hazard() {
        let prog = [VsmInstr::add_lit(1, 0, 3), VsmInstr::add_reg(2, 1, 1)];
        let good = run_pipelined(&prog, VsmConfig::correct());
        let bad = run_pipelined(&prog, VsmConfig::with_bug(VsmBug::NoBypass));
        assert_eq!(good, isa_state(&prog));
        assert_ne!(good, bad);
    }

    #[test]
    fn annul_bug_diverges_after_branch() {
        let prog = [VsmInstr::br(1, 2), VsmInstr::add_lit(2, 0, 5)];
        let good = run_pipelined(&prog, VsmConfig::correct());
        let bad = run_pipelined(&prog, VsmConfig::with_bug(VsmBug::NoAnnul));
        assert_eq!(good, isa_state(&prog));
        assert_ne!(good, bad);
    }

    #[test]
    fn branch_target_bug_diverges() {
        let prog = [VsmInstr::br(1, 3)];
        let good = run_pipelined(&prog, VsmConfig::correct());
        let bad = run_pipelined(&prog, VsmConfig::with_bug(VsmBug::BranchTargetOffByOne));
        assert_eq!(good, isa_state(&prog));
        assert_ne!(good.1, bad.1);
    }

    #[test]
    fn wrong_writeback_bug_diverges() {
        let prog = [VsmInstr::add_lit(1, 0, 3)];
        let good = run_pipelined(&prog, VsmConfig::correct());
        let bad = run_pipelined(&prog, VsmConfig::with_bug(VsmBug::WrongWritebackReg));
        assert_ne!(good, bad);
    }

    #[test]
    fn exposed_ports_are_consistent() {
        let p = pipelined(VsmConfig::correct()).expect("build");
        let u = unpipelined(VsmConfig::correct()).expect("build");
        for name in ["r0", "r7", "pc", "wb_en", "wb_addr", "wb_data"] {
            assert_eq!(p.output_width(name), u.output_width(name), "{name}");
        }
        assert_eq!(p.input_width("instr"), Some(INSTR_WIDTH));
        assert_eq!(u.input_width("instr"), Some(INSTR_WIDTH));
        assert!(p.register_bits() > u.register_bits());
    }

    #[test]
    fn stallable_unstalled_behaviour_is_bit_identical() {
        let base = pipelined(VsmConfig::correct()).expect("build");
        let stallable = pipelined(VsmConfig::correct().stallable()).expect("build");
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let prog = random_program(&mut rng, 8, true);
            let mut a = ConcreteSim::new(&base);
            let mut s = ConcreteSim::new(&stallable);
            let oa = a.step(&[("reset", 1), ("instr", 0)]);
            let os = s.step(&[("reset", 1), ("instr", 0), ("stall", 0)]);
            assert_eq!(oa, os);
            for instr in &prog {
                let w = u64::from(instr.encode());
                let oa = a.step(&[("reset", 0), ("instr", w)]);
                let os = s.step(&[("reset", 0), ("instr", w), ("stall", 0)]);
                assert_eq!(oa, os, "outputs diverge under stall = 0: {prog:?}");
            }
        }
    }

    #[test]
    fn stalling_drains_the_pipeline_to_the_architectural_state() {
        // r1 = 3; r2 = r1 + r1; r3 = r2 ^ r1 — then hold `stall` high. The
        // instructions in flight must retire (bubbles drain the pipe), the
        // junk word presented at the instruction port must never be accepted,
        // and further stalled cycles must not change the architectural state.
        let prog = [
            VsmInstr::add_lit(1, 0, 3),
            VsmInstr::add_reg(2, 1, 1),
            VsmInstr::alu_reg(VsmOp::Xor, 3, 2, 1),
        ];
        let junk = u64::from(VsmInstr::add_lit(6, 6, 7).encode());
        let n = pipelined(VsmConfig::correct().stallable()).expect("build");
        let mut sim = ConcreteSim::new(&n);
        sim.step(&[("reset", 1), ("instr", 0), ("stall", 0)]);
        for instr in &prog {
            sim.step(&[
                ("reset", 0),
                ("instr", u64::from(instr.encode())),
                ("stall", 0),
            ]);
        }
        // Three stalled cycles drain the three pipeline stages.
        for _ in 0..3 {
            sim.step(&[("reset", 0), ("instr", junk), ("stall", 1)]);
        }
        let drained = sim.outputs(&[("instr", junk), ("reset", 0), ("stall", 1)]);
        let (expect_regs, expect_pc) = isa_state(&prog);
        let regs: Vec<u64> = (0..NUM_REGS).map(|i| drained[&format!("r{i}")]).collect();
        assert_eq!((regs, drained["pc"]), (expect_regs, expect_pc));
        // Stalled bubbles never retire: the state is a fixed point.
        for _ in 0..3 {
            sim.step(&[("reset", 0), ("instr", junk), ("stall", 1)]);
        }
        let still = sim.outputs(&[("instr", junk), ("reset", 0), ("stall", 1)]);
        assert_eq!(drained, still);
    }

    #[test]
    fn pipeline_hints_reflect_the_design() {
        let n = pipelined(VsmConfig::correct().stallable()).expect("build");
        let hints = n.pipeline_hints();
        assert_eq!(hints.stall_port.as_deref(), Some("stall"));
        assert_eq!(hints.stage_valids, vec!["v1", "v2", "v3"]);
        assert_eq!(hints.forward_paths, 2);
        // The seeded forwarding bug removes the bypass network from the gates
        // *and therefore* from the hints.
        let buggy = pipelined(VsmConfig {
            bug: Some(VsmBug::NoBypass),
            ..VsmConfig::correct().stallable()
        })
        .expect("build");
        assert_eq!(buggy.pipeline_hints().forward_paths, 0);
        // The un-stallable design records its stages but no stall port.
        let base = pipelined(VsmConfig::correct()).expect("build");
        assert!(base.pipeline_hints().stall_port.is_none());
        assert_eq!(base.pipeline_hints().stage_valids.len(), 3);
    }

    #[test]
    fn validate_accepts_exactly_the_powers_of_two_up_to_eight() {
        for num_regs in [1, 2, 4, 8] {
            assert_eq!(VsmConfig::reduced(num_regs).validate(), Ok(()));
        }
        for num_regs in [0, 3, 16] {
            assert_eq!(
                VsmConfig::reduced(num_regs).validate(),
                Err(format!(
                    "vsm num_regs {num_regs} must be a power of two in 1..=8"
                ))
            );
        }
    }

    #[test]
    fn interrupt_variant_has_irq_input() {
        let p = pipelined(VsmConfig::with_interrupts()).expect("build");
        let u = unpipelined(VsmConfig::with_interrupts()).expect("build");
        assert_eq!(p.input_width("irq"), Some(1));
        assert_eq!(u.input_width("irq"), Some(1));
        assert_eq!(
            pipelined(VsmConfig::correct())
                .expect("build")
                .input_width("irq"),
            None
        );
    }

    /// Both machines, fed the same two instructions with an interrupt arriving
    /// at the second instruction slot, end in the same architectural state:
    /// the trap takes the place of the second instruction.
    #[test]
    fn trap_behaves_identically_in_both_machines() {
        let i1 = u64::from(VsmInstr::add_lit(1, 0, 3).encode());
        let i2 = u64::from(VsmInstr::add_lit(2, 0, 5).encode());

        // Unpipelined: interrupt asserted during the fetch phase of slot 2.
        let un = unpipelined(VsmConfig::with_interrupts()).expect("build");
        let mut us = ConcreteSim::new(&un);
        us.step(&[("reset", 1), ("instr", 0), ("irq", 0)]);
        us.step(&[("instr", i1), ("irq", 0)]);
        for _ in 0..3 {
            us.step(&[("instr", 0), ("irq", 0)]);
        }
        us.step(&[("instr", i2), ("irq", 1)]); // slot 2 becomes a trap
        for _ in 0..3 {
            us.step(&[("instr", 0), ("irq", 0)]);
        }
        let uo = us.outputs(&[("instr", 0), ("irq", 0)]);

        // Pipelined: interrupt asserted during the IF cycle of slot 2; one
        // extra (annulled) slot follows the trap.
        let pn = pipelined(VsmConfig::with_interrupts()).expect("build");
        let mut ps = ConcreteSim::new(&pn);
        ps.step(&[("reset", 1), ("instr", 0), ("irq", 0)]);
        ps.step(&[("instr", i1), ("irq", 0)]);
        ps.step(&[("instr", i2), ("irq", 1)]);
        ps.step(&[("instr", i2), ("irq", 0)]); // delay slot of the trap: annulled
        for _ in 0..3 {
            ps.step(&[("instr", 0), ("irq", 0)]);
        }
        let po = ps.outputs(&[("instr", 0), ("irq", 0)]);

        for name in ["r1", "r2", "pc", &format!("r{TRAP_LINK_REG}")] {
            assert_eq!(uo[name], po[name], "{name}");
        }
        assert_eq!(uo["pc"], TRAP_HANDLER_PC);
        assert_eq!(uo["r1"], 3);
        assert_eq!(uo["r2"], 0, "the interrupted instruction must not execute");
        // The trap links to the interrupted instruction's address.
        assert_eq!(uo[&format!("r{TRAP_LINK_REG}")], 2 & 0x7);
    }
}
