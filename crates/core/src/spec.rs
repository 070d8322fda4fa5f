//! Machine properties supplied by the user of the methodology (Section 5.1):
//! the order of definiteness `k`, the number of delay slots `d`, the observed
//! variables, and the Boolean formulae that restrict the instruction input to
//! a particular class (the cofactoring information).

use pv_bdd::{Bdd, BddManager, Var};
use pv_isa::{alpha0, vsm};
use pv_netlist::Netlist;

use crate::plan::{SimulationPlan, Slot};
use crate::verify::VerifyError;

/// Builds the characteristic function of an instruction class over the
/// instruction-word variables (least-significant bit first).
pub type ClassConstraint = fn(&mut BddManager, &[Var]) -> Bdd;

/// The designer-supplied properties of an implementation/specification pair
/// (Chapter 5): everything the verifier needs besides the two netlists.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Human-readable name of the design pair.
    pub name: String,
    /// Order of definiteness / pipeline depth `k`.
    pub k: usize,
    /// Number of delay slots after a control-transfer instruction `d`.
    pub delay_slots: usize,
    /// Width of the instruction input in bits.
    pub instr_width: usize,
    /// Name of the instruction input port.
    pub instr_port: String,
    /// Name of the reset input port.
    pub reset_port: String,
    /// Name of the interrupt-request port, if the designs have one.
    pub irq_port: Option<String>,
    /// Name of the stall (bubble-injection) input, if the pipelined design
    /// has one. The β-relation flow verifies the un-stalled behaviour — the
    /// port is driven with constant 0 throughout the symbolic simulation —
    /// while the flushing flow (`pv-flush`) uses the same input to drain the
    /// pipeline; declaring it here lets one stallable netlist run through
    /// both flows.
    pub stall_port: Option<String>,
    /// Observed variables compared at every sampling point (Section 5.4).
    pub observed: Vec<String>,
    /// Offset (in cycles) applied to every sampling point. `0` samples the
    /// architectural state right after an instruction has retired; `-1`
    /// samples during the write-back cycle itself, which is what the
    /// write-back-port observation mode of Section 6.2 needs.
    pub sample_offset: isize,
    /// Constraint selecting "ordinary" instructions (no control transfer).
    pub normal_class: ClassConstraint,
    /// Constraint selecting control-transfer instructions.
    pub control_class: ClassConstraint,
}

impl MachineSpec {
    /// The VSM design pair of Section 6.2: `k = 4`, `d = 1`, 13-bit
    /// instructions, observing the eight registers and the retired PC.
    pub fn vsm() -> Self {
        MachineSpec {
            name: "VSM".to_owned(),
            k: vsm::PIPELINE_DEPTH,
            delay_slots: vsm::DELAY_SLOTS,
            instr_width: vsm::INSTR_WIDTH,
            instr_port: "instr".to_owned(),
            reset_port: "reset".to_owned(),
            irq_port: None,
            stall_port: None,
            observed: (0..vsm::NUM_REGS)
                .map(|i| format!("r{i}"))
                .chain(std::iter::once("pc".to_owned()))
                .collect(),
            sample_offset: 0,
            normal_class: vsm_normal_class,
            control_class: vsm_control_class,
        }
    }

    /// The VSM pair with the interrupt extension (`irq` port present).
    pub fn vsm_with_interrupts() -> Self {
        MachineSpec {
            irq_port: Some("irq".to_owned()),
            ..Self::vsm()
        }
    }

    /// The reduced-register-file VSM model of Section 6.2 ("the single
    /// general purpose register model"): the netlists are built with
    /// `VsmConfig::reduced(num_regs)` and only those registers (plus the PC)
    /// are observed. This is the configuration the thesis actually ran, to
    /// stay within BDD capacity.
    pub fn vsm_reduced(num_regs: usize) -> Self {
        MachineSpec {
            name: format!("VSM ({num_regs}-register model)"),
            observed: (0..num_regs)
                .map(|i| format!("r{i}"))
                .chain(std::iter::once("pc".to_owned()))
                .collect(),
            ..Self::vsm()
        }
    }

    /// The Alpha0 design pair of Section 6.3 for a given datapath
    /// condensation: `k = 5`, `d = 1`, 32-bit instructions, observing the
    /// registers, the data memory and the retired PC.
    pub fn alpha0(config: alpha0::Alpha0Config) -> Self {
        MachineSpec {
            name: format!(
                "Alpha0 ({}-bit data, {} regs, {} mem words)",
                config.data_width, config.num_regs, config.mem_words
            ),
            k: alpha0::PIPELINE_DEPTH,
            delay_slots: alpha0::DELAY_SLOTS,
            instr_width: alpha0::INSTR_WIDTH,
            instr_port: "instr".to_owned(),
            reset_port: "reset".to_owned(),
            irq_port: None,
            stall_port: None,
            observed: (0..config.num_regs)
                .map(|i| format!("r{i}"))
                .chain((0..config.mem_words).map(|i| format!("m{i}")))
                .chain(std::iter::once("pc".to_owned()))
                .collect(),
            sample_offset: 0,
            normal_class: alpha0_normal_class,
            control_class: alpha0_control_class,
        }
    }

    /// The Alpha0 pair with the thesis's Section 6.3 ALU condensation: the
    /// netlists are built with `AluModel::Condensed` (only `and`, `or` and
    /// `cmpeq` in the ALU) and the ordinary-instruction class is restricted to
    /// exactly those operations plus the memory accesses, so the symbolic
    /// simulation never exercises the operations the condensed datapath does
    /// not implement. This is the configuration the symbolic experiments run;
    /// [`MachineSpec::alpha0`] (the full Table 2 class) is used with the
    /// full-ALU netlists and the concrete baselines.
    pub fn alpha0_condensed(config: alpha0::Alpha0Config) -> Self {
        MachineSpec {
            name: format!(
                "Alpha0 ({}-bit data, {} regs, {} mem words, condensed ALU)",
                config.data_width, config.num_regs, config.mem_words
            ),
            normal_class: alpha0_condensed_normal_class,
            ..Self::alpha0(config)
        }
    }

    /// A member of the generated processor family (`pv_proc::family`): depth
    /// `k = depth`, `delay_slots` delay slots (0 or 1), a register file of
    /// `num_regs` registers of `word_width` bits, observing every register
    /// plus the retired PC. Instructions are `3·aw + 3` bits (three register
    /// fields of `aw = log2(num_regs)` bits under a 3-bit opcode); opcodes
    /// `0xx` are the ALU class and `100` is the unconditional branch, so the
    /// class constraints are computed relative to the word width rather than
    /// at fixed bit positions. The family's pipelined designs are always
    /// stallable (`stall` port).
    pub fn family(depth: usize, word_width: usize, num_regs: usize, delay_slots: usize) -> Self {
        let aw = usize::max(num_regs.trailing_zeros() as usize, 1);
        MachineSpec {
            name: format!(
                "family (depth {depth}, {word_width}-bit, {num_regs} regs, d={delay_slots})"
            ),
            k: depth,
            delay_slots,
            instr_width: 3 * aw + 3,
            instr_port: "instr".to_owned(),
            reset_port: "reset".to_owned(),
            irq_port: None,
            stall_port: Some("stall".to_owned()),
            observed: (0..num_regs)
                .map(|i| format!("r{i}"))
                .chain(std::iter::once("pc".to_owned()))
                .collect(),
            sample_offset: 0,
            normal_class: family_normal_class,
            control_class: family_control_class,
        }
    }

    /// Declares the stall (bubble-injection) input port of the pipelined
    /// design (builder style). The verifier then accepts — and drives with
    /// constant 0 — a `stall` input on either netlist, so the stallable
    /// design variants (`VsmConfig::stallable`, Alpha0's
    /// `PipelineConfig::stallable`) verify against the same specification as
    /// their un-stallable twins.
    pub fn with_stall_port<S: Into<String>>(mut self, name: S) -> Self {
        self.stall_port = Some(name.into());
        self
    }

    /// Checks that a design pair can be driven and compared under every plan
    /// in `plans`, before any plan runs. In order: each netlist (pipelined
    /// first) has the instruction and reset inputs, no input the drive rule
    /// does not know and every observed output; every plan has an instruction
    /// slot, and only a spec with an irq port takes interrupt slots; each
    /// observed output has one width in both machines.
    pub(crate) fn check(
        &self,
        pipelined: &Netlist,
        unpipelined: &Netlist,
        plans: &[SimulationPlan],
    ) -> Result<(), VerifyError> {
        let known = [
            Some(&self.instr_port),
            Some(&self.reset_port),
            self.irq_port.as_ref(),
            self.stall_port.as_ref(),
        ];
        for netlist in [pipelined, unpipelined] {
            let missing = |port: &String| VerifyError::MissingPort {
                netlist: netlist.name().to_owned(),
                port: port.clone(),
            };
            if let Some(port) = [&self.instr_port, &self.reset_port]
                .into_iter()
                .find(|port| netlist.input_width(port).is_none())
            {
                return Err(missing(port));
            }
            if let Some(port) = netlist
                .inputs()
                .iter()
                .find(|port| !known.contains(&Some(&port.name)))
            {
                return Err(VerifyError::UnexpectedInput {
                    netlist: netlist.name().to_owned(),
                    port: port.name.clone(),
                });
            }
            if let Some(port) = self
                .observed
                .iter()
                .find(|port| netlist.output_width(port).is_none())
            {
                return Err(missing(port));
            }
        }
        for plan in plans {
            if plan.instruction_count() == 0 {
                return Err(VerifyError::EmptyPlan);
            }
            if plan.slots().contains(&Slot::Interrupt) && self.irq_port.is_none() {
                return Err(VerifyError::InterruptWithoutIrqPort);
            }
        }
        for name in &self.observed {
            if let (Some(p), Some(u)) =
                (pipelined.output_width(name), unpipelined.output_width(name))
            {
                if p != u {
                    return Err(VerifyError::WidthMismatch {
                        name: name.clone(),
                        pipelined: p,
                        unpipelined: u,
                    });
                }
            }
        }
        Ok(())
    }

    /// Replaces the observed-variable list (builder style).
    pub fn with_observed<I, S>(mut self, observed: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.observed = observed.into_iter().map(Into::into).collect();
        self
    }
}

/// VSM instructions that are not control transfers: the top opcode bit
/// (bit 12) is 0, i.e. `add`, `xor`, `and`, `or`.
fn vsm_normal_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    m.nvar(instr[12])
}

/// VSM control-transfer instructions: opcode `100` exactly.
fn vsm_control_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    m.cube(&[(instr[12], true), (instr[11], false), (instr[10], false)])
}

/// Family instructions that are not control transfers: the top opcode bit
/// (the instruction word's most significant bit, wherever the word width puts
/// it) is 0 — the four ALU operations.
fn family_normal_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    m.nvar(instr[instr.len() - 1])
}

/// Family control-transfer instructions: opcode `100` exactly (the
/// unconditional branch), located at the top three bits of the word.
fn family_control_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    let n = instr.len();
    m.cube(&[
        (instr[n - 1], true),
        (instr[n - 2], false),
        (instr[n - 3], false),
    ])
}

fn opcode_equals(m: &mut BddManager, instr: &[Var], opcode: u64) -> Bdd {
    let lits: Vec<(Var, bool)> = (0..6)
        .map(|i| (instr[26 + i], opcode >> i & 1 == 1))
        .collect();
    m.cube(&lits)
}

fn function_equals(m: &mut BddManager, instr: &[Var], function: u64) -> Bdd {
    let lits: Vec<(Var, bool)> = (0..7)
        .map(|i| (instr[5 + i], function >> i & 1 == 1))
        .collect();
    m.cube(&lits)
}

/// Alpha0 instructions that are not control transfers: a valid operate
/// instruction (opcode group with an assigned function code) or a memory
/// access.
fn alpha0_normal_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    let mut classes = Vec::new();
    for (opcode, functions) in [
        (0x10u64, &[0x20u64, 0x29, 0x2D, 0x4D, 0x6D][..]),
        (0x11, &[0x00, 0x20, 0x40][..]),
        (0x12, &[0x34, 0x39][..]),
    ] {
        let grp = opcode_equals(m, instr, opcode);
        let fns: Vec<Bdd> = functions
            .iter()
            .map(|&f| function_equals(m, instr, f))
            .collect();
        let any_fn = m.or_many(&fns);
        classes.push(m.and(grp, any_fn));
    }
    classes.push(opcode_equals(m, instr, 0x29)); // ld
    classes.push(opcode_equals(m, instr, 0x2D)); // st
    m.or_many(&classes)
}

/// The condensed ordinary-instruction class of Section 6.3: `and`, `or`,
/// `cmpeq`, `ld` and `st` only (the operations the condensed ALU implements).
fn alpha0_condensed_normal_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    let mut classes = Vec::new();
    for (opcode, functions) in [(0x10u64, &[0x2Du64][..]), (0x11, &[0x00, 0x20][..])] {
        let grp = opcode_equals(m, instr, opcode);
        let fns: Vec<Bdd> = functions
            .iter()
            .map(|&f| function_equals(m, instr, f))
            .collect();
        let any_fn = m.or_many(&fns);
        classes.push(m.and(grp, any_fn));
    }
    classes.push(opcode_equals(m, instr, 0x29)); // ld
    classes.push(opcode_equals(m, instr, 0x2D)); // st
    m.or_many(&classes)
}

/// Alpha0 control-transfer instructions: `br`, `bf`, `bt` or `jmp`.
fn alpha0_control_class(m: &mut BddManager, instr: &[Var]) -> Bdd {
    let ops: Vec<Bdd> = [0x30u64, 0x39, 0x3D, 0x36]
        .iter()
        .map(|&op| opcode_equals(m, instr, op))
        .collect();
    m.or_many(&ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_isa::alpha0::{Alpha0Config, Alpha0Instr, Alpha0Op};
    use pv_isa::vsm::{VsmInstr, VsmOp};

    fn assignment_for(word: u64, vars: &[Var]) -> impl Fn(Var) -> bool + '_ {
        move |v| {
            vars.iter()
                .position(|&x| x == v)
                .is_some_and(|i| word >> i & 1 == 1)
        }
    }

    #[test]
    fn vsm_classes_partition_the_instruction_set() {
        let mut m = BddManager::new();
        let vars = m.new_vars(vsm::INSTR_WIDTH);
        let normal = vsm_normal_class(&mut m, &vars);
        let control = vsm_control_class(&mut m, &vars);
        for op in VsmOp::all() {
            let i = VsmInstr::alu_reg(op, 1, 2, 3);
            let word = u64::from(i.encode());
            let a = assignment_for(word, &vars);
            assert_eq!(
                m.eval(normal, &a),
                !op.is_control_transfer(),
                "{op:?} normal"
            );
            assert_eq!(
                m.eval(control, &a),
                op.is_control_transfer(),
                "{op:?} control"
            );
        }
        // The two classes never overlap.
        assert!(m.and(normal, control).is_false());
    }

    #[test]
    fn alpha0_classes_cover_every_listed_instruction() {
        let mut m = BddManager::new();
        let vars = m.new_vars(alpha0::INSTR_WIDTH);
        let normal = alpha0_normal_class(&mut m, &vars);
        let control = alpha0_control_class(&mut m, &vars);
        for op in Alpha0Op::all() {
            let i = if op.is_operate() {
                Alpha0Instr::operate(op, 1, 2, 3)
            } else if op.is_memory() {
                Alpha0Instr::ld(1, 2, 3)
            } else {
                Alpha0Instr::br(1, 2)
            };
            let word = u64::from(if op.is_memory() {
                if op == Alpha0Op::St {
                    Alpha0Instr::st(1, 2, 3).encode()
                } else {
                    i.encode()
                }
            } else {
                i.encode()
            });
            let a = assignment_for(word, &vars);
            if op.is_control_transfer() {
                assert!(m.eval(control, &a), "{op:?} should be control");
            } else {
                assert!(m.eval(normal, &a), "{op:?} should be normal");
            }
        }
        assert!(m.and(normal, control).is_false());
        // An unassigned opcode belongs to neither class.
        let junk = assignment_for(0x3Fu64 << 26, &vars);
        assert!(!m.eval(normal, &junk));
        assert!(!m.eval(control, &junk));
    }

    #[test]
    fn family_classes_are_width_relative() {
        let mut m = BddManager::new();
        for aw in [1usize, 2] {
            let width = 3 * aw + 3;
            let vars = m.new_vars(width);
            let normal = family_normal_class(&mut m, &vars);
            let control = family_control_class(&mut m, &vars);
            for op in 0..8u64 {
                let word = op << (3 * aw);
                let a = assignment_for(word, &vars);
                assert_eq!(m.eval(normal, &a), op < 4, "aw {aw} op {op}");
                assert_eq!(m.eval(control, &a), op == 4, "aw {aw} op {op}");
            }
            assert!(m.and(normal, control).is_false());
        }
        let spec = MachineSpec::family(4, 4, 2, 1);
        assert_eq!(spec.k, 4);
        assert_eq!(spec.instr_width, 6);
        assert_eq!(spec.delay_slots, 1);
        assert_eq!(spec.stall_port.as_deref(), Some("stall"));
        assert_eq!(
            spec.observed,
            vec!["r0".to_owned(), "r1".to_owned(), "pc".to_owned()]
        );
    }

    #[test]
    fn spec_constructors() {
        let v = MachineSpec::vsm();
        assert_eq!(v.k, 4);
        assert_eq!(v.delay_slots, 1);
        assert!(v.observed.contains(&"pc".to_owned()));
        assert!(v.irq_port.is_none());
        assert!(MachineSpec::vsm_with_interrupts().irq_port.is_some());
        let a = MachineSpec::alpha0(Alpha0Config::default());
        assert_eq!(a.k, 5);
        assert_eq!(a.observed.len(), 8 + 8 + 1);
        let custom = MachineSpec::vsm().with_observed(["pc"]);
        assert_eq!(custom.observed, vec!["pc".to_owned()]);
    }
}
