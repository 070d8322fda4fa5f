//! A **depth-parametric**, term-level in-order pipeline and its ISA
//! specification.
//!
//! The datapath is entirely uninterpreted: register values are EUF terms, the
//! ALU is the uninterpreted function `alu(op, a, b)`, the next sequential PC
//! is `succ(pc)` and the register file is a read/write array. Only the
//! *control* is concrete — operand fetch, the forwarding network, write-back
//! and bubble insertion — which is exactly the part of a pipeline the
//! Burch–Dill flushing method verifies.
//!
//! A pipeline of depth `k ≥ 2` (described by a [`PipelineDesc`]) has `k − 1`
//! in-flight latches:
//!
//! 1. **RD/EX** — the fetched instruction reads its operands combinationally
//!    (with forwarding from every younger in-flight result) and is latched;
//!    its ALU result is computed while it sits in this latch;
//! 2. `k − 2` **result latches** — the computed result travels toward
//!    write-back; the oldest latch writes the register file each cycle.
//!
//! Depth 3 is the classic three-stage RD → EX → WB pipeline (the model this
//! crate originally hardcoded); depth 2 retires the EX result directly, and
//! deeper pipelines lengthen the in-flight window the forwarding network must
//! cover. The flush bound — how many bubble cycles drain the machine — is
//! `depth − 1` ([`PipelineDesc::flush_bound`]).
//!
//! A `bubble` input inserts a pipeline bubble instead of accepting the
//! fetched instruction, which is what the flushing abstraction function uses
//! to drain the machine.
//!
//! # Deriving a description from a netlist
//!
//! [`PipelineDesc::from_netlist`] maps a *bit-level* design
//! (`pv_netlist::Netlist`) onto this term-level family through the pipeline
//! metadata its builder recorded (`pv_netlist::PipelineHints`): the stall
//! port becomes the bubble input, the stage-valid registers give the number
//! of in-flight instructions (and therefore the depth and the flush bound),
//! and the forwarding-path count says whether the operand reads bypass from
//! in-flight results — a netlist whose bypass network was dropped derives a
//! description carrying [`PipelineBug::NoForwarding`], so the seeded bit-level
//! bug is visible to this flow too. The mapping assumes the in-order,
//! stall-free static pipelines this repository builds (operands read with
//! bypassing, one write-back port, PC retired with the oldest instruction);
//! it abstracts the datapath away entirely, which is the point of the method.

use crate::term::{Sort, Term, TermManager};
use pv_netlist::Netlist;

/// Deliberate control bugs that can be injected into the pipeline step
/// function, each of which breaks the commuting diagram at the depths stated
/// on its variant (`crates/flush/tests/depths.rs` pins the full matrix).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PipelineBug {
    /// Drop the forwarding network: back-to-back dependent instructions read
    /// a stale register value. Needs an in-flight window, i.e. depth ≥ 3
    /// (a depth-2 pipeline has written back before the next read).
    NoForwarding,
    /// Forward unconditionally, even when the producing instruction writes a
    /// different register. Depth ≥ 3, like [`PipelineBug::NoForwarding`].
    ForwardAlways,
    /// Write back results even for bubbles. Breaks the diagram at depth ≥ 3:
    /// at depth 2 the spurious write of the single in-flight latch lands
    /// identically on both legs of the diagram (Burch–Dill's abstraction
    /// function runs the same buggy implementation on each), so the depth-2
    /// check accepts it.
    WriteBackBubbles,
    /// Do not advance the PC when an instruction is accepted (any depth).
    StuckPc,
    /// Wrong stall condition: the bubble input's polarity is inverted, so the
    /// pipeline accepts the fetched instruction exactly when it is told to
    /// stall. Flushing can no longer drain the machine, which breaks the
    /// diagram at any depth.
    StallInverted,
    /// Branch targets are computed from the branch's own address instead of
    /// the architectural `pc + 1` base (any depth; needs a *branching*
    /// description, [`PipelineDesc::with_branching`]).
    BranchTargetOffByOne,
    /// Lost annulment: a branch resolved in RD/EX still redirects the PC but
    /// no longer squashes the instruction fetched alongside it, so the delay
    /// slot executes (any depth; needs an *annulling* description,
    /// [`PipelineDesc::with_annulment`]).
    LostAnnul,
}

/// Description of a term-level pipeline: its depth and an optional injected
/// control bug. The depth-3 instantiation is the classic three-stage model;
/// [`PipelineDesc::from_netlist`] derives a description from a stallable
/// bit-level design.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PipelineDesc {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Pipeline depth `k ≥ 2`: the number of stages, one more than the
    /// number of in-flight latches.
    pub depth: usize,
    /// Injected control bug (`None` = correct design).
    pub bug: Option<PipelineBug>,
    /// `true` if the ISA has a control-transfer instruction: the
    /// uninterpreted branch op `opbr`, which writes the link value `succ(pc)`
    /// to its destination and redirects the PC to `btgt(succ(pc), src1)`.
    /// `false` keeps the original straight-line model (and its exact terms).
    pub branching: bool,
    /// `true` if branches resolve in the RD/EX stage and annul the
    /// concurrently fetched instruction (one delay slot, `d = 1`); `false`
    /// resolves them combinationally at fetch (`d = 0`). Implies
    /// [`branching`](Self::branching).
    pub annulling: bool,
}

/// Errors deriving a [`PipelineDesc`] from a netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeriveError {
    /// The netlist records no stage-valid registers, so the pipeline depth is
    /// unknown (the design was built without
    /// `pv_netlist::NetlistBuilder::mark_stage_valid`).
    NoStageRegisters {
        /// Name of the offending netlist.
        netlist: String,
    },
    /// The netlist has no stall/bubble-injection input, which flushing needs
    /// to drain the machine (build the design with
    /// `pv_netlist::NetlistBuilder::stall_input` — e.g.
    /// `VsmConfig::stallable`).
    NoStallInput {
        /// Name of the offending netlist.
        netlist: String,
    },
    /// The netlist declares a stall input but never gates a fetch-accept
    /// signal with it (`pv_netlist::NetlistBuilder::stall_gate` was never
    /// applied), so asserting the port cannot actually insert bubbles and the
    /// flushing abstraction would drain nothing.
    StallGatesNothing {
        /// Name of the offending netlist.
        netlist: String,
    },
    /// The forwarding-path count the design *noted* disagrees with the bypass
    /// network that was actually *built*, so the derived description would
    /// mis-state the forwarding semantics.
    ForwardPathMismatch {
        /// Name of the offending netlist.
        netlist: String,
        /// Paths recorded with `note_forward_paths`.
        noted: usize,
        /// Largest bypass source list actually wired through `bypassed_read`.
        built: usize,
    },
}

impl std::fmt::Display for DeriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeriveError::NoStageRegisters { netlist } => write!(
                f,
                "netlist `{netlist}` records no pipeline stage registers — cannot derive a term-level pipeline"
            ),
            DeriveError::NoStallInput { netlist } => write!(
                f,
                "netlist `{netlist}` has no stall input — flushing cannot drain it (build the stallable design variant)"
            ),
            DeriveError::StallGatesNothing { netlist } => write!(
                f,
                "netlist `{netlist}` declares a stall input that gates nothing — asserting it cannot insert bubbles"
            ),
            DeriveError::ForwardPathMismatch { netlist, noted, built } => write!(
                f,
                "netlist `{netlist}` noted {noted} forwarding path(s) but built {built} — the recorded hints do not match the circuit"
            ),
        }
    }
}

impl std::error::Error for DeriveError {}

impl PipelineDesc {
    /// A correct pipeline of the given depth (`k ≥ 2`).
    ///
    /// # Panics
    /// Panics if `depth < 2`.
    pub fn with_depth(depth: usize) -> Self {
        assert!(depth >= 2, "a pipeline needs at least two stages");
        PipelineDesc {
            name: format!("depth-{depth} term pipeline"),
            depth,
            bug: None,
            branching: false,
            annulling: false,
        }
    }

    /// The classic three-stage (RD → EX → WB) pipeline — the model this
    /// crate originally hardcoded, now the depth-3 instantiation.
    pub fn three_stage() -> Self {
        PipelineDesc {
            name: "three-stage term pipeline".to_owned(),
            ..PipelineDesc::with_depth(3)
        }
    }

    /// Injects a control bug (builder style).
    pub fn with_bug(mut self, bug: PipelineBug) -> Self {
        self.bug = Some(bug);
        self
    }

    /// Enables control transfers resolved combinationally at fetch — no delay
    /// slot (builder style). See [`PipelineDesc::branching`].
    pub fn with_branching(mut self) -> Self {
        self.branching = true;
        self
    }

    /// Enables control transfers resolved in the RD/EX stage with one
    /// annulled delay slot (builder style; implies branching). See
    /// [`PipelineDesc::annulling`].
    pub fn with_annulment(mut self) -> Self {
        self.branching = true;
        self.annulling = true;
        self
    }

    /// Number of bubble cycles the flushing abstraction needs to drain the
    /// machine: one per in-flight latch, `depth − 1`.
    pub fn flush_bound(&self) -> usize {
        self.depth - 1
    }

    /// Derives the term-level description of a stallable bit-level design
    /// from the pipeline metadata recorded while it was built (see the
    /// [module documentation](self) for the mapping and its assumptions).
    ///
    /// # Errors
    /// Returns [`DeriveError`] when the netlist records no stage registers,
    /// has no stall input, declares a stall input that gates nothing, or
    /// recorded a forwarding-path count that disagrees with the bypass
    /// network it actually built.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, DeriveError> {
        let hints = netlist.pipeline_hints();
        if hints.stage_valids.is_empty() {
            return Err(DeriveError::NoStageRegisters {
                netlist: netlist.name().to_owned(),
            });
        }
        if hints.stall_port.is_none() {
            return Err(DeriveError::NoStallInput {
                netlist: netlist.name().to_owned(),
            });
        }
        // The recorded hints must describe the circuit that was really built:
        // a stall port that gates nothing cannot inject bubbles, and a noted
        // forwarding count that differs from the wired bypass network would
        // derive a model with the wrong hazard semantics. Refusing here (the
        // service answers it as an `invalid` job error) beats silently
        // verifying the wrong model.
        if hints.stall_gates == 0 {
            return Err(DeriveError::StallGatesNothing {
                netlist: netlist.name().to_owned(),
            });
        }
        if hints.forward_paths != hints.built_forward_paths {
            return Err(DeriveError::ForwardPathMismatch {
                netlist: netlist.name().to_owned(),
                noted: hints.forward_paths,
                built: hints.built_forward_paths,
            });
        }
        // One stage per in-flight valid bit, plus the fetch/read stage.
        let depth = hints.stage_valids.len() + 1;
        // Designs that recorded control-transfer semantics derive a branching
        // model; a noted delay slot means branches resolve in RD/EX and annul
        // their delay slot.
        let branching = hints.branch_base_offset.is_some() || hints.delay_slots.is_some();
        let annulling = hints.delay_slots.unwrap_or(0) > 0;
        // A correct in-order static pipeline needs one bypass source per
        // non-retiring in-flight latch — `depth − 2` of them (the VSM's
        // depth-4 model forwards from EX and WB, Alpha0's depth-5 from EX,
        // MEM and WB). Anything less reads stale operands on some hazard
        // distance, so the derived model carries the forwarding bug — whether
        // the netlist dropped the whole network or only part of it — and a
        // seeded netlist bug fails this flow exactly like the bit-level one.
        // The same reasoning maps the other recorded structural defects onto
        // their term-level counterparts.
        let bug = if hints.stall_inverted {
            Some(PipelineBug::StallInverted)
        } else if depth >= 3 && hints.forward_paths < depth - 2 {
            Some(PipelineBug::NoForwarding)
        } else if matches!(hints.branch_base_offset, Some(o) if o != 1) {
            Some(PipelineBug::BranchTargetOffByOne)
        } else if annulling && hints.annul_gates == 0 {
            Some(PipelineBug::LostAnnul)
        } else {
            None
        };
        Ok(PipelineDesc {
            name: format!("{} (derived, depth {depth})", netlist.name()),
            depth,
            bug,
            branching,
            annulling,
        })
    }
}

/// The architectural (ISA-visible) state: register file and program counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArchState {
    /// The register file as an array term.
    pub rf: Term,
    /// The program counter.
    pub pc: Term,
}

/// One instruction, described by term-level fields. All fields are usually
/// fresh variables, so one symbolic instruction stands for every concrete
/// instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Instruction {
    /// The (uninterpreted) operation selector fed to `alu`.
    pub op: Term,
    /// Source register index a.
    pub src1: Term,
    /// Source register index b.
    pub src2: Term,
    /// Destination register index.
    pub dest: Term,
}

impl Instruction {
    /// A fully symbolic instruction with the given name prefix.
    pub fn symbolic(t: &mut TermManager, prefix: &str) -> Self {
        Instruction {
            op: t.var(&format!("{prefix}.op"), Sort::Data),
            src1: t.var(&format!("{prefix}.src1"), Sort::Data),
            src2: t.var(&format!("{prefix}.src2"), Sort::Data),
            dest: t.var(&format!("{prefix}.dest"), Sort::Data),
        }
    }
}

/// The RD/EX latch: an instruction whose operands have been read (possibly
/// forwarded) and whose ALU result is being computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExStage {
    /// Instruction valid?
    pub valid: Term,
    /// Operation selector.
    pub op: Term,
    /// Operand a.
    pub a: Term,
    /// Operand b.
    pub b: Term,
    /// Destination register.
    pub dest: Term,
    /// `true` if the instruction is a control transfer (`eq(op, opbr)`).
    /// Constant false — and unused — in a non-branching description.
    pub is_br: Term,
    /// The link value captured at accept time, `succ(pc)`. Unused in a
    /// non-branching description.
    pub link: Term,
    /// The branch target captured at accept time, `btgt(base, src1)`. Unused
    /// in a non-branching description.
    pub tgt: Term,
}

/// A result latch: a computed value travelling toward write-back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResultStage {
    /// Result valid?
    pub valid: Term,
    /// Destination register.
    pub dest: Term,
    /// Result value.
    pub value: Term,
}

/// The pipeline (implementation) state: the architectural state plus the
/// `depth − 1` in-flight latches.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipelineState {
    /// Register file array term.
    pub rf: Term,
    /// Program counter.
    pub pc: Term,
    /// The RD/EX latch.
    pub ex: ExStage,
    /// The result latches, youngest first; the last one retires each cycle.
    /// `depth − 2` entries (empty at depth 2, one WB latch at depth 3, …).
    pub results: Vec<ResultStage>,
}

impl PipelineState {
    /// A fully symbolic (arbitrary) pipeline state of the given depth — the
    /// starting point of the Burch–Dill commuting diagram, which quantifies
    /// over every reachable and unreachable implementation state.
    pub fn symbolic(t: &mut TermManager, depth: usize, prefix: &str) -> Self {
        assert!(depth >= 2, "a pipeline needs at least two stages");
        PipelineState {
            rf: t.var(&format!("{prefix}.rf"), Sort::Array),
            pc: t.var(&format!("{prefix}.pc"), Sort::Data),
            ex: ExStage {
                valid: t.var(&format!("{prefix}.ex_valid"), Sort::Bool),
                op: t.var(&format!("{prefix}.ex_op"), Sort::Data),
                a: t.var(&format!("{prefix}.ex_a"), Sort::Data),
                b: t.var(&format!("{prefix}.ex_b"), Sort::Data),
                dest: t.var(&format!("{prefix}.ex_dest"), Sort::Data),
                is_br: t.var(&format!("{prefix}.ex_is_br"), Sort::Bool),
                link: t.var(&format!("{prefix}.ex_link"), Sort::Data),
                tgt: t.var(&format!("{prefix}.ex_tgt"), Sort::Data),
            },
            results: (0..depth - 2)
                .map(|i| ResultStage {
                    valid: t.var(&format!("{prefix}.res{i}_valid"), Sort::Bool),
                    dest: t.var(&format!("{prefix}.res{i}_dest"), Sort::Data),
                    value: t.var(&format!("{prefix}.res{i}_value"), Sort::Data),
                })
                .collect(),
        }
    }

    /// The flushed-pipeline state reached after reset: every latch empty.
    pub fn reset(t: &mut TermManager, depth: usize, rf: Term, pc: Term) -> Self {
        assert!(depth >= 2, "a pipeline needs at least two stages");
        let fls = t.fls();
        let dontcare = |t: &mut TermManager, n: String| t.var(&n, Sort::Data);
        PipelineState {
            rf,
            pc,
            ex: ExStage {
                valid: fls,
                op: dontcare(t, "reset.ex_op".to_owned()),
                a: dontcare(t, "reset.ex_a".to_owned()),
                b: dontcare(t, "reset.ex_b".to_owned()),
                dest: dontcare(t, "reset.ex_dest".to_owned()),
                is_br: fls,
                link: dontcare(t, "reset.ex_link".to_owned()),
                tgt: dontcare(t, "reset.ex_tgt".to_owned()),
            },
            results: (0..depth - 2)
                .map(|i| ResultStage {
                    valid: fls,
                    dest: dontcare(t, format!("reset.res{i}_dest")),
                    value: dontcare(t, format!("reset.res{i}_value")),
                })
                .collect(),
        }
    }

    /// The depth of the pipeline this state belongs to.
    pub fn depth(&self) -> usize {
        self.results.len() + 2
    }
}

/// The ISA-level specification step for `desc`'s instruction set: execute
/// one instruction atomically. Every op writes `alu(op, rf[src1], rf[src2])`
/// to its destination and advances the PC to `succ(pc)`; in a branching
/// description the branch op `opbr` instead writes the link value `succ(pc)`
/// and redirects the PC to `btgt(succ(pc), src1)`.
pub fn spec_step(
    t: &mut TermManager,
    desc: &PipelineDesc,
    arch: ArchState,
    instr: Instruction,
) -> ArchState {
    let a = t.select(arch.rf, instr.src1);
    let b = t.select(arch.rf, instr.src2);
    let alu = t.app("alu", &[instr.op, a, b]);
    if !desc.branching {
        let rf = t.store(arch.rf, instr.dest, alu);
        let pc = t.app("succ", &[arch.pc]);
        return ArchState { rf, pc };
    }
    let opbr = t.var("opbr", Sort::Data);
    let is_br = t.eq(instr.op, opbr);
    let link = t.app("succ", &[arch.pc]);
    let result = t.ite(is_br, link, alu);
    let rf = t.store(arch.rf, instr.dest, result);
    let tgt = t.app("btgt", &[link, instr.src1]);
    let pc = t.ite(is_br, tgt, link);
    ArchState { rf, pc }
}

/// One clock cycle of the pipelined implementation described by `desc`.
///
/// `fetched` is the instruction presented at the fetch input this cycle;
/// `bubble` chooses whether it is accepted (`false`) or a pipeline bubble is
/// inserted instead (`true`, used for stalling and for flushing).
///
/// # Panics
/// Panics if `s` does not have `desc.depth` stages.
pub fn impl_step(
    t: &mut TermManager,
    desc: &PipelineDesc,
    s: &PipelineState,
    fetched: Instruction,
    bubble: Term,
) -> PipelineState {
    assert_eq!(s.depth(), desc.depth, "state depth mismatch");
    let bug = desc.bug;

    // ------------------------------------------------------------------ EX --
    // The RD/EX-stage instruction computes its result: the ALU application,
    // or — for a branch in a branching description — the link value captured
    // when it was accepted.
    let alu_result = t.app("alu", &[s.ex.op, s.ex.a, s.ex.b]);
    let ex_result = if desc.branching {
        t.ite(s.ex.is_br, s.ex.link, alu_result)
    } else {
        alu_result
    };

    // ------------------------------------------------------------------ WB --
    // The oldest in-flight latch retires into the register file this cycle.
    // At depth 2 that is the RD/EX latch itself (its freshly computed
    // result); deeper pipelines retire the last result latch.
    let (wb_valid, wb_dest, wb_value) = match s.results.last() {
        Some(r) => (r.valid, r.dest, r.value),
        None => (s.ex.valid, s.ex.dest, ex_result),
    };
    let wb_write = if bug == Some(PipelineBug::WriteBackBubbles) {
        t.tru()
    } else {
        wb_valid
    };
    let written = t.store(s.rf, wb_dest, wb_value);
    let rf_after_wb = t.ite(wb_write, written, s.rf);

    // ------------------------------------------------------------------ RD --
    // The fetched instruction reads its operands from the register file as it
    // stands after this cycle's write-back, with forwarding from every
    // younger in-flight result: the RD/EX instruction (whose result is being
    // computed right now) and the result latches that have not retired yet.
    // Sources are listed youngest first; the youngest match wins.
    let mut sources: Vec<(Term, Term, Term)> = Vec::new();
    if !s.results.is_empty() {
        sources.push((s.ex.valid, s.ex.dest, ex_result));
        for r in &s.results[..s.results.len() - 1] {
            sources.push((r.valid, r.dest, r.value));
        }
    }
    let read = |t: &mut TermManager, src: Term| {
        let mut value = t.select(rf_after_wb, src);
        // Apply in reverse so the youngest source has the highest priority.
        for &(valid, dest, data) in sources.iter().rev() {
            let forward = match bug {
                Some(PipelineBug::NoForwarding) => t.fls(),
                Some(PipelineBug::ForwardAlways) => valid,
                _ => {
                    let dest_matches = t.eq(dest, src);
                    t.and(valid, dest_matches)
                }
            };
            value = t.ite(forward, data, value);
        }
        value
    };
    let a = read(t, fetched.src1);
    let b = read(t, fetched.src2);

    // -------------------------------------------------------- accept/annul --
    // The fetched instruction is accepted unless a bubble is inserted — or,
    // in an annulling description, unless the branch currently in RD/EX
    // squashes its delay slot. The wrong-stall-condition bug inverts the
    // bubble input's polarity; the lost-annulment bug drops only the `¬annul`
    // conjunct from the new latch's valid bit (the redirect below survives).
    let accept = if bug == Some(PipelineBug::StallInverted) {
        bubble
    } else {
        t.not(bubble)
    };
    let annul = if desc.annulling {
        t.and(s.ex.valid, s.ex.is_br)
    } else {
        t.fls()
    };
    let not_annul = t.not(annul);
    let accepted = t.and(accept, not_annul);
    let ex_valid_next = if bug == Some(PipelineBug::LostAnnul) {
        accept
    } else {
        accepted
    };

    // Branch decode of the fetched instruction (branching descriptions only):
    // its link value and target are captured now, while the architectural PC
    // still points at it.
    let (fetched_is_br, fetched_link, fetched_tgt) = if desc.branching {
        // `opbr` is an uninterpreted *constant* (a 0-ary symbol, interned as
        // a named variable): the branch opcode every decode compares against.
        let opbr = t.var("opbr", Sort::Data);
        let is_br = t.eq(fetched.op, opbr);
        let link = t.app("succ", &[s.pc]);
        let base = if bug == Some(PipelineBug::BranchTargetOffByOne) {
            s.pc
        } else {
            link
        };
        let tgt = t.app("btgt", &[base, fetched.src1]);
        (is_br, link, tgt)
    } else {
        // Unused in a non-branching description; a shared interned constant
        // keeps the formula free of stray fresh variables.
        let undef = t.var("undef", Sort::Data);
        (t.fls(), undef, undef)
    };

    let pc_next = if bug == Some(PipelineBug::StuckPc) {
        s.pc
    } else {
        let seq = t.app("succ", &[s.pc]);
        let advanced = if desc.branching && !desc.annulling {
            // d = 0: a branch redirects the PC the cycle it is accepted.
            t.ite(fetched_is_br, fetched_tgt, seq)
        } else {
            seq
        };
        let moved = t.ite(accepted, advanced, s.pc);
        if desc.annulling {
            // d = 1: the branch resolved in RD/EX redirects the PC as it
            // annuls its delay slot (redirect wins over the fetch advance).
            t.ite(annul, s.ex.tgt, moved)
        } else {
            moved
        }
    };

    // --------------------------------------------------------- latch shift --
    let mut results = Vec::with_capacity(s.results.len());
    if !s.results.is_empty() {
        results.push(ResultStage {
            valid: s.ex.valid,
            dest: s.ex.dest,
            value: ex_result,
        });
        results.extend(s.results[..s.results.len() - 1].iter().copied());
    }
    PipelineState {
        rf: rf_after_wb,
        pc: pc_next,
        ex: ExStage {
            valid: ex_valid_next,
            op: fetched.op,
            a,
            b,
            dest: fetched.dest,
            is_br: fetched_is_br,
            link: fetched_link,
            tgt: fetched_tgt,
        },
        results,
    }
}

/// The flushing abstraction function of Burch and Dill: run the pipeline with
/// bubbles until every in-flight instruction has written back, then project
/// the architectural state. A depth-`k` pipeline drains in `k − 1` bubble
/// cycles ([`PipelineDesc::flush_bound`]).
pub fn flush(t: &mut TermManager, desc: &PipelineDesc, s: &PipelineState) -> ArchState {
    let mut state = s.clone();
    let bubble = t.tru();
    // A bubble carries arbitrary instruction fields; they are never used
    // because the bubble's ex.valid is false.
    for i in 0..desc.flush_bound() {
        let dontcare = Instruction::symbolic(t, &format!("flushbubble{i}"));
        state = impl_step(t, desc, &state, dontcare, bubble);
    }
    ArchState {
        rf: state.rf,
        pc: state.pc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_step_reads_and_writes_the_register_file() {
        let mut t = TermManager::new();
        let arch = ArchState {
            rf: t.var("rf", Sort::Array),
            pc: t.var("pc", Sort::Data),
        };
        let i = Instruction::symbolic(&mut t, "i0");
        let next = spec_step(&mut t, &PipelineDesc::with_depth(3), arch, i);
        // The destination now holds the ALU application of the read operands.
        let got = t.select(next.rf, i.dest);
        let a = t.select(arch.rf, i.src1);
        let b = t.select(arch.rf, i.src2);
        let expect = t.app("alu", &[i.op, a, b]);
        assert_eq!(got, expect);
        assert_eq!(next.pc, t.app("succ", &[arch.pc]));
    }

    #[test]
    fn flushing_a_reset_pipeline_is_the_identity_at_every_depth() {
        for depth in 2..=6 {
            let mut t = TermManager::new();
            let rf = t.var("rf", Sort::Array);
            let pc = t.var("pc", Sort::Data);
            let reset = PipelineState::reset(&mut t, depth, rf, pc);
            let desc = PipelineDesc::with_depth(depth);
            let arch = flush(&mut t, &desc, &reset);
            assert_eq!(
                arch.rf, rf,
                "depth {depth}: no in-flight instruction may write the register file"
            );
            assert_eq!(
                arch.pc, pc,
                "depth {depth}: bubbles must not advance the PC"
            );
        }
    }

    #[test]
    fn bubbles_do_not_change_the_flushed_state() {
        for depth in [2, 3, 5] {
            let mut t = TermManager::new();
            let s = PipelineState::symbolic(&mut t, depth, "s");
            let desc = PipelineDesc::with_depth(depth);
            let fetched = Instruction::symbolic(&mut t, "i");
            let bubble = t.tru();
            let stalled = impl_step(&mut t, &desc, &s, fetched, bubble);
            let before = flush(&mut t, &desc, &s);
            let after = flush(&mut t, &desc, &stalled);
            // Syntactic equality is enough here because the terms are built
            // the same way; the full semantic statement is checked by the
            // verifier.
            assert_eq!(before.rf, after.rf, "depth {depth}");
            assert_eq!(before.pc, after.pc, "depth {depth}");
        }
    }

    #[test]
    fn accepted_instructions_advance_the_pc() {
        let mut t = TermManager::new();
        let rf = t.var("rf", Sort::Array);
        let pc = t.var("pc", Sort::Data);
        let reset = PipelineState::reset(&mut t, 3, rf, pc);
        let fetched = Instruction::symbolic(&mut t, "i");
        let fls = t.fls();
        let next = impl_step(&mut t, &PipelineDesc::three_stage(), &reset, fetched, fls);
        assert_eq!(next.pc, t.app("succ", &[pc]));
        assert!(t.is_true(next.ex.valid));
    }

    #[test]
    fn stuck_pc_bug_freezes_the_pc() {
        let mut t = TermManager::new();
        let rf = t.var("rf", Sort::Array);
        let pc = t.var("pc", Sort::Data);
        let reset = PipelineState::reset(&mut t, 3, rf, pc);
        let fetched = Instruction::symbolic(&mut t, "i");
        let fls = t.fls();
        let desc = PipelineDesc::three_stage().with_bug(PipelineBug::StuckPc);
        let next = impl_step(&mut t, &desc, &reset, fetched, fls);
        assert_eq!(next.pc, pc);
    }

    #[test]
    fn depth_and_flush_bound_are_consistent() {
        for depth in 2..=6 {
            let desc = PipelineDesc::with_depth(depth);
            assert_eq!(desc.flush_bound(), depth - 1);
            let mut t = TermManager::new();
            let s = PipelineState::symbolic(&mut t, depth, "s");
            assert_eq!(s.depth(), depth);
            assert_eq!(s.results.len(), depth - 2);
        }
        assert_eq!(PipelineDesc::three_stage().depth, 3);
    }

    #[test]
    fn derivation_requires_stall_and_stage_hints() {
        use pv_netlist::NetlistBuilder;
        // A design with stages but no stall input is rejected.
        let mut b = NetlistBuilder::new("no-stall");
        let v1 = b.register("v1", 1, 0);
        b.mark_stage_valid(&v1);
        let x = b.input("x", 1);
        b.set_next(&v1, &x);
        let n = b.finish().expect("build");
        assert!(matches!(
            PipelineDesc::from_netlist(&n),
            Err(DeriveError::NoStallInput { .. })
        ));
        // A design without stage registers is rejected.
        let mut b = NetlistBuilder::new("no-stages");
        b.stall_input("stall");
        let r = b.register("r", 1, 0);
        let rv = r.value();
        b.set_next(&r, &rv);
        let n = b.finish().expect("build");
        assert!(matches!(
            PipelineDesc::from_netlist(&n),
            Err(DeriveError::NoStageRegisters { .. })
        ));
        // Three stage-valid registers + a wired stall input derive a depth-4
        // pipeline; no forwarding hints means the derived model carries the
        // forwarding bug.
        let n = three_latch_netlist(0, 0);
        let desc = PipelineDesc::from_netlist(&n).expect("derive");
        assert_eq!(desc.depth, 4);
        assert_eq!(desc.flush_bound(), 3);
        assert_eq!(desc.bug, Some(PipelineBug::NoForwarding));
        assert!(!desc.branching && !desc.annulling);
    }

    /// A minimal three-latch netlist whose stall input really gates the first
    /// valid bit and whose operand read really bypasses from `built` sources,
    /// while `noted` extra paths are claimed on top of the built ones.
    fn three_latch_netlist(built: usize, extra_noted: usize) -> pv_netlist::Netlist {
        use pv_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("three-latch");
        b.stall_input("stall");
        let x = b.input("x", 1);
        let xb = x.bit(0);
        let accept = b.stall_gate(xb);
        let regs = b.reg_array("r", 2, 4, 0);
        let addr = b.input("addr", 1);
        let sources: Vec<_> = (0..built)
            .map(|_| (xb, addr.clone(), regs.entry(0)))
            .collect();
        b.note_forward_paths(built + extra_noted);
        let read = b.bypassed_read(&regs, &addr, &sources);
        b.expose("read", &read);
        b.reg_array_write(&regs, &[]);
        let gated = pv_netlist::Word::from_bit(accept);
        for name in ["v1", "v2", "v3"] {
            let v = b.register(name, 1, 0);
            b.mark_stage_valid(&v);
            b.set_next(&v, &gated);
        }
        b.finish().expect("build")
    }

    #[test]
    fn a_partially_dropped_bypass_network_still_derives_the_forwarding_bug() {
        // Depth 4 needs two bypass sources; building only one must not pass
        // for a correct network.
        assert_eq!(
            PipelineDesc::from_netlist(&three_latch_netlist(1, 0))
                .expect("derive")
                .bug,
            Some(PipelineBug::NoForwarding)
        );
        assert_eq!(
            PipelineDesc::from_netlist(&three_latch_netlist(2, 0))
                .expect("derive")
                .bug,
            None
        );
    }

    #[test]
    fn hints_that_disagree_with_the_circuit_are_rejected() {
        use pv_netlist::NetlistBuilder;
        // Claiming more forwarding paths than were wired is a derive error,
        // not a silently-correct description.
        assert!(matches!(
            PipelineDesc::from_netlist(&three_latch_netlist(1, 1)),
            Err(DeriveError::ForwardPathMismatch {
                noted: 2,
                built: 1,
                ..
            })
        ));
        // A declared stall input that never gates anything is rejected too.
        let mut b = NetlistBuilder::new("unwired-stall");
        b.stall_input("stall");
        let x = b.input("x", 1);
        let v = b.register("v1", 1, 0);
        b.mark_stage_valid(&v);
        b.set_next(&v, &x);
        let n = b.finish().expect("build");
        let err = PipelineDesc::from_netlist(&n).expect_err("must reject");
        assert!(matches!(err, DeriveError::StallGatesNothing { .. }));
        assert!(err.to_string().contains("gates nothing"), "{err}");
    }

    #[test]
    fn spec_step_executes_branches_atomically() {
        let mut t = TermManager::new();
        let arch = ArchState {
            rf: t.var("rf", Sort::Array),
            pc: t.var("pc", Sort::Data),
        };
        let i = Instruction::symbolic(&mut t, "i0");
        let desc = PipelineDesc::with_depth(3).with_branching();
        let next = spec_step(&mut t, &desc, arch, i);
        let opbr = t.var("opbr", Sort::Data);
        let is_br = t.eq(i.op, opbr);
        let link = t.app("succ", &[arch.pc]);
        let tgt = t.app("btgt", &[link, i.src1]);
        assert_eq!(next.pc, t.ite(is_br, tgt, link));
        let got = t.select(next.rf, i.dest);
        let a = t.select(arch.rf, i.src1);
        let b = t.select(arch.rf, i.src2);
        let alu = t.app("alu", &[i.op, a, b]);
        assert_eq!(got, t.ite(is_br, link, alu));
    }

    #[test]
    fn branching_flush_identity_and_bubble_invariance_still_hold() {
        for desc in [
            PipelineDesc::with_depth(2).with_annulment(),
            PipelineDesc::with_depth(3).with_branching(),
            PipelineDesc::with_depth(4).with_annulment(),
        ] {
            let mut t = TermManager::new();
            let rf = t.var("rf", Sort::Array);
            let pc = t.var("pc", Sort::Data);
            let reset = PipelineState::reset(&mut t, desc.depth, rf, pc);
            let arch = flush(&mut t, &desc, &reset);
            assert_eq!(arch.rf, rf, "{}", desc.name);
            assert_eq!(arch.pc, pc, "{}", desc.name);
            let s = PipelineState::symbolic(&mut t, desc.depth, "s");
            let fetched = Instruction::symbolic(&mut t, "i");
            let bubble = t.tru();
            let stalled = impl_step(&mut t, &desc, &s, fetched, bubble);
            let before = flush(&mut t, &desc, &s);
            let after = flush(&mut t, &desc, &stalled);
            assert_eq!(before.rf, after.rf, "{}", desc.name);
            assert_eq!(before.pc, after.pc, "{}", desc.name);
        }
    }

    #[test]
    fn an_annulling_pipeline_redirects_and_squashes_the_delay_slot() {
        let mut t = TermManager::new();
        let desc = PipelineDesc::with_depth(3).with_annulment();
        let s = PipelineState::symbolic(&mut t, 3, "s");
        let fetched = Instruction::symbolic(&mut t, "i");
        let fls = t.fls();
        let next = impl_step(&mut t, &desc, &s, fetched, fls);
        let annul = t.and(s.ex.valid, s.ex.is_br);
        // The delay slot's valid bit carries the ¬annul conjunct …
        let not_annul = t.not(annul);
        assert_eq!(next.ex.valid, not_annul);
        // … and the PC redirect comes from the branch's captured target.
        let seq = t.app("succ", &[s.pc]);
        let moved = t.ite(not_annul, seq, s.pc);
        assert_eq!(next.pc, t.ite(annul, s.ex.tgt, moved));
        // The lost-annulment bug keeps the redirect but drops the squash.
        let buggy = desc.clone().with_bug(PipelineBug::LostAnnul);
        let next = impl_step(&mut t, &buggy, &s, fetched, fls);
        assert!(t.is_true(next.ex.valid));
        assert_eq!(next.pc, t.ite(annul, s.ex.tgt, moved));
    }
}
