//! Pipelined and unpipelined netlist implementations of the two case-study
//! processors of Chapter 6, built on the [`pv_netlist`] builder:
//!
//! * [`vsm`] — the VSM (Figures 12 and 13): a 4-stage static pipeline with
//!   operand bypassing and one annulled delay slot after `br`, and the serial
//!   (one instruction per 4 cycles) unpipelined specification machine —
//!   plus the interrupt/trap variant (`VsmConfig::with_interrupts`) that
//!   exercises the *dynamic* β-relation of Section 5.5;
//! * [`alpha0`] — Alpha0 (Figures 14 and 15): a 5-stage static pipeline with
//!   a data memory, conditional branches and jumps, full operand bypassing
//!   and one annulled delay slot after every control-transfer instruction,
//!   plus the serial unpipelined specification machine;
//! * [`family`] — a **parametric processor family**: generators elaborating
//!   any depth-2–8 in-order pipeline (configurable word width, register
//!   count, forwarding subset, optional stall input, 0 or 1 branch delay
//!   slots) and its serial specification twin, plus a hazard-bug injector
//!   whose mutations are recorded in the generated netlist's
//!   `PipelineHints` — the design space behind the cross-flow agreement
//!   matrix (`tests/family_matrix.rs` at the workspace root).
//!
//! All designs receive their instruction stream through a primary input port
//! (`instr`) — exactly as in the thesis, where the verifier controls the
//! instruction applied in each cycle — and expose the architectural state
//! (registers `r0…`, memory words `m0…`, the retired program counter `pc`)
//! together with the write-back port (`wb_en`, `wb_addr`, `wb_data`) as
//! observed variables.
//!
//! Deliberately buggy variants (bypass removed, annulment removed, wrong
//! write-back register, off-by-one branch target, …) can be requested through
//! the configuration types; the verifier must reject them.
//!
//! # Conventions shared by every design (and by the `pv-isa` interpreters)
//!
//! * every instruction advances the architectural PC by one; control
//!   transfers write the *updated* PC (address of the next instruction) to
//!   their link register and redirect the PC relative to it;
//! * the instruction following a control-transfer instruction is **always**
//!   annulled in the pipelined machines (the single delay slot, `d = 1`);
//! * a synchronous `reset` input clears the architectural and pipeline state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha0;
pub mod family;
pub mod vsm;
