//! Burch–Dill-style *flushing* verification of pipelined processor control.
//!
//! This crate is the companion/extension method to the β-relation flow of
//! `pipeverify-core` (see `DESIGN.md` for how the two relate): where the
//! β-relation methodology of Bhagwati (1994) compares the *bit-level* netlists
//! by BDD-based symbolic simulation, the flushing method of Burch and Dill
//! ("Automatic Verification of Pipelined Microprocessor Control", 1994) keeps
//! the datapath *uninterpreted* and verifies only the pipeline control: the
//! ALU is an uninterpreted function, the register file is a read/write array,
//! and the correctness condition is a commuting diagram —
//!
//! ```text
//!          impl_step
//!     s ───────────────▶ s′
//!     │                   │
//!     │ flush             │ flush
//!     ▼                   ▼
//!   arch ──────────────▶ arch′
//!          spec_step
//! ```
//!
//! — whose validity is decided in the logic of equality with uninterpreted
//! functions (EUF).
//!
//! * [`term`] — hash-consed terms: uninterpreted functions, `ite`, equality,
//!   Boolean structure and read/write arrays;
//! * [`euf`] — the validity checker (atom case-splitting + congruence
//!   closure), returning counterexample assignments;
//! * [`pipeline`] — a **depth-parametric** term-level pipeline family with
//!   forwarding and its ISA-level specification, plus injectable control
//!   bugs; the classic three-stage model is the depth-3 instantiation, and
//!   [`PipelineDesc::from_netlist`] derives a description from a stallable
//!   bit-level design (`pv_netlist::PipelineHints`);
//! * [`flushing`] — the flushing abstraction function, the commuting-diagram
//!   verification condition, and its checker, which fans the independent EUF
//!   case-split blocks out over `pipeverify_core::pool` with the same
//!   deterministic lowest-index-counterexample merge the β-relation verifier
//!   uses.
//!
//! [`FlushVerifier::from_netlist`] derives the model from a stallable
//! netlist, and [`FlushReport::to_flow_report`] renders the result in
//! `pipeverify_core::FlowReport`, the shape the β-relation `Verifier`'s
//! report renders into too — so one stallable netlist can be pushed through
//! both flows and the shared reports compared (see the `both_flows` example
//! and `DESIGN.md` § "Where they meet").
//!
//! # Example
//!
//! ```
//! use pv_flush::{FlushVerifier, PipelineBug, PipelineDesc};
//!
//! // The correct three-stage pipeline satisfies the commuting diagram …
//! let report = FlushVerifier::new(PipelineDesc::three_stage()).verify();
//! assert!(report.valid());
//! // … and dropping the forwarding path is caught with a counterexample.
//! let buggy = PipelineDesc::three_stage().with_bug(PipelineBug::NoForwarding);
//! assert!(!FlushVerifier::new(buggy).verify().valid());
//! // Deeper pipelines verify too; the flush bound follows the depth.
//! assert_eq!(PipelineDesc::with_depth(5).flush_bound(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod euf;
pub mod flushing;
pub mod pipeline;
pub mod term;

pub use euf::{check_sat, check_valid, AtomAssignment, EufCounterexample, EufReport};
pub use flushing::{FlushReport, FlushVerifier};
pub use pipeline::{
    flush, impl_step, spec_step, ArchState, DeriveError, ExStage, Instruction, PipelineBug,
    PipelineDesc, PipelineState, ResultStage,
};
pub use term::{Sort, Term, TermManager, TermNode};
