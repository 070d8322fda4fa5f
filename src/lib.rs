//! # pipeverify
//!
//! Facade crate for the reproduction of *Automatic Verification of Pipelined
//! Microprocessors* (Bhagwati, 1994). It re-exports the workspace crates so
//! that examples and downstream users can depend on a single package:
//!
//! * [`bdd`] — ROBDD manager, bit-vectors, transition relations (Chapter 3),
//! * [`netlist`] — synchronous netlists with concrete and symbolic simulation
//!   (the BDS/BDSYN substitute),
//! * [`strfn`] — string functions, the β-relation and definite machines
//!   (Chapters 2 and 4),
//! * [`isa`] — the VSM and Alpha0 instruction sets and reference interpreters
//!   (Tables 1 and 2),
//! * [`proc`] — pipelined and unpipelined processor netlists (Figures 12–15),
//!   including the stallable variants both verification flows share,
//! * [`core`] — the verification methodology itself (Chapter 5, Figure 8)
//!   and the `FlowReport` shape both flows' reports render into,
//! * [`flush`] — the Burch–Dill flushing flow: depth-parametric term-level
//!   pipelines (derivable from a stallable netlist) and the EUF
//!   commuting-diagram check.
//!
//! # Quick start
//!
//! ```no_run
//! use pipeverify::core::{MachineSpec, Verifier};
//! use pipeverify::proc::vsm::{self, VsmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipelined = vsm::pipelined(VsmConfig::correct())?;
//! let unpipelined = vsm::unpipelined(VsmConfig::correct())?;
//! let report = Verifier::new(MachineSpec::vsm()).verify(&pipelined, &unpipelined)?;
//! assert!(report.equivalent());
//! # Ok(())
//! # }
//! ```
//!
//! (The example is `no_run` only because symbolic simulation is slow in
//! unoptimised doc-test builds; `cargo run --release --example quickstart`
//! executes exactly this flow.)

#![forbid(unsafe_code)]

pub use pipeverify_core as core;
pub use pv_bdd as bdd;
pub use pv_flush as flush;
pub use pv_isa as isa;
pub use pv_netlist as netlist;
pub use pv_proc as proc;
pub use pv_strfn as strfn;
