//! The verification methodology of *Automatic Verification of Pipelined
//! Microprocessors* (Bhagwati, 1994), Chapter 5.
//!
//! A pipelined implementation is verified against an unpipelined
//! specification of the same instruction set by checking the β-relation
//! between the string functions the two machines realise. Both machines are
//! characterised as k-definite machines (Chapter 4), so only a bounded number
//! of symbolic-simulation cycles is required:
//!
//! * the unpipelined machine is simulated for `r + k·N (+1)` cycles,
//! * the pipelined machine for `r + N + c·d + k (+1)` cycles
//!   (`2k − 1 + r + c·d` in the thesis's counting),
//!
//! where `k` is the pipeline depth, `N = k` the number of instruction slots,
//! `c` the number of control-transfer slots, `d` the number of delay slots
//! and `r` the number of reset cycles. The instruction applied in each slot
//! is a vector of fresh BDD variables shared between the two machines and
//! restricted to an instruction class (the cofactoring of Section 5.2);
//! outputs are sampled at the cycles selected by the output filtering
//! functions (the β-relation / dynamic β-relation schedules) and compared as
//! ROBDDs.
//!
//! Each plan in a batch is checked in its own freshly-built BDD manager, so
//! batches run on a scoped worker pool ([`pool`], [`Verifier::with_threads`],
//! the `PV_THREADS` environment variable) with a deterministic merge — the
//! parallel report is field-by-field identical to the sequential one (see
//! `DESIGN.md` § "Parallel verification").
//!
//! The crate also contains the baselines the evaluation compares against
//! (the product-machine reachability equivalence procedure of Section 3.4 and
//! a conventional random-simulation checker) and the [`FlowReport`] shape
//! that this flow's report and the Burch–Dill flushing flow's (`pv-flush`)
//! both render into through `to_flow_report` — a stallable netlist
//! (`VsmConfig::stallable`, `MachineSpec::with_stall_port`) runs through
//! both, and the verdicts are directly comparable (see `DESIGN.md` § "Where
//! they meet").
//!
//! # Quick start
//!
//! ```no_run
//! use pipeverify_core::{MachineSpec, Verifier};
//! use pv_proc::vsm::{self, VsmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipelined = vsm::pipelined(VsmConfig::correct())?;
//! let unpipelined = vsm::unpipelined(VsmConfig::correct())?;
//! let report = Verifier::new(MachineSpec::vsm()).verify(&pipelined, &unpipelined)?;
//! assert!(report.equivalent());
//! # Ok(())
//! # }
//! ```
//! (`no_run` only because doc-tests are built without optimisation; the
//! `quickstart` example runs this flow for real.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod cache;
mod flow;
pub mod json;
mod plan;
pub mod pool;
pub mod report_io;
mod spec;
pub mod trace_io;
mod verify;

pub use baseline::{product_equivalence, random_simulation, ProductReport, RandomSimReport};
pub use flow::{
    FlowCounterexample, FlowErrorKind, FlowReport, ReplayOutcome, ReplayRecipe, UnitFailure,
};
pub use plan::{CycleInput, ParsePlanError, SimulationPlan, SimulationSchedule, Slot};
pub use spec::MachineSpec;
// The budget handle is part of this crate's public verification API
// (`Verifier::with_budget`), re-exported so flow and service callers need
// no direct `pv-bdd` dependency to govern resources.
pub use pv_bdd::{Budget, BudgetExceeded};
pub use verify::{Counterexample, PlanReport, VerificationReport, Verifier, VerifyError};
