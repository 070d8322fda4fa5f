//! Synchronous gate-level netlists with a word-level builder.
//!
//! This crate plays the role that the BDS language, the BDSYN synthesiser and
//! the `slif` netlist format play in the thesis: it is the substrate in which
//! both the unpipelined *specification* and the pipelined *implementation* of
//! a microprocessor are described, and from which the verifier obtains
//! next-state and output functions.
//!
//! A [`Netlist`] is a DAG of single-bit gates ([`NetId`]) plus a set of
//! edge-triggered registers; the [`Word`] helpers of [`NetlistBuilder`]
//! provide the word-level operators (adders, comparators, multiplexers,
//! register arrays) a high-level description needs. A finished netlist can be
//!
//! * evaluated concretely, cycle by cycle, with [`ConcreteSim`], and
//! * simulated symbolically over BDDs with [`SymbolicSim`], which also exports
//!   the transition relation used for reachability-style verification.
//!
//! # Example
//!
//! A two-bit counter with an enable input:
//!
//! ```
//! use pv_netlist::{ConcreteSim, NetlistBuilder};
//!
//! let mut n = NetlistBuilder::new("counter");
//! let enable = n.input("enable", 1);
//! let count = n.register("count", 2, 0);
//! let one = n.wconst(1, 2);
//! let next = n.wadd(&count.value(), &one);
//! let next = n.wmux(enable.bit(0), &next, &count.value());
//! n.set_next(&count, &next);
//! n.expose("count", &count.value());
//! let netlist = n.finish()?;
//!
//! let mut sim = ConcreteSim::new(&netlist);
//! sim.step(&[("enable", 1)]); // count: 0 -> 1
//! sim.step(&[("enable", 0)]); // count holds at 1
//! let out = sim.step(&[("enable", 1)]); // outputs sampled before the edge
//! assert_eq!(out["count"], 1);
//! assert_eq!(sim.register("count"), Some(2));
//! # Ok::<(), pv_netlist::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod eval;
pub mod export;
mod net;
pub mod order;
mod sym;

pub use build::{NetlistBuilder, RegArray, RegWord, Word};
pub use eval::ConcreteSim;
pub use net::{BuildError, NetId, Netlist, PipelineHints, PortInfo};
pub use sym::{SymState, SymbolicSim};
