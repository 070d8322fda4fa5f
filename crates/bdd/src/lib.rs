//! Reduced Ordered Binary Decision Diagrams (ROBDDs) for the pipelined-processor
//! verification methodology of Bhagwati (1994), Chapter 3.
//!
//! The crate provides:
//!
//! * a hash-consed [`BddManager`] with a memoized if-then-else (`ite`) core
//!   operation, from which the usual Boolean connectives are derived
//!   (Bryant 1986),
//! * **complemented edges** (Brace–Rudell–Bryant 1990): every [`Bdd`] handle
//!   carries a complement attribute, the unique table stores only the
//!   regular-then canonical form, and `ite` normalizes standard triples, so
//!   negation is a single bit flip with zero allocation and a function
//!   shares its entire subgraph with its complement,
//! * a **static variable order**: a variable's position in the order is its
//!   allocation index ([`Var::index`]), so callers fix the order by the order
//!   in which they allocate variables,
//! * restriction (cofactoring), existential/universal quantification (the
//!   *smoothing* operator of Definition 3.3.1), composition and monotone
//!   variable replacement,
//! * satisfiability queries, model extraction and model counting,
//! * [`BddVec`], fixed-width bit-vectors of BDDs: the words a symbolic
//!   simulation takes in and gives out, with an adder, comparators and a
//!   multiplexer for hand-built transition systems,
//! * [`TransitionSystem`], the transition-relation representation of a
//!   synchronous machine together with image computation and breadth-first
//!   reachability (Coudert–Berthet–Madre 1989, Section 3.3 of the thesis),
//!   and
//! * cooperative **resource budgets** ([`Budget`], [`BudgetExceeded`],
//!   [`BddManager::set_budget`]): wall-clock deadlines, allocated-node
//!   limits and cancellation, checked at the manager's safe points and
//!   aborting with a typed unwind that leaves the manager reusable.
//!
//! # Example
//!
//! Building the ROBDD of `f = x1·x3 + x1·x2·x3` (Figure 3 of the thesis) and
//! checking a few of its properties:
//!
//! ```
//! use pv_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let x1 = m.new_var();
//! let x2 = m.new_var();
//! let x3 = m.new_var();
//! let (v1, v2, v3) = (m.var(x1), m.var(x2), m.var(x3));
//! let t1 = m.and(v1, v3);
//! let t2 = m.and_many(&[v1, v2, v3]);
//! let f = m.or(t1, t2);
//! // x2 is redundant: f == x1 & x3, and ROBDDs are canonical.
//! assert_eq!(f, t1);
//! assert!(m.eval(f, |v| v == x1 || v == x3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod cache;
mod hash;
mod manager;
mod node;
mod relation;
mod unique;
mod vec;

pub use budget::{Budget, BudgetExceeded};
pub use manager::{BddManager, BddStats, GcStats};
pub use node::{Bdd, Var};
pub use relation::{ReachableSet, TransitionSystem};
pub use vec::BddVec;
