//! **pv-obs** — the observability substrate of the workspace: a lock-cheap
//! metrics registry, scoped span tracing, and the trace-folding profiler the
//! `trace_report` tool is built on.
//!
//! The crate sits *below* `pv-bdd` in the dependency order and depends on
//! nothing, so every layer — the BDD engine, the verification flows, the
//! worker pool, the service — can emit metrics and spans without cycles:
//!
//! * [`metrics`]: process-global counters, gauges and histograms behind
//!   atomics, named hierarchically with dots (`bdd.ite.cache_hit`,
//!   `pool.claim`, `cache.miss`). Call-sites hold `static` handles
//!   ([`Counter::new`] is `const`), so the steady-state cost of an increment
//!   is one relaxed atomic op.
//! * [`trace`]: scoped spans ([`span`] returns a guard that emits matching
//!   enter/exit events) buffered per thread and merged deterministically on
//!   export ([`take_events`] sorts by `(tid, seq)`). Tracing is **off** by
//!   default; [`set_trace_enabled`] turns it on, and a disabled [`span`]
//!   call is a single relaxed atomic load.
//! * [`mod@fold`]: turns an event stream into a self-time profile
//!   ([`fold::fold`]) and checks span-nesting well-formedness
//!   ([`fold::check_nesting`]) — every exit must match the open enter on its
//!   thread.
//! * [`fail`]: deterministic fault injection at named sites for chaos
//!   testing, compiled out by default (opt in with the `failpoints` feature
//!   and arm sites via `PV_FAILPOINTS=site:prob,…`).
//!
//! Events are plain values here; rendering them as JSONL lives in
//! `pipeverify_core::trace_io`, next to the repository's JSON value model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fail;
pub mod fold;
pub mod metrics;
pub mod trace;

pub use fail::{InjectedFault, FAILPOINTS_ENV};
pub use fold::{check_nesting, fold, FoldReport, SpanRow};
pub use metrics::{snapshot, Counter, Gauge, Histogram};
pub use trace::{
    flush_thread, set_trace_enabled, span, take_events, trace_enabled, warn_once, SpanGuard,
    TraceEvent, TraceKind,
};
