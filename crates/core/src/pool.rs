//! A scoped worker pool over independent units of work.
//!
//! Plan verification is embarrassingly parallel: every [`crate::SimulationPlan`]
//! is checked in its own freshly-built BDD manager, so the only shared state
//! between two plan checks is the *read-only* inputs (the netlists and the
//! [`crate::MachineSpec`]). This module provides the small, dependency-free
//! fan-out the verifier and the benchmark harness use: [`std::thread::scope`]
//! workers pulling indices from an atomic counter, with results merged back in
//! **index order** so parallel output is bit-identical to the sequential path.
//!
//! The worker count comes from [`Verifier::with_threads`](crate::Verifier::with_threads)
//! or, by default, from the `PV_THREADS` environment variable
//! ([`default_threads`]); `1` bypasses the pool entirely and runs today's
//! in-place sequential loop.
//!
//! The same pool carries every fan-out in the workspace: β-relation plan
//! sweeps, `pv-flush`'s EUF case-split blocks, and the verification
//! service's job scheduler (`pv-server`'s LPT batches — jobs sorted by cost
//! and claimed longest-first, which is exactly "claim indices in order" over
//! a cost-sorted index array). Results always come back in item order:
//!
//! ```
//! use pipeverify_core::pool;
//!
//! // Four workers, nondeterministic claim order — deterministic output.
//! let squares = pool::par_map(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use pv_bdd::Budget;
use pv_obs::{Counter, Gauge, Histogram};

/// Pool occupancy metrics: items claimed by pool workers, the widest pool
/// seen, and per-worker busy time per fan-out (the occupancy evidence the
/// intra-simulation sharding work will be sized with). The sequential
/// `threads == 1` path stays uninstrumented — it spawns no workers.
static M_POOL_CLAIM: Counter = Counter::new("pool.claim");
static M_POOL_WORKERS: Gauge = Gauge::new("pool.workers");
static M_POOL_BUSY: Histogram = Histogram::new("pool.worker.busy_us");
static M_POOL_UNIT_PANIC: Counter = Counter::new("pool.unit_panic");

/// The default worker count: the `PV_THREADS` environment variable when it is
/// set to a positive integer, otherwise the machine's available parallelism,
/// and `1` when even that is unknown.
///
/// A set-but-invalid `PV_THREADS` (unparsable, or `0`) is **rejected with a
/// warning** — once per process, as a `pv-obs` warning event (a stderr line,
/// a `warn.pv_threads` counter, and a `Warn` trace event when tracing is on)
/// — instead of being silently swallowed: this is the single parsing point
/// every verification flow (the β-relation [`crate::Verifier`] and
/// `pv-flush`'s `FlushVerifier`) resolves its default worker count through.
pub fn default_threads() -> usize {
    resolve_threads(std::env::var("PV_THREADS").ok().as_deref())
}

/// [`default_threads`] with the environment lookup factored out, so the
/// warning path is testable without mutating process-global state.
fn resolve_threads(raw: Option<&str>) -> usize {
    if let Some(raw) = raw {
        match parse_pv_threads(raw) {
            Some(n) => return n,
            None => {
                pv_obs::warn_once(
                    "pv_threads",
                    &format!(
                        "ignoring invalid PV_THREADS=`{raw}` \
                         (expected a positive integer); using available parallelism"
                    ),
                );
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `PV_THREADS` validation rule, separated from the environment so it is
/// testable without mutating process-global state: a positive integer parses,
/// anything else (unparsable, or `0`) is rejected.
fn parse_pv_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Applies `f` to every item on `threads` scoped workers and returns the
/// results in item order.
///
/// `f` receives the item index and the item; items are claimed from an atomic
/// counter, so the *assignment* of items to workers is nondeterministic while
/// the returned vector is not. With `threads <= 1` (or a single item) the
/// items are processed inline on the caller's thread, in order, with no
/// threads spawned.
///
/// A panicking unit does not unwind the pool (see [`par_map_prefix_caught`]):
/// the remaining units complete first, then the **lowest-indexed** panic is
/// re-raised on the caller's thread with its original payload.
pub fn par_map<I, R, F>(threads: usize, items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    par_map_prefix_caught(threads, items, None, |i, item, _| (f(i, item), false))
        .into_iter()
        // Results come back in index order, so the first panic met is the
        // lowest-indexed one.
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Applies `f` to every item on the pool, where `f` additionally returns a
/// *terminal* flag: once an item is terminal, items with **higher** indices
/// no longer need to be computed (the verifiers' "stop at the first
/// counterexample").
///
/// Returns the **sequential prefix**: one result per item, in index order,
/// up to and including the lowest terminal item (every item when none is
/// terminal) — exactly what an in-order loop that stops at the first
/// terminal item computes. Items a racing worker computed past that cutoff
/// are dropped here, so a panic in one of them never reaches the caller.
///
/// Every unit runs inside [`std::panic::catch_unwind`], so one poisoned item
/// yields an `Err(payload)` in its slot while every sibling completes. A
/// panicked unit is **not** terminal. Callers classify the payload (e.g.
/// `FlowErrorKind::classify_panic` downcasts a typed
/// [`BudgetExceeded`](pv_bdd::BudgetExceeded) abort).
///
/// With a `budget`, every item gets its own [`Budget::child`] — the
/// parent's deadline and node limit, its own cancel flag — handed to `f`.
/// A unit whose child already fails [`Budget::check`] is not started: its
/// slot holds the typed [`BudgetExceeded`](pv_bdd::BudgetExceeded) payload,
/// as if the unit had aborted at its first safe point. When a terminal item
/// lowers the cutoff, the children past it are cancelled, so in-flight units
/// the sequential loop would never have reached abort at their next safe
/// point; the caller's budget itself is never cancelled.
///
/// Unit closures are wrapped in [`AssertUnwindSafe`]: units are independent
/// by contract (the pool's whole premise), so any state `f` shares across
/// items must already tolerate an abandoned unit.
pub fn par_map_prefix_caught<I, R, F>(
    threads: usize,
    items: &[I],
    budget: Option<&Budget>,
    f: F,
) -> Vec<thread::Result<R>>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I, Option<&Budget>) -> (R, bool) + Sync,
{
    let n = items.len();
    let children: Vec<Option<Budget>> = items.iter().map(|_| budget.map(Budget::child)).collect();
    let unit = |i: usize| {
        let child = children[i].as_ref();
        let result = match child.map(|b| b.check(0)) {
            Some(Err(exceeded)) => Err(Box::new(exceeded) as Box<dyn Any + Send>),
            _ => catch_unwind(AssertUnwindSafe(|| f(i, &items[i], child))),
        };
        if result.is_err() {
            M_POOL_UNIT_PANIC.incr();
        }
        result
    };
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut prefix = Vec::with_capacity(n);
        for i in 0..n {
            let result = unit(i);
            let terminal = matches!(result, Ok((_, true)));
            prefix.push(result.map(|(r, _)| r));
            if terminal {
                break;
            }
        }
        return prefix;
    }

    // Work distribution: each worker claims the next unclaimed index. When an
    // item turns out to be terminal, `cutoff` drops to its index and later
    // indices are skipped instead of computed (they can never be part of the
    // sequential prefix). `cutoff` only ever decreases, and an index at or
    // below the final cutoff is never skipped, so the prefix is complete.
    let next = AtomicUsize::new(0);
    let cutoff = AtomicUsize::new(usize::MAX);
    M_POOL_WORKERS.set_max(threads as u64);
    let mut computed = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (unit, children, next, cutoff) = (&unit, &children, &next, &cutoff);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut busy = Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if i > cutoff.load(Ordering::Acquire) {
                            continue;
                        }
                        M_POOL_CLAIM.incr();
                        let claimed_at = Instant::now();
                        let result = unit(i).map(|(r, terminal)| {
                            if terminal && i < cutoff.fetch_min(i, Ordering::AcqRel) {
                                for child in children[i + 1..].iter().flatten() {
                                    child.cancel();
                                }
                            }
                            r
                        });
                        busy += claimed_at.elapsed();
                        out.push((i, result));
                    }
                    M_POOL_BUSY.record(busy.as_micros() as u64);
                    // Workers retire here; deliver their span buffers so an
                    // export after the join sees the whole fan-out.
                    pv_obs::flush_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker survives unit panics"))
            .collect::<Vec<_>>()
    });
    let cutoff = cutoff.into_inner();
    computed.retain(|&(i, _)| i <= cutoff);
    computed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(
        computed.iter().enumerate().all(|(k, &(i, _))| k == i),
        "every index up to the cutoff is computed"
    );
    computed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_bdd::BudgetExceeded;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 64] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_oversized_pools() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(16, &[7u32], |_, &x| x + 1), vec![8]);
        assert_eq!(par_map(0, &[1u32, 2], |_, &x| x), vec![1, 2]);
    }

    /// Unwraps results whose units are not expected to panic.
    fn unwrap_all<R>(results: Vec<thread::Result<R>>) -> Vec<R> {
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| panic!("no unit panics")))
            .collect()
    }

    /// The panic message of a unit that panicked with a string payload.
    fn message(payload: &(dyn Any + Send)) -> Option<String> {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_result_is_the_prefix_up_to_the_lowest_terminal_item() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let prefix = unwrap_all(par_map_prefix_caught(threads, &items, None, |_, &x, _| {
                (x, x == 20 || x == 41)
            }));
            assert_eq!(prefix, (0..=20).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn sequential_fallback_stops_at_the_terminal_item() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let prefix = unwrap_all(par_map_prefix_caught(1, &items, None, |_, &x, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            (x, x == 3)
        }));
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(prefix, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_panic_past_the_terminal_item_stays_outside_the_prefix() {
        // A racing worker may reach (and panic in) a unit past the terminal
        // one; the pool drops it, so the prefix is all `Ok` on every thread
        // count — exactly as a sequential run, which never computes that
        // unit.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let prefix = par_map_prefix_caught(threads, &items, None, |_, &x, _| {
                if x == 21 {
                    panic!("unit 21 poisoned");
                }
                (x, x == 20)
            });
            assert_eq!(unwrap_all(prefix), (0..=20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_unit_does_not_kill_its_siblings() {
        // The bugfix contract: one poisoned unit used to unwind the whole
        // thread scope mid-unit; now every sibling completes and the panic
        // is re-raised afterwards with its original payload.
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 2, 4, 8] {
            let completed = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(threads, &items, |_, &x| {
                    if x == 5 {
                        panic!("unit 5 poisoned");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }));
            let payload = result.expect_err("the panic is re-raised");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 5 poisoned"));
            assert_eq!(
                completed.load(Ordering::Relaxed),
                items.len() - 1,
                "every non-poisoned unit completed on {threads} threads"
            );
        }
    }

    #[test]
    fn caught_panics_surface_per_unit_and_stay_non_terminal() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 2, 4] {
            let results = par_map_prefix_caught(threads, &items, None, |_, &x, _| {
                if x % 7 == 3 {
                    panic!("unit {x} poisoned");
                }
                (x * 2, false)
            });
            assert_eq!(results.len(), items.len(), "no terminal item: every unit");
            for (i, result) in results.iter().enumerate() {
                match result {
                    Err(payload) => {
                        assert_eq!(i % 7, 3, "only poisoned units fail");
                        assert_eq!(message(&**payload), Some(format!("unit {i} poisoned")));
                    }
                    Ok(r) => assert_eq!(*r, i * 2),
                }
            }
        }
    }

    #[test]
    fn the_prefix_guarantee_holds_under_panics() {
        // A panicked unit is non-terminal: the prefix runs on to the lowest
        // *successful* terminal index.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let results = par_map_prefix_caught(threads, &items, None, |_, &x, _| {
                if x == 9 {
                    panic!("unit 9 poisoned");
                }
                (x, x == 20)
            });
            assert_eq!(results.len(), 21, "{threads} threads");
            for (i, result) in results.iter().enumerate() {
                assert_eq!(result.as_ref().ok(), (i != 9).then_some(&i), "index {i}");
            }
        }
    }

    #[test]
    fn units_past_a_terminal_item_see_their_budget_cancelled() {
        // Two workers: unit 0 waits until unit 1 is in flight, then turns
        // terminal; unit 1 waits for its budget to be cancelled. Unit 1 lies
        // past the cutoff, so its result never reaches the prefix — the
        // flag is the evidence.
        let items: Vec<usize> = (0..8).collect();
        let budget = Budget::unlimited();
        let started = std::sync::atomic::AtomicBool::new(false);
        let saw_cancel = std::sync::atomic::AtomicBool::new(false);
        let wait_for = |flag: &dyn Fn() -> bool| {
            let until = Instant::now() + Duration::from_secs(20);
            while !flag() && Instant::now() < until {
                thread::yield_now();
            }
            flag()
        };
        let prefix = par_map_prefix_caught(2, &items, Some(&budget), |i, &x, child| {
            let child = child.expect("a budgeted batch hands every unit a child");
            match i {
                0 => assert!(wait_for(&|| started.load(Ordering::Acquire))),
                1 => {
                    started.store(true, Ordering::Release);
                    let cancelled = wait_for(&|| child.is_cancelled());
                    saw_cancel.store(cancelled, Ordering::Release);
                }
                _ => {}
            }
            (x, i == 0)
        });
        assert_eq!(unwrap_all(prefix), vec![0]);
        assert!(saw_cancel.load(Ordering::Acquire), "unit 1 was cancelled");
        assert!(!budget.is_cancelled(), "the caller's budget is untouched");
    }

    #[test]
    fn an_exhausted_budget_starts_no_unit() {
        let items: Vec<usize> = (0..12).collect();
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        for (budget, kind) in [
            (cancelled, BudgetExceeded::Cancelled),
            (expired, BudgetExceeded::Deadline),
        ] {
            for threads in [1, 2, 4] {
                let calls = AtomicUsize::new(0);
                let results = par_map_prefix_caught(threads, &items, Some(&budget), |_, &x, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    (x, true)
                });
                assert_eq!(calls.load(Ordering::Relaxed), 0, "{kind:?} on {threads}");
                assert_eq!(results.len(), items.len());
                for result in &results {
                    let payload = result.as_ref().expect_err("no unit started");
                    assert_eq!(payload.downcast_ref::<BudgetExceeded>(), Some(&kind));
                }
            }
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn two_invalid_pv_threads_parses_emit_exactly_one_warning() {
        // Through the env-free resolution path (mutating the real variable
        // would race the other tests in this binary): both invalid parses
        // fall back to available parallelism, and the pv-obs warning — a
        // once-per-process event — fires for the first one only, observable
        // as the `warn.pv_threads` counter.
        assert!(resolve_threads(Some("bogus")) >= 1);
        assert!(resolve_threads(Some("0")) >= 1);
        assert_eq!(
            pv_obs::metrics::value("warn.pv_threads"),
            Some(1),
            "exactly one warning for two invalid parses"
        );
    }

    #[test]
    fn pv_threads_validation_rejects_unparsable_and_zero_values() {
        // The rule is tested through the pure helper — mutating the real
        // environment variable would race the other tests in this binary.
        for bad in ["zero", "0", "-3", "4.5", ""] {
            assert_eq!(parse_pv_threads(bad), None, "PV_THREADS={bad}");
        }
        assert_eq!(parse_pv_threads("3"), Some(3));
        assert_eq!(parse_pv_threads(" 8 "), Some(8));
    }
}
