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
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use pv_obs::{Counter, Gauge, Histogram};

/// Pool occupancy metrics: items claimed by pool workers, the widest pool
/// seen, and per-worker busy time per fan-out (the occupancy evidence the
/// intra-simulation sharding work will be sized with). The sequential
/// `threads == 1` path stays uninstrumented — it spawns no workers.
static M_POOL_CLAIM: Counter = Counter::new("pool.claim");
static M_POOL_WORKERS: Gauge = Gauge::new("pool.workers");
static M_POOL_BUSY: Histogram = Histogram::new("pool.worker.busy_us");
static M_POOL_UNIT_PANIC: Counter = Counter::new("pool.unit_panic");

/// A panic caught at a pool unit boundary: the unit's index and the panic
/// payload, preserved so callers can downcast it back to a typed abort
/// (e.g. `pv_bdd::BudgetExceeded`) or re-raise it unchanged.
pub struct UnitPanic {
    index: usize,
    payload: Box<dyn Any + Send>,
}

impl UnitPanic {
    /// The index of the item whose unit panicked.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Downcasts the payload by reference (`panic_any` payloads keep their
    /// concrete type; `panic!("...")` payloads are `&str` or `String`).
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// A human-readable rendering of the payload: the panic message for
    /// string payloads, a generic marker otherwise.
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked with a non-string payload".to_owned()
        }
    }

    /// The raw payload by reference, for classification without consuming
    /// the panic (see `FlowErrorKind::classify_panic` in `pipeverify-core`).
    pub fn payload_ref(&self) -> &(dyn Any + Send) {
        &*self.payload
    }

    /// The raw payload, for re-raising with [`std::panic::resume_unwind`].
    pub fn into_payload(self) -> Box<dyn Any + Send> {
        self.payload
    }
}

impl fmt::Debug for UnitPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UnitPanic {{ index: {}, {} }}",
            self.index,
            self.message()
        )
    }
}

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
    par_map_prefix_caught(threads, items, |_| {}, |i, item| (f(i, item), false))
        .into_iter()
        // Slots come back in index order, so the first panic met is the
        // lowest-indexed one.
        .map(|slot| slot.expect("every item is computed when none is terminal"))
        .map(|r| r.unwrap_or_else(|panic| resume_unwind(panic.into_payload())))
        .collect()
}

/// Applies `f` to every item on the pool, where `f` additionally returns a
/// *terminal* flag: once an item is terminal, items with **higher** indices
/// no longer need to be computed (the verifiers' "stop at the first
/// counterexample").
///
/// Every index up to and including the lowest terminal one is guaranteed to
/// be computed (`Some`); indices past it may or may not be, depending on how
/// far the workers had raced ahead. Callers that want sequential semantics
/// must therefore consume the slots in index order and stop at the first
/// terminal item — a panic in a slot past it belongs to work a sequential
/// run would never have done, and must not be re-raised.
///
/// Every unit runs inside [`std::panic::catch_unwind`], so one poisoned item
/// yields an `Err(`[`UnitPanic`]`)` in its slot while every sibling
/// completes. A panicked unit is **not** terminal — the prefix guarantee is
/// unchanged, and slots keep index order.
///
/// `on_cutoff(t)` fires (at most once per lowering) when a terminal item
/// drops the cutoff to `t`: items with indices `> t` can never join the
/// sequential prefix, so the callback is the pool's cooperative-cancellation
/// hook — the plan verifier uses it to cancel the budgets of in-flight
/// higher-indexed siblings, which then abort at their next safe point.
///
/// Unit closures are wrapped in [`AssertUnwindSafe`]: units are independent
/// by contract (the pool's whole premise), so any state `f` shares across
/// items must already tolerate an abandoned unit.
pub fn par_map_prefix_caught<I, R, F, C>(
    threads: usize,
    items: &[I],
    on_cutoff: C,
    f: F,
) -> Vec<Option<Result<R, UnitPanic>>>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> (R, bool) + Sync,
    C: Fn(usize) + Sync,
{
    let n = items.len();
    let mut results: Vec<Option<Result<R, UnitPanic>>> = (0..n).map(|_| None).collect();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok((r, terminal)) => {
                    results[i] = Some(Ok(r));
                    if terminal {
                        on_cutoff(i);
                        break;
                    }
                }
                Err(payload) => {
                    M_POOL_UNIT_PANIC.incr();
                    results[i] = Some(Err(UnitPanic { index: i, payload }));
                }
            }
        }
        return results;
    }

    // Work distribution: each worker claims the next unclaimed index. When an
    // item turns out to be terminal, `cutoff` drops to its index and later
    // indices are skipped instead of computed (they can never be part of the
    // sequential prefix). `cutoff` only ever decreases, and an index at or
    // below the final cutoff is never skipped, so the prefix is complete.
    let next = AtomicUsize::new(0);
    let cutoff = AtomicUsize::new(usize::MAX);
    M_POOL_WORKERS.set_max(threads as u64);
    type Computed<R> = Vec<(usize, Result<R, UnitPanic>)>;
    let computed = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (f, on_cutoff, next, cutoff) = (&f, &on_cutoff, &next, &cutoff);
                s.spawn(move || {
                    let mut out: Computed<R> = Vec::new();
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
                        match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                            Ok((r, terminal)) => {
                                busy += claimed_at.elapsed();
                                if terminal {
                                    let prev = cutoff.fetch_min(i, Ordering::AcqRel);
                                    if i < prev {
                                        on_cutoff(i);
                                    }
                                }
                                out.push((i, Ok(r)));
                            }
                            Err(payload) => {
                                busy += claimed_at.elapsed();
                                M_POOL_UNIT_PANIC.incr();
                                out.push((i, Err(UnitPanic { index: i, payload })));
                            }
                        }
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
            .collect::<Computed<R>>()
    });
    for (i, r) in computed {
        results[i] = Some(r);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Unwraps caught slots whose units are not expected to panic.
    fn unwrap_slots<R>(slots: Vec<Option<Result<R, UnitPanic>>>) -> Vec<Option<R>> {
        slots
            .into_iter()
            .map(|slot| slot.map(|r| r.expect("no unit panics")))
            .collect()
    }

    #[test]
    fn prefix_up_to_the_lowest_terminal_is_always_computed() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let results = unwrap_slots(par_map_prefix_caught(
                threads,
                &items,
                |_| {},
                |_, &x| (x, x == 20),
            ));
            for (i, r) in results.iter().enumerate().take(21) {
                assert_eq!(r, &Some(i), "index {i} belongs to the prefix");
            }
            // Consuming in index order and stopping at the terminal item
            // reproduces the sequential prefix regardless of racing.
            let prefix: Vec<usize> = results
                .into_iter()
                .map_while(|r| r)
                .scan(false, |done, x| {
                    if *done {
                        return None;
                    }
                    *done = x == 20;
                    Some(x)
                })
                .collect();
            assert_eq!(prefix, (0..=20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequential_fallback_stops_at_the_terminal_item() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let results = unwrap_slots(par_map_prefix_caught(
            1,
            &items,
            |_| {},
            |_, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                (x, x == 3)
            },
        ));
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(results[3], Some(3));
        assert!(results[4..].iter().all(Option::is_none));
    }

    #[test]
    fn a_panic_past_the_terminal_item_stays_outside_the_prefix() {
        // A racing worker may reach (and panic in) a unit past the terminal
        // one; the prefix is still all `Ok` on every thread count, so an
        // in-order consumer that stops at the terminal item never meets it —
        // exactly as a sequential run, which never computes that unit.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let slots = par_map_prefix_caught(
                threads,
                &items,
                |_| {},
                |_, &x| {
                    if x == 21 {
                        panic!("unit 21 poisoned");
                    }
                    (x, x == 20)
                },
            );
            for (i, slot) in slots.iter().enumerate().take(21) {
                let ok = slot.as_ref().and_then(|r| r.as_ref().ok());
                assert_eq!(ok, Some(&i), "index {i} on {threads} threads");
            }
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
            let slots = par_map_prefix_caught(
                threads,
                &items,
                |_| {},
                |_, &x| {
                    if x % 7 == 3 {
                        panic!("unit {x} poisoned");
                    }
                    (x * 2, false)
                },
            );
            assert_eq!(slots.len(), items.len());
            for (i, slot) in slots.iter().enumerate() {
                let slot = slot.as_ref().expect("no terminal item: every slot is Some");
                if i % 7 == 3 {
                    let panic = slot.as_ref().expect_err("poisoned unit");
                    assert_eq!(panic.index(), i);
                    assert_eq!(panic.message(), format!("unit {i} poisoned"));
                } else {
                    assert_eq!(slot.as_ref().ok(), Some(&(i * 2)));
                }
            }
        }
    }

    #[test]
    fn the_prefix_guarantee_holds_under_panics() {
        // A panicked unit is non-terminal: the prefix up to the lowest
        // *successful* terminal index must still be fully computed.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let slots = par_map_prefix_caught(
                threads,
                &items,
                |_| {},
                |_, &x| {
                    if x == 9 {
                        panic!("unit 9 poisoned");
                    }
                    (x, x == 20)
                },
            );
            for (i, slot) in slots.iter().enumerate().take(21) {
                let slot = slot.as_ref().expect("index {i} belongs to the prefix");
                if i == 9 {
                    assert!(slot.is_err(), "unit 9 panicked");
                } else {
                    assert_eq!(slot.as_ref().ok(), Some(&i));
                }
            }
        }
    }

    #[test]
    fn on_cutoff_reports_terminal_indices_for_sibling_cancellation() {
        let items: Vec<usize> = (0..48).collect();
        for threads in [1, 2, 4] {
            let lowest_seen = AtomicUsize::new(usize::MAX);
            par_map_prefix_caught(
                threads,
                &items,
                |t| {
                    lowest_seen.fetch_min(t, Ordering::Relaxed);
                },
                |_, &x| (x, x == 11 || x == 30),
            );
            let lowest = lowest_seen.load(Ordering::Relaxed);
            assert!(
                lowest == 11 || lowest == 30,
                "on_cutoff fired for a terminal index (got {lowest})"
            );
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
