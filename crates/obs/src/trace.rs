//! **Structured span tracing**: scoped enter/exit events buffered per thread
//! and merged deterministically on export.
//!
//! # Model
//!
//! A *span* is a named region of one thread's execution: [`span`] emits an
//! `Enter` event and returns a guard whose drop emits the matching `Exit`.
//! Guards nest lexically, so within a thread the event stream is a
//! well-formed bracket sequence — the property `fold::check_nesting`
//! verifies on exported traces. Span names are `&'static str` dotted paths
//! (`sim.cycle`, `flow.flush.cube`, `server.job`), the same convention as
//! metric names.
//!
//! # Cost discipline
//!
//! Tracing is **off** until [`set_trace_enabled`] turns it on — each
//! program that exports a trace does so around the region it traces. A
//! disabled [`span`] is one relaxed atomic load and no allocation. Enabled
//! spans append to a thread-local buffer (no locks, no per-event
//! allocation — names are borrowed statics) that drains into the
//! process-global sink when it fills, when the thread ends, or on
//! [`flush_thread`] — the worker pool flushes as each worker retires, so a
//! [`take_events`] after a parallel region sees everything.
//!
//! # Determinism
//!
//! Thread ids are small per-process ordinals and each event carries its
//! thread-local sequence number; [`take_events`] merge-sorts on
//! `(tid, seq)`, so the export order is canonical however the buffers
//! drained. Timestamps are microseconds from the first instrumentation
//! touch of the process (wall-clock content varies run to run; the event
//! *structure* does not).

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics;

/// A thread buffer drains to the sink at this many events.
const FLUSH_AT: usize = 8192;

/// What one [`TraceEvent`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A span opened.
    Enter,
    /// The innermost open span with this name closed.
    Exit,
    /// A one-shot warning (from [`warn_once`]); `name` is the warning key.
    Warn,
}

/// One tracing event. `name` is borrowed for events emitted in-process and
/// owned for events parsed back from JSONL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Per-process thread ordinal (dense, assigned on first event).
    pub tid: u64,
    /// Per-thread sequence number (dense from 0; the canonical sort key
    /// together with `tid`).
    pub seq: u64,
    /// Enter, exit, or warning.
    pub kind: TraceKind,
    /// Span name or warning key.
    pub name: Cow<'static, str>,
    /// Microseconds since the process's tracing epoch.
    pub t_us: u64,
    /// Warning message (`Warn` events only).
    pub msg: Option<String>,
}

/// Whether spans record events (see [`set_trace_enabled`]).
static TRACE_ON: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Is tracing currently on? One relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Turns tracing on or off (used by `pv trace`, perf-smoke, perfbench and
/// `pv_bench::traced_verify_plan`, which each drain the events they cause).
/// Spans already open keep their pairing: a guard created while tracing was
/// off never emits an exit.
pub fn set_trace_enabled(on: bool) {
    epoch(); // anchor the timebase before the first traced event
    TRACE_ON.store(on, Ordering::Relaxed);
}

struct ThreadBuf {
    tid: u64,
    seq: u64,
    events: Vec<TraceEvent>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = sink().lock().expect("trace sink poisoned");
        sink.append(&mut self.events);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Thread teardown is a best-effort backstop drain. It runs in the
        // TLS destructor, which a scoped-thread join does not wait for, so
        // a joiner can export before it lands; workers call `flush_thread`
        // after their last span closes instead of relying on it.
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        RefCell::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            seq: 0,
            events: Vec::new(),
        })
    };
}

fn record(kind: TraceKind, name: Cow<'static, str>, msg: Option<String>) {
    let t_us = now_us();
    // `try_with` drops events emitted during thread-local teardown instead
    // of panicking; nothing in this workspace traces from destructors.
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        let (tid, seq) = (b.tid, b.seq);
        b.seq += 1;
        b.events.push(TraceEvent {
            tid,
            seq,
            kind,
            name,
            t_us,
            msg,
        });
        if b.events.len() >= FLUSH_AT {
            b.flush();
        }
    });
}

/// The guard returned by [`span`]; dropping it emits the matching `Exit`
/// event. Guards must drop in LIFO order (lexical scoping gives this for
/// free) for the per-thread stream to stay well-nested.
#[must_use = "a span guard traces the scope it lives in; dropping it immediately makes an empty span"]
pub struct SpanGuard {
    armed: bool,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record(TraceKind::Exit, Cow::Borrowed(self.name), None);
        }
    }
}

/// Opens the span `name` on the current thread. With tracing disabled this
/// is one atomic load and the returned guard is inert — the pairing is
/// decided at enter time, so toggling tracing mid-span cannot orphan an
/// exit.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { armed: false, name };
    }
    record(TraceKind::Enter, Cow::Borrowed(name), None);
    SpanGuard { armed: true, name }
}

/// Drains the current thread's buffer into the process sink. The worker
/// pool calls this as each worker retires; call it before [`take_events`]
/// on any other thread that traced.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| b.borrow_mut().flush());
}

/// Drains every flushed event (plus the calling thread's buffer) and
/// returns them merge-sorted by `(tid, seq)` — the canonical export order.
/// Other threads' unflushed tails are not included, even after the thread
/// is joined: `std::thread::scope` can return before a worker's TLS
/// destructor delivers its buffer. A traced worker must therefore call
/// [`flush_thread`] after its last span closes, as the worker pool does.
pub fn take_events() -> Vec<TraceEvent> {
    flush_thread();
    let mut events = std::mem::take(&mut *sink().lock().expect("trace sink poisoned"));
    events.sort_by_key(|a| (a.tid, a.seq));
    events
}

fn warned() -> &'static Mutex<BTreeSet<&'static str>> {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Emits the warning `message` **once per process** for a given `key`: a
/// stderr line, a `warn.<key>` counter increment, and (when tracing is on) a
/// `Warn` trace event. Returns whether this call was the emitting one.
pub fn warn_once(key: &'static str, message: &str) -> bool {
    if !warned().lock().expect("warn set poisoned").insert(key) {
        return false;
    }
    eprintln!("pipeverify: warning: {message}");
    metrics::counter_add(&format!("warn.{key}"), 1);
    if trace_enabled() {
        record(
            TraceKind::Warn,
            Cow::Borrowed(key),
            Some(message.to_owned()),
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests below toggle the process-global trace switch and drain the
    /// global sink; they serialize on this lock so the parallel test runner
    /// cannot interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_emit_nothing_and_enabled_spans_pair_up() {
        let _serial = TEST_LOCK.lock().unwrap();
        set_trace_enabled(false);
        {
            let _g = span("test.trace.dark");
        }
        set_trace_enabled(true);
        {
            let _outer = span("test.trace.outer");
            let _inner = span("test.trace.inner");
        }
        set_trace_enabled(false);
        let events = take_events();
        assert!(
            !events.iter().any(|e| e.name == "test.trace.dark"),
            "disabled span leaked an event"
        );
        let mine: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name.starts_with("test.trace."))
            .collect();
        let kinds: Vec<(TraceKind, &str)> = mine.iter().map(|e| (e.kind, &*e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (TraceKind::Enter, "test.trace.outer"),
                (TraceKind::Enter, "test.trace.inner"),
                (TraceKind::Exit, "test.trace.inner"),
                (TraceKind::Exit, "test.trace.outer"),
            ],
            "guards nest LIFO"
        );
        let tid = mine[0].tid;
        assert!(mine.iter().all(|e| e.tid == tid));
        for pair in mine.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "per-thread seq is increasing");
            assert!(pair[0].t_us <= pair[1].t_us, "time is monotone");
        }
    }

    #[test]
    fn export_merges_scoped_threads_deterministically() {
        let _serial = TEST_LOCK.lock().unwrap();
        set_trace_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    // Close the span before flushing: an event recorded after
                    // the last flush may miss the export (see `take_events`).
                    drop(span("test.trace.worker"));
                    flush_thread();
                });
            }
        });
        set_trace_enabled(false);
        let events = take_events();
        let workers: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name == "test.trace.worker")
            .collect();
        assert_eq!(workers.len(), 6, "3 threads x enter+exit");
        let order: Vec<(u64, u64)> = workers.iter().map(|e| (e.tid, e.seq)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "export is (tid, seq)-sorted");
    }

    #[test]
    fn warnings_fire_once_per_key() {
        assert!(warn_once("test_trace_key", "first"));
        assert!(!warn_once("test_trace_key", "second"));
        assert_eq!(metrics::value("warn.test_trace_key"), Some(1));
    }
}
