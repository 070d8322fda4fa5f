//! The **metrics registry**: process-global counters, gauges and histograms
//! behind atomics.
//!
//! Metric names are hierarchical, dot-separated, lowercase
//! (`bdd.ite.cache_hit`, `server.job.queue_wait_us`); a name identifies one
//! slot for the whole process. Call-sites declare a `static` handle and pay
//! one registry lookup on first use, after which every operation is a single
//! relaxed atomic instruction:
//!
//! ```
//! use pv_obs::Counter;
//!
//! static STEALS: Counter = Counter::new("pool.claim");
//! STEALS.incr();
//! assert!(STEALS.value() >= 1);
//! ```
//!
//! [`snapshot`] renders every touched metric in name order (deterministic
//! given the same operations), flattening each histogram to its `.count`,
//! `.sum` and `.max` components.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Power-of-two histogram buckets: bucket `i` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 also takes 0). 40 buckets cover a u64 of
/// microseconds up to ~12 days, far beyond any span this repository times.
const HIST_BUCKETS: usize = 40;

/// One histogram's storage: total count and sum, running max, and
/// log2-bucketed counts.
struct HistSlot {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistSlot {
    fn new() -> Self {
        HistSlot {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A registered metric's storage. Slots are allocated once per distinct name
/// and leaked (the registry lives for the process), so handles hold
/// `'static` references and operations never re-enter the registry lock.
/// The histogram variant is ~350 bytes of buckets, but slots are boxed and
/// leaked individually, so the size spread costs nothing per counter.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    Histogram(HistSlot),
}

fn registry() -> &'static Mutex<BTreeMap<String, &'static Slot>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, &'static Slot>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Looks `name` up in the registry, creating its slot with `make` when
/// absent.
fn slot_for(name: &str, make: fn() -> Slot) -> &'static Slot {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(&slot) = reg.get(name) {
        return slot;
    }
    let slot: &'static Slot = Box::leak(Box::new(make()));
    reg.insert(name.to_owned(), slot);
    slot
}

/// A monotone counter. `new` is `const`, so handles live in `static`s next
/// to their call-sites; the slot is resolved (and registered) on first use.
/// Two handles with the same name share one slot; a name already registered
/// as a different metric kind panics — two call-sites disagreeing on what
/// `bdd.gc.runs` *is* is a bug worth failing loudly on.
pub struct Counter {
    name: &'static str,
    slot: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Declares a counter named `name` (not yet registered — that happens on
    /// first use, so unused instrumentation never appears in a snapshot).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            slot: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static AtomicU64 {
        self.slot.get_or_init(
            || match slot_for(self.name, || Slot::Counter(AtomicU64::new(0))) {
                Slot::Counter(c) => c,
                _ => panic!("metric `{}` is registered as a non-counter", self.name),
            },
        )
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

/// A gauge: the last (or largest) recorded value.
pub struct Gauge {
    name: &'static str,
    slot: OnceLock<&'static AtomicU64>,
}

impl Gauge {
    /// Declares a gauge named `name`.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            slot: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static AtomicU64 {
        self.slot.get_or_init(
            || match slot_for(self.name, || Slot::Gauge(AtomicU64::new(0))) {
                Slot::Gauge(g) => g,
                _ => panic!("metric `{}` is registered as a non-gauge", self.name),
            },
        )
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell().store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (a high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.cell().fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` samples (by convention, microseconds for
/// durations): total count and sum, running max, and log2 buckets.
pub struct Histogram {
    name: &'static str,
    slot: OnceLock<&'static HistSlot>,
}

impl Histogram {
    /// Declares a histogram named `name`.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            slot: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistSlot {
        self.slot.get_or_init(
            || match slot_for(self.name, || Slot::Histogram(HistSlot::new())) {
                Slot::Histogram(h) => h,
                _ => panic!("metric `{}` is registered as a non-histogram", self.name),
            },
        )
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let h = self.cell();
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (63 - v.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        h.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// `(count, sum, max)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        let h = self.cell();
        (
            h.count.load(Ordering::Relaxed),
            h.sum.load(Ordering::Relaxed),
            h.max.load(Ordering::Relaxed),
        )
    }
}

/// Adds `n` to the counter named `name`, registering it if needed — the
/// dynamic-name escape hatch for rare events (e.g. `warn.<key>` counters)
/// where a `static` handle cannot be declared. Costs a registry lock per
/// call; keep it off hot paths.
pub fn counter_add(name: &str, n: u64) {
    match slot_for(name, || Slot::Counter(AtomicU64::new(0))) {
        Slot::Counter(c) => {
            c.fetch_add(n, Ordering::Relaxed);
        }
        _ => panic!("metric `{name}` is registered as a non-counter"),
    }
}

/// The current value of the counter or gauge named `name` (`None` when it
/// was never touched or is a histogram).
pub fn value(name: &str) -> Option<u64> {
    let reg = registry().lock().expect("metrics registry poisoned");
    match reg.get(name)? {
        Slot::Counter(c) => Some(c.load(Ordering::Relaxed)),
        Slot::Gauge(g) => Some(g.load(Ordering::Relaxed)),
        Slot::Histogram(_) => None,
    }
}

/// Every touched metric, flattened to `(name, value)` pairs in name order:
/// counters and gauges as their value, each histogram as `<name>.count`,
/// `<name>.sum` and `<name>.max`. Deterministic given the same operations.
pub fn snapshot() -> Vec<(String, u64)> {
    let reg = registry().lock().expect("metrics registry poisoned");
    let mut out = Vec::with_capacity(reg.len());
    for (name, slot) in reg.iter() {
        match slot {
            Slot::Counter(c) => out.push((name.clone(), c.load(Ordering::Relaxed))),
            Slot::Gauge(g) => out.push((name.clone(), g.load(Ordering::Relaxed))),
            Slot::Histogram(h) => {
                out.push((format!("{name}.count"), h.count.load(Ordering::Relaxed)));
                out.push((format!("{name}.max"), h.max.load(Ordering::Relaxed)));
                out.push((format!("{name}.sum"), h.sum.load(Ordering::Relaxed)));
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_slots_by_name() {
        static A: Counter = Counter::new("test.metrics.shared");
        static B: Counter = Counter::new("test.metrics.shared");
        let before = A.value();
        A.add(2);
        B.incr();
        assert_eq!(A.value(), before + 3, "two handles, one slot");
        assert_eq!(B.value(), A.value());
    }

    #[test]
    fn gauges_track_high_water_marks() {
        static G: Gauge = Gauge::new("test.metrics.gauge");
        G.set(7);
        G.set_max(3);
        assert_eq!(G.value(), 7, "set_max never lowers");
        G.set_max(11);
        assert_eq!(G.value(), 11);
    }

    #[test]
    fn histograms_flatten_into_the_snapshot() {
        static H: Histogram = Histogram::new("test.metrics.hist");
        H.record(0);
        H.record(5);
        H.record(1000);
        let (count, sum, max) = H.stats();
        assert!(count >= 3 && sum >= 1005 && max >= 1000);
        let snap = snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
        assert_eq!(get("test.metrics.hist.count"), Some(count));
        assert_eq!(get("test.metrics.hist.sum"), Some(sum));
        assert_eq!(get("test.metrics.hist.max"), Some(max));
        let names: Vec<&String> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot is name-ordered");
    }

    #[test]
    fn dynamic_counters_reach_the_same_registry() {
        counter_add("test.metrics.dynamic", 4);
        counter_add("test.metrics.dynamic", 1);
        assert_eq!(value("test.metrics.dynamic"), Some(5));
        assert_eq!(value("test.metrics.never_touched"), None);
    }
}
